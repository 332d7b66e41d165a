"""Incremental MinHash near-dup over a recurring corpus (VERDICT r03
next-round #8): re-sketch ONLY changed/new documents, re-run LSH only
for buckets containing changed ids, and merge prior verified edges.

This is the near-dup analog of the flagship's per-url incremental
change detection (``pipelines/flagship.py``): a persistent STATE DIR
holds, partitioned by ``hash(doc_id) % state_parts``,

    sidecar/part-NNNNN.parquet   (doc_id, h1, h2)    content hashes
    sigs/part-NNNNN.parquet      (id, payload)       minhash signatures
    bands/part-NNNNN.parquet     (doc_id, band, key) LSH band rows
    edges.parquet                (a, b)              verified dup pairs
    state.json                   config + completeness marker

On a rerun, a content-hash pass over the corpus co-partitions with the
stored sidecar through the filesystem exchange and each part diffs
independently; only the changed/new docs are shingled+minhashed again
(the expensive work — measured to dominate near-dup wall time).

Why only changed-bucket pairs suffice: an unchanged doc's band keys are
unchanged, so two unchanged docs share a bucket now iff they did in the
prior run — their candidate pair was already emitted and its verified
verdict (signatures unchanged) is in the stored edges. A changed doc's
OLD edges are dropped (its signature changed) and its OLD band keys
need no re-scan: buckets at those keys lost only this doc, which cannot
create a new pair among the remaining members. So the incremental pair
set = pairs with >= 1 changed endpoint in buckets keyed by the CHANGED
docs' new band rows — provably equal to from-scratch (asserted by
tests/test_dedup_incremental.py at a 1% edit rate and under doc
removal/addition).

Promotion is crash-safe in the flagship manifest style: ``state.json``
is retracted BEFORE any state is replaced, so a crash mid-promote
forces a full re-sketch on the next run instead of serving mixed state.

Driver budgets (same convention as stages/dedup.py): the changed-id
set, the affected-bucket row scan and the edge frame are
driver-collected — all bounded by the CHANGE RATE, not the corpus (the
first run special-cases "everything changed" without collecting ids).
Pair verification routes through ``pairs.verify_pairs`` beyond
``max_pairs`` with the stored signature partitions as the payload side.
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions import hashing as H
from ..functions.textstats import shingles
from . import dedup as D
from . import exchange as ex
from . import pairs as P

_SIDECAR_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("h1", pa.uint64()), ("h2", pa.uint64()),
])
_DIFF_SCHEMA = pa.schema([("doc_id", pa.int64()), ("removed", pa.bool_())])
_SKETCH_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("band", pa.int32()), ("key", pa.int64()),
    ("payload", pa.binary()),
])


def _part_file(state_dir: str, sub: str, p: int) -> str:
    return os.path.join(state_dir, sub, f"part-{p:05d}.parquet")


def _read_part_file(path: str, schema: pa.Schema) -> pa.Table:
    import pyarrow.parquet as pq

    if not os.path.exists(path):
        return schema.empty_table()
    return pq.read_table(path)


def _write_part_file(path: str, table: pa.Table) -> None:
    import pyarrow.parquet as pq

    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + f".tmp-{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, path)


def _for_parts(num_parts: int, fn, out_schema: pa.Schema):
    """Run ``fn(p) -> pa.Table | None`` once per part id, one task each
    (``ex.part_tasks``), over part IDS — a part with no exchange
    fragments still runs, which the diff needs to detect fully-removed
    parts. Eager, like ``ex.map_parts``."""
    def run(p: int) -> pa.Table:
        out = fn(p)
        if out is None or not out.num_rows:
            return out_schema.empty_table()
        return out

    return ex.tables_dataset(ex.part_tasks(run, range(num_parts)), out_schema)


def _content_hashes(texts: list) -> tuple[np.ndarray, np.ndarray]:
    """16-byte blake2b content hash as two uint64 columns (the
    dedup_exact convention — 128-bit collision resistance)."""
    import hashlib

    h1 = np.empty(len(texts), dtype=np.uint64)
    h2 = np.empty(len(texts), dtype=np.uint64)
    for i, t in enumerate(texts):
        d = hashlib.blake2b((t or "").encode(), digest_size=16).digest()
        h1[i] = int.from_bytes(d[:8], "little")
        h2[i] = int.from_bytes(d[8:], "little")
    return h1, h2


def minhash_near_dup_incremental(
    ds,
    state_dir: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 128,
    bands: int = 16,
    threshold: float = 0.8,
    k_shingle: int = 5,
    max_pairs: int = 2_000_000,
    num_parts: int = 32,
    state_parts: int = 32,
    method: str = "minhash",
    hamming_threshold: int = 3,
):
    """Returns ``(labels_ds, stats)`` where ``labels_ds`` is the same
    (doc_id, dup_group) dataset ``dedup.minhash_near_dup`` produces on
    the current corpus, and ``stats`` reports the incremental work:
    {n_docs, n_sketched, n_removed, n_pairs_checked, n_edges}.

    ``method='simhash'`` runs the identical incremental machinery over
    the SimHash sketch (8-byte payload, hamming verify at
    ``hamming_threshold``, band keys as in ``dedup.simhash_near_dup``)
    — equal to ``simhash_near_dup`` from scratch. Every argument of the
    unused family is ignored and excluded from the state config.

    A config change (sketch params/state_parts/method) or a
    missing/retracted ``state.json`` invalidates the whole state and
    triggers a full re-sketch."""
    import ray
    import ray.data as rd

    if method not in ("minhash", "simhash"):
        raise ValueError(f"unknown method {method!r}")
    if method == "minhash":
        config = {"method": method, "num_perm": num_perm, "bands": bands,
                  "threshold": threshold, "k_shingle": k_shingle,
                  "state_parts": state_parts, "v": 1}
    else:
        config = {"method": method, "bands": bands,
                  "hamming_threshold": hamming_threshold,
                  "state_parts": state_parts, "v": 1}
    state_path = os.path.join(state_dir, "state.json")
    have_state = False
    if os.path.exists(state_path):
        try:
            with open(state_path) as fh:
                have_state = json.load(fh).get("config") == config
        except (OSError, json.JSONDecodeError):
            have_state = False
    if not have_state:
        # stale layout/config or crashed promote: rebuild from nothing
        shutil.rmtree(state_dir, ignore_errors=True)
    os.makedirs(state_dir, exist_ok=True)
    staging = os.path.join(state_dir, f".staging-{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)

    if method == "minhash":
        a_coef, b_coef = H.minhash_params(num_perm)

        def doc_sketch(text: str):
            sig = H.minhash_signature(
                shingles(text or "", k_shingle), a_coef, b_coef)
            return list(enumerate(H.lsh_band_keys(sig, bands))), sig.tobytes()

        def keep_pairs(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
            return (sa == sb).mean(axis=1) >= threshold
    else:
        band_mask = (1 << (64 // bands)) - 1

        def doc_sketch(text: str):
            hv = H.simhash64((text or "").lower().split())
            keys = [(j, (hv >> (j * 64 // bands)) & band_mask)
                    for j in range(bands)]
            return keys, hv.to_bytes(8, "little")

        def keep_pairs(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
            x = sa[:, 0] ^ sb[:, 0]
            ham = np.unpackbits(
                x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)
            return ham <= hamming_threshold

    by_id = lambda b: ex.int_part(  # noqa: E731
        [b["doc_id"].to_numpy(zero_copy_only=False)], state_parts)

    # ---- phase 1: content hashes -> co-partitioned diff vs sidecar ----
    def hash_batch(batch: pa.Table) -> pa.Table:
        h1, h2 = _content_hashes(batch[text_col].to_pylist())
        return pa.table({
            "doc_id": pa.compute.cast(batch[id_col], pa.int64()),
            "h1": pa.array(h1, pa.uint64()),
            "h2": pa.array(h2, pa.uint64()),
        })

    with ex.stage("nse_inc_cur_") as cur_stage:
        n_docs = ex.write_exchange(
            ds.map_batches(hash_batch, batch_format="pyarrow"),
            cur_stage, by_id)
        # one read of the commit list; each part task gets its files
        # through the task closure, which ``ex.part_tasks`` ships once
        cur_files = ex.part_files(cur_stage)

        def diff_part(p: int) -> pa.Table:
            cur = ex.read_files(cur_files.get(p, []), _SIDECAR_SCHEMA)
            # the new sidecar part is staged now; promoted only at the end
            _write_part_file(_part_file(staging, "sidecar", p), cur)
            old = (_read_part_file(_part_file(state_dir, "sidecar", p),
                                   _SIDECAR_SCHEMA)
                   if have_state else _SIDECAR_SCHEMA.empty_table())
            # pure numpy diff — a pandas outer merge would route the
            # uint64 hashes through float64 and silently equate distinct
            # hashes above 2^53 (CLAUDE.md int64-exchange rule)
            c_ids = cur["doc_id"].to_numpy(zero_copy_only=False)
            ch1 = cur["h1"].to_numpy(zero_copy_only=False)
            ch2 = cur["h2"].to_numpy(zero_copy_only=False)
            order = np.argsort(c_ids, kind="stable")
            c_ids, ch1, ch2 = c_ids[order], ch1[order], ch2[order]
            o_ids = old["doc_id"].to_numpy(zero_copy_only=False)
            oh1 = old["h1"].to_numpy(zero_copy_only=False)
            oh2 = old["h2"].to_numpy(zero_copy_only=False)
            oorder = np.argsort(o_ids, kind="stable")
            o_ids, oh1, oh2 = o_ids[oorder], oh1[oorder], oh2[oorder]
            if len(o_ids):
                j = np.clip(np.searchsorted(o_ids, c_ids), 0, len(o_ids) - 1)
                in_old = o_ids[j] == c_ids
                same = in_old & (oh1[j] == ch1) & (oh2[j] == ch2)
            else:
                same = np.zeros(len(c_ids), dtype=bool)
            changed = c_ids[~same]
            removed = o_ids[~np.isin(o_ids, c_ids)]
            return pa.table({
                "doc_id": pa.array(
                    np.concatenate([changed, removed]), pa.int64()),
                "removed": pa.array(
                    np.concatenate([np.zeros(len(changed), dtype=bool),
                                    np.ones(len(removed), dtype=bool)])),
            })

        if have_state:
            # rerun: the diff output is bounded by the CHANGE RATE
            diff = _for_parts(state_parts, diff_part, _DIFF_SCHEMA).to_pandas()
            changed_ids = np.sort(
                diff["doc_id"][~diff["removed"]].to_numpy(np.int64))
            removed_ids = np.sort(
                diff["doc_id"][diff["removed"]].to_numpy(np.int64))
        else:
            # first run: EVERYTHING is new — stage the sidecar without
            # collecting a corpus-sized changed-id list on the driver
            _for_parts(
                state_parts,
                lambda p: (_write_part_file(
                    _part_file(staging, "sidecar", p),
                    ex.read_files(cur_files.get(p, []), _SIDECAR_SCHEMA))
                    or None),
                _DIFF_SCHEMA).count()
            changed_ids = None  # sentinel: all docs
            removed_ids = np.array([], dtype=np.int64)

    # ---- phase 2: sketch ONLY changed docs (band rows + sig payload) ----
    if changed_ids is None:
        to_sketch = ds
        n_sketched = n_docs
    else:
        n_sketched = int(len(changed_ids))
        ref = ray.put(changed_ids)

        def keep_changed(batch: pa.Table) -> pa.Table:
            from .broadcast import get_broadcast

            ids = batch[id_col].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(np.isin(ids, get_broadcast(ref))))

        to_sketch = ds.map_batches(keep_changed, batch_format="pyarrow")

    def sketch(batch: pa.Table) -> pa.Table:
        ids, bidx, bkey, pay = [], [], [], []
        for did, text in zip(batch[id_col].to_pylist(),
                             batch[text_col].to_pylist()):
            keys, payload = doc_sketch(text)
            for j, key in keys:
                ids.append(did)
                bidx.append(j)
                bkey.append(key)
                pay.append(None)
            ids.append(did)
            bidx.append(-1)
            bkey.append(0)
            pay.append(payload)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "band": pa.array(bidx, pa.int32()),
            "key": pa.array(bkey, pa.int64()),
            "payload": pa.array(pay, pa.binary()),
        })

    sig_schema = pa.schema([("id", pa.int64()), ("payload", pa.binary())])
    band_schema = pa.schema([
        ("doc_id", pa.int64()), ("band", pa.int32()), ("key", pa.int64()),
    ])
    with ex.stage("nse_inc_new_") as new_stage:
        ex.write_exchange(
            to_sketch.map_batches(sketch, batch_format="pyarrow"),
            new_stage, by_id)
        new_files = ex.part_files(new_stage)

        # ---- phase 3: per-part state update (sigs + bands) ----
        drop_ids = np.concatenate([
            changed_ids if changed_ids is not None else np.array([], np.int64),
            removed_ids,
        ])
        drop_ref = ray.put(np.sort(drop_ids))

        key_schema = pa.schema([("band", pa.int32()), ("key", pa.int64())])

        def update_part(p: int) -> pa.Table:
            from .broadcast import get_broadcast

            drop = get_broadcast(drop_ref)
            new = ex.read_files(new_files.get(p, []), _SKETCH_SCHEMA)
            new_bands = new.filter(
                pa.compute.greater_equal(new["band"], 0)).select(
                    ["doc_id", "band", "key"])
            new_sigs = pa.table({
                "id": new.filter(pa.compute.equal(new["band"], -1))["doc_id"],
                "payload": new.filter(
                    pa.compute.equal(new["band"], -1))["payload"],
            })
            if have_state and changed_ids is not None:
                old_sigs = _read_part_file(
                    _part_file(state_dir, "sigs", p), sig_schema)
                old_bands = _read_part_file(
                    _part_file(state_dir, "bands", p), band_schema)
                keep_s = ~np.isin(
                    old_sigs["id"].to_numpy(zero_copy_only=False), drop)
                keep_b = ~np.isin(
                    old_bands["doc_id"].to_numpy(zero_copy_only=False), drop)
                sigs_t = pa.concat_tables(
                    [old_sigs.filter(pa.array(keep_s)), new_sigs.cast(sig_schema)])
                bands_t = pa.concat_tables(
                    [old_bands.filter(pa.array(keep_b)),
                     new_bands.cast(band_schema)])
            else:
                sigs_t = new_sigs.cast(sig_schema)
                bands_t = new_bands.cast(band_schema)
            _write_part_file(_part_file(staging, "sigs", p), sigs_t)
            _write_part_file(_part_file(staging, "bands", p), bands_t)
            # affected bucket keys = the CHANGED docs' new band keys
            kdf = new_bands.select(["band", "key"]).to_pandas().drop_duplicates()
            return pa.Table.from_pandas(kdf, preserve_index=False).cast(
                key_schema)

        affected = _for_parts(state_parts, update_part, key_schema).to_pandas()
    affected = affected.drop_duplicates()

    # ---- phase 4: candidate pairs from affected buckets ----
    # composite (band, key) membership hash: a collision only ADDS a
    # bucket to the scan (extra candidates, removed by exact verify)
    def _bucket_hash(band: np.ndarray, key: np.ndarray) -> np.ndarray:
        from .sketch import splitmix64

        return splitmix64(key.astype(np.uint64)
                          ^ (band.astype(np.uint64) << np.uint64(56)))

    aff_hash = np.sort(_bucket_hash(
        affected["band"].to_numpy(np.int64), affected["key"].to_numpy(np.int64)))
    aff_ref = ray.put(aff_hash)

    def scan_part(p: int) -> pa.Table:
        from .broadcast import get_broadcast

        aff = get_broadcast(aff_ref)
        t = _read_part_file(_part_file(staging, "bands", p), band_schema)
        if not t.num_rows or not len(aff):
            return band_schema.empty_table()
        h = _bucket_hash(t["band"].to_numpy(zero_copy_only=False),
                         t["key"].to_numpy(zero_copy_only=False))
        j = np.clip(np.searchsorted(aff, h), 0, len(aff) - 1)
        return t.filter(pa.array(aff[j] == h))

    # driver-collected bucket rows: bounded by changed-docs x bands x
    # bucket size (the hot-bucket cap in _emit_pairs_from_bucket bounds
    # the last factor)
    bucket_rows = _for_parts(state_parts, scan_part, band_schema).to_pandas()
    # vectorized bucket->pairs combine (same kernel as the batch path;
    # set-equal to the per-bucket loop, property-tested in
    # test_dedup_similarity) — no Python iteration over buckets
    pairs_df = D._pairs_from_band_rows(bucket_rows)
    if len(pairs_df) and changed_ids is not None:
        # only pairs with >= 1 changed endpoint are NEW; the rest
        # were candidates before and live in the stored edges
        a_ch = np.isin(pairs_df["a"].to_numpy(np.int64), changed_ids)
        b_ch = np.isin(pairs_df["b"].to_numpy(np.int64), changed_ids)
        pairs_df = pairs_df[a_ch | b_ch]

    # ---- phase 5: verify new pairs against the updated signatures ----
    sig_files = sorted(glob.glob(os.path.join(staging, "sigs", "*.parquet")))

    def _sigs_ds():
        return rd.read_parquet(sig_files)

    n_pairs = len(pairs_df)
    if n_pairs == 0:
        verified_edges = pd.DataFrame({"a": pd.Series(dtype="int64"),
                                       "b": pd.Series(dtype="int64")})
    elif n_pairs <= max_pairs:
        cand = np.unique(np.concatenate([
            pairs_df["a"].to_numpy(np.int64), pairs_df["b"].to_numpy(np.int64)]))
        cand_ref = ray.put(cand)

        def cand_sigs(batch: pa.Table) -> pa.Table:
            from .broadcast import get_broadcast

            ids = batch["id"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(np.isin(ids, get_broadcast(cand_ref))))

        sdf = _sigs_ds().map_batches(
            cand_sigs, batch_format="pyarrow").to_pandas()
        order = np.argsort(sdf["id"].to_numpy())
        sid = sdf["id"].to_numpy()[order]
        sigs = np.stack([np.frombuffer(x, dtype=np.uint64)
                         for x in sdf["payload"].to_numpy()[order]])
        a = pairs_df["a"].to_numpy(np.int64)
        b = pairs_df["b"].to_numpy(np.int64)
        keep = keep_pairs(sigs[np.searchsorted(sid, a)],
                          sigs[np.searchsorted(sid, b)])
        verified_edges = pd.DataFrame({"a": a[keep], "b": b[keep]})
    else:
        def pair_verify(m: pd.DataFrame) -> pa.Table:
            if m.empty:
                return P.PAIR_SCHEMA.empty_table()
            sa = np.stack([np.frombuffer(x, dtype=np.uint64)
                           for x in m["payload_a"]])
            sb = np.stack([np.frombuffer(x, dtype=np.uint64)
                           for x in m["payload_b"]])
            keep = keep_pairs(sa, sb)
            return pa.table({
                "a": pa.array(m["a"].to_numpy(np.int64)[keep], pa.int64()),
                "b": pa.array(m["b"].to_numpy(np.int64)[keep], pa.int64()),
            })

        verified_edges = P.verify_pairs(
            P.pairs_to_ds(pairs_df), _sigs_ds(), pair_verify,
            P.PAIR_SCHEMA, num_parts).to_pandas()

    # ---- phase 6: merge with surviving stored edges ----
    old_edges_path = os.path.join(state_dir, "edges.parquet")
    if have_state and changed_ids is not None and os.path.exists(old_edges_path):
        import pyarrow.parquet as pq

        old_e = pq.read_table(old_edges_path).to_pandas()
        gone = np.sort(np.concatenate([changed_ids, removed_ids]))
        touch = (np.isin(old_e["a"].to_numpy(np.int64), gone)
                 | np.isin(old_e["b"].to_numpy(np.int64), gone))
        kept = old_e[~touch]
    else:
        kept = pd.DataFrame({"a": pd.Series(dtype="int64"),
                             "b": pd.Series(dtype="int64")})
    edges = pd.concat([kept, verified_edges], ignore_index=True).drop_duplicates()
    _write_part_file(os.path.join(staging, "edges.parquet"),
                     pa.Table.from_pandas(edges, preserve_index=False).cast(
                         P.PAIR_SCHEMA))

    # ---- phase 7: crash-safe promote (retract marker first) ----
    if os.path.exists(state_path):
        os.remove(state_path)
    for sub in ("sidecar", "sigs", "bands"):
        dst = os.path.join(state_dir, sub)
        shutil.rmtree(dst, ignore_errors=True)
        os.replace(os.path.join(staging, sub), dst)
    os.replace(os.path.join(staging, "edges.parquet"), old_edges_path)
    shutil.rmtree(staging, ignore_errors=True)
    with open(state_path + ".tmp", "w") as fh:
        json.dump({"config": config, "n_docs": n_docs}, fh)
    os.replace(state_path + ".tmp", state_path)

    # ---- labels over the CURRENT corpus ----
    edge_list = list(zip(edges["a"].tolist(), edges["b"].tolist()))
    labels = D._label_edges(ds, id_col, "doc_id", edge_list, max_pairs,
                            num_parts)
    stats = {
        "n_docs": int(n_docs),
        "n_sketched": int(n_sketched),
        "n_removed": int(len(removed_ids)),
        "n_pairs_checked": int(n_pairs),
        "n_edges": int(len(edges)),
    }
    return labels, stats
