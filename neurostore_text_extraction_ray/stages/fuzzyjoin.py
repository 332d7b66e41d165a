"""Fuzzy string similarity join: all pairs of distinct strings within
edit distance 1, via deletion-neighborhood blocking (the SymSpell /
FastSS construction: every string blocks on the 64-bit hash of itself
and of each single-character deletion, so any substitution shares a
same-position deletion variant and any insertion/deletion shares the
shorter string itself — the neighborhood is COMPLETE for distance <= 1;
false candidates, e.g. two deletions at different positions, are killed
by an exact vectorized verify). The reference has no fuzzy join — this
is a graft addition the LLM-data mandate calls for (near-identical
titles / product names / urls differing by one typo).

Scale shape: blocking rows are (block-hash, string-id, string) — one
per character plus one per string, over the DISTINCT vocabulary, never
the corpus. Below ``ROUTES['fuzzy_blocks']`` rows the bucket->pairs
combine runs on the driver with the shared vectorized kernel
(``stages.dedup._pairs_from_band_rows``); beyond it, block rows
hash-partition on the block hash through the filesystem exchange,
per-part pairs feed ``stages.pairs.verify_pairs`` (payloads = the
strings themselves, deduped per id-part), and the edit-distance verify
runs co-partitioned — the driver only ever sees block counts. The
verify is fully vectorized over padded uint32 codepoint matrices: a
mismatch count for same-length pairs, a first-mismatch-deletion
equality check for length-±1 pairs — no per-pair Python loop."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import _token_hashes
from . import exchange as ex


_OUT_SCHEMA = pa.schema([("nm_a", pa.string()), ("nm_b", pa.string())])


def _deletion_blocks(names: pd.Series) -> pd.DataFrame:
    """Distinct strings -> blocking rows (bh, id, nm): the string's own
    hash plus each single-deletion variant's hash. Row count is
    sum(len + 1) over the batch — vocabulary-sized, not corpus-sized."""
    nms: list[str] = []
    variants: list[str] = []
    for nm in names:
        nm = nm or ""
        variants.append(nm)
        nms.append(nm)
        for i in range(len(nm)):
            variants.append(nm[:i] + nm[i + 1:])
            nms.append(nm)
    bh = _token_hashes(variants).astype(np.int64)
    ids = _token_hashes(nms).astype(np.int64)
    return pd.DataFrame({"bh": bh, "id": ids, "nm": nms})


def _edit1_mask(a_names: np.ndarray, b_names: np.ndarray) -> np.ndarray:
    """Vectorized edit-distance <= 1 verify for candidate pairs. Pads
    both sides into one uint32 codepoint matrix; same-length pairs pass
    iff they mismatch at <= 1 position, length-±1 pairs iff deleting
    the longer side's first mismatching character yields the shorter."""
    n = len(a_names)
    if not n:
        return np.zeros(0, dtype=bool)
    a = np.asarray(a_names, dtype="str")
    b = np.asarray(b_names, dtype="str")
    la = np.char.str_len(a).astype(np.int64)
    lb = np.char.str_len(b).astype(np.int64)
    width = max(a.dtype.itemsize, b.dtype.itemsize) // 4 + 1
    au = np.ascontiguousarray(a.astype(f"<U{width}")).view(np.uint32)
    au = au.reshape(n, width)
    bu = np.ascontiguousarray(b.astype(f"<U{width}")).view(np.uint32)
    bu = bu.reshape(n, width)
    ndiff = (au != bu).sum(axis=1)
    ok_same = (la == lb) & (ndiff <= 1)
    # length differs by exactly 1: x = longer, y = shorter
    swap = (lb > la)[:, None]
    xu = np.where(swap, bu, au)
    yu = np.where(swap, au, bu)
    cand = np.abs(la - lb) == 1
    mism = xu != yu
    k = np.argmax(mism, axis=1)  # first mismatch (exists: lengths differ)
    cols = np.arange(width)[None, :]
    shifted = np.concatenate(
        [xu[:, 1:], np.zeros((n, 1), dtype=np.uint32)], axis=1)
    xdel = np.where(cols < k[:, None], xu, shifted)
    ok_del = cand & (xdel == yu).all(axis=1)
    return ok_same | ok_del


def _verify_frame(pairs: pd.DataFrame) -> pd.DataFrame:
    """(nm_a-candidate, nm_b-candidate) strings -> verified, string-
    ordered (nm_a < nm_b), deduped pair frame."""
    empty = pd.DataFrame({"nm_a": pd.Series(dtype="object"),
                          "nm_b": pd.Series(dtype="object")})
    if not len(pairs):
        return empty
    a = pairs["nm_a"].to_numpy().astype("str")
    b = pairs["nm_b"].to_numpy().astype("str")
    keep = _edit1_mask(a, b)
    if not keep.any():
        return empty
    a, b = a[keep], b[keep]
    a_lt = a < b
    lo, hi = np.where(a_lt, a, b), np.where(a_lt, b, a)
    return pd.DataFrame({"nm_a": lo, "nm_b": hi}).drop_duplicates()


def _candidate_names(sf_dir: str):
    """The joinable vocabulary: trimmed part names plus, for every
    seventh part key, the name with its last character dropped (a
    deterministic, self-derivable typo plant so the testdata corpus has
    known distance-1 mass; the SQL oracle replays the identical
    plant)."""
    import ray.data as rd

    def cands(df: pd.DataFrame) -> pd.DataFrame:
        nm = df["p_name"].astype(str).str.strip()
        plant = nm[df["p_partkey"].to_numpy() % 7 == 0].str[:-1]
        return pd.DataFrame(
            {"nm": pd.concat([nm, plant], ignore_index=True)}
        ).drop_duplicates()

    return rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]
    ).map_batches(cands, batch_format="pandas")


def part_name_fuzzy_pairs(sf_dir: str):
    """All unordered pairs of distinct part-name strings within edit
    distance 1. Output (nm_a, nm_b), nm_a < nm_b, globally deduped."""
    import ray.data as rd

    from . import dedup as dd
    from . import pairs as pr

    max_pairs = ex.BUDGETS["fuzzy_pairs"]
    blocks_ds = (
        _candidate_names(sf_dir)
        .map_batches(lambda df: _deletion_blocks(df["nm"]),
                     batch_format="pandas")
        .materialize()
    )
    if ex.fits("fuzzy_blocks", blocks_ds.count()):
        rows = blocks_ds.to_pandas().drop_duplicates()
        id_to_nm = rows[["id", "nm"]].drop_duplicates().set_index("id")["nm"]
        band_rows = pd.DataFrame({
            "doc_id": rows["id"].to_numpy(),
            "band": np.zeros(len(rows), dtype=np.int64),
            "key": rows["bh"].to_numpy(),
        })
        p = dd._pairs_from_band_rows(band_rows, bucket_cap=None,
                                     max_pairs=max_pairs)
        p = p[p["a"] != p["b"]]
        cand = pd.DataFrame({
            "nm_a": id_to_nm.reindex(p["a"].to_numpy()).to_numpy(),
            "nm_b": id_to_nm.reindex(p["b"].to_numpy()).to_numpy(),
        })
        out = _verify_frame(cand)
        return rd.from_arrow(
            pa.Table.from_pandas(out, preserve_index=False).cast(_OUT_SCHEMA))

    return _fuzzy_pairs_exchanged(blocks_ds, dd, pr, max_pairs)


def _fuzzy_pairs_exchanged(blocks_ds, dd, pr, max_pairs: int):
    """Scale path: block rows hash-partition on the block hash (buckets
    co-locate, per-part duplicate rows collapse before pairing);
    payloads (id -> string) dedupe in their id-part; the verify runs
    through the co-partitioned two-round payload join."""
    blk_schema = pa.schema([
        ("bh", pa.int64()), ("id", pa.int64()), ("nm", pa.string())])
    num_parts = ex.NUM_PARTS
    with ex.stage("nse_fz_blk_") as blk_stage:
        ex.write_exchange(
            blocks_ds.map_batches(lambda b: b.cast(blk_schema),
                                  batch_format="pyarrow"),
            blk_stage,
            lambda b: ex.int_part(
                [b["bh"].to_numpy(zero_copy_only=False)], num_parts))

        def pairs_of_part(t: pa.Table) -> pa.Table:
            rows = t.to_pandas().drop_duplicates()
            p = dd._pairs_from_band_rows(pd.DataFrame({
                "doc_id": rows["id"].to_numpy(),
                "band": np.zeros(len(rows), dtype=np.int64),
                "key": rows["bh"].to_numpy(),
            }), bucket_cap=None, max_pairs=max_pairs)
            p = p[p["a"] != p["b"]]
            return pa.Table.from_pandas(
                p, preserve_index=False).cast(pr.PAIR_SCHEMA)

        pairs_ds = ex.map_parts(blk_stage, pairs_of_part,
                                pr.PAIR_SCHEMA)

        def payloads(t: pa.Table) -> pa.Table:
            rows = t.to_pandas()[["id", "nm"]].drop_duplicates("id")
            return pa.table({
                "id": pa.array(rows["id"].to_numpy(), pa.int64()),
                "payload": pa.array(
                    [nm.encode("utf-8") for nm in rows["nm"]], pa.binary()),
            })

        # one row per id (verify_pairs contract): dedupe inside the
        # id-part where all copies of an id co-locate
        payload_ds = ex.map_parts(blk_stage, payloads,
                                  pr.PAYLOAD_SCHEMA)
        with ex.stage("nse_fz_pay_") as pay_stage:
            ex.write_exchange(
                payload_ds, pay_stage,
                lambda b: ex.int_part(
                    [b["id"].to_numpy(zero_copy_only=False)], num_parts))
            payload_uniq = ex.map_parts(
                pay_stage,
                lambda t: pa.Table.from_pandas(
                    t.to_pandas().drop_duplicates("id"),
                    preserve_index=False).cast(pr.PAYLOAD_SCHEMA),
                pr.PAYLOAD_SCHEMA)

    def verify(df: pd.DataFrame) -> pa.Table:
        cand = pd.DataFrame({
            "nm_a": [x.decode("utf-8") for x in df["payload_a"]],
            "nm_b": [x.decode("utf-8") for x in df["payload_b"]],
        })
        return pa.Table.from_pandas(
            _verify_frame(cand), preserve_index=False).cast(_OUT_SCHEMA)

    return pr.verify_pairs(pairs_ds, payload_uniq, verify, _OUT_SCHEMA)
