"""Benchmark decontamination: flag corpus documents that share any
k-word shingle with a benchmark/eval document set — the standard
training-data hygiene operator (n-gram overlap against held-out test
sets, as popularized by the GPT-3 appendix-C / PaLM 13-gram filters;
public construction, parameterized k).

Semantics (exactly SQL-expressible, oracled as ANSI SQL over the
``\\w+``-lowercase tokenization shared with ``textstats.shingles``):

    n_hits(doc)       = |shingles(doc) ∩ shingles(benchmark corpus)|
                        (DISTINCT shingles, set intersection size)
    contaminated(doc) = n_hits > 0

Scale design:
- Shingles travel as 8-byte blake2b hashes (``hashing._token_hashes``
  — the MinHash token-hash kernel), never as strings.
- The benchmark side is small BY NATURE (eval sets: 10^5–10^7
  n-grams), so the default path broadcasts its sorted unique hash
  array once (``ray.put`` + searchsorted per batch). The budget gate
  counts the per-batch-unique partial rows BEFORE any driver collect;
  beyond ``ROUTES['decon']`` the operator routes through a
  hash-co-partitioned exchange semi-join with NO corpus- or
  benchmark-sized driver state (equivalence asserted by
  tests/test_decontam.py and the forced-exchange oracle sweep).
- The corpus is streamed twice in the exchange path (shingle rows by
  hash, id rows by doc_id) — both passes are map_batches over the
  pruned (id, text) projection; nothing materializes on the driver.

Hash collisions: a 64-bit collision can only ADD a spurious hit
(conservative for decontamination — flags at most one extra doc per
~2^32 distinct-shingle pairs); the SQL oracle compares raw shingle
strings, so parity at the gate additionally certifies collision
absence on the test corpora.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import hashing as H
from ..functions.textstats import shingles
from . import exchange as ex


OUT_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("n_hits", pa.int64()),
    ("contaminated", pa.bool_()),
])
_HASH_SCHEMA = pa.schema([("h", pa.uint64())])
_ROW_SCHEMA = pa.schema([("doc_id", pa.int64()), ("h", pa.uint64())])
_HITS_SCHEMA = pa.schema([("doc_id", pa.int64()), ("n_hits", pa.int64())])
_ID_SCHEMA = pa.schema([("doc_id", pa.int64())])


def _doc_hashes(text: str | None, k: int) -> np.ndarray:
    """Unique 8-byte shingle hashes of one document."""
    return np.unique(H._token_hashes(shingles(text or "", k)))


def decontaminate(
    corpus,
    benchmark,
    id_col: str = "doc_id",
    text_col: str = "text",
    k_shingle: int = 5,
):
    """Returns a Dataset with one row per corpus document:
    ``(doc_id, n_hits, contaminated)`` where ``n_hits`` is the number
    of DISTINCT benchmark shingles occurring in the document. Both
    inputs are Datasets with (id_col, text_col) columns."""

    def bench_partial(batch: pa.Table) -> pa.Table:
        hs = [_doc_hashes(t, k_shingle)
              for t in batch[text_col].to_pylist()]
        u = (np.unique(np.concatenate(hs)) if hs
             else np.empty(0, dtype=np.uint64))
        return pa.table({"h": pa.array(u, pa.uint64())})

    partials = benchmark.map_batches(
        bench_partial, batch_format="pyarrow").materialize()
    # conservative gate: per-batch-unique rows >= global distinct count
    if ex.fits("decon", partials.count()):
        return _decontaminate_broadcast(
            corpus, partials, id_col, text_col, k_shingle)
    return _decontaminate_exchanged(
        corpus, partials, id_col, text_col, k_shingle)


def _decontaminate_broadcast(corpus, partials, id_col, text_col, k_shingle):
    import ray

    hdf = partials.to_pandas()
    # a zero-row Dataset can drop its schema in to_pandas()
    bench = (np.unique(hdf["h"].to_numpy())  # sorted
             if len(hdf) and "h" in hdf.columns
             else np.empty(0, dtype=np.uint64))
    ref = ray.put(bench)

    def flag(batch: pa.Table) -> pa.Table:
        from .broadcast import get_broadcast

        b = get_broadcast(ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        hits = np.zeros(len(ids), dtype=np.int64)
        for i, t in enumerate(batch[text_col].to_pylist()):
            hu = _doc_hashes(t, k_shingle)
            if len(hu) and len(b):
                j = np.clip(np.searchsorted(b, hu), 0, len(b) - 1)
                hits[i] = int((b[j] == hu).sum())
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_hits": pa.array(hits, pa.int64()),
            "contaminated": pa.array(hits > 0),
        })

    return corpus.map_batches(flag, batch_format="pyarrow")


def _decontaminate_exchanged(corpus, partials, id_col, text_col,
                             k_shingle):
    """Pure-exchange path: co-partition benchmark hashes and corpus
    (doc_id, shingle-hash) rows by hash, count per-part distinct
    matches (hash determines part, so per-part counts sum without
    double counting), then co-partition the per-part hit partials with
    the corpus id rows by doc_id for the final left join."""
    num_parts = ex.NUM_PARTS
    by_hash = lambda b: ex.int_part(  # noqa: E731
        [b["h"].to_numpy(zero_copy_only=False).view(np.int64)], num_parts)
    by_id = lambda b: ex.int_part(  # noqa: E731
        [b["doc_id"].to_numpy(zero_copy_only=False)], num_parts)

    def corpus_rows(batch: pa.Table) -> pa.Table:
        ids, hs = [], []
        for did, t in zip(batch[id_col].to_pylist(),
                          batch[text_col].to_pylist()):
            hu = _doc_hashes(t, k_shingle)
            ids.append(np.full(len(hu), did, dtype=np.int64))
            hs.append(hu)
        return pa.table({
            "doc_id": pa.array(
                np.concatenate(ids) if ids else np.empty(0, np.int64),
                pa.int64()),
            "h": pa.array(
                np.concatenate(hs) if hs else np.empty(0, np.uint64),
                pa.uint64()),
        })

    def id_rows(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": pa.compute.cast(
            batch[id_col], pa.int64())})

    with (ex.stage("nse_dc_bench_") as bench_stage,
          ex.stage("nse_dc_rows_") as rows_stage,
          ex.stage("nse_dc_hits_") as hits_stage,
          ex.stage("nse_dc_ids_") as ids_stage):
        ex.write_exchange(partials, bench_stage, by_hash)
        ex.write_exchange(
            corpus.map_batches(corpus_rows, batch_format="pyarrow"),
            rows_stage, by_hash)

        def hits_of_part(rows_t: pa.Table, bench_t: pa.Table) -> pa.Table:
            b = np.unique(bench_t["h"].to_numpy(zero_copy_only=False))
            ids = rows_t["doc_id"].to_numpy(zero_copy_only=False)
            hs = rows_t["h"].to_numpy(zero_copy_only=False)
            if not len(b) or not len(ids):
                return _HITS_SCHEMA.empty_table()
            j = np.clip(np.searchsorted(b, hs), 0, len(b) - 1)
            m = b[j] == hs
            if not m.any():
                return _HITS_SCHEMA.empty_table()
            # rows are unique (doc_id, h) by construction -> count of
            # matched rows per doc == distinct matches in this part
            uids, counts = np.unique(ids[m], return_counts=True)
            return pa.table({
                "doc_id": pa.array(uids.astype(np.int64), pa.int64()),
                "n_hits": pa.array(counts.astype(np.int64), pa.int64()),
            })

        hits_ds = ex.map_parts([rows_stage, bench_stage],
                               hits_of_part, _HITS_SCHEMA,
                               in_schemas=[_ROW_SCHEMA, _HASH_SCHEMA])
        ex.write_exchange(hits_ds, hits_stage, by_id)
        ex.write_exchange(
            corpus.map_batches(id_rows, batch_format="pyarrow"),
            ids_stage, by_id)

        def join_part(ids_t: pa.Table, hits_t: pa.Table) -> pa.Table:
            ids = ids_t["doc_id"].to_numpy(zero_copy_only=False)
            hid = hits_t["doc_id"].to_numpy(zero_copy_only=False)
            hn = hits_t["n_hits"].to_numpy(zero_copy_only=False)
            total = np.zeros(len(ids), dtype=np.int64)
            if len(hid):
                # sum the per-hash-part partials per doc, then look up
                order = np.argsort(hid, kind="stable")
                hid_s, hn_s = hid[order], hn[order]
                uid = np.unique(hid_s)
                sums = np.zeros(len(uid), dtype=np.int64)
                np.add.at(sums, np.searchsorted(uid, hid_s), hn_s)
                j = np.clip(np.searchsorted(uid, ids), 0, len(uid) - 1)
                m = uid[j] == ids
                total[m] = sums[j[m]]
            return pa.table({
                "doc_id": pa.array(ids, pa.int64()),
                "n_hits": pa.array(total, pa.int64()),
                "contaminated": pa.array(total > 0),
            })

        return ex.map_parts([ids_stage, hits_stage], join_part,
                            OUT_SCHEMA,
                            in_schemas=[_ID_SCHEMA, _HITS_SCHEMA])
