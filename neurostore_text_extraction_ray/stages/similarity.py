"""Similarity search over an embedding column (list<float>).

- ``knn_brute_force``: exact cosine top-k — the query matrix is
  broadcast once (``ray.put``), each batch does one numpy matmul and
  emits its per-batch top-k rows; ``topk_per_query`` merges them into
  the global top-k. Scales as a single pass over the vectors with no
  all-to-all.
- ``knn_ivf``: the scale path — k-means-style coarse quantizer
  (deterministic init, fit on a driver-side sample), vectors assigned
  to cells in one pass, queries probe the ``n_probe`` nearest cells so
  only a fraction of vectors is scanned.

Ties broken deterministically (score desc, vec_id asc) so results are
oracle-comparable.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from . import exchange as ex


def vector_matrix(col) -> np.ndarray:
    """The (n, dim) float64 matrix of a list<float> column, decoded
    without a python list per row: a fixed-size-list cast (ragged rows
    raise), one flatten, a reshape. float32 -> float64 is exact."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if not len(col):
        return np.empty((0, 0))
    dim = len(col[0])
    flat = col.cast(pa.list_(col.type.value_type, dim)).flatten()
    return flat.to_numpy(zero_copy_only=False).reshape(
        len(col), dim).astype(np.float64)


def sample_matrix(ds, vec_col: str, n: int) -> np.ndarray:
    """The ``vector_matrix`` of ``vec_col`` over ``ds``'s first ``n``
    rows: the bounded driver-side sample a centroid fit reads (the
    corpus itself is never collected)."""
    cols = [t[vec_col] for t in ds.limit(n).iter_batches(
        batch_format="pyarrow", batch_size=None) if t.num_rows]
    if not cols:
        return np.empty((0, 0))
    return vector_matrix(pa.chunked_array(
        [c for col in cols for c in col.chunks], cols[0].type))


KNN_SCHEMA = pa.schema([
    ("query_id", pa.int64()), ("vec_id", pa.int64()), ("score", pa.float64()),
])


def topk_per_query(partial, k: int):
    """The global top-``k`` per query of per-batch top-k rows
    ``(query_id, vec_id, score)``, ties by vec_id asc: one gated
    ``combine_by_key`` on query_id (``ROUTES['topk_partials']``), no
    native groupby. Returns a materialized Dataset of ``KNN_SCHEMA``."""

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(["query_id", "score", "vec_id"],
                               ascending=[True, False, True], kind="stable")
                .groupby("query_id", sort=False).head(k))

    return ex.combine_by_key(partial, ["query_id"], topk, KNN_SCHEMA,
                             "topk_partials")


def knn_brute_force(ds, queries: np.ndarray, query_ids: list[int], k: int = 10,
                    id_col: str = "vec_id", vec_col: str = "embedding"):
    """Exact cosine top-k for each query row. Returns a Dataset
    (query_id, vec_id, score) with k rows per query."""
    import ray

    q = np.asarray(queries, dtype=np.float64)
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    qn[qn == 0] = 1.0
    q_unit = q / qn
    q_ref = ray.put((q_unit, np.asarray(query_ids, dtype=np.int64)))

    def score(batch: pa.Table) -> pa.Table:
        qu, qids = ray.get(q_ref)
        vecs = vector_matrix(batch[vec_col])
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        vn = np.linalg.norm(vecs, axis=1, keepdims=True)
        vn[vn == 0] = 1.0
        sims = (vecs / vn) @ qu.T  # (n, nq)
        out_q, out_v, out_s = [], [], []
        kk = min(k, len(ids))
        for j in range(sims.shape[1]):
            col = sims[:, j]
            # per-batch top-k with deterministic tie-break
            order = np.lexsort((ids, -col))[:kk]
            out_q.extend([qids[j]] * len(order))
            out_v.extend(ids[order])
            out_s.extend(col[order])
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(np.asarray(out_v, dtype=np.int64)),
            "score": pa.array(np.asarray(out_s, dtype=np.float64)),
        })

    return topk_per_query(ds.map_batches(score, batch_format="pyarrow"), k)


def fit_coarse_centroids(sample: np.ndarray, n_cells: int, iters: int = 10,
                         seed: int = 42) -> np.ndarray:
    """Deterministic Lloyd iterations on a sample (driver side — the
    sample is small; the full data is only ever streamed)."""
    rng = np.random.RandomState(seed)
    x = np.asarray(sample, dtype=np.float64)
    n = len(x)
    cent = x[rng.choice(n, size=min(n_cells, n), replace=False)].copy()
    for _ in range(iters):
        d = ((x[:, None, :] - cent[None, :, :]) ** 2).sum(-1)
        assign = d.argmin(1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                cent[c] = x[m].mean(0)
    return cent


def knn_ivf(ds, queries: np.ndarray, query_ids: list[int], k: int = 10,
            n_cells: int = 16, n_probe: int = 4,
            id_col: str = "vec_id", vec_col: str = "embedding",
            sample_rows: int = 2000, seed: int = 42):
    """IVF approximate top-k: scan only vectors whose coarse cell is
    among each query's ``n_probe`` nearest cells."""
    import ray

    cent = fit_coarse_centroids(sample_matrix(ds, vec_col, sample_rows),
                                n_cells, seed=seed)

    q = np.asarray(queries, dtype=np.float64)
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    qn[qn == 0] = 1.0
    q_unit = q / qn
    qd = ((q[:, None, :] - cent[None, :, :]) ** 2).sum(-1)
    probe = np.argsort(qd, axis=1)[:, :n_probe]  # (nq, n_probe)
    state = ray.put((cent, q_unit, np.asarray(query_ids, dtype=np.int64), probe))

    def score(batch: pa.Table) -> pa.Table:
        cent_l, qu, qids, probe_l = ray.get(state)
        vecs = vector_matrix(batch[vec_col])
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        d = ((vecs[:, None, :] - cent_l[None, :, :]) ** 2).sum(-1)
        cell = d.argmin(1)
        vn = np.linalg.norm(vecs, axis=1, keepdims=True)
        vn[vn == 0] = 1.0
        unit = vecs / vn
        out_q, out_v, out_s = [], [], []
        for j in range(len(qids)):
            mask = np.isin(cell, probe_l[j])
            if not mask.any():
                continue
            col = unit[mask] @ qu[j]
            sub_ids = ids[mask]
            kk = min(k, len(sub_ids))
            order = np.lexsort((sub_ids, -col))[:kk]
            out_q.extend([qids[j]] * len(order))
            out_v.extend(sub_ids[order])
            out_s.extend(col[order])
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(np.asarray(out_v, dtype=np.int64), pa.int64()),
            "score": pa.array(np.asarray(out_s, dtype=np.float64), pa.float64()),
        })

    return topk_per_query(ds.map_batches(score, batch_format="pyarrow"), k)
