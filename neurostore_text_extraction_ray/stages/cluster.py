"""Embedding-space clustering and semantic dedup (Ray-Data-native).

Three operators over an embedding column (``list<float>``):

- ``kmeans_assign``: deterministic Lloyd centroids fit on a BOUNDED
  driver-side sample (the full data is only ever streamed), broadcast
  once via ``ray.put``; assignment is one vectorized ``map_batches``
  pass — no shuffle at any scale.
- ``semdedup``: SemDeDup-style semantic dedup (Abbas et al. 2023,
  arXiv:2303.09540 — public paper): cluster the embeddings, then
  inside each cluster drop every vector whose cosine similarity to an
  earlier-kept (lower-id) member reaches ``threshold``. Whole clusters
  co-locate through the filesystem partition exchange
  (``hash(cluster) -> part``), so no Ray ``groupby`` appears on the
  hot path; per-part work is a vectorized pairwise matmul.
  PARTITIONING ASSUMPTION: one cluster fits one task's memory — pick
  ``n_clusters`` proportional to corpus size (the paper's regime is
  ~50k clusters at 100M+ docs) so per-cluster pairwise stays bounded.
- ``knn_lsh``: sign-LSH bucketed approximate nearest neighbours —
  each vector scores against only the queries that share a
  hyperplane-sign bucket in at least one table, so a query scans a
  tunable fraction of the corpus (vs ``knn_brute_force``'s full scan)
  in a single streamed pass plus a tiny per-query top-k merge.

All outputs are deterministic and batch-size-independent: centroids
derive from maxmin seeding over the id-ordered sample, hyperplanes
from a fixed seed, per-row work depends only on the row, and
per-cluster work sorts members by id before the greedy pass — so
results are pinned-golden-oracle stable.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .similarity import _topk_group

SEMDEDUP_CLUSTER_LIMIT = 8192
"""Max rows whose pairwise similarity is materialized at once inside
one cluster. Clusters at or below the limit take the single-matmul
path (byte-identical to the historical kernel); larger clusters are
processed in blocks of this size against the growing kept set, so
per-task memory is O(c*d + limit*kept) instead of the O(c^2) matrix —
the one guaranteed-OOM at 100x corpus scale. Same greedy semantics
either way (equivalence-tested by patching the limit to 3 in
tests/test_cluster.py). At scale also pass ``n_clusters=None`` so the
cluster count grows with the corpus and expected cluster size stays
near this limit."""

SEMDEDUP_TARGET_CLUSTER_ROWS = 4096
"""Auto mode (``n_clusters=None``): one cluster per this many corpus
rows, mirroring the SemDeDup paper's ~50k clusters at 100M+ docs."""

SEMDEDUP_SCHEMA = pa.schema([
    ("vec_id", pa.int64()),
    ("cluster_id", pa.int64()),
    ("keep", pa.bool_()),
    ("dup_of", pa.int64()),
    ("max_sim", pa.float64()),
])


def _unit_rows(batch: pa.Table, id_col: str, vec_col: str):
    vecs = np.array(batch[vec_col].to_pylist(), dtype=np.float64)
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return ids, vecs / norms


def fit_centroids(sample: np.ndarray, n_clusters: int,
                  iters: int = 10) -> np.ndarray:
    """Deterministic k-means fit on a driver-side sample: farthest-point
    (maxmin) seeding — first seed is the point farthest from the sample
    mean, each next seed maximizes the min distance to the chosen set
    (ties -> lowest index) — then Lloyd iterations with an empty-cell
    guard. Unlike ``similarity.fit_coarse_centroids`` (random seeding,
    kept stable for the knn_ivf golden), maxmin seeding provably places
    one seed per well-separated cluster, which the SemDeDup locality
    guarantee needs."""
    x = np.asarray(sample, dtype=np.float64)
    n = len(x)
    k = min(n_clusters, n)
    d0 = ((x - x.mean(0)) ** 2).sum(1)
    seeds = [int(d0.argmax())]
    mind = ((x - x[seeds[0]]) ** 2).sum(1)
    for _ in range(1, k):
        nxt = int(mind.argmax())
        seeds.append(nxt)
        mind = np.minimum(mind, ((x - x[nxt]) ** 2).sum(1))
    cent = x[seeds].copy()
    for _ in range(iters):
        d = ((x[:, None, :] - cent[None, :, :]) ** 2).sum(-1)
        assign = d.argmin(1)
        for c in range(k):
            m = assign == c
            if m.any():
                cent[c] = x[m].mean(0)
    return cent


def _sample_vectors(ds, vec_col: str, sample_rows: int) -> np.ndarray:
    """Bounded driver-side sample for the centroid fit (same pattern as
    ``knn_ivf``: the sample is small by construction, the corpus itself
    is never collected)."""
    return np.array(
        [r[vec_col] for r in ds.limit(sample_rows).iter_rows()],
        dtype=np.float64,
    )


def kmeans_assign(ds, n_clusters: int = 10, iters: int = 10,
                  id_col: str = "vec_id", vec_col: str = "embedding",
                  sample_rows: int = 2000):
    """Assign each vector to its nearest deterministic-Lloyd centroid.
    Returns a Dataset ``(vec_id, cluster_id, dist)`` where ``dist`` is
    the squared euclidean distance to the winning centroid."""
    import ray

    cent = fit_centroids(
        _sample_vectors(ds, vec_col, sample_rows), n_clusters, iters=iters)
    cent_ref = ray.put(cent)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        vecs = np.array(batch[vec_col].to_pylist(), dtype=np.float64)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = ((vecs[:, None, :] - c[None, :, :]) ** 2).sum(-1)
        cl = d.argmin(1)
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "cluster_id": pa.array(cl.astype(np.int64), pa.int64()),
            "dist": pa.array(d[np.arange(len(d)), cl], pa.float64()),
        })

    return ds.map_batches(assign, batch_format="pyarrow")


def _semdedup_cluster(ids: np.ndarray, unit: np.ndarray,
                      threshold: float,
                      block: int | None = None) -> pd.DataFrame:
    """Greedy keep-lowest-id pass inside one cluster: a member is a
    duplicate iff its cosine to an already-kept member is >= threshold;
    ``dup_of`` is the kept member with the highest similarity (ties ->
    lowest id via stable argmax over id-sorted rows).

    Rows are processed id-sorted in blocks of ``block`` (default
    ``SEMDEDUP_CLUSTER_LIMIT``): each block computes one matmul against
    the previously-kept vectors plus one block-local matmul, so the
    full n x n similarity matrix is never materialized for clusters
    larger than the limit. A cluster that fits one block reduces to the
    single ``unit @ unit.T`` of the historical kernel — identical
    float ops, byte-identical output."""
    if block is None:
        block = SEMDEDUP_CLUSTER_LIMIT
    order = np.argsort(ids, kind="stable")
    ids, unit = ids[order], unit[order]
    n = len(ids)
    keep = np.zeros(n, dtype=bool)
    dup_of = np.full(n, -1, dtype=np.int64)
    max_sim = np.zeros(n, dtype=np.float64)
    kept_idx: list[int] = []  # global row indices, in kept (= id) order
    for start in range(0, n, block):
        stop = min(start + block, n)
        bu = unit[start:stop]
        npri = len(kept_idx)
        s_prior = bu @ unit[kept_idx].T if npri else None
        s_blk = bu @ bu.T
        blk_kept: list[int] = []  # block-local indices, kept order
        for bi in range(stop - start):
            i = start + bi
            if npri and blk_kept:
                s = np.concatenate([s_prior[bi], s_blk[bi, blk_kept]])
            elif npri:
                s = s_prior[bi]
            elif blk_kept:
                s = s_blk[bi, blk_kept]
            else:
                keep[i] = True
                blk_kept.append(bi)
                continue
            j = int(np.argmax(s))
            max_sim[i] = float(s[j])
            if s[j] >= threshold:
                src = kept_idx[j] if j < npri else start + blk_kept[j - npri]
                dup_of[i] = ids[src]
            else:
                keep[i] = True
                blk_kept.append(bi)
        kept_idx.extend(start + b for b in blk_kept)
    return pd.DataFrame({
        "vec_id": ids, "keep": keep, "dup_of": dup_of, "max_sim": max_sim,
    })


def semdedup(ds, n_clusters: int | None = 10, threshold: float = 0.99,
             id_col: str = "vec_id", vec_col: str = "embedding",
             iters: int = 10, sample_rows: int = 2000,
             num_parts: int = 32):
    """SemDeDup over an embedding column. Returns a Dataset
    ``(vec_id, cluster_id, keep, dup_of, max_sim)``; ``dup_of`` is -1
    for kept rows, ``max_sim`` the cosine to the closest
    previously-kept cluster member (0.0 for a cluster's first member).

    ``n_clusters=None`` scales the cluster count with the corpus
    (one cluster per ``SEMDEDUP_TARGET_CLUSTER_ROWS`` rows, and the
    centroid-fit sample widened to 2x the cluster count) so expected
    cluster size stays near ``SEMDEDUP_CLUSTER_LIMIT`` at any scale;
    per-cluster memory is bounded by the blockwise kernel either way.

    Unit vectors ride the partition exchange as float64 bytes (the
    ``embedding_cosine_dup`` payload convention, dedup.py:492) — the
    corpus is never collected on the driver.
    """
    import ray

    from . import exchange as ex

    if n_clusters is None:
        n_clusters = max(
            1, -(-ds.count() // SEMDEDUP_TARGET_CLUSTER_ROWS))
        sample_rows = max(sample_rows, 2 * n_clusters)

    # resolve the block limit ON THE DRIVER and capture it by value —
    # dedup_part runs in worker processes where the module global is
    # the import-time default (this is also what lets tests patch it)
    cluster_block = SEMDEDUP_CLUSTER_LIMIT

    # fit on UNIT-normalized samples — the assignment runs on the unit
    # sphere (argmin euclidean == argmax cosine there), so the fit must
    # see the same geometry
    sample = _sample_vectors(ds, vec_col, sample_rows)
    norms = np.linalg.norm(sample, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    cent = fit_centroids(sample / norms, n_clusters, iters=iters)
    cent_ref = ray.put(cent)

    def assign_payload(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        ids, unit = _unit_rows(batch, id_col, vec_col)
        d = ((unit[:, None, :] - c[None, :, :]) ** 2).sum(-1)
        # assignment on the UNIT sphere: for unit rows argmin euclidean
        # == argmax cosine, matching the dedup geometry
        cl = d.argmin(1).astype(np.int64)
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "cluster_id": pa.array(cl, pa.int64()),
            "payload": pa.array([u.tobytes() for u in unit], pa.binary()),
        })

    def dedup_part(table: pa.Table) -> pa.Table:
        df = table.to_pandas()
        outs = []
        for cl, g in df.groupby("cluster_id", sort=False):
            unit = np.frombuffer(
                b"".join(g["payload"]), dtype=np.float64).reshape(len(g), -1)
            res = _semdedup_cluster(
                g["vec_id"].to_numpy(np.int64), unit, threshold,
                block=cluster_block)
            res.insert(1, "cluster_id", np.int64(cl))
            outs.append(res)
        if not outs:
            return SEMDEDUP_SCHEMA.empty_table()
        return pa.Table.from_pandas(
            pd.concat(outs, ignore_index=True), preserve_index=False
        ).cast(SEMDEDUP_SCHEMA)

    with ex.stage("nse_semdedup_") as stage:
        payload = ds.map_batches(assign_payload, batch_format="pyarrow")

        def part_fn(batch: pa.Table) -> np.ndarray:
            return ex.int_part(
                [batch["cluster_id"].to_numpy(zero_copy_only=False)],
                num_parts)

        ex.write_exchange(payload, stage, part_fn)
        return ex.map_parts(
            stage, num_parts, dedup_part, SEMDEDUP_SCHEMA).materialize()


def knn_lsh(ds, queries: np.ndarray, query_ids: list[int], k: int = 10,
            n_planes: int = 6, n_tables: int = 16, seed: int = 42,
            id_col: str = "vec_id", vec_col: str = "embedding",
            with_stats: bool = False):
    """Sign-LSH approximate cosine top-k: a vector is a candidate for a
    query iff their hyperplane-sign keys match in >= 1 of ``n_tables``
    tables. Defaults scan ~20-50%% of random vectors per query (and far
    less as ``n_planes`` grows) vs the brute-force full scan.

    ``with_stats=True`` additionally returns ``(n_candidates, n_total)``
    summed over batches — used by tests to prove the pruning is real.
    """
    import ray

    q = np.asarray(queries, dtype=np.float64)
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    qn[qn == 0] = 1.0
    q_unit = q / qn
    d = q.shape[1]
    planes = np.random.RandomState(seed).standard_normal(
        (n_tables, d, n_planes))
    pw = 1 << np.arange(n_planes)
    # (nq, n_tables) int keys
    q_keys = np.stack(
        [((q_unit @ planes[t]) > 0) @ pw for t in range(n_tables)], axis=1)
    state = ray.put((q_unit, np.asarray(query_ids, dtype=np.int64), q_keys))

    def score(batch: pa.Table) -> pa.Table:
        qu, qids, qk = ray.get(state)
        ids, unit = _unit_rows(batch, id_col, vec_col)
        v_keys = np.stack(
            [((unit @ planes[t]) > 0) @ pw for t in range(n_tables)], axis=1)
        # (n, nq): share a bucket in any table
        cand = (v_keys[:, None, :] == qk[None, :, :]).any(-1)
        out_q, out_v, out_s = [], [], []
        n_cand = 0
        for j in range(len(qids)):
            m = cand[:, j]
            n_cand += int(m.sum())
            if not m.any():
                continue
            col = unit[m] @ qu[j]
            sub = ids[m]
            kk = min(k, len(sub))
            order = np.lexsort((sub, -col))[:kk]
            out_q.extend([qids[j]] * len(order))
            out_v.extend(sub[order])
            out_s.extend(col[order])
        if with_stats:
            # one sentinel row per batch (query_id=-1): vec_id carries
            # the batch's candidate count, score its comparison count —
            # sums over sentinels are batch-size invariant
            out_q.append(-1)
            out_v.append(n_cand)
            out_s.append(float(len(ids) * len(qids)))
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(np.asarray(out_v, dtype=np.int64), pa.int64()),
            "score": pa.array(np.asarray(out_s, dtype=np.float64),
                              pa.float64()),
        })

    partial = ds.map_batches(score, batch_format="pyarrow")
    if with_stats:
        # test-only path: the partial top-k is bounded (batches*nq*k
        # rows), so a driver collect is safe here
        df = partial.to_pandas()
        sent = df[df["query_id"] == -1]
        stats = (int(sent["vec_id"].sum()), int(sent["score"].sum()))
        top = (df[df["query_id"] != -1]
               .sort_values(["query_id", "score", "vec_id"],
                            ascending=[True, False, True], kind="stable")
               .groupby("query_id", sort=False).head(k)
               .reset_index(drop=True))
        return top, stats
    return partial.groupby("query_id").map_groups(
        lambda g: _topk_group(g, k), batch_format="pandas")
