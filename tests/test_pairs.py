"""Distributed pair verification + component labeling (stages/pairs.py):
the beyond-``max_pairs`` exchange paths must equal the driver paths."""

import numpy as np
import pandas as pd
import pyarrow as pa

from neurostore_text_extraction_ray.stages import exchange as ex


def _docs_ds(texts):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))


BASE = (
    "the quick brown fox jumps over the lazy dog while rain falls "
    "softly on the quiet village roofs and the river keeps moving east "
    "past the old stone bridge toward the distant sea"
)
NEAR = BASE.replace("lazy", "sleepy")
OTHER = (
    "completely different content describing ray data pipelines arrow "
    "batches actor pools and shuffle strategies for large scale "
    "distributed processing of web text corpora with checkpoints"
)


def test_label_components_exchanged_equals_union_find(ray_session,
                                                      monkeypatch):
    """Random graph incl. a 12-node chain (worst case for propagation
    depth): distributed labels == driver union-find labels."""
    from neurostore_text_extraction_ray.stages import pairs as P
    from neurostore_text_extraction_ray.stages.dedup import _components

    rng = np.random.RandomState(7)
    edges = [(int(a), int(b)) for a, b in rng.randint(0, 60, size=(80, 2))
             if a != b]
    edges += [(100 + i, 101 + i) for i in range(12)]  # chain component
    comp = _components(edges)
    edges_ds = P.pairs_to_ds(pd.DataFrame(edges, columns=["a", "b"]))
    monkeypatch.setattr(ex, "NUM_PARTS", 8)
    lab = {r["node"]: r["label"]
           for r in P.label_components_exchanged(edges_ds).iter_rows()}
    assert lab == comp


def test_label_ids_singleton_fallback(ray_session, monkeypatch):
    import ray.data as rd

    from neurostore_text_extraction_ray.stages import pairs as P

    ids = rd.from_arrow(pa.table({"doc_id": pa.array([1, 2, 3, 9], pa.int64())}))
    labels = rd.from_arrow(pa.table({
        "node": pa.array([2, 3], pa.int64()),
        "label": pa.array([2, 2], pa.int64()),
    }))
    monkeypatch.setattr(ex, "NUM_PARTS", 4)
    out = {r["doc_id"]: r["dup_group"]
           for r in P.label_ids(ids, labels, "doc_id", "doc_id").iter_rows()}
    assert out == {1: 1, 2: 2, 3: 2, 9: 9}


def test_minhash_distributed_path_equivalence(ray_session, monkeypatch):
    """max_pairs=0 forces exchange verification + distributed labeling;
    groups must equal the driver path."""
    from neurostore_text_extraction_ray.stages.dedup import minhash_near_dup

    texts = [BASE, NEAR, OTHER, BASE + " extra tail", OTHER + " tail"] * 4
    ds = _docs_ds(texts)
    drv = {r["doc_id"]: r["dup_group"] for r in
           minhash_near_dup(ds, threshold=0.5, bands=32).iter_rows()}
    monkeypatch.setattr(ex, "NUM_PARTS", 8)
    dist = {r["doc_id"]: r["dup_group"] for r in
            minhash_near_dup(ds, threshold=0.5, bands=32,
                             max_pairs=0).iter_rows()}
    assert dist == drv
    assert len(dist) == len(texts)


def test_simhash_distributed_path_equivalence(ray_session, monkeypatch):
    from neurostore_text_extraction_ray.stages.dedup import simhash_near_dup

    texts = [BASE, NEAR, OTHER] * 3
    ds = _docs_ds(texts)
    drv = {r["doc_id"]: r["dup_group"] for r in
           simhash_near_dup(ds, hamming_threshold=6).iter_rows()}
    monkeypatch.setattr(ex, "NUM_PARTS", 8)
    dist = {r["doc_id"]: r["dup_group"] for r in
            simhash_near_dup(ds, hamming_threshold=6, max_pairs=0).iter_rows()}
    assert dist == drv


def test_minhash_pair_explosion_completes(ray_session, monkeypatch):
    """The round-2 code RAISED at max_pairs; now a duplicate blowup
    (40 identical docs -> C(40,2)=780 pairs >> max_pairs=10) completes
    through the exchange with one component."""
    from neurostore_text_extraction_ray.stages.dedup import minhash_near_dup

    ds = _docs_ds([BASE] * 40 + [OTHER])
    monkeypatch.setattr(ex, "NUM_PARTS", 8)
    out = {r["doc_id"]: r["dup_group"] for r in
           minhash_near_dup(ds, threshold=0.8, bands=16,
                            max_pairs=10).iter_rows()}
    assert all(out[i] == 0 for i in range(40))
    assert out[40] == 40


def test_embedding_cosine_distributed_labeling(ray_session, monkeypatch):
    """max_pairs=0 pushes cosine labeling through the exchange."""
    import ray.data as rd

    from neurostore_text_extraction_ray.stages.dedup import embedding_cosine_dup

    rng = np.random.RandomState(0)
    base = rng.standard_normal(32)
    vecs = [base, base + 0.01 * rng.standard_normal(32),
            rng.standard_normal(32)]
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array([10, 11, 12], pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
    }))
    drv = {r["vec_id"]: r["dup_group"] for r in
           embedding_cosine_dup(ds, threshold=0.99).iter_rows()}
    monkeypatch.setattr(ex, "NUM_PARTS", 4)
    dist = {r["vec_id"]: r["dup_group"] for r in
            embedding_cosine_dup(ds, threshold=0.99, max_pairs=0).iter_rows()}
    assert drv == {10: 10, 11: 10, 12: 12}
    assert dist == drv


def test_verify_pairs_missing_payload_rows_drop(ray_session, monkeypatch):
    """A pair whose endpoint has no payload row is dropped (inner
    join), not an error — mirrors candidate ids outside the corpus."""
    import ray.data as rd

    from neurostore_text_extraction_ray.stages import pairs as P

    pairs = P.pairs_to_ds(pd.DataFrame({"a": [1, 1], "b": [2, 99]}))
    payload = rd.from_arrow(pa.table({
        "id": pa.array([1, 2], pa.int64()),
        "payload": pa.array([b"x", b"x"], pa.binary()),
    }))

    def eq_verify(m):
        keep = [pa_ == pb_ for pa_, pb_ in zip(m["payload_a"], m["payload_b"])]
        sub = m[np.array(keep, dtype=bool)] if len(m) else m
        return pa.table({
            "a": pa.array(sub["a"].to_numpy(dtype=np.int64), pa.int64()),
            "b": pa.array(sub["b"].to_numpy(dtype=np.int64), pa.int64()),
        })

    monkeypatch.setattr(ex, "NUM_PARTS", 4)
    out = P.verify_pairs(pairs, payload, eq_verify, P.PAIR_SCHEMA).to_pandas()
    assert list(map(tuple, out.to_numpy())) == [(1, 2)]


def test_label_components_large_ids_exact(ray_session, monkeypatch):
    """Labels above 2^53 survive the exchange path exactly (a float64
    round-trip would corrupt them — code-review r03 finding)."""
    from neurostore_text_extraction_ray.stages import pairs as P
    from neurostore_text_extraction_ray.stages.dedup import _components

    big = 2**53
    edges = [(big + 1, big + 3), (big + 3, big + 5), (7, big + 9)]
    comp = _components(edges)
    edges_ds = P.pairs_to_ds(pd.DataFrame(edges, columns=["a", "b"]))
    monkeypatch.setattr(ex, "NUM_PARTS", 4)
    lab = {r["node"]: r["label"]
           for r in P.label_components_exchanged(edges_ds).iter_rows()}
    assert lab == comp
    import ray.data as rd
    import pyarrow as pa_

    ids = rd.from_arrow(pa_.table({
        "doc_id": pa_.array([big + 1, big + 5, big + 11], pa_.int64())}))
    monkeypatch.setattr(ex, "NUM_PARTS", 4)
    out = {r["doc_id"]: r["dup_group"] for r in P.label_ids(
        ids, rd.from_arrow(pa_.table({
            "node": pa_.array([big + 5], pa_.int64()),
            "label": pa_.array([big + 1], pa_.int64())})),
        "doc_id", "doc_id").iter_rows()}
    assert out == {big + 1: big + 1, big + 5: big + 1, big + 11: big + 11}


def test_pointer_jumping_logarithmic_convergence(ray_session, monkeypatch):
    """A 100-node chain labels correctly in O(log n) rounds (pointer
    jumping), not O(n)."""
    from neurostore_text_extraction_ray.stages import pairs as P

    n = 100
    edges = [(i, i + 1) for i in range(n - 1)]
    edges_ds = P.pairs_to_ds(pd.DataFrame(edges, columns=["a", "b"]))
    monkeypatch.setattr(ex, "NUM_PARTS", 8)
    lab = {r["node"]: r["label"]
           for r in P.label_components_exchanged(edges_ds).iter_rows()}
    assert lab == {i: 0 for i in range(n)}
    assert P.LAST_LABEL_ROUNDS <= 12  # log2(100) ~ 7 + slack, not 100
