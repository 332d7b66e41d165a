"""Near-dup + similarity-search operators on controlled corpora."""

import numpy as np
import pyarrow as pa
import pytest

from conftest import force_routes


def _docs_ds(ray_session, texts):
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


def test_minhash_near_dup(ray_session):
    from neurostore_text_extraction_ray.stages.dedup import minhash_near_dup

    ds = _docs_ds(ray_session, [BASE, NEAR, OTHER, BASE])
    out = {r["doc_id"]: r["dup_group"] for r in
           minhash_near_dup(ds, threshold=0.5, bands=32).iter_rows()}
    assert out[0] == out[1] == out[3] == 0  # near/exact dups share group 0
    assert out[2] == 2  # unrelated doc is its own group


def test_simhash_near_dup(ray_session):
    from neurostore_text_extraction_ray.stages.dedup import simhash_near_dup

    ds = _docs_ds(ray_session, [BASE, NEAR, OTHER])
    out = {r["doc_id"]: r["dup_group"] for r in
           simhash_near_dup(ds, hamming_threshold=6).iter_rows()}
    assert out[0] == out[1] == 0
    assert out[2] == 2


def test_ngram_jaccard_pairs(ray_session):
    from neurostore_text_extraction_ray.stages.dedup import ngram_jaccard_pairs

    ds = _docs_ds(ray_session, [BASE, NEAR, OTHER])
    rows = list(ngram_jaccard_pairs(ds, threshold=0.5).iter_rows())
    pairs = {(r["a"], r["b"]) for r in rows}
    assert (0, 1) in pairs
    assert all(p in ((0, 1),) for p in pairs)
    j = next(r["jaccard"] for r in rows if (r["a"], r["b"]) == (0, 1))
    assert 0.5 < j < 1.0  # exact Jaccard, one word differs


def test_embedding_cosine_dup(ray_session):
    import ray.data as rd

    from neurostore_text_extraction_ray.stages.dedup import embedding_cosine_dup

    rng = np.random.RandomState(0)
    base = rng.standard_normal(32)
    near = base + 0.01 * rng.standard_normal(32)
    far = rng.standard_normal(32)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array([10, 11, 12], pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in (base, near, far)],
                              pa.list_(pa.float32())),
    }))
    out = {r["vec_id"]: r["dup_group"] for r in
           embedding_cosine_dup(ds, threshold=0.99).iter_rows()}
    assert out[10] == out[11] == 10
    assert out[12] == 12


def _emb_ds(sf="/root/testdata/sf0.001"):
    import ray.data as rd

    return rd.read_parquet(f"{sf}/embeddings.parquet")


def test_knn_brute_force_matches_numpy(ray_session):
    import pyarrow.parquet as pq

    from neurostore_text_extraction_ray.stages.similarity import knn_brute_force

    tbl = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
    vecs = np.array(tbl["embedding"].to_pylist(), dtype=np.float64)
    ids = tbl["vec_id"].to_numpy()
    q = vecs[:2]
    out = knn_brute_force(_emb_ds(), q, query_ids=[0, 1], k=5).to_pandas()
    # numpy reference
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    qu = q / np.linalg.norm(q, axis=1, keepdims=True)
    sims = unit @ qu.T
    for j, qid in enumerate([0, 1]):
        order = np.lexsort((ids, -sims[:, j]))[:5]
        expect = list(ids[order])
        got = list(out[out.query_id == qid].sort_values(
            ["score", "vec_id"], ascending=[False, True]).vec_id)
        assert got == expect, qid
    # self-similarity tops its own list
    assert out[out.query_id == 0].score.max() == pytest.approx(1.0)


def test_knn_ivf_recall(ray_session):
    from neurostore_text_extraction_ray.stages.similarity import (
        knn_brute_force, knn_ivf)

    import pyarrow.parquet as pq

    tbl = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
    vecs = np.array(tbl["embedding"].to_pylist(), dtype=np.float64)
    q = vecs[:3]
    exact = knn_brute_force(_emb_ds(), q, [0, 1, 2], k=10).to_pandas()
    approx = knn_ivf(_emb_ds(), q, [0, 1, 2], k=10, n_cells=8, n_probe=4).to_pandas()
    recalls = []
    for qid in (0, 1, 2):
        e = set(exact[exact.query_id == qid].vec_id)
        a = set(approx[approx.query_id == qid].vec_id)
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.5  # probing half the cells


def test_pairs_from_band_rows_matches_bucket_spec():
    """The vectorized bucket->pairs combine is set-equal to mapping the
    per-bucket reference spec over groupby + drop_duplicates, on random
    band rows with hot buckets past HOT_BUCKET_CAP, repeated pairs
    across bands, singletons, and an empty input."""
    import pandas as pd

    from neurostore_text_extraction_ray.stages.dedup import (
        HOT_BUCKET_CAP,
        _emit_pairs_from_bucket,
        _pairs_from_band_rows,
    )

    rng = np.random.RandomState(3)
    frames = []
    # dense random buckets (many repeat pairs across bands)
    frames.append(pd.DataFrame({
        "doc_id": rng.randint(0, 60, 4000).astype(np.int64),
        "band": rng.randint(0, 6, 4000).astype(np.int32),
        "key": rng.randint(0, 9, 4000).astype(np.int64),
    }))
    # one hot bucket well past the cap
    frames.append(pd.DataFrame({
        "doc_id": rng.permutation(HOT_BUCKET_CAP + 57).astype(np.int64),
        "band": np.int32(99),
        "key": np.int64(-5),
    }))
    # singletons only
    frames.append(pd.DataFrame({
        "doc_id": np.arange(1000, 1010, dtype=np.int64),
        "band": np.arange(10, dtype=np.int32),
        "key": np.int64(7),
    }))
    df = pd.concat(frames, ignore_index=True)

    def reference(rows: pd.DataFrame) -> set:
        out = set()
        for _, g in rows.groupby(["band", "key"], sort=False):
            if len(g) >= 2:
                e = _emit_pairs_from_bucket(g)
                out |= set(zip(e["a"].tolist(), e["b"].tolist()))
        return out

    got = _pairs_from_band_rows(df)
    assert set(zip(got["a"].tolist(), got["b"].tolist())) == reference(df)
    # deduped and (a, b)-sorted
    assert not got.duplicated().any()
    assert (got.sort_values(["a", "b"]).reset_index(drop=True)
            .equals(got.reset_index(drop=True)))
    # empty and all-singleton inputs
    assert len(_pairs_from_band_rows(df.iloc[0:0])) == 0
    assert len(_pairs_from_band_rows(frames[2])) == 0


def test_bucket_pairs_exchange_path_equivalence(ray_session, monkeypatch):
    """Forcing the filesystem partition-exchange path (the >50M-row
    scale route) produces the SAME near-dup groups as the driver-side
    combine."""
    from neurostore_text_extraction_ray.stages import dedup

    texts = [BASE, NEAR, OTHER, BASE + " extra tail", OTHER + " tail"] * 4
    ds = _docs_ds(ray_session, texts)
    small = {r["doc_id"]: r["dup_group"]
             for r in dedup.minhash_near_dup(ds, threshold=0.5, bands=32).iter_rows()}
    force_routes(monkeypatch, "band_rows")
    big = {r["doc_id"]: r["dup_group"]
           for r in dedup.minhash_near_dup(ds, threshold=0.5, bands=32).iter_rows()}
    assert small == big
    sim_small_ds = dedup.simhash_near_dup(ds, hamming_threshold=6)
    sim_small = {r["doc_id"]: r["dup_group"] for r in sim_small_ds.iter_rows()}
    monkeypatch.undo()
    sim_ref = {r["doc_id"]: r["dup_group"]
               for r in dedup.simhash_near_dup(ds, hamming_threshold=6).iter_rows()}
    assert sim_small == sim_ref


def test_exchange_utility_roundtrip(ray_session, tmp_path):
    """stages/exchange.py: every row lands in exactly one part and
    phase-B sees each part's full contents."""
    import ray.data as rd

    from neurostore_text_extraction_ray.stages import exchange as ex

    n = 5000
    table = pa.table({
        "k": pa.array(np.arange(n) % 37, pa.int64()),
        "v": pa.array(np.arange(n), pa.int64()),
    })
    stage = str(tmp_path / "stage")
    rows = ex.write_exchange(
        rd.from_arrow(table).repartition(8), stage,
        lambda b: ex.int_part([b["k"].to_numpy(zero_copy_only=False)], 16),
    )
    assert rows == n
    empty = pa.schema([("k", pa.int64()), ("n", pa.int64()), ("s", pa.int64())])

    def agg(t: pa.Table) -> pa.Table:
        df = t.to_pandas().groupby("k", sort=False)["v"].agg(["count", "sum"]).reset_index()
        return pa.table({
            "k": pa.array(df["k"], pa.int64()),
            "n": pa.array(df["count"], pa.int64()),
            "s": pa.array(df["sum"], pa.int64()),
        })

    out = ex.map_parts(stage, agg, empty).to_pandas().sort_values("k")
    # groups never split across parts -> one output row per key
    assert len(out) == 37
    assert int(out["n"].sum()) == n
    assert int(out["s"].sum()) == n * (n - 1) // 2


def test_exchange_idempotent_rewrite(ray_session, tmp_path):
    """A retried phase-A writer (same rows, same batching) rewrites
    identical content-addressed fragments — no duplicate rows reach
    phase B. A stage takes one commit, so the retry is a second
    ``write_fragments`` of the batch, not a second ``write_exchange``."""
    import os

    from neurostore_text_extraction_ray.stages import exchange as ex

    table = pa.table({
        "k": pa.array(np.arange(1000) % 7, pa.int64()),
        "v": pa.array(np.arange(1000), pa.int64()),
    })
    stage = str(tmp_path / "stage")
    part_fn = lambda b: ex.int_part([b["k"].to_numpy(zero_copy_only=False)], 4)
    first = ex.write_fragments(table, stage, part_fn)
    retry = ex.write_fragments(table, stage, part_fn)  # retry
    assert retry.equals(first)
    assert sum(len(fs) for _, _, fs in os.walk(stage)) == first.num_rows
    assert ex.commit_fragments(stage, retry.to_pandas()) == 1000
    empty = pa.schema([("n", pa.int64())])
    out = ex.map_parts(
        stage, lambda t: pa.table({"n": pa.array([t.num_rows], pa.int64())}),
        empty).to_pandas()
    assert int(out["n"].sum()) == 1000  # not 2000


def test_vector_matrix_matches_the_python_decode():
    """``vector_matrix`` equals ``np.array(col.to_pylist(), float64)``
    on a chunked, sliced float32 column, and ragged rows raise."""
    import numpy as np
    import pyarrow as pa

    from neurostore_text_extraction_ray.stages.similarity import vector_matrix

    rng = np.random.default_rng(0)
    rows = rng.standard_normal((7, 5)).astype(np.float32).tolist()
    col = pa.chunked_array([
        pa.array(rows[:4], pa.list_(pa.float32())).slice(1),
        pa.array(rows[4:], pa.list_(pa.float32()))])
    got = vector_matrix(col)
    want = np.array(col.to_pylist(), dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == (6, 5)
    assert got.tobytes() == want.tobytes()
    with pytest.raises(pa.ArrowInvalid):
        vector_matrix(pa.array([[1.0], [2.0, 3.0]], pa.list_(pa.float32())))


@pytest.mark.parametrize("n", [1, 300, 10**6])
def test_sample_matrix_matches_the_per_row_decode(ray_session, n):
    """The centroid-fit sample of ``knn_ivf``, ``kmeans_assign`` and
    ``semdedup`` (``sample_matrix``) equals the per-row decode it
    replaced, over a union of several blocks (semdedup samples a
    union, which ``limit(n).to_arrow_refs()`` cannot plan in Ray 2.49):
    first rows, a limit that ends inside a block, and one beyond the
    table."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from neurostore_text_extraction_ray.stages.similarity import sample_matrix

    t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
    ds = rd.from_arrow([t.slice(0, 200), t.slice(200, 200)]).union(
        rd.from_arrow(t.slice(400)))
    got = sample_matrix(ds, "embedding", n)
    want = np.array([r["embedding"] for r in ds.limit(n).iter_rows()],
                    dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got, want)
