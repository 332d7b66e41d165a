"""Adversarial-shape checks for the training-data-mix operators
(quantiles / top-terms / stratified sampling) against DuckDB on a
synthetic corpus with ties, empty/None text, and unicode — the sf
corpora are too well-behaved to hit these edges."""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import force_routes
from neurostore_text_extraction_ray.stages import exchange as ex


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("mixops")
    rng = np.random.RandomState(7)
    n = 400
    texts = []
    for i in range(n):
        k = i % 5
        if k == 0:
            texts.append(None)
        elif k == 1:
            texts.append("")
        elif k == 2:
            texts.append("alpha beta beta GAMMA gamma µ-unicode naïve café x")
        else:
            texts.append(" ".join(
                rng.choice(["tok%d" % j for j in range(30)], size=20)))
    tbl = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "lang": pa.array([["en", "de", "fr"][i % 3] for i in range(n)]),
        # heavy ties: only 4 distinct n_chars values
        "n_chars": pa.array(
            rng.choice([10, 10, 200, 3000], size=n).astype(np.int64)),
        "text": pa.array(texts, pa.string()),
    })
    pq.write_table(tbl, os.path.join(str(d), "documents.parquet"))
    return str(d)


def _oracle(synth_dir, sql):
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{synth_dir}/documents.parquet')")
    df = con.execute(sql).fetchdf()
    con.close()
    return df


def _canon(df):
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def test_quantiles_with_heavy_ties(ray_session, synth_dir):
    from neurostore_text_extraction_ray.pipelines import steps

    mine = _canon(steps.docs_nchars_quantiles(synth_dir).to_pandas())
    gold = _canon(_oracle(synth_dir, (
        "SELECT q, value FROM ("
        " SELECT 0.25 AS q, quantile_disc(n_chars, 0.25) AS value FROM documents"
        " UNION ALL SELECT 0.50, quantile_disc(n_chars, 0.50) FROM documents"
        " UNION ALL SELECT 0.75, quantile_disc(n_chars, 0.75) FROM documents"
        " UNION ALL SELECT 0.95, quantile_disc(n_chars, 0.95) FROM documents)")))
    pd.testing.assert_frame_equal(mine, gold, check_dtype=False)


def test_top_terms_null_empty_unicode(ray_session, synth_dir):
    from neurostore_text_extraction_ray.pipelines import steps

    mine = steps.top_terms(synth_dir, k=15).to_pandas()
    gold = _oracle(synth_dir, (
        "SELECT t AS term, count(*) AS n FROM ("
        " SELECT unnest(regexp_extract_all(lower(text), '\\w\\w+')) AS t"
        " FROM documents) GROUP BY t ORDER BY n DESC, term ASC LIMIT 15"))
    pd.testing.assert_frame_equal(
        mine.reset_index(drop=True), gold.reset_index(drop=True),
        check_dtype=False)
    assert len(mine) == 15


def test_stratified_sample_quota_semantics(ray_session, synth_dir):
    from neurostore_text_extraction_ray.pipelines import steps

    mine = _canon(steps.docs_sample_stratified(synth_dir).to_pandas())
    gold = _canon(_oracle(synth_dir, (
        "SELECT doc_id, lang, n_chars FROM documents "
        "WHERE ((doc_id * 2654435761) % 2147483648) % 100 < "
        "CASE WHEN lang = 'en' THEN 50 ELSE 20 END")))
    pd.testing.assert_frame_equal(mine, gold, check_dtype=False)
    # quota direction: en keeps a materially larger fraction
    frac = mine["lang"].value_counts() / (400 / 3)
    assert frac["en"] > frac["de"] and frac["en"] > frac["fr"]


def test_lang_temperature_sample_semantics(ray_session, synth_dir):
    """Integer-exact temperature quotas on the adversarial corpus:
    matches the same quota chain computed by hand in pandas, and the
    upweighting direction holds (every language's kept FRACTION within
    a few hash-granularity counts of its quota)."""
    import math

    from neurostore_text_extraction_ray.pipelines import steps

    mine = _canon(
        steps.docs_lang_temperature_sample(synth_dir).to_pandas())
    docs = pd.read_parquet(
        os.path.join(synth_dir, "documents.parquet"),
        columns=["doc_id", "lang", "n_chars"])
    n = docs.groupby("lang").size()
    sw = int(sum(math.isqrt(int(v)) for v in n))
    target = (int(n.sum()) * 40) // 100
    thr = {}
    for lang, nl in n.items():
        tl = min(int(nl), (target * math.isqrt(int(nl))) // sw)
        thr[lang] = -1 if tl == 0 else ((1 << 20) * tl - 1) // int(nl)
    h = (docs["doc_id"].to_numpy() * 2654435761) % (1 << 31) % (1 << 20)
    expect = _canon(docs[h <= docs["lang"].map(thr).to_numpy()])
    pd.testing.assert_frame_equal(mine, expect, check_dtype=False)
    # equal-sized groups (133/133/134) at alpha=0.5 keep ~equal counts
    kept = mine["lang"].value_counts()
    assert kept.max() - kept.min() <= max(10, kept.max() // 4)


def test_lang_temperature_sample_rejects_null_lang(ray_session, tmp_path):
    from neurostore_text_extraction_ray.pipelines import steps

    d = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "lang": pa.array(["en", None]),
        "n_chars": pa.array([5, 5], pa.int64()),
    }), os.path.join(d, "documents.parquet"))
    with pytest.raises(Exception) as ei:
        steps.docs_lang_temperature_sample(d).to_pandas()
    assert "non-null lang" in str(ei.value)


def test_lang_temperature_sample_single_lang_rate(ray_session, tmp_path):
    """Degenerate one-language corpus reduces to a plain rate_pct
    Bernoulli sample (quota == target); rate 100 keeps everything."""
    from neurostore_text_extraction_ray.pipelines import steps

    d = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(200, dtype=np.int64)),
        "lang": pa.array(["en"] * 200),
        "n_chars": pa.array(np.full(200, 7, dtype=np.int64)),
    }), os.path.join(d, "documents.parquet"))
    kept = steps.docs_lang_temperature_sample(d, rate_pct=40).to_pandas()
    # threshold floor makes the kept count <= and within hash noise of 40%
    assert 0 < len(kept) <= 80
    assert len(steps.docs_lang_temperature_sample(d, rate_pct=100)
               .to_pandas()) == 200


def test_sample_hash_rejects_oversized_ids(ray_session, tmp_path):
    """The -O-safe guard: ids >= 2^31 raise instead of silently
    wrapping away from the SQL oracle."""
    import ray.data as rd

    from neurostore_text_extraction_ray.pipelines import steps

    d = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 1 << 31], pa.int64()),
        "lang": pa.array(["en", "en"]),
        "n_chars": pa.array([5, 5], pa.int64()),
    }), os.path.join(d, "documents.parquet"))
    with pytest.raises(Exception) as ei:
        steps.docs_sample_hash(d).to_pandas()
    assert "2^31" in str(ei.value)


def _pack_expected(ids, weights, budget):
    order = np.argsort(ids, kind="stable")
    ids, weights = np.asarray(ids)[order], np.asarray(weights)[order]
    excl = np.concatenate([[0], np.cumsum(weights)[:-1]])
    return pd.DataFrame({"doc_id": ids, "n_chars": weights,
                         "shard": excl // budget})


@pytest.mark.parametrize("num_parts", [1, 3, 32])
def test_pack_shards_sparse_huge_keys(ray_session, num_parts, monkeypatch):
    """Range partitioning must stay correct under an extremely skewed
    key space (three keys spanning 2^40) and any part count — and the
    result must be independent of num_parts."""
    import ray.data as rd

    from neurostore_text_extraction_ray.pipelines.steps import pack_shards

    ids = [1, 7, 1 << 20, (1 << 40) + 3, (1 << 40) + 9]
    w = [5, 10, 3, 7, 100]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "n_chars": pa.array(w, pa.int64()),
    }))
    monkeypatch.setattr(ex, "NUM_PARTS", num_parts)
    got = (pack_shards(ds, "doc_id", "n_chars", budget=10)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    exp = _pack_expected(ids, w, 10).astype(got.dtypes.to_dict())
    pd.testing.assert_frame_equal(got, exp)


def test_pack_shards_zero_weights_and_single_row(ray_session):
    import ray.data as rd

    from neurostore_text_extraction_ray.pipelines.steps import pack_shards

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([5, 6, 7, 8], pa.int64()),
        "n_chars": pa.array([0, 0, 25, 0], pa.int64()),
    }))
    got = (pack_shards(ds, "doc_id", "n_chars", budget=10)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # zero-weight docs share the shard of the offset they sit at
    assert got["shard"].tolist() == [0, 0, 0, 2]

    one = rd.from_arrow(pa.table({
        "doc_id": pa.array([42], pa.int64()),
        "n_chars": pa.array([999], pa.int64())}))
    g1 = pack_shards(one, "doc_id", "n_chars", budget=10).to_pandas()
    assert g1["shard"].tolist() == [0]


def test_weighted_sample_matches_oracle_on_adversarial_shapes(
        ray_session, synth_dir):
    """Priority sampling over the heavy-ties synth corpus equals the
    SQL oracle exactly (bit-identical priorities), and the sample is
    length-biased (weighted mean n_chars > corpus mean)."""
    import __ray_entry__ as e
    from neurostore_text_extraction_ray.pipelines import steps

    mine = _canon(steps.docs_sample_weighted(synth_dir).to_pandas())
    gold = _canon(_oracle(synth_dir, e.oracle_sql()["docs_sample_weighted"]))
    assert mine.shape == gold.shape == (100, 3)
    assert (mine["doc_id"].to_numpy() == gold["doc_id"].to_numpy()).all()
    np.testing.assert_allclose(
        mine["priority"], gold["priority"], rtol=0, atol=1e-9)
    con = duckdb.connect()
    corpus_mean = con.execute(
        f"SELECT avg(n_chars) FROM read_parquet("
        f"'{synth_dir}/documents.parquet')").fetchone()[0]
    con.close()
    assert mine["n_chars"].mean() > corpus_mean


def test_weighted_sample_weight_guard(ray_session, tmp_path):
    """Weights at/above 2^22 must raise (double-exactness guard), as
    must non-positive weights."""
    d = str(tmp_path)
    tbl = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "n_chars": pa.array([1 << 22, 5], pa.int64()),
    })
    pq.write_table(tbl, os.path.join(d, "documents.parquet"))
    from neurostore_text_extraction_ray.pipelines import steps

    with pytest.raises(Exception):
        steps.docs_sample_weighted(d).to_pandas()


def test_sampled_quantiles_accuracy(ray_session):
    """Hash-sampled quantiles land within a modest rank band of the
    exact quantiles on the committed corpora (loud drift alarm)."""
    from neurostore_text_extraction_ray.pipelines import steps

    for sf in ("/root/testdata/sf0.001", "/root/testdata/sf0.01"):
        approx = steps.docs_nchars_quantiles_sampled(sf).to_pandas()
        con = duckdb.connect()
        nchars = con.execute(
            f"SELECT n_chars FROM read_parquet('{sf}/documents.parquet') "
            f"ORDER BY n_chars").fetchdf()["n_chars"].to_numpy()
        con.close()
        for _, row in approx.iterrows():
            # rank of the sampled estimate in the FULL corpus
            rank = np.searchsorted(nchars, row["value"], side="right") / len(nchars)
            assert abs(rank - row["q"]) < 0.12, (sf, row["q"], rank)


def test_corpus_stats_gate_path_equality(ray_session, synth_dir, monkeypatch):
    """corpus_stats: the exchange-combined term counts produce the
    same one-row summary as the driver combine (TERMS gate to 0);
    None/empty/unicode docs exercise the tokenize edges."""
    from neurostore_text_extraction_ray.pipelines import steps

    a = steps.corpus_stats(synth_dir).to_pandas()
    force_routes(monkeypatch, "terms")
    b = steps.corpus_stats(synth_dir).to_pandas()
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    assert a.loc[0, "n_docs"] == 400 and a.loc[0, "n_tokens"] > 0


def test_label_centroids_gate_path_equality(ray_session, monkeypatch):
    """embeddings_label_centroids: exchange-combined (label, dim)
    sums equal the driver combine (AGG gate to 0); rounding absorbs
    summation-order float drift between paths."""
    from neurostore_text_extraction_ray.pipelines import steps

    SF = "/root/testdata/sf0.001"
    a = (steps.embeddings_label_centroids(SF).to_pandas()
         .sort_values(["label", "dim"]).reset_index(drop=True))
    force_routes(monkeypatch, "agg_partials")
    b = (steps.embeddings_label_centroids(SF).to_pandas()
         .sort_values(["label", "dim"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    assert a["n_vecs"].sum() == 500 * 64  # every vector in one label


def test_events_hourly_top_gate_path_equality(ray_session, monkeypatch):
    """events_hourly_top: the hour-hash exchange argmax equals the
    driver groupby (AGG gate to 0 forces BOTH the count combine and
    the argmax onto the exchange)."""
    from neurostore_text_extraction_ray.pipelines import steps

    SF = "/root/testdata/sf0.001"
    a = (steps.events_hourly_top(SF).to_pandas()
         .sort_values("hour").reset_index(drop=True))
    force_routes(monkeypatch, "agg_partials")
    b = (steps.events_hourly_top(SF).to_pandas()
         .sort_values("hour").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    assert a["hour"].is_unique and len(a) > 0
