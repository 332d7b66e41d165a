"""HyperLogLog + Bloom semi-join sketches (stages/sketch.py)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from conftest import force_routes


def test_hll_accuracy_known_cardinalities():
    """Estimate within ~5 sigma (sigma ~ 1.04/sqrt(m)) across three
    orders of magnitude; deterministic across calls."""
    from neurostore_text_extraction_ray.stages.sketch import (
        hll_estimate, hll_partial)

    for n in (100, 5_000, 200_000):
        vals = np.arange(n, dtype=np.int64)
        h = pd.util.hash_array(vals)
        est = hll_estimate(hll_partial(h, p=12))
        assert abs(est - n) / n < 0.09, (n, est)
        assert est == hll_estimate(hll_partial(h, p=12))  # deterministic


def test_hll_partials_merge_equals_single_pass():
    """max-merge of split partials == one-shot registers (the combine
    the distributed operator relies on)."""
    from neurostore_text_extraction_ray.stages.sketch import (
        hll_estimate, hll_partial)

    vals = np.arange(10_000, dtype=np.int64)
    h = pd.util.hash_array(vals)
    one = hll_partial(h, p=10)
    merged = np.maximum(hll_partial(h[:3000], p=10),
                        hll_partial(h[3000:], p=10))
    assert (one == merged).all()
    assert hll_estimate(one) == hll_estimate(merged)


def test_hll_distinct_dataset(ray_session):
    """Dataset operator vs exact distinct count on orders."""
    import duckdb

    from neurostore_text_extraction_ray.pipelines.steps import orders_custkey_hll

    sf = "/root/testdata/sf0.001"
    est = orders_custkey_hll(sf).to_pandas()["n_distinct_est"][0]
    con = duckdb.connect()
    exact = con.execute(
        f"SELECT count(DISTINCT o_custkey) FROM "
        f"read_parquet('{sf}/orders.parquet')").fetchone()[0]
    con.close()
    assert abs(est - exact) / exact < 0.06, (est, exact)


def test_bloom_no_false_negatives_and_low_fp():
    from neurostore_text_extraction_ray.stages.sketch import (
        bloom_contains, build_bloom)

    rng = np.random.RandomState(1)
    keys = rng.randint(0, 10**12, size=20_000).astype(np.int64)
    words = build_bloom(keys, n_bits=1 << 18)
    assert bloom_contains(words, keys).all()  # no false negatives
    probe = rng.randint(10**12, 2 * 10**12, size=50_000).astype(np.int64)
    fp = bloom_contains(words, probe).mean()
    assert fp < 0.05, fp  # m/n ~ 13 bits/key, k=5 -> ~1% expected


def test_bloom_semi_join_exact(ray_session):
    """The operator's output equals the exact semi-join — the bloom
    only prunes, never changes results."""
    import ray.data as rd

    from neurostore_text_extraction_ray.stages.sketch import bloom_semi_join

    fact = rd.from_arrow(pa.table({
        "k": pa.array(list(range(1000)), pa.int64()),
        "v": pa.array(list(range(1000)), pa.int64()),
    }))
    keys = np.arange(0, 1000, 7, dtype=np.int64)
    out = bloom_semi_join(fact, "k", keys).to_pandas().sort_values("k")
    assert out["k"].tolist() == list(range(0, 1000, 7))


def test_bloom_non_multiple_of_64_bits():
    """n_bits rounds up to a word boundary; build and probe always use
    the same modulus (a truncating build gave IndexError / potential
    false negatives — code-review r03c finding)."""
    from neurostore_text_extraction_ray.stages.sketch import (
        bloom_contains, build_bloom)

    keys = np.arange(100, dtype=np.int64)
    words = build_bloom(keys, n_bits=1000)  # -> 1024 bits
    assert len(words) == 16
    assert bloom_contains(words, keys).all()
    words = build_bloom(keys, n_bits=32)  # -> 64 bits, saturated but valid
    assert bloom_contains(words, keys).all()


def test_hll_nulls_excluded():
    """COUNT(DISTINCT) semantics: NULLs are not a distinct value."""
    import pyarrow as pa_
    import ray.data as rd

    from neurostore_text_extraction_ray.stages.sketch import hll_distinct

    ds = rd.from_arrow(pa_.table({
        "k": pa_.array([1, 2, 3, None, None, 2], pa_.int64())}))
    est = hll_distinct(ds, "k", p=12).to_pandas()["n_distinct_est"][0]
    assert est == 3


def test_make_goldens_rejects_unknown_names():
    import subprocess
    import sys as _sys

    r = subprocess.run(
        [_sys.executable, "tools/make_goldens.py", "not_a_query"],
        cwd="/root/repo", capture_output=True, text=True)
    assert r.returncode != 0
    assert "not golden-oracled" in (r.stderr + r.stdout)


# -- Count-Min heavy hitters -------------------------------------------------


def test_cms_topk_equals_exact_on_both_corpora(ray_session):
    """The CMS top-k must equal the exact top_terms (terms AND counts)
    on both committed corpora — loud failure if widths/collisions ever
    drift."""
    import pandas as pd

    from neurostore_text_extraction_ray.pipelines import steps
    from neurostore_text_extraction_ray.pipelines.extras import (
        _docs_top_terms_cms)

    for sf in ("/root/testdata/sf0.001", "/root/testdata/sf0.01"):
        exact = steps.top_terms(sf).to_pandas()
        approx = _docs_top_terms_cms(sf).to_pandas()
        assert approx["term"].tolist() == exact["term"].tolist(), sf
        assert approx["est_n"].tolist() == exact["n"].tolist(), sf


def test_cms_overestimate_only_and_merge(ray_session):
    """Estimates never undercount, and summed partial blobs equal the
    single-pass sketch (mergeability)."""
    import numpy as np

    from neurostore_text_extraction_ray.functions import hashing as H
    from neurostore_text_extraction_ray.stages.sketch import (
        cms_estimate, cms_partial)

    rng = np.random.RandomState(3)
    terms = [f"t{i}" for i in range(3000)]
    counts = rng.randint(1, 50, size=len(terms)).astype(np.int64)
    hs = H._token_hashes(terms)
    width, depth = 1 << 10, 4  # deliberately tight -> collisions exist
    whole = cms_partial(hs, counts, width, depth)
    half = (cms_partial(hs[:1500], counts[:1500], width, depth)
            + cms_partial(hs[1500:], counts[1500:], width, depth))
    assert (whole == half).all()
    est = cms_estimate(whole, hs, width, depth)
    assert (est >= counts).all()
    assert (est > counts).any()  # tight width: some collision happened


def test_hll_distinct_by_key_accuracy_and_gates(ray_session, monkeypatch):
    """Grouped HLL (sketch-per-key merge): per-key estimates within the
    published error bound vs exact per-key distinct counts; driver and
    exchange combines byte-identical; NULL values excluded per key."""
    import duckdb
    import ray.data as rd

    from neurostore_text_extraction_ray.pipelines import steps

    sf = "/root/testdata/sf0.001"
    out = steps.events_user_hll_hourly(sf).to_pandas()
    con = duckdb.connect()
    exact = con.execute(
        f"SELECT date_trunc('hour', ts) AS hour, "
        f"COUNT(DISTINCT user_id) AS n FROM "
        f"read_parquet('{sf}/events.parquet') GROUP BY 1").fetchdf()
    con.close()
    j = out.merge(exact, on="hour", how="outer")
    assert not j["n_distinct_est"].isna().any()
    assert not j["n"].isna().any()
    # sigma ~ 1.04/sqrt(2^12) ~ 1.6%; allow ~5 sigma plus small-count
    # slack (linear-counting regime is near-exact anyway)
    rel = (j["n_distinct_est"] - j["n"]).abs() / j["n"].clip(lower=1)
    assert (rel < 0.09).all(), j[rel >= 0.09]
    # exchange path equality
    force_routes(monkeypatch, "hll_group_partials")
    exch = steps.events_user_hll_hourly(sf).to_pandas()
    pd.testing.assert_frame_equal(
        out.sort_values("hour").reset_index(drop=True),
        exch.sort_values("hour").reset_index(drop=True))
    monkeypatch.undo()
    # NULL values excluded per key (COUNT(DISTINCT) semantics), and the
    # NULL-driven float promotion of a nullable int column round-trips
    pre = rd.from_pandas(pd.DataFrame({
        "k": ["a", "a", "a", "b"],
        "v": pd.array([1, None, 1, 2], dtype="Int64"),
        "i": [1, 2, 3, 4]}))
    got = steps.hll_distinct_by_key(pre, "k", "v").to_pandas()
    got = got.set_index("k")["n_distinct_est"]
    assert int(got.loc["a"]) == 1 and int(got.loc["b"]) == 1
    # a genuinely non-integral value column is rejected loudly
    bad = rd.from_pandas(pd.DataFrame({
        "k": ["a"], "v": [1.5], "i": [1]}))
    with pytest.raises(Exception, match="integer"):
        steps.hll_distinct_by_key(bad, "k", "v").to_pandas()
