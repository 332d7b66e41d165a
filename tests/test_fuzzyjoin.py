"""Fuzzy string join (stages/fuzzyjoin.py): the vectorized
edit-distance<=1 verify against a hand truth table and DuckDB's
levenshtein, deletion-neighborhood completeness on a random vocabulary,
and driver/exchange path equivalence."""

import duckdb
import numpy as np
import pandas as pd
import pytest

from conftest import force_budget, force_routes
from neurostore_text_extraction_ray.stages import exchange as ex

SF = "/root/testdata/sf0.001"


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def test_edit1_mask_truth_table():
    from neurostore_text_extraction_ray.stages.fuzzyjoin import _edit1_mask

    cases = [
        ("abc", "abc", True),     # identical
        ("abc", "abd", True),     # substitution
        ("abc", "ab", True),      # deletion
        ("ab", "abc", True),      # insertion (either side longer)
        ("abc", "xabc", True),    # leading insertion
        ("abc", "axc", True),
        ("ab", "ba", False),      # transposition = distance 2
        ("abc", "adc!", False),   # sub + insert = 2
        ("abc", "a", False),      # two deletions
        ("abc", "xyz", False),
        ("", "a", True),          # empty vs 1-char
        ("", "", True),
        ("a", "b", True),
        ("aaaa", "aaab", True),
        ("aaaa", "abab", False),
    ]
    a = np.array([c[0] for c in cases])
    b = np.array([c[1] for c in cases])
    got = _edit1_mask(a, b)
    exp = np.array([c[2] for c in cases])
    assert (got == exp).all(), list(zip(a, b, got, exp))


def test_edit1_mask_matches_duckdb_levenshtein():
    from neurostore_text_extraction_ray.stages.fuzzyjoin import _edit1_mask

    rng = np.random.RandomState(7)
    alpha = list("abc")
    vocab = ["".join(rng.choice(alpha, rng.randint(0, 5)))
             for _ in range(60)]
    a = np.array([vocab[rng.randint(len(vocab))] for _ in range(400)])
    b = np.array([vocab[rng.randint(len(vocab))] for _ in range(400)])
    con = duckdb.connect()
    exp = np.array([
        con.execute("SELECT levenshtein(?, ?) <= 1", [x, y]).fetchone()[0]
        for x, y in zip(a, b)])
    got = _edit1_mask(a, b)
    assert (got == exp).all()


def test_deletion_blocking_is_complete_for_distance_1():
    """Every distance<=1 pair of distinct strings must share a blocking
    hash (the FastSS completeness property) — brute-force checked on a
    random short-string vocabulary."""
    from neurostore_text_extraction_ray.stages.fuzzyjoin import (
        _deletion_blocks,
    )

    rng = np.random.RandomState(11)
    alpha = list("ab")
    vocab = sorted({"".join(rng.choice(alpha, rng.randint(0, 4)))
                    for _ in range(40)})
    blocks = _deletion_blocks(pd.Series(vocab))
    by_nm = blocks.groupby("nm")["bh"].apply(set)
    con = duckdb.connect()
    for i, x in enumerate(vocab):
        for y in vocab[i + 1:]:
            d = con.execute("SELECT levenshtein(?, ?)", [x, y]).fetchone()[0]
            if d <= 1:
                assert by_nm[x] & by_nm[y], (x, y)


def test_fuzzy_pairs_matches_oracle_and_exchange_path(ray_session,
                                                      monkeypatch):
    import __ray_entry__ as e
    from neurostore_text_extraction_ray.stages import fuzzyjoin

    con = duckdb.connect()
    con.execute(f"CREATE VIEW part AS SELECT * FROM "
                f"read_parquet('{SF}/part.parquet')")
    gold = _canon(con.execute(
        e.oracle_sql()["part_name_fuzzy_pairs"]).fetchdf())
    drv = _canon(fuzzyjoin.part_name_fuzzy_pairs(SF).to_pandas())
    pd.testing.assert_frame_equal(drv, gold)
    assert len(drv) > 0
    force_routes(monkeypatch, "fuzzy_blocks")
    monkeypatch.setattr(ex, "NUM_PARTS", 7)
    exch = _canon(fuzzyjoin.part_name_fuzzy_pairs(SF).to_pandas())
    pd.testing.assert_frame_equal(exch, gold)


def test_hot_bucket_completeness(ray_session, tmp_path):
    """A deletion-variant bucket larger than the LSH kernel's
    HOT_BUCKET_CAP must still emit EVERY true distance-1 pair (the
    fuzzy join passes bucket_cap=None — regression for the round-5
    review finding where the capped kernel silently dropped 92% of
    pairs on a 776-string shared-variant vocabulary)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from neurostore_text_extraction_ray.stages import dedup as dd
    from neurostore_text_extraction_ray.stages import fuzzyjoin

    base = "a" * 30
    # every single-char insertion into base: the ~280 distinct strings
    # all share the deletion variant `base` -> one bucket past the cap
    vocab = sorted({base[:i] + ch + base[i:]
                    for i in range(31) for ch in "abcdefghij"})
    assert len(vocab) > dd.HOT_BUCKET_CAP
    df = pd.DataFrame({
        "p_partkey": np.arange(len(vocab), dtype=np.int64) * 7 + 1,
        "p_name": vocab,  # %7 != 0 -> no truncation plant
    })
    d = str(tmp_path)
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "part.parquet"))
    got = fuzzyjoin.part_name_fuzzy_pairs(d).to_pandas()
    con = duckdb.connect()
    exp = con.execute(
        f"WITH s AS (SELECT DISTINCT p_name AS nm FROM "
        f"read_parquet('{d}/part.parquet')) "
        "SELECT count(*) FROM s a JOIN s b ON a.nm < b.nm "
        "AND levenshtein(a.nm, b.nm) <= 1").fetchone()[0]
    assert len(got) == exp and exp > 0


def test_pair_budget_raises_loudly(ray_session, tmp_path, monkeypatch):
    """The ``fuzzy_pairs`` budget must raise BEFORE the quadratic pair
    allocation, not OOM."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from neurostore_text_extraction_ray.stages import fuzzyjoin

    vocab = [f"ab{i}" for i in range(10)]  # all pair via deleting i
    df = pd.DataFrame({
        "p_partkey": np.arange(len(vocab), dtype=np.int64) * 7 + 1,
        "p_name": vocab,
    })
    d = str(tmp_path)
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "part.parquet"))
    force_budget(monkeypatch, "fuzzy_pairs", 3)
    with pytest.raises(ValueError, match="max_pairs"):
        fuzzyjoin.part_name_fuzzy_pairs(d).to_pandas()
