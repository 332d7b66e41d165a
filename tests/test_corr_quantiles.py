"""Interpolated quantiles (docs_nchars_quantiles_cont) and grouped
correlation (docs_lang_corr): hand-computed fixtures (perfect/negative
correlation, interpolation between order statistics, single-row
groups) and the combine-gate path equivalence."""

import math
import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import force_routes
from neurostore_text_extraction_ray.stages import exchange as ex

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def corr_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corr")
    # lang 'up': y (token count) grows with x (n_chars) -> corr +1
    # lang 'dn': y shrinks as x grows -> corr -1
    # lang 'solo': one doc -> zero variance -> NaN (both sides)
    rows = [
        (0, "up", 10, "aa bb"),            # 2 tokens
        (1, "up", 20, "aa bb cc dd"),      # 4
        (2, "up", 30, "aa bb cc dd ee ff"),  # 6
        (3, "dn", 10, "aa bb cc dd ee ff"),
        (4, "dn", 20, "aa bb cc dd"),
        (5, "dn", 30, "aa bb"),
        (6, "solo", 15, "aa bb cc"),
    ]
    df = pd.DataFrame(rows, columns=["doc_id", "lang", "n_chars", "text"])
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(str(d), "documents.parquet"))
    return str(d)


def test_lang_corr_hand_computed(ray_session, corr_dir):
    from neurostore_text_extraction_ray.pipelines import steps

    out = steps.docs_lang_corr(corr_dir).to_pandas().set_index("lang")
    assert out.loc["up", "corr_len_tokens"] == 1.0
    assert out.loc["dn", "corr_len_tokens"] == -1.0
    assert out.loc["up", "n"] == 3
    assert math.isnan(out.loc["solo", "corr_len_tokens"])  # 0/0


def test_lang_corr_gate_equivalence(ray_session, monkeypatch):
    from neurostore_text_extraction_ray.pipelines import steps

    def canon(df):
        return df.sort_values("lang").reset_index(drop=True)

    drv = canon(steps.docs_lang_corr(SF).to_pandas())
    force_routes(monkeypatch, "agg_partials")
    monkeypatch.setattr(ex, "NUM_PARTS", 5)
    exch = canon(steps.docs_lang_corr(SF).to_pandas())
    pd.testing.assert_frame_equal(drv, exch)
    assert len(drv) > 0


def test_quantiles_cont_interpolates(ray_session, tmp_path):
    from neurostore_text_extraction_ray.pipelines import steps

    # values 0,10,20,30,40: q=0.25 -> pos 1.0 exact (no interp) = 10;
    # q=0.5 -> 20; q=0.95 -> pos 3.8 -> 30 + 0.8*10 = 38
    df = pd.DataFrame({
        "doc_id": np.arange(5, dtype=np.int64),
        "lang": ["en"] * 5,
        "text": ["x"] * 5,
        "n_chars": np.array([0, 10, 20, 30, 40], dtype=np.int64),
    })
    d = str(tmp_path)
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "documents.parquet"))
    out = steps.docs_nchars_quantiles_cont(d).to_pandas().set_index("q")
    assert out.loc[0.25, "value"] == 10.0
    assert out.loc[0.50, "value"] == 20.0
    assert out.loc[0.75, "value"] == 30.0
    assert out.loc[0.95, "value"] == 38.0
    con = duckdb.connect()
    for q in (0.25, 0.5, 0.75, 0.95):
        gold = con.execute(
            f"SELECT round(quantile_cont(n_chars, {q}), 4) FROM "
            f"read_parquet('{d}/documents.parquet')").fetchone()[0]
        assert out.loc[q, "value"] == gold


def test_lang_bucket_pivot_matches_sql_and_gate(ray_session, monkeypatch):
    """Pivot/crosstab: wide conditional counts equal the SQL FILTER
    aggregation on both combine paths; row sums equal n_total."""
    import __ray_entry__ as e
    from neurostore_text_extraction_ray.pipelines import steps

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet("
                f"'{SF}/documents.parquet')")
    gold = con.execute(e.oracle_sql()["docs_lang_bucket_pivot"]).fetchdf()

    def canon(df):
        return df.sort_values("lang").reset_index(drop=True)

    drv = canon(steps.docs_lang_bucket_pivot(SF).to_pandas())
    pd.testing.assert_frame_equal(drv, canon(gold))
    assert (drv[["n_b0", "n_b1", "n_b2", "n_b3"]].sum(axis=1)
            == drv["n_total"]).all()
    force_routes(monkeypatch, "agg_partials")
    monkeypatch.setattr(ex, "NUM_PARTS", 5)
    exch = canon(steps.docs_lang_bucket_pivot(SF).to_pandas())
    pd.testing.assert_frame_equal(exch, canon(gold))
