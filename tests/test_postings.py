"""term_postings: inverted-index build (exact df + head-k postings).

Corpus parity vs the DuckDB oracle lives in test_oracle_parity.py;
here we pin the head-k cap, within-doc dedup, serialization, and the
exchange-path equality.
"""

import json

import pandas as pd
import pytest

from conftest import force_routes
from neurostore_text_extraction_ray.pipelines import steps


def _write(texts, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }),
        d / "documents.parquet",
    )
    return str(d)


def _run(sf, **kw):
    return (steps.term_postings(sf, **kw).to_pandas()
            .sort_values("term").reset_index(drop=True))


def test_df_counts_docs_not_occurrences(ray_session, tmp_path):
    # "aa" appears 3x in doc 0 but df counts documents
    sf = _write(["aa aa aa bb", "aa cc"], tmp_path)
    df = _run(sf).set_index("term")
    assert df.loc["aa", "df"] == 2
    assert df.loc["bb", "df"] == 1
    assert json.loads(df.loc["aa", "postings"]) == [0, 1]
    assert json.loads(df.loc["cc", "postings"]) == [1]


def test_head_k_cap_and_exact_df(ray_session, tmp_path):
    texts = [f"common unique{i}" for i in range(10)]
    sf = _write(texts, tmp_path)
    df = _run(sf, k=3).set_index("term")
    assert df.loc["common", "df"] == 10          # df exact past the cap
    assert json.loads(df.loc["common", "postings"]) == [0, 1, 2]
    assert len(df) == 11


def test_canonical_json_no_spaces(ray_session, tmp_path):
    sf = _write(["xx yy", "xx"], tmp_path)
    df = _run(sf).set_index("term")
    assert df.loc["xx", "postings"] == "[0,1]"


def test_case_fold_and_short_tokens_excluded(ray_session, tmp_path):
    # single-char tokens are not terms (\w\w+); case folds
    sf = _write(["The THE the a b"], tmp_path)
    df = _run(sf)
    assert df["term"].tolist() == ["the"]
    assert df.iloc[0]["df"] == 1


def test_exchange_path_equivalence(ray_session, monkeypatch):
    sf = "/root/testdata/sf0.001"
    base = _run(sf)
    force_routes(monkeypatch, "terms")
    exchanged = _run(sf)
    pd.testing.assert_frame_equal(base, exchanged)


def test_empty_corpus(ray_session, tmp_path):
    sf = _write(["", "   "], tmp_path)
    df = steps.term_postings(sf).to_pandas()
    # Ray drops column names from zero-row datasets through to_pandas
    # (harness-wide; same for every operator), so only emptiness is
    # asserted — the point is "no rows, no error"
    assert len(df) == 0
