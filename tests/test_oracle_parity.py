"""Local replica of the driver's correctness gate: run every
``queries()`` entry and its ``oracle_sql()`` side by side at sf0.001
with the canonicalization and comparison of ``tools/parity_sweep.py``
(columns sorted by name, rows sorted by all columns, floats within
1e-9)."""

import os

import pandas as pd
import pytest

import __ray_entry__
from test_evaluation import REF_RESULTS
from tools.parity_sweep import _canon, _compare, _oracle

SF = "/root/testdata/sf0.001"

pytestmark = pytest.mark.skipif(not os.path.isdir(SF), reason="testdata unavailable")

# queries that replay committed reference outputs, which not every
# checkout carries (the pinned golden still gates them where present)
_NEEDS_REFERENCE = {
    "evaluation_golden_metrics":
        os.environ.get("NSE_GOLDEN_RESULTS_ROOT", REF_RESULTS),
}


def _to_pandas(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    if hasattr(result, "to_pandas"):
        return result.to_pandas()
    raise TypeError(type(result))


def _query_params():
    for name in __ray_entry__.queries():
        need = _NEEDS_REFERENCE.get(name)
        marks = [pytest.mark.skipif(not os.path.isdir(need),
                                    reason="reference goldens unavailable")
                 ] if need else []
        yield pytest.param(name, marks=marks, id=name)


@pytest.mark.parametrize("name", list(_query_params()))
def test_query_matches_oracle(name, ray_session):
    fn = __ray_entry__.queries()[name]
    sql = __ray_entry__.oracle_sql().get(name)
    mine = _canon(_to_pandas(fn(SF)))
    assert sql is not None, f"{name} lacks an oracle"
    err = _compare(name, mine, _canon(_oracle(sql, SF)))
    assert err is None, f"{name}: {err}"


def test_entry_smoke(ray_session):
    import __ray_entry__ as e

    ds = e.entry()
    df = _to_pandas(ds)
    assert len(df) > 0
    assert set(df.columns) == {"url", "extracted_text"}


def test_tfidf_options(ray_session):
    """Reference tfidf options (tfidf/model.py:29-79): custom_terms
    restricts the vocabulary WITHOUT min_df; text_type='abstract'
    scores only the abstract projection."""
    from neurostore_text_extraction_ray.pipelines import steps

    # 'zzzyx' never occurs; 'the' has df >> 2; a vocab ignores min_df
    vocab = steps.tfidf(SF, min_df=10**9,
                        custom_terms=["the", "zzzyx"]).to_pandas()
    assert set(vocab["term"]) == {"the"}  # min_df NOT applied to vocab
    assert (vocab["score"] > 0).all()
    # a vocabulary fully disjoint from the corpus yields empty, not an error
    assert len(steps.tfidf(SF, custom_terms=["zzzyx"]).to_pandas()) == 0
    # vocabulary dict form == custom_terms form
    vocab2 = steps.tfidf(SF, vocabulary={"the": 0, "zzzyx": 1}).to_pandas()
    pd.testing.assert_frame_equal(
        vocab.sort_values(["doc_id", "term"]).reset_index(drop=True),
        vocab2.sort_values(["doc_id", "term"]).reset_index(drop=True))
    # abstract projection scores a subset of the full-text corpus terms
    ab = steps.tfidf(SF, text_type="abstract", min_df=2).to_pandas()
    full = steps.tfidf(SF, min_df=2).to_pandas()
    assert 0 < len(ab) < len(full)
    with pytest.raises(ValueError):
        steps.tfidf(SF, text_type="nope")


def test_topk_rows_null_group_kept():
    """NULL group keys form their own partition (SQL PARTITION BY
    semantics), not dropped — code-review r03b finding."""
    import numpy as np

    from neurostore_text_extraction_ray.pipelines.steps import _topk_rows

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "lang": ["en", None, None, "en"],
        "n_chars": [10, 20, 5, 30],
    })
    out = _topk_rows(df, 1, "lang")
    assert len(out) == 2  # one per group incl. the NULL group
    assert set(out["doc_id"]) == {4, 2}
