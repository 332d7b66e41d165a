"""Local replica of the driver's correctness gate: run every
``queries()`` entry and its ``oracle_sql()`` side by side at sf0.001
with the canonicalization and comparison of ``tools/parity_sweep.py``
(columns sorted by name, rows sorted by all columns, floats within
1e-9). Every entry runs twice: on the default gates, and forced (every
gate of ``exchange.ROUTES`` at 0, so each gated step takes its
exchange path)."""

import os

import pandas as pd
import pytest

import __ray_entry__
from conftest import force_routes
from neurostore_text_extraction_ray.stages import exchange as ex
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


def _needs_missing_reference(name) -> bool:
    need = _NEEDS_REFERENCE.get(name)
    return bool(need) and not os.path.isdir(need)


def _query_params():
    for forced in (False, True):
        for name in __ray_entry__.queries():
            marks = ([pytest.mark.skip(reason="reference goldens unavailable")]
                     if _needs_missing_reference(name) else [])
            yield pytest.param(name, forced, marks=marks,
                               id=f"{name}-forced" if forced else name)


# the forced cases' ``fits`` decisions, query -> [(gate, rows, fits)]
_FORCED_DECISIONS: dict[str, list] = {}


@pytest.mark.parametrize("name,forced", list(_query_params()))
def test_query_matches_oracle(name, forced, ray_session, monkeypatch):
    fn = __ray_entry__.queries()[name]
    sql = __ray_entry__.oracle_sql().get(name)
    if forced:
        force_routes(monkeypatch, *ex.ROUTES)
        decisions = []
        real_fits = ex.fits

        def recording_fits(gate, n):
            decisions.append((gate, n, real_fits(gate, n)))
            return decisions[-1][2]

        monkeypatch.setattr(ex, "fits", recording_fits)
    mine = _canon(_to_pandas(fn(SF)))
    assert sql is not None, f"{name} lacks an oracle"
    err = _compare(name, mine, _canon(_oracle(sql, SF)))
    assert err is None, f"{name}: {err}"
    if forced:
        _FORCED_DECISIONS[name] = decisions


def test_forced_sweep_decides_every_gate():
    """Over the forced cases: every gate in ``exchange.ROUTES`` is
    decided at least once, and every decision is the exchange path.
    Fails when a new gate bypasses the registry or no query reaches
    it."""
    expected = {n for n in __ray_entry__.queries()
                if not _needs_missing_reference(n)}
    if not expected <= set(_FORCED_DECISIONS):
        pytest.skip("the forced cases did not all pass in this session")
    seen = [d for ds in _FORCED_DECISIONS.values() for d in ds]
    assert set(ex.ROUTES) - {g for g, _, _ in seen} == set()
    on_driver = sorted({(q, g) for q, ds in _FORCED_DECISIONS.items()
                        for g, _, fit in ds if fit})
    assert not on_driver, on_driver


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
