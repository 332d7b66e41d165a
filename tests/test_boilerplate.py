"""Domain-level boilerplate line removal (steps.strip_boilerplate):
hand-computed semantics, the integer-exact ratio boundary, blank-line
handling, and path equivalence for all three gated stages (line-count
combine, domain-totals ratio join, boilerplate-key strip broadcast)."""

import numpy as np
import pandas as pd
import pytest

from conftest import force_routes

SF = "/root/testdata/sf0.001"


def _run(df, ray_session, **kw):
    import ray.data as rd

    from neurostore_text_extraction_ray.pipelines import steps

    out = steps.strip_boilerplate(rd.from_pandas(df).repartition(3), **kw)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def test_strip_semantics_hand_computed(ray_session):
    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "domain": ["a.com"] * 4 + ["b.com"],
        "text": ["FOO\nbody one\nBAR", "FOO\nbody two", "FOO\n\nbody three",
                 "FOO\nbody four", "FOO\nlonely"],
    })
    out = _run(df, ray_session)
    # FOO: 4/4 docs of a.com (>= min_docs 3, ratio 1 >= 1/2) -> stripped
    # there; b.com has 1 doc < min_docs -> kept there. BAR (1 doc) kept.
    assert list(out["clean_text"]) == [
        "body one\nBAR", "body two", "\nbody three", "body four",
        "FOO\nlonely"]
    assert list(out["n_lines"]) == [3, 2, 3, 2, 2]
    assert list(out["n_removed"]) == [1, 1, 1, 1, 0]


def test_ratio_boundary_integer_exact(ray_session):
    # 2 of 4 docs at ratio_num/ratio_den = 1/2: n*den >= nd*num is
    # 2*2 >= 4*1 -> INCLUSIVE, stripped; 1 of 4 (1*2 >= 4) is not.
    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "domain": ["c.com"] * 4,
        "text": ["EDGE\nx1", "EDGE\nx2", "ONCE\nx3", "x4"],
    })
    out = _run(df, ray_session, ratio_num=1, ratio_den=2, min_docs=2)
    assert list(out["clean_text"]) == ["x1", "x2", "ONCE\nx3", "x4"]


def test_blank_lines_never_boilerplate(ray_session):
    # the empty line appears in every doc but is whitespace-only ->
    # never a candidate, always kept in place
    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "domain": ["d.com"] * 3,
        "text": ["a\n\nz", "b\n\nz", "c\n\nz"],
    })
    out = _run(df, ray_session, min_docs=3)
    assert list(out["clean_text"]) == ["a\n", "b\n", "c\n"]
    assert list(out["n_removed"]) == [1, 1, 1]


def test_all_boilerplate_doc_empty_clean_text(ray_session):
    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "domain": ["e.com"] * 3,
        "text": ["SAME", "SAME", "SAME\nextra"],
    })
    out = _run(df, ray_session)
    assert list(out["clean_text"]) == ["", "", "extra"]
    assert list(out["n_removed"]) == [1, 1, 1]


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns),
                          kind="stable").reset_index(drop=True)


# one gate forced at a time; the ids keep the names the gates had as
# module constants
@pytest.mark.parametrize("gate", [
    # line-count combine -> exchange
    pytest.param("terms", id="TERMS_DRIVER_LIMIT"),
    # domain totals + ratio join -> exchange
    pytest.param("domain", id="DOMAIN_DRIVER_LIMIT"),
    # strip pass -> co-partition
    pytest.param("boilerplate_keys", id="BOILERPLATE_KEYS_BROADCAST_LIMIT"),
])
def test_query_gate_path_equivalence(ray_session, monkeypatch, gate):
    from neurostore_text_extraction_ray.pipelines import steps

    base = _canon(steps.docs_boilerplate_strip(SF).to_pandas())
    assert len(base) == 500 and base["n_removed"].sum() > 0
    force_routes(monkeypatch, gate)
    gated = _canon(steps.docs_boilerplate_strip(SF).to_pandas())
    pd.testing.assert_frame_equal(base, gated)
