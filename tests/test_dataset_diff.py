"""Dataset reconciliation (steps.dataset_diff): hand-computed
statuses, null semantics (null == null is unchanged; null vs '' is
changed), multi-column signatures, and broadcast/exchange path
equivalence via the ``diff`` gate."""

import numpy as np
import pandas as pd
import pytest

from conftest import force_routes

SF = "/root/testdata/sf0.001"


def _diff(a, b, val_cols, ray_session):
    import ray.data as rd

    from neurostore_text_extraction_ray.pipelines import steps

    out = steps.dataset_diff(
        rd.from_pandas(a).repartition(3),
        rd.from_pandas(b).repartition(2), "k", val_cols)
    df = out.to_pandas()
    if not len(df.columns):
        # ray's to_pandas drops columns on an all-empty dataset; the
        # dataset schema is the contract — rebuild from it
        df = pd.DataFrame({n: pd.Series([], dtype=object)
                           for n in out.schema().names})
    return df.sort_values("key").reset_index(drop=True)


def test_statuses_hand_computed(ray_session):
    a = pd.DataFrame({"k": [1, 2, 3, 4], "v": ["a", "b", "c", "d"]})
    b = pd.DataFrame({"k": [1, 2, 5], "v": ["a", "B", "e"]})
    out = _diff(a, b, ["v"], ray_session)
    assert out.to_dict("list") == {
        "key": [2, 3, 4, 5],
        "status": ["changed", "removed", "removed", "added"]}


def test_null_semantics(ray_session):
    # null == null -> unchanged (no row); null vs '' -> changed
    a = pd.DataFrame({"k": [1, 2], "v": [None, None]})
    b = pd.DataFrame({"k": [1, 2], "v": [None, ""]})
    out = _diff(a, b, ["v"], ray_session)
    assert out.to_dict("list") == {"key": [2], "status": ["changed"]}


def test_multi_column_signature(ray_session):
    # the separator keeps ('ab','c') distinct from ('a','bc')
    a = pd.DataFrame({"k": [1, 2], "x": ["ab", "q"], "y": ["c", "r"]})
    b = pd.DataFrame({"k": [1, 2], "x": ["a", "q"], "y": ["bc", "r"]})
    out = _diff(a, b, ["x", "y"], ray_session)
    assert out.to_dict("list") == {"key": [1], "status": ["changed"]}


def test_identical_sides_empty(ray_session):
    a = pd.DataFrame({"k": [1, 2, 3], "v": ["x", "y", None]})
    out = _diff(a, a.copy(), ["v"], ray_session)
    assert len(out) == 0


def test_query_gate_path_equivalence(ray_session, monkeypatch):
    from neurostore_text_extraction_ray.pipelines import steps

    def canon(df):
        return (df[sorted(df.columns)]
                .sort_values(sorted(df.columns), kind="stable")
                .reset_index(drop=True))

    base = canon(steps.docs_diff_planted(SF).to_pandas())
    # the plant guarantees every status appears
    assert set(base["status"]) == {"added", "removed", "changed"}
    force_routes(monkeypatch, "diff")
    exch = canon(steps.docs_diff_planted(SF).to_pandas())
    pd.testing.assert_frame_equal(base, exch)
