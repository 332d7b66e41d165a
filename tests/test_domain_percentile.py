"""Per-domain percentile filter (steps.docs_domain_percentile_filter):
hand-computed percent_rank semantics (min-rank ties, (rank-1)/(n-1),
singleton -> 0), and path equivalence with BOTH gates (combine and
filter-join) patched to 0."""

import numpy as np
import pandas as pd
import pytest

from conftest import force_routes

SF = "/root/testdata/sf0.001"


def test_kept_frame_hand_computed():
    from neurostore_text_extraction_ray.pipelines.steps import \
        _pctl_kept_frame

    # domain a: values 1,1,2,5 -> pr 0, 0, 2/3, 1; domain b: singleton
    df = pd.DataFrame({
        "domain": ["a", "a", "a", "a", "b"],
        "v": np.array([1, 1, 2, 5, 9], dtype=np.int64),
        "cnt": np.array([1, 1, 1, 1, 1], dtype=np.int64)})
    out = (_pctl_kept_frame(df, 0.5).sort_values(["domain", "v"])
           .reset_index(drop=True))
    assert list(out["domain"]) == ["a", "a"]
    assert list(out["v"]) == [2, 5]
    assert out["pr"][0] == pytest.approx(2 / 3, rel=1e-15)
    assert out["pr"][1] == 1.0
    # p = 0 keeps everything, singleton pr == 0 included
    all_ = _pctl_kept_frame(df, 0.0)
    assert len(all_) == 4  # (a,1) collapses into one value row
    assert set(all_[all_["domain"] == "b"]["pr"]) == {0.0}


def test_combine_is_idempotent():
    # summing already-exact counts is a no-op: split counts across
    # partial rows and expect identical kept output
    from neurostore_text_extraction_ray.pipelines.steps import \
        _pctl_kept_frame

    whole = pd.DataFrame({
        "domain": ["a", "a"], "v": np.array([1, 2], dtype=np.int64),
        "cnt": np.array([4, 2], dtype=np.int64)})
    split = pd.DataFrame({
        "domain": ["a", "a", "a"],
        "v": np.array([1, 1, 2], dtype=np.int64),
        "cnt": np.array([3, 1, 2], dtype=np.int64)})
    a = _pctl_kept_frame(whole, 0.5).reset_index(drop=True)
    b = _pctl_kept_frame(split, 0.5).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_gate_path_equivalence(ray_session, monkeypatch):
    from neurostore_text_extraction_ray.pipelines import steps

    def canon(ds):
        df = ds.to_pandas()
        df["pr"] = df["pr"].round(9)
        return (df.sort_values("doc_id").reset_index(drop=True))

    base = canon(steps.docs_domain_percentile_filter(SF))
    assert len(base) > 0
    # singleton tail domains must all be dropped at p = 0.5
    assert not base["domain"].str.startswith("tail").any()
    force_routes(monkeypatch, "terms", "pctl_kept")
    exch = canon(steps.docs_domain_percentile_filter(SF))
    pd.testing.assert_frame_equal(base, exch)
