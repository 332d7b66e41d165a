"""host_pagerank: iterative weighted PageRank over the host graph."""

import numpy as np
import pandas as pd
import pytest

from conftest import force_routes
from neurostore_text_extraction_ray.pipelines import extras

SF = "/root/testdata/sf0.001"


def _run(**kw):
    return (extras._host_pagerank(SF, **kw).to_pandas()
            .sort_values("host").reset_index(drop=True))


def test_probability_distribution(ray_session):
    df = _run()
    assert abs(df["pagerank"].sum() - 1.0) < 1e-4
    assert (df["pagerank"] > 0).all()


def test_hub_dominates(ray_session):
    """site0 receives the j=0 link from every linking doc — it must
    out-rank every other host by a wide margin."""
    df = _run().set_index("host")
    hub = df.loc["site0.example", "pagerank"]
    others = df.drop("site0.example")["pagerank"]
    assert hub > 5 * others.max()


def test_zero_iterations_is_uniform(ray_session):
    df = _run(n_iter=0)
    assert (df["pagerank"] == round(1.0 / len(df), 6)).all()


def test_damping_zero_is_uniform(ray_session):
    df = _run(damping=0.0)
    assert (df["pagerank"] == round(1.0 / len(df), 6)).all()


def test_more_iterations_converge(ray_session):
    a = _run(n_iter=20).set_index("host")["pagerank"]
    b = _run(n_iter=21).set_index("host")["pagerank"]
    assert (a - b).abs().max() < 1e-4


def test_edge_combine_exchange_equivalence(ray_session, monkeypatch):
    base = _run()
    force_routes(monkeypatch, "domain")
    exchanged = _run()
    pd.testing.assert_frame_equal(base, exchanged)


def test_distributed_iteration_equals_driver(ray_session, monkeypatch):
    """Past the edge budget the WHOLE iteration runs through the
    co-partitioned exchange (the rank vector never on the driver);
    the rounded output must equal the driver scatter-add path."""
    base = _run()
    force_routes(monkeypatch, "pagerank_edges")
    exchanged = _run()
    pd.testing.assert_frame_equal(base, exchanged)


def test_distributed_iteration_zero_iters(ray_session, monkeypatch):
    force_routes(monkeypatch, "pagerank_edges")
    df = _run(n_iter=0)
    assert (df["pagerank"] == round(1.0 / len(df), 6)).all()


def test_invalid_params_raise():
    with pytest.raises(ValueError):
        extras._host_pagerank(SF, n_iter=-1)
    with pytest.raises(ValueError):
        extras._host_pagerank(SF, damping=1.5)
