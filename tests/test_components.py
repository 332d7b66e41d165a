"""host_components: connected components of the host link graph
(driver min-propagation vs the pointer-jumping exchange propagation,
plus the decorate/aggregate exchange path)."""

import numpy as np
import pandas as pd
import pytest

from conftest import force_routes
from neurostore_text_extraction_ray.pipelines import extras

SF = "/root/testdata/sf0.001"


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    return (df.sort_values(["host"], kind="stable")
            .reset_index(drop=True))


def test_structure(ray_session):
    """The planted graph has exactly two components: sub0+sub1 rings
    merged by the doc_id % 33 cross links (14 hosts) and the isolated
    sub2 ring (7 hosts)."""
    df = _canon(extras._host_components(SF).to_pandas())
    assert len(df) == 21
    sizes = df.groupby("component")["n_hosts"].agg(["size", "first"])
    assert sorted(sizes["size"]) == [7, 14]
    # n_hosts is consistent with the actual member count per component
    assert (sizes["size"] == sizes["first"]).all()
    assert set(sizes.index) == {"sub0.site0.example", "sub2.site0.example"}
    # every sub2 host stays in the sub2 component
    sub2 = df[df["host"].str.startswith("sub2.")]
    assert (sub2["component"] == "sub2.site0.example").all()


def test_exchange_paths_equivalence(ray_session, monkeypatch):
    """All three gates to 0: edge-dedup combine through the key-hash
    exchange, component labeling through the distributed
    pointer-jumping propagation, decorate + (min host, size) through
    the label-co-partitioned exchange — byte-equal to the driver
    paths."""
    drv = _canon(extras._host_components(SF).to_pandas())
    force_routes(monkeypatch, "agg_partials", "component_edges", "hostlabel")
    exch = _canon(extras._host_components(SF).to_pandas())
    pd.testing.assert_frame_equal(drv, exch)


def test_components_driver_kernel():
    """The driver min-propagation labels min-node-id per component on
    a hand graph with a chain (pointer-jump stress), a 2-cycle and a
    singleton-pair, including negative ids (int64 hash order)."""
    edges = pd.DataFrame({
        # chain 10-11-12-13, cycle (20,21), pair (-5, 30)
        "a": np.array([13, 12, 11, 20, 21, -5], dtype=np.int64),
        "b": np.array([12, 11, 10, 21, 20, 30], dtype=np.int64),
    })
    lab = extras._components_driver(edges).set_index("node")["label"]
    assert (lab.loc[[10, 11, 12, 13]] == 10).all()
    assert (lab.loc[[20, 21]] == 20).all()
    assert (lab.loc[[-5, 30]] == -5).all()
