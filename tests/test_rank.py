"""Distributed global rank (steps.global_rank): total-order
correctness vs a local sort, skew, ascending/descending, tiny parts,
and the guard rails."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from neurostore_text_extraction_ray.stages import exchange as ex

SF = "/root/testdata/sf0.001"


def _local_rank(df, key, tie, descending):
    out = df.sort_values([key, tie], ascending=[not descending, True],
                         kind="stable").reset_index(drop=True)
    out["rnk"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return out[[tie, key, "rnk"]]


def _run(df, descending, num_parts=8):
    import ray.data as rd

    from neurostore_text_extraction_ray.pipelines import steps

    ds = rd.from_arrow(pa.Table.from_pandas(df)).repartition(4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ex, "NUM_PARTS", num_parts)
        got = steps.global_rank(ds, "k", "i",
                                descending=descending).to_pandas()
    return got.sort_values("rnk", kind="stable").reset_index(drop=True)


@pytest.mark.parametrize("descending", [False, True])
def test_rank_matches_local_sort(ray_session, descending):
    rng = np.random.RandomState(7)
    df = pd.DataFrame({"i": np.arange(1000, dtype=np.int64),
                       "k": rng.randint(-50, 50, 1000).astype(np.int64)})
    got = _run(df, descending)
    exp = _local_rank(df, "k", "i", descending)
    pd.testing.assert_frame_equal(got, exp.astype({"i": "int64"}))


def test_rank_skewed_keys(ray_session):
    # 90% of rows share one key value: the equal-width ranges put them
    # all in ONE part (uneven, never wrong); ties break by i
    df = pd.DataFrame({"i": np.arange(500, dtype=np.int64),
                       "k": np.where(np.arange(500) % 10 == 0,
                                     np.arange(500), 7).astype(np.int64)})
    got = _run(df, descending=True)
    exp = _local_rank(df, "k", "i", True)
    pd.testing.assert_frame_equal(got, exp)


def test_rank_single_value_and_empty(ray_session):
    import ray.data as rd

    from neurostore_text_extraction_ray.pipelines import steps

    df = pd.DataFrame({"i": np.arange(10, dtype=np.int64),
                       "k": np.zeros(10, dtype=np.int64)})
    got = _run(df, descending=False)
    assert got["rnk"].tolist() == list(range(1, 11))
    assert got["i"].tolist() == list(range(10))

    empty = rd.from_arrow(pa.table({"i": pa.array([], pa.int64()),
                                    "k": pa.array([], pa.int64())}))
    out = steps.global_rank(empty, "k", "i").to_pandas()
    assert len(out) == 0
    # empty Datasets lose column names through to_pandas (same Ray
    # quirk the tfidf partial combine documents) — accept either
    assert list(out.columns) in ([], ["i", "k", "rnk"])


def test_rank_key_guard(ray_session):
    import ray.data as rd

    from neurostore_text_extraction_ray.pipelines import steps

    df = pd.DataFrame({"i": np.arange(2, dtype=np.int64),
                       "k": np.array([0, 1 << 62], dtype=np.int64)})
    ds = rd.from_arrow(pa.Table.from_pandas(df))
    with pytest.raises(Exception, match="2\\^62"):
        steps.global_rank(ds, "k", "i").to_pandas()


def test_docs_rank_by_length_total_order(ray_session):
    from neurostore_text_extraction_ray.pipelines import steps

    got = steps.docs_rank_by_length(SF).to_pandas().sort_values("rnk")
    assert got["rnk"].tolist() == list(range(1, len(got) + 1))
    # descending by n_chars with doc_id tie-break
    lex = list(zip((-got["n_chars"]).tolist(), got["doc_id"].tolist()))
    assert lex == sorted(lex)
