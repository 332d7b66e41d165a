"""Benchmark decontamination semantics: planted n-gram overlap is
flagged, disjoint corpora are not, and null/short/empty texts flow
through both the broadcast and exchange paths."""

import pandas as pd
import pyarrow as pa
import pytest

from conftest import force_routes


def _ds(rows):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    }))


BENCH = [(1000, "the quick brown fox jumps over the lazy dog tonight")]
CORPUS = [
    # contains the benchmark 5-gram "quick brown fox jumps over"
    (1, "yesterday a quick brown fox jumps over a fence again and again"),
    # same words, different order: no shared 5-shingle
    (2, "fox brown quick jumps the over dog lazy tonight the"),
    (3, "completely unrelated text about neural networks and datasets"),
    (4, ""),          # empty
    (5, None),        # null
    (6, "tiny doc"),  # < k words -> single joined shingle
]


def _run(decontam_mod, corpus, bench):
    out = decontam_mod.decontaminate(_ds(corpus), _ds(bench))
    return (out.to_pandas().sort_values("doc_id").reset_index(drop=True))


@pytest.mark.parametrize("budget", [None, 0])
def test_planted_overlap_flagged(ray_session, monkeypatch, budget):
    from neurostore_text_extraction_ray.stages import decontam

    if budget is not None:
        force_routes(monkeypatch, "decon", limit=budget)
    got = _run(decontam, CORPUS, BENCH)
    by_id = dict(zip(got["doc_id"], got["contaminated"]))
    assert by_id[1] is True or by_id[1] == True  # noqa: E712
    assert not by_id[2] and not by_id[3] and not by_id[4] and not by_id[5]
    assert not by_id[6]
    n1 = int(got.set_index("doc_id").loc[1, "n_hits"])
    assert n1 >= 1
    assert sorted(got["doc_id"]) == [1, 2, 3, 4, 5, 6]


def test_short_benchmark_doc_shingle(ray_session):
    """A < k-word benchmark doc contributes its joined-words shingle;
    an identical short corpus doc matches it."""
    from neurostore_text_extraction_ray.stages import decontam

    got = _run(decontam, [(1, "tiny doc"), (2, "tiny doc extended with words")],
               [(9, "tiny doc")])
    by_id = dict(zip(got["doc_id"], got["contaminated"]))
    assert by_id[1]
    # doc 2 has >= 5 words, so its shingles are all 5-grams — the
    # 2-word benchmark shingle cannot match
    assert not by_id[2]


def test_empty_benchmark_flags_nothing(ray_session):
    from neurostore_text_extraction_ray.stages import decontam

    got = _run(decontam, CORPUS, [(9, "")])
    assert not got["contaminated"].any()
    assert (got["n_hits"] == 0).all()
