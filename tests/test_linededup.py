"""Corpus-level keep-first line dedup (stages/linededup.py): winner
keeps all occurrences, later docs drop shared lines, empty/null texts
flow through, and the exchange path equals the broadcast path."""

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


CORPUS = [
    (1, "alpha\nshared footer\nbody one"),
    (2, "beta\nshared footer\nbody two"),          # loses the footer
    (3, "shared footer\nshared footer"),           # loses BOTH copies
    (4, ""),                                       # one empty line (winner)
    (5, None),                                     # null -> one empty line (loser)
    (6, "alpha\nalpha"),                           # loses both (doc 1 wins alpha)
    (7, "unique line only"),
]

EXPECT = {
    1: (3, 0, "alpha\nshared footer\nbody one"),
    2: (3, 1, "beta\nbody two"),
    3: (2, 2, ""),
    4: (1, 0, ""),
    5: (1, 1, ""),
    6: (2, 2, ""),
    7: (1, 0, "unique line only"),
}


def _run(mod, corpus):
    out = mod.line_dedup(_ds(corpus), num_parts=4).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


@pytest.mark.parametrize("budget", [None, 0])
def test_keep_first_semantics(ray_session, monkeypatch, budget):
    from neurostore_text_extraction_ray.stages import linededup

    if budget is not None:
        force_routes(monkeypatch, "linededup", limit=budget)
    got = _run(linededup, CORPUS)
    assert sorted(got["doc_id"]) == sorted(EXPECT)
    for _, row in got.iterrows():
        nl, nr, txt = EXPECT[int(row["doc_id"])]
        assert int(row["n_lines"]) == nl, row
        assert int(row["n_removed"]) == nr, row
        assert row["text_dedup"] == txt, row


def test_exchange_equals_broadcast_on_corpus(ray_session, monkeypatch):
    """Both paths over the real sf0.001 planted corpus (the query's
    own input) must agree row-for-row."""
    from neurostore_text_extraction_ray.pipelines.extras import _docs_line_dedup

    sf = "/root/testdata/sf0.001"
    drv = _docs_line_dedup(sf).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    force_routes(monkeypatch, "linededup")
    exch = _docs_line_dedup(sf).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(drv, exch)
    assert len(drv) == 500
    # boilerplate actually deduplicated: every non-winner doc lost >=1 line
    assert (drv.loc[drv["doc_id"] > 0, "n_removed"] >= 1).all()


def test_large_ids_exact(ray_session):
    """Winner selection over ids above 2^53 must stay exact int64
    (no float round-trip)."""
    from neurostore_text_extraction_ray.stages import linededup

    big = 2**53
    corpus = [(big + 1, "dup line"), (big + 2, "dup line\nown line")]
    got = _run(linededup, corpus)
    by_id = got.set_index("doc_id")
    assert by_id.loc[big + 1, "text_dedup"] == "dup line"
    assert by_id.loc[big + 2, "text_dedup"] == "own line"
