"""Corpus-level keep-first line dedup (stages/linededup.py): winner
keeps all occurrences, later docs drop shared lines, empty/null texts
flow through, and the exchange path equals the broadcast path."""

import os

import pandas as pd
import pyarrow as pa
import pytest

from conftest import force_routes
from neurostore_text_extraction_ray.stages import exchange as ex


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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ex, "NUM_PARTS", 4)
        out = mod.line_dedup(_ds(corpus)).to_pandas()
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


@pytest.mark.parametrize("limit", [10**9, 0])
def test_large_ids_exact(ray_session, monkeypatch, limit):
    """Winner selection over ids above 2^53 must stay exact int64
    (no float round-trip) on both paths."""
    from neurostore_text_extraction_ray.stages import linededup

    force_routes(monkeypatch, "linededup", limit=limit)
    big = 2**53
    corpus = [(big + 1, "dup line"), (big + 2, "dup line\nown line")]
    got = _run(linededup, corpus)
    by_id = got.set_index("doc_id")
    assert by_id.loc[big + 1, "text_dedup"] == "dup line"
    assert by_id.loc[big + 2, "text_dedup"] == "own line"


@pytest.mark.parametrize("limit", [10**9, -1])
def test_empty_and_all_null_corpora(ray_session, monkeypatch, limit):
    """A corpus without rows gives no rows; an all-NULL text column
    gives one row per doc (each NULL is one empty line, kept by the
    min id only). Both paths: limit -1 sends even zero partial rows
    to the exchange."""
    from neurostore_text_extraction_ray.stages import linededup

    force_routes(monkeypatch, "linededup", limit=limit)
    assert len(linededup.line_dedup(_ds([])).to_pandas()) == 0
    got = _run(linededup, [(3, None), (1, None), (2, None)])
    assert got["doc_id"].tolist() == [1, 2, 3]
    assert got["n_lines"].tolist() == [1, 1, 1]
    assert got["n_removed"].tolist() == [0, 1, 1]
    assert got["text_dedup"].tolist() == ["", "", ""]


def test_text_changed_between_passes_raises(ray_session, tmp_path):
    """The broadcast path re-executes the corpus for its mark pass. An
    upstream map that yields other text the second time leaves a line
    hash outside the pass-1 winner map: that must raise, not mark the
    line with a neighbouring hash's winner."""
    from neurostore_text_extraction_ray.stages import linededup

    marker = str(tmp_path / "first_pass_ran")

    def drift(b: pa.Table) -> pa.Table:
        second = os.path.exists(marker)
        open(marker, "a").close()
        text = "line a\nline c" if second else "line a\nline b"
        return pa.table({"doc_id": b["doc_id"],
                         "text": pa.array([text] * b.num_rows, pa.string())})

    ds = _ds([(1, "x"), (2, "y")]).map_batches(drift, batch_format="pyarrow")
    # Ray wraps the ValueError; its message survives
    with pytest.raises(Exception, match="different text between passes"):
        linededup.line_dedup(ds).to_pandas()
