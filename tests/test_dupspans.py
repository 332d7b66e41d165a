"""Cross-document duplicate-span detection (stages/dupspans.py):
hand-computed semantics, broadcast==exchange path equivalence on the
query's own planted corpus, degenerate shapes, and >2^53 id exactness.
"""

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from conftest import force_routes
from neurostore_text_extraction_ray.stages import dupspans
from neurostore_text_extraction_ray.stages.dupspans import dup_spans


def _run(rows, k=5, **kw):
    import ray.data as rd

    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    })
    # >=2 blocks so both paths exercise multi-block inputs
    n = max(1, t.num_rows // 2)
    ds = rd.from_arrow([t.slice(0, n), t.slice(n)])
    return (dup_spans(ds, k=k, **kw).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))


def test_hand_computed_spans(ray_session):
    """doc 10 shares the 5-word run 'quick brown fox jumps over' with
    winner doc 2; the marked span is exactly that run's char range in
    doc 10's own text."""
    d2 = "the quick brown fox jumps over the lazy dog"
    d10 = "SO quick Brown fox JUMPS over a sleeping cat now resting"
    df = _run([(2, d2), (10, d10)])
    r2 = df[df.doc_id == 2].iloc[0]
    r10 = df[df.doc_id == 10].iloc[0]
    assert r2.n_windows == 5 and r2.n_dup_windows == 0
    assert r10.n_windows == 7
    # exactly one shared window (case-insensitive \w+ tokenization)
    assert r10.n_dup_windows == 1
    s, e = json.loads(r10.dup_spans)[0]
    assert d10[s:e] == "quick Brown fox JUMPS over"
    assert r10.dup_nchars == e - s


def test_within_doc_repeat_is_not_dup(ray_session):
    """The winner keeps ALL its occurrences — a window repeated only
    inside one doc is not a duplicate."""
    rep = "alpha beta gamma delta epsilon"
    df = _run([(1, f"{rep} zeta {rep}"), (2, "totally different words "
                                             "here nothing shared at all")])
    assert (df.n_dup_windows == 0).all()


def test_short_empty_and_null_docs(ray_session):
    df = _run([(1, "only four words here"), (2, ""), (3, None),
               (4, "a b c d e f g h i j k l m n o p q r s t")])
    assert df[df.doc_id == 1].iloc[0].n_windows == 0  # < k words
    assert df[df.doc_id == 2].iloc[0].n_windows == 0
    assert df[df.doc_id == 3].iloc[0].n_windows == 0
    assert (df.dup_spans == "[]").sum() == 4
    assert len(df) == 4


def test_merged_overlapping_spans(ray_session):
    """Two consecutive dup windows merge into one span covering both."""
    shared = "one two three four five six"  # 6 words -> 2 windows at k=5
    df = _run([(1, shared), (2, f"prefix words {shared} suffix words")])
    r2 = df[df.doc_id == 2].iloc[0]
    assert r2.n_dup_windows == 2
    spans = json.loads(r2.dup_spans)
    assert len(spans) == 1  # merged
    s, e = spans[0]
    assert f"prefix words {shared} suffix words"[s:e] == shared


def test_exchange_equals_broadcast_on_corpus(ray_session, monkeypatch):
    """Both paths over the real planted query corpus must agree
    row-for-row."""
    from neurostore_text_extraction_ray.pipelines.extras import _docs_dup_spans

    sf = "/root/testdata/sf0.001"
    drv = _docs_dup_spans(sf).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    force_routes(monkeypatch, "dupspans")
    exch = _docs_dup_spans(sf).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(drv, exch)
    assert len(drv) == 500
    # the planted footer is detected: every non-winner doc has dups
    assert (drv[drv.doc_id > 0].n_dup_windows > 0).all()
    assert drv[drv.doc_id == 0].iloc[0].n_dup_windows == 0


@pytest.mark.parametrize("limit", [10**9, 0])
def test_large_ids_exact(ray_session, monkeypatch, limit):
    """Winner selection on ids above 2^53 stays exact int64 on both
    paths (a float round-trip would collapse adjacent huge ids)."""
    force_routes(monkeypatch, "dupspans", limit=limit)
    base = (1 << 62) + 11
    shared = "omega psi chi phi upsilon"
    df = _run([(base, shared + " tail words here"),
               (base + 1, "head words then " + shared)])
    w = df[df.doc_id == base].iloc[0]
    l1 = df[df.doc_id == base + 1].iloc[0]
    assert w.n_dup_windows == 0 and l1.n_dup_windows == 1
    s, e = json.loads(l1.dup_spans)[0]
    assert ("head words then " + shared)[s:e] == shared


@pytest.mark.parametrize("limit", [10**9, -1])
def test_empty_and_all_null_corpora(ray_session, monkeypatch, limit):
    """A corpus without rows gives no rows; an all-NULL text column
    gives one window-free row per doc. Both paths: limit -1 sends even
    zero partial rows to the exchange."""
    import ray.data as rd

    force_routes(monkeypatch, "dupspans", limit=limit)
    assert len(dup_spans(rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string())}))).to_pandas()) == 0
    df = _run([(2, None), (1, None)])
    assert df.doc_id.tolist() == [1, 2]
    assert (df.n_windows == 0).all() and (df.n_dup_windows == 0).all()
    assert (df.dup_nchars == 0).all() and (df.dup_spans == "[]").all()


def test_doc_windows_offsets():
    """Kernel-level: spans index the ORIGINAL text (tokenization only
    lowercases for hashing, never shifts offsets)."""
    h, s, e = dupspans._doc_windows("  Foo, bar;  baz qux quux corge", 5)
    assert len(h) == 2
    assert s[0] == 2 and e[0] == len("  Foo, bar;  baz qux quux")
    # distinct windows hash distinctly
    assert h[0] != h[1]
    assert np.asarray(s).dtype == np.int64
