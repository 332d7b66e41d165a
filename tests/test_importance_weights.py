"""DSIR-style unigram importance weights: hand-computed tiny case,
sign sanity (target-exclusive words score positive), empty/None
edges, the hard vocabulary budget, and count-combine path equality
(the ``terms`` route forced to the exchange)."""

import math
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import force_budget, force_routes
from neurostore_text_extraction_ray.pipelines import steps
from neurostore_text_extraction_ray.exceptions import BudgetError


def _write(tmp_path, rows):
    d = tmp_path / "dsir"
    d.mkdir(exist_ok=True)
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(len(rows), dtype=np.int64)),
        "lang": pa.array([r[0] for r in rows], pa.string()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    }), str(d / "documents.parquet"))
    return str(d)


def test_hand_computed_weights(ray_session, tmp_path):
    # raw: aa x3, bb x2, cc x1 (V=3, TR=6); target (en): aa x2, bb x1
    # (TT=3)
    d = _write(tmp_path, [("en", "aa bb aa"), ("de", "aa bb cc"),
                          ("de", None)])
    out = (steps.docs_importance_weights(d).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))

    def lw(ct, cr):
        return math.log((ct + 1) / (3 + 3)) - math.log((cr + 1) / (6 + 3))

    w_aa, w_bb, w_cc = lw(2, 3), lw(1, 2), lw(0, 1)
    assert out.loc[0, "weight"] == round((2 * w_aa + w_bb) / 3, 6)
    assert out.loc[1, "weight"] == round((w_aa + w_bb + w_cc) / 3, 6)
    # target-exclusive-leaning words positive, target-absent negative
    assert w_aa > 0 and w_cc < 0
    # null text: zero words, weight 0
    assert out.loc[2, "n_words"] == 0 and out.loc[2, "weight"] == 0.0


def test_vocab_gate_raises(ray_session, tmp_path, monkeypatch):
    d = _write(tmp_path, [("en", "aa bb"), ("de", "cc")])
    force_budget(monkeypatch, "dsir_vocab")
    with pytest.raises(BudgetError, match=r"BUDGETS\['dsir_vocab'\]"):
        steps.docs_importance_weights(d).materialize()


def test_count_combine_path_equality(ray_session, tmp_path, monkeypatch):
    rng = np.random.RandomState(5)
    words = ["w%02d" % i for i in range(40)]
    rows = [(("en" if i % 3 else "de"),
             " ".join(rng.choice(words, size=15))) for i in range(60)]
    d = _write(tmp_path, rows)
    a = (steps.docs_importance_weights(d).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    force_routes(monkeypatch, "terms")
    b = (steps.docs_importance_weights(d).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    assert a["weight"].abs().gt(0).any()


def test_hashed_matches_exact_when_collision_free(ray_session, tmp_path):
    """With few distinct terms and a large bucket space, buckets are
    (almost surely) collision-free, so the hashed weights equal the
    exact per-term computation re-done with B-space smoothing."""
    from neurostore_text_extraction_ray.functions.hashing import (
        _token_hashes)

    d = _write(tmp_path, [("en", "aa bb aa"), ("de", "aa bb cc"),
                          ("de", None)])
    B = 1 << 16
    bks = _token_hashes(["aa", "bb", "cc"]) % B
    assert len(set(bks.tolist())) == 3  # collision-free premise
    out = (steps.docs_importance_weights_hashed(d, n_buckets=B)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))

    def lw(ct, cr):
        return math.log((ct + 1) / (3 + B)) - math.log((cr + 1) / (6 + B))

    w_aa, w_bb, w_cc = lw(2, 3), lw(1, 2), lw(0, 1)
    assert out.loc[0, "weight"] == round((2 * w_aa + w_bb) / 3, 6)
    assert out.loc[1, "weight"] == round((w_aa + w_bb + w_cc) / 3, 6)
    assert out.loc[2, "n_words"] == 0 and out.loc[2, "weight"] == 0.0


def test_hashed_count_combine_path_equality(ray_session, tmp_path,
                                            monkeypatch):
    rng = np.random.RandomState(9)
    words = ["w%02d" % i for i in range(40)]
    rows = [(("en" if i % 3 else "de"),
             " ".join(rng.choice(words, size=15))) for i in range(60)]
    d = _write(tmp_path, rows)
    a = (steps.docs_importance_weights_hashed(d).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    force_routes(monkeypatch, "terms")
    b = (steps.docs_importance_weights_hashed(d).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    assert a["weight"].abs().gt(0).any()
