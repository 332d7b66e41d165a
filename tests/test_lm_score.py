"""docs_lm_score: add-one-smoothed bigram-LM quality scoring.

Corpus-level parity vs the DuckDB oracle lives in
test_oracle_parity.py; here we pin edge semantics, the min_count
pruning contract, and the two budget gates (count-combine exchange
fallback and the hard model-broadcast ceiling).
"""

import math

import numpy as np
import pandas as pd
import pytest

from conftest import force_budget, force_routes
from neurostore_text_extraction_ray.pipelines import steps
from neurostore_text_extraction_ray.exceptions import BudgetError


def _write(texts, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }),
        d / "documents.parquet",
    )
    return str(d)


def _run(sf, **kw):
    return (steps.docs_lm_score(sf, **kw).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))


def test_hand_computed_model(ray_session, tmp_path):
    # corpus: "aa bb" and "aa bb aa". unigrams: aa=3 bb=2 (V=2);
    # bigrams: (aa,bb)=2, (bb,aa)=1
    sf = _write(["aa bb", "aa bb aa"], tmp_path)
    df = _run(sf)
    lp_ab = math.log((2 + 1) / (3 + 2))
    lp_ba = math.log((1 + 1) / (2 + 2))
    assert df["n_bigrams"].tolist() == [1, 2]
    assert df.loc[0, "avg_logprob"] == round(lp_ab, 6)
    assert df.loc[1, "avg_logprob"] == round((lp_ab + lp_ba) / 2, 6)


def test_short_docs_score_zero(ray_session, tmp_path):
    # 0 tokens, 1 token, and a sub-2-char token (not a token at all)
    sf = _write(["", "hello", "a a a", "xx yy"], tmp_path)
    df = _run(sf)
    assert df["n_bigrams"].tolist() == [0, 0, 0, 1]
    assert df.loc[:2, "avg_logprob"].tolist() == [0.0, 0.0, 0.0]
    assert df.loc[3, "avg_logprob"] < 0


def test_min_count_prunes_gracefully(ray_session, tmp_path):
    # (aa,bb) occurs twice, (bb,cc) once: min_count=2 drops (bb,cc)
    # from the model, which then scores with count 0 (smoothed), not
    # an error — V and unigram counts are unchanged by pruning
    sf = _write(["aa bb cc", "aa bb"], tmp_path)
    full = _run(sf)
    pruned = _run(sf, min_count=2)
    assert (pruned["n_bigrams"] == full["n_bigrams"]).all()
    # doc 1 ("aa bb") only contains the surviving bigram: unchanged
    assert pruned.loc[1, "avg_logprob"] == full.loc[1, "avg_logprob"]
    # doc 0 loses the (bb,cc) count: strictly lower logprob
    assert pruned.loc[0, "avg_logprob"] < full.loc[0, "avg_logprob"]
    # exact value: cb(bb,cc) scored as 0 under the same smoothing
    V = 3
    lp_ab = math.log((2 + 1) / (2 + V))
    lp_bc0 = math.log((0 + 1) / (2 + V))
    assert pruned.loc[0, "avg_logprob"] == round((lp_ab + lp_bc0) / 2, 6)


def test_exchange_path_equivalence(ray_session, tmp_path, monkeypatch):
    sf = "/root/testdata/sf0.001"
    base = _run(sf)
    force_routes(monkeypatch, "terms")
    exchanged = _run(sf)
    pd.testing.assert_frame_equal(base, exchanged)


def test_model_broadcast_gate_raises(ray_session, tmp_path, monkeypatch):
    sf = _write(["aa bb cc"], tmp_path)
    force_budget(monkeypatch, "lm_model")
    with pytest.raises(BudgetError, match=r"BUDGETS\['lm_model'\]"):
        steps.docs_lm_score(sf).to_pandas()


def test_invalid_min_count_raises():
    with pytest.raises(ValueError):
        steps.docs_lm_score("/nonexistent", min_count=0)


def test_batch_boundaries_do_not_split_bigrams(ray_session, tmp_path):
    """Bigrams never span documents, and per-batch partial counting
    sums to the same model regardless of how docs land in batches:
    many single-doc blocks must equal the one-block result."""
    texts = [f"tok{i % 4} tok{(i + 1) % 4} tok{(i + 2) % 4}" for i in range(24)]
    sf = _write(texts, tmp_path)
    one = _run(sf)

    # same corpus as a directory of one-row files -> many blocks ->
    # many independent count_partial batches
    import pyarrow.parquet as pq
    d2 = tmp_path / "sf2"
    (d2 / "documents.parquet").mkdir(parents=True)
    t = pq.read_table(f"{sf}/documents.parquet")
    for i in range(len(t)):
        pq.write_table(t.slice(i, 1),
                       d2 / "documents.parquet" / f"part_{i:03d}.parquet")
    many = _run(str(d2))
    pd.testing.assert_frame_equal(one, many)
