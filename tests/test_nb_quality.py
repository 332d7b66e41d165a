"""docs_nb_quality: multinomial Naive-Bayes quality classifier."""

import math

import numpy as np
import pandas as pd
import pytest

from conftest import force_budget, force_routes
from neurostore_text_extraction_ray.pipelines import steps
from neurostore_text_extraction_ray.exceptions import BudgetError

SF = "/root/testdata/sf0.001"


def _write(rows, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(len(rows)), pa.int64()),
            "lang": pa.array([r[0] for r in rows], pa.string()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }),
        d / "documents.parquet",
    )
    return str(d)


def _run(sf, **kw):
    return (steps.docs_nb_quality(sf, **kw).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))


def test_hand_computed_model(ray_session, tmp_path):
    # en docs say "good"; de docs say "schlecht"; V=2, T1=T0=2, n1=n0=2
    sf = _write([("en", "good good"), ("en", ""),
                 ("de", "schlecht schlecht"), ("de", "")], tmp_path)
    df = _run(sf).set_index("doc_id")
    w_good = math.log((2 + 1) / (2 + 2)) - math.log((0 + 1) / (2 + 2))
    prior = math.log(2 / 2)
    assert df.loc[0, "log_odds"] == round(prior + 2 * w_good, 6)
    assert bool(df.loc[0, "pred"])
    assert not bool(df.loc[2, "pred"])  # symmetric negative
    assert df.loc[1, "log_odds"] == round(prior, 6)  # empty doc = prior
    assert df.loc[1, "n_tokens"] == 0


def test_separates_planted_classes(ray_session, tmp_path):
    rows = [("en", f"alpha beta gamma{i % 3}") for i in range(20)] + \
           [("de", f"eins zwei drei{i % 3}") for i in range(10)]
    sf = _write(rows, tmp_path)
    df = _run(sf)
    en = df[df.doc_id < 20]
    de = df[df.doc_id >= 20]
    assert en["pred"].all()
    assert not de["pred"].any()


def test_single_class_raises(ray_session, tmp_path):
    sf = _write([("en", "only one class")], tmp_path)
    with pytest.raises(ValueError, match="non-empty"):
        steps.docs_nb_quality(sf).to_pandas()


def test_exchange_path_equivalence(ray_session, monkeypatch):
    base = _run(SF)
    force_routes(monkeypatch, "terms")
    exchanged = _run(SF)
    pd.testing.assert_frame_equal(base, exchanged)


def test_model_broadcast_gate_raises(ray_session, monkeypatch):
    force_budget(monkeypatch, "nb_model")
    with pytest.raises(BudgetError, match=r"BUDGETS\['nb_model'\]"):
        steps.docs_nb_quality(SF).to_pandas()


def test_positive_lang_option(ray_session, tmp_path):
    rows = [("en", "common aword"), ("fr", "common bword")]
    sf = _write(rows, tmp_path)
    a = _run(sf, positive_lang="en").set_index("doc_id")
    b = _run(sf, positive_lang="fr").set_index("doc_id")
    # swapping the positive class flips the sign of every log-odds
    assert a.loc[0, "log_odds"] == -b.loc[0, "log_odds"]
    assert a.loc[1, "log_odds"] == -b.loc[1, "log_odds"]


def test_zero_token_corpus_scores_at_prior(ray_session, tmp_path):
    # both classes non-empty but no \w\w+ tokens anywhere: the model
    # is just the prior; must not divide by zero
    sf = _write([("en", "a b"), ("en", ""), ("de", "- -")], tmp_path)
    df = _run(sf)
    prior = round(math.log(2 / 1), 6)
    assert (df["log_odds"] == prior).all()
    assert (df["n_tokens"] == 0).all()
    assert df["pred"].all()
