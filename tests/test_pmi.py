"""PMI collocations (steps.docs_pmi_bigrams): hand-computed scores on
a tiny planted corpus, min_count filtering, cross-doc seam exclusion,
and both-gate path equivalence."""

import math
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import force_routes
from neurostore_text_extraction_ray.stages import exchange as ex

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def pmi_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("pmi")
    # "aa bb" x5 in one doc; "aa" and "bb" also appear apart; the doc
    # seam between doc 2's trailing "aa" and doc 3's leading "bb" must
    # NOT create a bigram
    docs = [
        "aa bb aa bb aa bb aa bb aa bb",
        "cc dd cc aa",
        "bb ee cc dd cc dd cc dd cc dd",
    ]
    df = pd.DataFrame({
        "doc_id": np.arange(len(docs), dtype=np.int64),
        "text": docs,
        "lang": ["en"] * len(docs),
        "n_chars": [len(t) for t in docs],
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(str(d), "documents.parquet"))
    return str(d)


def _canon(df):
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def test_pmi_hand_computed(ray_session, pmi_dir):
    from neurostore_text_extraction_ray.pipelines import steps

    out = steps.docs_pmi_bigrams(pmi_dir, k=10, min_count=5).to_pandas()
    got = {r.bigram: (r.n, r.pmi) for r in out.itertuples(index=False)}
    # tokens: doc0 aa x5 bb x5; doc1 cc x2 dd aa; doc2 bb ee cc x4 dd x4
    # T = 24 unigrams, B = 21 bigrams (9 + 3 + 9)
    # "aa bb" n=5 (doc0 only); "cc dd" n=5 (1 in doc1 + 4 in doc2)
    # counts: aa=6 bb=6 cc=6 dd=5
    T, B = 24.0, 21.0
    exp_ab = round(math.log((5 / B) / ((6 / T) * (6 / T))), 6)
    exp_cd = round(math.log((5 / B) / ((6 / T) * (5 / T))), 6)
    assert set(got) == {"aa bb", "cc dd"}, got  # min_count=5 kills the rest
    assert got["aa bb"] == (5, exp_ab)
    assert got["cc dd"] == (5, exp_cd)


def test_pmi_cross_doc_seam_not_a_bigram(ray_session, pmi_dir):
    from neurostore_text_extraction_ray.pipelines import steps

    out = steps.docs_pmi_bigrams(pmi_dir, k=100, min_count=1).to_pandas()
    # doc1 ends "... aa", doc2 starts "bb ..." — "aa bb" count must
    # stay 5 (doc0 only), not 6
    assert int(out.set_index("bigram").loc["aa bb", "n"]) == 5


def test_pmi_gate_equivalence(ray_session, monkeypatch):
    from neurostore_text_extraction_ray.pipelines import steps

    drv = _canon(steps.docs_pmi_bigrams(SF).to_pandas())
    assert len(drv) == 20
    force_routes(monkeypatch, "pmi_score")
    monkeypatch.setattr(ex, "NUM_PARTS", 5)
    exch = _canon(steps.docs_pmi_bigrams(SF).to_pandas())
    pd.testing.assert_frame_equal(drv, exch)
    force_routes(monkeypatch, "terms")
    monkeypatch.setattr(ex, "NUM_PARTS", 5)
    both = _canon(steps.docs_pmi_bigrams(SF).to_pandas())
    pd.testing.assert_frame_equal(drv, both)
