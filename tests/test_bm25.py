"""Okapi BM25 (steps.docs_bm25): hand-computed scores on a tiny
corpus, tokenizer conventions (2+-char lowercase tokens), no-match
docs emit nothing, and the gated-combine path (TERMS gate to 0)."""

import math

import numpy as np
import pandas as pd
import pytest

from conftest import force_routes

SF = "/root/testdata/sf0.001"


def _run(docs: pd.DataFrame, terms, tmp_path, **kw):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from neurostore_text_extraction_ray.pipelines import steps

    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    out = steps.docs_bm25(str(tmp_path), query_terms=terms, **kw)
    df = out.to_pandas()
    if not len(df.columns):
        # ray's to_pandas drops columns on an all-empty dataset; the
        # dataset schema is the contract — rebuild from it
        df = pd.DataFrame({n: pd.Series([], dtype=object)
                           for n in out.schema().names})
    return df.sort_values("doc_id").reset_index(drop=True)


def _bm25_ref(texts, terms, k1=1.2, b=0.75):
    import re

    toks = [re.findall(r"\w\w+", (t or "").lower()) for t in texts]
    n = len(texts)
    avgdl = sum(len(t) for t in toks) / n
    df = {q: sum(q in t for t in toks) for q in terms}
    out = {}
    for i, t in enumerate(toks):
        s = 0.0
        for q in terms:
            tf = t.count(q)
            if not tf or not df[q]:
                continue
            idf = math.log((n - df[q] + 0.5) / (df[q] + 0.5) + 1.0)
            s += idf * (tf * (k1 + 1.0)) / (
                tf + k1 * ((1.0 - b) + b * (len(t) / avgdl)))
        if s:
            out[i] = s
    return out


def test_hand_computed(ray_session, tmp_path):
    texts = ["cat dog cat", "dog dog dog fish", "bird only here",
             None, "cat CAT Cat dog"]
    docs = pd.DataFrame({"doc_id": np.arange(5, dtype=np.int64),
                         "text": texts})
    got = _run(docs, ("cat", "dog"), tmp_path)
    want = _bm25_ref(texts, ["cat", "dog"])
    assert list(got["doc_id"]) == sorted(want)
    for _, r in got.iterrows():
        assert r["score"] == pytest.approx(want[int(r["doc_id"])],
                                           rel=1e-12)


def test_short_tokens_excluded(ray_session, tmp_path):
    # 1-char words are not tokens (sklearn \w\w+), so 'a' never
    # matches and dl counts 2+-char tokens only
    docs = pd.DataFrame({"doc_id": np.array([0, 1], dtype=np.int64),
                         "text": ["a a a cat", "cat"]})
    got = _run(docs, ("cat",), tmp_path)
    # both docs have dl == 1, tf == 1 -> identical scores
    assert len(got) == 2
    assert got["score"][0] == got["score"][1]


def test_no_match_empty(ray_session, tmp_path):
    docs = pd.DataFrame({"doc_id": np.array([0], dtype=np.int64),
                         "text": ["nothing relevant"]})
    got = _run(docs, ("zebra",), tmp_path)
    assert len(got) == 0


def test_gate_path_equivalence(ray_session, monkeypatch):
    from neurostore_text_extraction_ray.pipelines import steps

    def canon(ds):
        return (ds.to_pandas().sort_values("doc_id")
                .reset_index(drop=True))

    base = canon(steps.docs_bm25(SF))
    assert len(base) > 0
    force_routes(monkeypatch, "terms")
    exch = canon(steps.docs_bm25(SF))
    pd.testing.assert_frame_equal(base, exch)
