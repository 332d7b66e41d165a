"""BPE merge learning (stages/bpe.py): the classic Sennrich example
against a naive recount-everything reference, the incremental driver
loop, and driver/distributed path equality with both budget gates
patched to 0."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from conftest import force_routes
from neurostore_text_extraction_ray.stages import bpe


def _naive_bpe(words, counts, n_merges):
    """Recount-everything reference implementation."""
    seqs = {i: tuple(w) + (bpe._EOW,) for i, w in enumerate(words)}
    rows = []
    for rank in range(n_merges):
        pc = {}
        for i, s in seqs.items():
            for j in range(len(s) - 1):
                p = (s[j], s[j + 1])
                pc[p] = pc.get(p, 0) + counts[i]
        pc = {p: n for p, n in pc.items() if n > 0}
        if not pc:
            break
        best, best_n = min(pc.items(), key=lambda kv: (-kv[1], kv[0]))
        rows.append((rank, best[0], best[1], best_n))
        seqs = {i: bpe._merge_seq(s, *best) for i, s in seqs.items()}
    return pd.DataFrame(rows,
                        columns=["rank", "left", "right", "pair_count"])


SENNRICH = (["low", "lower", "newest", "widest"], [5, 2, 6, 3])


def test_classic_example_first_merge():
    out = bpe._bpe_driver(*SENNRICH, n_merges=1)
    # 'es' appears in newest(6) + widest(3) = 9; ties ('es','st',
    # 't</w>') break to the lexicographically smallest pair
    assert tuple(out.iloc[0][["left", "right", "pair_count"]]) == \
        ("e", "s", 9)


def test_incremental_matches_naive():
    a = bpe._bpe_driver(*SENNRICH, n_merges=12)
    b = _naive_bpe(*SENNRICH, n_merges=12)
    pd.testing.assert_frame_equal(a, b)
    # merges exhaust: every word eventually collapses to one symbol
    assert len(a) < 12 or a["pair_count"].iloc[-1] > 0


def test_incremental_matches_naive_adversarial():
    # repeated chars (overlapping pairs), single-char words, ties
    words = ["aaaa", "aa", "a", "abab", "bb", "ab"]
    counts = [3, 7, 11, 2, 5, 1]
    a = bpe._bpe_driver(words, counts, 10)
    b = _naive_bpe(words, counts, 10)
    pd.testing.assert_frame_equal(a, b)


def test_empty_vocab(ray_session):
    vocab = rd.from_arrow(pa.table({
        "term": pa.array([], pa.string()), "n": pa.array([], pa.int64())}))
    assert bpe.bpe_learn(vocab, 5).count() == 0


def test_encode_roundtrip_properties(ray_session, tmp_path):
    from neurostore_text_extraction_ray.pipelines import steps

    d = tmp_path / "enccorp"
    d.mkdir()
    texts = ["low lower newest", "newest widest low", None, ""]
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(4, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
    }), str(d / "documents.parquet"))
    out = (steps.docs_bpe_encode(str(d), n_merges=50).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    # null/empty docs encode to the empty stream
    assert out.loc[2, "n_bpe_tokens"] == 0 and out.loc[2, "bpe_text"] == ""
    assert out.loc[3, "n_bpe_tokens"] == 0
    # with enough merges every word collapses to one symbol word</w>
    assert out.loc[0, "bpe_text"] == "low</w> lower</w> newest</w>"
    assert out.loc[0, "n_bpe_tokens"] == 3
    # symbol stream always reconstructs the original words: drop
    # intra-word spaces, turn </w> boundaries back into spaces
    rebuilt = "".join(out.loc[1, "bpe_text"].split()).replace("</w>", " ")
    assert rebuilt.strip() == "newest widest low"


def test_distributed_path_equals_driver(ray_session, tmp_path, monkeypatch):
    from neurostore_text_extraction_ray.pipelines import steps

    rng = np.random.RandomState(3)
    vocab_words = ["tok%03d" % i for i in range(120)] + \
        ["aaa", "aab", "abb", "low", "lower", "newest"]
    texts = [" ".join(rng.choice(vocab_words, size=25)) for _ in range(80)]
    d = tmp_path / "bpecorp"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(80, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
    }), str(d / "documents.parquet"))

    driver = (steps.docs_bpe_merges(str(d), n_merges=8).to_pandas()
              .sort_values("rank").reset_index(drop=True))
    force_routes(monkeypatch, "bpe_vocab", "bpe_pairs", "terms")
    dist = (steps.docs_bpe_merges(str(d), n_merges=8).to_pandas()
            .sort_values("rank").reset_index(drop=True))
    pd.testing.assert_frame_equal(driver, dist, check_dtype=False)
    assert len(driver) == 8 and driver["pair_count"].gt(0).all()
