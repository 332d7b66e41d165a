"""Edge shapes for ``pack_sequences`` (GPT-style concat-and-chunk
packing): empty corpus, None/empty texts (EOS-only docs), one giant
doc spanning many sequences, and the cross-part boundary stitch —
fragments of one sequence arriving from different range partitions
must reassemble exactly."""

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from conftest import force_routes
from neurostore_text_extraction_ray.pipelines.steps import pack_sequences
from neurostore_text_extraction_ray.stages import exchange as ex


def _reference(df, seq_len, eos="<eos>"):
    """Driver-side brute force: one concatenated token stream."""
    toks = []
    for t in df.sort_values("doc_id")["text"]:
        toks.extend(re.findall(r"\S+", t or ""))
        toks.append(eos)
    rows = []
    for s in range(0, (len(toks) + seq_len - 1) // seq_len):
        chunk = toks[s * seq_len:(s + 1) * seq_len]
        rows.append((s, len(chunk), " ".join(chunk)))
    return pd.DataFrame(rows, columns=["seq_id", "n_tokens", "seq_text"])


def _run(df, seq_len, **kw):
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    out = pack_sequences(ds, "doc_id", "text", seq_len=seq_len, **kw)
    return (out.to_pandas().sort_values("seq_id")
               .reset_index(drop=True))


def test_empty_corpus(ray_session):
    # row count only: Ray drops column metadata on zero-row datasets
    # (same harness limitation as the other empty-input tests)
    df = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                       "text": pd.Series([], dtype="object")})
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    assert pack_sequences(ds, "doc_id", "text", seq_len=8).count() == 0


def test_null_and_empty_texts(ray_session):
    # None and "" docs contribute exactly one EOS token each
    df = pd.DataFrame({"doc_id": np.arange(6, dtype=np.int64),
                       "text": [None, "", "a b c", None, "", "d"]})
    got = _run(df, 4)
    ref = _reference(df, 4)
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)
    assert got["n_tokens"].sum() == 3 + 1 + 6  # tokens + one EOS per doc


def test_giant_doc_spans_many_sequences(ray_session):
    df = pd.DataFrame({
        "doc_id": np.array([10, 20, 30], dtype=np.int64),
        "text": ["x", " ".join(f"t{i}" for i in range(100)), "y z"],
    })
    got = _run(df, 8)
    ref = _reference(df, 8)
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)
    # every full sequence has exactly seq_len tokens; only tail short
    assert (got["n_tokens"].iloc[:-1] == 8).all()


@pytest.mark.parametrize("forced,seq_len", [
    pytest.param(False, 5, id="driver"),
    pytest.param(True, 5, id="exchange"),
    pytest.param(False, 50, id="driver-long"),
    pytest.param(True, 50, id="exchange-long"),
])
def test_cross_part_boundary_stitch(ray_session, monkeypatch, forced,
                                    seq_len):
    # 64 docs x 3 tokens (2 words + EOS) over num_parts=8 ranges of ~24
    # tokens. seq_len=5: every range partition boundary falls
    # mid-sequence, so the stitch must merge fragments produced by
    # different parts. seq_len=50: most sequences take fragments from
    # three parts, and a middle part's only sequence starts before it
    # and ends after it. On the driver (default gates) and through the
    # seq_id-hash exchange (``key_rows`` forced to 0)
    if forced:
        force_routes(monkeypatch, "key_rows")
    monkeypatch.setattr(ex, "NUM_PARTS", 8)
    df = pd.DataFrame({
        "doc_id": np.arange(64, dtype=np.int64),
        "text": [f"w{i}a w{i}b" for i in range(64)],
    })
    got = _run(df, seq_len)
    ref = _reference(df, seq_len)
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)
    # token conservation: 64 * 3 tokens, contiguous seq_ids
    assert got["n_tokens"].sum() == 192
    assert got["seq_id"].tolist() == list(range((192 + seq_len - 1)
                                                // seq_len))

