"""Cross-document duplicate-SPAN detection: mark, per document, the
character ranges covered by k-word windows that also occur in another
document, under the keep-first rule (the min-doc_id occurrence is the
"original"; every other document's occurrence is a duplicate span) —
the substring-level companion to the doc-level near-dup family
(``stages/dedup.py``) and the line-level ``stages/linededup.py``,
after the public construction of Lee et al. 2022, "Deduplicating
Training Data Makes Language Models Better" (duplicate substrings are
marked independently of document identity).

Semantics (windows share the house ``\\w+``-lowercase tokenization of
``textstats.shingles``; a window is k CONSECUTIVE words, its span runs
from the first word's start to the last word's end, so inter-word
whitespace/punctuation variation does not defeat the match but the
reported span is exact in the original text):

    windows(doc) = [(start_i, end_i, h(words[i:i+k])) for i]
                   (docs with < k words have NO windows)
    winner(h)    = min doc_id over docs containing h
    dup (doc,i)  = winner(h_i) != doc_id      (within-doc repeats in
                                              the winner stay clean)

Output is one row per input document:

    (doc_id, n_windows, n_dup_windows, dup_nchars, dup_spans)

where ``dup_spans`` is the canonical-JSON merged union of the dup
windows' [start, end) char ranges and ``dup_nchars`` its total size.

Windows travel as 8-byte hashes through
``stages/keepfirst.keep_first``, which picks the broadcast or the
exchange path on ``ROUTES['dupspans']``. A window hashes as blake2b per
batch-DISTINCT word (``hashing._token_hashes`` after a factorize),
combined per window by a vectorized order-sensitive uint64 polynomial
(``_window_hashes``): measured ~15x the naive join-then-blake2b-per-
window loop. The exchange carries one 32-byte row per word (stride-1
windows), the same volume class as the corpus text itself: the honest
cost of exact substring-level dedup; doc-level sketches
(minhash/simhash) are the cheap approximation when spans aren't
needed.

Hash collisions: a 64-bit collision can only mark a spurious span
(conservative for training-data cleaning); the pinned-golden oracle
certifies the kernel's exact output on the test corpora.
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions import hashing as H
from ..functions.textstats import WORD_RE
from .keepfirst import keep_first


OUT_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("n_windows", pa.int64()),
    ("n_dup_windows", pa.int64()),
    ("dup_nchars", pa.int64()),
    ("dup_spans", pa.string()),
])
_ITEM_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("h", pa.uint64()), ("start", pa.int64()),
    ("end", pa.int64()),
])


# window-hash combiner: h_win[i] = sum_j h_word[i+j] * A^j (mod 2^64),
# an order-sensitive polynomial over per-WORD blake2b hashes. blake2b
# runs once per DISTINCT word per batch (pd.factorize collapses the
# word stream), the combine is k vectorized uint64 multiply-adds —
# measured ~15x the naive join-then-blake2b-per-window loop. A is odd,
# so distinct word sequences mix through the full 64-bit space.
_POLY_A = 0x9E3779B97F4A7C15


def _window_hashes(word_hashes: np.ndarray, k: int) -> np.ndarray:
    """Polynomial hash of every k-run of a word-hash stream (length
    n-k+1; includes runs that straddle document boundaries — callers
    mask those out with the window-validity mask)."""
    n = len(word_hashes) - k + 1
    if n <= 0:
        return np.empty(0, np.uint64)
    acc = np.zeros(n, dtype=np.uint64)
    mult = 1
    with np.errstate(over="ignore"):
        for j in range(k):
            acc += word_hashes[j:j + n] * np.uint64(mult)
            mult = (mult * _POLY_A) & 0xFFFFFFFFFFFFFFFF
    return acc


def _doc_windows(text: str | None, k: int):
    """(hashes, starts, ends) of one document's k-word windows —
    kernel-level single-doc entry (tests); batches go through
    ``_windows`` which hashes each distinct word once."""
    _, h, s, e = _windows(
        pa.table({"doc_id": pa.array([0], pa.int64()),
                  "text": pa.array([text], pa.string())}), k)
    return h, s, e


def _windows(batch: pa.Table, k: int):
    """(doc_id, h, start, end) of every k-word window of a (doc_id,
    text) batch. One flat word stream for the whole batch: tokenize
    with offsets (C regex), factorize words (C), blake2b only the
    batch-distinct words, then one vectorized polynomial combine;
    windows straddling a document boundary are masked out. Words are
    lowercased after the factorize, once per distinct spelling."""
    words: list[str] = []
    starts: list[int] = []
    counts: list[int] = []
    for t in batch["text"].to_pylist():
        ms = list(WORD_RE.finditer(t or ""))
        words += [m.group() for m in ms]
        starts += [m.start() for m in ms]
        counts.append(len(ms))
    if not words or len(words) < k:
        e = np.empty(0, np.int64)
        return e, np.empty(0, np.uint64), e, e
    codes, uniques = pd.factorize(np.asarray(words, dtype=object))
    acc = _window_hashes(
        H._token_hashes([u.lower() for u in uniques])[codes], k)
    row_arr = np.repeat(np.arange(len(counts)), counts)
    valid = row_arr[:len(acc)] == row_arr[k - 1:]
    s_arr = np.asarray(starts, dtype=np.int64)
    e_arr = s_arr + np.fromiter(map(len, words), np.int64, len(words))
    return (batch["doc_id"].to_numpy()[row_arr[:len(acc)][valid]],
            acc[valid], s_arr[:len(acc)][valid], e_arr[k - 1:][valid])


def _merged_spans(starts: np.ndarray, ends: np.ndarray):
    """Union of [start, end) ranges as (merged list, covered chars)."""
    out: list[list[int]] = []
    for s, e in sorted(zip(starts.tolist(), ends.tolist())):
        if out and s <= out[-1][1]:
            out[-1][1] = max(out[-1][1], e)
        else:
            out.append([s, e])
    return out, sum(e - s for s, e in out)


def dup_spans(
    corpus,
    k: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Returns a Dataset with one row per corpus document:
    ``(doc_id, n_windows, n_dup_windows, dup_nchars, dup_spans)``
    under the keep-first duplicate-window rule above."""

    def doc_row(text: str | None, losers):
        starts, ends = losers
        spans, nch = _merged_spans(starts, ends)
        n_windows = max(0, len(WORD_RE.findall(text or "")) - k + 1)
        return (n_windows, len(starts), nch,
                json.dumps(spans, separators=(",", ":")))

    return keep_first(corpus, lambda b: _windows(b, k), _ITEM_SCHEMA,
                      doc_row, OUT_SCHEMA, "dupspans", id_col, text_col)
