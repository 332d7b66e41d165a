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

Scale design (mirrors ``stages/linededup.py``):
- Windows travel as 8-byte hashes, never as strings: blake2b per
  batch-DISTINCT word (``hashing._token_hashes`` after a factorize),
  combined per window by a vectorized order-sensitive uint64
  polynomial (``_window_hashes``) — measured ~15x the naive
  join-then-blake2b-per-window loop.
- Pass 1 computes per-batch ``(h, min doc_id)`` partials; the budget
  gate counts the partial rows BEFORE any driver collect. Within
  ``ROUTES['dupspans']`` the driver combines them into two
  sorted numpy arrays broadcast once via ``ray.put`` (CLAUDE.md rule:
  sorted arrays + searchsorted, never dicts).
- Beyond the budget: pure exchange with NO corpus-sized driver state —
  window rows ``(doc_id, start, end, h)`` co-partition by h (per-part
  min doc_id IS the global winner), loser rows ``(doc_id, start,
  end)`` (sparse: only duplicated windows travel) co-partition by
  doc_id against the corpus text rows for the rebuild. Equivalence of
  the two paths is asserted by tests with the route forced.
- The window exchange carries one 32-byte row per word (stride-1
  windows), i.e. the same volume class as the corpus text itself —
  the honest cost of exact substring-level dedup; doc-level sketches
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
from . import exchange as ex


OUT_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("n_windows", pa.int64()),
    ("n_dup_windows", pa.int64()),
    ("dup_nchars", pa.int64()),
    ("dup_spans", pa.string()),
])
_WIN_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("start", pa.int64()), ("end", pa.int64()),
    ("h", pa.uint64()),
])
_LOSER_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("start", pa.int64()), ("end", pa.int64()),
])
_TEXT_SCHEMA = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])


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


def _count_windows(text: str | None, k: int) -> int:
    return max(0, len(WORD_RE.findall(text or "")) - k + 1)


def _doc_windows(text: str | None, k: int):
    """(hashes, starts, ends) of one document's k-word windows —
    kernel-level single-doc entry (tests); batches go through
    ``_batch_windows`` which hashes each distinct word once."""
    _, s, e, h, _ = _batch_windows(
        pa.table({"doc_id": pa.array([0], pa.int64()),
                  "text": pa.array([text], pa.string())}),
        "doc_id", "text", k)
    return h, s, e


def _batch_windows(batch: pa.Table, id_col: str, text_col: str, k: int):
    """Concatenated (ids, starts, ends, hashes, per-doc counts) of one
    batch — the shared tokenization of both passes. One flat word
    stream for the whole batch: tokenize with offsets (C regex),
    factorize words (C), blake2b only the batch-distinct words, then
    one vectorized polynomial combine; windows straddling a document
    boundary are masked out."""
    ids_np = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    words: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    row_of: list[int] = []
    counts = np.empty(len(ids_np), dtype=np.int64)
    for row, t in enumerate(batch[text_col].to_pylist()):
        n0 = len(words)
        for m in WORD_RE.finditer(t or ""):
            words.append(m.group().lower())
            starts.append(m.start())
            ends.append(m.end())
        nw = len(words) - n0
        counts[row] = max(0, nw - k + 1)
        row_of.extend([row] * nw)
    if not words or len(words) < k:
        e = np.empty(0, np.int64)
        return e, e, e, np.empty(0, np.uint64), counts
    codes, uniques = pd.factorize(np.asarray(words, dtype=object))
    hw = H._token_hashes(list(uniques))[codes]
    acc = _window_hashes(hw, k)
    row_arr = np.asarray(row_of, dtype=np.int64)
    valid = row_arr[:len(acc)] == row_arr[k - 1:]
    s_arr = np.asarray(starts, dtype=np.int64)[:len(acc)][valid]
    e_arr = np.asarray(ends, dtype=np.int64)[k - 1:][valid]
    return (ids_np[row_arr[:len(acc)][valid]], s_arr, e_arr,
            acc[valid], counts)


def _merged_spans(starts: np.ndarray, ends: np.ndarray):
    """Union of [start, end) ranges as (merged list, covered chars)."""
    if not len(starts):
        return [], 0
    o = np.argsort(starts, kind="stable")
    out: list[list[int]] = []
    for s, e in zip(starts[o], ends[o]):
        if out and s <= out[-1][1]:
            out[-1][1] = max(out[-1][1], int(e))
        else:
            out.append([int(s), int(e)])
    return out, sum(e - s for s, e in out)


def _doc_row(spans_starts, spans_ends, n_windows: int):
    spans, nch = _merged_spans(spans_starts, spans_ends)
    return (int(n_windows), int(len(spans_starts)), int(nch),
            json.dumps(spans, separators=(",", ":")))


def dup_spans(
    corpus,
    k: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_parts: int = 32,
):
    """Returns a Dataset with one row per corpus document:
    ``(doc_id, n_windows, n_dup_windows, dup_nchars, dup_spans)``
    under the keep-first duplicate-window rule above."""

    def partial(batch: pa.Table) -> pa.Table:
        ids, _, _, hs, _ = _batch_windows(batch, id_col, text_col, k)
        if not len(hs):
            return pa.schema(
                [("h", pa.uint64()), ("mdoc", pa.int64())]).empty_table()
        hu, inv = np.unique(hs, return_inverse=True)
        mdoc = np.full(len(hu), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(mdoc, inv, ids)
        return pa.table({"h": pa.array(hu, pa.uint64()),
                         "mdoc": pa.array(mdoc, pa.int64())})

    partials = corpus.map_batches(
        partial, batch_format="pyarrow").materialize()
    if ex.fits("dupspans", partials.count()):
        return _dup_spans_broadcast(corpus, partials, k, id_col, text_col)
    return _dup_spans_exchanged(corpus, k, id_col, text_col, num_parts)


def _dup_spans_broadcast(corpus, partials, k, id_col, text_col):
    import ray

    pdf = partials.to_pandas()
    if len(pdf) and "h" in pdf.columns:
        hs = pdf["h"].to_numpy()
        md = pdf["mdoc"].to_numpy()
        order = np.argsort(hs, kind="stable")
        hs, md = hs[order], md[order]
        hu, start = np.unique(hs, return_index=True)
        win = np.minimum.reduceat(md, start) if len(hs) else md
    else:  # a zero-row Dataset can drop its schema in to_pandas()
        hu = np.empty(0, dtype=np.uint64)
        win = np.empty(0, dtype=np.int64)
    ref = ray.put((hu, win))

    def mark(batch: pa.Table) -> pa.Table:
        from .broadcast import get_broadcast

        bhu, bwin = get_broadcast(ref)
        ids, starts, ends, hs, counts = _batch_windows(
            batch, id_col, text_col, k)
        # every window hash is present in the pass-1 map by
        # construction — but that relies on the corpus Dataset
        # re-executing identically between passes, so verify exact
        # membership and fail loudly instead of silently marking with
        # a neighbor's winner (ADVICE r04 #3)
        if len(hs):
            idx = np.minimum(np.searchsorted(bhu, hs),
                             max(len(bhu) - 1, 0))
            if len(bhu) == 0 or not (bhu[idx] == hs).all():
                raise ValueError(
                    "dup-spans mark pass: window hash absent from the "
                    "pass-1 winner map — upstream batch fn produced "
                    "different text between passes")
            winners = bwin[idx]
        else:
            winners = np.empty(0, np.int64)
        dup = winners != ids
        out = {c: [] for c in ("doc_id", "n_windows", "n_dup_windows",
                               "dup_nchars", "dup_spans")}
        off = 0
        for did, n in zip(
                batch[id_col].to_numpy(zero_copy_only=False), counts):
            d = dup[off:off + n]
            nw, nd, nch, spans = _doc_row(
                starts[off:off + n][d], ends[off:off + n][d], n)
            off += n
            out["doc_id"].append(int(did))
            out["n_windows"].append(nw)
            out["n_dup_windows"].append(nd)
            out["dup_nchars"].append(nch)
            out["dup_spans"].append(spans)
        return pa.table({
            "doc_id": pa.array(out["doc_id"], pa.int64()),
            "n_windows": pa.array(out["n_windows"], pa.int64()),
            "n_dup_windows": pa.array(out["n_dup_windows"], pa.int64()),
            "dup_nchars": pa.array(out["dup_nchars"], pa.int64()),
            "dup_spans": pa.array(out["dup_spans"], pa.string()),
        })

    return corpus.map_batches(mark, batch_format="pyarrow")


def _dup_spans_exchanged(corpus, k, id_col, text_col, num_parts):
    """Pure-exchange path: window rows by hash -> per-part losers ->
    sparse loser rows by doc_id -> co-partitioned rebuild against the
    corpus text rows."""
    by_hash = lambda b: ex.int_part(  # noqa: E731
        [b["h"].to_numpy(zero_copy_only=False).view(np.int64)], num_parts)
    by_id = lambda b: ex.int_part(  # noqa: E731
        [b["doc_id"].to_numpy(zero_copy_only=False)], num_parts)

    def win_rows(batch: pa.Table) -> pa.Table:
        ids, starts, ends, hs, _ = _batch_windows(
            batch, id_col, text_col, k)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "start": pa.array(starts, pa.int64()),
                         "end": pa.array(ends, pa.int64()),
                         "h": pa.array(hs, pa.uint64())})

    def text_rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pa.compute.cast(batch[id_col], pa.int64()),
            "text": pa.compute.cast(batch[text_col], pa.string()),
        })

    with (ex.stage("nse_ds_windows_") as win_stage,
          ex.stage("nse_ds_losers_") as loser_stage,
          ex.stage("nse_ds_text_") as text_stage):
        ex.write_exchange(
            corpus.map_batches(win_rows, batch_format="pyarrow"),
            win_stage, by_hash)

        def losers_of_part(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            if not len(ids):
                return _LOSER_SCHEMA.empty_table()
            hs = t["h"].to_numpy(zero_copy_only=False)
            hu, inv = np.unique(hs, return_inverse=True)
            win = np.full(len(hu), np.iinfo(np.int64).max, dtype=np.int64)
            np.minimum.at(win, inv, ids)
            lose = win[inv] != ids
            if not lose.any():
                return _LOSER_SCHEMA.empty_table()
            return pa.table({
                "doc_id": pa.array(ids[lose], pa.int64()),
                "start": t["start"].filter(pa.array(lose)),
                "end": t["end"].filter(pa.array(lose)),
            })

        losers_ds = ex.map_parts(win_stage, num_parts,
                                 losers_of_part, _LOSER_SCHEMA)
        ex.write_exchange(losers_ds, loser_stage, by_id)
        ex.write_exchange(
            corpus.map_batches(text_rows, batch_format="pyarrow"),
            text_stage, by_id)

        def rebuild_part(text_t: pa.Table, los_t: pa.Table) -> pa.Table:
            ids = text_t["doc_id"].to_numpy(zero_copy_only=False)
            lid = los_t["doc_id"].to_numpy(zero_copy_only=False)
            ls = los_t["start"].to_numpy(zero_copy_only=False)
            le = los_t["end"].to_numpy(zero_copy_only=False)
            order = np.argsort(lid, kind="stable")
            lid, ls, le = lid[order], ls[order], le[order]
            out = {c: [] for c in ("doc_id", "n_windows", "n_dup_windows",
                                   "dup_nchars", "dup_spans")}
            for did, t in zip(ids, text_t["text"].to_pylist()):
                lo = np.searchsorted(lid, did, side="left")
                hi = np.searchsorted(lid, did, side="right")
                nw, nd, nch, spans = _doc_row(
                    ls[lo:hi], le[lo:hi], _count_windows(t, k))
                out["doc_id"].append(int(did))
                out["n_windows"].append(nw)
                out["n_dup_windows"].append(nd)
                out["dup_nchars"].append(nch)
                out["dup_spans"].append(spans)
            return pa.table({
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "n_windows": pa.array(out["n_windows"], pa.int64()),
                "n_dup_windows": pa.array(out["n_dup_windows"], pa.int64()),
                "dup_nchars": pa.array(out["dup_nchars"], pa.int64()),
                "dup_spans": pa.array(out["dup_spans"], pa.string()),
            })

        return ex.map_parts([text_stage, loser_stage], num_parts,
                            rebuild_part, OUT_SCHEMA,
                            in_schemas=[_TEXT_SCHEMA, _LOSER_SCHEMA])
