"""Corpus-level line deduplication: remove every line that also occurs
in an earlier document, keeping the first-occurring copy — the standard
web-text cleaning operator for repeated boilerplate (cookie banners,
nav bars, copyright footers), as popularized by the C4 three-sentence
dedup and the RefinedWeb/Gopher line-level filters (public
construction; exact-match granularity here is one ``\\n`` line).

Semantics (exactly SQL-expressible, oracled as ANSI SQL):

    lines(doc)   = text.split("\\n")              (every segment,
                                                  including empty ones)
    winner(line) = min(doc_id over docs containing the line)
    keep (doc,i) = doc_id == winner(lines(doc)[i])

The winner document keeps ALL its occurrences of a line (within-doc
repeats are a different operator's business — see
``docs_repetition_stats``); every other document drops the line.
Output is one row per input document:

    (doc_id, n_lines, n_removed, text_dedup)

where ``text_dedup`` re-joins the kept lines with ``\\n`` (a document
whose every line is removed yields the empty string).

Scale design (mirrors ``stages/decontam.py``):
- Lines travel as 8-byte blake2b hashes (``hashing._token_hashes``),
  never as strings.
- Pass 1 computes per-batch ``(h, min doc_id)`` partials. The budget
  gate counts the partial rows BEFORE any driver collect; within
  ``ROUTES['linededup']`` the driver combines them into two
  sorted numpy arrays (hash -> winner) broadcast once via ``ray.put``
  (CLAUDE.md rule: sorted arrays + searchsorted, never dicts).
- Beyond the budget the operator routes through a pure exchange with
  NO corpus-sized driver state: line rows ``(doc_id, pos, h)``
  co-partition by h (the per-part min doc_id IS the global winner —
  the hash fixes the part), removed ``(doc_id, pos)`` rows (sparse by
  nature: only duplicated lines travel) co-partition by doc_id against
  the corpus text rows for the rebuild. Equivalence of the two paths
  is asserted by tests with the route forced.

Hash collisions: a 64-bit collision can only REMOVE a spurious line
(two distinct lines sharing a hash collapse to one winner). The SQL
oracle compares raw line strings, so gate parity additionally
certifies collision absence on the test corpora.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import hashing as H
from . import exchange as ex


OUT_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("n_lines", pa.int64()),
    ("n_removed", pa.int64()),
    ("text_dedup", pa.string()),
])
_LINE_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("pos", pa.int64()), ("h", pa.uint64()),
])
_REMOVED_SCHEMA = pa.schema([("doc_id", pa.int64()), ("pos", pa.int64())])
_TEXT_SCHEMA = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])


def _batch_lines(batch: pa.Table, id_col: str, text_col: str):
    """(ids, pos, hashes, per-row line lists) of one batch — the shared
    tokenization of both passes. Lines hash as their exact bytes
    (trailing/leading whitespace significant, empty lines included)."""
    ids_np = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    all_lines: list[list[str]] = []
    ids, pos, hs = [], [], []
    for did, t in zip(ids_np, batch[text_col].to_pylist()):
        lines = (t or "").split("\n")
        all_lines.append(lines)
        ids.append(np.full(len(lines), did, dtype=np.int64))
        pos.append(np.arange(len(lines), dtype=np.int64))
        hs.append(H._token_hashes(lines))
    cat = lambda xs, dt: (  # noqa: E731
        np.concatenate(xs) if xs else np.empty(0, dtype=dt))
    return (cat(ids, np.int64), cat(pos, np.int64),
            cat(hs, np.uint64), all_lines)


def line_dedup(
    corpus,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_parts: int = 32,
):
    """Returns a Dataset with one row per corpus document:
    ``(doc_id, n_lines, n_removed, text_dedup)`` under the keep-first
    (min doc_id wins) line-dedup rule above."""

    def partial(batch: pa.Table) -> pa.Table:
        ids, _, hs, _ = _batch_lines(batch, id_col, text_col)
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
    if ex.fits("linededup", partials.count()):
        return _line_dedup_broadcast(corpus, partials, id_col, text_col)
    return _line_dedup_exchanged(corpus, id_col, text_col, num_parts)


def _rebuild(lines: list[str], keep: np.ndarray) -> tuple[int, int, str]:
    kept = [ln for ln, k in zip(lines, keep) if k]
    return len(lines), len(lines) - len(kept), "\n".join(kept)


def _line_dedup_broadcast(corpus, partials, id_col, text_col):
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

    def dedup(batch: pa.Table) -> pa.Table:
        from .broadcast import get_broadcast

        bhu, bwin = get_broadcast(ref)
        ids, _, hs, all_lines = _batch_lines(batch, id_col, text_col)
        # every line hash is present in the pass-1 map by construction
        winners = bwin[np.searchsorted(bhu, hs)] if len(hs) else hs
        keep = winners == ids
        out_ids, nl, nr, txt = [], [], [], []
        off = 0
        for did, lines in zip(
                batch[id_col].to_numpy(zero_copy_only=False), all_lines):
            a, b, t = _rebuild(lines, keep[off:off + len(lines)])
            off += len(lines)
            out_ids.append(int(did))
            nl.append(a)
            nr.append(b)
            txt.append(t)
        return pa.table({
            "doc_id": pa.array(out_ids, pa.int64()),
            "n_lines": pa.array(nl, pa.int64()),
            "n_removed": pa.array(nr, pa.int64()),
            "text_dedup": pa.array(txt, pa.string()),
        })

    return corpus.map_batches(dedup, batch_format="pyarrow")


def _line_dedup_exchanged(corpus, id_col, text_col, num_parts):
    """Pure-exchange path: line rows by hash -> per-part winners ->
    sparse removed rows by doc_id -> co-partitioned rebuild against
    the corpus text rows. The text-sized exchange is one corpus pass
    (same volume class as the sessionize exchange)."""
    by_hash = lambda b: ex.int_part(  # noqa: E731
        [b["h"].to_numpy(zero_copy_only=False).view(np.int64)], num_parts)
    by_id = lambda b: ex.int_part(  # noqa: E731
        [b["doc_id"].to_numpy(zero_copy_only=False)], num_parts)

    def line_rows(batch: pa.Table) -> pa.Table:
        ids, pos, hs, _ = _batch_lines(batch, id_col, text_col)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "pos": pa.array(pos, pa.int64()),
                         "h": pa.array(hs, pa.uint64())})

    def text_rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pa.compute.cast(batch[id_col], pa.int64()),
            "text": pa.compute.cast(batch[text_col], pa.string()),
        })

    with (ex.stage("nse_ld_lines_") as lines_stage,
          ex.stage("nse_ld_removed_") as removed_stage,
          ex.stage("nse_ld_text_") as text_stage):
        ex.write_exchange(
            corpus.map_batches(line_rows, batch_format="pyarrow"),
            lines_stage, by_hash)

        def removed_of_part(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            pos = t["pos"].to_numpy(zero_copy_only=False)
            hs = t["h"].to_numpy(zero_copy_only=False)
            if not len(ids):
                return _REMOVED_SCHEMA.empty_table()
            hu, inv = np.unique(hs, return_inverse=True)
            win = np.full(len(hu), np.iinfo(np.int64).max, dtype=np.int64)
            np.minimum.at(win, inv, ids)
            lose = win[inv] != ids
            if not lose.any():
                return _REMOVED_SCHEMA.empty_table()
            return pa.table({
                "doc_id": pa.array(ids[lose], pa.int64()),
                "pos": pa.array(pos[lose], pa.int64()),
            })

        removed_ds = ex.map_parts(lines_stage, num_parts,
                                  removed_of_part, _REMOVED_SCHEMA)
        ex.write_exchange(removed_ds, removed_stage, by_id)
        ex.write_exchange(
            corpus.map_batches(text_rows, batch_format="pyarrow"),
            text_stage, by_id)

        def rebuild_part(text_t: pa.Table, rem_t: pa.Table) -> pa.Table:
            ids = text_t["doc_id"].to_numpy(zero_copy_only=False)
            rid = rem_t["doc_id"].to_numpy(zero_copy_only=False)
            rpos = rem_t["pos"].to_numpy(zero_copy_only=False)
            order = np.argsort(rid, kind="stable")
            rid, rpos = rid[order], rpos[order]
            out_ids, nl, nr, txt = [], [], [], []
            for did, t in zip(ids, text_t["text"].to_pylist()):
                lines = (t or "").split("\n")
                keep = np.ones(len(lines), dtype=bool)
                lo = np.searchsorted(rid, did, side="left")
                hi = np.searchsorted(rid, did, side="right")
                keep[rpos[lo:hi]] = False
                a, b, s = _rebuild(lines, keep)
                out_ids.append(int(did))
                nl.append(a)
                nr.append(b)
                txt.append(s)
            return pa.table({
                "doc_id": pa.array(out_ids, pa.int64()),
                "n_lines": pa.array(nl, pa.int64()),
                "n_removed": pa.array(nr, pa.int64()),
                "text_dedup": pa.array(txt, pa.string()),
            })

        return ex.map_parts([text_stage, removed_stage], num_parts,
                            rebuild_part, OUT_SCHEMA,
                            in_schemas=[_TEXT_SCHEMA, _REMOVED_SCHEMA])
