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

Lines travel as 8-byte blake2b hashes (``hashing._token_hashes``)
through ``stages/keepfirst.keep_first``, which picks the broadcast or
the exchange path on ``ROUTES['linededup']``.

Hash collisions: a 64-bit collision can only REMOVE a spurious line
(two distinct lines sharing a hash collapse to one winner). The SQL
oracle compares raw line strings, so gate parity additionally
certifies collision absence on the test corpora.
"""

from __future__ import annotations

import itertools

import numpy as np
import pyarrow as pa

from ..functions import hashing as H
from .keepfirst import keep_first


OUT_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("n_lines", pa.int64()),
    ("n_removed", pa.int64()),
    ("text_dedup", pa.string()),
])
_ITEM_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("h", pa.uint64()), ("pos", pa.int64()),
])


def _lines(batch: pa.Table):
    """(doc_id, h, pos) of every line of a (doc_id, text) batch. Lines
    hash as their exact bytes (trailing/leading whitespace significant,
    empty lines included)."""
    per_doc = [(t or "").split("\n") for t in batch["text"].to_pylist()]
    counts = np.fromiter(map(len, per_doc), np.int64, len(per_doc))
    lines = list(itertools.chain.from_iterable(per_doc))
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return (np.repeat(batch["doc_id"].to_numpy(), counts),
            H._token_hashes(lines), np.arange(len(lines)) - starts)


def _doc_row(text: str | None, losers) -> tuple[int, int, str]:
    """(n_lines, n_removed, text_dedup) of one document given the
    positions of its removed lines."""
    (pos,) = losers
    text = text or ""
    if not len(pos):  # most documents lose nothing
        return text.count("\n") + 1, 0, text
    lines = text.split("\n")
    drop = set(pos.tolist())
    kept = [ln for i, ln in enumerate(lines) if i not in drop]
    return len(lines), len(lines) - len(kept), "\n".join(kept)


def line_dedup(
    corpus,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Returns a Dataset with one row per corpus document:
    ``(doc_id, n_lines, n_removed, text_dedup)`` under the keep-first
    (min doc_id wins) line-dedup rule above."""
    return keep_first(corpus, _lines, _ITEM_SCHEMA, _doc_row, OUT_SCHEMA,
                      "linededup", id_col, text_col)
