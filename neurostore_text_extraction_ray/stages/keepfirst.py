"""Keep-first by hash: the one pipeline behind ``line_dedup``
(``stages/linededup.py``) and ``dup_spans`` (``stages/dupspans.py``).

Each document yields items (lines, k-word windows) that travel as
8-byte hashes, never as strings. The rule:

    winner(h) = min doc_id over the docs that hold h
    loser     = every item of h in any doc other than winner(h)

so the winner keeps all its own occurrences. The output is one row per
document, built by the caller's ``doc_row`` from the document's text
and its loser items; only the tokenizer (``items``) and ``doc_row``
differ between the operators.

Paths, chosen on the driver by the caller's gate in ``ex.ROUTES``:
- Per-batch ``(h, min doc_id)`` partials are counted BEFORE any driver
  collect. At or below the gate the driver reduces them to two sorted
  numpy arrays (hash -> winner), broadcast once via ``ray.put``
  (sorted arrays + searchsorted, never dicts), and a second pass over
  the corpus marks each batch's losers. That pass relies on the corpus
  re-executing to the same text: an item hash absent from the winner
  map raises ``ValueError`` instead of reading a neighbour's winner.
- Beyond: a pure exchange with NO corpus-sized driver state. Item rows
  co-partition by hash (a part's min doc_id per hash IS the global
  winner, the hash fixes the part); the loser rows (sparse: only
  duplicated items travel) and the corpus text co-partition by doc_id,
  and the same per-document builder runs per part.

Hash collisions: a 64-bit collision can only add spurious losers (two
distinct items sharing a hash collapse to one winner).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import exchange as ex

_DOC_SCHEMA = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])


def _min_per_hash(ids: np.ndarray, hs: np.ndarray):
    """(sorted distinct hashes, min doc_id per hash)."""
    hu, inv = np.unique(hs, return_inverse=True)
    win = np.full(len(hu), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(win, inv, ids)
    return hu, win


def _losers(items: pa.Table, hu: np.ndarray, win: np.ndarray) -> pa.Table:
    """The rows of ``items`` whose hash's winner is another document,
    as ``(doc_id, *attrs)``. Every hash must be in ``hu``."""
    hs = items["h"].to_numpy(zero_copy_only=False)
    idx = np.minimum(np.searchsorted(hu, hs), max(len(hu) - 1, 0))
    if len(hs) and (not len(hu) or not (hu[idx] == hs).all()):
        raise ValueError(
            "keep-first mark pass: an item hash is absent from the pass-1 "
            "winner map; the corpus gave different text between passes")
    lose = win[idx] != items["doc_id"].to_numpy(zero_copy_only=False)
    return items.filter(pa.array(lose)).drop_columns(["h"])


def _rows(docs: pa.Table, losers: pa.Table, doc_row,
          out_schema: pa.Schema) -> pa.Table:
    """One ``out_schema`` row per document of ``docs`` (doc_id, text):
    ``doc_row(text, attrs)``, where ``attrs`` holds the document's
    loser attrs as numpy arrays."""
    ids = docs["doc_id"].to_numpy(zero_copy_only=False)
    lid = losers["doc_id"].to_numpy(zero_copy_only=False)
    order = np.argsort(lid, kind="stable")
    lid = lid[order]
    attrs = [losers[c].to_numpy(zero_copy_only=False)[order]
             for c in losers.column_names[1:]]
    lo = np.searchsorted(lid, ids, side="left")
    hi = np.searchsorted(lid, ids, side="right")
    rows = [doc_row(t, [a[l:h] for a in attrs])
            for t, l, h in zip(docs["text"].to_pylist(), lo, hi)]
    fields = list(out_schema)[1:]
    cols = list(zip(*rows)) if rows else [[] for _ in fields]
    return pa.Table.from_arrays(
        [pa.array(ids, pa.int64())]
        + [pa.array(c, f.type) for c, f in zip(cols, fields)],
        schema=out_schema)


def keep_first(corpus, items, item_schema: pa.Schema, doc_row,
               out_schema: pa.Schema, gate: str, id_col: str = "doc_id",
               text_col: str = "text"):
    """One ``out_schema`` row per corpus document under the keep-first
    rule above. ``items(batch)`` maps a ``(doc_id, text)`` batch to its
    items as arrays ``(doc_id, h, *attrs)`` in ``item_schema``;
    ``doc_row(text, losers)`` returns a document's output columns after
    ``doc_id``, ``losers`` holding its loser items' attrs as numpy
    arrays. ``gate`` names the ``ROUTES`` key that counts the partial
    rows."""
    import ray

    from .broadcast import get_broadcast

    def doc_table(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": pc.cast(batch[id_col], pa.int64()),
                         "text": pc.cast(batch[text_col], pa.string())})

    def item_table(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pa.array(a, f.type) for a, f in zip(items(batch), item_schema)],
            schema=item_schema)

    def partial(batch: pa.Table) -> pa.Table:
        hu, win = _min_per_hash(*items(batch)[:2])
        return pa.table({"h": pa.array(hu, pa.uint64()),
                         "mdoc": pa.array(win, pa.int64())})

    docs = corpus.map_batches(doc_table, batch_format="pyarrow")
    partials = docs.map_batches(partial, batch_format="pyarrow").materialize()
    if ex.fits(gate, partials.count()):
        pdf = partials.to_pandas()
        if len(pdf):
            hu, win = _min_per_hash(pdf["mdoc"].to_numpy(),
                                    pdf["h"].to_numpy())
        else:  # a zero-row Dataset can drop its schema in to_pandas()
            hu, win = np.empty(0, np.uint64), np.empty(0, np.int64)
        ref = ray.put((hu, win))

        def mark(batch: pa.Table) -> pa.Table:
            losers = _losers(item_table(batch), *get_broadcast(ref))
            return _rows(batch, losers, doc_row, out_schema)

        return docs.map_batches(mark, batch_format="pyarrow")

    num_parts = ex.NUM_PARTS
    by_hash = lambda b: ex.int_part(  # noqa: E731
        [b["h"].to_numpy(zero_copy_only=False).view(np.int64)], num_parts)
    by_id = lambda b: ex.int_part(  # noqa: E731
        [b["doc_id"].to_numpy(zero_copy_only=False)], num_parts)
    loser_schema = pa.schema([f for f in item_schema if f.name != "h"])

    def losers_of_part(t: pa.Table) -> pa.Table:
        return _losers(t, *_min_per_hash(t["doc_id"].to_numpy(),
                                         t["h"].to_numpy()))

    with (ex.stage("nse_kf_items_") as items_stage,
          ex.stage("nse_kf_losers_") as loser_stage,
          ex.stage("nse_kf_docs_") as doc_stage):
        ex.write_exchange(docs.map_batches(item_table, batch_format="pyarrow"),
                          items_stage, by_hash)
        ex.write_exchange(ex.map_parts(items_stage,
                                       losers_of_part, loser_schema),
                          loser_stage, by_id)
        ex.write_exchange(docs, doc_stage, by_id)
        return ex.map_parts(
            [doc_stage, loser_stage],
            lambda d, losers: _rows(d, losers, doc_row, out_schema),
            out_schema, in_schemas=[_DOC_SCHEMA, loser_schema])
