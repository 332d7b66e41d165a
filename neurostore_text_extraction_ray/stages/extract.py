"""The extraction stage (SURVEY T5/M1-M4): html/xml bytes -> extracted
text, spans, metadata, failure flags.

Run as plain Ray tasks by passing a callable instance:

    ds.map_batches(ExtractActor(payload_column="html", mode="auto"),
                   batch_format="pyarrow", zero_copy_batch=True,
                   batch_size=64)

The kernels compile their rules at module import, so a reused task
worker already holds all the state there is; an actor pool would only
add its start-up cost. Per-document work is parser-bound Python over
KB-MB payloads, so the batch loop is over documents — the
vectorization unit — while column assembly is Arrow. Per-row failures
set ``parse_failed`` and never poison the batch (reference tolerance:
ns_extract/pipelines/base.py:740-750 logs and continues).
"""

from __future__ import annotations

import pyarrow as pa

from ..functions import html_text, jats, pdf_text

SPAN_TYPE = pa.list_(
    pa.struct([("label", pa.string()), ("start", pa.int64()), ("end", pa.int64())])
)
METADATA_TYPE = pa.struct(
    [
        ("title", pa.string()),
        ("authors", pa.string()),
        ("journal", pa.string()),
        ("keywords", pa.string()),
        ("abstract", pa.string()),
        ("publication_year", pa.int32()),
        ("coordinate_space", pa.string()),
        ("license", pa.string()),
        ("text", pa.bool_()),
    ]
)

PARSER_VERSION = max(html_text.PARSER_VERSION, jats.PARSER_VERSION,
                     pdf_text.PARSER_VERSION)

_EMPTY_METADATA = {k: None for k in (
    "title", "authors", "journal", "keywords", "abstract",
    "publication_year", "coordinate_space", "license")} | {"text": False}


def _sniff_mode(payload: bytes) -> str:
    if payload.startswith(b"%PDF-"):
        return "pdf"
    head = payload[:512].lstrip()
    if head.startswith(b"<?xml") or b"<article" in head:
        return "jats"
    return "html"


def extract_one(payload: bytes, mode: str = "auto", fold_unicode: bool = False) -> dict:
    """Extract a single document. Returns extracted_text/spans/metadata/
    title/parse_failed/empty. Never raises. ``payload`` is the page
    blob (``html:binary`` in the pages table); a str payload (sources
    that decode early, e.g. ``read_warc``'s charset-sniffed html) is
    normalized to utf-8 bytes — identical downstream semantics."""
    try:
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        if not payload:
            return {
                "extracted_text": "", "spans": [], "metadata": dict(_EMPTY_METADATA),
                "parse_failed": False, "empty": True,
            }
        if mode == "auto":
            mode = _sniff_mode(payload)
        if mode == "pdf":
            blocks = pdf_text.pdf_extract_blocks(payload)
            pieces, spans, pos = [], [], 0
            for b in blocks:
                if pieces:
                    pos += 2  # joining blank line
                spans.append({"label": jats.section_label(b["text"].split("\n")[0]),
                              "start": pos, "end": pos + len(b["text"])})
                pieces.append(b["text"])
                pos += len(b["text"])
            text = "\n\n".join(pieces)
            metadata = dict(_EMPTY_METADATA)
            metadata["title"] = pdf_text.pdf_title(payload)
            metadata["text"] = bool(text.strip())
            return {
                "extracted_text": text, "spans": spans, "metadata": metadata,
                "parse_failed": False, "empty": not text.strip(),
            }
        raw = payload.decode("utf-8")
        if mode == "jats":
            text, spans = jats.jats_text_and_spans(raw)
            metadata = jats.jats_metadata(raw, text=text)
        else:
            text, spans = html_text.html_to_text_and_spans(raw, fold_unicode=fold_unicode)
            title = html_text.html_title(raw)
            if title:
                i = text.find(title)
                if i >= 0:
                    spans.insert(0, {"label": "title", "start": i, "end": i + len(title)})
            metadata = dict(_EMPTY_METADATA)
            metadata["title"] = title
            metadata["text"] = bool(text.strip())
        return {
            "extracted_text": text,
            "spans": spans,
            "metadata": metadata,
            "parse_failed": False,
            "empty": not text.strip(),
        }
    except Exception:
        return {
            "extracted_text": None, "spans": [], "metadata": dict(_EMPTY_METADATA),
            "parse_failed": True, "empty": False,
        }


def extract_batch(
    batch: pa.Table,
    payload_column: str = "html",
    mode: str = "auto",
    fold_unicode: bool = False,
    keep_columns: tuple = ("url", "warc_ts"),
) -> pa.Table:
    """Vectorized batch wrapper over ``extract_one``."""
    payloads = batch[payload_column].to_pylist()
    results = [extract_one(p, mode=mode, fold_unicode=fold_unicode) for p in payloads]
    cols: dict = {}
    for name in keep_columns:
        if name in batch.column_names:
            cols[name] = batch[name]
    cols["extracted_text"] = pa.array(
        [r["extracted_text"] for r in results], pa.string()
    )
    cols["spans"] = pa.array([r["spans"] for r in results], SPAN_TYPE)
    cols["metadata"] = pa.array([r["metadata"] for r in results], METADATA_TYPE)
    cols["parse_failed"] = pa.array([r["parse_failed"] for r in results], pa.bool_())
    cols["empty"] = pa.array([r["empty"] for r in results], pa.bool_())
    return pa.table(cols)


class ExtractActor:
    """The extraction stage as a callable: the options are fixed at
    construction and ``__call__`` handles one Arrow batch. Pass an
    instance to ``map_batches`` to run it as plain tasks. The name
    stays: ``perfbench/trace_hook.py`` wraps ``ExtractActor.__call__``."""

    def __init__(self, payload_column: str = "html", mode: str = "auto",
                 fold_unicode: bool = False, keep_columns: tuple = ("url", "warc_ts")):
        self.payload_column = payload_column
        self.mode = mode
        self.fold_unicode = fold_unicode
        self.keep_columns = keep_columns

    # Skew guard: a batch whose total payload exceeds this is processed
    # in row-slices so oversized blobs (multi-MB pages) never force the
    # whole batch's results to sit in memory at once.
    BYTE_BUDGET = 64 * 1024 * 1024

    def __call__(self, batch: pa.Table) -> pa.Table:
        payload_bytes = batch[self.payload_column].nbytes
        if payload_bytes <= self.BYTE_BUDGET or batch.num_rows <= 1:
            return extract_batch(
                batch,
                payload_column=self.payload_column,
                mode=self.mode,
                fold_unicode=self.fold_unicode,
                keep_columns=self.keep_columns,
            )
        n_slices = max(2, int(payload_bytes // self.BYTE_BUDGET) + 1)
        step = max(1, batch.num_rows // n_slices)
        outs = []
        for start in range(0, batch.num_rows, step):
            outs.append(
                extract_batch(
                    batch.slice(start, step),
                    payload_column=self.payload_column,
                    mode=self.mode,
                    fold_unicode=self.fold_unicode,
                    keep_columns=self.keep_columns,
                )
            )
        return pa.concat_tables(outs)
