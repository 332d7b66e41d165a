"""Deterministic synthesis of the Common-Crawl-style ``pages`` table
(BASELINE.json input_hint: url, warc_ts, html, text, lang) from the
driver's ``documents`` parquet — no external data, seedless/pure.

The HTML template is designed so the whole-DOM dump kernel's output is
an exact SQL-expressible function of the source row, which makes the
END-TO-END flagship pipeline (build -> dedup -> extract) checkable
against a DuckDB oracle:

    extracted_text = 'Doc {id}Doc {id} rev{r}\\n{text}\\n'
    where r = 1 for duplicated urls (latest fetch wins), else 0.

Deterministic edge rows exercise the failure counters:
- ``doc_id % 101 == 3``  -> html bytes are invalid UTF-8 (parse_failed)
- ``doc_id % 97 == 5``   -> empty html (empty extraction)
- ``doc_id % 10  == 0``  -> a second fetch of the same url one day later
  (rev 1), exercising groupby-url dedup-then-extract
- ``doc_id == 7``        -> ~2 MB comment padding (oversized-blob skew
  path; comments never reach text nodes)
"""

from __future__ import annotations

import datetime
import html as html_mod

import numpy as np
import pyarrow as pa

EPOCH = datetime.datetime(2024, 1, 1)

DUP_MOD = 10          # every 10th doc gets a duplicate fetch
BAD_UTF8_MOD = 101    # doc_id % 101 == 3 -> undecodable html
BAD_UTF8_REM = 3
EMPTY_MOD = 97        # doc_id % 97 == 5 -> empty html
EMPTY_REM = 5
HUGE_DOC_ID = 7       # one oversized blob
HUGE_PAD = 2 * 1024 * 1024


def url_for(doc_id: int) -> str:
    return f"https://corpus.example.org/doc/{doc_id}"


def revs_for(doc_id: int) -> tuple[int, ...]:
    """Fetch revisions synthesized for a doc — the SINGLE source of the
    duplicate-fetch policy (every page variant and the tests read it)."""
    return (0, 1) if doc_id % DUP_MOD == 0 else (0,)


def ts_for(doc_id: int, rev: int) -> datetime.datetime:
    """Fetch timestamp: unique per (url, rev) — the only property dedup
    needs. Minutes wrap at ~95 years so arbitrarily large synthetic
    doc_ids (the bench replicator strides ids by 10M per replica) never
    overflow datetime's year 9999; timestamp collisions ACROSS urls are
    harmless."""
    return (EPOCH
            + datetime.timedelta(minutes=int(doc_id) % 50_000_000)
            + datetime.timedelta(days=rev))


def html_for(doc_id: int, text: str, rev: int) -> bytes:
    """Template whose DOM text dump is 'Doc {id}Doc {id} rev{r}\\n{text}\\n'."""
    did = int(doc_id)
    if did % BAD_UTF8_MOD == BAD_UTF8_REM:
        return b"<html><body>\xff\xfe\x80 broken</body></html>"
    if did % EMPTY_MOD == EMPTY_REM:
        return b""
    pad = f"<!-- {'x' * HUGE_PAD} -->" if did == HUGE_DOC_ID else ""
    doc = (
        f"<html><head><title>Doc {did}</title>"
        f"<script>var x = 1;</script><style>p {{color: red}}</style>{pad}</head>"
        f"<body><h1>Doc {did} rev{rev}</h1>\n"
        f"<p>{html_mod.escape(text)}</p>\n</body></html>"
    )
    return doc.encode("utf-8")


def expected_text(doc_id: int, text: str, rev: int) -> str:
    """What the extract kernel produces for a synthesized page."""
    return f"Doc {doc_id}Doc {doc_id} rev{rev}\n{text}\n"


def pages_batch(batch: pa.Table) -> pa.Table:
    """documents batch -> pages batch (vectorized row synthesis; the
    per-row HTML build is a cheap string format over KB-sized text)."""
    doc_ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    langs = batch["lang"].to_pylist()
    urls, tss, htmls, out_texts, out_langs = [], [], [], [], []
    for did, text, lang in zip(doc_ids, texts, langs):
        for rev in revs_for(did):
            urls.append(url_for(did))
            tss.append(ts_for(did, rev))
            htmls.append(html_for(did, text or "", rev))
            out_texts.append(text)
            out_langs.append(lang)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(out_texts, pa.string()),
            "lang": pa.array(out_langs, pa.string()),
        }
    )


def read_pages(sf_dir: str, parallelism: int = -1):
    """documents.parquet -> Dataset[pages] (streaming; no materialize)."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    return ds.map_batches(pages_batch, batch_format="pyarrow", batch_size=256)


# -- JATS variant (pages_xml): exercises the pubget path -------------------


def jats_for(doc_id: int, text: str) -> bytes:
    """Wrap a document's text into a small JATS article: first half ->
    Introduction, second half -> Results."""
    words = (text or "").split()
    half = len(words) // 2 or 1
    intro = " ".join(words[:half])
    results = " ".join(words[half:]) or "none"
    doc = (
        "<article><front><article-meta>"
        f"<title-group><article-title>Doc {int(doc_id)}</article-title></title-group>"
        "</article-meta></front><body>"
        f"<sec><title>Introduction</title><p>{html_mod.escape(intro)}</p></sec>"
        f"<sec><title>Results</title><p>{html_mod.escape(results)}</p></sec>"
        "</body></article>"
    )
    return doc.encode("utf-8")


def pages_xml_batch(batch: pa.Table) -> pa.Table:
    doc_ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    return pa.table(
        {
            "url": pa.array([url_for(d) for d in doc_ids], pa.string()),
            "warc_ts": pa.array([ts_for(d, 0) for d in doc_ids], pa.timestamp("us")),
            "xml": pa.array([jats_for(d, t or "") for d, t in zip(doc_ids, texts)], pa.binary()),
        }
    )


def read_pages_xml(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return ds.map_batches(pages_xml_batch, batch_format="pyarrow", batch_size=256)


# -- PDF variant (pages_pdf): exercises the PDF layout-block path -----------


def pdf_for(doc_id: int, text: str) -> bytes:
    """One-page PDF: a title block 'Doc {id}' and a body block. The
    extract kernel's reading-order text is 'Doc {id}\n\n{text}' — a
    SQL-reconstructible function of the source row."""
    from ..functions.pdf_text import synthesize_pdf

    return synthesize_pdf(
        [
            {"x": 72, "y": 720, "text": f"Doc {int(doc_id)}"},
            {"x": 72, "y": 650, "text": text or ""},
        ],
        title=f"Doc {int(doc_id)}",
        compress=(doc_id % 2 == 0),  # both filter paths exercised
    )


def pages_pdf_batch(batch: pa.Table) -> pa.Table:
    doc_ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    return pa.table(
        {
            "url": pa.array([url_for(d) for d in doc_ids], pa.string()),
            "warc_ts": pa.array([ts_for(d, 0) for d in doc_ids], pa.timestamp("us")),
            "pdf": pa.array([pdf_for(d, t or "") for d, t in zip(doc_ids, texts)], pa.binary()),
        }
    )


def read_pages_pdf(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(pages_pdf_batch, batch_format="pyarrow", batch_size=256)
