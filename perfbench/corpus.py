"""Seeded page corpora for the four workloads, with their oracles.

Every corpus has the pages schema ``(url, warc_ts, html, text, lang)`` and
is written as a directory of Parquet files. The html payloads come from the
engine's own synthesizers (``sources.pages.html_for`` / ``jats_for`` /
``pdf_for``), and the oracle of each output row is computed here from the
row's source text:

- html rows: ``sources.pages.expected_text`` of the latest fetch; undecodable
  pages are ``parse_failed`` and empty pages are ``empty``;
- JATS rows: the reconstruction the ``jats_extract_text`` SQL oracle in
  ``__ray_entry__`` spells out;
- PDF rows: ``'Doc {id}\\n\\n{text}'``.

The seed picks the texts, the fetch counts and the row order; the sizes and
the doc ids (hence the bad-UTF-8, empty and oversized pages) depend only on
the workload, so every seed gives the same amount of work.
"""

from __future__ import annotations

import json
import os
import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from neurostore_text_extraction_ray.sources import pages as P

WORKLOADS = ("crawl_extract", "refetch_dedup", "incremental_refresh",
             "stream_mixed")

# documents per workload at scale 1.0: a timed job takes ~1.5-2.5 s with
# two Ray CPUs
BASE_DOCS = {
    "crawl_extract": 1600,
    "refetch_dedup": 1500,
    "incremental_refresh": 1600,
    "stream_mixed": 1200,
}
N_FILES = 8

VOCAB = (
    "the of and in to cortex signal region voxel brain activation task "
    "fMRI T1-weighted p<0.05 R&D \"quoted\" it's (n=24) 42.5% x>y amygdala "
    "hippocampus contrast cluster peak MNI coordinates participants "
    "significant increased decreased bilateral left right frontal parietal"
).split()

PAGES_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("html", pa.binary()),
    ("text", pa.string()),
    ("lang", pa.string()),
])
ORACLE_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("extracted_text", pa.string()),
    ("parse_failed", pa.bool_()),
    ("empty", pa.bool_()),
])


def _text(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(rng.choices(VOCAB, k=rng.randint(lo, hi)))


def html_oracle(doc_id: int, text: str, rev: int) -> tuple:
    """(extracted_text, parse_failed, empty) of an ``html_for`` page."""
    if doc_id % P.BAD_UTF8_MOD == P.BAD_UTF8_REM:
        return None, True, False
    if doc_id % P.EMPTY_MOD == P.EMPTY_REM:
        return "", False, True
    return P.expected_text(doc_id, text, rev), False, False


def jats_oracle(text: str) -> tuple:
    """Python form of the ``jats_extract_text`` SQL oracle: words split on
    whitespace, the first half under Introduction, the rest (or 'none')
    under Results."""
    words = text.strip().split()
    half = len(words) // 2 or 1
    intro = " ".join(words[:half])
    results = " ".join(words[half:]) or "none"
    return (" \n## Introduction \n  \n" + intro + " \n\n\n## Results \n  \n"
            + results + " \n\n "), False, False


def pdf_oracle(doc_id: int, text: str) -> tuple:
    return f"Doc {doc_id}\n\n{text}", False, False


class _Builder:
    """Accumulates fetch rows and the per-url oracle of one corpus."""

    def __init__(self):
        self.rows = {name: [] for name in PAGES_SCHEMA.names}
        self.oracle: dict[str, tuple] = {}
        self.kinds = {"html": 0, "jats": 0, "pdf": 0}

    def fetch(self, doc_id: int, rev: int, payload: bytes, text: str):
        self.rows["url"].append(P.url_for(doc_id))
        self.rows["warc_ts"].append(P.ts_for(doc_id, rev))
        self.rows["html"].append(payload)
        self.rows["text"].append(text)
        self.rows["lang"].append("en")

    def expect(self, doc_id: int, kind: str, result: tuple):
        self.oracle[P.url_for(doc_id)] = result
        self.kinds[kind] += 1

    def table(self, rng: random.Random, drop_urls=frozenset()) -> pa.Table:
        t = pa.table(self.rows, schema=PAGES_SCHEMA)
        if drop_urls:
            keep = [u not in drop_urls for u in self.rows["url"]]
            t = t.filter(pa.array(keep))
        order = np.array(rng.sample(range(t.num_rows), t.num_rows), dtype=np.int64)
        return t.take(pa.array(order))

    def oracle_table(self, drop_urls=frozenset()) -> pa.Table:
        urls = sorted(u for u in self.oracle if u not in drop_urls)
        vals = [self.oracle[u] for u in urls]
        return pa.table({
            "url": urls,
            "extracted_text": [v[0] for v in vals],
            "parse_failed": [v[1] for v in vals],
            "empty": [v[2] for v in vals],
        }, schema=ORACLE_SCHEMA)


def _write_pages(table: pa.Table, path: str) -> None:
    os.makedirs(path, exist_ok=True)
    step = -(-table.num_rows // N_FILES)
    for i in range(N_FILES):
        part = table.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, os.path.join(path, f"pages-{i:02d}.parquet"))


def _stats(table: pa.Table) -> dict:
    n_urls = len(set(table["url"].to_pylist()))
    return {
        "input_rows": table.num_rows,
        "html_bytes": table["html"].nbytes,
        "duplicate_share": round(1 - n_urls / max(table.num_rows, 1), 4),
    }


def _expected_counts(oracle: pa.Table) -> dict:
    failed = sum(oracle["parse_failed"].to_pylist())
    empty = sum(oracle["empty"].to_pylist())
    return {"n_ok": oracle.num_rows - failed - empty,
            "n_parse_failed": failed, "n_empty": empty}


def _rendered_floor_sample(docs: list, n: int = 400) -> dict:
    """Kernel-floor payloads for a workload made of html pages: its own
    pages, plus the JATS and PDF renderings of the same texts."""
    docs = docs[:n]
    return {
        "html": [P.html_for(d, t, 0) for d, t in docs],
        "jats": [P.jats_for(d, t) for d, t in docs],
        "pdf": [P.pdf_for(d, t) for d, t in docs],
    }


def build(workload: str, seed: int, out_dir: str, scale: float = 1.0):
    """Write the workload's corpus under ``out_dir``; return (spec, floor
    payloads). ``spec`` is JSON-serializable and saved as ``spec.json``
    beside ``oracle.parquet``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    n = max(40, int(BASE_DOCS[workload] * scale))
    b = _Builder()
    spec = {"workload": workload, "seed": seed, "scale": scale,
            "input_dir": os.path.join(out_dir, "pages")}
    texts: list = []

    if workload == "crawl_extract":
        # doc ids 0..n-1: every 10th url refetched, doc 7 is the 2 MB blob,
        # doc_id % 101 == 3 undecodable, doc_id % 97 == 5 empty
        for did in range(n):
            text = _text(rng, 200, 900)
            texts.append((did, text))
            revs = P.revs_for(did)
            for rev in revs:
                b.fetch(did, rev, P.html_for(did, text, rev), text)
            b.expect(did, "html", html_oracle(did, text, max(revs)))
        table = b.table(rng)
        oracle = b.oracle_table()
    elif workload == "refetch_dedup":
        # every url fetched 2-14 times at random revisions, plus one hot url
        # fetched ~2n times; tiny pages, shuffled across files and batches
        first = 1_000_000
        for i in range(n + 1):
            did = first + i
            text = _text(rng, 3, 12)
            texts.append((did, text))
            k = 2 * n if i == n else rng.randint(2, 14)
            revs = rng.sample(range(4 * n), k)
            for rev in revs:
                b.fetch(did, rev, P.html_for(did, text, rev), text)
            b.expect(did, "html", html_oracle(did, text, max(revs)))
        table = b.table(rng)
        oracle = b.oracle_table()
    elif workload == "incremental_refresh":
        # prior corpus; then ~5% of urls refetched with new content (rev 2)
        # and a few removed, written later at the SAME input path
        first = 2_000_000
        ids = list(range(first, first + n))
        edited = set(rng.sample(ids, max(2, n // 20)))
        removed = set(rng.sample(sorted(set(ids) - edited), max(2, n // 300)))
        prior = _Builder()
        for did in ids:
            text = _text(rng, 200, 900)
            texts.append((did, text))
            revs = P.revs_for(did)
            for rev in revs:
                prior.fetch(did, rev, P.html_for(did, text, rev), text)
                b.fetch(did, rev, P.html_for(did, text, rev), text)
            if did in edited:
                new = _text(rng, 200, 900)
                b.fetch(did, 2, P.html_for(did, new, 2), new)
                b.expect(did, "html", html_oracle(did, new, 2))
            else:
                b.expect(did, "html", html_oracle(did, text, max(revs)))
        gone = frozenset(P.url_for(d) for d in removed)
        prior_table = prior.table(rng)
        table = b.table(rng, drop_urls=gone)
        oracle = b.oracle_table(drop_urls=gone)
        spec["edited_dir"] = os.path.join(out_dir, "pages.edited")
        spec["n_edited"] = len(edited)
        spec["n_removed"] = len(removed)
        b.kinds["html"] -= len(removed)
        spec["prior"] = _stats(prior_table)
        _write_pages(prior_table, spec["input_dir"])
    else:  # stream_mixed
        # html / JATS / PDF payloads in one column, auto-sniffed; every 10th
        # url refetched. The kind follows the doc id (12 html, 5 JATS and
        # 3 PDF in every 20 ids, refetched ones too), so each seed gives the
        # same mix
        first = 3_000_000
        for did in range(first, first + n):
            text = _text(rng, 100, 500)
            texts.append((did, text))
            k = (did + did // 10) % 20
            kind = "html" if k < 12 else "jats" if k < 17 else "pdf"
            revs = P.revs_for(did)
            if kind == "html":
                for rev in revs:
                    b.fetch(did, rev, P.html_for(did, text, rev), text)
                b.expect(did, kind, html_oracle(did, text, max(revs)))
                continue
            payload = P.jats_for(did, text) if kind == "jats" else P.pdf_for(did, text)
            for rev in revs:
                b.fetch(did, rev, payload, text)
            b.expect(did, kind, jats_oracle(text) if kind == "jats"
                     else pdf_oracle(did, text))
        table = b.table(rng)
        oracle = b.oracle_table()

    _write_pages(table, spec.get("edited_dir", spec["input_dir"]))
    pq.write_table(oracle, os.path.join(out_dir, "oracle.parquet"))
    spec.update(_stats(table))
    spec["n_docs"] = oracle.num_rows
    spec["kinds"] = b.kinds
    spec["expect"] = _expected_counts(oracle)
    with open(os.path.join(out_dir, "spec.json"), "w") as fh:
        json.dump(spec, fh, indent=1)

    if workload == "stream_mixed":
        payloads = table["html"].to_pylist()
        floors = {
            "html": [p for p in payloads if not p.startswith((b"%PDF-", b"<article"))],
            "jats": [p for p in payloads if p.startswith(b"<article")],
            "pdf": [p for p in payloads if p.startswith(b"%PDF-")],
        }
        floors = {k: v[:400] for k, v in floors.items()}
    else:
        floors = _rendered_floor_sample(texts)
    return spec, floors
