"""The extract kernels read each document once, and their output is
pinned: ``extract_one`` feeds an html page to ``HTMLParser`` once and
parses a JATS article once; the first-``<title>`` rules that now share
the text pass are pinned case by case; and the whole ``extract_batch``
output of a seeded page set (spans and metadata included) is pinned by
a digest."""

import hashlib
import random
from html.parser import HTMLParser

import pyarrow as pa
import pytest

from neurostore_text_extraction_ray.functions import html_text, jats
from neurostore_text_extraction_ray.sources import pages as pages_src
from neurostore_text_extraction_ray.stages.extract import extract_batch, extract_one


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_html_page_fed_to_the_parser_once(monkeypatch):
    feeds = _count_calls(monkeypatch, HTMLParser, "feed")
    r = extract_one(pages_src.html_for(1, "some words here", 0))
    assert not r["parse_failed"]
    assert r["metadata"]["title"] == "Doc 1"
    assert len(feeds) == 1


def test_jats_article_parsed_once(monkeypatch):
    parses = _count_calls(monkeypatch, jats, "_parse")
    r = extract_one(pages_src.jats_for(2, "alpha beta gamma delta"))
    assert not r["parse_failed"]
    assert r["metadata"]["title"] == "Doc 2"
    assert len(parses) == 1


def test_jats_metadata_without_text_parses_once(monkeypatch):
    xml = pages_src.jats_for(4, "MNI coordinates were used").decode()
    parses = _count_calls(monkeypatch, jats, "_parse")
    md = jats.jats_metadata(xml)
    assert len(parses) == 1
    assert md["coordinate_space"] == "MNI" and md["text"] is True


# (html, html_title, extract_one's leading span, extracted_text): the
# values the two-pass kernels gave
TITLE_CASES = [
    pytest.param(
        "<html><head><title>First</title></head>"
        "<body><title>Second</title><p>x</p></body></html>",
        "First", {"label": "title", "start": 0, "end": 5}, "FirstSecondx",
        id="two-titles-first-wins"),
    pytest.param(
        "<p>a</p></title><title>Late</title><p>b</p>",
        None, {"label": "body", "start": 0, "end": 6}, "aLateb",
        id="end-tag-before-any-title"),
    pytest.param(
        "<head><title/></head><body>x</body>",
        None, {"label": "body", "start": 0, "end": 1}, "x",
        id="self-closing-title"),
    pytest.param(
        "<title>a<script>x</script>b</title><p>body</p>",
        "axb", {"label": "body", "start": 0, "end": 6}, "abbody",
        id="script-inside-title"),
    pytest.param(
        "<script><title>s</title></script><p>body</p>",
        None, {"label": "body", "start": 0, "end": 4}, "body",
        id="title-inside-script"),
    pytest.param(
        "<!-- <title>c</title> --><p>body</p>",
        None, {"label": "body", "start": 0, "end": 4}, "body",
        id="title-inside-comment"),
    pytest.param(
        "<title>R&amp;D &lt;1&gt; &#233;t&eacute;</title>"
        "<p>R&amp;D &lt;1&gt; &#233;t&eacute;</p>",
        "R&D <1> été", {"label": "title", "start": 0, "end": 11},
        "R&D <1> étéR&D <1> été",
        id="charrefs"),
    pytest.param(
        "<title>open <p>never closed",
        "open never closed", {"label": "title", "start": 0, "end": 17},
        "open never closed",
        id="unterminated-title"),
]


@pytest.mark.parametrize("html,title,first_span,text", TITLE_CASES)
def test_title_edge_cases(html, title, first_span, text):
    assert html_text.html_title(html) == title
    r = extract_one(html.encode("utf-8"))
    assert r["metadata"]["title"] == title
    assert r["spans"][0] == first_span
    assert r["extracted_text"] == text
    spans = r["spans"][1:] if first_span["label"] == "title" else r["spans"]
    assert html_text.html_to_text_and_spans(html) == (text, spans)


def _seeded_pages() -> pa.Table:
    """html pages (refetches, the undecodable page 3, the empty page 5
    and the 2 MB blob 7), JATS articles and PDFs in one ``html`` column."""
    rng = random.Random(20240101)
    vocab = ("cortex signal region voxel (n=24) p<0.05 R&D \"quoted\" it's "
             "Introduction Methods Results MNI Talairach \\ café").split()
    urls, tss, payloads = [], [], []
    for d in range(36):
        text = " ".join(rng.choices(vocab, k=rng.randint(3, 40)))
        if d < 12:
            for rev in pages_src.revs_for(d):
                urls.append(pages_src.url_for(d))
                tss.append(pages_src.ts_for(d, rev))
                payloads.append(pages_src.html_for(d, text, rev))
            continue
        urls.append(pages_src.url_for(d))
        tss.append(pages_src.ts_for(d, 0))
        payloads.append(pages_src.jats_for(d, text) if d < 24
                        else pages_src.pdf_for(d, text))
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(tss, pa.timestamp("us")),
        "html": pa.array(payloads, pa.binary()),
    })


# sha256 of the url-sorted Arrow IPC stream, as the two-pass kernels wrote it
EXTRACT_DIGEST = "a9d60fcb8e2e9b70724c502a8575de21fa6b192cf53ef45cdf49c0e119537828"


def test_extract_batch_output_digest():
    out = extract_batch(_seeded_pages())
    assert out.num_rows == 38
    assert out["parse_failed"].to_pylist().count(True) == 1
    assert out["empty"].to_pylist().count(True) == 1
    out = out.sort_by([("url", "ascending"), ("warc_ts", "ascending")])
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, out.schema) as w:
        w.write_table(out)
    assert hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest() == EXTRACT_DIGEST
