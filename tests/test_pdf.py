"""PDF layout-block parser: synthesis round-trip, escaping, reading
order, stub boundaries, extract-stage integration."""

import pytest

from neurostore_text_extraction_ray.functions.pdf_text import (
    _unescape_pdf_string,
    pdf_extract_blocks,
    pdf_title,
    pdf_to_text,
    synthesize_pdf,
)
from neurostore_text_extraction_ray.stages.extract import extract_one


BLOCKS = [
    {"x": 72, "y": 720, "text": "Introduction"},
    {"x": 72, "y": 650, "text": "Line one\nLine two"},
    {"x": 300, "y": 650, "text": "Right column"},
    {"x": 72, "y": 500, "text": "Parens (x) and \\ slash and \ttab."},
]


@pytest.mark.parametrize("compress", [True, False])
def test_roundtrip(compress):
    pdf = synthesize_pdf(BLOCKS, title="T (1)", compress=compress)
    got = pdf_extract_blocks(pdf)
    assert [b["text"] for b in got] == [b["text"] for b in BLOCKS]
    assert pdf_title(pdf) == "T (1)"


def test_reading_order():
    """Blocks come back top-to-bottom, left-to-right regardless of
    stream order."""
    shuffled = [BLOCKS[3], BLOCKS[2], BLOCKS[0], BLOCKS[1]]
    got = pdf_extract_blocks(synthesize_pdf(shuffled))
    assert [b["text"] for b in got] == [
        "Introduction", "Line one\nLine two", "Right column",
        "Parens (x) and \\ slash and \ttab.",
    ]


def test_binary_safe_streams():
    """Compressed payloads containing 'endstream'/'endobj' byte
    sequences must not truncate parsing (Length-driven scan)."""
    # a text that compresses to bytes containing the magic keywords is
    # hard to force; instead verify many random-ish payloads round-trip
    for i in range(50):
        text = f"doc {i} " + ("value spark row " * (i + 1))
        pdf = synthesize_pdf([{"x": 72, "y": 700, "text": text}], compress=True)
        assert pdf_to_text(pdf) == text


def test_stub_boundaries():
    with pytest.raises(NotImplementedError):
        pdf_extract_blocks(b"not a pdf")
    with pytest.raises(NotImplementedError):
        pdf_extract_blocks(b"%PDF-1.7\n... /Encrypt 5 0 R ...")


def test_extract_stage_integration():
    pdf = synthesize_pdf(
        [{"x": 72, "y": 720, "text": "Methods"},
         {"x": 72, "y": 650, "text": "We did things."}],
        title="A Paper",
    )
    r = extract_one(pdf, mode="auto")
    assert not r["parse_failed"]
    assert r["extracted_text"] == "Methods\n\nWe did things."
    assert r["metadata"]["title"] == "A Paper"
    labels = [s["label"] for s in r["spans"]]
    assert labels == ["methods", "body"]
    t = r["extracted_text"]
    for s in r["spans"]:
        assert t[s["start"]:s["end"]] in ("Methods", "We did things.")


def test_extract_stage_counts_unsupported_as_failed():
    r = extract_one(b"%PDF-1.7\nxref stream only, no parsable objects /Encrypt")
    assert r["parse_failed"]


def test_multi_page_reading_order():
    """Pages keep their order; blocks sort top-to-bottom per page (no
    cross-page interleave from the y-sort)."""
    pages = [
        [{"x": 72, "y": 300, "text": "p1 low"}, {"x": 72, "y": 700, "text": "p1 high"}],
        [{"x": 72, "y": 720, "text": "p2 top"}],
    ]
    pdf = synthesize_pdf([], pages=pages)
    got = pdf_extract_blocks(pdf)
    assert [(b["page"], b["text"]) for b in got] == [
        (0, "p1 high"), (0, "p1 low"), (1, "p2 top")]
    assert pdf_to_text(pdf) == "p1 high\n\np1 low\n\np2 top"


# literal-string escapes: the values the per-byte unescape loop gave
@pytest.mark.parametrize("raw,want", [
    (rb"a\nb", "a\nb"),
    (rb"a\rb", "a\rb"),
    (rb"a\tb", "a\tb"),
    (rb"a\bb", "a\bb"),
    (rb"a\fb", "a\fb"),
    (rb"\(x\)", "(x)"),
    (rb"\\", "\\"),
    (b"\\\\\\", "\\\\"),
    (rb"\7", "\x07"),
    (rb"\0", "\x00"),
    (rb"\53", "+"),
    (rb"\101", "A"),
    (rb"\1011", "A1"),
    (rb"\400", "\x00"),
    (rb"\8", "8"),
    (rb"\q", "q"),
    (b"a\\\nb", "a\nb"),
    (b"ab\\", "ab\\"),
    (b"", ""),
    (b"caf\xe9", "caf\xe9"),
])
def test_unescape_pdf_string(raw, want):
    assert _unescape_pdf_string(raw) == want
