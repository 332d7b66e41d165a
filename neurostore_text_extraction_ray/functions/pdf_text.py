"""PDF layout-block parsing (north-star component: "PDF layout-block
parsing ... stateful parser actors holding compiled DOM-rule tables and
PDF models").

A real, pure-stdlib parser for the well-formed subset this engine
synthesizes and that covers simple generator output (uncompressed or
FlateDecode content streams, Type1 base fonts, literal-string ``Tj`` /
``TJ`` text operators with ``Td``/``TD``/``Tm`` positioning):

- object scanner over ``N 0 obj ... endobj`` with stream extraction;
- zlib FlateDecode;
- content-stream tokenizer for BT/ET text objects, tracking the text
  cursor so each BT..ET becomes a LAYOUT BLOCK ``{x, y, text}``;
- blocks ordered top-to-bottom then left-to-right (y desc, x asc) —
  the reading order of a single-column page;
- PDF literal-string unescaping (\\( \\) \\\\ \\n octal).

Anything outside the subset (encryption, xref streams we can't walk,
unsupported filters, CID fonts) raises ``NotImplementedError`` — the
extract stage counts those rows as ``parse_failed`` instead of lying.

``synthesize_pdf`` emits deterministic, valid single-page PDFs used by
the synthetic corpus and tests (round-trip verified).
"""

from __future__ import annotations

import re
import zlib

PARSER_VERSION = 1

# Length-driven object scan (see ``pdf_extract_blocks``)
_OBJ_START_RE = re.compile(rb"\d+\s+\d+\s+obj")
_STREAM_START_RE = re.compile(rb"stream\r?\n")
_LENGTH_RE = re.compile(rb"/Length\s+(\d+)")
_TITLE_RE = re.compile(rb"/Title\s*\(((?:[^()\\]|\\.)*)\)")
_UNSUPPORTED_FILTERS = (
    b"/DCTDecode", b"/CCITTFaxDecode", b"/JBIG2Decode", b"/JPXDecode",
    b"/LZWDecode", b"/ASCII85Decode", b"/RunLengthDecode",
)

# one escape: an octal code of up to 3 digits, or any single byte
_ESCAPE_RE = re.compile(rb"\\([0-7]{1,3}|.)", re.DOTALL)
_CONTROL_ESCAPES = {b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\b", b"f": b"\f"}


def _unescape_match(m: re.Match) -> bytes:
    e = m.group(1)
    if 0x30 <= e[0] <= 0x37:
        return bytes((int(e, 8) & 0xFF,))
    return _CONTROL_ESCAPES.get(e, e)


def _unescape_pdf_string(raw: bytes) -> str:
    """Octal codes wrap at 0xFF, ``n r t b f`` are control characters,
    any other escaped byte loses its backslash, and a trailing lone
    backslash is kept."""
    if b"\\" not in raw:
        return raw.decode("latin-1")
    return _ESCAPE_RE.sub(_unescape_match, raw).decode("latin-1")


_TOKEN_RE = re.compile(
    rb"\((?:[^()\\]|\\.)*\)"      # literal string
    rb"|\[|\]"
    rb"|[-+]?\d*\.?\d+"           # number
    rb"|/[A-Za-z0-9]+"
    rb"|[A-Za-z'\"*]+"            # operator
)


def _extract_blocks_from_content(content: bytes) -> list[dict]:
    """Walk a content stream; each BT..ET with shown text becomes a
    layout block anchored at the first text position inside it."""
    blocks = []
    in_bt = False
    cur_text: list[str] = []
    x = y = 0.0
    block_x = block_y = None
    stack: list[bytes] = []

    def flush():
        nonlocal cur_text, block_x, block_y
        text = "".join(cur_text)
        if text.strip():
            blocks.append({
                "x": float(block_x or 0.0), "y": float(block_y or 0.0),
                "text": text,
            })
        cur_text = []
        block_x = block_y = None

    for m in _TOKEN_RE.finditer(content):
        tok = m.group(0)
        if tok == b"BT":
            in_bt = True
            x = y = 0.0
            stack.clear()
            continue
        if tok == b"ET":
            if in_bt:
                flush()
            in_bt = False
            stack.clear()
            continue
        if not in_bt:
            continue
        if tok[:1] in b"(-+0123456789." and tok[:1] != b"(":
            stack.append(tok)
            continue
        if tok.startswith(b"("):
            stack.append(tok)
            continue
        op = tok
        if op in (b"Td", b"TD"):
            if len(stack) >= 2:
                try:
                    tx, ty = float(stack[-2]), float(stack[-1])
                    x, y = x + tx, y + ty
                except ValueError:
                    pass
            stack.clear()
        elif op == b"Tm":
            if len(stack) >= 6:
                try:
                    x, y = float(stack[-2]), float(stack[-1])
                except ValueError:
                    pass
            stack.clear()
        elif op == b"Tj":
            if stack and stack[-1].startswith(b"("):
                if block_x is None:
                    block_x, block_y = x, y
                cur_text.append(_unescape_pdf_string(stack[-1][1:-1]))
            stack.clear()
        elif op == b"TJ":
            if block_x is None:
                block_x, block_y = x, y
            for s in stack:
                if s.startswith(b"("):
                    cur_text.append(_unescape_pdf_string(s[1:-1]))
            stack.clear()
        elif op in (b"T*", b"'", b'"'):
            if op in (b"'", b'"') and stack and stack[-1].startswith(b"("):
                if block_x is None:
                    block_x, block_y = x, y
                cur_text.append(_unescape_pdf_string(stack[-1][1:-1]))
            cur_text.append("\n")
            stack.clear()
        else:
            stack.clear()
    return blocks


def pdf_extract_blocks(pdf_bytes: bytes) -> list[dict]:
    """All layout blocks of the document in reading order
    (y desc, then x asc, per content-stream order across objects)."""
    if not pdf_bytes.startswith(b"%PDF-"):
        raise NotImplementedError("not a PDF header")
    if b"/Encrypt" in pdf_bytes:
        raise NotImplementedError("encrypted PDFs unsupported")
    blocks = []
    page_no = 0
    # Length-driven linear scan: compressed payloads can contain the
    # literal bytes 'endstream'/'endobj', so keyword-delimited regex
    # matching over whole objects is unsound; the /Length entry is the
    # only reliable stream delimiter.
    pos = 0
    while True:
        om = _OBJ_START_RE.search(pdf_bytes, pos)
        if not om:
            break
        sm = _STREAM_START_RE.search(pdf_bytes, om.end())
        eo = pdf_bytes.find(b"endobj", om.end())
        if not sm or (eo != -1 and eo < sm.start()):
            pos = (eo + 6) if eo != -1 else len(pdf_bytes)
            continue
        head = pdf_bytes[om.end() : sm.start()]
        lm = _LENGTH_RE.search(head)
        if lm:
            data = pdf_bytes[sm.end() : sm.end() + int(lm.group(1))]
            pos = sm.end() + int(lm.group(1))
        else:
            es = pdf_bytes.find(b"endstream", sm.end())
            if es == -1:
                break
            data = pdf_bytes[sm.end() : es].rstrip(b"\r\n")
            pos = es + 9
        if b"/FlateDecode" in head:
            try:
                data = zlib.decompress(data)
            except zlib.error as e:
                raise NotImplementedError(f"undecodable Flate stream: {e}")
        elif any(f in head for f in _UNSUPPORTED_FILTERS):
            raise NotImplementedError("unsupported stream filter")
        if b"BT" in data:
            page_blocks = _extract_blocks_from_content(data)
            # reading order WITHIN a content stream (one page); pages
            # keep their object order
            page_blocks.sort(key=lambda b: (-b["y"], b["x"]))
            for pb in page_blocks:
                pb["page"] = page_no
            blocks.extend(page_blocks)
            page_no += 1
    return blocks


def pdf_to_text(pdf_bytes: bytes) -> str:
    """Reading-order text: blocks joined by blank lines."""
    return "\n\n".join(b["text"] for b in pdf_extract_blocks(pdf_bytes))


def pdf_title(pdf_bytes: bytes) -> str | None:
    m = _TITLE_RE.search(pdf_bytes)
    return _unescape_pdf_string(m.group(1)) if m else None


# ---------------------------------------------------------------------------
# Deterministic synthesis (valid single-page PDF, optional Flate)
# ---------------------------------------------------------------------------


def _escape_pdf_string(s: str) -> str:
    return s.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")


def _content_stream_for(blocks: list[dict]) -> bytes:
    parts = []
    for b in blocks:
        lines = str(b["text"]).split("\n")
        seg = [f"BT /F1 12 Tf 14 TL {b['x']:.1f} {b['y']:.1f} Td"]
        for i, line in enumerate(lines):
            if i:
                seg.append("T*")
            seg.append(f"({_escape_pdf_string(line)}) Tj")
        seg.append("ET")
        parts.append(" ".join(seg))
    return ("\n".join(parts)).encode("latin-1", "replace")


def synthesize_pdf(blocks: list[dict], title: str | None = None,
                   compress: bool = True, pages: list[list[dict]] | None = None) -> bytes:
    """blocks: [{x, y, text}] -> one-page PDF; or pass ``pages`` (a list
    of block lists) for a multi-page document. Multi-line text becomes
    one Tj per line with T* line feeds inside a single BT..ET."""
    page_lists = pages if pages is not None else [blocks]
    n_pages = len(page_lists)
    filt = b" /Filter /FlateDecode" if compress else b""

    objs = []
    objs.append(b"<< /Type /Catalog /Pages 2 0 R >>")
    first_page_obj = 3
    kids = b" ".join(
        str(first_page_obj + 2 * i).encode() + b" 0 R" for i in range(n_pages)
    )
    objs.append(b"<< /Type /Pages /Kids [" + kids + b"] /Count "
                + str(n_pages).encode() + b" >>")
    font_obj = first_page_obj + 2 * n_pages
    for i, pblocks in enumerate(page_lists):
        content = _content_stream_for(pblocks)
        if compress:
            content = zlib.compress(content)
        page_obj = first_page_obj + 2 * i
        objs.append(
            b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Contents "
            + str(page_obj + 1).encode()
            + b" 0 R /Resources << /Font << /F1 " + str(font_obj).encode()
            + b" 0 R >> >> >>"
        )
        objs.append(
            b"<< /Length " + str(len(content)).encode() + filt + b" >>\nstream\n"
            + content + b"\nendstream"
        )
    objs.append(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
    if title is not None:
        objs.append(
            b"<< /Title (" + _escape_pdf_string(title).encode("latin-1", "replace") + b") >>"
        )

    out = bytearray(b"%PDF-1.4\n")
    offsets = []
    for i, obj in enumerate(objs, start=1):
        offsets.append(len(out))
        out += str(i).encode() + b" 0 obj\n" + obj + b"\nendobj\n"
    xref_at = len(out)
    out += b"xref\n0 " + str(len(objs) + 1).encode() + b"\n"
    out += b"0000000000 65535 f \n"
    for off in offsets:
        out += f"{off:010d} 00000 n \n".encode()
    trailer = b"trailer\n<< /Size " + str(len(objs) + 1).encode() + b" /Root 1 0 R"
    if title is not None:
        trailer += b" /Info " + str(len(objs)).encode() + b" 0 R"
    trailer += b" >>\nstartxref\n" + str(xref_at).encode() + b"\n%%EOF\n"
    out += trailer
    return bytes(out)
