"""Whole-DOM HTML -> plain text extraction (the "ACE" kernel).

Reproduces the golden behavior pinned by the reference fixture pairs
``tests/data/sample_inputs/<dbid>/source/ace/<pmid>.html`` <->
``processed/ace/text.txt`` (reference consumed these via
``ns_extract/dataset.py:146-148``; the extraction tool itself is external
to the reference repo, so the fixtures are the spec).

Verified byte-identical on ``G6qSwgM5koZp`` (the only fixture whose
stored HTML is the same fetch the golden text was produced from; the
other fixture pairs differ only by dynamic page content from different
fetches — word-level overlap 0.75-0.99).

Semantics:
- concatenate all text nodes in document order;
- skip ``<script>``/``<style>`` subtrees;
- decode character/entity references;
- a whitespace-only text node renders as ``"\\n"`` if it contains a
  newline, else as a single space.

``fold_unicode=True`` additionally folds en-dash (U+2013), minus
(U+2212) to ``-`` and NBSP to space — matching the variant seen in the
``6dYthnbocsU4`` golden file (an older tool version's output).

parser_version: 1 (frozen once byte-verified; bump on any change to output).
"""

from __future__ import annotations

from html.parser import HTMLParser

PARSER_VERSION = 1

_SKIP_TAGS = ("script", "style")

# HTML void/self-closing tags never push skip state (html.parser calls
# handle_startendtag for <script/> anyway, which we ignore).


_HEADING_TAGS = {"h1", "h2", "h3", "h4", "h5", "h6"}


class _DomTextDump(HTMLParser):
    """Streaming text-node collector. One instance per document.
    Records (offset, heading_text) for h1-h6 elements so callers can
    derive labeled section spans, and the first <title>'s data chunks.
    The title state ignores the script/style skip, and the first
    </title> ends it even before any <title>."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []
        self._skip = 0
        self._length = 0
        self._heading_start = None
        self._heading_buf: list[str] = []
        self.headings: list[tuple[int, str]] = []
        self._in_title = False
        self._title_done = False
        self.title_buf: list[str] = []

    def _emit(self, s: str) -> None:
        self.parts.append(s)
        self._length += len(s)
        if self._heading_start is not None:
            self._heading_buf.append(s)

    def handle_starttag(self, tag, attrs):
        if tag == "title" and not self._title_done:
            self._in_title = True
        if tag in _SKIP_TAGS:
            self._skip += 1
        elif tag in _HEADING_TAGS and not self._skip:
            self._heading_start = self._length
            self._heading_buf = []

    def handle_endtag(self, tag):
        if tag == "title":
            self._in_title = False
            self._title_done = True
        if tag in _SKIP_TAGS and self._skip:
            self._skip -= 1
        elif tag in _HEADING_TAGS and self._heading_start is not None:
            text = "".join(self._heading_buf).strip()
            if text:
                self.headings.append((self._heading_start, text))
            self._heading_start = None
            self._heading_buf = []

    def handle_data(self, data):
        if self._in_title:
            self.title_buf.append(data)
        if self._skip:
            return
        if not data.strip():
            self._emit("\n" if "\n" in data else " ")
        else:
            self._emit(data)


def html_to_text(html: str, fold_unicode: bool = False) -> str:
    """Extract the whole-DOM text dump of ``html``.

    Raises on catastrophically malformed markup only if html.parser
    itself raises (rare); callers in Ray stages wrap per-row try/except
    and count ``parse_failed`` instead of poisoning the batch.
    """
    return html_to_text_and_spans(html, fold_unicode=fold_unicode)[0]


def html_to_text_and_spans(html: str, fold_unicode: bool = False):
    """(text, spans): spans are labeled sections derived from h1-h6
    headings — each span runs from its heading to the next heading (or
    end of text), labeled via the shared section lexicon
    (abstract/intro/methods/results/discussion/body). A heading-less
    document yields one 'body' span. NOTE: fold_unicode does not change
    offsets (all folds are 1:1 character replacements)."""
    return html_to_text_spans_title(html, fold_unicode=fold_unicode)[:2]


def html_title(html: str) -> str | None:
    """First <title> element's text, or None."""
    return html_to_text_spans_title(html)[2]


def html_to_text_spans_title(html: str, fold_unicode: bool = False):
    """(text, spans, title) from one parser pass: ``html_to_text_and_spans``
    and ``html_title`` of the same document. The title is never folded."""
    from .jats import section_label

    p = _DomTextDump()
    p.feed(html)
    p.close()
    text = "".join(p.parts)
    if fold_unicode:
        text = text.replace("–", "-").replace("−", "-").replace("\xa0", " ")
    spans = []
    if p.headings:
        for i, (start, title) in enumerate(p.headings):
            end = p.headings[i + 1][0] if i + 1 < len(p.headings) else len(text)
            spans.append({"label": section_label(title), "start": start, "end": end})
    else:
        spans.append({"label": "body", "start": 0, "end": len(text)})
    title = "".join(p.title_buf) if p.title_buf else None
    return text, spans, title
