"""JATS XML -> extracted text / spans / metadata / coordinates (the
"pubget" kernel).

The text rendering reproduces, byte-for-byte, the golden fixture pairs
``source/pubget/<pmcid>.xml`` <-> ``processed/pubget/text.txt`` of the
reference repo (consumed there via ``ns_extract/dataset.py:151-155``;
the transform itself lives in the external pubget tool, so the fixtures
are the spec). Verified byte-identical on ALL 17 fixture pairs under
``/root/reference/tests/data/sample_inputs`` and
``/root/reference/evaluation/data/ns_pond_inputs``.

Grammar (empirically calibrated):

- body emits ``" \\n"``, then blocks, then ``"\\n" * closes + " "``.
- ``<sec>`` (depth d, top-level d=1) emits ``"#"*(d+1) + " " + title``
  with paragraph-style trailing, then ``"  \\n"`` (its own blank line),
  then children; a separator of ``"\\n" * (1 + levels_closed)`` precedes
  the next block (no separator straight after a title; ``"\\n" *
  levels_closed`` before fig/table-wrap, which self-provide a blank).
- ``<p>`` renders its inline content with one generated leading space
  removed, then ``"\\n"`` if it ends with a space else ``" \\n"``.
- ``<fig>``/``<table-wrap>``: ``"  "`` + caption (ps as ``"\\n{c} \\n"``,
  titles as ``" {c}  "``) + ``"  "``; dropped siblings: table-wrap-foot
  (fn-wrapped) and alternatives contribute ``"  "`` each, table/
  graphic/label/object-id nothing; a table-wrap-foot with direct <p>
  children renders them like caption ps plus a trailing ``"  "``;
  ``<alt-text>`` renders its text + ``"   "``.
- inline: xref/ext-link/uri -> one space (content dropped); sub/sup ->
  one space unless the output so far ends with whitespace;
  disp-formula/inline-formula -> one space; italic/bold/etc wrap their
  content in two spaces (one space when directly nesting another wrap;
  a whitespace-only wrap keeps its content, merging its opening pad
  with a preceding space); whitespace-only text nodes containing a
  newline are dropped inside inline content.

parser_version: 1 (frozen once byte-verified; bump on any change to output).
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

PARSER_VERSION = 1


def strip_ns(tag: str) -> str:
    return tag.split("}")[-1] if "}" in tag else tag


DROP_INLINE = {"xref", "ext-link", "uri", "email"}
WRAP = {"italic", "bold", "underline", "sc", "monospace", "styled-content", "named-content"}
DROP0 = {"label", "graphic", "object-id", "media", "inline-graphic"}
COND_SPACE = {"sub", "sup"}
SPACE_ALWAYS = {"disp-formula", "inline-formula"}


def _keep(t):
    if t is None:
        return ""
    if not t.strip() and "\n" in t:
        return ""
    return t


def _lead(s, el=None):
    """Remove one generated leading space (wrap pad); keep a literal
    leading space present in the source text node."""
    if el is not None and (el.text or "").strip():
        return s
    return s[1:] if s.startswith(" ") else s


def _ptrail(c):
    return c + ("\n" if c.endswith(" ") else " \n")


def inline(el) -> str:
    parts = [_keep(el.text)]
    for ch in el:
        tag = strip_ns(ch.tag)
        cur = "".join(parts)
        if tag in DROP_INLINE:
            parts.append(" ")
        elif tag in SPACE_ALWAYS:
            parts.append(" ")
        elif tag in COND_SPACE:
            if cur and not cur[-1].isspace():
                parts.append(" ")
        elif tag in DROP0:
            pass
        elif tag in WRAP:
            c = inline(ch)
            kids = list(ch)
            nested = (
                len(kids) == 1
                and strip_ns(kids[0].tag) in WRAP
                and not (ch.text or "").strip()
            )
            if nested:
                parts.append(" " + c + " ")
            elif c != "" and c.strip() == "":
                open_pad = " " if cur.endswith(" ") else "  "
                parts.append(open_pad + c + "  ")
            else:
                c = re.sub(r"[ \t]+$", " ", re.sub(r"^[ \t]+", " ", c))
                parts.append("  " if c == "" else "  " + c + "  ")
        elif tag in ("fig", "table-wrap"):
            if cur.endswith(" "):
                parts[-1] = parts[-1][:-1]
            elif cur:
                parts.append(" ")
            txt, _foot = render_captioned(ch)
            parts.append(txt)
            if _keep(ch.tail):
                parts.append("\n")
        elif tag == "disp-quote":
            parts.append("  \n")
            parts.append(
                "\n".join(
                    _ptrail(_lead(inline(p), p)) for p in ch if strip_ns(p.tag) == "p"
                )
            )
            parts.append(" ")
        else:
            parts.append(inline(ch))
        parts.append(_keep(ch.tail))
    return "".join(parts)


def _direct_ps(el):
    return [c for c in el if strip_ns(c.tag) == "p"]


def render_captioned(el):
    """fig / table-wrap -> (text, foot_rendered)."""
    kids = list(el)
    parts = ["  "]
    cap = el.find("caption")
    if cap is not None:
        for ch in cap:
            t = strip_ns(ch.tag)
            if t == "p":
                parts.append("\n" + _ptrail(_lead(inline(ch), ch)))
            elif t == "title":
                parts.append(" " + inline(ch) + "  ")
    parts.append("  ")
    rest, seen_cap = [], False
    for ch in kids:
        if strip_ns(ch.tag) == "caption":
            seen_cap = True
        elif seen_cap:
            rest.append(ch)
    foot_rendered = False
    for ch in rest:
        t = strip_ns(ch.tag)
        if t == "alt-text":
            parts.append(inline(ch) + "   ")
        elif t == "table-wrap-foot" and _direct_ps(ch):
            foot_rendered = True
            for p in _direct_ps(ch):
                parts.append("\n" + _ptrail(_lead(inline(p), p)))
            parts.append("  ")
        elif t in ("table-wrap-foot", "alternatives"):
            parts.append("  ")
        # table, graphic, label, object-id render nothing here
    return "".join(parts), foot_rendered


class _Renderer:
    def __init__(self, collect_spans=False):
        self.out: list[str] = []
        self.prev = None
        self.closes = 0
        self.length = 0
        self.collect_spans = collect_spans
        self.spans: list[dict] = []
        self._open_span = None

    def _append(self, s):
        self.out.append(s)
        self.length += len(s)

    def sep(self, nxt):
        if self.prev is None or self.prev == "title":
            return ""
        if nxt in ("fig", "tw"):
            return "\n" * self.closes
        return "\n" * (1 + self.closes)

    def emit(self, kind, text):
        self._append(self.sep(kind))
        self._append(text)
        self.prev = kind
        self.closes = 0

    def _open(self, title, depth):
        if not self.collect_spans or depth != 1:
            return
        self._close_span()
        self._open_span = {"label": section_label(title), "start": self.length}

    def _close_span(self):
        if self._open_span is not None:
            self._open_span["end"] = self.length
            self.spans.append(self._open_span)
            self._open_span = None

    def block(self, el, depth):
        tag = strip_ns(el.tag)
        if tag == "sec":
            title_el = el.find("title")
            title = _lead(inline(title_el), title_el) if title_el is not None else ""
            # span starts at the header line (after the separator)
            self._append(self.sep("title"))
            self.prev = "title"
            self.closes = 0
            self._open(title, depth)
            self._append("#" * (depth + 1) + " " + _ptrail(title) + "  \n")
            for ch in el:
                if strip_ns(ch.tag) == "title":
                    continue
                self.block(ch, depth + 1)
            self.closes += 1
            if depth == 1:
                self._close_span()
        elif tag == "p":
            self.emit("p", _ptrail(_lead(inline(el), el)))
        elif tag in ("fig", "table-wrap"):
            txt, _foot = render_captioned(el)
            self.emit("fig" if tag == "fig" else "tw", txt)
        elif tag == "disp-quote":
            self.emit(
                "p",
                "  \n"
                + "\n".join(
                    _ptrail(_lead(inline(p), p)) for p in el if strip_ns(p.tag) == "p"
                ),
            )


# Section label lexicon for spans (north-rule labels).
_LABELS = [
    ("abstract", "abstract"),
    ("introduction", "intro"),
    ("background", "intro"),
    ("method", "methods"),
    ("materials", "methods"),
    ("result", "results"),
    ("finding", "results"),
    ("discussion", "discussion"),
    ("conclusion", "discussion"),
]


def section_label(title: str) -> str:
    t = title.lower()
    for key, label in _LABELS:
        if key in t:
            return label
    return "body"


_HTML_ENTITIES_RE = re.compile(r"&(?!amp;|lt;|gt;|quot;|apos;|#)(\w+);")


def _parse(xml_str: str):
    """Parse and strip element namespaces in place: some JATS archives
    default-namespace the whole document, which would break every
    un-namespaced path lookup and tag comparison. HTML-style named
    entities (&nbsp; etc.), illegal in plain XML, are resolved via the
    stdlib html5 table on a retry."""
    try:
        root = ET.fromstring(xml_str)
    except ET.ParseError:
        import html as _html

        def sub(m):
            name = m.group(1)
            val = _html.entities.html5.get(name + ";")
            return val if val is not None else m.group(0)

        root = ET.fromstring(_HTML_ENTITIES_RE.sub(sub, xml_str))
    if "}" in root.tag or any("}" in el.tag for el in root.iter()):
        for el in root.iter():
            if isinstance(el.tag, str) and "}" in el.tag:
                el.tag = el.tag.split("}")[-1]
    return root


def jats_text(xml_str: str) -> str:
    """Render the <body> to pubget-style text (byte-calibrated)."""
    return jats_text_and_spans(xml_str)[0]


def jats_text_and_spans(xml_str: str):
    """Returns (text, spans) where spans is a list of
    {label, start, end} dicts covering each top-level section."""
    return _text_and_spans(_parse(xml_str))


def jats_extract(xml_str: str):
    """(text, spans, metadata) from one parse: ``jats_text_and_spans``
    and ``jats_metadata`` of the same article."""
    root = _parse(xml_str)
    text, spans = _text_and_spans(root)
    return text, spans, _metadata(root, xml_str, text)


def _text_and_spans(root):
    body = root.find(".//body")
    if body is None:
        return "", []
    r = _Renderer(collect_spans=True)
    r._append(" \n")
    for ch in body:
        r.block(ch, 1)
    r._close_span()
    r._append(("" if r.prev == "title" else "\n" * r.closes) + " ")
    return "".join(r.out), r.spans


# ---------------------------------------------------------------------------
# Metadata (reference golden: processed/pubget/metadata.json —
# {title, authors, journal, keywords, abstract, publication_year,
#  coordinate_space, license, text})
# ---------------------------------------------------------------------------


def _itertext(el):
    return "".join(el.itertext()) if el is not None else None


def render_abstracts(root) -> str | None:
    """Concatenated rendering of every <abstract> in front matter."""
    abstracts = root.findall(".//front//abstract")
    if not abstracts:
        return None
    parts = []
    for ab in abstracts:
        secs = [c for c in ab if strip_ns(c.tag) == "sec"]
        if secs:
            r = _Renderer()
            for s in secs:
                r.block(s, 1)
            r._append(("" if r.prev == "title" else "\n" * r.closes) + " ")
            parts.append("".join(r.out))
        else:
            sub = []
            title_el = ab.find("title")
            if title_el is not None:
                sub.append("  " + inline(title_el) + "  \n")
            if any(strip_ns(c.tag) == "list" for c in ab.iter()):
                sub.append("  \n")
            for p in ab.iter():
                if strip_ns(p.tag) == "p" and not any(
                    strip_ns(c.tag) == "p" for c in p.iter() if c is not p
                ):
                    c = _lead(inline(p), p).strip()
                    if c:
                        sub.append(c + " \n  \n")
            sub.append("  \n")
            parts.append("".join(sub))
    return "".join(parts) or None


def jats_metadata(xml_str: str, text: str | None = None) -> dict:
    """Extract the metadata struct. ``text`` (the rendered body text, if
    already computed) feeds the coordinate-space heuristic."""
    root = _parse(xml_str)
    if text is None:
        text = _text_and_spans(root)[0]
    return _metadata(root, xml_str, text)


def _metadata(root, xml_str: str, text: str) -> dict:
    title = _itertext(root.find(".//front//title-group/article-title"))
    # authors: "Surname, Given; ..." — authors first, then (matching the
    # reference goldens) corresponding authors repeated at the end.
    def _name(contrib):
        name = contrib.find("name")
        if name is None:
            return None
        sur = name.findtext("surname") or ""
        giv = name.findtext("given-names") or ""
        if not (sur or giv):
            return None
        return f"{sur}, {giv}" if giv else sur
    authors, corresp = [], []
    for contrib in root.findall(".//front//contrib-group/contrib"):
        if contrib.get("contrib-type") not in (None, "author"):
            continue
        nm = _name(contrib)
        if nm:
            authors.append(nm)
            if contrib.get("corresp") == "yes":
                corresp.append(nm)
    authors = authors + corresp
    journal = root.findtext(".//front//journal-meta/journal-id[@journal-id-type='nlm-ta']")
    if not journal:
        journal = root.findtext(".//front//journal-title-group/journal-title")
    kwds = [(_itertext(k) or "").strip() for k in root.findall(".//front//kwd-group/kwd")]
    keywords = ("\n".join(k for k in kwds if k) + "\n") if kwds else None
    year = None
    for pd in root.findall(".//front//pub-date"):
        y = pd.findtext("year")
        if y and y.strip().isdigit():
            y = int(y.strip())
            year = y if year is None else min(year, y)
    license_href = None
    lic = root.find(".//front//license")
    if lic is not None:
        for k, v in lic.attrib.items():
            if strip_ns(k) == "href":
                license_href = v
        if license_href is None:
            for el in lic.iter():
                if strip_ns(el.tag) == "ext-link":
                    for k, v in el.attrib.items():
                        if strip_ns(k) == "href":
                            license_href = v
                            break
                if license_href:
                    break
    abstract = render_abstracts(root)
    return {
        "title": title,
        "authors": "; ".join(authors) if authors else None,
        "journal": journal,
        "keywords": keywords,
        "abstract": abstract,
        "publication_year": year,
        "coordinate_space": coordinate_space(xml_str, text or ""),
        "license": license_href,
        "text": bool(text),
    }


def coordinate_space(xml_str: str, text: str) -> str:
    """TAL / MNI / UNKNOWN. Heuristic matching the reference goldens:
    majority keyword vote over the rendered body text."""
    hay = text or ""
    tal = len(re.findall(r"[Tt]alairach", hay))
    mni = len(re.findall(r"\bMNI\b", hay))
    if tal == 0 and mni == 0:
        return "UNKNOWN"
    return "TAL" if tal > mni else "MNI"


# ---------------------------------------------------------------------------
# Coordinate-table extraction (golden: processed/*/coordinates.csv with
# columns table_id,table_label,table_caption,table_number,x,y,z,p_value,
# region,size,statistic,groups)
# ---------------------------------------------------------------------------

# Parity note: the reference goldens' coordinates.csv comes from the
# external pubget/neuroquery extractor, whose heuristics also harvest
# loosely-structured and non-coordinate tables (e.g. regression
# outputs). This parser targets well-formed stereotactic tables:
# explicit x/y/z headers, 'MNI/Talairach coordinates' colspan groups,
# and combined '[x, y, z]' cells — exact on those (e.g. 3qT3nzK9bLZ7,
# 4H46zmwJ7MNZ fixtures), ~22% xyz recall against the full golden set.

COORD_COLUMNS = [
    "table_id", "table_label", "table_caption", "table_number",
    "x", "y", "z", "p_value", "region", "size", "statistic", "groups",
]

_NUM_RE = re.compile(r"^[+−–-]?\d+(?:\.\d+)?$")


def _cellnum(s):
    s = (s or "").strip().replace("−", "-").replace("–", "-").lstrip("+")
    if _NUM_RE.match(s):
        try:
            return float(s)
        except ValueError:
            return None
    return None


def _grid(table_el):
    """Flatten a JATS <table> into list-of-rows of cell text, expanding
    colspans (rowspans ignored — coordinates never span rows)."""
    rows = []
    for tr in table_el.iter():
        if strip_ns(tr.tag) != "tr":
            continue
        row = []
        for cell in tr:
            if strip_ns(cell.tag) not in ("td", "th"):
                continue
            txt = "".join(cell.itertext()).strip()
            span = int(cell.get("colspan", "1") or "1")
            row.append(txt)
            row.extend([""] * (span - 1))
        rows.append(row)
    return rows


def _header_roles(header_rows):
    """Map column index -> role from header text. Handles:
    - plain x / y / z column headers;
    - a group header like 'MNI coordinates' spanning 3 columns (the
      colspan expansion leaves '' in the following cells) -> assigns
      x, y, z to those columns (multiple groups supported);
    - a combined header mentioning 'x, y, z' over a single column ->
      role 'xyz' (the cell holds a coordinate triple)."""
    roles = {}
    ncols = max((len(r) for r in header_rows), default=0)
    for row in header_rows:
        for i, h in enumerate(row):
            hl = h.strip().lower().rstrip(".:")
            if not hl:
                continue
            has_xyz_words = re.search(r"x\s*,?\s*y\s*,?\s*z", hl)
            is_coord_group = re.search(r"(coordinates?|\bmni\b|talairach)", hl)
            span3 = (
                i + 2 < len(row)
                and row[i + 1] == ""
                and row[i + 2] == ""
            )
            if (is_coord_group or has_xyz_words) and span3:
                for off, ax in enumerate(("x", "y", "z")):
                    roles.setdefault(i + off, ax)
            elif has_xyz_words or (is_coord_group and not span3 and has_xyz_words):
                roles.setdefault(i, "xyz")
            elif hl in ("x", "y", "z"):
                roles.setdefault(i, hl)
            elif hl in ("p", "p value", "p-value", "p-val", "pvalue"):
                roles.setdefault(i, "p_value")
            elif hl in ("region", "area", "brain region", "brain area", "brain areas",
                        "anatomical region", "anatomical location", "structure",
                        "label", "regions"):
                roles.setdefault(i, "region")
            elif hl in ("k", "size", "voxels", "cluster size", "no. of voxels",
                        "extent", "n voxels"):
                roles.setdefault(i, "size")
            elif hl in ("t", "z score", "z-score", "t value", "t-value", "t-values",
                        "statistic", "z max", "t max", "f", "peak t"):
                roles.setdefault(i, "statistic")
            elif hl in ("group", "groups", "contrast", "condition"):
                roles.setdefault(i, "groups")
    return roles


_TRIPLE_RE = re.compile(
    r"([+−–-]?\d+(?:\.\d+)?)[,;\s]+([+−–-]?\d+(?:\.\d+)?)[,;\s]+([+−–-]?\d+(?:\.\d+)?)"
)


def _parse_triple(cell: str):
    m = _TRIPLE_RE.search((cell or "").strip().strip("[]()"))
    if not m:
        return None
    return tuple(_cellnum(g) for g in m.groups())


def jats_coordinates(xml_str: str) -> list[dict]:
    """Extract stereotactic coordinate rows from every <table-wrap> whose
    table has x/y/z headed columns. Returns list of COORD_COLUMNS dicts."""
    root = _parse(xml_str)
    out = []
    for tw in root.iter():
        if strip_ns(tw.tag) != "table-wrap":
            continue
        table_id = tw.get("id")
        label_el = tw.find("label")
        label = "".join(label_el.itertext()).strip() if label_el is not None else None
        cap_el = tw.find("caption")
        caption = None
        if cap_el is not None:
            caption = " ".join("".join(c.itertext()).strip() for c in cap_el) or None
        m = re.search(r"(\d+)", label or "")
        number = m.group(1) if m else None
        for table in tw.iter():
            if strip_ns(table.tag) != "table":
                continue
            rows = _grid(table)
            if not rows:
                continue
            # header rows = leading rows that contain any non-numeric text
            header_rows = []
            body_start = 0
            for idx, row in enumerate(rows):
                if any(_cellnum(c) is not None for c in row):
                    body_start = idx
                    break
                header_rows.append(row)
                body_start = idx + 1
            roles = _header_roles(header_rows)
            xs = sorted(i for i, r in roles.items() if r == "x")
            ys = sorted(i for i, r in roles.items() if r == "y")
            zs = sorted(i for i, r in roles.items() if r == "z")
            xyz_groups = [
                (x, y, z) for x, y, z in zip(xs, ys, zs)
            ] if xs and ys and zs else []
            combined_cols = sorted(i for i, r in roles.items() if r == "xyz")
            if not xyz_groups and not combined_cols:
                continue
            ri = next((i for i, r in roles.items() if r == "region"), None)
            region_carry = None
            for row in rows[body_start:]:
                get = lambda i: row[i] if i < len(row) else ""
                if ri is not None and get(ri):
                    region_carry = get(ri)
                triples = []
                for xi, yi, zi in xyz_groups:
                    triples.append((_cellnum(get(xi)), _cellnum(get(yi)), _cellnum(get(zi))))
                for ci in combined_cols:
                    t = _parse_triple(get(ci))
                    triples.append(t if t else (None, None, None))
                for x, y, z in triples:
                    if x is None or y is None or z is None:
                        continue
                    rec = {
                        "table_id": table_id,
                        "table_label": label,
                        "table_caption": caption,
                        "table_number": number,
                        "x": x,
                        "y": y,
                        "z": z,
                        "p_value": None,
                        "region": region_carry,
                        "size": None,
                        "statistic": None,
                        "groups": None,
                    }
                    for i, role in roles.items():
                        if role in ("p_value", "size", "statistic", "groups"):
                            v = get(i).strip()
                            rec[role] = v or None
                    out.append(rec)
    return out
