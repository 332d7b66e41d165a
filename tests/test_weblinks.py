"""Outlink extraction kernel + host in-degree aggregate."""

import pandas as pd
import pytest

from conftest import force_routes
from neurostore_text_extraction_ray.functions.weblinks import (
    extract_hrefs, href_host, outlinks_frame)

SF = "/root/testdata/sf0.001"


def test_extract_hrefs_edge_cases():
    assert extract_hrefs("") == []
    assert extract_hrefs("<p>no links</p>") == []
    # single + double quotes, attribute order, case, multiline tag
    html = (
        '<a href="https://a.example/x">1</a>'
        "<a class='c' href='https://b.example/y'>2</a>"
        '<A HREF="https://c.example/z">3</A>'
        '<a rel="nofollow"\n   href="/rel/path">4</a>'
        '<a name="no-href-anchor">5</a>'
        '<area href="https://not-an-anchor.example">'
    )
    assert extract_hrefs(html) == [
        "https://a.example/x", "https://b.example/y",
        "https://c.example/z", "/rel/path"]


def test_extract_hrefs_attribute_boundary_and_quotes():
    # ADVICE r04 #1: suffixed attribute names must NOT match — the
    # real href wins over data-href
    html = '<a data-href="https://wrong.example" href="https://right.example/p">x</a>'
    assert extract_hrefs(html) == ["https://right.example/p"]
    # a double-quoted value may contain the opposite quote char
    assert extract_hrefs('<a href="https://h.example/O\'Brien">x</a>') == [
        "https://h.example/O'Brien"]
    assert extract_hrefs("<a href='https://h.example/a\"b'>x</a>") == [
        'https://h.example/a"b']
    # mismatched quotes never match (no cross-quote truncation)
    assert extract_hrefs("<a href=\"https://h.example/m'>x</a>") == []
    # href as the FIRST attribute still matches (optional prefix)
    assert extract_hrefs('<a href="/first">x</a>') == ["/first"]
    # empty href is extracted as an empty string, not dropped
    assert extract_hrefs('<a href="">x</a>') == [""]
    # hreflang is not href
    assert extract_hrefs('<a hreflang="en">x</a>') == []


def test_outlinks_frame_mixed_quote_styles():
    df = pd.DataFrame({
        "doc_id": [1],
        "html": ["<a href='https://s.example/one'>a</a>"
                 '<a href="https://s.example/two">b</a>'],
    })
    out = outlinks_frame(df)
    assert out["href"].tolist() == [
        "https://s.example/one", "https://s.example/two"]
    assert out["ord"].tolist() == [0, 1]


def test_href_host():
    assert href_host("https://Sub.Site.example/p?q#f") == "sub.site.example"
    assert href_host("ftp://h.example/f") == "h.example"
    assert href_host("/relative/only") is None
    assert href_host("") is None


def test_outlinks_frame_explode_and_order():
    df = pd.DataFrame({
        "doc_id": [10, 11, 12],
        "html": [
            '<a href="https://x.example/1">a</a><a href="/rel">b</a>',
            "<p>none</p>",
            '<a href="https://y.example/2">c</a>',
        ],
    }, index=[5, 9, 2])  # non-range index must not break the explode
    out = outlinks_frame(df)
    assert out["doc_id"].tolist() == [10, 10, 12]
    assert out["ord"].tolist() == [0, 1, 0]
    assert out["host"].tolist() == ["x.example", None, "y.example"]


def test_outlinks_query_semantics(ray_session):
    from neurostore_text_extraction_ray.pipelines.extras import (
        _docs_outlinks)

    out = _docs_outlinks(SF).to_pandas()
    # absolute anchors: k = doc_id % 4 per doc; relative on doc_id % 5
    rel = out[out["host"].isna()]
    assert (rel["doc_id"] % 5 == 0).all()
    assert rel["href"].eq("/nav/local").all()
    absolute = out.dropna(subset=["host"])
    per_doc = absolute.groupby("doc_id").size()
    assert ((per_doc.index % 4) == per_doc.to_numpy()).all()


def test_host_indegree_hub_and_equivalence(ray_session, monkeypatch):
    from neurostore_text_extraction_ray.pipelines.extras import (
        _host_indegree)

    drv = _host_indegree(SF).to_pandas().sort_values("host") \
        .reset_index(drop=True)
    # site0 is the planted hub (j = 0 always targets it) and some docs
    # repeat a host within one page, so n_links > n_docs somewhere
    hub = drv.set_index("host")
    assert hub.loc["site0.example", "n_links"] == hub["n_links"].max()
    assert (drv["n_links"] > drv["n_docs"]).any()
    force_routes(monkeypatch, "domain")
    exch = _host_indegree(SF).to_pandas().sort_values("host") \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(drv, exch)


def test_anchor_text_kernel():
    from neurostore_text_extraction_ray.functions.weblinks import (
        anchor_text, anchors_frame, extract_hrefs)

    # inner markup stripped, whitespace collapsed
    assert anchor_text("  click   <b>here</b>\n now ") == "click here now"
    assert anchor_text("") == ""
    df = pd.DataFrame({
        "doc_id": [1, 2],
        "html": [
            '<a href="https://a.example/x"><img src="i.png"/> Logo '
            "<span>text</span></a>"
            "<a href='/rel'>plain</a>",
            "<p>no links</p>",
        ],
    })
    out = anchors_frame(df)
    assert out["doc_id"].tolist() == [1, 1]
    assert out["anchor"].tolist() == ["Logo text", "plain"]
    assert out["host"].tolist() == ["a.example", None]
    # an anchor without a closing tag is outside the subset: dropped by
    # anchors_frame but still seen by the href-only kernel
    html = '<a href="https://x.example/1">unclosed'
    assert extract_hrefs(html) == ["https://x.example/1"]
    assert len(anchors_frame(pd.DataFrame({"doc_id": [9],
                                           "html": [html]}))) == 0


def test_anchors_query_semantics(ray_session):
    from neurostore_text_extraction_ray.pipelines.extras import (
        _docs_outlinks, _docs_outlinks_anchored)

    anch = _docs_outlinks_anchored(SF).to_pandas()
    plain = _docs_outlinks(SF).to_pandas()
    # same link set as the href-only pass, plus the anchor text
    a = anch[["doc_id", "ord", "href", "host"]].sort_values(
        ["doc_id", "ord"]).reset_index(drop=True)
    b = plain.sort_values(["doc_id", "ord"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    absolute = anch[anch["host"].notna()]
    assert (absolute["anchor"] == "l" + absolute["ord"].astype(str)).all()
    assert (anch[anch["host"].isna()]["anchor"] == "nav").all()


def test_host_anchor_topk_semantics_and_gates(ray_session, monkeypatch):
    from neurostore_text_extraction_ray.pipelines.extras import (
        _docs_outlinks_anchored, _host_anchor_topk)

    k = 2
    out = _host_anchor_topk(SF, k=k).to_pandas()
    # independent recompute from the anchored outlink stream
    links = _docs_outlinks_anchored(SF).to_pandas().dropna(subset=["host"])
    counts = links.groupby(["host", "anchor"]).agg(
        n_links=("doc_id", "size"),
        n_docs=("doc_id", "nunique")).reset_index()
    counts = counts.sort_values(["host", "n_links", "anchor"],
                                ascending=[True, False, True],
                                kind="stable").reset_index(drop=True)
    counts["rnk"] = counts.groupby("host").cumcount() + 1
    expect = counts[counts["rnk"] <= k].reset_index(drop=True).astype(
        {"n_links": "int64", "n_docs": "int64", "rnk": "int64"})
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True),
        expect[["host", "anchor", "n_links", "n_docs", "rnk"]])
    # rank sanity: rnk is 1-based and dense per host; at most k rows
    assert (out.groupby("host")["rnk"].min() == 1).all()
    assert (out.groupby("host")["rnk"].max() <= k).all()
    # both budget gates forced onto the exchange paths: identical output
    force_routes(monkeypatch, "terms", "topk_partials")
    exch = _host_anchor_topk(SF, k=k).to_pandas()
    pd.testing.assert_frame_equal(out, exch)
