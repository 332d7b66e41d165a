"""Flagship pipeline end-to-end on sf0.001: synthesis -> dedup ->
extract -> resumable parquet sink. Verifies extracted text equals the
SQL-reconstructible expectation, dedup keeps the latest fetch, failure
counters fire, and resume skips completed parts."""

import glob
import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

from neurostore_text_extraction_ray.sources import pages as pages_src
from neurostore_text_extraction_ray.pipelines import flagship

SF = "/root/testdata/sf0.001"

pytestmark = pytest.mark.skipif(not os.path.isdir(SF), reason="testdata unavailable")


@pytest.fixture(scope="module")
def extracted(ray_session, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("flagship"))
    ds = pages_src.read_pages(SF)
    run_dir, summary = flagship.run_flagship_to_parquet(
        ds, out, num_parts=8, input_path=f"{SF}/documents.parquet"
    )
    return run_dir, summary


def _read_all(run_dir):
    files = sorted(glob.glob(os.path.join(run_dir, "parts", "part-*.parquet")))
    return pq.ParquetDataset(files).read()


def _table(ds):
    import pyarrow as pa

    return pa.concat_tables(
        list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))


def test_row_counts_and_dedup(extracted, ray_session):
    run_dir, summary = extracted
    table = _read_all(run_dir)
    # one row per unique url (500 docs; duplicates collapsed)
    assert table.num_rows == 500
    urls = table["url"].to_pylist()
    assert len(set(urls)) == 500


def test_extracted_text_matches_expectation(extracted):
    run_dir, _ = extracted
    table = _read_all(run_dir)
    import duckdb

    docs = duckdb.connect().execute(
        f"SELECT doc_id, text FROM read_parquet('{SF}/documents.parquet')"
    ).fetchall()
    by_url = dict(zip(table["url"].to_pylist(), table["extracted_text"].to_pylist()))
    checked = 0
    for doc_id, text in docs:
        if doc_id % pages_src.BAD_UTF8_MOD == pages_src.BAD_UTF8_REM:
            continue
        if doc_id % pages_src.EMPTY_MOD == pages_src.EMPTY_REM:
            continue
        rev = 1 if doc_id % pages_src.DUP_MOD == 0 else 0  # dedup keeps latest
        assert by_url[pages_src.url_for(doc_id)] == pages_src.expected_text(
            doc_id, text, rev
        ), doc_id
        checked += 1
    assert checked > 450


def test_failure_counters(extracted):
    run_dir, summary = extracted
    mans = [json.load(open(f)) for f in glob.glob(os.path.join(run_dir, "manifests", "*.json"))]
    n_fail = sum(m["n_parse_failed"] for m in mans)
    n_empty = sum(m["n_empty"] for m in mans)
    # deterministic edge rows: doc_id%101==3 -> bad utf8; doc_id%97==5 -> empty
    expect_fail = len([d for d in range(500) if d % 101 == 3])
    expect_empty = len([d for d in range(500) if d % 97 == 5 and d % 101 != 3])
    assert n_fail == expect_fail
    assert n_empty == expect_empty
    for m in mans:
        assert m["parser_version"] >= 1
        assert m["input_file"].endswith("documents.parquet")
        assert m["url_range"][0] <= m["url_range"][1]


def test_spans_and_metadata_columns(extracted):
    run_dir, _ = extracted
    table = _read_all(run_dir)
    row = {n: table[n][0].as_py() for n in table.column_names}
    assert isinstance(row["spans"], list)
    md = row["metadata"]
    assert set(md) >= {"title", "authors", "journal", "publication_year", "text"}


def test_resume_skips_completed_parts(extracted, ray_session, tmp_path):
    """Kill/resume semantics: delete one part's data+manifest, re-run,
    only that part is rewritten and the corpus is complete again."""
    run_dir, _ = extracted
    victim_data = sorted(glob.glob(os.path.join(run_dir, "parts", "part-*.parquet")))[0]
    victim_man = os.path.join(
        run_dir, "manifests", os.path.basename(victim_data).replace(".parquet", ".json")
    )
    os.remove(victim_data)
    os.remove(victim_man)
    before = set(glob.glob(os.path.join(run_dir, "parts", "*.parquet")))
    ds = pages_src.read_pages(SF)
    run_dir2, summary2 = flagship.run_flagship_to_parquet(
        ds, os.path.dirname(run_dir), num_parts=8,
        input_path=f"{SF}/documents.parquet",
    )
    assert run_dir2 == run_dir  # same config -> same run id
    assert len(summary2) == 1  # only the missing part was processed
    assert summary2["partition_id"].iloc[0] == int(
        os.path.basename(victim_data)[5:10]
    )
    table = _read_all(run_dir)
    assert table.num_rows == 500  # complete again


def test_jats_pages_path(ray_session):
    """pages_xml variant through the same flagship stages."""
    ds = pages_src.read_pages_xml(SF)
    out = flagship.flagship_dataset(ds, payload_column="xml", mode="jats",
                                    concurrency=2)
    table = out.take_batch(50, batch_format="pyarrow")
    text0 = table["extracted_text"][0].as_py()
    assert "## Introduction \n  \n" in text0
    labels = [s["label"] for s in table["spans"][0].as_py()]
    assert labels == ["intro", "results"]


def test_empty_parts_get_manifests(ray_session, tmp_path):
    """num_parts larger than the url space: empty parts still write
    manifests so resume marks them complete."""
    import pyarrow as pa
    import ray.data as rd

    from neurostore_text_extraction_ray.sources import pages as pages_src

    few = pa.table({
        "url": pa.array([pages_src.url_for(i) for i in range(3)], pa.string()),
        "warc_ts": pa.array([pages_src.ts_for(i, 0) for i in range(3)], pa.timestamp("us")),
        "html": pa.array([pages_src.html_for(i, "alpha beta", 0) for i in range(3)], pa.binary()),
    })
    run_dir, summary = flagship.run_flagship_to_parquet(
        rd.from_arrow(few), str(tmp_path), num_parts=8, input_path="<inline>",
    )
    from neurostore_text_extraction_ray.state import manifest as mf

    assert len(mf.completed_parts(run_dir)) == 8
    assert int(summary["rows"].sum()) == 3
    # stage (exchange) dir cleaned once all parts completed
    assert not os.path.isdir(os.path.join(run_dir, "stage"))
    # empty parts share the full output schema -> uniform reads work
    table = _read_all(run_dir)
    assert table.num_rows == 3
    assert "extracted_text" in table.column_names


def test_null_urls_not_collapsed():
    """Null urls must stay distinct rows in dedup, never merged."""
    import numpy as np
    import pyarrow as pa

    idx = flagship._latest_per_url_indices(
        np.array(["a", None, None, "a"], dtype=object),
        np.array(["2024-01-01", "2024-01-01", "2024-01-02", "2024-01-03"],
                 dtype="datetime64[us]"),
        pa.array([b"x", b"x", b"x", b"y"]),
    )
    assert len(idx) == 3  # latest 'a' + both nulls


def test_read_flagship_output(extracted, ray_session):
    run_dir, _ = extracted
    ds, manifests = flagship.read_flagship_output(run_dir)
    assert ds.count() == 500
    assert len(manifests) == 8
    assert all("n_parse_failed" in m for m in manifests)


def test_hot_key_skew(ray_session, tmp_path):
    """5,000 fetches of ONE url (hot key) collapse to a single row and
    don't break partitioning."""
    import pyarrow as pa
    import ray.data as rd

    n = 5000
    hot = pa.table({
        "url": pa.array(["https://hot.example.org/x"] * n, pa.string()),
        "warc_ts": pa.array([pages_src.ts_for(i, 0) for i in range(n)],
                            pa.timestamp("us")),
        "html": pa.array([pages_src.html_for(1, f"rev {i}", 0) for i in range(n)],
                         pa.binary()),
    })
    run_dir, summary = flagship.run_flagship_to_parquet(
        rd.from_arrow(hot), str(tmp_path), num_parts=4, input_path="<hot>",
    )
    table = _read_all(run_dir)
    assert table.num_rows == 1
    assert f"rev {n-1}" in table["extracted_text"][0].as_py()  # latest wins


def test_empty_input(ray_session, tmp_path):
    import pyarrow as pa
    import ray.data as rd

    empty = pa.table({
        "url": pa.array([], pa.string()),
        "warc_ts": pa.array([], pa.timestamp("us")),
        "html": pa.array([], pa.binary()),
    })
    run_dir, summary = flagship.run_flagship_to_parquet(
        rd.from_arrow(empty), str(tmp_path), num_parts=4, input_path="<empty>",
    )
    from neurostore_text_extraction_ray.state import manifest as mf

    assert len(mf.completed_parts(run_dir)) == 4
    assert _read_all(run_dir).num_rows == 0


def test_fragment_ids_distinguish_same_url_sets(ray_session, tmp_path):
    """Regression: two phase-A batches carrying the SAME url set but
    different fetches (the normal case when each batch holds one fetch
    per url) must write DISTINCT fragment files — a content-blind
    fragment id silently drops one batch and latest-wins dedup then
    emits the stale fetch."""
    import pyarrow as pa
    import ray.data as rd

    n = 512
    def fetch_table(rev):
        return pa.table({
            "url": pa.array([pages_src.url_for(i) for i in range(n)], pa.string()),
            "warc_ts": pa.array([pages_src.ts_for(i, rev) for i in range(n)],
                                pa.timestamp("us")),
            "html": pa.array([pages_src.html_for(i, f"payload rev{rev}", rev)
                              for i in range(n)], pa.binary()),
        })

    # newest fetch first, stale second: two blocks, identical url lists
    ds = rd.from_arrow([fetch_table(1), fetch_table(0)])
    run_dir, _ = flagship.run_flagship_to_parquet(
        ds, str(tmp_path), num_parts=4, input_path="<fragcollide>",
    )
    table = _read_all(run_dir)
    assert table.num_rows == n
    checked = 0
    for url, text in zip(table["url"].to_pylist(),
                         table["extracted_text"].to_pylist()):
        did = int(url.rsplit("/", 1)[1])
        if did % pages_src.BAD_UTF8_MOD == pages_src.BAD_UTF8_REM:
            continue
        if did % pages_src.EMPTY_MOD == pages_src.EMPTY_REM:
            continue
        assert "rev1" in text, f"stale fetch won for doc {did} — fragment id collided"
        checked += 1
    assert checked > 490


def test_dedup_pages_keeps_the_latest_fetch(ray_session):
    """dedup_pages keeps one (url, warc_ts, html) row per url, the
    latest fetch."""
    out = _table(flagship.dedup_pages(pages_src.read_pages(SF), num_parts=8))
    assert out.column_names == ["url", "warc_ts", "html"]
    assert out.num_rows == len(set(out["url"].to_pylist())) == 500
    for url, ts in zip(out["url"].to_pylist(), out["warc_ts"].to_pylist()):
        did = int(url.rsplit("/", 1)[1])
        assert ts == pages_src.ts_for(did, pages_src.revs_for(did)[-1])


def _inline_pages(texts):
    import pyarrow as pa
    import ray.data as rd

    n = len(texts)
    return rd.from_arrow(pa.table({
        "url": pa.array([pages_src.url_for(i) for i in range(n)], pa.string()),
        "warc_ts": pa.array([pages_src.ts_for(i, 0) for i in range(n)],
                            pa.timestamp("us")),
        "html": pa.array([pages_src.html_for(i, texts[i], 0) for i in range(n)],
                         pa.binary()),
    }))


def test_incremental_reprocesses_only_changed_urls(ray_session, tmp_path):
    """Per-document change detection (reference base.py:372-411 /
    test_example_extractor.py:262-392 at url granularity): editing ONE
    document rewrites exactly one part and re-extracts only that url;
    an unchanged rerun rewrites nothing."""
    n = 40
    texts = [f"stable content number {i} with several words" for i in range(n)]
    run_dir, s1 = flagship.run_flagship_to_parquet(
        _inline_pages(texts), str(tmp_path), num_parts=4, incremental=True)
    assert int(s1["n_extracted"].sum()) == n
    part_files = sorted(glob.glob(os.path.join(run_dir, "parts", "*.parquet")))
    sidecars = sorted(glob.glob(os.path.join(run_dir, "manifests",
                                             "inputs-part-*.parquet")))
    assert len(sidecars) == 4
    before = {f: os.stat(f).st_mtime_ns for f in part_files}
    out1 = {r["url"]: r["extracted_text"]
            for r in _read_all(run_dir).to_pylist()}

    # unchanged rerun: every part clean, zero extractions, zero rewrites
    run_dir2, s2 = flagship.run_flagship_to_parquet(
        _inline_pages(texts), str(tmp_path), num_parts=4, incremental=True)
    assert run_dir2 == run_dir  # stable run id across reruns
    assert int(s2["n_extracted"].sum()) == 0
    assert int(s2["n_reused"].sum()) == n
    assert {f: os.stat(f).st_mtime_ns for f in part_files} == before

    # edit exactly one document
    texts2 = list(texts)
    texts2[7] = "edited content for document seven entirely new words"
    run_dir3, s3 = flagship.run_flagship_to_parquet(
        _inline_pages(texts2), str(tmp_path), num_parts=4, incremental=True)
    assert run_dir3 == run_dir
    assert int(s3["n_extracted"].sum()) == 1
    after = {f: os.stat(f).st_mtime_ns for f in part_files}
    rewritten = [f for f in part_files if after[f] != before[f]]
    assert len(rewritten) == 1  # exactly one part rewritten
    out3 = {r["url"]: r["extracted_text"]
            for r in _read_all(run_dir).to_pylist()}
    url7 = pages_src.url_for(7)
    assert out3[url7] != out1[url7]
    assert out3[url7] == pages_src.expected_text(7, texts2[7], 0)
    for u, t in out1.items():
        if u != url7:
            assert out3[u] == t

    # a dirty part's merged file equals what a from-scratch run writes
    fresh_dir, _ = flagship.run_flagship_to_parquet(
        _inline_pages(texts2), str(tmp_path / "fresh"), num_parts=4,
        incremental=True)
    for f in part_files:
        fresh = os.path.join(fresh_dir, "parts", os.path.basename(f))
        assert open(f, "rb").read() == open(fresh, "rb").read()


def test_incremental_url_removal(ray_session, tmp_path):
    """A url REMOVED from the input makes its part dirty: the part is
    rewritten without that url (stale rows never linger)."""
    n = 24
    texts = [f"doc number {i} original body words" for i in range(n)]
    run_dir, _ = flagship.run_flagship_to_parquet(
        _inline_pages(texts), str(tmp_path), num_parts=4, incremental=True)
    gone = pages_src.url_for(5)
    assert gone in {r["url"] for r in _read_all(run_dir).to_pylist()}

    import pyarrow as pa
    import ray.data as rd

    keep = [i for i in range(n) if i != 5]
    pages2 = rd.from_arrow(pa.table({
        "url": pa.array([pages_src.url_for(i) for i in keep], pa.string()),
        "warc_ts": pa.array([pages_src.ts_for(i, 0) for i in keep],
                            pa.timestamp("us")),
        "html": pa.array([pages_src.html_for(i, texts[i], 0) for i in keep],
                         pa.binary()),
    }))
    _, s2 = flagship.run_flagship_to_parquet(
        pages2, str(tmp_path), num_parts=4, incremental=True)
    urls = {r["url"] for r in _read_all(run_dir).to_pylist()}
    assert gone not in urls
    assert len(urls) == n - 1
    assert int(s2["n_extracted"].sum()) == 0  # nothing changed content


def test_incremental_crash_resume_re_extracts_part(ray_session, tmp_path):
    """Deleting a part's manifest (= crash before the completeness
    marker landed) forces a FULL re-extract of that part on the next
    incremental run, never a mixed merge against unknown state."""
    n = 24
    texts = [f"doc number {i} body" for i in range(n)]
    run_dir, _ = flagship.run_flagship_to_parquet(
        _inline_pages(texts), str(tmp_path), num_parts=4, incremental=True)
    man = sorted(glob.glob(os.path.join(run_dir, "manifests", "part-*.json")))[1]
    part_rows = json.load(open(man))["rows"]
    os.remove(man)
    _, s2 = flagship.run_flagship_to_parquet(
        _inline_pages(texts), str(tmp_path), num_parts=4, incremental=True)
    # the marker-less part re-extracted fully; the other three are clean
    assert int(s2["n_extracted"].sum()) == part_rows
    assert os.path.exists(man)


def test_sink_exchanges_only_what_phase_b_reads(ray_session, tmp_path, monkeypatch):
    """Page columns phase B does not read (``text``, ``lang`` and an
    unknown one) change nothing the sink writes, and its committed
    fragments hold only (url, warc_ts, html)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from neurostore_text_extraction_ray.stages import exchange as ex

    n = 200
    texts = [f"doc {i} words &amp; more" for i in range(n)]
    base = pa.table({
        "url": pa.array([pages_src.url_for(i % 150) for i in range(n)],
                        pa.string()),
        "warc_ts": pa.array([pages_src.ts_for(i % 150, i // 150)
                             for i in range(n)], pa.timestamp("us")),
        "html": pa.array([pages_src.html_for(i, texts[i], 0)
                          for i in range(n)], pa.binary()),
    })
    wide = base.append_column("text", pa.array(texts)) \
        .append_column("lang", pa.array(["en"] * n)) \
        .append_column("extra", pa.array(np.arange(n), pa.int64()))

    fragment_columns = []
    real_part_files = ex.part_files

    def recording_part_files(stage_dir):
        files = real_part_files(stage_dir)
        for fs in files.values():
            for f in fs:
                with pa.OSFile(f) as src:
                    fragment_columns.append(pa.ipc.open_file(src).schema.names)
        return files

    monkeypatch.setattr(ex, "part_files", recording_part_files)

    def run(table, out):
        run_dir, _ = flagship.run_flagship_to_parquet(
            rd.from_arrow([table.slice(0, 120), table.slice(120)]),
            str(tmp_path / out), num_parts=4, input_path="<columns>")
        files = sorted(
            glob.glob(os.path.join(run_dir, "parts", "*.parquet"))
            + glob.glob(os.path.join(run_dir, "manifests", "inputs-*.parquet")))
        return {os.path.relpath(f, run_dir): open(f, "rb").read()
                for f in files}

    narrow_out = run(base, "narrow")
    fragment_columns.clear()
    wide_out = run(wide, "wide")
    assert len(narrow_out) == 8  # 4 parts + 4 sidecars
    assert wide_out == narrow_out
    assert fragment_columns
    assert all(c == ["url", "warc_ts", "html"] for c in fragment_columns)


def test_sink_breaks_timestamp_ties_the_same_on_every_run(ray_session, tmp_path):
    """Two fetches of a url with one warc_ts and different html, in
    different phase-A batches, resolve to the same winner on every run
    and in either block order: the runs write byte-identical part
    files."""
    import pyarrow as pa
    import ray.data as rd

    n, tied = 4100, 40  # each block is at least one whole phase-A batch
    ts = pages_src.ts_for(0, 0)

    def block(tag: str, first: int) -> pa.Table:
        ids = list(range(tied)) + list(range(first, first + n - tied))
        return pa.table({
            "url": pa.array([pages_src.url_for(i) for i in ids], pa.string()),
            "warc_ts": pa.array([ts] * n, pa.timestamp("us")),
            "html": pa.array([f"<p>{tag} {i}</p>".encode() for i in ids],
                             pa.binary()),
        })

    blocks = [block("first", 1_000), block("second", 10_000)]

    def run(out):
        run_dir, summary = flagship.run_flagship_to_parquet(
            rd.from_arrow(blocks), str(tmp_path / out), num_parts=8,
            input_path="<ties>")
        assert int(summary["rows"].sum()) == 2 * n - tied
        files = sorted(
            glob.glob(os.path.join(run_dir, "parts", "*.parquet"))
            + glob.glob(os.path.join(run_dir, "manifests", "inputs-*.parquet")))
        return {os.path.relpath(f, run_dir): open(f, "rb").read()
                for f in files}

    first = run("a")
    assert len(first) == 16  # 8 parts + 8 sidecars
    assert run("b") == first
    blocks.reverse()  # the winner follows the data, not the block order
    assert run("c") == first


def _tied_block(payload):
    import pyarrow as pa

    return pa.table({
        "url": pa.array([pages_src.url_for(1)], pa.string()),
        "warc_ts": pa.array([pages_src.ts_for(1, 0)], pa.timestamp("us")),
        "html": pa.array([payload], pa.binary()),
    })


TIES = {
    "differ": [b"<p>one</p>", b"<p>two</p>"],
    "identical": [b"<p>one</p>", b"<p>one</p>"],
    "null_payload": [None, b"<p>one</p>"],
}


@pytest.mark.parametrize("case", list(TIES))
def test_stream_and_sink_agree_on_tied_fetches(ray_session, tmp_path, case):
    """Two fetches of one url with one warc_ts, in two one-row blocks:
    ``flagship_dataset`` returns exactly one row, the sink's, whatever
    the block order (the larger payload wins, NULL lowest)."""
    import ray.data as rd

    rows = []
    for i, payloads in enumerate((TIES[case], TIES[case][::-1])):
        blocks = [_tied_block(p) for p in payloads]
        stream = _table(flagship.flagship_dataset(rd.from_arrow(blocks)))
        assert stream.num_rows == 1
        run_dir, _ = flagship.run_flagship_to_parquet(
            rd.from_arrow(blocks), str(tmp_path / str(i)), num_parts=2)
        sink = _read_all(run_dir)
        cols = ["url", "extracted_text", "parse_failed", "empty"]
        assert stream.select(cols).to_pylist() == sink.select(cols).to_pylist()
        rows.append(stream.to_pylist())
    assert rows[0] == rows[1]
    assert rows[0][0]["extracted_text"] == ("two" if case == "differ" else "one")


def test_pipeline_info_records_versions(ray_session, tmp_path):
    """pipeline_info.json records the Python, pandas, pyarrow and Ray
    versions; the run id does not depend on them."""
    import platform

    import pandas as pd
    import pyarrow as pa
    import ray

    run_dir, _ = flagship.run_flagship_to_parquet(
        _inline_pages(["alpha beta"]), str(tmp_path), num_parts=2)
    info = json.load(open(os.path.join(run_dir, "pipeline_info.json")))
    assert info["versions"] == {
        "python": platform.python_version(), "pandas": pd.__version__,
        "pyarrow": pa.__version__, "ray": ray.__version__}
    assert "versions" not in info["config"]
