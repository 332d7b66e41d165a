"""The sink's phase-A source choice: a bare ``read_parquet`` of files runs
one plain Ray task per file (or row-group range), any other Dataset the
Ray Data map; both give the parts and sidecars that the same rows give
through ``from_arrow``. Also the file tasks' retry and size split, and
the one-writer rule for the sink's stage."""

import glob
import json
import os
import uuid

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from neurostore_text_extraction_ray.pipelines import flagship
from neurostore_text_extraction_ray.sources import pages as pages_src
from neurostore_text_extraction_ray.stages import exchange as ex

COLUMNS = ["url", "warc_ts", "html"]
N_FILES, ROWS_PER_FILE = 3, 60


def _pages(n_files: int = N_FILES, rows: int = ROWS_PER_FILE) -> list:
    """One table per input file. Urls repeat across files with later
    fetch times (refetches), never with an equal (url, warc_ts)."""
    tables = []
    for f in range(n_files):
        ids = [(f * rows // 2 + i) for i in range(rows)]
        tables.append(pa.table({
            "url": pa.array([pages_src.url_for(i) for i in ids], pa.string()),
            "warc_ts": pa.array([pages_src.ts_for(i, f) for i in ids],
                                pa.timestamp("us")),
            "html": pa.array([pages_src.html_for(i, f"file {f} doc {i}", f)
                              for i in ids], pa.binary()),
            "lang": pa.array(["en", "de"] * (rows // 2)),
        }))
    return tables


@pytest.fixture(scope="module")
def page_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("pages")
    files = []
    for i, t in enumerate(_pages()):
        files.append(str(d / f"pages-{i}.parquet"))
        pq.write_table(t, files[-1])
    return str(d), files


def _outputs(run_dir: str) -> dict:
    files = sorted(
        glob.glob(os.path.join(run_dir, "parts", "*.parquet"))
        + glob.glob(os.path.join(run_dir, "manifests", "inputs-*.parquet")))
    return {os.path.relpath(f, run_dir): open(f, "rb").read() for f in files}


def _sink(ds, out, num_parts: int = 4) -> dict:
    run_dir, _ = flagship.run_flagship_to_parquet(
        ds, str(out), num_parts=num_parts, input_path="<pages>")
    assert not os.path.exists(os.path.join(run_dir, "stage"))
    return _outputs(run_dir)


def _record_dedup_calls(monkeypatch, record_dir) -> None:
    """Wrap the phase-A partial dedup so every call, in whatever worker
    runs it, leaves a record of its input rows and its Ray task name
    (the wrapper travels inside the pickled phase-A batch function)."""
    import ray

    real = flagship.partial_dedup_batch
    os.makedirs(record_dir, exist_ok=True)

    def recording_partial_dedup(batch):
        with open(os.path.join(record_dir, uuid.uuid4().hex), "w") as fh:
            json.dump({"rows": batch.num_rows,
                       "task": ray.get_runtime_context().get_task_name()}, fh)
        return real(batch)

    monkeypatch.setattr(flagship, "partial_dedup_batch",
                        recording_partial_dedup)


def _calls(record_dir) -> list:
    return [json.load(open(os.path.join(record_dir, f)))
            for f in os.listdir(record_dir)]


def _subset(name: str, tables: list) -> pa.Table:
    full = pa.concat_tables(tables)
    if name == "limit":
        return tables[0].slice(0, 25)
    if name == "filter":
        return full.filter(pc.equal(full["lang"], "en"))
    if name == "filter_expr":
        return full.filter(_TS_CUTOFF)
    if name == "two_files":
        return pa.concat_tables(tables[:2])
    return full


_TS_CUTOFF = pc.field("warc_ts") >= pa.scalar(pages_src.ts_for(40, 1),
                                              pa.timestamp("us"))


def _dataset(case: str, d: str, files: list):
    import ray.data as rd

    return {
        "dir": lambda: rd.read_parquet(d),
        "two_files": lambda: rd.read_parquet(files[:2]),
        "columns": lambda: rd.read_parquet(d, columns=COLUMNS),
        "limit": lambda: rd.read_parquet(files[0]).limit(25),
        "filter": lambda: rd.read_parquet(d).filter(expr="lang == 'en'"),
        "map_batches": lambda: rd.read_parquet(d).map_batches(
            lambda b: b, batch_format="pyarrow"),
        "select_columns": lambda: rd.read_parquet(d).select_columns(COLUMNS),
        "filter_expr": lambda: rd.read_parquet(d, filter=_TS_CUTOFF),
        "include_paths": lambda: rd.read_parquet(d, include_paths=True),
        "shuffle": lambda: rd.read_parquet(d, shuffle="files"),
        "schema": lambda: rd.read_parquet(d, schema=_pages()[0].schema),
        "from_arrow": lambda: rd.from_arrow(_pages()),
    }[case]()


# case -> number of file tasks (None: the Ray Data map)
FILE_TASKS = {"dir": 3, "two_files": 2, "columns": 3, "limit": None,
              "filter": None, "map_batches": None, "select_columns": None,
              "filter_expr": None, "include_paths": None, "shuffle": None,
              "schema": None, "from_arrow": None}


@pytest.mark.parametrize("case", list(FILE_TASKS))
def test_sink_phase_a_source(ray_session, page_files, tmp_path, monkeypatch,
                             case):
    """A bare read of files runs the partial dedup once per file, in
    plain tasks; every other Dataset runs it inside the Ray Data map.
    Either way the sink writes what ``from_arrow`` of the same rows
    gives (a limit or a row filter gives its own subset, so a check
    that took every file of a truncated read would fail here)."""
    import ray.data as rd

    d, files = page_files
    expected_rows = _subset(case, _pages())
    assert 0 < expected_rows.num_rows
    expected = _sink(rd.from_arrow(expected_rows), tmp_path / "expected")

    record_dir = str(tmp_path / "calls")
    _record_dedup_calls(monkeypatch, record_dir)
    got = _sink(_dataset(case, d, files), tmp_path / "got")
    assert len(got) == 8  # 4 parts + 4 sidecars
    assert got == expected

    calls = _calls(record_dir)
    n_tasks = FILE_TASKS[case]
    if n_tasks is None:
        assert calls and all("MapBatches(dedup_batch)" in c["task"]
                             for c in calls), calls
    else:
        assert len(calls) == n_tasks, calls
        assert all("MapBatches" not in c["task"] for c in calls), calls
        assert sorted(c["rows"] for c in calls) == [ROWS_PER_FILE] * n_tasks


def test_a_projection_without_a_sink_column_is_not_a_plain_read(
        ray_session, page_files):
    import ray.data as rd

    d, _ = page_files
    assert ex.plain_parquet_files(
        rd.read_parquet(d, columns=["url", "html"]), COLUMNS) is None


def _listed_fragments(monkeypatch, seen: list) -> None:
    """Record each commit list phase B reads: its paths and the
    (url, warc_ts) rows of the fragments it names."""
    real = ex.part_files

    def recording_part_files(stage_dir):
        listing = pq.read_table(os.path.join(stage_dir, ex.FRAGMENT_LIST))
        files = real(stage_dir)
        rows = sorted(
            (u, t) for fs in files.values()
            for f in fs
            for u, t in zip(*ex.read_files([f], None).select(
                ["url", "warc_ts"]).to_pydict().values()))
        seen.append((listing["path"].to_pylist(), rows))
        return files

    monkeypatch.setattr(ex, "part_files", recording_part_files)


def test_phase_a_file_task_retry_commits_once(ray_session, page_files,
                                              tmp_path, monkeypatch):
    """A phase-A file task dies after writing its fragments and Ray
    retries it: every row reaches phase B once, the commit list names
    each fragment once, and the parts are those of a clean run."""
    import ray.data as rd

    d, _ = page_files
    seen = []
    _listed_fragments(monkeypatch, seen)
    clean = _sink(rd.read_parquet(d), tmp_path / "clean")

    marker = str(tmp_path / "crashed")
    real = flagship._phase_a_piece

    def dying_piece(i, *args):
        out = real(i, *args)
        if i == 1 and not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)
        return out

    monkeypatch.setattr(flagship, "_phase_a_piece", dying_piece)
    retried = _sink(rd.read_parquet(d), tmp_path / "retried")
    assert os.path.exists(marker)  # the first attempt did die
    assert retried == clean
    (clean_paths, clean_rows), (paths, rows) = seen
    assert len(paths) == len(set(paths)) == len(clean_paths)
    assert sorted(paths) == sorted(clean_paths)
    assert rows == clean_rows


def test_phase_a_splits_a_file_over_the_byte_budget(ray_session, tmp_path,
                                                   monkeypatch):
    """A file whose row groups together pass ``PHASE_A_TASK_BYTES`` runs
    as several row-group-range tasks and writes the parts that one task
    over the whole file writes."""
    import ray.data as rd

    n = 200  # five row groups of similar size; urls refetched
    src = str(tmp_path / "big.parquet")
    pq.write_table(pa.table({
        "url": pa.array([pages_src.url_for(i % 150) for i in range(n)]),
        "warc_ts": pa.array([pages_src.ts_for(i % 150, i // 150)
                             for i in range(n)], pa.timestamp("us")),
        "html": pa.array([f"<p>doc {i:05d} {'x' * 500}</p>".encode()
                          for i in range(n)], pa.binary()),
    }), src, row_group_size=40)
    md = pq.read_metadata(src)
    assert md.num_row_groups == 5

    record_dir = str(tmp_path / "whole")
    _record_dedup_calls(monkeypatch, record_dir)
    whole = _sink(rd.read_parquet(src), tmp_path / "a")
    assert len(_calls(record_dir)) == 1

    rg_bytes = max(
        sum(md.row_group(r).column(c).total_uncompressed_size
            for c in range(md.num_columns)
            if md.schema.column(c).name in COLUMNS)
        for r in range(md.num_row_groups))
    monkeypatch.setattr(flagship, "PHASE_A_TASK_BYTES", 2 * rg_bytes)
    record_dir = str(tmp_path / "split")
    _record_dedup_calls(monkeypatch, record_dir)
    split = _sink(rd.read_parquet(src), tmp_path / "b")
    calls = _calls(record_dir)
    assert len(calls) == 3, calls  # row groups [0, 1], [2, 3], [4]
    assert sorted(c["rows"] for c in calls) == [40, 80, 80]
    assert split == whole


def test_sink_rerun_removes_a_stale_stage(ray_session, page_files, tmp_path):
    """A rerun over a run dir whose stage holds a crashed run's commit
    list and orphan fragments writes the parts of a clean run and leaves
    no stage behind; the stale list is never read."""
    import ray.data as rd

    from neurostore_text_extraction_ray.state import manifest as mf

    d, _ = page_files
    clean = _sink(rd.read_parquet(d), tmp_path / "clean")

    out = tmp_path / "crashed"
    run_dir, _ = flagship.run_flagship_to_parquet(
        rd.read_parquet(d), str(out), num_parts=4, input_path="<pages>")
    for p in (0, 2):
        os.remove(mf.part_paths(run_dir, p)[1])  # parts 0 and 2 not done
    stage = os.path.join(run_dir, "stage")
    os.makedirs(os.path.join(stage, "part=00000"))
    orphan = os.path.join("part=00000", "orphan.arrow")
    with open(os.path.join(stage, orphan), "wb") as fh:
        fh.write(b"not an arrow file")
    pq.write_table(pa.table({"part": pa.array([0], pa.int64()),
                             "path": pa.array([orphan])}),
                   os.path.join(stage, ex.FRAGMENT_LIST))

    assert _sink(rd.read_parquet(d), out) == clean
    assert not os.path.exists(stage)


def test_file_task_pieces_skip_empty_files(tmp_path):
    """A file without rows gives no phase-A task."""
    empty = str(tmp_path / "empty.parquet")
    full = str(tmp_path / "full.parquet")
    pq.write_table(_pages()[0].slice(0, 0), empty)
    pq.write_table(_pages()[0], full)
    assert flagship._phase_a_pieces([empty, full], COLUMNS) == [(full, [0])]


@pytest.mark.parametrize("unit", ["s", "ms"])
@pytest.mark.parametrize("source", ["from_arrow", "read_parquet"])
def test_sink_parts_ignore_the_input_timestamp_unit(ray_session, tmp_path,
                                                    source, unit):
    """Pages whose ``warc_ts`` is ``timestamp[s]`` or ``timestamp[ms]``
    give part files and sidecars byte-identical to the same rows as
    ``timestamp[us]``, on both phase-A sources."""
    import ray.data as rd

    def dataset(tables, name):
        if source == "from_arrow":
            return rd.from_arrow(tables)
        d = tmp_path / name
        d.mkdir()
        for i, t in enumerate(tables):
            pq.write_table(t, str(d / f"pages-{i}.parquet"))
        return rd.read_parquet(str(d))

    tables = _pages()
    coarse = [t.set_column(1, "warc_ts", t["warc_ts"].cast(pa.timestamp(unit)))
              for t in tables]
    assert _sink(dataset(coarse, "coarse"), tmp_path / "out_coarse") \
        == _sink(dataset(tables, "us"), tmp_path / "out_us")


def test_sink_passes_a_non_timestamp_warc_ts_through(ray_session, tmp_path):
    """Only a timestamp ``warc_ts`` is widened: a ``date32`` one still
    runs through the sink, as it did before the unit cast."""
    import ray.data as rd

    tables = [t.set_column(1, "warc_ts", t["warc_ts"].cast(pa.date32()))
              for t in _pages()]
    assert _sink(rd.from_arrow(tables), tmp_path / "out")


def test_sink_rejects_a_read_outside_input_path(ray_session, page_files,
                                                tmp_path):
    """A bare read of files that lie outside ``input_path`` raises before
    anything is written: the run id would name one input and the rows
    come from another."""
    import ray.data as rd

    d, files = page_files
    other = tmp_path / "other"
    other.mkdir()
    with pytest.raises(ValueError, match="outside input_path"):
        flagship.run_flagship_to_parquet(
            rd.read_parquet(d), str(tmp_path / "out"), num_parts=4,
            input_path=str(other))
    with pytest.raises(ValueError, match="outside input_path"):
        flagship.run_flagship_to_parquet(
            rd.read_parquet(files[:2]), str(tmp_path / "out"), num_parts=4,
            input_path=files[0])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("shape", ["dir", "file"])
def test_sink_accepts_a_read_of_input_path(ray_session, page_files, tmp_path,
                                           shape):
    """The call shape of ``bench.py`` and perfbench, a ``read_parquet`` of
    ``input_path`` itself, passes the input check."""
    import ray.data as rd

    d, files = page_files
    src = d if shape == "dir" else files[0]
    _, summary = flagship.run_flagship_to_parquet(
        rd.read_parquet(src), str(tmp_path), num_parts=4, input_path=src)
    assert int(summary["rows"].sum()) > 0
