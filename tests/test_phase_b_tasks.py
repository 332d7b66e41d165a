"""Exchange phase B runs as plain Ray tasks, one per part: parts run
side by side even on a 2-CPU cluster, ``map_parts`` is eager (empty
stage, one-sided parts in list mode, errors inside ``with stage()``),
and the sink's per-part summary keeps its six int64 columns."""

import json
import os
import subprocess
import sys

import pyarrow as pa
import pytest
import ray.data as rd

from neurostore_text_extraction_ray.pipelines import flagship
from neurostore_text_extraction_ray.sources import pages as pages_src
from neurostore_text_extraction_ray.stages import exchange as ex

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUMMARY_COLS = ["partition_id", "rows", "n_parse_failed", "n_empty",
                "n_extracted", "n_reused"]

# Sixteen parts that each busy-wait 50 ms on a 2-CPU cluster, after a
# warm-up; prints the (pid, t0, t1) of every part as one JSON line.
_OVERLAP_SCRIPT = r"""
import json, os, time
import pyarrow as pa
import ray
import ray.data
from neurostore_text_extraction_ray.stages import exchange as ex

def busy(table):
    t0 = time.time()
    while time.time() - t0 < 0.05:
        pass
    return pa.table({"pid": [os.getpid()], "t0": [t0], "t1": [time.time()]})

ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
# boot both workers and import the package in them first: on a cold
# cluster the first worker can run every part before the second is up
nap = ray.remote(num_cpus=1)(lambda: time.sleep(1))
ray.get([nap.remote() for _ in range(2)])
schema = pa.schema([("pid", pa.int64()), ("t0", pa.float64()),
                    ("t1", pa.float64())])
with ex.stage("nse_overlap_") as s:
    ex.write_exchange(ray.data.from_items([{"k": i} for i in range(16)]), s,
                      lambda b: b["k"].to_numpy())
    ex.map_parts(s, 16, lambda t: schema.empty_table(), schema)
    out = ex.map_parts(s, 16, busy, schema).to_pandas()
ray.shutdown()
print(json.dumps(out.to_dict("records")))
"""


def _both_busy_s(spans: list) -> float:
    """Seconds during which at least two parts ran."""
    events = sorted([(s["t0"], 1) for s in spans] + [(s["t1"], -1) for s in spans])
    running, last, total = 0, 0.0, 0.0
    for t, step in events:
        if running >= 2:
            total += t - last
        running, last = running + step, t
    return total


def _write_stage(stage: str, table: pa.Table) -> None:
    """Exchange ``table`` into ``stage``; a row's part is its ``k``."""
    ex.write_exchange(rd.from_arrow(table), stage,
                      lambda b: b["k"].to_numpy(zero_copy_only=False))


def test_map_parts_overlaps_parts_on_two_cpus():
    """Two CPUs can keep two parts busy at once for ~0.4 s of the 0.8
    CPU-s; the fan-out of one-row Ray Data batches this replaced gave
    0.05-0.19 s (mostly one part at a time), plain tasks 0.38-0.40 s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_REPO, env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run([sys.executable, "-c", _OVERLAP_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    spans = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(spans) == 16
    assert _both_busy_s(spans) >= 0.25, spans


def test_map_parts_empty_stage(ray_session):
    schema = pa.schema([("k", pa.int64()), ("v", pa.string())])

    def never(table):
        raise AssertionError("no part has fragments")

    with ex.stage("nse_test_") as s:
        out = ex.map_parts(s, 4, never, schema)
    assert out.count() == 0
    assert ex.arrow_schema_of(out) == schema


def test_map_parts_list_mode_one_sided_part(ray_session):
    """Part 0 has fragments only in the first dir: its task gets the
    second dir's ``in_schemas`` empty table."""
    a_schema = pa.schema([("k", pa.int64())])
    b_schema = pa.schema([("k", pa.int64()), ("w", pa.string())])
    out_schema = pa.schema([("k", pa.int64()), ("a_rows", pa.int64()),
                            ("b_rows", pa.int64()), ("b_cols", pa.string())])

    def join(a, b):
        return pa.table({
            "k": [a["k"][0].as_py() if a.num_rows else b["k"][0].as_py()],
            "a_rows": [a.num_rows], "b_rows": [b.num_rows],
            "b_cols": [",".join(b.schema.names)]}, schema=out_schema)

    with ex.stage("nse_test_a_") as sa, ex.stage("nse_test_b_") as sb:
        _write_stage(sa, pa.table({"k": [0, 0, 1]}, schema=a_schema))
        _write_stage(sb, pa.table({"k": [1], "w": ["x"]}, schema=b_schema))
        out = ex.map_parts([sa, sb], 4, join, out_schema,
                           in_schemas=[a_schema, b_schema]).to_pandas()
    rows = out.sort_values("k").to_dict("records")
    assert rows == [
        {"k": 0, "a_rows": 2, "b_rows": 0, "b_cols": "k,w"},
        {"k": 1, "a_rows": 1, "b_rows": 1, "b_cols": "k,w"},
    ]


def test_map_parts_error_surfaces_and_stage_is_removed(ray_session):
    schema = pa.schema([("k", pa.int64())])

    def boom(table):
        if table["k"][0].as_py() == 2:
            raise ValueError("part two failed")
        return table

    with pytest.raises(ValueError, match="part two failed"):
        with ex.stage("nse_test_") as s:
            _write_stage(s, pa.table({"k": range(4)}, schema=schema))
            ex.map_parts(s, 4, boom, schema)
    assert not os.path.exists(s)


def _pages(texts):
    n = len(texts)
    return rd.from_arrow(pa.table({
        "url": pa.array([pages_src.url_for(i) for i in range(n)], pa.string()),
        "warc_ts": pa.array([pages_src.ts_for(i, 0) for i in range(n)],
                            pa.timestamp("us")),
        "html": pa.array([pages_src.html_for(i, texts[i], 0) for i in range(n)],
                         pa.binary()),
    }))


def _assert_summary(sdf, n_rows):
    assert list(sdf.columns) == SUMMARY_COLS
    assert all(str(t) == "int64" for t in sdf.dtypes), sdf.dtypes
    assert len(sdf) == n_rows


@pytest.mark.parametrize("incremental", [False, True])
def test_sink_summary_columns(ray_session, tmp_path, incremental):
    """Full run, then a rerun: a resume with every part done (no part
    to run) or an incremental rerun (every part re-checked)."""
    texts = [f"summary page {i} body words" for i in range(12)]
    _, full = flagship.run_flagship_to_parquet(
        _pages(texts), str(tmp_path), num_parts=4, incremental=incremental)
    _assert_summary(full, 4)
    assert int(full["rows"].sum()) == 12
    _, rerun = flagship.run_flagship_to_parquet(
        _pages(texts), str(tmp_path), num_parts=4, incremental=incremental)
    _assert_summary(rerun, 4 if incremental else 0)
    if incremental:
        assert int(rerun["n_reused"].sum()) == 12
        assert int(rerun["n_extracted"].sum()) == 0
