"""Per-layer tracing for the benchmark's traced run.

The traced run starts Ray with
``runtime_env={"worker_process_setup_hook": "perfbench.trace_hook.install"}``,
so every Ray worker wraps the public functions of each engine layer before
it runs a task. A wrapper records one span per call -- name, parent span,
wall start and end, and counts taken from its arguments and result -- and
appends it as a JSON line to ``$PERFBENCH_TRACE_DIR/<pid>.jsonl``. The
Ray driver process wraps only ``flagship.dedup_pages``, which runs there:
wrapping a worker-side function in the Ray driver as well would pickle the
wrapper into the tasks and count each call twice.

Tracing is on while the file ``on`` exists in the trace dir
(``set_tracing``); otherwise a wrapper only calls through. One cluster can
then alternate untraced and traced jobs, and the tracing overhead compares
neighbouring jobs, which see the same host load.

``layer_metrics`` turns the spans of one job into the per-layer metrics.
A layer's ``busy_s`` is the wall time spent inside its calls.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
_STAGE_MARK = os.sep + "stage" + os.sep + "part="


class _Recorder:
    """Per-process span sink: a line-buffered append file and a per-thread
    stack of open span names (the parent of a new span)."""

    def __init__(self, trace_dir: str):
        self.path = os.path.join(trace_dir, f"{os.getpid()}.jsonl")
        self.flag = os.path.join(trace_dir, "on")
        self.local = threading.local()
        self.lock = threading.Lock()
        self.fh = None

    def on(self) -> bool:
        return os.path.exists(self.flag)

    def stack(self) -> list:
        st = getattr(self.local, "stack", None)
        if st is None:
            st = self.local.stack = []
        return st

    def emit(self, rec: dict) -> None:
        line = json.dumps(rec) + "\n"
        with self.lock:
            if self.fh is None:
                self.fh = open(self.path, "a", buffering=1)
            self.fh.write(line)


def _wrap(rec: _Recorder, name: str, fn, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.on():
            return fn(*args, **kwargs)
        stack = rec.stack()
        parent = stack[-1] if stack else None
        stack.append(name)
        t0 = time.time()
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            t1 = time.time()
            stack.pop()
            span = {"name": name, "parent": parent, "pid": os.getpid(),
                    "t0": t0, "t1": t1}
            if count is not None and out is not None:
                span.update(count(args, out))
            rec.emit(span)

    traced.__wrapped_by_perfbench__ = True
    return traced


def _bool_sum(col) -> int:
    import pyarrow.compute as pc

    return int(pc.sum(col.cast("int64")).as_py() or 0)


def _extract_counts(args, out) -> dict:
    return {"rows": out.num_rows, "parse_failed": _bool_sum(out["parse_failed"]),
            "empty": _bool_sum(out["empty"])}


def _dedup_counts(args, out) -> dict:
    return {"rows_in": args[0].num_rows, "rows_out": out.num_rows}


def _actor_counts(args, out) -> dict:
    return {"rows": out.num_rows}


def _patch(rec: _Recorder, owner, attr: str, name: str, count=None):
    fn = getattr(owner, attr)
    if getattr(fn, "__wrapped_by_perfbench__", False):
        return fn
    wrapped = _wrap(rec, name, fn, count)
    setattr(owner, attr, wrapped)
    return wrapped


def install() -> None:
    """Ray worker setup hook: wrap every traced layer in this process."""
    import pyarrow.parquet as pq

    from neurostore_text_extraction_ray.pipelines import flagship
    from neurostore_text_extraction_ray.stages import extract
    from neurostore_text_extraction_ray.state import manifest

    rec = _Recorder(os.environ[TRACE_DIR_ENV])
    # flagship imports extract_batch by name: wrap both bindings with one
    # wrapper so each call is one span
    eb = _patch(rec, extract, "extract_batch", "stages.extract.extract_batch",
                _extract_counts)
    if not getattr(flagship.extract_batch, "__wrapped_by_perfbench__", False):
        flagship.extract_batch = eb
    _patch(rec, extract.ExtractActor, "__call__", "stages.extract.ExtractActor",
           _actor_counts)
    _patch(rec, flagship, "partial_dedup_batch",
           "pipelines.flagship.partial_dedup_batch", _dedup_counts)
    _patch(rec, flagship, "_latest_per_url_indices",
           "pipelines.flagship.latest_per_url")
    _patch(rec, flagship, "_process_part", "pipelines.flagship.process_part")
    _patch(rec, manifest, "write_part", "state.manifest.write_part")
    _patch(rec, manifest, "write_inputs_sidecar",
           "state.manifest.write_inputs_sidecar")

    # phase-A fragment writes go through pyarrow.parquet.write_table into
    # <run_dir>/stage/part=NNNNN/; count them and their bytes
    write_table = pq.write_table
    if getattr(write_table, "__wrapped_by_perfbench__", False):
        return
    traced_write = _wrap(rec, "pipelines.flagship.fragment_write", write_table,
                         lambda args, out: {})

    @functools.wraps(write_table)
    def write_table_hook(table, where, *args, **kwargs):
        if not (isinstance(where, str) and _STAGE_MARK in where and rec.on()):
            return write_table(table, where, *args, **kwargs)
        traced_write(table, where, *args, **kwargs)
        rec.emit({"name": "pipelines.flagship.fragment_bytes", "parent": None,
                  "pid": os.getpid(), "t0": time.time(), "t1": time.time(),
                  "bytes": os.path.getsize(where), "instant": True})

    write_table_hook.__wrapped_by_perfbench__ = True
    pq.write_table = write_table_hook


def set_tracing(trace_dir: str, on: bool) -> None:
    """Turn span recording on or off in every process of the cluster."""
    flag = os.path.join(trace_dir, "on")
    if on:
        open(flag, "w").close()
    elif os.path.exists(flag):
        os.remove(flag)


def install_driver(trace_dir: str) -> None:
    """Driver side: wrap the streaming dedup (winners aggregate and
    broadcast), the one traced layer that runs in the Ray driver."""
    from neurostore_text_extraction_ray.pipelines import flagship

    rec = _Recorder(trace_dir)
    _patch(rec, flagship, "dedup_pages", "pipelines.flagship.dedup_pages")


def read_spans(trace_dir: str, t0: float, t1: float) -> list:
    """Spans that started and ended inside [t0, t1]."""
    spans = []
    for path in glob.glob(os.path.join(trace_dir, "*.jsonl")):
        with open(path) as fh:
            for line in fh:
                if not line.endswith("\n"):
                    continue  # a line still being written
                s = json.loads(line)
                if s["t0"] >= t0 and s["t1"] <= t1:
                    spans.append(s)
    return spans


def layer_metrics(spans: list, job_t0: float, job_t1: float, cpus: int,
                  driver_pid: int) -> dict:
    """Per-layer metrics of one job from its spans.

    - phase A runs from the job start to the first ``_process_part`` call,
      phase B from there to the job end (sink jobs; 0 for streaming);
    - ``unattributed_s`` is ``job_s`` x Ray CPUs minus the busy time of the
      outermost traced calls in the workers: Ray scheduling, the input
      reads, the part-id column and idle worker slots.
    """
    def of(name):
        return [s for s in spans if s["name"] == name and not s.get("instant")]

    def busy(name):
        return sum(s["t1"] - s["t0"] for s in of(name))

    def total(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    job_s = job_t1 - job_t0
    eb, actor = "stages.extract.extract_batch", "stages.extract.ExtractActor"
    pdb = "pipelines.flagship.partial_dedup_batch"
    parts = of("pipelines.flagship.process_part")
    phase_b_start = min((s["t0"] for s in parts), default=None)
    rows_in, rows_out = total(pdb, "rows_in"), total(pdb, "rows_out")
    top_busy = sum(s["t1"] - s["t0"] for s in spans
                   if s["parent"] is None and s["pid"] != driver_pid
                   and not s.get("instant"))
    dedup = of("pipelines.flagship.dedup_pages")
    return {
        f"{eb}.calls": len(of(eb)),
        f"{eb}.rows": total(eb, "rows"),
        f"{eb}.busy_s": busy(eb),
        f"{eb}.rows_parse_failed": total(eb, "parse_failed"),
        f"{eb}.rows_empty": total(eb, "empty"),
        f"{actor}.calls": len(of(actor)),
        f"{actor}.busy_s": busy(actor),
        f"{pdb}.calls": len(of(pdb)),
        f"{pdb}.rows_in": rows_in,
        f"{pdb}.rows_out": rows_out,
        f"{pdb}.busy_s": busy(pdb),
        f"{pdb}.useful_ratio": rows_out / rows_in if rows_in else 0.0,
        "pipelines.flagship.latest_per_url.busy_s":
            busy("pipelines.flagship.latest_per_url"),
        "pipelines.flagship.phase_a_s":
            (phase_b_start - job_t0) if phase_b_start is not None else 0.0,
        "pipelines.flagship.phase_b_s":
            (job_t1 - phase_b_start) if phase_b_start is not None else 0.0,
        "pipelines.flagship.fragments":
            len(of("pipelines.flagship.fragment_write")),
        "pipelines.flagship.fragment_bytes":
            total("pipelines.flagship.fragment_bytes", "bytes"),
        "pipelines.flagship.dedup_pages_s": sum(s["t1"] - s["t0"] for s in dedup),
        "pipelines.flagship.unattributed_s": job_s * cpus - top_busy,
        "state.manifest.write_part.busy_s": busy("state.manifest.write_part"),
        "state.manifest.write_inputs_sidecar.busy_s":
            busy("state.manifest.write_inputs_sidecar"),
    }
