"""Benchmark of the extraction engine.

    python3 perfbench/run.py --workload crawl_extract --seed 1 --seconds 10 --trace 0

Workloads (``perfbench/corpus.py``):

- ``crawl_extract``: html pages of several KB through
  ``run_flagship_to_parquet``; 10% of urls refetched, one 2 MB blob, some
  undecodable and some empty pages. The extract kernel and phase B dominate.
- ``refetch_dedup``: tiny pages, every url fetched 2-14 times in shuffled
  order plus one hot url; phase A dedup and the fragment exchange dominate.
- ``incremental_refresh``: an ``incremental=True`` rerun after ~5% of the
  urls were refetched with new content and a few removed, at the same input
  path; the manifest sidecar compare/reuse/merge path dominates.
- ``stream_mixed``: html, JATS and PDF payloads through the streaming
  ``flagship_dataset`` (broadcast dedup, then the ``ExtractActor`` pool).

This process checks that the engine imports, stops any Ray cluster left on
the host (``ray stop --force``), writes the seeded inputs (untimed), and
starts ``perfbench.session`` as a child that owns the Ray cluster. While the
child runs, this process samples the summed RSS of the Ray driver and
workers, and kills the child if set-up or a job makes no progress within its
limit; a hang or crash is recorded as a failed job with its reason. With
``--trace 1`` it also times the kernels in this process (the kernel floors).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The line before it is a record block:
host, versions, seed, input sizes, job-time quartiles and sample count,
``wrong_rows``, ``fail_ratio`` and the failures.

Ray runs with ``RAY_CPUS`` logical CPUs. Inputs, outputs, the exchange
root (``NSE_EXCHANGE_ROOT``) and, when its path is short enough for Ray's
sockets, Ray's temp dir are all under ``.perfbench/`` in the checkout,
which is removed at the end.

The smoke test of the benchmark itself: ``python3 -m pytest
perfbench/test_smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name -> unit, for both metric sets; BENCHMARK.json lists the same names
END_TO_END = {
    "job_s": "s",
    "docs_per_s": "docs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
_EB = "stages.extract.extract_batch"
_PDB = "pipelines.flagship.partial_dedup_batch"
PER_LAYER = {
    "functions.html_text.docs_per_s": "docs/s",
    "functions.jats.docs_per_s": "docs/s",
    "functions.pdf_text.docs_per_s": "docs/s",
    f"{_EB}.calls": "count",
    f"{_EB}.rows": "count",
    f"{_EB}.busy_s": "s",
    f"{_EB}.rows_parse_failed": "count",
    f"{_EB}.rows_empty": "count",
    "stages.extract.ExtractActor.calls": "count",
    "stages.extract.ExtractActor.busy_s": "s",
    f"{_PDB}.calls": "count",
    f"{_PDB}.rows_in": "count",
    f"{_PDB}.rows_out": "count",
    f"{_PDB}.busy_s": "s",
    f"{_PDB}.useful_ratio": "ratio",
    "pipelines.flagship.latest_per_url.busy_s": "s",
    "pipelines.flagship.phase_a_s": "s",
    "pipelines.flagship.phase_b_s": "s",
    "pipelines.flagship.fragments": "count",
    "pipelines.flagship.fragment_bytes": "bytes",
    "pipelines.flagship.dedup_pages_s": "s",
    "pipelines.flagship.unattributed_s": "s",
    "pipelines.flagship.efficiency": "ratio",
    "state.manifest.write_part.busy_s": "s",
    "state.manifest.write_inputs_sidecar.busy_s": "s",
    "state.manifest.rows_reused": "count",
    "state.manifest.rows_extracted": "count",
    "state.manifest.parts_clean": "count",
    "stages.exchange.leaked_stage_dirs": "count",
    "perfbench.trace_overhead_ratio": "ratio",
}

# Ray's logical CPUs, whatever the host has: an actor pool needs a second CPU
# beside the tasks that feed it, and a fixed count keeps set-up and job
# times comparable across hosts
RAY_CPUS = 2
SETUPS = 3            # set-ups per untraced run; setup_s is their median
STEP_LIMIT_S = 90     # an untimed step: a set-up or a warm-up job
JOB_LIMIT_S = 60      # one timed job
TOTAL_LIMIT_S = 140   # the whole run, from start to the report
SAMPLE_S = 0.2        # RSS sampling period
RAY_TMP_MAX = 40      # longer Ray temp dirs overflow the AF_UNIX path limit


# -- /proc helpers (a Ray driver's cluster processes are its descendants) ---

def _ppid_map() -> dict:
    kids: dict = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def _descendants(pid: int) -> list:
    kids, out, todo = _ppid_map(), [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids.get(p, ()))
    return out


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read(5) == b"ray::"
    except OSError:
        return False


def _rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return 0.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _ray_running() -> bool:
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/cmdline", "rb") as fh:
                    cmd = fh.read(4096)
            except OSError:
                continue
            if b"raylet" in cmd or b"gcs_server" in cmd:
                return True
    return False


def _ray_stop() -> None:
    try:
        subprocess.run([sys.executable, "-m", "ray.scripts.scripts", "stop", "--force"],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       timeout=20, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: ray stop --force timed out", file=sys.stderr)


# -- kernel floors -----------------------------------------------------------

def kernel_floors(payloads: dict, budget_s: float = 0.5) -> dict:
    """Single-process docs/s of each kernel on the workload's payloads: the
    calls ``stages.extract.extract_one`` makes per document."""
    from neurostore_text_extraction_ray.functions import html_text, jats, pdf_text

    def html(p):
        raw = p.decode("utf-8")
        html_text.html_to_text_and_spans(raw)
        html_text.html_title(raw)

    def jats_doc(p):
        raw = p.decode("utf-8")
        text, _ = jats.jats_text_and_spans(raw)
        jats.jats_metadata(raw, text=text)

    def pdf(p):
        pdf_text.pdf_extract_blocks(p)
        pdf_text.pdf_title(p)

    out = {}
    for kind, fn, name in (("html", html, "functions.html_text"),
                           ("jats", jats_doc, "functions.jats"),
                           ("pdf", pdf, "functions.pdf_text")):
        docs = []
        for p in payloads[kind]:
            try:
                if p:
                    fn(p)
                    docs.append(p)
            except ValueError:  # undecodable pages are parse failures
                continue
        n, t0 = 0, time.perf_counter()
        while docs and time.perf_counter() - t0 < budget_s:
            for p in docs:
                fn(p)
            n += len(docs)
        out[f"{name}.docs_per_s"] = n / (time.perf_counter() - t0)
    return out


# -- the child ---------------------------------------------------------------

class Watch:
    """Reads the child's progress lines, samples RSS and enforces limits."""

    def __init__(self, proc, progress_path: str, deadline: float):
        self.proc, self.path, self.deadline = proc, progress_path, deadline
        self.events: list = []
        self.samples: list = []   # (time, summed RSS MB of Ray driver + workers)
        self.seen: set = set()
        self.failure = None
        self._off = 0
        self._pids: list = []
        self._pids_at = 0.0

    def _read(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path) as fh:
            fh.seek(self._off)
            chunk = fh.read()
        done = chunk[: chunk.rfind("\n") + 1]
        self._off += len(done.encode())
        for line in done.splitlines():
            self.events.append(json.loads(line))

    def _sample(self) -> None:
        now = time.time()
        if now - self._pids_at > 1.0:
            self._pids = [p for p in _descendants(self.proc.pid)
                          if p == self.proc.pid or _is_ray_worker(p)]
            self.seen.update(_descendants(self.proc.pid))
            self._pids_at = now
        self.samples.append((now, sum(_rss_mb(p) for p in self._pids)))

    def run(self) -> None:
        """Follow the child until it exits; kill it when a step makes no
        progress within its limit."""
        start = time.time()
        while self.proc.poll() is None:
            time.sleep(SAMPLE_S)
            self._read()
            self._sample()
            now = time.time()
            last = self.events[-1] if self.events else {"event": "start", "t": start}
            if now > self.deadline:
                self.kill(f"run exceeded {TOTAL_LIMIT_S} s")
            elif last["event"] == "job_start":
                if now - last["t"] > JOB_LIMIT_S:
                    self.kill(f"{last['mode']} job {last['i']} exceeded {JOB_LIMIT_S} s")
            elif now - last["t"] > STEP_LIMIT_S:
                self.kill(f"no progress for {STEP_LIMIT_S} s after {last['event']!r}")
        self._read()
        if self.failure is None and self.proc.returncode != 0:
            self.failure = f"session exited with code {self.proc.returncode}"

    def kill(self, reason: str) -> None:
        self.failure = reason
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    def reap(self) -> None:
        """Wait for every process the child started to end; kill stragglers."""
        deadline = time.time() + 10
        while time.time() < deadline and any(_alive(p) for p in self.seen):
            time.sleep(0.2)
        left = [p for p in self.seen if _alive(p)]
        for p in left:
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if left or self.failure:
            _ray_stop()

    def peak_rss_mb(self, mode: str) -> float:
        """Median over the jobs of each job's peak: a Ray worker that Ray
        spawns for one job only does not set the figure for the run."""
        starts = {e["i"]: e["t"] for e in self.events
                  if e["event"] == "job_start" and e["mode"] == mode}
        windows = [(starts[e["i"]], e["t"]) for e in self.events
                   if e["event"] == "job" and e["mode"] == mode]
        peaks = [max(r for t, r in self.samples if a <= t <= b)
                 for a, b in windows
                 if any(a <= t <= b for t, _ in self.samples)]
        return _median(peaks)


def _host_record(cpus: int) -> dict:
    import pyarrow
    import ray

    with open("/proc/meminfo") as fh:
        mem_kb = int(fh.readline().split()[1])
    return {"nproc": len(os.sched_getaffinity(0)), "ray_cpus": cpus,
            "ram_gb": round(mem_kb / 2**20, 1),
            "python": platform.python_version(), "ray": ray.__version__,
            "pyarrow": pyarrow.__version__}


def _quartiles(vals: list) -> dict:
    if len(vals) >= 2:
        q1, q2, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q2 = q3 = vals[0] if vals else 0.0
    return {"p25": q1, "median": q2, "p75": q3, "n": len(vals), "samples": vals}


def _median(vals: list) -> float:
    return statistics.median(vals) if vals else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="corpus size factor (the smoke test uses a small one)")
    args = ap.parse_args(argv)
    deadline = time.time() + TOTAL_LIMIT_S

    sys.path.insert(0, ROOT)
    try:
        from neurostore_text_extraction_ray.pipelines import flagship  # noqa: F401
        from perfbench import corpus
    except ImportError as exc:
        print(f"perfbench: cannot import the engine from {ROOT}: {exc}",
              file=sys.stderr)
        return 2
    if not flagship.__file__.startswith(ROOT + os.sep):
        print(f"perfbench: the engine imported from {flagship.__file__}, "
              f"not from {ROOT}", file=sys.stderr)
        return 2
    if args.workload not in corpus.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    cpus = RAY_CPUS
    base = os.path.join(ROOT, ".perfbench")
    work = os.path.join(base, f"{args.workload}-s{args.seed}-{os.getpid()}")
    ray_tmp = os.path.join(base, f"r{os.getpid()}")
    try:
        if _ray_running():
            _ray_stop()
        os.makedirs(os.path.join(work, "exchange"))
        os.makedirs(os.path.join(work, "trace"))
        spec, floor_payloads = corpus.build(args.workload, args.seed,
                                            os.path.join(work, "in"), args.scale)
        cfg = {"workdir": work, "cpus": cpus, "seconds": args.seconds,
               "trace": bool(args.trace), "setups": SETUPS,
               "trace_dir": os.path.join(work, "trace"),
               "progress": os.path.join(work, "progress.jsonl"),
               "ray_tmp": ray_tmp if len(ray_tmp) <= RAY_TMP_MAX else None}
        with open(os.path.join(work, "config.json"), "w") as fh:
            json.dump(cfg, fh)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (ROOT, os.environ.get("PYTHONPATH")) if p),
            NSE_EXCHANGE_ROOT=os.path.join(work, "exchange"),
            RAY_USAGE_STATS_ENABLED="0")
        with open(os.path.join(work, "session.log"), "w") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "perfbench.session",
                 os.path.join(work, "config.json")],
                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
            watch = Watch(proc, cfg["progress"], deadline)
            try:
                watch.run()
            finally:
                if proc.poll() is None:
                    watch.kill("interrupted")
                watch.reap()
        with open(os.path.join(work, "session.log")) as fh:
            log_tail = fh.read()[-2000:]
        floors = kernel_floors(floor_payloads) if args.trace else {}
        return report(args, spec, cpus, watch, floors, log_tail)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
        if os.path.isdir(base) and not os.listdir(base):
            os.rmdir(base)


def report(args, spec, cpus, watch, floors, log_tail) -> int:
    """Print the record block and the result line; 1 if nothing was timed."""
    jobs = [e for e in watch.events if e["event"] == "job"]
    setups = [e["s"] for e in watch.events if e["event"] == "setup"]
    attempted = sum(1 for e in watch.events if e["event"] == "job_start")
    ok = [e for e in jobs if "error" not in e]
    ref = ok[0]["digest"] if ok else None
    failures = []
    for e in jobs:
        why = ([e["error"][-400:]] if "error" in e else e["problems"]
               + (["output differs from the first job's"]
                  if e["digest"] != ref else []))
        if why:
            failures.append(f"{e['mode']} job {e['i']}: {'; '.join(why)}")
    # a job that started and never reported hung or crashed
    failed = len(failures) + attempted - len(jobs)
    if watch.failure:
        failures.append(watch.failure)
    wrong = sum(e["wrong_rows"] for e in ok)
    untraced = [e for e in ok if e["mode"] == "untraced"]
    traced = [e for e in ok if e["mode"] == "traced"]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": _host_record(cpus),
        "input": {k: spec[k] for k in ("input_rows", "html_bytes",
                                       "duplicate_share", "n_docs", "kinds")},
        "job_s": _quartiles([e["job_s"] for e in untraced]),
        "setup_s": _quartiles(setups),
        "wrong_rows": wrong,
        "fail_ratio": failed / max(attempted, 1),
        "failures": failures,
    }
    if not untraced or (args.trace and not traced):
        print(json.dumps({"record": record, "session_log": log_tail}),
              file=sys.stderr)
        print("perfbench: no timed job completed", file=sys.stderr)
        return 1

    job_s = _median([e["job_s"] for e in untraced])
    docs_per_s = _median([e["docs"] / e["job_s"] for e in untraced])
    if not args.trace:
        values = {"job_s": job_s, "docs_per_s": docs_per_s,
                  "setup_s": _median(setups),
                  "peak_rss_mb": watch.peak_rss_mb("untraced")}
        units = END_TO_END
    else:
        values = {k: _median([e["layers"][k] for e in traced])
                  for k in traced[0]["layers"]}
        for k in ("rows_reused", "rows_extracted", "parts_clean"):
            values[f"state.manifest.{k}"] = _median(
                [e["counters"].get(k, 0) for e in traced])
        values.update(floors)
        values["pipelines.flagship.efficiency"] = docs_per_s / (
            cpus * floors["functions.html_text.docs_per_s"])
        values["stages.exchange.leaked_stage_dirs"] = sum(e["leaked"] for e in ok)
        # each traced job against the untraced job just before it
        by_i = {e["i"]: e for e in untraced}
        values["perfbench.trace_overhead_ratio"] = _median(
            [e["job_s"] / by_i[e["i"] - 1]["job_s"] for e in traced
             if e["i"] - 1 in by_i])
        record["traced_job_s"] = _quartiles([e["job_s"] for e in traced])
        # phase A + phase B span the traced job; against the untraced job
        # this is the tracing overhead (sink workloads)
        record["phases_vs_untraced_job_s"] = _median(
            [e["layers"]["pipelines.flagship.phase_a_s"]
             + e["layers"]["pipelines.flagship.phase_b_s"] for e in traced]) / job_s
        record["outputs_identical"] = len({e["digest"] for e in ok}) == 1
        units = PER_LAYER
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": wrong == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
