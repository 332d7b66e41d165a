"""One benchmark session, run as a child process of ``run.py``:
``python3 -m perfbench.session <config.json>``.

It owns the Ray cluster: it times ``ray.init`` plus a first task (set-up),
warms the workers with one untimed job, then runs timed jobs of one workload
through the engine's public entry points until the time budget is spent.
After each job it checks the output against the workload's oracle. Every
step is appended as a JSON line to the progress file, which the parent
reads to time the jobs' memory windows and to detect a hang.

Trace mode starts one cluster whose workers carry the ``trace_hook``
wrappers and alternates untraced and traced jobs: the untraced ones give the
reference ``job_s`` and output digest, the traced ones the per-layer
numbers.
"""

from __future__ import annotations

import gc
import glob
import hashlib
import json
import os
import shutil
import sys
import time
import traceback

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from perfbench import trace_hook

OUT_COLS = ["url", "extracted_text", "parse_failed", "empty"]


class Progress:
    def __init__(self, path: str):
        self.fh = open(path, "a", buffering=1)

    def emit(self, event: str, **fields) -> None:
        self.fh.write(json.dumps({"event": event, "t": time.time(), **fields}) + "\n")


def _warm_task():
    from neurostore_text_extraction_ray.pipelines import flagship  # noqa: F401

    return os.getpid()


def start_ray(cfg: dict, traced: bool) -> float:
    """Start a local Ray cluster: ``ray.init`` plus one task that imports
    the engine. Returns the seconds until that task has run."""
    kwargs = dict(address="local", num_cpus=cfg["cpus"], include_dashboard=False,
                  logging_level="ERROR", log_to_driver=False,
                  object_store_memory=512 * 1024 * 1024)
    if cfg.get("ray_tmp"):
        kwargs["_temp_dir"] = cfg["ray_tmp"]
    if traced:
        kwargs["runtime_env"] = {
            "worker_process_setup_hook": "perfbench.trace_hook.install",
            "env_vars": {trace_hook.TRACE_DIR_ENV: cfg["trace_dir"]},
        }
    t0 = time.perf_counter()
    ray.init(**kwargs)
    ray.get(ray.remote(num_cpus=1)(_warm_task).remote())
    return time.perf_counter() - t0


def _digest_files(paths: list) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _digest_table(table: pa.Table) -> str:
    """Order-independent digest of a streaming result: rows sorted by url,
    serialized as one Arrow IPC stream."""
    import pyarrow.compute as pc

    t = table.take(pc.sort_indices(table, [("url", "ascending")])).combine_chunks()
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


def wrong_rows(out: pa.Table, oracle: dict) -> int:
    """Output rows that differ from the oracle, plus duplicate, extra and
    missing urls."""
    seen, wrong = set(), 0
    cols = [out[c].to_pylist() for c in OUT_COLS]
    for url, text, failed, empty in zip(*cols):
        if url in seen:
            wrong += 1
            continue
        seen.add(url)
        if oracle.get(url) != (text, failed, empty):
            wrong += 1
    return wrong + sum(1 for u in oracle if u not in seen)


class Runner:
    """Runs and checks the jobs of one workload."""

    def __init__(self, cfg: dict, spec: dict):
        self.cfg, self.spec = cfg, spec
        self.work = cfg["workdir"]
        o = pq.read_table(os.path.join(self.work, "in", "oracle.parquet"))
        self.oracle = {
            u: (t, f, e) for u, t, f, e in zip(*(o[c].to_pylist() for c in OUT_COLS))
        }
        self.incremental = spec["workload"] == "incremental_refresh"
        self.stream = spec["workload"] == "stream_mixed"
        self.exchange_root = os.environ["NSE_EXCHANGE_ROOT"]
        self.ref_digest = None
        self.snapshot = None
        self.n = 0

    # -- untimed preparation ------------------------------------------------

    def prepare(self) -> None:
        """Warm the Ray workers and this process with untimed jobs.

        Incremental: run the prior corpus, keep its run dir, then put the
        edited corpus at the SAME input path and build the from-scratch
        reference of the edited input. Other workloads: one job."""
        if not self.incremental:
            self.run(warm=True)
        elif self.snapshot is None:
            from neurostore_text_extraction_ray.pipelines import flagship
            import ray.data as rd

            src = self.spec["input_dir"]
            prior_out = os.path.join(self.work, "prior")
            run_dir, _ = flagship.run_flagship_to_parquet(
                rd.read_parquet(src), prior_out, input_path=src, incremental=True)
            os.replace(src, src + ".prior")
            os.replace(self.spec["edited_dir"], src)
            ref_dir, _ = flagship.run_flagship_to_parquet(
                rd.read_parquet(src), os.path.join(self.work, "ref"),
                input_path=src, incremental=True)
            self.ref_digest = _digest_files(self._parts(ref_dir))
            self.snapshot = run_dir
        else:
            self.run(warm=True)

    # -- one job ------------------------------------------------------------

    def run(self, warm: bool = False) -> dict:
        from neurostore_text_extraction_ray.pipelines import flagship
        import ray.data as rd

        self.n += 1
        out_dir = os.path.join(self.work, f"out-{self.n:03d}")
        src = self.spec["input_dir"]
        if self.incremental:
            run_id = os.path.basename(self.snapshot)
            shutil.copytree(self.snapshot, os.path.join(out_dir, run_id))
        table = run_dir = summary = None
        t0 = time.time()
        if self.stream:
            winners = rd.read_parquet(src, columns=["url", "warc_ts"])
            ds = flagship.flagship_dataset(
                rd.read_parquet(src), winners_ds=winners,
                concurrency=(1, max(1, self.cfg["cpus"] - 1)))
            batches = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
        else:
            run_dir, summary = flagship.run_flagship_to_parquet(
                rd.read_parquet(src), out_dir, input_path=src,
                incremental=self.incremental)
        t1 = time.time()
        if self.stream:
            # a dropped Dataset keeps its actor pool until the garbage
            # collector frees its executor; a pool left alive holds a CPU
            # and stalls the next job, so collect it now, untimed
            del ds
            gc.collect()
        if warm:
            shutil.rmtree(out_dir, ignore_errors=True)
            return {}
        if self.stream:
            table = pa.concat_tables(batches) if batches else None
        rec = {"t0": t0, "t1": t1, "job_s": t1 - t0,
               **self.check(table, run_dir, summary)}
        shutil.rmtree(out_dir, ignore_errors=True)
        return rec

    @staticmethod
    def _parts(run_dir: str) -> list:
        return sorted(glob.glob(os.path.join(run_dir, "parts", "part-*.parquet")))

    def check(self, table, run_dir, summary) -> dict:
        """Validity of one job's output. Returns docs, wrong_rows, the list
        of failed checks, leaked stage dirs, an output digest and the
        summary counters."""
        from neurostore_text_extraction_ray.state import manifest as mf

        spec, problems, counters = self.spec, [], {}
        leaked = len(os.listdir(self.exchange_root))
        for d in os.listdir(self.exchange_root):
            shutil.rmtree(os.path.join(self.exchange_root, d), ignore_errors=True)
        if self.stream:
            if table is None:
                table = pa.table({c: pa.array([], pa.string()) for c in OUT_COLS})
            out = table.select(OUT_COLS)
            got = {"n_parse_failed": sum(out["parse_failed"].to_pylist()),
                   "n_empty": sum(out["empty"].to_pylist())}
            digest = _digest_table(table)
        else:
            parts = self._parts(run_dir)
            out = (pa.concat_tables([pq.read_table(p, columns=OUT_COLS) for p in parts])
                   if parts else pa.table({c: [] for c in OUT_COLS}))
            mans = mf.read_manifests(run_dir)
            got = {k: sum(m[k] for m in mans) for k in spec["expect"]}
            stage = os.path.join(run_dir, "stage")
            if os.path.isdir(stage):
                leaked += 1
                shutil.rmtree(stage, ignore_errors=True)
            n_extracted = int(summary["n_extracted"].sum())
            n_reused = int(summary["n_reused"].sum())
            counters = {"rows_extracted": n_extracted, "rows_reused": n_reused,
                        "parts_clean": int((summary["n_extracted"] == 0).sum())}
            digest = _digest_files(parts)
            if self.incremental:
                want = spec["n_edited"]
                if n_reused <= 0:
                    problems.append("incremental rerun reused no rows")
                if n_reused != spec["n_docs"] - want:
                    problems.append(f"n_reused {n_reused} != {spec['n_docs'] - want}")
                if digest != self.ref_digest:
                    problems.append("parts differ from a from-scratch run")
            else:
                want = spec["n_docs"]
            if n_extracted != want:
                problems.append(f"n_extracted {n_extracted} != {want}")
        for k, v in got.items():
            if v != spec["expect"][k]:
                problems.append(f"{k} {v} != {spec['expect'][k]}")
        wrong = wrong_rows(out, self.oracle)
        if wrong:
            problems.append(f"{wrong} wrong rows")
        return {"docs": out.num_rows, "wrong_rows": wrong, "problems": problems,
                "leaked": leaked, "digest": digest, "counters": counters}


def wait_idle(cpus: int, limit_s: float = 20.0) -> None:
    """Wait until the previous job has released every CPU (an actor pool is
    torn down after its dataset finishes), so no job starts short of CPUs."""
    end = time.time() + limit_s
    while ray.available_resources().get("CPU", 0) < cpus and time.time() < end:
        time.sleep(0.05)


def timed_jobs(runner: Runner, progress: Progress, budget_s: float,
               min_jobs: int, traced: bool) -> None:
    """Timed jobs until ``budget_s`` has passed (at least ``min_jobs``),
    each started on an idle cluster. ``traced``: alternate untraced and
    traced jobs, ending on a traced one."""
    cfg = runner.cfg
    start = time.time()
    i = 0
    while i < min_jobs or time.time() - start < budget_s or (traced and i % 2):
        mode = "traced" if traced and i % 2 else "untraced"
        if traced:
            trace_hook.set_tracing(cfg["trace_dir"], mode == "traced")
        wait_idle(cfg["cpus"])
        progress.emit("job_start", mode=mode, i=i)
        try:
            rec = runner.run()
        except Exception:
            rec = {"error": traceback.format_exc(limit=4)}
        if mode == "traced" and "t0" in rec:
            spans = trace_hook.read_spans(cfg["trace_dir"], rec["t0"], rec["t1"])
            rec["layers"] = trace_hook.layer_metrics(
                spans, rec["t0"], rec["t1"], cfg["cpus"], os.getpid())
        progress.emit("job", mode=mode, i=i, **rec)
        i += 1


def main(cfg_path: str) -> int:
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    with open(os.path.join(cfg["workdir"], "in", "spec.json")) as fh:
        spec = json.load(fh)
    progress = Progress(cfg["progress"])
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    runner = Runner(cfg, spec)
    seconds = cfg["seconds"]

    if not cfg["trace"]:
        for i in range(cfg["setups"]):
            progress.emit("setup", i=i, s=start_ray(cfg, traced=False))
            if i < cfg["setups"] - 1:
                ray.shutdown()
        runner.prepare()
        progress.emit("ready")
        timed_jobs(runner, progress, seconds, min_jobs=3, traced=False)
    else:
        progress.emit("setup", i=0, s=start_ray(cfg, traced=True))
        trace_hook.install_driver(cfg["trace_dir"])
        runner.prepare()
        progress.emit("ready")
        timed_jobs(runner, progress, seconds, min_jobs=6, traced=True)
    ray.shutdown()
    progress.emit("done")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
