"""Smoke test of the benchmark itself: every workload at a tiny size, both
metric sets. Run from the checkout root:

    python3 -m pytest perfbench/test_smoke.py -q

It checks that the oracles pass, that every metric BENCHMARK.json names is
reported with its unit, that the traced run's output is byte-identical to
the untraced run's, and that the benchmark refuses to run without the
engine beside it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import corpus, run  # noqa: E402

TINY = "0.02"


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_metrics_reported():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} <= set(corpus.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_workload_tiny(workload):
    for trace, names in (("0", run.END_TO_END), ("1", run.PER_LAYER)):
        res = _bench("--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", trace, "--scale", TINY)
        assert res.returncode == 0, res.stderr[-3000:]
        lines = res.stdout.strip().splitlines()
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        assert result["correct"], record
        assert result["failed"] == 0 and result["attempted"] >= 1, record
        assert record["wrong_rows"] == 0 and record["fail_ratio"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
        if trace == "1":
            assert record["outputs_identical"], record
            assert result["metrics"]["stages.exchange.leaked_stage_dirs"]["value"] == 0


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _bench("--workload", "crawl_extract", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
