"""Session-scoped Ray fixture. Ray is initialised ONCE per pytest
session (driver requirement) and torn down at exit."""

import os
import sys

import pytest

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TESTS = os.path.join(_REPO, "tests")
# Ray workers must be able to import the package AND the test modules
# (actor classes constructed with test-defined pydantic models are
# pickled by reference). Workers inherit the driver's environment at
# ray.init time, so extend PYTHONPATH before the fixture initializes.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_REPO, _TESTS, os.environ.get("PYTHONPATH", "")) if p
)
for p in (_REPO, _TESTS):
    if p not in sys.path:
        sys.path.insert(0, p)


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session", autouse=True)
def _quiet_ray_data():
    try:
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
    except Exception:
        pass
    yield


# -- session-level reports: skip reasons and leaked exchange stages ---------

_STAGES_AT_START = pytest.StashKey[set]()
_LEAKED_STAGES = pytest.StashKey[list]()


def _stage_dirs() -> set[str]:
    """``nse_*`` stage directories currently under the exchange root."""
    import glob

    from neurostore_text_extraction_ray.stages.exchange import exchange_root

    return set(glob.glob(os.path.join(exchange_root(), "nse_*")))


def pytest_sessionstart(session):
    session.config.stash[_STAGES_AT_START] = _stage_dirs()


def pytest_sessionfinish(session, exitstatus):
    """Fail the run when it leaves exchange stages behind: every stage
    must be removed by its ``exchange.stage()`` block, not by the atexit
    safety net (which runs only after this hook)."""
    leaked = sorted(_stage_dirs() - session.config.stash[_STAGES_AT_START])
    session.config.stash[_LEAKED_STAGES] = leaked
    if leaked and session.exitstatus == 0:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per distinct skip reason with its count, so a green run
    cannot hide a skipped sweep; then any leaked stage directories."""
    from collections import Counter

    reasons = Counter()
    for rep in terminalreporter.stats.get("skipped", []):
        longrepr = rep.longrepr
        reason = longrepr[2] if isinstance(longrepr, tuple) else str(longrepr)
        reasons[reason.removeprefix("Skipped: ")] += 1
    if reasons:
        terminalreporter.write_sep("-", "skip reasons")
        for reason, n in reasons.most_common():
            terminalreporter.write_line(f"{n:4d} skipped: {reason}")
    leaked = config.stash.get(_LEAKED_STAGES, [])
    if leaked:
        terminalreporter.write_sep(
            "!", f"{len(leaked)} leaked exchange stage dir(s)")
        for path in leaked:
            terminalreporter.write_line(path)
