"""Exchange plumbing (stage lifecycle, commit list, multi-node guards),
the gate registry, the list of hand-written exchanges, ``join_by_key``
and ``combine_by_key`` on both paths, ``scan_by_range`` on edge key
shapes, and driver-vs-forced-exchange equivalence tests.
``test_oracle_parity``'s forced cases check every query's exchange
paths against the oracle; the equivalence tests here add what those
cannot see (queries whose wrapper rounds floats, extra invariants,
NULL keys, the budget raise), and a few still repeat a forced case."""

import glob
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import force_budget, force_routes

SF = "/root/testdata/sf0.001"


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def test_exchange_root_env_override(ray_session, tmp_path, monkeypatch):
    from neurostore_text_extraction_ray.stages import exchange as ex

    monkeypatch.setenv("NSE_EXCHANGE_ROOT", str(tmp_path / "xroot"))
    with ex.stage("nse_test_") as stage:
        assert stage.startswith(str(tmp_path / "xroot"))


def test_stage_removed_on_exit(tmp_path, monkeypatch):
    """``stage()`` owns the directory for exactly its ``with`` block."""
    import os

    from neurostore_text_extraction_ray.stages import exchange as ex

    monkeypatch.setenv("NSE_EXCHANGE_ROOT", str(tmp_path))
    with ex.stage("nse_test_") as stage:
        assert os.path.isdir(stage)
        os.makedirs(os.path.join(stage, "part=00000"))
        assert stage in ex._LIVE_STAGES
    assert not os.path.exists(stage)
    assert stage not in ex._LIVE_STAGES


def test_stage_removed_when_body_raises(tmp_path, monkeypatch):
    import os

    from neurostore_text_extraction_ray.stages import exchange as ex

    monkeypatch.setenv("NSE_EXCHANGE_ROOT", str(tmp_path))
    with pytest.raises(RuntimeError, match="boom"):
        with ex.stage("nse_test_") as stage:
            open(os.path.join(stage, "frag.parquet"), "wb").close()
            raise RuntimeError("boom")
    assert not os.path.exists(stage)
    assert stage not in ex._LIVE_STAGES


def test_lineitem_agg_exchange_equivalence(ray_session, monkeypatch):
    from neurostore_text_extraction_ray.pipelines import steps

    drv = _canon(steps.lineitem_agg(SF).to_pandas())
    force_routes(monkeypatch, "agg_partials")
    exch = _canon(steps.lineitem_agg(SF).to_pandas())
    pd.testing.assert_frame_equal(drv, exch)
    assert len(drv) == 6


def test_lineitem_rollup_exchange_equivalence(ray_session, monkeypatch):
    """ROLLUP lattice: exchange path equals the driver path; the three
    levels are internally consistent (each subtotal is the exact int
    sum of its children; grand total = corpus row count)."""
    from neurostore_text_extraction_ray.pipelines import steps

    drv = _canon(steps.lineitem_rollup(SF).to_pandas())
    force_routes(monkeypatch, "agg_partials")
    exch = _canon(steps.lineitem_rollup(SF).to_pandas())
    pd.testing.assert_frame_equal(drv, exch)
    finest = drv[drv["l_linestatus"].notna()]
    flags = drv[drv["l_returnflag"].notna() & drv["l_linestatus"].isna()]
    grand = drv[drv["l_returnflag"].isna()]
    assert len(finest) == 6 and len(flags) == 3 and len(grand) == 1
    per_flag = finest.groupby("l_returnflag")["n_rows"].sum()
    for _, r in flags.iterrows():
        assert int(r["n_rows"]) == int(per_flag[r["l_returnflag"]])
    assert int(grand["n_rows"].iloc[0]) == int(finest["n_rows"].sum())


def test_lineitem_cube_exchange_equivalence(ray_session, monkeypatch):
    """CUBE lattice: exchange path equals the driver path; CUBE =
    ROLLUP plus an internally-consistent per-status level (its
    subtotals are the exact int sums of the finest level's columns)."""
    from neurostore_text_extraction_ray.pipelines import steps

    drv = _canon(steps.lineitem_cube(SF).to_pandas())
    force_routes(monkeypatch, "agg_partials")
    exch = _canon(steps.lineitem_cube(SF).to_pandas())
    pd.testing.assert_frame_equal(drv, exch)
    finest = drv[drv["l_returnflag"].notna() & drv["l_linestatus"].notna()]
    states = drv[drv["l_returnflag"].isna() & drv["l_linestatus"].notna()]
    assert len(finest) == 6 and len(states) == 2 and len(drv) == 12
    per_status = finest.groupby("l_linestatus")["n_rows"].sum()
    for _, r in states.iterrows():
        assert int(r["n_rows"]) == int(per_status[r["l_linestatus"]])


def test_customer_order_counts_exchange_equivalence(ray_session, monkeypatch):
    """LEFT OUTER zero-fill join: the co-partitioned exchange path
    (both gates patched to 0 — aggregate combine AND join broadcast)
    equals the broadcast path; zero-order customers keep their rows
    with exact 0 / 0.0 fills."""
    from neurostore_text_extraction_ray.pipelines import steps

    drv = _canon(steps.customer_order_counts(SF).to_pandas())
    force_routes(monkeypatch, "agg_partials", "order_counts")
    exch = _canon(steps.customer_order_counts(SF).to_pandas())
    pd.testing.assert_frame_equal(drv, exch)
    assert len(drv) == 150  # every customer kept (outer semantics)
    zero = drv[drv["n_orders"] == 0]
    assert len(zero) > 0
    assert (zero["total_spent"] == 0.0).all()


def test_events_hourly_exchange_equivalence(ray_session, monkeypatch):
    from neurostore_text_extraction_ray.pipelines import steps

    drv = _canon(steps.events_hourly(SF).to_pandas())
    force_routes(monkeypatch, "agg_partials")
    exch = _canon(steps.events_hourly(SF).to_pandas())
    pd.testing.assert_frame_equal(drv, exch)
    assert len(drv) > 0
    assert int(drv["n_events"].sum()) == 1000  # every sf0.001 event counted once


# ---------------------------------------------------------------------------
# Multi-node dress rehearsal (VERDICT r04 #7): the exchange validates
# its shared-storage precondition at execution time, runs correctly
# against an explicit shared root while a second node is simulated, and
# every non-exchange fragment writer carries the same validation.
# ---------------------------------------------------------------------------


def _fake_two_nodes(monkeypatch):
    import ray

    monkeypatch.setattr(
        ray, "nodes",
        lambda: [{"Alive": True, "NodeID": "a"},
                 {"Alive": True, "NodeID": "b"}])


def test_exchange_multinode_guard_raises(ray_session, monkeypatch):
    """Simulated second node + no NSE_EXCHANGE_ROOT: the exchange path
    must fail loudly at stage creation, not silently drop rows."""
    from neurostore_text_extraction_ray.pipelines import steps
    from neurostore_text_extraction_ray.stages import exchange as ex

    monkeypatch.delenv("NSE_EXCHANGE_ROOT", raising=False)
    _fake_two_nodes(monkeypatch)
    with pytest.raises(RuntimeError, match="shared"):
        ex._assert_single_node()
    force_routes(monkeypatch, "domain")
    with pytest.raises(RuntimeError, match="shared"):
        steps.docs_domain_stats(SF).to_pandas()


def test_exchange_shared_root_multinode_rehearsal(ray_session, tmp_path,
                                                  monkeypatch):
    """Simulated second node WITH a shared exchange root: the run
    proceeds, every stage dir lands under the root, and the result
    equals the single-node driver path."""
    from neurostore_text_extraction_ray.pipelines import steps
    from neurostore_text_extraction_ray.stages import exchange as ex

    drv = _canon(steps.docs_domain_stats(SF).to_pandas())
    root = tmp_path / "shared_x"
    monkeypatch.setenv("NSE_EXCHANGE_ROOT", str(root))
    _fake_two_nodes(monkeypatch)
    made = []
    real_make = ex.make_stage

    def recording_make(prefix):
        s = real_make(prefix)
        made.append(s)
        return s

    monkeypatch.setattr(ex, "make_stage", recording_make)
    force_routes(monkeypatch, "domain")
    exch = _canon(steps.docs_domain_stats(SF).to_pandas())
    pd.testing.assert_frame_equal(drv, exch)
    assert made and all(s.startswith(str(root)) for s in made)


def test_shared_visibility_guard(ray_session, monkeypatch):
    """Non-exchange fragment writers (flagship run dir, incremental
    state): multi-node without the NSE_SHARED_STORAGE promise raises;
    with it (or single-node) it is a no-op."""
    from neurostore_text_extraction_ray.stages import exchange as ex

    monkeypatch.delenv("NSE_SHARED_STORAGE", raising=False)
    monkeypatch.setattr(ex, "_VIS_CHECKED", False)
    ex.assert_shared_visibility("x")  # single-node: no-op (and memoizes)
    assert ex._VIS_CHECKED  # passed check cached per process (hot path)
    _fake_two_nodes(monkeypatch)
    # a PASSED single-node check is memoized for the process lifetime —
    # a node joining mid-job is caught by its own workers' first-batch
    # checks, so the fresh-process behavior is what matters:
    monkeypatch.setattr(ex, "_VIS_CHECKED", False)
    with pytest.raises(RuntimeError, match="NSE_SHARED_STORAGE"):
        ex.assert_shared_visibility("flagship stage dir")
    monkeypatch.setenv("NSE_SHARED_STORAGE", "1")
    ex.assert_shared_visibility("flagship stage dir")


def test_fragment_writers_route_through_validation():
    """Static invariant: every module that writes part= fragment dirs
    either routes rows through write_exchange (whose execution-time
    check runs on driver and workers) or calls
    assert_shared_visibility itself."""
    import glob
    import os

    import neurostore_text_extraction_ray as pkg

    pkg_dir = os.path.dirname(pkg.__file__)
    offenders = []
    for path in glob.glob(f"{pkg_dir}/**/*.py", recursive=True):
        if path.endswith(os.path.join("stages", "exchange.py")):
            continue
        src = open(path).read()
        writes = 'f"part={' in src and "os.makedirs(frag_dir" in src
        if writes and "write_exchange" not in src \
                and "assert_shared_visibility" not in src:
            offenders.append(path)
        # exchange.py is the one reader and writer of part= fragment
        # dirs (phase B reads its commit list, never a glob), and no
        # partial aggregate carries a batch-unique tag column any more
        if "part=" in src:
            offenders.append(f"{path}: part= fragment dir outside exchange.py")
        if re.search(r"[\"']b0[\"']", src):
            offenders.append(f"{path}: b0 tag column")
    assert not offenders, offenders


def test_no_native_groupby():
    """Static invariant: no module calls Ray Data's
    ``groupby(...).map_groups``, a native all-to-all (46-104 s for a
    237 MB exchange in BASELINE.md); per-key work goes through
    ``ex.combine_by_key``."""
    import neurostore_text_extraction_ray as pkg

    pkg_dir = os.path.dirname(pkg.__file__)
    offenders = [
        f"{path}:{n}"
        for path in glob.glob(f"{pkg_dir}/**/*.py", recursive=True)
        for n, line in enumerate(open(path), 1) if "map_groups(" in line]
    assert not offenders, offenders


# Top-level package functions outside ``stages/`` that still drive an
# exchange by hand (``ex.stage``, ``write_exchange`` or ``map_parts``),
# each with the reason no primitive fits (ROADMAP item 3). Every other
# wide step composes ``combine_by_key``, ``join_by_key``,
# ``scan_by_range`` or ``keep_first``.
_HAND_WRITTEN = {
    # emits build-only rows ("added"), which a probe-driven kernel cannot
    "steps.dataset_diff",
    # partitions by bloom shard, not by key hash
    "steps._docs_bloom_seen_exchanged",
    # a one-stage self-join: one stage plays both join roles
    "steps._events_range_join_exchanged",
    # as two chained join_by_key calls it ran at 0.537 s against 0.432 s
    "steps._pmi_scored_exchanged",
    # sends halo rows to later range parts and has no prefix broadcast,
    # so it is not the scan's shape
    "steps.events_global_rolling_sum",
    # iterative rounds with a convergence test between them
    "extras._host_pagerank_exchanged",
    # use a stage only as a scratch dir
    "extras._warc_source_roundtrip",
    "extras._warc_extract_text",
    # the flagship's phase A and its two stage-owning callers: they run
    # the sink's phase A as plain parquet file tasks, which no
    # primitive runs
    "flagship._exchange_pages",
    "flagship.dedup_pages",
    "flagship.flagship_dataset",
}

# sites moved onto the primitives: none may come back to the plumbing
_ON_PRIMITIVES = {
    "steps.docs_domain_cap", "steps.events_sessionize",
    "steps.events_rolling_count", "steps.events_user_running_total",
    "steps.events_funnel", "steps.pack_shards", "steps.pack_sequences",
    "steps.global_rank", "extras._host_components",
}


def _calls_by_function() -> dict[str, set[str]]:
    """``module.function`` -> the names every top-level function of the
    package outside ``stages/`` calls (``ex.stage(...)`` -> ``stage``)."""
    import ast

    import neurostore_text_extraction_ray as pkg

    pkg_dir = os.path.dirname(pkg.__file__)
    calls = {}
    for path in glob.glob(f"{pkg_dir}/**/*.py", recursive=True):
        if os.sep + "stages" + os.sep in path:
            continue
        mod = os.path.splitext(os.path.basename(path))[0]
        for fn in ast.parse(open(path).read()).body:
            if isinstance(fn, ast.FunctionDef):
                calls[f"{mod}.{fn.name}"] = {
                    getattr(n.func, "attr", getattr(n.func, "id", None))
                    for n in ast.walk(fn) if isinstance(n, ast.Call)}
    return calls


def test_hand_written_exchanges_are_listed():
    """Static invariant: the functions that open an exchange stage or
    write or map its parts by hand are exactly ``_HAND_WRITTEN``, and
    the sites moved onto the primitives use no stage, part map or
    broadcast of their own (``ray.put`` / ``get_broadcast``)."""
    calls = _calls_by_function()
    plumbing = {"stage", "write_exchange", "map_parts"}
    hand = {f for f, names in calls.items() if names & plumbing}
    unlisted = sorted(hand - _HAND_WRITTEN)
    assert not unlisted, f"not on a primitive: {unlisted}"
    stale = sorted(_HAND_WRITTEN - hand)
    assert not stale, f"listed but not hand-written: {stale}"
    relapsed = {f: sorted(calls[f] & (plumbing | {"put", "get_broadcast"}))
                for f in sorted(_ON_PRIMITIVES)}
    assert not any(relapsed.values()), relapsed


def test_gates_live_in_the_registry():
    """Static invariant: every driver-or-exchange limit is a key of
    ``exchange.ROUTES`` / ``exchange.BUDGETS``. No module defines its
    own ``*_LIMIT`` (``SEMDEDUP_CLUSTER_LIMIT`` is a tiling block size,
    not a gate), and no test or tool patches one by attribute: such a
    patch would set an attribute nothing reads and compare the driver
    path with itself."""
    import glob

    import neurostore_text_extraction_ray as pkg

    pkg_dir = os.path.dirname(pkg.__file__)
    repo = os.path.dirname(pkg_dir)
    offenders = []
    for path in glob.glob(f"{pkg_dir}/**/*.py", recursive=True):
        if path.endswith(os.path.join("stages", "exchange.py")):
            continue
        for name in re.findall(r"^([A-Z_]*_LIMIT)\s*=", open(path).read(),
                               re.M):
            if name != "SEMDEDUP_CLUSTER_LIMIT":
                offenders.append(f"{path}: {name}")
    scripts = (glob.glob(f"{repo}/tests/*.py")
               + glob.glob(f"{repo}/tools/*.py"))
    for path in scripts:
        src = open(path).read()
        for m in re.finditer(r"setattr\([^)]*[\"'][A-Z_]*_LIMIT[\"']", src):
            if "SEMDEDUP_CLUSTER_LIMIT" not in m.group(0):
                offenders.append(f"{path}: {m.group(0)}")
        for m in re.finditer(r"^\s*\w+\.[A-Z_]*_LIMIT\s*=", src, re.M):
            offenders.append(f"{path}: {m.group(0).strip()}")
    assert not offenders, offenders


def test_docs_domain_cap_semantics(ray_session):
    """Per-domain cap: at most `cap` docs per domain, chosen by the
    sampling hash then doc_id; kept set invariant to the part count."""
    from neurostore_text_extraction_ray.pipelines import steps

    out = _canon(steps.docs_domain_cap(SF, cap=3).to_pandas())
    per_dom = out.groupby("domain").size()
    assert (per_dom <= 3).all()
    # head domains (>= 5 docs each at sf0.001) hit the cap exactly
    heads = per_dom[per_dom.index.str.startswith("site")]
    assert len(heads) == 7 and (heads == 3).all()
    # tail singletons survive untouched
    tails = per_dom[per_dom.index.str.startswith("tail")]
    assert (tails == 1).all()
    # deterministic + independent of partitioning
    out1 = _canon(steps.docs_domain_cap(SF, cap=3, num_parts=1).to_pandas())
    pd.testing.assert_frame_equal(out, out1)
    # the chosen ids are the hash-minimal ones per domain (spot-check)
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])
    ids = docs["doc_id"].to_numpy()
    dom0 = ids[(ids % 11 != 0) & (ids % 7 == 0)]
    h = (dom0 * 2654435761) % (1 << 31) % (1 << 20)
    expect = set(dom0[np.lexsort((dom0, h))][:3])
    got = set(out[out["domain"] == "site0.example"]["doc_id"])
    assert got == expect


def test_tfidf_df_combine_exchange_equivalence(ray_session, monkeypatch):
    from neurostore_text_extraction_ray.pipelines import steps

    drv = _canon(steps.tfidf(SF).to_pandas())
    force_routes(monkeypatch, "terms")
    exch = _canon(steps.tfidf(SF).to_pandas())
    pd.testing.assert_frame_equal(drv, exch)
    assert len(drv) > 0


def test_tfidf_vocab_budget_raises(ray_session, monkeypatch):
    from neurostore_text_extraction_ray.exceptions import BudgetError
    from neurostore_text_extraction_ray.pipelines import steps

    force_budget(monkeypatch, "tfidf_vocab")
    with pytest.raises(BudgetError, match=r"BUDGETS\['tfidf_vocab'\]"):
        steps.tfidf(SF).to_pandas()


def test_key_part_negative_zero_colocates():
    """-0.0 == 0.0 in a groupby, so they must hash to the same part."""
    import pyarrow as pa

    from neurostore_text_extraction_ray.stages.exchange import key_part

    t = pa.table({"k": pa.array([0.0, -0.0, 1.5, -1.5], pa.float64())})
    parts = key_part(t, ["k"], 32)
    assert parts[0] == parts[1]


def test_grouped_sum_null_keys_kept(ray_session, monkeypatch):
    """SQL GROUP BY keeps NULL keys; the shared combine must too, on
    BOTH the driver and the exchange path (pandas groupby's default
    dropna=True silently dropped them — regression)."""
    import pyarrow as pa
    import ray.data as rd

    from neurostore_text_extraction_ray.pipelines.steps import (
        grouped_sum_by_key)

    partials = rd.from_arrow(pa.table({
        "lang": pa.array(["en", None, "de", None, "en"], pa.string()),
        "n": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "b0": pa.array([0, 1, 2, 3, 4], pa.int64()),
    }))
    for path in ("driver", "exchange"):
        with monkeypatch.context() as mp:
            if path == "exchange":
                force_routes(mp, "agg_partials")
            df = grouped_sum_by_key(partials, "lang", ["n"],
                                    "agg_partials").to_pandas()
        null_rows = df[df["lang"].isna()]
        assert len(null_rows) == 1, f"{path} path: null key dropped"
        assert int(null_rows["n"].iloc[0]) == 6
        assert int(df["n"].sum()) == 15 and len(df) == 3


def test_user_retention_exchange_equivalence(ray_session, monkeypatch):
    """Beyond-the-gate user-hash exchange path equals the driver
    kernel, and both equal an in-memory pandas re-derivation."""
    from neurostore_text_extraction_ray.pipelines import steps

    drv = _canon(steps.events_user_retention(SF).to_pandas())
    force_routes(monkeypatch, "user_days")
    exch = _canon(steps.events_user_retention(SF).to_pandas())
    pd.testing.assert_frame_equal(drv, exch)
    assert len(drv) > 0 and (drv["n_retained_next"] <= drv["n_active"]).all()

    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["ts", "user_id"])
    ev["day"] = ev["ts"].dt.floor("D")
    ud = ev[["user_id", "day"]].drop_duplicates()
    nxt = ud.assign(day=ud["day"] - pd.Timedelta(days=1), r=1)
    j = ud.merge(nxt, on=["user_id", "day"], how="left")
    want = (j.groupby("day").agg(n_active=("user_id", "size"),
                                 r=("r", "sum")).reset_index())
    want["n_retained_next"] = want.pop("r").astype("int64")
    pd.testing.assert_frame_equal(drv, _canon(want))


def _rows_seen(stage, num_parts=4) -> int:
    from neurostore_text_extraction_ray.stages import exchange as ex

    out = ex.map_parts(
        stage, num_parts,
        lambda t: pa.table({"n": pa.array([t.num_rows], pa.int64())}),
        pa.schema([("n", pa.int64())])).to_pandas()
    return int(out["n"].sum())


def test_identical_batches_both_reach_phase_b(ray_session, tmp_path):
    """Two byte-identical batches write one fragment file, but the
    commit list names it twice: phase B sees all 6 rows, not 3."""
    import ray.data as rd

    from neurostore_text_extraction_ray.stages import exchange as ex

    t = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                  "v": pa.array([10, 20, 30], pa.int64())})
    stage = str(tmp_path / "stage")
    n = ex.write_exchange(rd.from_arrow([t, t]), stage,
                          lambda b: np.zeros(b.num_rows, np.int64),
                          batch_size=3)
    assert n == 6
    assert _rows_seen(stage) == 6


def test_unlisted_fragment_is_not_read(ray_session, tmp_path):
    """A valid fragment already in a part dir (a crashed attempt's, or
    an earlier input's) is not in the commit list and never read."""
    import ray.data as rd

    from neurostore_text_extraction_ray.stages import exchange as ex

    t = pa.table({"k": pa.array(np.arange(20), pa.int64())})
    stage = tmp_path / "stage"
    os.makedirs(stage / "part=00000")
    pq.write_table(t, str(stage / "part=00000" / "planted.parquet"))
    ex.write_exchange(rd.from_arrow(t), str(stage),
                      lambda b: np.zeros(b.num_rows, np.int64))
    assert _rows_seen(str(stage)) == 20


def test_phase_a_task_retry_commits_once(ray_session, tmp_path):
    """A phase-A worker dies on the second batch of a four-batch task
    (after the first batch wrote its fragments); Ray Data retries the
    task. Every row reaches phase B exactly once and the commit list
    has one entry per (batch, part)."""
    import ray.data as rd

    from neurostore_text_extraction_ray.stages import exchange as ex

    marker = str(tmp_path / "crashed")
    t = pa.table({"v": pa.array(np.arange(40), pa.int64())})

    def part_fn(b):
        v = b["v"].to_numpy(zero_copy_only=False)
        if v[0] == 10 and not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)
        return v % 3

    stage = str(tmp_path / "stage")
    assert ex.write_exchange(rd.from_arrow(t), stage, part_fn,
                             batch_size=10) == 40
    assert os.path.exists(marker)  # the first attempt did die
    listing = pq.read_table(os.path.join(stage, ex.FRAGMENT_LIST))
    assert listing.num_rows == 4 * 3  # 4 batches x 3 parts each
    seen = ex.map_parts(stage, 3, lambda tb: tb,
                        pa.schema([("v", pa.int64())])).to_pandas()
    assert sorted(seen["v"]) == list(range(40))


def test_a_stage_has_one_writer(ray_session, tmp_path):
    """A second ``write_exchange`` into a committed stage raises before
    it writes a fragment, and so does a second commit; the first list
    stays as it was."""
    import ray.data as rd

    from neurostore_text_extraction_ray.stages import exchange as ex

    t = pa.table({"v": pa.array(np.arange(30), pa.int64())})
    stage = str(tmp_path / "stage")
    ex.write_exchange(rd.from_arrow(t), stage, lambda b: np.zeros(
        b.num_rows, np.int64))
    listing = os.path.join(stage, ex.FRAGMENT_LIST)
    before = open(listing, "rb").read()
    frags = sorted(glob.glob(os.path.join(stage, "part=*", "*")))
    with pytest.raises(ValueError, match="already holds a commit list"):
        ex.write_exchange(rd.from_arrow(t.slice(5)), stage,
                          lambda b: np.ones(b.num_rows, np.int64))
    with pytest.raises(ValueError, match="already holds a commit list"):
        ex.commit_fragments(stage, ex.write_fragments(
            t, stage, lambda b: np.zeros(b.num_rows, np.int64)).to_pandas())
    assert open(listing, "rb").read() == before
    assert sorted(glob.glob(os.path.join(stage, "part=*", "*"))) == frags


def _odd_schema_table() -> pa.Table:
    schema = pa.schema([
        ("l", pa.list_(pa.int64())),
        ("ts", pa.timestamp("ns")),
        ("d", pa.dictionary(pa.int32(), pa.string())),
        ("b", pa.large_binary()),
        ("z", pa.null()),
    ], metadata={b"origin": b"exchange-test"})
    n = 10
    return pa.table({
        "l": pa.array([list(range(i % 3)) for i in range(n)],
                      pa.list_(pa.int64())),
        "ts": pa.array(np.arange(n).astype("datetime64[ns]")),
        "d": pa.array(["a", "b"] * (n // 2)).dictionary_encode(),
        "b": pa.array([bytes([i]) * i for i in range(n)], pa.large_binary()),
        "z": pa.nulls(n),
    }, schema=schema)


def test_fragments_keep_the_input_schema(ray_session, tmp_path):
    """A fragment round trip keeps the Arrow schema exactly, metadata
    and the list child's name (``item``) included, for what parquet
    rewrote or could not hold; a part without fragments reads as an
    empty table of the caller's schema."""
    import ray.data as rd

    from neurostore_text_extraction_ray.stages import exchange as ex

    t = _odd_schema_table()
    stage = str(tmp_path / "stage")
    # parts 0 and 1 get rows; part 2 gets none
    assert ex.write_exchange(rd.from_arrow(t), stage,
                             lambda b: np.arange(b.num_rows) % 2) == 10
    for p in (0, 1, 2):
        got = ex.read_files(ex.part_files(stage).get(p, []), t.schema)
        assert got.schema.equals(t.schema, check_metadata=True), got.schema
        assert got.num_rows == (5 if p < 2 else 0)
    part0 = ex.read_files(ex.part_files(stage).get(0, []), t.schema)
    assert part0.to_pylist() == t.take([0, 2, 4, 6, 8]).to_pylist()
    out = ex.map_parts(
        stage, 3,
        lambda tb: pa.table({
            "ok": [tb.schema.equals(t.schema, check_metadata=True)],
            "n": [tb.num_rows]}),
        pa.schema([("ok", pa.bool_()), ("n", pa.int64())])).to_pandas()
    assert out["ok"].all() and sorted(out["n"]) == [5, 5]


def test_fragment_files_are_content_named_ipc(ray_session, tmp_path):
    """Fragments are compressed Arrow IPC files named by a hash of their
    bytes, written in place (no temp file left behind): the same input
    commits the same fragment list into a second stage."""
    import ray.data as rd

    from neurostore_text_extraction_ray.stages import exchange as ex

    n = 100_000
    t = pa.table({"k": pa.array(np.arange(n), pa.int64()),
                  "zeros": pa.array(np.zeros(n), pa.float64())})

    def listing(stage):
        ex.write_exchange(rd.from_arrow(t), stage,
                          lambda b: b["k"].to_numpy() % 4, batch_size=n)
        return {p: [os.path.relpath(f, stage) for f in fs]
                for p, fs in ex.part_files(stage).items()}

    stage = str(tmp_path / "stage")
    first = listing(stage)
    files = [os.path.join(stage, f) for fs in first.values() for f in fs]
    assert len(files) == 4
    # 1.6 MB of int64 and float64 values; the zeros compress away
    assert sum(os.path.getsize(f) for f in files) < 1_000_000
    for f in files:
        assert re.fullmatch(r"[0-9a-f]{20}\.arrow", os.path.basename(f)), f
        with pa.OSFile(f) as src:
            reader = pa.ipc.open_file(src)
            assert reader.num_record_batches == 1
    leftovers = [n for _, _, names in os.walk(stage) for n in names
                 if ".tmp" in n]
    assert not leftovers, leftovers
    assert listing(str(tmp_path / "again")) == first


# ---------------------------------------------------------------------------
# ex.join_by_key on both paths: the broadcast map and the co-partitioned
# exchange. ``-1`` routes the "join" gate to the exchange even for an
# empty build side (0 rows fit a limit of 0).
# ---------------------------------------------------------------------------

_JOIN_PATHS = {"broadcast": None, "exchange": -1}


def _sorted_state(t: pa.Table):
    k = t["bk"].to_numpy(zero_copy_only=False)
    order = np.argsort(k, kind="stable")
    return k[order], t["b"].to_numpy(zero_copy_only=False)[order]


def _lookup(t: pa.Table, state):
    ks, _ = state
    keys = t["k"].to_numpy(zero_copy_only=False)
    if not len(ks):
        return np.zeros(len(keys), np.int64), np.zeros(len(keys), bool)
    j = np.clip(np.searchsorted(ks, keys), 0, len(ks) - 1)
    return j, ks[j] == keys


def _inner(t, state):
    assert t.num_rows > 0, "a kernel ran without probe rows"
    j, hit = _lookup(t, state)
    return t.filter(pa.array(hit)).append_column(
        "b", pa.array(state[1][j[hit]], pa.int64()))


def _semi(t, state):
    assert t.num_rows > 0, "a kernel ran without probe rows"
    return t.filter(pa.array(_lookup(t, state)[1]))


def _anti(t, state):
    assert t.num_rows > 0, "a kernel ran without probe rows"
    return t.filter(pa.array(~_lookup(t, state)[1]))


def _left_zero(t, state):
    assert t.num_rows > 0, "a kernel ran without probe rows"
    j, hit = _lookup(t, state)
    b = np.zeros(t.num_rows, np.int64)
    b[hit] = state[1][j[hit]]
    return t.append_column("b", pa.array(b))


_PROBE_SCHEMA = pa.schema([("k", pa.int64()), ("a", pa.int64())])
_WITH_B = _PROBE_SCHEMA.append(pa.field("b", pa.int64()))
_KERNELS = {"inner": (_inner, _WITH_B), "semi": (_semi, _PROBE_SCHEMA),
            "anti": (_anti, _PROBE_SCHEMA), "left": (_left_zero, _WITH_B)}


def _expected(kind: str, probe: pa.Table, build: pa.Table) -> list:
    """The join's rows, computed with exact python ints."""
    lookup = dict(zip(build["bk"].to_pylist(), build["b"].to_pylist()))
    rows = []
    for k, a in zip(probe["k"].to_pylist(), probe["a"].to_pylist()):
        hit = k is not None and k in lookup
        if kind == "inner" and hit:
            rows.append((k, a, lookup[k]))
        elif (kind == "semi" and hit) or (kind == "anti" and not hit):
            rows.append((k, a))
        elif kind == "left":
            rows.append((k, a, lookup[k] if hit else 0))
    return sorted(rows, key=repr)


def _run_join(monkeypatch, path, probe_tables, build, kernel, out_schema,
              prepare=_sorted_state, num_parts=4) -> list:
    import ray.data as rd

    from neurostore_text_extraction_ray.stages import exchange as ex

    if _JOIN_PATHS[path] is not None:
        force_routes(monkeypatch, "join", limit=_JOIN_PATHS[path])
    out = ex.join_by_key(rd.from_arrow(probe_tables), rd.from_arrow(build),
                         ["k"], ["bk"], prepare, kernel, out_schema, "join",
                         num_parts=num_parts)
    rows = [t for t in out.iter_batches(batch_format="pyarrow")]
    table = (pa.concat_tables(rows) if rows else out_schema.empty_table())
    assert table.schema.equals(out_schema)
    return sorted((tuple(r.values()) for r in table.to_pylist()), key=repr)


def _probe(keys) -> pa.Table:
    return pa.table({"k": pa.array(keys, pa.int64()),
                     "a": pa.array(np.arange(len(keys)), pa.int64())})


def _build(keys) -> pa.Table:
    return pa.table({"bk": pa.array(keys, pa.int64()),
                     "b": pa.array([10 * k + 1 for k in keys], pa.int64())})


@pytest.mark.parametrize("path", list(_JOIN_PATHS))
@pytest.mark.parametrize("kind", list(_KERNELS))
def test_join_by_key_kernels(ray_session, monkeypatch, kind, path):
    """Inner, semi, anti and left-zero-fill kernels: the same rows on
    both paths, equal to the exact python join. Build keys 100-139
    match no probe row, so with 4 parts some part has build rows and
    no probe rows (the kernels assert they never see an empty probe)."""
    probe = _probe([i % 30 for i in range(90)])
    build = _build(list(range(0, 30, 2)) + list(range(100, 140)))
    kernel, schema = _KERNELS[kind]
    got = _run_join(monkeypatch, path, [probe.slice(0, 45), probe.slice(45)],
                    build, kernel, schema)
    assert got == _expected(kind, probe, build)


@pytest.mark.parametrize("path", list(_JOIN_PATHS))
@pytest.mark.parametrize("case", ["empty_build", "empty_probe", "both_empty"])
def test_join_by_key_empty_sides(ray_session, monkeypatch, case, path):
    probe = _probe([] if case != "empty_build" else [1, 2, 3])
    build = _build([] if case != "empty_probe" else [1, 2])
    for kind in ("inner", "anti", "left"):
        kernel, schema = _KERNELS[kind]
        with monkeypatch.context() as mp:
            got = _run_join(mp, path, probe, build, kernel, schema)
        assert got == _expected(kind, probe, build), kind


@pytest.mark.parametrize("path", list(_JOIN_PATHS))
def test_join_by_key_ids_above_2_53_exact(ray_session, monkeypatch, path):
    """int64 keys and payloads above 2^53 stay exact on both paths: a
    float64 step would merge 2^53 + 1 into 2^53."""
    big = [2**53, 2**53 + 1, 2**62 + 7, -(2**62) - 3]
    probe = _probe(big + [2**53 + 3])
    build = pa.table({"bk": pa.array(big[1:], pa.int64()),
                      "b": pa.array([k ^ 1 for k in big[1:]], pa.int64())})
    got = _run_join(monkeypatch, path, probe, build, _left_zero, _WITH_B)
    assert got == _expected("left", probe, build)
    assert (2**53, 0, 0) in got and (2**53 + 1, 1, 2**53) in got


@pytest.mark.parametrize("path", list(_JOIN_PATHS))
def test_join_by_key_null_keys(ray_session, monkeypatch, path):
    """NULL probe keys match nothing, and a NULL beside an integer key
    does not move that key's rows to another part (``to_numpy`` of an
    int column with a NULL is float64)."""
    import pyarrow.compute as pc

    def semi_is_in(t, keys):
        return t.filter(pc.fill_null(pc.is_in(t["k"], value_set=keys), False))

    def key_set(t):
        return pc.unique(t["bk"]).drop_null()

    probe = pa.table({"k": pa.array([1, None, 2, 3, None, 4] * 5, pa.int64()),
                      "a": pa.array(np.arange(30), pa.int64())})
    build = pa.table({"bk": pa.array([1, 3, None], pa.int64()),
                      "b": pa.array([0, 0, 0], pa.int64())})
    got = _run_join(monkeypatch, path, probe, build, semi_is_in,
                    _PROBE_SCHEMA, prepare=key_set, num_parts=8)
    assert got == _expected("semi", probe, build)
    assert len(got) == 10

    strings = pa.table({"k": pa.array(["x", None, "y", "z"] * 4),
                        "a": pa.array(np.arange(16), pa.int64())})
    s_build = pa.table({"bk": pa.array(["y", None, "z"]),
                        "b": pa.array([0, 0, 0], pa.int64())})
    with monkeypatch.context() as mp:
        got = _run_join(mp, path, strings, s_build, semi_is_in,
                        pa.schema([("k", pa.string()), ("a", pa.int64())]),
                        prepare=key_set, num_parts=8)
    assert got == _expected("semi", strings, s_build)
    assert len(got) == 8


@pytest.mark.parametrize("path", list(_JOIN_PATHS))
def test_join_by_key_hot_key(ray_session, monkeypatch, path):
    """One key holds half the probe rows."""
    probe = _probe([7] * 100 + list(range(100)))
    build = _build([7, 8, 9, 500])
    got = _run_join(monkeypatch, path, [probe.slice(0, 120), probe.slice(120)],
                    build, _inner, _WITH_B)
    assert got == _expected("inner", probe, build)
    assert len(got) == 103


def test_join_by_key_prepares_once_when_broadcast(ray_session):
    """The broadcast path runs ``prepare`` once, on the driver, however
    many probe batches there are."""
    calls = []

    def counting_prepare(t):
        calls.append(t.num_rows)
        return _sorted_state(t)

    probe = _probe(list(range(60)))
    build = _build(list(range(0, 60, 3)))
    got = _run_join(None, "broadcast", [probe.slice(i, 10)
                                        for i in range(0, 60, 10)],
                    build, _semi, _PROBE_SCHEMA, prepare=counting_prepare)
    assert got == _expected("semi", probe, build)
    assert calls == [20]


def test_join_by_key_exchange_leaves_no_stage(ray_session, monkeypatch):
    from neurostore_text_extraction_ray.stages import exchange as ex

    def stages():
        return set(glob.glob(os.path.join(ex.exchange_root(), "nse_join_*")))

    before = stages()
    probe, build = _probe(list(range(50))), _build(list(range(25)))
    got = _run_join(monkeypatch, "exchange", probe, build, _inner, _WITH_B)
    assert got == _expected("inner", probe, build)
    assert stages() == before


@pytest.mark.parametrize("path", list(_JOIN_PATHS))
def test_join_by_key_parquet_build_lazy_probe(ray_session, monkeypatch,
                                             tmp_path, path):
    """A bare ``read_parquet`` build side (counted from its footers and,
    below the gate, read on the driver) gives the rows of the same
    build in memory, and neither path materializes the probe side: it
    streams into the broadcast map or the exchange."""
    import ray.data as rd

    from neurostore_text_extraction_ray.stages import exchange as ex

    build = _build(list(range(0, 40, 2)) + [100, 101])
    for i, piece in enumerate([build.slice(0, 9), build.slice(9)]):
        pq.write_table(piece, str(tmp_path / f"build-{i}.parquet"))
    parquet_build = rd.read_parquet(str(tmp_path), columns=["bk", "b"])
    assert ex.plain_parquet_files(parquet_build) is not None
    probe = _probe([i % 45 for i in range(90)])
    probe_ds = rd.from_arrow([probe.slice(0, 45), probe.slice(45)]) \
        .map_batches(lambda b: b, batch_format="pyarrow")

    materialized = []
    real = rd.Dataset.materialize
    monkeypatch.setattr(rd.Dataset, "materialize",
                        lambda self: materialized.append(self) or real(self))
    if _JOIN_PATHS[path] is not None:
        force_routes(monkeypatch, "join", limit=_JOIN_PATHS[path])
    out = ex.join_by_key(probe_ds, parquet_build, ["k"], ["bk"],
                         _sorted_state, _inner, _WITH_B, "join", num_parts=4)
    got = sorted((tuple(r.values()) for r in out.take_all()), key=repr)
    assert got == _expected("inner", probe, build)
    assert all(d is not probe_ds for d in materialized)


@pytest.mark.parametrize("forced", [False, True], ids=["driver", "exchange"])
def test_combine_by_key_parquet_input(ray_session, monkeypatch, tmp_path,
                                      forced):
    """A bare ``read_parquet`` input is counted from its footers and,
    below the gate, read on the driver: neither path materializes it,
    and both give the exact per-key sums."""
    import ray.data as rd

    from neurostore_text_extraction_ray.stages import exchange as ex

    t = pa.table({"k": pa.array([i % 7 for i in range(60)], pa.int64()),
                  "v": pa.array(range(60), pa.int64())})
    for i, piece in enumerate([t.slice(0, 25), t.slice(25)]):
        pq.write_table(piece, str(tmp_path / f"in-{i}.parquet"))
    ds = rd.read_parquet(str(tmp_path))
    assert ex.plain_parquet_files(ds) is not None
    materialized = []
    real = rd.Dataset.materialize
    monkeypatch.setattr(rd.Dataset, "materialize",
                        lambda self: materialized.append(self) or real(self))
    if forced:
        force_routes(monkeypatch, "key_rows")
    out = ex.combine_by_key(
        ds, ["k"], lambda df: df.groupby("k", as_index=False)["v"].sum(),
        pa.schema([("k", pa.int64()), ("v", pa.int64())]), "key_rows",
        num_parts=4)
    got = sorted((r["k"], r["v"]) for r in out.take_all())
    want = t.to_pandas().groupby("k")["v"].sum()
    assert got == list(zip(want.index, want))
    assert all(d is not ds for d in materialized)


# ---------------------------------------------------------------------------
# ex.scan_by_range with the rank kernel (total = rows) on edge key shapes
# ---------------------------------------------------------------------------

_I64 = np.iinfo(np.int64)


@pytest.mark.parametrize("keys,num_parts,n_parts", [
    pytest.param([], 4, 0, id="empty"),
    pytest.param([7] * 50, 4, 1, id="all_equal"),
    pytest.param(list(range(-100, 0))[::-1], 4, 4, id="negative"),
    pytest.param([-(1 << 62) + 1, -(1 << 62) + 2, 0, (1 << 62) - 2,
                  (1 << 62) - 1], 4, 3, id="near_2_62"),
    pytest.param([int(_I64.min), -1, 0, int(_I64.max)], 4, 4,
                 id="int64_extremes"),
    pytest.param([int(_I64.min), 0, int(_I64.max)], 1, 1,
                 id="int64_extremes_one_part"),
    pytest.param(list(range(10)) + list(range(1000, 1010)), 10, 2,
                 id="empty_parts_between"),
])
def test_scan_by_range_edges(ray_session, keys, num_parts, n_parts):
    """Every row gets its global rank in key order, each part's offset
    is the row count of the parts before it, and rows land in the
    expected number of non-empty parts (equal keys in one, empty parts
    between non-empty ones skipped)."""
    import ray.data as rd

    from neurostore_text_extraction_ray.stages import exchange as ex

    out_schema = pa.schema([("k", pa.int64()), ("rnk", pa.int64()),
                            ("part_min", pa.int64())])

    def rank(t: pa.Table, offset: int) -> pa.Table:
        k = np.sort(t["k"].to_numpy(zero_copy_only=False))
        return pa.table({
            "k": pa.array(k, pa.int64()),
            "rnk": pa.array(offset + 1 + np.arange(len(k)), pa.int64()),
            "part_min": pa.array(np.full(len(k), k[0]), pa.int64())})

    t = pa.table({"k": pa.array(keys, pa.int64())})
    ds = rd.from_arrow([t.slice(0, len(keys) // 2), t.slice(len(keys) // 2)])
    out = ex.scan_by_range(ds, "k", lambda p: p.num_rows, rank, out_schema,
                           num_parts)
    out = pd.DataFrame(out.take_all(), columns=out_schema.names).sort_values(
        "rnk")
    assert out["rnk"].tolist() == list(range(1, len(keys) + 1))
    assert out["k"].tolist() == sorted(keys)
    assert out["part_min"].nunique() == n_parts
