"""Generic filesystem-mediated partition exchange.

Ray Data's native ``groupby``/``sort`` all-to-all measured 46-104 s for
a 237 MB exchange in this environment (BASELINE.md), so wide operators
here exchange through shared storage instead: phase A streams the
input and writes each batch's rows into per-part fragments; phase B
runs one plain Ray task per part over its fragments (``part_tasks``).
On a cluster this is the standard external-shuffle layout — every
phase is embarrassingly parallel and the exchange is bounded by
storage bandwidth, not an in-memory all-to-all.

A fragment is an LZ4-compressed Arrow IPC file named by a hash of its
bytes. Fragments are transient and each is read once, by one phase-B
task, so the format is the one that is cheapest to write and to read
back: IPC needs no encoding pass and keeps each batch's Arrow schema
exactly (parquet renamed list children ``item`` -> ``element``), and
LZ4 keeps the bytes on the tmpfs default root below parquet's
(measurements in BASELINE.md, "Exchange fragments as LZ4 Arrow IPC").
The content name fixes the order of a part's fragments in the sorted
commit list, so a rerun over the same batches concatenates a part's
rows in the same order. Content names decide no tie: the flagship's
latest-per-url breaks equal warc_ts on the payload bytes, not on row
position.

Retry safety comes from a commit list, not from the directory: each
phase-A batch returns the (part, fragment) pairs it wrote, and once
phase A has finished the driver writes those pairs, as reported by
the successful task attempts only, to ``<stage>/_fragments.parquet``.
Phase B reads exactly that list (``part_files`` / ``read_files``) and
never globs a ``part=`` dir, so a fragment left by a failed attempt or
by an earlier run into the same dir is never read, and two batches
with identical rows write one file that the list names twice. A stage
has one writer: committing into a stage that already holds a list
raises. This module is the one reader and writer of ``part=``
fragment dirs: ``write_exchange`` runs phase A as a Ray Data map, and
a caller that drives its own phase-A tasks (the flagship's parquet
file tasks) calls the same ``write_fragments`` and
``commit_fragments``.

Operators compose four primitives on top of ``write_exchange`` /
``map_parts`` (eager: it returns after every part has run):

- ``stage(prefix)``: the one stage-directory lifecycle. A ``with``
  block owns the directory and removes it on exit, also on error;
  nothing lazy that reads the stage may leave the block (``map_parts``
  output never reads it).
- ``combine_by_key``: the one gated keyed combine — the driver runs
  the combine over the whole input at or below a row limit, a key-hash
  exchange runs it per part beyond it.
- ``join_by_key``: the one gated probe-driven join — at or below a
  build-side row limit the prepared build side broadcasts to a map
  over the probe side, beyond it both sides co-partition on their keys
  and the same kernel runs per part.
- ``scan_by_range``: the one range-ordered prefix scan — rows
  range-partition on an int64 key, each part's total feeds a driver
  exclusive prefix, and each part then runs with its offset.

Every "collect below a row limit, exchange above it" decision reads one
registry here: ``ROUTES`` (gate name -> row limit, asked through
``fits``) and ``BUDGETS`` (hard ceilings a step cannot route around,
enforced by ``check_budget``). Both are looked up at call time, on the
driver, so a test forces a path by patching the dict.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import tempfile
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..exceptions import BudgetError

_MIX = np.uint64(0x9E3779B97F4A7C15)  # 64-bit golden-ratio mixer


# -- gates: driver (or broadcast) at or below the limit, exchange above -----

ROUTES: dict[str, int] = {
    # LSH band rows; beyond, the bucket combine leaves the driver for the
    # partition exchange
    "band_rows": 50_000_000,
    # distinct-ish benchmark shingle hashes of decontaminate, collected
    # on the driver / broadcast to every worker (8 bytes each -> ~40 MB)
    "decon": 5_000_000,
    # per-batch-unique (hash, min-doc) partial rows of dup_spans /
    # line_dedup, collected on the driver / broadcast to every worker
    # (16 bytes each -> ~80 MB)
    "dupspans": 5_000_000,
    "linededup": 5_000_000,
    # fuzzy-join blocking rows; beyond, the bucket->pairs combine
    # leaves the driver and the whole join runs through the exchange
    "fuzzy_blocks": 5_000_000,
    # vocabulary rows above which the BPE iteration leaves the driver,
    # and per-iteration pair-partial rows routed through
    # grouped_sum_by_key
    "bpe_vocab": 200_000,
    "bpe_pairs": 2_000_000,
    # upstream (embeddings) rows; beyond, the join side stops
    # broadcasting and both sides hash-bucket on the id (the reference's
    # add_pipeline join side is one row per DOCUMENT at corpus scale)
    "join": 5_000_000,
    # partial (hash, min-id) rows, then winner ids; beyond, the
    # dedup_exact winner combine leaves the driver for the content-hash
    # partition exchange, and the winner semi-join co-partitions on id
    "dedup_winners": 5_000_000,
    # partial top-k rows; beyond, a two-level combine: doc-hash
    # exchange, per-part top-k under the SAME total order (top-k of a
    # union equals the top-k of per-part top-ks), then a driver merge of
    # at most num_parts x k x groups rows. Partial top-k streams are
    # k x groups x BATCHES sized, no longer driver-sized at 10^6+ blocks
    "topk_partials": 5_000_000,
    # grouped-quantile histogram partials, (group x distinct-value x
    # batches) sized; beyond, a group-hash partition exchange
    "lang_quantiles": 5_000_000,
    # partial (term, n) rows; beyond, a term-hash partition exchange.
    # Web-scale text has an effectively unbounded vocabulary
    # (typos/urls/ids), so the driver combine cannot be the only path
    "terms": 5_000_000,
    # partial (domain, counts) rows and kept domains; beyond, a
    # domain-hash partition exchange. A web crawl has ~10^8 registered
    # domains with a heavy tail of singletons
    "domain": 5_000_000,
    # partial HLL register rows, key-cardinality x batches sized (one
    # 2^p-byte blob per key per batch); beyond, a key-hash exchange
    "hll_group_partials": 2_000_000,
    # boilerplate (domain, line) keys broadcast as a sorted int64
    # array; beyond, docs and keys co-partition by domain hash
    "boilerplate_keys": 20_000_000,
    # kept (domain, value, pr) rows; beyond, the percentile filter
    # co-partitions docs + kept rows by domain hash
    "pctl_kept": 20_000_000,
    # (key, row-hash) pairs of the diff's B side; beyond, both sides
    # co-partition by key hash
    "diff": 20_000_000,
    # partial (group-key, sums) rows of the pricing/window/graph
    # combines; beyond, the shared grouped_sum_by_key exchange. Group
    # cardinality is tiny here (returnflag x linestatus = 6), but no
    # driver collect goes ungated: a pathological key domain (per-second
    # windows over years) must not OOM the driver
    "agg_partials": 5_000_000,
    # distinct (user, day) rows; beyond, the retention kernel runs per
    # user-hash part
    "user_days": 5_000_000,
    # order rows; beyond, the orders side of the as-of join stops
    # broadcasting and both sides hash-bucket on the user key
    "orders": 5_000_000,
    # customer rows; beyond, the customer dimension stops broadcasting
    # (~2.4 GB at sf1000) and orders+customer hash-bucket on custkey;
    # nation/region (25 rows) always broadcast
    "customer": 5_000_000,
    # per-customer order aggregate rows; beyond, the zero-fill join
    # co-partitions both sides by custkey hash
    "order_counts": 20_000_000,
    # distinct set-bit partial rows of the bloom filter, bounded by its
    # bit size; beyond, a shard-co-partitioned build+probe (a
    # 10^12-key filter is ~1.25 TB and must be sharded, never broadcast)
    "bloom_seen_partials": 50_000_000,
    # event rows of the range self-join's build side; beyond, both join
    # roles hash-bucket on the user key
    "range_events": 5_000_000,
    # combined (gram, n) vocabulary rows; beyond, the PMI scoring join
    # runs as a two-round co-partitioned exchange
    "pmi_score": 5_000_000,
    # (src, dst, w) host-graph edges; beyond, the whole PageRank
    # iteration runs as a per-iteration co-partitioned exchange. Hosts
    # are registered domains (~10^8 on a full crawl), so neither the
    # edge list nor the rank vector may assume driver residency
    "pagerank_edges": 20_000_000,
    # deduped host-pair edges; below, component labeling is a vectorized
    # driver min-propagation (the ~10 exchange rounds are pure overhead
    # on a small graph); beyond, O(log n) pointer jumping with labels
    # never on the driver
    "component_edges": 20_000_000,
    # (host, label) decorate rows; beyond, the component
    # representative/size aggregate and the decorate join run
    # label-co-partitioned instead of one driver groupby
    "hostlabel": 20_000_000,
    # input rows of a per-key kernel that needs every row of a key in
    # one call (sessionize, rolling count, running total, funnel,
    # domain cap); at or below, one driver call over the whole input;
    # beyond, one call per key-hash part. Raw event/document rows, not
    # partials: 5M rows of a few int64 / timestamp columns (the funnel
    # adds its short event-type string) are ~0.2 GB as one pandas frame.
    # The sequence-packing stitch also passes here, with at most
    # 2 x num_parts fragment rows whatever the corpus size
    "key_rows": 5_000_000,
}

# Hard ceilings. Scoring fundamentally broadcasts these tables (or, for
# the fuzzy join, allocates the pairs at once), so past the budget the
# fix is semantic, not a bigger driver: raising loudly beats an OOM
# mid-job.
BUDGETS: dict[str, int] = {
    # tfidf: post-min_df vocabulary terms (16 bytes each as sorted
    # hash+idf arrays)
    "tfidf_vocab": 20_000_000,
    # docs_importance_weights: vocabulary rows of the per-term
    # log-ratio table
    "dsir_vocab": 20_000_000,
    # docs_lm_score: model rows (unigram + bigram counts)
    "lm_model": 20_000_000,
    # docs_nb_quality: model rows (per-term class counts)
    "nb_model": 20_000_000,
    # part_name_fuzzy_pairs: pairs per emission (driver path: the whole
    # join; exchange path: per part). The pair mass is quadratic in a
    # hot bucket's size, so a degenerate vocabulary raises before the
    # allocation
    "fuzzy_pairs": 200_000_000,
}


def fits(gate: str, n: int) -> bool:
    """True when ``n`` rows may take gate ``gate``'s driver (or
    broadcast) path: ``n <= ROUTES[gate]``."""
    return n <= ROUTES[gate]


def check_budget(name: str, n: int, hint: str) -> None:
    """Raise ``BudgetError`` when ``n`` rows exceed ``BUDGETS[name]``;
    the message names the key and ``hint``, the semantic fix."""
    limit = BUDGETS[name]
    if n > limit:
        raise BudgetError(
            f"{n} rows exceed the broadcast budget BUDGETS[{name!r}] "
            f"({limit}) in stages/exchange.py: {hint}, or raise the budget")


def exchange_root() -> str:
    """Directory under which exchange stages are created.

    Phase-A workers write fragments here and phase-B workers on ANY
    node must be able to read them, so on a multi-node cluster this
    must be shared storage — set ``NSE_EXCHANGE_ROOT`` (e.g. an NFS /
    object-store mount). The default is node-local tmpfs, which is only
    correct on a single-node cluster; that precondition is ASSERTED
    rather than silently dropping rows."""
    root = os.environ.get("NSE_EXCHANGE_ROOT")
    if root:
        os.makedirs(root, exist_ok=True)
        return root
    _assert_single_node()
    return _default_root()


def _default_root() -> str:
    return "/dev/shm" if os.path.isdir("/dev/shm") else tempfile.gettempdir()


def _assert_single_node() -> None:
    """Raise if running on a multi-node cluster without shared-storage
    exchange root. A no-op when Ray isn't initialized yet — which is
    why ``write_exchange`` re-validates at EXECUTION time (Ray may
    auto-connect via RAY_ADDRESS only when the pipeline first runs,
    after ``make_stage`` already picked node-local tmpfs)."""
    if os.environ.get("NSE_EXCHANGE_ROOT"):
        return
    import ray

    if ray.is_initialized():
        alive = [n for n in ray.nodes() if n.get("Alive")]
        if len(alive) > 1:
            raise RuntimeError(
                "filesystem exchange on a multi-node cluster needs shared "
                "storage: set NSE_EXCHANGE_ROOT to a path visible to every "
                "node (local tmpfs would silently drop other nodes' rows)"
            )


_VIS_CHECKED = False  # per-process: shared-visibility check passed once


def assert_shared_visibility(what: str) -> None:
    """Multi-node guard for NON-exchange fragment writers (the
    flagship pipeline's embedded stage/output dirs, incremental state
    dirs): those paths must be shared storage on a multi-node cluster,
    but unlike the exchange root there is no env var the engine can
    inspect to know a user-supplied path is shared — so the user
    promises it explicitly with ``NSE_SHARED_STORAGE=1``. Single-node
    (and not-yet-initialized Ray): no-op. A PASSED check is memoized
    per process (same shape as ``_NODE_CHECKED``): ``ray.nodes()`` is
    a synchronous GCS RPC and this guard sits on the flagship's
    per-batch write path — only the first batch per worker pays it.
    Cluster membership changing single->multi mid-process is not a
    supported reconfiguration (nodes joining a running job still see
    the check on their own first batch)."""
    global _VIS_CHECKED
    if _VIS_CHECKED or os.environ.get("NSE_SHARED_STORAGE"):
        return
    import ray

    if ray.is_initialized():
        alive = [n for n in ray.nodes() if n.get("Alive")]
        if len(alive) > 1:
            raise RuntimeError(
                f"{what} writes per-node fragments to a user-supplied "
                "path; on a multi-node cluster that path must be shared "
                "storage visible to every node. Point it at NFS/object "
                "storage and set NSE_SHARED_STORAGE=1 to confirm."
            )
        _VIS_CHECKED = True


_LIVE_STAGES: set[str] = set()
_ATEXIT_REGISTERED = False
_NODE_CHECKED = False  # per-process: worker-side single-node check ran


def _cleanup_live_stages():
    for s in list(_LIVE_STAGES):
        shutil.rmtree(s, ignore_errors=True)


def make_stage(prefix: str) -> str:
    """Create a fresh exchange stage directory under ``exchange_root``.
    Operators go through ``stage()``, which removes it eagerly; ONE
    atexit hook over a live-stage set (pruned of already-removed dirs
    here, so it never grows unboundedly in a long-lived driver) is the
    safety net so an interrupted driver doesn't strand tmpfs space."""
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        import atexit

        atexit.register(_cleanup_live_stages)
        _ATEXIT_REGISTERED = True
    _LIVE_STAGES.difference_update(
        [s for s in _LIVE_STAGES if not os.path.isdir(s)])
    path = tempfile.mkdtemp(prefix=prefix, dir=exchange_root())
    _LIVE_STAGES.add(path)
    return path


@contextlib.contextmanager
def stage(prefix: str):
    """``with stage("nse_op_") as s:`` — a fresh stage directory that is
    removed when the block exits, normally or by an exception. Anything
    that reads the stage lazily (``map_parts`` output does not) must be
    materialized or collected before the block ends."""
    s = make_stage(prefix)
    try:
        yield s
    finally:
        shutil.rmtree(s, ignore_errors=True)
        _LIVE_STAGES.discard(s)


def int_part(cols: list[np.ndarray], num_parts: int) -> np.ndarray:
    """Deterministic part id from one or more integer key columns
    (vectorized multiply-xor mix)."""
    h = np.zeros(len(cols[0]), dtype=np.uint64)
    for c in cols:
        with np.errstate(over="ignore"):
            h = (h ^ c.astype(np.uint64)) * _MIX
            h ^= h >> np.uint64(29)
    return (h % np.uint64(num_parts)).astype(np.int64)


FRAGMENT_LIST = "_fragments.parquet"  # a stage's committed (part, path) rows


def write_fragments(batch: pa.Table, stage_dir: str, part_fn) -> pa.Table:
    """Write ``batch``'s rows into ``stage_dir``'s per-part fragments
    and return one (part, path, n) row per fragment written.

    ``part_fn(batch) -> np.ndarray[int64]`` assigns each row a part id.
    The batch is sorted by part once and every part's slice is written,
    as an LZ4 Arrow IPC file, straight to
    ``<stage>/part=NNNNN/<hash>.arrow``, named by a hash of the bytes it
    serialised in memory: no temp file, no rename, no read-back. A
    retried writer rewrites the same files, and an attempt that dies
    leaves files that no commit list names."""
    parts_np = np.asarray(part_fn(batch), dtype=np.int64)
    order = np.argsort(parts_np, kind="stable")
    parts_np = parts_np[order]
    batch = batch.take(pa.array(order))
    _, starts = np.unique(parts_np, return_index=True)
    ends = np.r_[starts[1:], len(parts_np)]
    options = pa.ipc.IpcWriteOptions(compression="lz4")
    out_parts, out_paths, out_rows = [], [], []
    for s, e in zip(starts, ends):
        part_dir = f"part={int(parts_np[s]):05d}"
        os.makedirs(os.path.join(stage_dir, part_dir), exist_ok=True)
        sink = pa.BufferOutputStream()
        with pa.ipc.new_file(sink, batch.schema, options=options) as w:
            w.write_table(batch.slice(s, e - s))
        buf = sink.getvalue()
        fid = hashlib.sha256(buf).hexdigest()[:20]  # CPU-accelerated sha256
        name = os.path.join(part_dir, f"{fid}.arrow")
        with open(os.path.join(stage_dir, name), "wb") as f:
            f.write(buf)
        out_parts.append(int(parts_np[s]))
        out_paths.append(name)
        out_rows.append(int(e - s))
    return pa.table({"part": pa.array(out_parts, pa.int64()),
                     "path": pa.array(out_paths, pa.string()),
                     "n": pa.array(out_rows, pa.int64())})


def _assert_uncommitted(stage_dir: str) -> None:
    if os.path.exists(os.path.join(stage_dir, FRAGMENT_LIST)):
        raise ValueError(
            f"exchange stage {stage_dir} already holds a commit list: a "
            "stage has one writer, so write into a fresh stage")


def commit_fragments(stage_dir: str, frags: pd.DataFrame) -> int:
    """Write the (part, path, n) rows ``frags`` that the successful
    ``write_fragments`` calls returned, sorted, as the stage's
    ``FRAGMENT_LIST`` (atomically), and return the rows exchanged.
    Phase B reads only what the list names. A stage has one writer: a
    stage that already holds a list raises ``ValueError``."""
    import pyarrow.parquet as pq

    _assert_uncommitted(stage_dir)
    os.makedirs(stage_dir, exist_ok=True)
    frags = frags.reindex(columns=["part", "path", "n"])  # no batch: no columns
    frags = frags.sort_values(["part", "path"], kind="stable")
    listing = pa.table({"part": pa.array(frags["part"], pa.int64()),
                        "path": pa.array(frags["path"], pa.string())})
    tmp = os.path.join(stage_dir, f"{FRAGMENT_LIST}.tmp-{uuid.uuid4().hex}")
    pq.write_table(listing, tmp)
    os.replace(tmp, os.path.join(stage_dir, FRAGMENT_LIST))
    return int(frags["n"].sum())


def write_exchange(ds, stage_dir: str, part_fn, batch_size: int = 8192) -> int:
    """Phase A: stream ``ds`` through ``write_fragments`` (one call per
    batch of ``batch_size`` rows, in a Ray Data map) and, after the
    last batch, ``commit_fragments`` what the successful task attempts
    wrote. Returns the number of rows exchanged. A stage that already
    holds a commit list raises ``ValueError`` before any batch runs."""
    _assert_uncommitted(stage_dir)
    os.makedirs(stage_dir, exist_ok=True)
    # re-validate the single-node precondition at execution time: the
    # stage dir may have been created before Ray connected (ADVICE r03).
    # It guards stages under the default node-local root; a stage in a
    # caller's own dir (the flagship run dir) carries the caller's
    # ``assert_shared_visibility`` instead.
    root = _default_root()
    local = os.path.commonpath([os.path.abspath(stage_dir), root]) == root
    if local:
        _assert_single_node()

    def write(batch: pa.Table) -> pa.Table:
        global _NODE_CHECKED
        if local and not _NODE_CHECKED:
            # worker-side check (once per worker process): catches the
            # driver-built-before-ray.init case where the driver check
            # above ran unconnected
            _assert_single_node()
            _NODE_CHECKED = True
        return write_fragments(batch, stage_dir, part_fn)

    frags = ds.map_batches(
        write, batch_format="pyarrow", batch_size=batch_size).to_pandas()
    return commit_fragments(stage_dir, frags)


def part_tasks(fn, parts, *args, limit: int | None = None) -> list:
    """The fan-out over a known list of ids (phase B's part ids, or the
    flagship's phase-A file pieces): one plain
    ``ray.remote(num_cpus=1)`` task ``fn(p, *args)`` per int id, ``fn``
    shipped once; returns the object refs in ``parts`` order. With a
    ``limit``, at most that many tasks are in flight, and the call
    returns once the last task is submitted."""
    import ray

    task = ray.remote(num_cpus=1)(_call_part)
    fn_ref = ray.put(fn)
    refs, running = [], []
    for p in parts:
        if limit and len(running) >= limit:
            _, running = ray.wait(running, num_returns=1, fetch_local=False)
        refs.append(task.remote(fn_ref, int(p), *args))
        running.append(refs[-1])
    return refs


def _call_part(fn, p, *args):
    return fn(p, *args)


def tables_dataset(refs: list, empty_schema: pa.Schema):
    """A materialized Dataset of the tables behind ``part_tasks`` refs,
    returned once every task has finished (also when one failed, so no
    task still reads a stage its caller is about to remove); no refs
    give an empty Dataset of ``empty_schema``."""
    import ray
    import ray.data as rd

    if not refs:
        return rd.from_arrow(empty_schema.empty_table())
    ray.wait(refs, num_returns=len(refs), fetch_local=False)
    return rd.from_arrow_refs(refs)


def part_files(stage_dir: str) -> dict[int, list[str]]:
    """Part id -> the fragment files the stage's commit list names for
    it, sorted, a fragment listed twice read twice; a stage with no
    list has no fragments."""
    import pyarrow.parquet as pq

    path = os.path.join(stage_dir, FRAGMENT_LIST)
    if not os.path.exists(path):
        return {}
    listing = pq.read_table(path)
    files: dict[int, list[str]] = {}
    for p, f in zip(listing["part"].to_pylist(), listing["path"].to_pylist()):
        files.setdefault(p, []).append(os.path.join(stage_dir, f))
    return files


def read_files(files: list[str], schema: pa.Schema) -> pa.Table:
    """The fragments ``files`` (one part's ``part_files`` entry)
    concatenated, or an empty table of ``schema`` when there are none.
    Read into memory, not mapped: no returned table points into a file
    that ``stage()`` later removes."""
    if not files:
        return schema.empty_table()
    tables = []
    for f in files:
        with pa.OSFile(f) as src:
            tables.append(pa.ipc.open_file(src).read_all())
    return pa.concat_tables(tables)


def map_parts(stage_dir, num_parts: int, fn, empty_schema: pa.Schema,
              in_schemas: list[pa.Schema] | None = None):
    """Phase B: one task per part with fragments; ``fn(table) -> table``
    runs over the part's concatenated fragments. Eager: every task has
    finished when this returns a materialized Dataset of the per-part
    outputs (no part with fragments: an empty one of ``empty_schema``).

    ``stage_dir`` may also be a LIST of stage dirs partitioned with the
    same ``num_parts``/key space (a co-partitioned join): the task for
    part ``p`` then calls ``fn(t0, t1, ...)`` with part ``p``'s table
    from each dir. ``in_schemas`` (required in list mode) supplies the
    empty table for a dir with no fragments in that part."""
    multi = isinstance(stage_dir, (list, tuple))
    dirs = list(stage_dir) if multi else [stage_dir]
    if multi and (in_schemas is None or len(in_schemas) != len(dirs)):
        raise ValueError("list-mode map_parts needs one in_schema per stage dir")
    files = [part_files(d) for d in dirs]
    schemas = in_schemas or [None]

    def run_part(p: int) -> pa.Table:
        tables = [read_files(fs.get(p, []), s)
                  for fs, s in zip(files, schemas)]
        if multi and all(t.num_rows == 0 for t in tables):
            return empty_schema.empty_table()
        return fn(*tables)

    parts = sorted(p for p in set().union(*files) if 0 <= p < num_parts)
    return tables_dataset(part_tasks(run_part, parts), empty_schema)


def key_part(batch: pa.Table, key_cols: list[str],
             num_parts: int) -> np.ndarray:
    """Part id from arbitrary-typed key columns: strings hash through
    the pandas 64-bit string hash, fixed-width values (ints,
    timestamps, floats) ride their bit patterns — all mixed through
    ``int_part``, so equal multi-column keys always co-locate within a
    run. NULL integer keys hash as 0: ``to_numpy`` would turn the
    whole column into float64, moving its non-NULL keys to other parts
    than the same keys without a NULL beside them."""
    cols = []
    for c in key_cols:
        col = batch[c]
        if col.null_count and pa.types.is_integer(col.type):
            col = pc.fill_null(col, 0)
        arr = col.to_numpy(zero_copy_only=False)
        if arr.dtype.kind in "iu":
            cols.append(arr.astype(np.int64))
        elif arr.dtype.kind == "f" and arr.dtype.itemsize == 8:
            # -0.0 == 0.0 in a groupby but differs bitwise: normalize
            # before viewing so equal keys always co-locate
            cols.append(np.ascontiguousarray(arr + 0.0).view(np.int64))
        elif arr.dtype.kind in "mM" and arr.dtype.itemsize == 8:
            cols.append(np.ascontiguousarray(arr).view(np.int64))
        else:
            cols.append(pd.util.hash_array(arr.astype(object)))
    return int_part(cols, num_parts)


def plain_parquet_files(ds, columns: list[str] = ()) -> list[str] | None:
    """The input files of ``ds`` when it is a bare
    ``ray.data.read_parquet`` of local files that reads every row of
    them as stored and keeps ``columns``; ``None`` for any other
    Dataset.

    The flagship's phase A reads such files in its own tasks, and
    ``join_by_key`` (its build side) and ``combine_by_key`` (its input)
    read them on the driver below their gates, all to skip a Ray Data
    job. It inspects Ray Data's logical plan, the package's
    one use of Ray Data internals: a single ``Read`` over a
    ``ParquetDatasource`` with no upstream op, no ``to_batches``
    arguments (a row ``filter=``), no ``_block_udf``, no
    ``include_paths``, no user schema, no file shuffle, no partition
    values in the paths, and a column projection, if any, that keeps
    ``columns``. The public ``Dataset.input_files()`` cannot tell: it
    names every file of ``read_parquet(...).limit(n)`` too. An
    attribute it does not find reads as unknown and gives ``None``, so
    a Ray upgrade can cost speed but cannot change rows.
    """
    try:
        import pyarrow.fs as pafs
        from ray.data._internal.datasource.parquet_datasource import (
            ParquetDatasource)
        from ray.data._internal.logical.operators.read_operator import Read
        from ray.data.datasource.partitioning import PathPartitionParser
    except ImportError:
        return None
    unknown = object()
    op = getattr(getattr(ds, "_logical_plan", None), "dag", None)
    if type(op) is not Read or getattr(op, "input_dependencies", None) != []:
        return None
    src = getattr(op, "_datasource", None)
    if type(src) is not ParquetDatasource:
        return None
    projected = getattr(src, "_data_columns", unknown)
    paths = getattr(src, "_pq_paths", None)
    partitioning = getattr(src, "_partitioning", unknown)
    if (getattr(src, "_to_batches_kwargs", None) != {}
            or getattr(src, "_block_udf", unknown) is not None
            or getattr(src, "_include_paths", True) is not False
            or getattr(src, "_read_schema", unknown) is not None
            or getattr(src, "_file_metadata_shuffler", unknown) is not None
            or getattr(src, "_supports_distributed_reads", False) is not True
            or not isinstance(getattr(src, "_filesystem", None),
                              pafs.LocalFileSystem)
            or not (projected is None or (isinstance(projected, list)
                                          and set(columns) <= set(projected)))
            or not isinstance(paths, list) or partitioning is unknown):
        return None
    if partitioning is not None:
        try:
            parse = PathPartitionParser(partitioning)
            if any(parse(f) for f in paths):
                return None
        except ValueError:  # a path the partitioning cannot parse
            return None
    return list(paths)


def arrow_schema_of(ds) -> pa.Schema:
    """Arrow schema of a Dataset regardless of block format: arrow
    blocks report a pa.Schema directly; pandas blocks report numpy
    dtypes (object means string for every partial stream here)."""
    base = ds.schema().base_schema
    if isinstance(base, pa.Schema):
        return base
    fields = []
    for name, dt in zip(base.names, base.types):
        if getattr(dt, "kind", None) == "O":
            fields.append((name, pa.string()))
        else:
            fields.append((name, pa.from_numpy_dtype(dt)))
    return pa.schema(fields)


def _cast_to(schema: pa.Schema):
    """A batch function that selects and casts to ``schema``. An empty
    block may carry no columns at all, so it gives an empty table."""
    return lambda b: (b.select(schema.names).cast(schema) if b.num_rows
                      else schema.empty_table())


def _collect_if_fits(ds, gate: str):
    """``(table, ds, schema)``: ``ds``'s rows as one Arrow table cast to
    its Arrow ``schema`` when their count fits gate ``gate``; beyond it
    ``None`` and the same rows cast to ``schema``, for
    ``write_exchange``. Any Dataset is materialized to count it, except
    a bare local ``read_parquet`` (see ``plain_parquet_files``): that
    read is counted from its parquet footers and collected with
    ``pq.read_table`` on the driver, with no Ray Data job, and beyond
    the gate it streams into the exchange unmaterialized."""
    import pyarrow.parquet as pq

    files = plain_parquet_files(ds)
    if files is None:
        ds = ds.materialize()
    n = ds.count()
    # Ray drops the schema of a Dataset whose blocks hold no rows
    schema = (arrow_schema_of(ds) if n or ds.schema() is not None
              else pa.schema([]))
    if not fits(gate, n):
        return None, ds.map_batches(_cast_to(schema),
                                    batch_format="pyarrow"), schema
    tables = ([pq.read_table(f, columns=schema.names) for f in files]
              if files is not None else
              ds.iter_batches(batch_format="pyarrow", batch_size=None))
    tables = [_cast_to(schema)(t) for t in tables]
    return (pa.concat_tables(tables) if tables else schema.empty_table(),
            ds, schema)


def combine_by_key(ds, key_cols: list[str], fn, out_schema: pa.Schema,
                   gate: str, num_parts: int = 32):
    """The gated keyed combine. ``fn`` maps a non-empty pandas frame to
    a pandas frame and must be exact on any subset that holds ALL rows
    of each key it sees. Input rows that ``fits`` gate ``gate``: one
    driver call over the whole input (a bare local ``read_parquet`` is
    counted and read without a Ray Data job, see ``_collect_if_fits``).
    Beyond: rows key-hash-partition on ``key_cols`` through the exchange
    (cast to the input's Arrow schema) and ``fn`` runs once per part.
    Both paths return a materialized Dataset of ``out_schema`` (empty
    input: an empty one)."""
    import ray.data as rd

    def to_out(df: pd.DataFrame) -> pa.Table:
        return pa.Table.from_pandas(df, schema=out_schema,
                                    preserve_index=False)

    table, ds, _ = _collect_if_fits(ds, gate)
    if table is not None:
        if table.num_rows == 0:
            return rd.from_arrow(out_schema.empty_table())
        return rd.from_arrow(to_out(fn(table.to_pandas())))
    with stage("nse_combine_") as s:
        write_exchange(ds, s, lambda b: key_part(b, key_cols, num_parts))
        return map_parts(s, num_parts, lambda t: to_out(fn(t.to_pandas())),
                         out_schema)


def join_by_key(probe, build, probe_keys: list[str], build_keys: list[str],
                prepare, kernel, out_schema: pa.Schema, gate: str,
                num_parts: int = 32):
    """The gated probe-driven join. ``prepare(build_table) -> state``
    builds the lookup state (sorted numpy arrays, never big python
    dicts); ``kernel(probe_table, state)`` returns a pyarrow table or
    pandas frame of ``out_schema`` whose rows all come from probe rows,
    and must be exact given ALL build rows of the keys its probe rows
    carry. Build rows that ``fits`` gate ``gate``: the build side is
    collected once (a bare local ``read_parquet`` without a Ray Data
    job, see ``_collect_if_fits``), ``prepare`` runs once on the driver,
    and its result broadcasts to a lazy map of ``kernel`` over
    ``probe``. Beyond: both sides key-hash-partition on their key
    columns through the exchange (each cast to its own Arrow schema;
    the probe streams in, never materialized) and ``kernel(probe_part,
    prepare(build_part))`` runs once per part (materialized). A probe
    batch or part without rows gives an empty ``out_schema`` table."""
    import ray

    from .broadcast import get_broadcast

    def run(probe_t: pa.Table, state) -> pa.Table:
        if probe_t.num_rows == 0:
            return out_schema.empty_table()
        out = kernel(probe_t, state)
        if isinstance(out, pd.DataFrame):
            return pa.Table.from_pandas(out, schema=out_schema,
                                        preserve_index=False)
        return out.select(out_schema.names).cast(out_schema)

    table, build, build_schema = _collect_if_fits(build, gate)
    if table is not None:
        ref = ray.put(prepare(table))
        return probe.map_batches(lambda b: run(b, get_broadcast(ref)),
                                 batch_format="pyarrow")
    # only the probe's schema is resolved up front (from its first block)
    probe_schema = arrow_schema_of(probe)
    with stage("nse_join_probe_") as ps, stage("nse_join_build_") as bs:
        write_exchange(
            probe.map_batches(_cast_to(probe_schema), batch_format="pyarrow"),
            ps, lambda b: key_part(b, probe_keys, num_parts))
        write_exchange(build, bs, lambda b: key_part(b, build_keys, num_parts))
        return map_parts([ps, bs], num_parts,
                         lambda p, b: run(p, prepare(b)), out_schema,
                         in_schemas=[probe_schema, build_schema])


_TOTALS_SCHEMA = pa.schema([("min_key", pa.int64()), ("total", pa.int64())])


def scan_by_range(ds, key_col: str, total, assign, out_schema: pa.Schema,
                  num_parts: int = 32):
    """The range-ordered prefix scan. ``ds``'s rows range-partition on
    its int64 column ``key_col`` through the exchange: ``num_parts``
    equal-width ranges over the key's [min, max] (one ``aggregate``
    pass), so part order is key order and rows sharing a key co-locate.
    A skewed key space makes uneven parts, never wrong results.
    ``total(part_table) -> int`` sizes each non-empty part; the driver
    takes the exclusive prefix of the totals in key order, and
    ``assign(part_table, offset)`` then runs once per part, ``offset``
    being the sum of the totals of every part before it, and returns a
    pyarrow table of ``out_schema``. Returns a materialized Dataset
    (empty input: an empty one)."""
    import ray.data as rd
    from ray.data.aggregate import Max, Min

    mm = ds.aggregate(Min(key_col), Max(key_col))
    gmin, gmax = mm[f"min({key_col})"], mm[f"max({key_col})"]
    if gmin is None:
        return rd.from_arrow(out_schema.empty_table())
    # key - min taken in uint64 is the true offset for any int64 span
    # (< 2^64), and one division by span // P + 1 keeps every part id
    # below P; the cap and the clip only act at P = 1 over all of int64
    base = np.uint64(int(gmin) % (1 << 64))
    chunk = np.uint64(min((int(gmax) - int(gmin)) // num_parts + 1,
                          (1 << 64) - 1))

    def by_range(b: pa.Table) -> np.ndarray:
        k = b[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return np.minimum((k.view(np.uint64) - base) // chunk,
                          np.uint64(num_parts - 1)).astype(np.int64)

    def key_min(t: pa.Table) -> int:
        return int(pc.min(t[key_col]).as_py())

    with stage("nse_scan_") as s:
        write_exchange(ds, s, by_range)
        totals = map_parts(
            s, num_parts,
            lambda t: pa.table({"min_key": [key_min(t)], "total": [total(t)]},
                               schema=_TOTALS_SCHEMA),
            _TOTALS_SCHEMA).to_pandas().sort_values("min_key")
        mins = totals["min_key"].to_numpy(np.int64)
        sizes = totals["total"].to_numpy(np.int64)
        offsets = np.cumsum(sizes) - sizes
        return map_parts(
            s, num_parts,
            lambda t: assign(t, int(offsets[np.searchsorted(
                mins, key_min(t))])),
            out_schema)

