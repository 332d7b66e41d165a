"""Generic filesystem-mediated partition exchange.

Ray Data's native ``groupby``/``sort`` all-to-all measured 46-104 s for
a 237 MB exchange in this environment (BASELINE.md), so wide operators
here exchange through shared storage instead: phase A streams the
input and appends each batch's rows into per-part parquet fragments
(content-addressed names -> task retries overwrite identical bytes);
phase B runs one task per part over its fragments. On a cluster this
is the standard external-shuffle layout — every phase is
embarrassingly parallel and the exchange is bounded by storage
bandwidth, not an in-memory all-to-all.

Operators compose two primitives on top of ``write_exchange`` /
``map_parts``:

- ``stage(prefix)``: the one stage-directory lifecycle. A ``with``
  block owns the directory and removes it on exit, also on error;
  nothing lazy that reads the stage may leave the block (materialize
  or collect phase B inside it).
- ``combine_by_key``: the one gated keyed combine — the driver runs
  the combine over the whole input at or below a row limit, a key-hash
  exchange runs it per part beyond it.

``pipelines/flagship.py`` embeds the same pattern with resume-specific
extensions (manifests, part anti-join, atomic output).
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import os
import shutil
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa

_MIX = np.uint64(0x9E3779B97F4A7C15)  # 64-bit golden-ratio mixer


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
    removed when the block exits, normally or by an exception. Phase B
    reads fragments lazily, so whatever reads the stage must be
    materialized (or collected) before the block ends."""
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


def write_exchange(ds, stage_dir: str, part_fn, batch_size: int = 8192) -> int:
    """Phase A: stream ``ds`` into per-part fragment files.

    ``part_fn(batch: pa.Table) -> np.ndarray[int64]`` assigns each row
    a part id. Fragment names hash the fragment's serialized bytes:
    task RETRIES rewrite identical bytes (exactly-once), and batches
    with distinct content never collide. CONTRACT: two byte-identical
    batches also collapse to one fragment — a retry is
    indistinguishable from a genuine duplicate — so callers must
    ensure row multisets are keyed (a unique id column per row, as
    band rows/events are) or that downstream consumption is
    dedup-idempotent. Returns the number of rows exchanged (counts
    collapsed duplicates)."""
    os.makedirs(stage_dir, exist_ok=True)
    # re-validate the single-node precondition at execution time: the
    # stage dir may have been created before Ray connected (ADVICE r03)
    _assert_single_node()

    def write_fragments(batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        global _NODE_CHECKED
        if not _NODE_CHECKED:
            # worker-side check (once per worker process): catches the
            # driver-built-before-ray.init case where the driver check
            # above ran unconnected
            _assert_single_node()
            _NODE_CHECKED = True
        parts_np = np.asarray(part_fn(batch))
        for part in np.unique(parts_np):
            sub = batch.filter(pa.array(parts_np == part))
            frag_dir = os.path.join(stage_dir, f"part={int(part):05d}")
            os.makedirs(frag_dir, exist_ok=True)
            sink = pa.BufferOutputStream()
            pq.write_table(sub, sink)
            buf = sink.getvalue()
            fid = hashlib.blake2b(buf, digest_size=10).hexdigest()
            path = os.path.join(frag_dir, f"{fid}.parquet")
            tmp = path + f".tmp-{os.getpid()}"
            with open(tmp, "wb") as f:
                f.write(buf.to_pybytes())
            os.replace(tmp, path)
        return pa.table({"n": pa.array([batch.num_rows], pa.int64())})

    counts = ds.map_batches(
        write_fragments, batch_format="pyarrow", batch_size=batch_size
    ).to_pandas()
    return int(counts["n"].sum()) if len(counts) else 0


def map_parts(stage_dir, num_parts: int, fn, empty_schema: pa.Schema,
              in_schemas: list[pa.Schema] | None = None):
    """Phase B: one parallel task per part; ``fn(table) -> table`` runs
    over the part's concatenated fragments. Returns a Dataset of the
    per-part outputs (empty parts yield ``empty_schema``).

    ``stage_dir`` may also be a LIST of stage dirs partitioned with the
    same ``num_parts``/key space (a co-partitioned join): the task for
    part ``p`` then calls ``fn(t0, t1, ...)`` with part ``p``'s table
    from each dir. ``in_schemas`` (required in list mode) supplies the
    empty table for a dir with no fragments in that part."""
    import ray.data as rd

    multi = isinstance(stage_dir, (list, tuple))
    dirs = list(stage_dir) if multi else [stage_dir]
    if multi and (in_schemas is None or len(in_schemas) != len(dirs)):
        raise ValueError("list-mode map_parts needs one in_schema per stage dir")

    def _read_part(d: str, p: int, schema: pa.Schema | None):
        import pyarrow.parquet as pq

        frag_files = sorted(
            glob.glob(os.path.join(d, f"part={int(p):05d}", "*.parquet"))
        )
        if not frag_files:
            return schema.empty_table() if schema is not None else None
        return pa.concat_tables([pq.read_table(f) for f in frag_files])

    def run_part(batch: pa.Table) -> pa.Table:
        outs = []
        for p in batch["part"].to_pylist():
            if multi:
                tables = [_read_part(d, p, s) for d, s in zip(dirs, in_schemas)]
                if all(t.num_rows == 0 for t in tables):
                    continue
                outs.append(fn(*tables))
            else:
                table = _read_part(dirs[0], p, None)
                if table is None:
                    continue
                outs.append(fn(table))
        if not outs:
            return empty_schema.empty_table()
        return pa.concat_tables(outs, promote_options="default")

    parts = rd.from_arrow(
        pa.table({"part": pa.array(list(range(num_parts)), pa.int64())})
    ).repartition(num_parts)
    return parts.map_batches(run_part, batch_format="pyarrow", batch_size=1)


def key_part(batch: pa.Table, key_cols: list[str],
             num_parts: int) -> np.ndarray:
    """Part id from arbitrary-typed key columns: strings hash through
    the pandas 64-bit string hash, fixed-width values (ints,
    timestamps, floats) ride their bit patterns — all mixed through
    ``int_part``, so equal multi-column keys always co-locate within a
    run."""
    cols = []
    for c in key_cols:
        arr = batch[c].to_numpy(zero_copy_only=False)
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


def combine_by_key(ds, key_cols: list[str], fn, out_schema: pa.Schema,
                   driver_limit: int, num_parts: int = 32):
    """The gated keyed combine. ``fn`` maps a pandas frame to a pandas
    frame and must be exact on any subset that holds ALL rows of each
    key it sees. At most ``driver_limit`` input rows: one driver call
    ``fn(ds.to_pandas())``. Beyond: rows key-hash-partition on
    ``key_cols`` through the exchange (cast to the input's Arrow
    schema) and ``fn`` runs once per part. Both paths return a
    materialized Dataset of ``out_schema`` (empty input: an empty
    one). Exchanged rows must satisfy the ``write_exchange`` CONTRACT
    (keyed rows, or a batch-unique ``b0`` tag)."""
    import ray.data as rd

    def to_out(df: pd.DataFrame) -> pa.Table:
        return pa.Table.from_pandas(df, schema=out_schema,
                                    preserve_index=False)

    ds = ds.materialize()
    if ds.count() <= driver_limit:
        pdf = ds.to_pandas()
        if pdf.empty:
            return rd.from_arrow(out_schema.empty_table())
        return rd.from_arrow(to_out(fn(pdf)))
    in_schema = arrow_schema_of(ds)
    with stage("nse_combine_") as s:
        write_exchange(
            ds.map_batches(lambda b: b.select(in_schema.names).cast(in_schema),
                           batch_format="pyarrow"),
            s, lambda b: key_part(b, key_cols, num_parts))
        return map_parts(s, num_parts, lambda t: to_out(fn(t.to_pandas())),
                         out_schema).materialize()
