"""The flagship pipeline: Common-Crawl-style pages -> dedup-by-url ->
extract -> (url, extracted_text, spans, metadata, counters), either as
a Dataset of the extracted rows or written as resumable partitioned
Parquet with per-partition manifests.

Both entry points are one engine: one url-hash exchange through
``stages/exchange.py`` (phase A, ``_exchange_pages``) and one part body
(phase B, ``_dedup_part`` then ``extract_batch``):

    phase A, from a bare read_parquet of files:
      one Ray task per file (or row-group    # read (url, warc_ts,
        range of a large file)               #   payload), dedup_batch,
                                             #   write_fragments
      -> driver commit_fragments             # the commit list
    phase A, from any other Dataset:
      map_batches(dedup_batch)               # project, partial dedup,
                                             #   drop parts already done
      -> write_exchange(hash(url) % num_parts)  # fragments + commit list
    phase B: one Ray task per part           # read its fragments, exact
                                             #   latest-per-url dedup
                                             #   sorted by url, extract
      run_flagship_to_parquet                #   + md5 sidecar, atomic
                                             #   part + manifest
      flagship_dataset                       #   -> the extracted rows

A url's fetches all land in one part, and "latest" is one total order
(``_latest_per_url_indices``), so both entry points keep the same row
per url whatever the block order, and byte-identical records leave one
row.

Phase A reads its own parquet files when it can recognise them
(``ex.plain_parquet_files``): Ray Data's parquet read cost about 0.2 s
per job on eight small files against 0.03 s for plain
``pq.read_table`` tasks, and Ray Data ran the phase-A map of all eight
in one task. Every other Dataset (synthesised pages, ``from_arrow``, a
mapped, filtered or limited read) keeps the Ray Data map, with the
same batch function and fragment writer.

Scale notes: url is the one partitioning key (dedup needs it); the
partial-dedup combiner and the projection shrink phase A's bytes, and
only the exchange moves page payloads. The part id is
``hash(url) % num_parts`` — a deterministic function of the data, so
reruns/retries produce identical part files and resume is a part-id
anti-join (state/manifest.py). Oversized html blobs are bounded
per-batch by 4,096 rows and Ray's target block size, or per file task
by ``PHASE_A_TASK_BYTES``; the one multi-MB blob in the synthetic
corpus rides through a normal batch.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages import exchange as ex

from ..stages.extract import ExtractActor, PARSER_VERSION, extract_batch
from ..state import manifest as mf


def _url_hash_mod(urls: pa.ChunkedArray | pa.Array, mod: int) -> pa.Array:
    """Deterministic url -> bucket in [0, mod). Vectorized stable
    siphash via pandas (fixed key -> process-independent within one
    pandas version). A resume assumes the same environment:
    ``pipeline_info.json`` records the Python, pandas, pyarrow and Ray
    versions, for information only (the run id does not include
    them)."""
    arr = np.asarray(urls.to_pandas(), dtype=object)
    h = pd.util.hash_array(arr)
    return pa.array((h % np.uint64(mod)).astype(np.int64), pa.int64())


def _latest_per_url_indices(urls, tss, payloads) -> np.ndarray:
    """Vectorized keep-latest ('newest result wins', base.py:342-370):
    the sorted indices of one row per url under one total order, the
    max warc_ts, then the larger payload bytes (NULL lowest).
    ``payloads`` (an Arrow array) is read only for the urls whose max
    warc_ts more than one row holds. Row position never picks a winner,
    and of byte-identical records one row is kept."""
    u = np.asarray(urls, dtype=object)
    t = np.asarray(tss)
    codes, _ = pd.factorize(u)  # exact string identity, vectorized
    if (codes == -1).any():
        # null urls are NOT one group: keep each null row distinct
        null_ix = np.flatnonzero(codes == -1)
        codes = codes.copy()
        codes[null_ix] = codes.max(initial=-1) + 1 + np.arange(len(null_ix))
    order = np.lexsort((t, codes))
    sorted_c = codes[order]
    sorted_t = t[order]
    if sorted_t.dtype.kind in "mM":
        sorted_t = sorted_t.view(np.int64)  # NaT equals NaT as int64
    # same_url[i] / tied[i]: sorted row i shares row i-1's url / (url, ts)
    same_url = np.zeros(len(u), dtype=bool)
    same_url[1:] = sorted_c[1:] == sorted_c[:-1]
    tied = same_url.copy()
    tied[1:] &= sorted_t[1:] == sorted_t[:-1]
    is_last = np.ones(len(u), dtype=bool)
    is_last[:-1] = ~same_url[1:]
    last = np.flatnonzero(is_last)
    keep = order[last]
    tied_last = np.flatnonzero(tied[last])
    if len(tied_last):
        run = np.cumsum(~tied)  # (url, warc_ts) run of each sorted row
        rows = np.flatnonzero(np.isin(run, run[last[tied_last]]))
        best: dict = {}
        for r, i, v in zip(run[rows], order[rows],
                           payloads.take(pa.array(order[rows])).to_pylist()):
            k = (v is not None, v)  # NULL lowest
            if r not in best or k > best[r][0]:
                best[r] = (k, i)
        keep[tied_last] = [best[r][1] for r in run[last[tied_last]]]
    keep.sort()
    return keep


def partial_dedup_batch(batch: pa.Table) -> pa.Table:
    """Keep one row per url of ``batch``, phase A's (url, warc_ts,
    payload) projection, under ``_latest_per_url_indices``' order, in
    one vectorized pass. Before the exchange it is the within-batch
    combiner that shrinks the shuffle; over a whole url-hash part (all
    fetches of a url share a part) it is the exact per-part dedup."""
    if batch.num_rows == 0:
        return batch
    keep = _latest_per_url_indices(
        batch["url"].to_pandas().to_numpy(dtype=object),
        batch["warc_ts"].to_numpy(zero_copy_only=False),
        batch.column(2),
    )
    if len(keep) == batch.num_rows:
        return batch
    return batch.take(pa.array(keep))


def _pages_schema(payload_column: str) -> pa.Schema:
    """The (url, warc_ts, payload) rows phase A exchanges."""
    return pa.schema([("url", pa.string()), ("warc_ts", pa.timestamp("us")),
                      (payload_column, pa.binary())])


# A phase-A file task holds at most about this many bytes of the
# (url, warc_ts, payload) columns, uncompressed as the parquet footer
# counts them (one row group over it is still one task): the file-task
# analog of the Ray Data path's 4,096-row batches.
PHASE_A_TASK_BYTES = 64 << 20


def _phase_a_pieces(files: list[str], columns: list[str]) -> list:
    """(file, row groups) per phase-A file task, from the parquet
    footers: a file's row groups in order, cut into a new piece before
    the ``columns``' uncompressed bytes pass ``PHASE_A_TASK_BYTES``.
    A file without rows gives no piece."""
    import pyarrow.parquet as pq

    pieces = []
    for path in files:
        md = pq.read_metadata(path)
        groups, size = [], 0
        for r in range(md.num_row_groups):
            rg = md.row_group(r)
            if not rg.num_rows:
                continue
            nbytes = sum(
                rg.column(c).total_uncompressed_size
                for c in range(rg.num_columns)
                if rg.column(c).path_in_schema.split(".")[0] in columns)
            if groups and size + nbytes > PHASE_A_TASK_BYTES:
                pieces.append((path, groups))
                groups, size = [], 0
            groups.append(r)
            size += nbytes
        if groups:
            pieces.append((path, groups))
    return pieces


def _phase_a_piece(i: int, pieces: list, columns: list[str], stage_dir: str,
                   batch_fn, part_fn) -> pa.Table:
    """Phase A from a file: read ``columns`` of piece ``i``'s row
    groups, run the phase-A batch function over them and write the
    result's fragments. Returns the fragment rows to commit."""
    import pyarrow.parquet as pq

    path, row_groups = pieces[i]
    with pq.ParquetFile(path) as f:
        table = f.read_row_groups(row_groups, columns=columns)
    return ex.write_fragments(batch_fn(table), stage_dir, part_fn)


def _exchange_pages(pages_ds, stage_dir: str, num_parts: int,
                    payload_column: str, done=(), in_run_dir: bool = False):
    """Phase A of every flagship entry point: the (url, warc_ts,
    payload) columns of ``pages_ds`` (no other page column), deduped
    per batch, without the rows of the parts in ``done``, written into
    ``stage_dir`` by ``hash(url) % num_parts`` and committed.

    A bare ``ray.data.read_parquet`` of files runs as one plain Ray
    task per file, or per row-group range of a file over
    ``PHASE_A_TASK_BYTES``, which reads the three columns with
    ``pyarrow.parquet``: no page block enters the object store. Any
    other Dataset runs ``exchange.write_exchange`` over
    ``pages_ds.map_batches`` in 4,096-row batches. Both run the same
    batch function and fragment writer, so they give the same parts.

    Hot keys: the ``partial_dedup_batch`` combiner runs before the
    exchange, so a url with any number of fetches sends at most one row
    per input batch (verified by the 5,000-fetch hot-key test).
    ``in_run_dir``: the stage lies in a caller-supplied dir, which on a
    cluster must be shared storage (``ex.assert_shared_visibility``)."""
    import ray

    done_arr = np.array(sorted(done), dtype=np.int64)
    columns = ["url", "warc_ts", payload_column]

    def part_fn(batch: pa.Table) -> np.ndarray:
        return _url_hash_mod(batch["url"], num_parts).to_numpy(
            zero_copy_only=False)

    def dedup_batch(batch: pa.Table) -> pa.Table:
        if in_run_dir:
            ex.assert_shared_visibility("flagship stage dir")
        batch = batch.select(columns)
        ts = batch["warc_ts"]
        if pa.types.is_timestamp(ts.type) and ts.type.unit in ("s", "ms"):
            # a row-based Dataset.filter turns whole-day timestamp[us]
            # into [s]; widen (exactly) so the same rows write the same
            # part files whatever the source
            batch = batch.set_column(1, "warc_ts", pc.cast(
                ts, pa.timestamp("us", ts.type.tz)))
        batch = partial_dedup_batch(batch)
        if len(done_arr):
            batch = batch.filter(pa.array(~np.isin(part_fn(batch), done_arr)))
        return batch

    inputs = ex.plain_parquet_files(pages_ds, columns)
    if inputs is None:
        # large batches: each task writes at most one fragment per part,
        # keeping the fragment-file count (and fs metadata traffic) low
        ex.write_exchange(
            pages_ds.map_batches(dedup_batch, batch_format="pyarrow",
                                 batch_size=4096),
            stage_dir, part_fn, batch_size=4096)
        return
    pieces = _phase_a_pieces(inputs, columns)
    written = ray.get(ex.part_tasks(
        _phase_a_piece, range(len(pieces)), ray.put(pieces), columns,
        stage_dir, dedup_batch, part_fn))
    ex.commit_fragments(
        stage_dir,
        pa.concat_tables(written).to_pandas() if written else pd.DataFrame())


def _dedup_part(files: list[str], payload_column: str) -> tuple[int, pa.Table]:
    """A part's body up to the extract: read its fragments (``files``,
    the commit list's entries of one or more whole parts) and keep one
    row per url (``_latest_per_url_indices``), sorted by url. Returns
    the rows read and the rows kept."""
    group = ex.read_files(files, _pages_schema(payload_column))
    urls = group["url"].to_pandas().to_numpy(dtype=object)
    keep = _latest_per_url_indices(
        urls, group["warc_ts"].to_numpy(zero_copy_only=False),
        group[payload_column])
    keep = keep[np.argsort(urls[keep], kind="stable")]
    return group.num_rows, group.take(pa.array(keep))


def dedup_pages(ds, num_parts: int = 64, payload_column: str = "html"):
    """Exact groupby-url dedup: one row per url of ``ds``'s (url,
    warc_ts, payload) columns under ``_latest_per_url_indices``' order.
    Phase A (``_exchange_pages``) into a fresh exchange stage, then
    ``partial_dedup_batch`` over each url-hash part, which holds every
    fetch of its urls. Eager: returns a materialized Dataset."""
    with ex.stage("nse_dedup_pages_") as stage:
        _exchange_pages(ds, stage, num_parts, payload_column)
        return ex.map_parts(stage, num_parts, partial_dedup_batch,
                            _pages_schema(payload_column))


def extract_pages(
    ds,
    payload_column: str = "html",
    mode: str = "auto",
    concurrency=None,
    batch_size: int = 64,
):
    """The extract stage as plain Ray tasks.

    An ``ExtractActor`` *instance* goes to ``map_batches``, so Ray Data
    runs it in its task pool: the kernels hold no per-process state
    worth an actor pool (their rules compile at module import, and
    reused task workers keep that), and a pool costs about 1-1.5 s to
    start per Dataset. ``concurrency`` caps the concurrent extract tasks: an
    int, or the max of a ``(min, max)`` tuple; ``None`` (the default)
    sets no cap, so the upstream read and map stages fuse with the
    extract into one task operator on every CPU."""
    if isinstance(concurrency, tuple):
        concurrency = concurrency[1]
    return ds.map_batches(
        ExtractActor(payload_column=payload_column, mode=mode),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
    )


# flagship_dataset's url-hash parts, and the fragment bytes (LZ4 Arrow
# IPC, as written) above which its phase B runs more tasks than it has
# slots: whole parts are packed into one task per slot, or into
# ceil(bytes / STREAM_TASK_BYTES) tasks (a single part over it is still
# one task). Each task costs fixed time: a stream_mixed job (seed 3,
# 2 Ray CPUs) took 0.41 s at a cap of 1 and 0.29 s uncapped as one task
# per part, 0.31 and 0.24 s packed; 64 parts packed took 0.36 / 0.27 s.
STREAM_PARTS = 16
STREAM_TASK_BYTES = 64 << 20


def _extract_part(i: int, groups: list, payload_column: str,
                  mode: str) -> pa.Table:
    """flagship_dataset's phase B: the kept rows of the fragments
    ``groups[i]`` (whole parts, so every fetch of their urls),
    extracted."""
    _, deduped = _dedup_part(groups[i], payload_column)
    return extract_batch(deduped, payload_column=payload_column, mode=mode,
                         keep_columns=("url", "warc_ts"))


def flagship_dataset(pages_ds, mode: str = "auto", payload_column: str = "html",
                     concurrency=None, winners_ds=None):
    """pages Dataset -> the extracted rows (url, warc_ts,
    extracted_text, spans, metadata, parse_failed, empty), one per url,
    as a materialized Dataset. Eager: it returns once every part has
    run.

    It is the sink's engine without the sink: phase A
    (``_exchange_pages``) writes the (url, warc_ts, payload) columns
    into a url-hash exchange stage under ``ex.exchange_root()``
    (``NSE_EXCHANGE_ROOT``; a stream larger than tmpfs needs it on
    disk), and plain Ray tasks over whole parts dedup exactly and
    extract (``_extract_part``). So it returns the rows the sink
    writes, and ``warc_ts`` is ``timestamp[us]`` as in the sink.

    ``concurrency`` caps the tasks in flight: an int, or the max of a
    ``(min, max)`` tuple; ``None`` sets no cap, and the cluster's CPUs
    are the slots. ``winners_ds`` is accepted and ignored, because the
    benchmark's stream job still passes it: the exchange needs no
    second projection of the corpus."""
    import ray

    if isinstance(concurrency, tuple):
        concurrency = concurrency[1]
    slots = concurrency or int(ray.cluster_resources().get("CPU", 1))
    schema = extract_batch(_pages_schema(payload_column).empty_table(),
                           payload_column=payload_column, mode=mode).schema
    with ex.stage("nse_flagship_") as stage:
        _exchange_pages(pages_ds, stage, STREAM_PARTS, payload_column)
        files = ex.part_files(stage)
        parts = sorted(files)
        nbytes = sum(os.path.getsize(f) for fs in files.values() for f in fs)
        n = min(len(parts), max(slots, -(-nbytes // STREAM_TASK_BYTES)))
        groups = [[f for p in parts[k::n] for f in files[p]] for k in range(n)]
        refs = ex.part_tasks(_extract_part, range(n), ray.put(groups),
                             payload_column, mode, limit=concurrency)
        return ex.tables_dataset(refs, schema)


# ---------------------------------------------------------------------------
# Resumable sink: deterministic parts + manifests
# ---------------------------------------------------------------------------


def _input_sidecar_table(deduped: pa.Table, payload_column: str) -> pa.Table:
    """(url, warc_ts, content_md5) of the part's winning fetches — the
    per-url analog of the reference's ``{input_path: md5}`` study map
    (``utils.py:302``). md5 for reference parity."""
    md5s = [
        hashlib.md5(p if p is not None else b"").hexdigest()
        for p in deduped[payload_column].to_pylist()
    ]
    tss = deduped["warc_ts"].to_numpy(zero_copy_only=False).astype(
        "datetime64[us]").astype(np.int64)
    return pa.table({
        "url": deduped["url"],
        "warc_ts": pa.array(tss, pa.int64()),
        "content_md5": pa.array(md5s, pa.string()),
    })


def _process_part(
    part: int,
    files: list[str],
    run_dir: str,
    input_path: str,
    payload_column: str,
    mode: str,
    incremental: bool = False,
):
    """Phase B: the part's kept rows (``_dedup_part``), extracted, then
    the final part file + manifest written atomically. Returns a
    summary dict. A part without rows still writes an empty,
    full-schema part + manifest, so resume marks it done and readers
    can glob all parts uniformly.

    ``incremental``: per-url change detection (reference
    ``base.py:372-411`` at url granularity) — compare the part's
    winning (url, warc_ts, content_md5) rows against the prior run's
    sidecar; a CLEAN part is left untouched (not rewritten), a dirty
    part re-extracts ONLY its changed/new urls and merges the rest
    from the prior part file. Crash safety mirrors the registry
    promotion rule: the manifest (completeness marker) is retracted
    before any of sidecar/data are replaced, so a crash mid-window
    forces a full re-extract of that part instead of serving a mixed
    state."""
    import json as _json

    import pyarrow.parquet as pq

    n_input, deduped = _dedup_part(files, payload_column)
    data_path, man_path = mf.part_paths(run_dir, part)
    side_path = mf.inputs_sidecar_path(run_dir, part)
    sidecar = _input_sidecar_table(deduped, payload_column)
    n_reused = 0
    prior_ok = (
        incremental and os.path.exists(man_path)
        and os.path.exists(data_path) and os.path.exists(side_path)
    )
    if prior_ok:
        cur = sidecar.to_pandas()
        prior = pq.read_table(side_path).to_pandas()
        m = cur.merge(prior, on="url", how="left", suffixes=("", "_prior"))
        unchanged = (
            (m["warc_ts_prior"] == m["warc_ts"])
            & (m["content_md5_prior"] == m["content_md5"])
        ).fillna(False).to_numpy(dtype=bool)
        any_removed = bool((~prior["url"].isin(cur["url"])).any())
        if unchanged.all() and not any_removed:
            # clean part: keep data/manifest byte-for-byte untouched
            with open(man_path) as fh:
                pm = _json.load(fh)
            return {
                "partition_id": part, "rows": pm["rows"],
                "n_parse_failed": pm.get("n_parse_failed", 0),
                "n_empty": pm.get("n_empty", 0),
                "n_extracted": 0, "n_reused": pm["rows"],
            }
        out_new = extract_batch(
            deduped.filter(pa.array(~unchanged)),
            payload_column=payload_column, mode=mode,
            keep_columns=("url", "warc_ts"),
        )
        keep_urls = pa.array(sorted(m["url"][unchanged].tolist()), pa.string())
        reused_tbl = pq.read_table(data_path)
        reused_tbl = reused_tbl.filter(
            pc.is_in(reused_tbl["url"], value_set=keep_urls))
        # reused rows come back from parquet with the list child field
        # renamed (item -> element); cast to the extractor's schema so
        # a merged part serializes BYTE-identically to a from-scratch
        # part (combine_chunks gives the same row-group layout)
        comb = pa.concat_tables([reused_tbl.cast(out_new.schema), out_new])
        order = np.argsort(
            comb["url"].to_pandas().to_numpy(dtype=object), kind="stable")
        out = comb.take(pa.array(order)).combine_chunks()
        n_extracted = out_new.num_rows
        n_reused = reused_tbl.num_rows
    else:
        out = extract_batch(
            deduped, payload_column=payload_column, mode=mode,
            keep_columns=("url", "warc_ts"),
        )
        n_extracted = out.num_rows
    n_fail = pc.sum(pc.cast(out["parse_failed"], pa.int64())).as_py() or 0
    n_empty = pc.sum(pc.cast(out["empty"], pa.int64())).as_py() or 0
    urls = out["url"].to_pylist()
    if os.path.exists(man_path):
        os.remove(man_path)  # retract completeness before replacing state
    mf.write_inputs_sidecar(run_dir, part, sidecar)
    manifest = mf.write_part(
        run_dir, part, out,
        {
            "input_file": input_path,
            "url_range": [min(urls), max(urls)] if urls else None,
            "input_rows": n_input,
            "parser_version": PARSER_VERSION,
            "n_ok": out.num_rows - n_fail - n_empty,
            "n_parse_failed": n_fail,
            "n_empty": n_empty,
            "n_extracted": n_extracted,
            "n_reused": n_reused,
        },
    )
    return {
        "partition_id": part,
        "rows": manifest["rows"],
        "n_parse_failed": n_fail,
        "n_empty": n_empty,
        "n_extracted": n_extracted,
        "n_reused": n_reused,
    }


def _run_part(part: int, files: dict, *args):
    # resolve _process_part through the module attribute at call time,
    # so a wrapper installed on it in the worker process sees every part
    return _process_part(part, files.get(part, []), *args)


def _check_input(pages_ds, input_path: str) -> None:
    """Raise ``ValueError`` when ``pages_ds`` is a plain read of files
    (``ex.plain_parquet_files``) and ``input_path`` a real path that
    one of them lies outside: the run id and resume come from
    ``input_path``, the rows from ``pages_ds``."""
    files = ex.plain_parquet_files(pages_ds)
    if files is None or not os.path.exists(input_path):
        return
    root = os.path.realpath(input_path)
    for f in files:
        if os.path.commonpath([root, os.path.realpath(f)]) != root:
            raise ValueError(
                f"the pages Dataset reads {f}, outside input_path "
                f"{input_path!r}: pass as input_path the file or directory "
                "the Dataset reads, so the run id names its input")


def run_flagship_to_parquet(
    pages_ds,
    out_dir: str,
    num_parts: int = 16,
    payload_column: str = "html",
    mode: str = "auto",
    input_path: str = "<inline>",
    config: dict | None = None,
    incremental: bool = False,
):
    """Resumable run: write <out>/<config-hash>/parts/part-*.parquet +
    manifests. Returns (run_dir, per-part summary DataFrame).

    The partition exchange is FILESYSTEM-MEDIATED, not a Ray Data
    all-to-all. Phase A (``_exchange_pages``) writes the pages of the
    parts not yet done into ``<run_dir>/stage`` by url hash, as plain
    file tasks for a bare ``ray.data.read_parquet`` (what ``bench.py``
    and perfbench pass; it must read files under ``input_path`` when
    that is a real path) and as a Ray Data map for any other Dataset.
    The driver then reads the stage's commit list once, and phase B
    runs one plain Ray task per part (``exchange.part_tasks``) — read
    the fragments the list names for it, exact url-dedup, extract,
    atomic part+manifest write — and the summary has one int64 row per
    part it ran (none when every part was done). A stage left by a
    crashed run is removed before phase A. On shared storage this is
    the standard external-shuffle layout and every phase is
    embarrassingly parallel; Ray Data's native groupby shuffle is
    avoided on the heavy payloads (measured ~50x slower in this
    environment). A re-run with the same config skips completed parts
    (manifest anti-join).
    """
    import platform
    import shutil

    import ray

    from ..functions.hashing import config_hash

    _check_input(pages_ds, input_path)
    config = dict(config or {})
    config.setdefault("num_parts", num_parts)
    config.setdefault("parser_version", PARSER_VERSION)
    config.setdefault("mode", mode)
    config.setdefault("input", input_path)
    if incremental:
        # incremental runs target a STABLE run dir across input edits
        # (the per-part input sidecars carry change detection instead
        # of the whole-input fingerprint in the run id); the manifest
        # still records the fingerprint of what was last seen
        config.setdefault("incremental", True)
    else:
        config.setdefault("input_fingerprint", mf.input_fingerprint(input_path))
    run_id = config_hash(config)
    run_dir = os.path.join(out_dir, run_id)
    mf.write_pipeline_info(run_dir, {
        "config": config, "run_id": run_id,
        "input_fingerprint": mf.input_fingerprint(input_path),
        # for information only: the run id does not include them
        "versions": {"python": platform.python_version(),
                     "pandas": pd.__version__, "pyarrow": pa.__version__,
                     "ray": ray.__version__},
    })
    # incremental: every part is re-CHECKED (cheap when clean); the
    # part-skip anti-join is only for crash resume within one input
    done = set() if incremental else mf.completed_parts(run_dir)

    # phase A: the url-hash exchange into <run_dir>/stage. A stage left
    # by a crashed run goes first: phase B would never read it, and a
    # stage takes one commit
    stage_dir = os.path.join(run_dir, "stage")
    shutil.rmtree(stage_dir, ignore_errors=True)
    _exchange_pages(pages_ds, stage_dir, num_parts, payload_column, done,
                    in_run_dir=True)

    # phase B: one plain Ray task per remaining part, handed its
    # fragment files from one read of the commit list
    files = ray.put(ex.part_files(stage_dir))
    todo = [p for p in range(num_parts) if p not in done]
    refs = ex.part_tasks(_run_part, todo, files, run_dir, input_path,
                         payload_column, mode, incremental)
    sdf = pd.DataFrame(ray.get(refs), columns=[
        "partition_id", "rows", "n_parse_failed", "n_empty", "n_extracted",
        "n_reused"]).astype("int64")
    # drop the exchange fragments once every part has a manifest
    if len(mf.completed_parts(run_dir)) >= num_parts:
        shutil.rmtree(stage_dir, ignore_errors=True)
    return run_dir, sdf


def read_flagship_output(run_dir: str):
    """Read a completed (or partial) run back as a Dataset, plus its
    manifest summary: (Dataset, list-of-manifests)."""
    import glob as _glob

    import ray.data as rd

    files = sorted(_glob.glob(os.path.join(run_dir, "parts", "part-*.parquet")))
    ds = rd.read_parquet(files) if files else rd.from_items([])
    return ds, mf.read_manifests(run_dir)
