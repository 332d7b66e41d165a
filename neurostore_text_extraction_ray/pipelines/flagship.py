"""The flagship pipeline: Common-Crawl-style pages -> dedup-by-url ->
extract -> (url, extracted_text, spans, metadata, counters), either as
a streaming Dataset or written as resumable partitioned Parquet with
per-partition manifests.

Streaming (``flagship_dataset``), no all-to-all:

    map_batches(_winner_partials)             # (url, max warc_ts) per batch
      -> driver combine, broadcast            # sorted url-hash/ts arrays
      -> map_batches(keep_winner)             # semi-join + partial dedup
      -> map_batches(ExtractActor(...), ...)  # plain tasks (a callable
                                              #   instance, no actor pool)

Beyond ``ROUTES['winners']`` partial rows the dedup takes the url-hash
exchange instead (``dedup_pages_partitioned``).

Resumable sink (``run_flagship_to_parquet``), one url-hash exchange
through ``stages/exchange.py``:

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
                                             #   latest-per-url dedup,
                                             #   extract, md5 sidecar,
                                             #   atomic part + manifest

The sink reads its own parquet files when it can recognise them
(``ex.plain_parquet_files``): Ray Data's parquet read cost about 0.2 s
per job on eight small files against 0.03 s for plain
``pq.read_table`` tasks, and Ray Data ran the phase-A map of all eight
in one task. Every other Dataset (synthesised pages, ``from_arrow``, a
mapped, filtered or limited read) keeps the Ray Data map, with the
same batch function and fragment writer.

Scale notes: url is the one partitioning key (dedup needs it); the
partial-dedup combiner and the projection shrink phase A's bytes, and
only the exchange moves page payloads. The sink's part id is
``hash(url) % num_parts`` — a deterministic function of the data, so
reruns/retries produce identical part files and resume is a part-id
anti-join (state/manifest.py). Oversized html blobs are bounded
per-batch by ``batch_size`` rows and Ray's target block size, or per
file task by ``PHASE_A_TASK_BYTES``; the one multi-MB blob in the
synthetic corpus rides through a normal batch.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages import exchange as ex
from ..stages.broadcast import get_broadcast as _get_broadcast

from ..stages.extract import ExtractActor, PARSER_VERSION, extract_batch
from ..state import manifest as mf


def _url_hash_mod(urls: pa.ChunkedArray | pa.Array, mod: int) -> pa.Array:
    """Deterministic url -> bucket in [0, mod). Vectorized stable
    siphash via pandas (fixed key -> process-independent within one
    pandas version; resume assumes the same environment, which the
    run manifest records)."""
    arr = np.asarray(urls.to_pandas(), dtype=object)
    h = pd.util.hash_array(arr)
    return pa.array((h % np.uint64(mod)).astype(np.int64), pa.int64())


def _latest_per_url_indices(urls, tss) -> np.ndarray:
    """Vectorized keep-latest: indices of the max-(warc_ts, position)
    row per url ('newest result wins', base.py:342-370)."""
    u = np.asarray(urls, dtype=object)
    t = np.asarray(tss)
    pos = np.arange(len(u))
    codes, _ = pd.factorize(u)  # exact string identity, vectorized
    if (codes == -1).any():
        # null urls are NOT one group: keep each null row distinct
        null_ix = np.flatnonzero(codes == -1)
        codes = codes.copy()
        codes[null_ix] = codes.max(initial=-1) + 1 + np.arange(len(null_ix))
    order = np.lexsort((pos, t, codes))
    sorted_c = codes[order]
    is_last = np.empty(len(u), dtype=bool)
    if len(u):
        is_last[:-1] = sorted_c[1:] != sorted_c[:-1]
        is_last[-1] = True
    keep = order[is_last]
    keep.sort()
    return keep


def partial_dedup_batch(batch: pa.Table) -> pa.Table:
    """Keep only the latest warc_ts per url of ``batch``, in one
    vectorized pass. Before the exchange it is the within-batch
    combiner that shrinks the shuffle; over a whole url-hash part (all
    fetches of a url share a part) it is the exact per-part dedup."""
    if batch.num_rows == 0:
        return batch
    keep = _latest_per_url_indices(
        batch["url"].to_pandas().to_numpy(dtype=object),
        batch["warc_ts"].to_numpy(zero_copy_only=False),
    )
    if len(keep) == batch.num_rows:
        return batch
    return batch.take(pa.array(keep))


def _winner_partials(batch: pa.Table) -> pa.Table:
    """Per-batch combiner for the winners aggregate: (url, max warc_ts).
    Arrow-native hash aggregate (measured 2.3x the pandas groupby on a
    200k-row batch, no pandas conversion)."""
    g = (
        pa.table({"url": batch["url"], "warc_ts": batch["warc_ts"]})
        .group_by("url")
        .aggregate([("warc_ts", "max")])
    )
    # select BY NAME — key/aggregate column order differs across
    # pyarrow versions
    return pa.table({"url": g["url"], "warc_ts": g["warc_ts_max"]})


def dedup_pages(ds, winners_ds=None, num_parts: int = 64):
    """groupby-url dedup-then-extract, streaming form.

    The heavy page payloads are NEVER shuffled: the winners aggregate
    runs over a projected (url, warc_ts) stream — per-batch partial
    max (combiner) then a final combine — and the winner map is
    broadcast (``ray.put``) into a vectorized semi-join filter. This is
    the aggregate+broadcast-semijoin pattern. The winner-partial count
    is checked (cheap block metadata on the materialized partials)
    BEFORE anything is collected: beyond ``ROUTES['winners']``
    the dedup automatically routes to ``dedup_pages_partitioned``
    instead of a driver OOM (VERDICT r03 next-round #2).

    Tie caveat: two fetches of one url with EQUAL warc_ts dedupe
    within a batch but not across batches on this path, so when they
    arrive in different batches ``flagship_dataset`` returns 2 rows
    for that url. The resumable sink (``run_flagship_to_parquet``) returns
    1 row, and which fetch wins is decided by the order of its
    exchange fragments, not by the data: the later row within one
    phase-A batch or file task, and across batches or input files the
    fetch whose fragment's content name sorts last. The two paths still
    disagree here (ROADMAP item 2).

    ``winners_ds``: optionally pass a (url, warc_ts) projection of the
    same corpus (e.g. a column-pruned re-read of the input parquet) so
    the winners pass never loads the html column at all.
    """
    import ray

    src = winners_ds if winners_ds is not None else ds
    partials_ds = src.map_batches(
        _winner_partials, batch_format="pyarrow").materialize()
    if not ex.fits("winners", partials_ds.count()):
        return dedup_pages_partitioned(ds, num_parts=num_parts)
    partial_tables = [ray.get(ref) for ref in partials_ds.to_arrow_refs()]
    winners = (
        pa.concat_tables(partial_tables)
        .group_by("url")
        .aggregate([("warc_ts", "max")])
    ) if partial_tables else pa.table({
        "url": pa.array([], pa.string()),
        "warc_ts_max": pa.array([], pa.timestamp("us")),
    })
    # Broadcast as two sorted numpy arrays (cheap to deserialize per
    # worker, vectorized searchsorted lookup per batch) keyed by the
    # stable url hash. A 64-bit hash collision can at worst leak one
    # stale duplicate row (probability ~ n^2 / 2^64 per partition); the
    # partitioned sink path is collision-free.
    wh = pd.util.hash_array(np.asarray(winners["url"].to_pandas(), dtype=object))
    wts = winners["warc_ts_max"].to_numpy(zero_copy_only=False).astype(
        "datetime64[us]").astype(np.int64)
    order = np.argsort(wh, kind="stable")
    ref = ray.put((wh[order], wts[order]))

    def keep_winner(batch: pa.Table) -> pa.Table:
        wh_sorted, wts_sorted = _get_broadcast(ref)
        urls = batch["url"].to_pandas().to_numpy(dtype=object)
        tss = (
            batch["warc_ts"].to_pandas().to_numpy().astype("datetime64[us]").astype(np.int64)
        )
        h = pd.util.hash_array(urls)
        idx = np.searchsorted(wh_sorted, h)
        idx_c = np.clip(idx, 0, len(wh_sorted) - 1)
        mask = (wh_sorted[idx_c] == h) & (wts_sorted[idx_c] == tss)
        if mask.all():
            return partial_dedup_batch(batch)
        return partial_dedup_batch(batch.filter(pa.array(mask)))

    return ds.map_batches(keep_winner, batch_format="pyarrow")


def dedup_pages_partitioned(ds, num_parts: int = 64):
    """Shuffle-based exact dedup: url-hash part co-location + one
    vectorized pass per part, exchanged through the filesystem
    partition stage (``stages/exchange.py`` — Ray's native groupby
    all-to-all measured ~50x slower in this environment, BASELINE.md).
    Used when the winner table is too large to broadcast
    (``dedup_pages`` auto-routes here beyond
    ``ROUTES['winners']``); the resumable sink runs the same
    exchange with manifests (``run_flagship_to_parquet``).

    Hot keys: the ``partial_dedup_batch`` combiner runs BEFORE the
    exchange, so a url with any number of duplicate fetches contributes
    at most one row per input batch to the shuffle — the combiner is
    the salting-equivalent for this associative (latest-wins) reduce,
    bounding per-part skew by the batch count rather than the raw
    duplicate count (verified by the 5,000-fetch hot-key test)."""
    with ex.stage("nse_dedup_pages_") as stage:
        combined = ds.map_batches(partial_dedup_batch, batch_format="pyarrow")
        ex.write_exchange(
            combined, stage,
            lambda b: _url_hash_mod(b["url"], num_parts).to_numpy(
                zero_copy_only=False))
        schema = ds.schema()
        empty = pa.schema(
            [(n, t) for n, t in zip(schema.names, schema.types)])
        return ex.map_parts(stage, num_parts, partial_dedup_batch, empty)


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


def flagship_dataset(pages_ds, mode: str = "auto", payload_column: str = "html",
                     concurrency=None, batch_size: int = 64, winners_ds=None):
    """pages Dataset -> extracted Dataset (no sink). Streaming end to
    end. Pass ``winners_ds`` (a (url, warc_ts)-only projection, e.g. a
    column-pruned re-read of the input parquet) so the dedup winners
    pass never loads the payload column."""
    return extract_pages(
        dedup_pages(pages_ds, winners_ds=winners_ds),
        payload_column=payload_column,
        mode=mode,
        concurrency=concurrency,
        batch_size=batch_size,
    )


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
    """Phase B: read one part's fragments (``files``, its entry of the
    stage's commit list), dedup, extract, write the final part file +
    manifest atomically. Returns a summary dict.

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

    empty_pages = pa.table({
        "url": pa.array([], pa.string()),
        "warc_ts": pa.array([], pa.timestamp("us")),
        payload_column: pa.array([], pa.binary()),
    })
    group = ex.read_files(files, empty_pages.schema)
    data_path, man_path = mf.part_paths(run_dir, part)
    side_path = mf.inputs_sidecar_path(run_dir, part)
    if group.num_rows == 0:
        # still write an (empty, full-schema) part + manifest so resume
        # marks the part done and readers can glob all parts uniformly
        empty_out = extract_batch(empty_pages, payload_column=payload_column,
                                  mode=mode, keep_columns=("url", "warc_ts"))
        if os.path.exists(man_path):
            os.remove(man_path)
        mf.write_inputs_sidecar(
            run_dir, part, _input_sidecar_table(empty_pages, payload_column))
        mf.write_part(
            run_dir, part, empty_out,
            {"input_file": input_path, "url_range": None, "input_rows": 0,
             "parser_version": PARSER_VERSION, "n_ok": 0,
             "n_parse_failed": 0, "n_empty": 0,
             "n_extracted": 0, "n_reused": 0},
        )
        return {"partition_id": part, "rows": 0, "n_parse_failed": 0,
                "n_empty": 0, "n_extracted": 0, "n_reused": 0}
    urls_np = group["url"].to_pandas().to_numpy(dtype=object)
    keep = _latest_per_url_indices(
        urls_np, group["warc_ts"].to_numpy(zero_copy_only=False)
    )
    keep = keep[np.argsort(urls_np[keep], kind="stable")]
    deduped = group.take(pa.array(keep))
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
        keep_urls = pa.array(sorted(m["url"][unchanged].tolist()))
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
            "input_rows": group.num_rows,
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
    groups, run the sink's phase-A batch function over them and write
    the result's fragments. Returns the fragment rows to commit."""
    import pyarrow.parquet as pq

    path, row_groups = pieces[i]
    with pq.ParquetFile(path) as f:
        table = f.read_row_groups(row_groups, columns=columns)
    return ex.write_fragments(batch_fn(table), stage_dir, part_fn)


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
    all-to-all. Phase A batch-dedups the (url, warc_ts, payload)
    columns of the pages of the parts not yet done and writes them into
    ``<run_dir>/stage`` by url hash (``exchange.write_fragments``), and
    the driver commits the fragment list. Its source depends on
    ``pages_ds``:

    - a bare ``ray.data.read_parquet`` of files (what ``bench.py`` and
      perfbench pass): one plain Ray task per file, or per row-group
      range of a file over ``PHASE_A_TASK_BYTES``, reads the three
      columns with ``pyarrow.parquet`` and writes its fragments. No
      page block enters the object store, and the job skips Ray Data's
      read, which cost about 0.2 s per job on eight small files and ran
      the phase-A map in one task;
    - any other Dataset (the CLI's synthesised pages, ``from_arrow``, a
      mapped, filtered or limited read): ``exchange.write_exchange``
      over ``pages_ds.map_batches`` in 4,096-row batches.

    Both run the same batch function and the same fragment writer, so
    the two give the same parts for the same rows. The driver then
    reads the stage's commit list once, and phase B runs one plain Ray
    task per part (``exchange.part_tasks``) — read the fragments the
    list names for it (``exchange.read_files``), exact url-dedup,
    extract, atomic part+manifest write — and the summary has one
    int64 row per part it ran (none when every part was done). A stage
    left by a crashed run is removed before phase A. On shared storage
    this is the standard external-shuffle layout and every phase is
    embarrassingly parallel; Ray Data's native groupby shuffle is
    avoided on the heavy payloads (measured ~50x slower in this
    environment). A re-run with the same config skips completed parts
    (manifest anti-join).
    """
    import shutil

    import ray

    from ..functions.hashing import config_hash

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
    })
    # incremental: every part is re-CHECKED (cheap when clean); the
    # part-skip anti-join is only for crash resume within one input
    done = set() if incremental else mf.completed_parts(run_dir)

    done_arr = np.array(sorted(done), dtype=np.int64)
    # phase B reads only these columns: no other page column (text,
    # lang, ...) goes through the dedup, the fragments or phase B
    columns = ["url", "warc_ts", payload_column]

    def dedup_batch(batch: pa.Table) -> pa.Table:
        # the run dir is a caller-supplied path: on a cluster it must be
        # shared storage (write_exchange's own check covers only its
        # default node-local root)
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
            parts = _url_hash_mod(batch["url"], num_parts).to_numpy(
                zero_copy_only=False)
            batch = batch.filter(pa.array(~np.isin(parts, done_arr)))
        return batch

    def part_fn(batch: pa.Table) -> np.ndarray:
        return _url_hash_mod(batch["url"], num_parts).to_numpy(
            zero_copy_only=False)

    # phase A: the url-hash exchange into <run_dir>/stage. A stage left
    # by a crashed run goes first: phase B would never read it, and a
    # stage takes one commit
    stage_dir = os.path.join(run_dir, "stage")
    shutil.rmtree(stage_dir, ignore_errors=True)
    inputs = ex.plain_parquet_files(pages_ds, columns)
    if inputs is None:
        # large batches: each task writes at most one fragment per part,
        # keeping the fragment-file count (and fs metadata traffic) low
        ex.write_exchange(
            pages_ds.map_batches(dedup_batch, batch_format="pyarrow",
                                 batch_size=4096),
            stage_dir, part_fn, batch_size=4096)
    else:
        pieces = _phase_a_pieces(inputs, columns)
        written = ray.get(ex.part_tasks(
            _phase_a_piece, range(len(pieces)), ray.put(pieces), columns,
            stage_dir, dedup_batch, part_fn))
        ex.commit_fragments(
            stage_dir,
            pa.concat_tables(written).to_pandas() if written
            else pd.DataFrame())

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
