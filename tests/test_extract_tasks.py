"""The flagship extract stage runs as plain Ray tasks: no actor pool in
its plans, every CPU free as soon as a consumed stream ends, the same
rows as the resumable sink path for every ``concurrency`` form, at most
``concurrency`` part tasks in flight, and the ``BYTE_BUDGET`` skew
guard intact on the task path."""

import glob
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from neurostore_text_extraction_ray.pipelines import flagship
from neurostore_text_extraction_ray.sources import pages as pages_src
from neurostore_text_extraction_ray.stages import extract

SF = "/root/testdata/sf0.001"
COLS = ["url", "extracted_text", "spans", "metadata", "parse_failed", "empty"]


def _mixed_pages(n_docs: int = 60) -> pa.Table:
    """html (with refetches), JATS and PDF pages in one ``html`` column,
    including the undecodable and the empty html page."""
    bad, empty = pages_src.BAD_UTF8_REM, pages_src.EMPTY_REM
    urls, tss, payloads = [], [], []
    for d in range(n_docs):
        text = " ".join(f"w{d}x{i}" for i in range(d % 7 + 3))
        if d % 3 == 0 or d in (bad, empty):
            for rev in pages_src.revs_for(d):
                urls.append(pages_src.url_for(d))
                tss.append(pages_src.ts_for(d, rev))
                payloads.append(pages_src.html_for(d, text, rev))
            continue
        urls.append(pages_src.url_for(d))
        tss.append(pages_src.ts_for(d, 0))
        payloads.append(pages_src.jats_for(d, text) if d % 3 == 1
                        else pages_src.pdf_for(d, text))
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(tss, pa.timestamp("us")),
        "html": pa.array(payloads, pa.binary()),
    })


def _blocks(table: pa.Table, n: int = 4) -> list:
    step = -(-table.num_rows // n)
    return [table.slice(i, step) for i in range(0, table.num_rows, step)]


def _by_url(table: pa.Table) -> list:
    return sorted(table.select(COLS).to_pylist(), key=lambda r: r["url"])


def _physical_ops(ds) -> list:
    from ray.data._internal.logical.optimizers import get_execution_plan

    seen, stack = [], [get_execution_plan(ds._logical_plan).dag]
    while stack:
        op = stack.pop()
        seen.append(op)
        stack.extend(op.input_dependencies)
    return seen


@pytest.fixture(scope="module")
def sink_rows(ray_session, tmp_path_factory):
    import ray.data as rd

    pages = _mixed_pages()
    run_dir, _ = flagship.run_flagship_to_parquet(
        rd.from_arrow(_blocks(pages)), str(tmp_path_factory.mktemp("sink")),
        num_parts=4, input_path="<inline>")
    files = sorted(glob.glob(os.path.join(run_dir, "parts", "part-*.parquet")))
    return _by_url(pa.concat_tables([pq.read_table(f) for f in files]))


def test_mixed_pages_cover_every_modality():
    pages = _mixed_pages()
    heads = [p[:5] for p in pages["html"].to_pylist()]
    assert b"%PDF-" in heads and b"<arti" in heads and b"<html" in heads
    assert b"" in heads  # the empty page
    assert pages.num_rows > len(set(pages["url"].to_pylist()))  # refetches


@pytest.mark.parametrize("concurrency", [None, 1, (1, 2)],
                         ids=["none", "int", "tuple"])
def test_task_path_equals_sink_path(ray_session, sink_rows, concurrency):
    import ray.data as rd

    ds = flagship.flagship_dataset(rd.from_arrow(_blocks(_mixed_pages())),
                                   concurrency=concurrency)
    rows = _by_url(pa.concat_tables(
        list(ds.iter_batches(batch_format="pyarrow", batch_size=None))))
    assert rows == sink_rows
    assert sum(r["parse_failed"] for r in rows) == 1
    assert sum(r["empty"] for r in rows) == 1


@pytest.mark.parametrize("concurrency", [None, 2, (1, 2)],
                         ids=["none", "int", "tuple"])
def test_plans_have_no_actor_pool(ray_session, concurrency):
    import ray.data as rd
    from ray.data._internal.execution.operators.actor_pool_map_operator import (
        ActorPoolMapOperator,
    )
    from ray.data._internal.execution.operators.task_pool_map_operator import (
        TaskPoolMapOperator,
    )

    pages = rd.from_arrow(_blocks(_mixed_pages()))
    ops = _physical_ops(flagship.extract_pages(pages, concurrency=concurrency))
    assert not any(isinstance(op, ActorPoolMapOperator) for op in ops)
    assert any(isinstance(op, TaskPoolMapOperator)
               and "ExtractActor" in op.name for op in ops)


def test_concurrency_one_runs_one_part_task_at_a_time(ray_session, tmp_path,
                                                      monkeypatch):
    """``flagship_dataset(concurrency=1)`` never has two part tasks in
    flight, also when the fragments' size asks for a task per part:
    each task records its start and end, and no two overlap."""
    import json
    import ray.data as rd

    real = flagship._extract_part
    record = str(tmp_path)

    def recording_extract_part(group, *args):
        t0 = time.time()
        out = real(group, *args)
        with open(os.path.join(record, f"{group[0]}.json"), "w") as fh:
            json.dump([t0, time.time()], fh)
        return out

    monkeypatch.setattr(flagship, "_extract_part", recording_extract_part)
    monkeypatch.setattr(flagship.ex, "TASK_BYTES", 1)  # a task per part
    ds = flagship.flagship_dataset(rd.from_arrow(_blocks(_mixed_pages())),
                                   concurrency=1)
    assert ds.count() == len(set(_mixed_pages()["url"].to_pylist()))
    spans = sorted(json.load(open(os.path.join(record, f)))
                   for f in os.listdir(record))
    assert len(spans) > 4
    assert all(b[0] >= a[1] for a, b in zip(spans, spans[1:])), spans


@pytest.mark.skipif(not os.path.isdir(SF), reason="testdata unavailable")
def test_consumed_stream_frees_every_cpu(ray_session):
    """A consumed default ``flagship_dataset`` that is still referenced
    holds no CPU once its stream ends, without a ``gc.collect()`` (an
    extract actor pool held one until the garbage collector ran)."""
    import gc

    ray = ray_session

    def free_cpus() -> float:
        return ray.available_resources().get("CPU", 0.0)

    total = ray.cluster_resources()["CPU"]
    gc.collect()  # pools left by earlier tests are not under test here
    deadline = time.time() + 30
    while free_cpus() < total and time.time() < deadline:
        time.sleep(0.1)
    assert free_cpus() == total, "precondition: an idle cluster"

    ds = flagship.flagship_dataset(pages_src.read_pages(SF))
    out = ds.materialize()
    assert out.count() == 500
    deadline = time.time() + 2
    while free_cpus() < total and time.time() < deadline:
        time.sleep(0.05)
    assert free_cpus() == total, f"{total - free_cpus()} CPU(s) still held"
    del ds, out


def test_byte_budget_slices_match_one_batch(monkeypatch):
    """With a tiny ``BYTE_BUDGET`` the batch is extracted in row slices,
    and the result equals one ``extract_batch`` over the whole batch."""
    pages = _mixed_pages()
    whole = extract.extract_batch(pages)
    calls = []
    real = extract.extract_batch

    def counting(batch, **kw):
        calls.append(batch.num_rows)
        return real(batch, **kw)

    monkeypatch.setattr(extract.ExtractActor, "BYTE_BUDGET", 2048)
    monkeypatch.setattr(extract, "extract_batch", counting)
    sliced = extract.ExtractActor()(pages)
    assert len(calls) > 1 and sum(calls) == pages.num_rows
    assert sliced.equals(whole)


def test_byte_budget_on_task_path(ray_session):
    """The skew guard rides in the pickled instance: a small budget set
    on it slices the batches inside the Ray task, same output."""
    import ray.data as rd

    pages = _mixed_pages()
    fn = extract.ExtractActor()
    fn.BYTE_BUDGET = 2048
    out = rd.from_arrow(pages).map_batches(
        fn, batch_format="pyarrow", batch_size=None).take_batch(
            pages.num_rows, batch_format="pyarrow")
    assert out.to_pylist() == extract.extract_batch(pages).to_pylist()


@pytest.mark.parametrize("task_bytes", [1, 64 << 20], ids=["per_part", "per_slot"])
def test_stream_packs_whole_parts_into_tasks(ray_session, sink_rows,
                                             monkeypatch, task_bytes):
    """Phase B packs whole url-hash parts into one task per Ray CPU, or
    into more tasks when the fragments pass ``ex.TASK_BYTES``; the rows
    are the sink's either way."""
    import ray.data as rd

    monkeypatch.setattr(flagship.ex, "TASK_BYTES", task_bytes)
    calls = []
    real = flagship.ex.part_tasks

    def counting(fn, ids, *args, **kw):
        calls.append(len(ids))
        return real(fn, ids, *args, **kw)

    monkeypatch.setattr(flagship.ex, "part_tasks", counting)
    ds = flagship.flagship_dataset(rd.from_arrow(_blocks(_mixed_pages())),
                                   concurrency=2)
    assert _by_url(pa.concat_tables(list(
        ds.iter_batches(batch_format="pyarrow", batch_size=None)))) == sink_rows
    cpus = int(ray_session.cluster_resources()["CPU"])
    parts = flagship.URL_PARTS
    assert calls[-1] == (cpus if task_bytes > 1 else parts)
