"""Sustained-scale evidence runner (SCALE.md "Round-5 sustained-scale
evidence" table): run the wide operators' EXCHANGE paths over a
2M-doc synthetic corpus on /dev/shm at 32 CPUs, reporting wall time
and peak worker RSS (max summed VmRSS over ray workers at 2 Hz).
The gates in ``exchange.ROUTES`` are set to 0 so the scale path — not
the driver combine — is what's measured. Reproduce with:

    PYTHONPATH=. python tools/scale_evidence.py
"""
import glob
import json
import os
import resource
import sys
import threading
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

OUT = "/dev/shm/nse_scale_r5"
N = 2_000_000
UNIQUE = 200_000          # 10x duplication for the dup-spans run
WORDS_PER_DOC = 12


def build_side_tables():
    """embeddings (2M vecs x dim 32, 16 labels) and events (2M rows
    over ~42 days -> ~1000 hours x 6 types) for the vector-mean and
    windowed-argmax measurements."""
    ep = f"{OUT}/embeddings.parquet"
    if not os.path.exists(ep):
        rng = np.random.default_rng(13)
        dim, n = 32, N
        vecs = rng.standard_normal((n, dim), dtype=np.float32)
        t = pa.table({
            "vec_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(vecs.ravel(), pa.float32()), dim).cast(
                    pa.list_(pa.float32())),
            "label": pa.array((np.arange(n) % 16).astype(np.int32),
                              pa.int32()),
        })
        pq.write_table(t, ep, row_group_size=125_000)
    vp = f"{OUT}/events.parquet"
    if not os.path.exists(vp):
        rng = np.random.default_rng(17)
        n = N
        ts = (np.datetime64("2024-01-01", "us")
              + rng.integers(0, 42 * 86_400, n) * np.timedelta64(1_000_000, "us"))
        types = np.array(["view", "click", "buy", "share", "login",
                          "logout"], dtype=object)
        t = pa.table({
            "event_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, 100_000, n), pa.int64()),
            "event_type": pa.array(types[rng.integers(0, 6, n)],
                                   pa.string()),
            "value": pa.array(rng.random(n), pa.float64()),
            "props": pa.array(np.full(n, "{}", dtype=object), pa.string()),
        })
        pq.write_table(t, vp, row_group_size=125_000)
    # TPC-H-ish fact/dim tables for the rollup and outer-join runs:
    # 2M orders over 1M customers (~37% of customers get zero
    # qualifying orders at the 450k cutoff), 2M lineitem rows
    op = f"{OUT}/orders.parquet"
    if not os.path.exists(op):
        rng = np.random.default_rng(19)
        t = pa.table({
            "o_orderkey": pa.array(np.arange(N, dtype=np.int64)),
            "o_custkey": pa.array(rng.integers(0, 1_000_000, N)),
            "o_totalprice": pa.array(
                np.round(rng.random(N) * 500_000.0, 2)),
        })
        pq.write_table(t, op, row_group_size=125_000)
    cp = f"{OUT}/customer.parquet"
    if not os.path.exists(cp):
        ck = np.arange(1_000_000, dtype=np.int64)
        t = pa.table({
            "c_custkey": pa.array(ck),
            "c_name": pa.array(
                pd.Series(ck).map("Customer#{:09d}".format).to_numpy(
                    dtype=object), pa.string()),
        })
        pq.write_table(t, cp, row_group_size=125_000)
    pp = f"{OUT}/part.parquet"
    if not os.path.exists(pp):
        # 2M part rows over a 200k-name vocabulary (10x duplication);
        # the fuzzy join's own %7 truncation plant supplies the
        # distance-1 mass — vocabulary-sized blocking is what's measured
        rng = np.random.default_rng(29)
        nm = np.array([f"item {i:06d}" for i in range(200_000)],
                      dtype=object)
        t = pa.table({
            "p_partkey": pa.array(np.arange(N, dtype=np.int64)),
            "p_name": pa.array(nm[rng.integers(0, 200_000, N)],
                               pa.string()),
        })
        pq.write_table(t, pp, row_group_size=125_000)
    lp = f"{OUT}/lineitem.parquet"
    if not os.path.exists(lp):
        rng = np.random.default_rng(23)
        ids = np.arange(N, dtype=np.int64)
        t = pa.table({
            "l_orderkey": pa.array(ids // 4),
            "l_linenumber": pa.array((ids % 4) + 1),
            "l_returnflag": pa.array(
                np.array(["A", "N", "R"], dtype=object)[ids % 3],
                pa.string()),
            "l_linestatus": pa.array(
                np.array(["F", "O"], dtype=object)[ids % 2], pa.string()),
            "l_quantity": pa.array(rng.integers(1, 51, N).astype(
                np.float64)),
            "l_extendedprice": pa.array(
                np.round(rng.random(N) * 100_000.0, 2)),
            "l_discount": pa.array(np.round(rng.random(N) * 0.1, 2)),
        })
        pq.write_table(t, lp, row_group_size=125_000)


def build_corpus():
    os.makedirs(OUT, exist_ok=True)
    build_side_tables()
    path = f"{OUT}/documents.parquet"
    if os.path.exists(path):
        return path
    rng = np.random.default_rng(7)
    vocab = np.array([f"w{i:05d}" for i in range(50_000)], dtype=object)
    w = np.minimum(rng.zipf(1.3, size=(UNIQUE, WORDS_PER_DOC)) - 1, 49_999)
    base = np.array([" ".join(vocab[row]) for row in w], dtype=object)
    texts = np.tile(base, N // UNIQUE)
    ids = np.arange(N, dtype=np.int64)
    langs = np.array(["en", "de", "fr", "es", "zz"], dtype=object)[ids % 5]
    n_chars = pd.Series(texts).str.len().to_numpy().astype(np.int64)
    t = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "lang": pa.array(langs, pa.string()),
        "n_chars": pa.array(n_chars, pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    pq.write_table(t, path, row_group_size=125_000)
    return path


class RssSampler:
    """Max summed VmRSS over ray worker processes, sampled at 2 Hz."""

    def __init__(self):
        self.max_kb = 0
        self._stop = threading.Event()
        self._t = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            total = 0
            for p in glob.glob("/proc/[0-9]*/cmdline"):
                try:
                    cmd = open(p, "rb").read()
                    if b"ray::" not in cmd and b"raylet" not in cmd \
                            and b"default_worker" not in cmd:
                        continue
                    for line in open(p.replace("cmdline", "status")):
                        if line.startswith("VmRSS:"):
                            total += int(line.split()[1])
                            break
                except OSError:
                    continue
            self.max_kb = max(self.max_kb, total)
            time.sleep(0.5)

    def __enter__(self):
        self._t.start()
        return self

    def __exit__(self, *a):
        self._stop.set()
        self._t.join()


def main():
    build_corpus()
    import ray
    import ray.data as rd

    os.environ.setdefault("PYTHONPATH", "/root/repo")
    os.environ["NSE_EXCHANGE_ROOT"] = "/dev/shm/nse_x_r5"
    ray.init(address="local", num_cpus=32, include_dashboard=False)
    from neurostore_text_extraction_ray.pipelines import steps
    from neurostore_text_extraction_ray.stages import dupspans
    from neurostore_text_extraction_ray.stages import exchange as ex

    ex.ROUTES["terms"] = 0
    ex.ROUTES["domain"] = 0
    ex.ROUTES["bloom_seen_partials"] = 0
    ex.ROUTES["dupspans"] = 0
    # the per-key kernels (sessionize, rolling count, running total,
    # funnel, domain cap, the sequence-packing stitch) run on the
    # driver below this gate, and N is below its limit
    ex.ROUTES["key_rows"] = 0

    results = {}
    only = set(sys.argv[1:])  # optional: run only the named measurements

    def run(name, fn):
        if only and name not in only:
            return
        with RssSampler() as s:
            t0 = time.monotonic()
            n = fn()
            dt = time.monotonic() - t0
        results[name] = {"sec": round(dt, 1), "rows": int(n),
                         "peak_worker_rss_gb": round(s.max_kb / 1e6, 2)}
        print(json.dumps({name: results[name]}), flush=True)

    run("docs_domain_stats_exchange",
        lambda: steps.docs_domain_stats(OUT).materialize().count())
    run("docs_domain_filter_exchange",
        lambda: steps.docs_domain_filter(OUT).materialize().count())
    run("top_terms_exchange",
        lambda: steps.top_terms(OUT).materialize().count())
    run("docs_rank_by_length",
        lambda: steps.docs_rank_by_length(OUT).materialize().count())
    run("dup_spans_exchange",
        lambda: dupspans.dup_spans(
            rd.read_parquet(f"{OUT}/documents.parquet",
                            columns=["doc_id", "text"]),
            k=5).materialize().count())
    # round-5b additions: window=8/stride=4 so every 12-word doc emits
    # 3 windows (the flat-map expansion actually fires)
    run("docs_chunk_windows",
        lambda: steps.docs_chunk_windows(
            OUT, window=8, stride=4).materialize().count())
    run("docs_lm_score_exchange",
        lambda: steps.docs_lm_score(OUT).materialize().count())
    run("docs_bloom_seen_exchange",
        lambda: steps.docs_bloom_seen(OUT).materialize().count())
    run("term_postings_exchange",
        lambda: steps.term_postings(OUT).materialize().count())
    # 2M docs x 13 tokens (12 words + EOS) at seq_len=1024 -> ~25.4k
    # packed training rows, every one stitched from ~79 docs' fragments
    run("docs_pack_sequences",
        lambda: steps.docs_pack_sequences(
            OUT, seq_len=1024).materialize().count())

    def _bpe_distributed():
        # force the distributed iteration (vocab gate to 0): 50k-word
        # vocab exchange, 10 merge iterations of stateless pair-count
        # passes; the 2M-doc word count itself also takes the
        # exchange combine (the terms gate is already 0 above)
        ex.ROUTES["bpe_vocab"] = 0
        ex.ROUTES["bpe_pairs"] = 0
        return steps.docs_bpe_merges(OUT, n_merges=10).count()

    run("docs_bpe_merges_distributed", _bpe_distributed)
    # 50k-term vocab: count partials through the exchange combine
    # (TERMS gate 0 above), log-ratio broadcast, searchsorted scoring
    run("docs_importance_weights",
        lambda: steps.docs_importance_weights(
            OUT).materialize().count())

    def _pagerank_distributed():
        # synthetic host graph at realistic-ish scale: 1M hosts, 10M
        # weighted edges with a zipf-ish in-degree skew; exercises the
        # fully distributed iteration (rank never on the driver)
        from neurostore_text_extraction_ray.pipelines import extras

        rng = np.random.default_rng(11)
        n_hosts, n_edges = 1_000_000, 10_000_000
        src = rng.integers(0, n_hosts, n_edges)
        dst = np.minimum((rng.zipf(1.4, n_edges) - 1) % n_hosts,
                         n_hosts - 1)
        ed = (pd.DataFrame({
                "src": pd.Series(src).map(lambda i: f"h{i}.example"),
                "dst": pd.Series(dst).map(lambda i: f"h{i}.example")})
              .groupby(["src", "dst"], sort=False).size()
              .reset_index(name="w"))
        ed["w"] = ed["w"].astype(np.int64)
        edges_ds = rd.from_pandas(ed).repartition(64).materialize()
        out = extras._host_pagerank_exchanged(edges_ds, n_iter=3,
                                              damping=0.85)
        return out.count()

    run("host_pagerank_distributed", _pagerank_distributed)

    # round-5d additions (TERMS/AGG gates 0 above/below force the
    # exchange combines — the scale path, not the driver groupby)
    ex.ROUTES["agg_partials"] = 0
    run("docs_winnow_fingerprints",
        lambda: steps.docs_winnow_fingerprints(OUT).materialize().count())
    run("docs_importance_weights_hashed",
        lambda: steps.docs_importance_weights_hashed(
            OUT).materialize().count())
    run("corpus_stats_exchange",
        lambda: steps.corpus_stats(OUT).materialize().count())
    # 2M x dim-32 vectors, 16 labels: per-batch partials are 512 rows
    run("embeddings_label_centroids_exchange",
        lambda: steps.embeddings_label_centroids(
            OUT).materialize().count())
    # 2M events over ~1000 hours x 6 types: hourly combine + argmax
    # both through the hour-hash exchange
    run("events_hourly_top_exchange",
        lambda: steps.events_hourly_top(OUT).materialize().count())

    def _boilerplate_exchange():
        # plant 7-head-domain chrome over the 2M-doc corpus (the
        # docs_boilerplate_strip query shape at 4000x the doc count);
        # BOILERPLATE gate 0 forces the docs+keys domain co-partition
        # strip, TERMS/DOMAIN gates 0 (above) force the exchange
        # combines. ~200k distinct body lines per domain.
        import ray.data as rd
        ex.ROUTES["boilerplate_keys"] = 0

        def plant(df):
            dom = "site" + (df["doc_id"] % 7).astype(str) + ".example"
            text = ("home | about | contact - " + dom + "\n"
                    + df["text"].fillna("") + "\n(c) 2024 " + dom
                    + " all rights reserved")
            return pd.DataFrame({
                "doc_id": df["doc_id"].astype("int64"),
                "domain": dom, "text": text})

        ds = rd.read_parquet(f"{OUT}/documents.parquet",
                             columns=["doc_id", "text"]).map_batches(
            plant, batch_format="pandas")
        return steps.strip_boilerplate(ds).materialize().count()

    run("boilerplate_strip_exchange", _boilerplate_exchange)

    def _dataset_diff(limit):
        # documents vs a deterministically perturbed copy (the
        # docs_diff_planted shape at 4000x): ~118k edited, ~87k
        # removed, ~69k added over 2M rows. Only 16-byte (key, sig)
        # pairs ever move; limit=0 forces the key-hash co-partition.
        import ray.data as rd

        def fn():
            ex.ROUTES["diff"] = limit
            a = rd.read_parquet(f"{OUT}/documents.parquet",
                                columns=["doc_id", "text"])

            def perturb(df):
                ids = df["doc_id"].to_numpy().astype(np.int64)
                keep = ids % 23 != 0
                text = pd.Series(
                    np.where(ids % 17 == 0,
                             df["text"].fillna("") + " [edited v2]",
                             df["text"].to_numpy(dtype=object)),
                    index=df.index)
                base = pd.DataFrame({"doc_id": ids, "text": text})[keep]
                addm = ids % 29 == 0
                added = pd.DataFrame({
                    "doc_id": ids[addm] + 10_000_000,
                    "text": np.full(int(addm.sum()),
                                    "synthetic added row", dtype=object)})
                return pd.concat([base, added], ignore_index=True)

            b = a.map_batches(perturb, batch_format="pandas")
            return steps.dataset_diff(
                a, b, "doc_id", ["text"]).materialize().count()

        return fn

    run("dataset_diff_broadcast", _dataset_diff(ex.ROUTES["diff"]))
    run("dataset_diff_exchange", _dataset_diff(0))

    def _anchor_topk_exchange():
        # both gates to 0: (host, anchor) counts through the key-hash
        # exchange AND the per-host top-k through the two-level
        # exchange merge — 2M docs -> ~3M planted anchor rows
        from neurostore_text_extraction_ray.pipelines import extras
        saved = ex.ROUTES["topk_partials"]
        ex.ROUTES["topk_partials"] = 0
        try:
            return extras._host_anchor_topk(OUT).materialize().count()
        finally:
            ex.ROUTES["topk_partials"] = saved

    run("host_anchor_topk_exchange", _anchor_topk_exchange)

    def _hll_by_key_exchange():
        # 2M events / ~1000 hours x 100k users; gate 0 forces the
        # key-hash register exchange (one 4 KiB blob per hour per
        # batch moves, never the event stream)
        ex.ROUTES["hll_group_partials"] = 0
        return steps.events_user_hll_hourly(OUT).materialize().count()

    run("events_user_hll_hourly_exchange", _hll_by_key_exchange)

    def _rollup_exchange():
        # AGG gate 0: all three lattice levels combine through the
        # key-hash exchange; the 2M-row fact stream itself never moves
        ex.ROUTES["agg_partials"] = 0
        return steps.lineitem_rollup(OUT).materialize().count()

    run("lineitem_rollup_exchange", _rollup_exchange)

    def _outer_join_exchange():
        # both gates 0: per-custkey aggregate through the exchange AND
        # the 1M-customer zero-fill join custkey-hash co-partitioned
        ex.ROUTES["agg_partials"] = 0
        ex.ROUTES["order_counts"] = 0
        return steps.customer_order_counts(OUT).materialize().count()

    run("customer_order_counts_exchange", _outer_join_exchange)

    def _range_join_exchange():
        # gate 0: 2M events co-partition by user hash; per-part
        # composite-key searchsorted probe (100k users x 42 days)
        ex.ROUTES["range_events"] = 0
        return steps.events_range_join(OUT).materialize().count()

    run("events_range_join_exchange", _range_join_exchange)

    # key_rows gate 0 (above): 2M events, one segmented int64 cumsum
    # per user-hash part
    run("events_user_running_total",
        lambda: steps.events_user_running_total(OUT).materialize().count())

    def _fuzzy_join_exchange():
        # gate 0: ~200k distinct names -> ~2.4M deletion-blocking rows
        # through the block-hash exchange + the two-round payload verify
        from neurostore_text_extraction_ray.stages import fuzzyjoin

        ex.ROUTES["fuzzy_blocks"] = 0
        return fuzzyjoin.part_name_fuzzy_pairs(OUT).count()

    run("part_name_fuzzy_pairs_exchange", _fuzzy_join_exchange)

    def _funnel_exchange():
        # key_rows gate 0 (above): the 2M-event stream crosses once by
        # user hash; AGG gate 0: the 6-row-per-part stage counts combine
        # through the key-hash exchange
        ex.ROUTES["agg_partials"] = 0
        return steps.events_funnel(
            OUT, stages=("view", "click", "buy")).materialize().count()

    run("events_funnel_exchange", _funnel_exchange)

    def _pmi_exchange():
        # both gates 0: ~2.4M-row gram vocabulary combines and scores
        # entirely through term-hash exchanges (two-round attach join)
        ex.ROUTES["terms"] = 0
        ex.ROUTES["pmi_score"] = 0
        return steps.docs_pmi_bigrams(OUT).materialize().count()

    run("docs_pmi_bigrams_exchange", _pmi_exchange)

    # pure range-partition + halo (no gate): 2M events over 42 days,
    # 60-min global window -> ~1 halo part ahead per row
    run("events_global_rolling_sum",
        lambda: steps.events_global_rolling_sum(OUT).materialize().count())

    results["driver_maxrss_gb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6, 2)
    print(json.dumps(results), flush=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
