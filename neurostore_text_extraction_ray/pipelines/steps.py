"""Derived operator library (SURVEY §2) over the driver's synthetic
tables. Every function takes ``sf_dir`` and returns a lazy
``ray.data.Dataset`` whose column names match the DuckDB oracle SQL in
``__ray_entry__.oracle_sql`` exactly.

Ray-Data-first shapes:
- per-record ops are vectorized ``map_batches`` (pandas/numpy string
  kernels), never per-row ``ds.map``;
- corpus-global ops (word_deviance A1, tfidf A2) are two-pass:
  a small aggregate (tree-reduced / grouped) whose result is broadcast
  back into a second vectorized pass — the corpus is never
  materialized;
- joins with a small side are broadcast lookups inside ``map_batches``
  (no shuffle); large-side ops use ``groupby``.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.textstats import SK_TOKEN_RE


def _docs(sf_dir: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


# -- M5: word count ---------------------------------------------------------


def word_count(sf_dir: str):
    """Per-document whitespace word count (reference semantics:
    len(text.split()), word_count/model.py:31-47)."""

    def wc(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame()
        out["doc_id"] = df["doc_id"]
        out["word_count"] = df["text"].fillna("").str.count(r"\S+").astype("int64")
        return out

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(wc, batch_format="pandas")


# -- A1: word deviance (corpus mean broadcast back) -------------------------


def word_deviance(sf_dir: str):
    """abs(word_count - total_words // n_docs) per doc
    (word_count/model.py:77-103; note the floor division)."""
    from ray.data.aggregate import Count, Sum

    wc = word_count(sf_dir)
    agg = wc.aggregate(Sum("word_count", alias_name="total"), Count(alias_name="n"))
    average = int(agg["total"]) // int(agg["n"])  # scalar to broadcast

    def dev(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame()
        out["doc_id"] = df["doc_id"]
        out["word_deviance"] = (df["word_count"] - average).abs().astype("int64")
        return out

    return wc.map_batches(dev, batch_format="pandas")


# -- A2: TF-IDF (document-frequency aggregate + broadcast scoring) ----------

# hard ceiling on the post-min_df vocabulary the scoring pass may
# broadcast (16 bytes/term as sorted hash+idf arrays). TF-IDF scoring
# fundamentally requires the vocab everywhere, so past this budget the
# fix is semantic (raise min_df / supply a vocabulary), not a bigger
# driver — raising loudly beats an OOM mid-job. Tests patch to 0.
TFIDF_VOCAB_DRIVER_LIMIT = 20_000_000


def tfidf(sf_dir: str, min_df: int = 2, vocabulary: dict | None = None,
          custom_terms: list[str] | None = None,
          text_type: str = "full_text"):
    """sklearn-equivalent TF-IDF (TfidfVectorizer(min_df=2) defaults:
    lowercase, token r'\\b\\w\\w+\\b', smooth idf ln((1+n)/(1+df))+1, l2
    doc norm), as a two-stage Ray pipeline (tfidf/model.py:29-129):
    (1) tokenize -> per-(doc,term) tf rows -> groupby(term) df counts
    (the only shuffle, over term-count rows, not text);
    (2) re-tokenize per doc with the broadcast idf map and emit
    normalized scores. Output: (doc_id, term, score) for score > 0.

    Reference options (tfidf/model.py:29-79):
    - ``vocabulary`` ({term: index}) or ``custom_terms`` (list; converted
      exactly as model.py:56-58): restrict terms to the given vocabulary;
      ``min_df`` is NOT applied (sklearn vocabulary semantics) and the
      DF pass prunes to vocab terms early (the small vocab rides into
      the tasks by closure, not an exchange).
    - ``text_type``: 'full_text' | 'abstract' | 'both' — the M11
      text-source projection (model.py:62-79). The documents corpus has
      no stored abstract, so 'abstract' is DEFINED as the first 200
      characters (deterministic, SQL-expressible analog of
      metadata['abstract']); 'both' is abstract + '\\n' + full text,
      mirroring the reference's f-string concatenation."""
    import ray

    if text_type not in ("full_text", "abstract", "both"):
        raise ValueError(f"unknown text_type {text_type!r}")
    if custom_terms is not None:
        vocabulary = {term: idx for idx, term in enumerate(custom_terms)}
    vocab_set = frozenset(vocabulary) if vocabulary is not None else None

    docs = _docs(sf_dir, ["doc_id", "text"])
    n_docs = docs.count()

    def _content(df: pd.DataFrame) -> pd.Series:
        text = df["text"].fillna("")
        if text_type == "full_text":
            return text
        abstract = text.str.slice(0, 200)
        if text_type == "abstract":
            return abstract
        return abstract + "\n" + text

    def _explode_terms(df: pd.DataFrame) -> pd.DataFrame:
        toks = _content(df).str.lower().str.findall(SK_TOKEN_RE)
        ex = df[["doc_id"]].assign(term=toks).explode("term")
        ex = ex.dropna(subset=["term"])
        if vocab_set is not None:
            ex = ex[ex["term"].isin(vocab_set)]
        return ex

    # document-frequency aggregate: vectorized tokenize+explode, one
    # partial DF-count row per distinct term per batch, then the
    # shared grouped_sum_by_key combine (driver below
    # TERMS_DRIVER_LIMIT partial rows — web text has an unbounded
    # vocabulary, so the combine may not assume driver residency —
    # term-hash exchange beyond). min_df filters DISTRIBUTED (exact:
    # all of a term's rows co-locate per part) before the vocab is
    # collected; the collect itself is hard-gated because scoring
    # fundamentally broadcasts the vocab — past the budget the job
    # must be re-run with a custom vocabulary, not silently OOM.
    def df_partial(df: pd.DataFrame) -> pd.DataFrame:
        ex = _explode_terms(df).drop_duplicates()
        c = ex["term"].value_counts()
        out = pd.DataFrame({"term": c.index.to_numpy(dtype=object),
                            "n": c.to_numpy().astype(np.int64)})
        return out

    partials_ds = docs.map_batches(
        df_partial, batch_format="pandas").materialize()
    summed = grouped_sum_by_key(partials_ds, "term", ["n"],
                                TERMS_DRIVER_LIMIT)
    if vocab_set is None:
        # min_df applies only without an explicit vocabulary (sklearn
        # TfidfVectorizer ignores min_df when vocabulary is given)
        summed = summed.map_batches(
            lambda t: t.filter(pc.greater_equal(t["n"], min_df)),
            batch_format="pyarrow")
    kept = summed.materialize()
    if kept.count() > TFIDF_VOCAB_DRIVER_LIMIT:
        raise RuntimeError(
            "tfidf vocabulary exceeds the broadcast budget "
            f"({TFIDF_VOCAB_DRIVER_LIMIT} terms): raise min_df, supply "
            "a custom vocabulary, or raise TFIDF_VOCAB_DRIVER_LIMIT")
    vdf = kept.to_pandas()
    if vdf.empty:
        # a zero-block Dataset drops its columns through to_pandas
        # (e.g. a vocabulary disjoint from the corpus)
        vdf = pd.DataFrame({"term": pd.Series(dtype=object),
                            "n": pd.Series(dtype="int64")})
    terms_arr = vdf["term"].to_numpy(dtype=object)
    idf_arr = np.log((1 + n_docs) / (1 + vdf["n"].to_numpy())) + 1.0
    # broadcast as sorted term-HASH + idf arrays (BASELINE.md rule: no
    # big python dicts). 64-bit term hashes: a collision (p ~ |vocab|^2
    # / 2^64) could map one out-of-vocab term onto a vocab idf; same
    # documented bound the flagship url hashing accepts.
    th = pd.util.hash_array(terms_arr)
    if len(np.unique(th)) != len(th):
        # not an assert: -O must not strip the guard (silent idf mixups)
        raise RuntimeError("64-bit vocab hash collision")
    order = np.argsort(th, kind="stable")
    idf_ref = ray.put((th[order], idf_arr[order]))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        from ..stages.broadcast import get_broadcast

        th_s, idf_s = get_broadcast(idf_ref)
        ex = _explode_terms(df)
        empty = pd.DataFrame({
            "doc_id": pd.Series(dtype="int64"),
            "term": pd.Series(dtype=object),
            "score": pd.Series(dtype="float64"),
        })
        if ex.empty or not len(th_s):
            return empty
        tf = ex.groupby(["doc_id", "term"], sort=False).size().reset_index(name="tf")
        h = pd.util.hash_array(tf["term"].to_numpy(dtype=object))
        j = np.clip(np.searchsorted(th_s, h), 0, len(th_s) - 1)
        mask = th_s[j] == h
        tf = tf[mask]
        if tf.empty:
            return empty
        raw = tf["tf"].to_numpy() * idf_s[j[mask]]
        tf = tf.assign(raw2=raw * raw)
        nrm = np.sqrt(tf.groupby("doc_id", sort=False)["raw2"].transform("sum").to_numpy())
        return pd.DataFrame({
            "doc_id": tf["doc_id"].to_numpy().astype(np.int64),
            "term": tf["term"].to_numpy(dtype=object),
            "score": raw / nrm,
        })

    return docs.map_batches(score, batch_format="pandas")


# -- M11/M16-style filters & projections ------------------------------------


def docs_en_quality(sf_dir: str):
    """Filter+project: English docs with simple quality stats."""

    def f(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch["lang"], "en"))
        words = pc.count_substring_regex(
            pc.coalesce(batch["text"], pa.scalar("")), r"\S+"
        )
        return pa.table({
            "doc_id": batch["doc_id"],
            "source": batch["source"],
            "n_chars": batch["n_chars"],
            "n_words": pc.cast(words, pa.int64()),
        })

    return _docs(sf_dir, ["doc_id", "lang", "source", "n_chars", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


# -- J1: upstream-results join (broadcast below budget, exchange above) -----

# above this many upstream rows the join side stops broadcasting and
# both sides hash-bucket on the id through the filesystem exchange
# (the reference's add_pipeline join side is one row per DOCUMENT at
# corpus scale — not small; VERDICT r03 next-round #1). Tests patch
# this to 0 to force the exchange path.
JOIN_BROADCAST_LIMIT = 5_000_000


def _upstream_count(sf_dir: str, where: str = "") -> int:
    import duckdb

    con = duckdb.connect()
    n = con.execute(
        f"SELECT count(*) FROM read_parquet('{sf_dir}/embeddings.parquet') {where}"
    ).fetchone()[0]
    con.close()
    return int(n)


def docs_join_embeddings(sf_dir: str):
    """documents ⋈ embeddings on doc_id = vec_id — the upstream-results
    join (Dataset.add_pipeline analog, dataset.py:243-382). Below
    ``JOIN_BROADCAST_LIMIT`` upstream rows the label side broadcasts as
    sorted numpy arrays (searchsorted semi-join, no shuffle); above it
    BOTH sides hash-bucket on the id through the filesystem exchange
    and the identical vectorized lookup runs per part (the
    ``_dedup_exact_exchanged`` shape)."""
    import duckdb
    import ray

    if _upstream_count(sf_dir) > JOIN_BROADCAST_LIMIT:
        return _docs_join_embeddings_exchanged(sf_dir)
    con = duckdb.connect()
    lab = con.execute(
        f"SELECT vec_id, label FROM read_parquet('{sf_dir}/embeddings.parquet') "
        f"ORDER BY vec_id"
    ).fetchdf()
    con.close()
    # sorted id/label arrays + searchsorted (BASELINE.md broadcast rule)
    ref = ray.put((
        lab["vec_id"].to_numpy().astype(np.int64),
        lab["label"].to_numpy().astype(np.int32),
    ))

    def join(df: pd.DataFrame) -> pd.DataFrame:
        from ..stages.broadcast import get_broadcast

        ids_s, labels_s = get_broadcast(ref)
        ids = df["doc_id"].to_numpy().astype(np.int64)
        j = np.clip(np.searchsorted(ids_s, ids), 0, len(ids_s) - 1)
        hit = len(ids_s) > 0
        mask = (ids_s[j] == ids) if hit else np.zeros(len(ids), dtype=bool)
        out = df[["doc_id", "lang", "n_chars"]][mask].copy()
        out["label"] = labels_s[j[mask]]
        return out

    return _docs(sf_dir, ["doc_id", "lang", "n_chars"]).map_batches(
        join, batch_format="pandas"
    )


_DOCS_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("lang", pa.string()), ("n_chars", pa.int64()),
])


def _write_docs_exchange(sf_dir: str, ex, stage: str, num_parts: int):
    """Phase A for the doc-side of the J1 joins: hash-bucket the pruned
    documents stream on doc_id."""
    ex.write_exchange(
        _docs(sf_dir, ["doc_id", "lang", "n_chars"]).map_batches(
            lambda b: b.cast(_DOCS_SCHEMA), batch_format="pyarrow"),
        stage,
        lambda b: ex.int_part(
            [b["doc_id"].to_numpy(zero_copy_only=False)], num_parts))


def _docs_join_embeddings_exchanged(sf_dir: str, num_parts: int = 32):
    """Scale path: co-partition documents and the (vec_id, label)
    upstream side by id hash; the sorted-array inner join runs per
    part (keys co-locate, so per-part results equal the global join)."""
    import ray.data as rd

    from ..stages import exchange as ex

    lab_schema = pa.schema([("vec_id", pa.int64()), ("label", pa.int32())])
    out_schema = _DOCS_SCHEMA.append(pa.field("label", pa.int32()))
    with (ex.stage("nse_j1_docs_") as docs_stage,
          ex.stage("nse_j1_lab_") as lab_stage):
        _write_docs_exchange(sf_dir, ex, docs_stage, num_parts)
        ex.write_exchange(
            rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "label"])
            .map_batches(lambda b: b.cast(lab_schema), batch_format="pyarrow"),
            lab_stage,
            lambda b: ex.int_part(
                [b["vec_id"].to_numpy(zero_copy_only=False)], num_parts))

        def join_part(docs_t: pa.Table, lab_t: pa.Table) -> pa.Table:
            ids_s = lab_t["vec_id"].to_numpy(zero_copy_only=False)
            order = np.argsort(ids_s, kind="stable")
            ids_s = ids_s[order]
            labels_s = lab_t["label"].to_numpy(zero_copy_only=False)[order]
            ids = docs_t["doc_id"].to_numpy(zero_copy_only=False)
            if not len(ids_s):
                return out_schema.empty_table()
            j = np.clip(np.searchsorted(ids_s, ids), 0, len(ids_s) - 1)
            mask = ids_s[j] == ids
            sub = docs_t.filter(pa.array(mask))
            return sub.append_column(
                "label", pa.array(labels_s[j[mask]], pa.int32()))

        return ex.map_parts([docs_stage, lab_stage], num_parts, join_part,
                            out_schema,
                            in_schemas=[_DOCS_SCHEMA, lab_schema])


# -- M14/J3: change-detection anti-join -------------------------------------


def filter_unprocessed(sf_dir: str):
    """documents whose doc_id is NOT among embeddings vec_ids with
    label = 0 — the resume anti-join shape (base.py:509-532). Below
    ``JOIN_BROADCAST_LIMIT`` done-rows the done-key set broadcasts as a
    sorted array; above it both sides hash-bucket on the id through the
    filesystem exchange and the anti-join runs per part."""
    import duckdb
    import ray

    if _upstream_count(sf_dir, "WHERE label = 0") > JOIN_BROADCAST_LIMIT:
        return _filter_unprocessed_exchanged(sf_dir)
    con = duckdb.connect()
    done = con.execute(
        f"SELECT DISTINCT vec_id FROM read_parquet('{sf_dir}/embeddings.parquet') "
        f"WHERE label = 0 ORDER BY vec_id"
    ).fetchdf()
    con.close()
    ref = ray.put(done["vec_id"].to_numpy().astype(np.int64))

    def f(batch: pa.Table) -> pa.Table:
        from ..stages.broadcast import get_broadcast

        done_arr = get_broadcast(ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(~np.isin(ids, done_arr)))

    return _docs(sf_dir, ["doc_id", "lang", "n_chars"]).map_batches(
        f, batch_format="pyarrow"
    )


def _filter_unprocessed_exchanged(sf_dir: str, num_parts: int = 32):
    """Scale path: co-partition documents and done-ids by id hash; the
    vectorized anti-join (np.isin invert) runs per part."""
    import ray.data as rd

    from ..stages import exchange as ex

    done_schema = pa.schema([("vec_id", pa.int64())])
    with (ex.stage("nse_fu_docs_") as docs_stage,
          ex.stage("nse_fu_done_") as done_stage):
        _write_docs_exchange(sf_dir, ex, docs_stage, num_parts)

        def done_ids(b: pa.Table) -> pa.Table:
            sub = b.filter(pc.equal(b["label"], 0))
            return pa.table({"vec_id": pc.cast(sub["vec_id"], pa.int64())})

        ex.write_exchange(
            rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "label"])
            .map_batches(done_ids, batch_format="pyarrow"),
            done_stage,
            lambda b: ex.int_part(
                [b["vec_id"].to_numpy(zero_copy_only=False)], num_parts))

        def anti_part(docs_t: pa.Table, done_t: pa.Table) -> pa.Table:
            done_arr = np.sort(done_t["vec_id"].to_numpy(zero_copy_only=False))
            ids = docs_t["doc_id"].to_numpy(zero_copy_only=False)
            return docs_t.filter(pa.array(~np.isin(ids, done_arr)))

        return ex.map_parts([docs_stage, done_stage], num_parts, anti_part,
                            _DOCS_SCHEMA,
                            in_schemas=[_DOCS_SCHEMA, done_schema])


# -- D1: exact dedup by content ---------------------------------------------

# above this many partial (hash, min-id) rows the winner combine leaves
# the driver for the content-hash partition exchange (tests patch to 0)
DEDUP_WINNERS_DRIVER_LIMIT = 5_000_000


def dedup_exact(sf_dir: str):
    """Exact dedup on text content: keep the lowest doc_id per distinct
    text (SURVEY D1). A per-batch partial (min doc_id per 16-byte
    content hash) always runs first, so document text never enters any
    exchange. Below ``DEDUP_WINNERS_DRIVER_LIMIT`` partial rows, the
    combine is driver-side and the winner ids broadcast (the
    aggregate+broadcast-semijoin shape); beyond it, partials
    hash-partition on the content hash through the filesystem exchange
    (per-part min) and the winner filter is a co-partitioned semi-join
    on doc_id — the driver only ever sees block counts (VERDICT r02
    next-round #3). 128-bit content hashing stands in for byte
    equality (collision probability ~ n^2 / 2^128)."""
    import hashlib

    import ray

    def _hashes(texts: list) -> tuple[np.ndarray, np.ndarray]:
        """Full 16-byte blake2b digest as two uint64 columns — one
        digest computation per row over a plain list (not pandas
        iteration), 128-bit collision resistance as documented."""
        h1 = np.empty(len(texts), dtype=np.uint64)
        h2 = np.empty(len(texts), dtype=np.uint64)
        for i, t in enumerate(texts):
            d = hashlib.blake2b((t or "").encode(), digest_size=16).digest()
            h1[i] = int.from_bytes(d[:8], "little")
            h2[i] = int.from_bytes(d[8:], "little")
        return h1, h2

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h1, h2 = _hashes(df["text"].tolist())
        out = pd.DataFrame({"h1": h1, "h2": h2, "doc_id": df["doc_id"].to_numpy()})
        return out.groupby(["h1", "h2"], sort=False)["doc_id"].min().reset_index()

    # the winner-filter stream needs only (doc_id, n_chars) — the text
    # column is read exactly once, by the hashing pass below
    docs = _docs(sf_dir, ["doc_id", "n_chars"])
    partials_ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(partial, batch_format="pandas")
        .materialize()
    )
    if partials_ds.count() <= DEDUP_WINNERS_DRIVER_LIMIT:
        partials = partials_ds.to_pandas()
        winners = partials.groupby(["h1", "h2"], sort=False)["doc_id"].min()
        ref = ray.put(np.sort(winners.to_numpy().astype(np.int64)))

        def filt(df: pd.DataFrame) -> pd.DataFrame:
            from ..stages.broadcast import get_broadcast

            keep = get_broadcast(ref)
            sub = df[np.isin(df["doc_id"].to_numpy(), keep)]
            return sub[["doc_id", "n_chars"]]

        return docs.map_batches(filt, batch_format="pandas")
    return _dedup_exact_exchanged(docs, partials_ds)


def _dedup_exact_exchanged(docs, partials_ds, num_parts: int = 32):
    """Scale path: content-hash partition exchange for the winner
    combine, doc_id partition exchange for the semi-join filter."""
    from ..stages import exchange as ex

    win_schema = pa.schema([("doc_id", pa.int64())])
    docs_schema = pa.schema([("doc_id", pa.int64()), ("n_chars", pa.int64())])
    with (ex.stage("nse_dx_hash_") as hash_stage,
          ex.stage("nse_dx_win_") as win_stage,
          ex.stage("nse_dx_docs_") as docs_stage):
        ex.write_exchange(
            partials_ds, hash_stage,
            lambda b: ex.int_part([
                b["h1"].to_numpy(zero_copy_only=False),
                b["h2"].to_numpy(zero_copy_only=False),
            ], num_parts))

        def winners_of_part(t: pa.Table) -> pa.Table:
            g = t.to_pandas().groupby(["h1", "h2"], sort=False)["doc_id"].min()
            return pa.table({"doc_id": pa.array(
                g.to_numpy().astype(np.int64), pa.int64())})

        winners_ds = ex.map_parts(hash_stage, num_parts, winners_of_part,
                                  win_schema)
        by_id = lambda b: ex.int_part(  # noqa: E731
            [b["doc_id"].to_numpy(zero_copy_only=False)], num_parts)
        ex.write_exchange(winners_ds, win_stage, by_id)
        ex.write_exchange(
            docs.map_batches(lambda b: b.select(["doc_id", "n_chars"]),
                             batch_format="pyarrow"),
            docs_stage, by_id)

        def semi_join(docs_t: pa.Table, win_t: pa.Table) -> pa.Table:
            keep = np.sort(win_t["doc_id"].to_numpy(zero_copy_only=False))
            ids = docs_t["doc_id"].to_numpy(zero_copy_only=False)
            return docs_t.filter(pa.array(np.isin(ids, keep)))

        return ex.map_parts([docs_stage, win_stage], num_parts, semi_join,
                            docs_schema,
                            in_schemas=[docs_schema, win_schema])


# -- Dataset.slice(ids) analog ----------------------------------------------


def docs_slice(sf_dir: str, ids=None):
    """Explicit id-subset operator over documents — the reference's
    ``Dataset.slice(ids)`` (dataset.py:207-211) via the broadcast
    ``pc.is_in`` filter in ``sources/pond.slice_studies``. Default id
    set: every 7th doc_id below 500 (matches the SQL oracle)."""
    from ..sources.pond import slice_studies

    ids = list(range(0, 500, 7)) if ids is None else list(ids)
    return slice_studies(_docs(sf_dir, ["doc_id", "lang", "n_chars"]), ids,
                         id_col="doc_id")


# -- Deterministic hash sampling (training-data mix building) ---------------


def docs_sample_hash(sf_dir: str, pct: int = 30):
    """Deterministic Bernoulli sample: keep a doc iff
    ``((doc_id * 2654435761) % 2^31) % 100 < pct``. Hash-based sampling
    is THE scale-safe pattern for training-data subsetting — no
    coordination, no RNG state, stable across reruns/partitioning, and
    exactly re-expressible in SQL (the Knuth multiplicative constant
    with no 64-bit overflow for doc_id < 2^31, asserted)."""

    def f(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # ValueError, not assert: python -O strips asserts and larger
        # ids would silently diverge from the SQL oracle via wraparound
        if len(ids) and not ((ids >= 0).all() and ids.max() < (1 << 31)):
            raise ValueError("docs_sample_hash requires 0 <= doc_id < 2^31")
        h = (ids * 2654435761) % (1 << 31)
        return batch.filter(pa.array((h % 100) < pct))

    return _docs(sf_dir, ["doc_id", "lang", "n_chars"]).map_batches(
        f, batch_format="pyarrow")


def docs_split_assign(sf_dir: str, train_pct: int = 90, valid_pct: int = 5):
    """Deterministic train/valid/test split assignment — the
    dataset-versioning step after the mix is built: every doc gets a
    stable split label from a pure hash of its id, so reruns,
    repartitioning and incremental additions never move a document
    across splits (the property that prevents eval leakage over time).
    The hash stream is ``h = (doc_id * 2654435761 + 1013904223) mod
    2^31`` — the Knuth multiplicative constant with an LCG increment
    salt so it is INDEPENDENT of ``docs_sample_hash``'s stream (a doc
    being sampled must not correlate with its split). No 64-bit
    overflow for doc_id < 2^31 (guarded), so numpy and SQL agree
    exactly. Output: (doc_id, lang, split); a stateless vectorized
    map, no shuffle."""
    if not (0 <= train_pct and 0 <= valid_pct
            and train_pct + valid_pct <= 100):
        raise ValueError("need 0 <= train_pct + valid_pct <= 100")

    def f(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # ValueError, not assert: python -O strips asserts and larger
        # ids would silently diverge from the SQL oracle via wraparound
        if len(ids) and not ((ids >= 0).all() and ids.max() < (1 << 31)):
            raise ValueError("docs_split_assign requires 0 <= doc_id < 2^31")
        h = (ids * 2654435761 + 1013904223) % (1 << 31) % 100
        split = np.where(h < train_pct, "train",
                         np.where(h < train_pct + valid_pct, "valid", "test"))
        return pa.table({
            "doc_id": batch["doc_id"],
            "lang": batch["lang"],
            "split": pa.array(split, pa.string()),
        })

    return _docs(sf_dir, ["doc_id", "lang"]).map_batches(
        f, batch_format="pyarrow")


# -- Per-group top-k (window-function analog) -------------------------------


def _topk_rows(df: pd.DataFrame, k: int, by: str | None) -> pd.DataFrame:
    """Top-k rows by (n_chars desc, doc_id asc), optionally per
    ``by``-group (NULL keys form their own group, matching SQL's
    PARTITION BY). Shared by the partial and combine stages of both
    global and per-group top-k operators."""
    s = df.sort_values(["n_chars", "doc_id"], ascending=[False, True])
    if by is None:
        return s.head(k)
    return s.groupby(by, sort=False, dropna=False).head(k)


# above this many partial top-k rows the merge leaves the driver for a
# two-level combine (tests patch to 0): doc-hash partition exchange,
# per-part local top-k under the SAME total order — top-k of a union
# equals the top-k of per-part top-ks — then a tiny driver merge of at
# most num_parts x k x groups rows. Partial top-k streams are bounded
# by k x groups x BATCHES, which at 10^6+ blocks is no longer
# driver-sized.
TOPK_PARTIALS_DRIVER_LIMIT = 5_000_000


def _topk_combine(partials_ds, local_topk, driver_limit, num_parts=32):
    """Shared gated merge for partial top-k streams: ``local_topk``
    (pd.DataFrame -> pd.DataFrame) must be idempotent and associative
    under row-union (true for 'k best under a total order, optionally
    per group'). Rows must carry a unique ``doc_id`` — the part key.
    A two-level merge: ``combine_by_key`` on doc_id (per-part top-k
    beyond the gate), then ``local_topk`` over the candidates on the
    driver.
    Returns the exact merged top-k as a small pandas frame."""
    from ..stages import exchange as ex

    partials_ds = partials_ds.materialize()
    schema = ex.arrow_schema_of(partials_ds)
    cand = ex.combine_by_key(partials_ds, ["doc_id"], local_topk, schema,
                             driver_limit, num_parts).to_pandas()
    if cand.empty:  # zero-row datasets drop their columns
        return schema.empty_table().to_pandas()
    return local_topk(cand).reset_index(drop=True)


def top_docs_per_lang(sf_dir: str, k: int = 3):
    """Top-``k`` docs per language by (n_chars desc, doc_id asc) — the
    ``row_number() OVER (PARTITION BY lang ORDER BY ...)`` analog as a
    per-batch partial top-k per group + the shared gated merge
    (driver below ``TOPK_PARTIALS_DRIVER_LIMIT`` partial rows,
    two-level exchange combine beyond; no shuffle of the doc stream,
    no window sort)."""
    import ray.data as rd

    partials_ds = (
        _docs(sf_dir, ["doc_id", "lang", "n_chars"])
        .map_batches(lambda df: _topk_rows(df, k, "lang"),
                     batch_format="pandas")
        .materialize()
    )
    final = (
        _topk_combine(partials_ds, lambda df: _topk_rows(df, k, "lang"),
                      TOPK_PARTIALS_DRIVER_LIMIT)
        .sort_values(["lang", "n_chars", "doc_id"],
                     ascending=[True, False, True])
        .reset_index(drop=True)
    )
    return rd.from_pandas(final)


# -- Sketches: HLL distinct count + Bloom-prefiltered semi-join -------------


def orders_custkey_hll(sf_dir: str, p: int = 12):
    """Approximate distinct o_custkey count via HyperLogLog
    (stages/sketch.py): per-batch 2^p-byte register partials, tiny max
    combine, one-row estimate. Deterministic (fixed-key hash), so
    golden-oracled; accuracy vs the exact count is asserted in
    tests/test_sketch.py (sigma ~ 1.04/sqrt(2^p) ~ 1.6%)."""
    import ray.data as rd

    from ..stages.sketch import hll_distinct

    return hll_distinct(
        rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"]),
        "o_custkey", p=p)


def lineitem_orders_semijoin(sf_dir: str, price_threshold: float = 400000.0):
    """lineitem rows whose order is high-value: Bloom-prefiltered
    broadcast semi-join (stages/sketch.py) — probe a few-hundred-KB
    bit array per row, exact-verify survivors, output == the plain
    semi-join (SQL oracle)."""
    import duckdb
    import ray.data as rd

    from ..stages.sketch import bloom_semi_join

    con = duckdb.connect()
    keys = con.execute(
        f"SELECT o_orderkey FROM read_parquet('{sf_dir}/orders.parquet') "
        f"WHERE o_totalprice > {price_threshold}"
    ).fetchdf()["o_orderkey"].to_numpy()
    con.close()
    fact = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_extendedprice"])
    return bloom_semi_join(fact, "l_orderkey", keys)


# -- Distributed quantiles via value-histogram sketch -----------------------


def _nchars_histogram(sf_dir: str):
    """Shared first phase of the exact quantile family: per-batch
    (value, count) histogram partials over ``n_chars`` -> small driver
    combine -> ``(sorted distinct values, cumulative counts, n)``. The
    combine is bounded by the DISTINCT-value cardinality, not the row
    count — the right shape for bounded-int columns (lengths, scores,
    days); for unbounded/float columns, pre-bucket the value in the
    partial (fixed-width bins) and the same machinery yields
    bin-accurate quantiles."""

    def partial(batch: pa.Table) -> pa.Table:
        v, c = np.unique(
            batch["n_chars"].to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table({"value": pa.array(v, pa.int64()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    partials = (
        _docs(sf_dir, ["n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    hist = partials.groupby("value", sort=True)["n"].sum()
    values = hist.index.to_numpy()
    cum = hist.to_numpy().cumsum()
    return values, cum, (int(cum[-1]) if len(cum) else 0)


def docs_nchars_quantiles(sf_dir: str, qs=(0.25, 0.5, 0.75, 0.95)):
    """Exact discrete quantiles of an integer column without a sort
    (DuckDB ``quantile_disc`` semantics: the smallest value whose
    cumulative count reaches ``ceil(q * n)``), read off the shared
    ``_nchars_histogram`` combine. Output (q, value)."""
    import math

    import ray.data as rd

    values, cum, n = _nchars_histogram(sf_dir)
    rows_q, rows_v = [], []
    for q in qs:
        if n == 0:
            continue
        target = max(1, math.ceil(q * n))
        rows_q.append(float(q))
        rows_v.append(int(values[np.searchsorted(cum, target)]))
    return rd.from_arrow(pa.table({
        "q": pa.array(rows_q, pa.float64()),
        "value": pa.array(rows_v, pa.int64()),
    }))


def docs_nchars_quantiles_sampled(sf_dir: str, qs=(0.25, 0.5, 0.75, 0.95),
                                  rate_mod: int = 8):
    """Approximate quantiles at unbounded row count: exact quantiles
    over a deterministic 1/``rate_mod`` hash sample (the
    ``docs_sample_hash`` multiplicative hash, so partition- and
    order-independent — every worker agrees on the sample with no
    coordination). Sampling error is O(1/sqrt(n/rate_mod)) ranks; the
    sample size is budgeted BY CONSTRUCTION (10^12 rows / 2^20 ≈ 10^6
    values), unlike the distinct-cardinality bound of the exact
    ``docs_nchars_quantiles``. Exactly SQL-expressible: quantile_disc
    over the same hash predicate. Output (q, value)."""
    import math

    import ray.data as rd

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) and not ((ids >= 0).all() and ids.max() < (1 << 31)):
            raise ValueError("requires 0 <= doc_id < 2^31")
        keep = ((ids * 2654435761) % (1 << 31)) % rate_mod == 0
        v, c = np.unique(
            batch["n_chars"].to_numpy(zero_copy_only=False)[keep],
            return_counts=True)
        return pa.table({"value": pa.array(v, pa.int64()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    partials = (
        _docs(sf_dir, ["doc_id", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    hist = partials.groupby("value", sort=True)["n"].sum()
    values = hist.index.to_numpy()
    cum = hist.to_numpy().cumsum()
    n = int(cum[-1]) if len(cum) else 0
    rows_q, rows_v = [], []
    for q in qs:
        if n == 0:
            continue
        target = max(1, math.ceil(q * n))
        rows_q.append(float(q))
        rows_v.append(int(values[np.searchsorted(cum, target)]))
    return rd.from_arrow(pa.table({
        "q": pa.array(rows_q, pa.float64()),
        "value": pa.array(rows_v, pa.int64()),
    }))


# grouped-quantile histogram partials are (group x distinct-value x
# batches) sized; beyond this the combine leaves the driver for a
# group-hash partition exchange (tests patch to 0, assert path equality)
LANG_QUANTILES_DRIVER_LIMIT = 5_000_000


def docs_lang_quantiles(sf_dir: str, qs=(0.25, 0.5, 0.75, 0.95),
                        num_parts: int = 32,
                        driver_limit: int | None = None):
    """Exact PER-GROUP discrete quantiles of an integer column without
    any sort — the grouped form of ``docs_nchars_quantiles`` (DuckDB
    ``quantile_disc GROUP BY`` semantics: per group, the smallest value
    whose cumulative count reaches ``ceil(q * n_group)``; rule verified
    against DuckDB over randomized multisets). Per-batch partial rows
    (lang, value, n) are bounded by group-x-distinct-value
    cardinality per batch, never the row stream. Below
    ``LANG_QUANTILES_DRIVER_LIMIT`` partial rows the combine is a small
    driver groupby; beyond, a GROUP-hash partition exchange — the part
    key is the lang alone (not lang+value), so one group's whole
    histogram co-locates and the per-part selection is exact, and the
    result stays distributed. Output
    (lang, q, value), one row per group per requested quantile."""
    import math

    from ..stages import exchange as ex

    if driver_limit is None:
        driver_limit = LANG_QUANTILES_DRIVER_LIMIT

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select(["lang", "n_chars"]).to_pandas()
        g = (t.groupby(["lang", "n_chars"], sort=False, dropna=False)
             .size().reset_index(name="n"))
        return pa.table({
            "lang": pa.array(g["lang"].astype(object), pa.string()),
            "value": pa.array(g["n_chars"].to_numpy().astype(np.int64)),
            "n": pa.array(g["n"].to_numpy().astype(np.int64)),
        })

    out_schema = pa.schema([("lang", pa.string()), ("q", pa.float64()),
                            ("value", pa.int64())])

    def select(df: pd.DataFrame) -> pd.DataFrame:
        """(lang, value, n) histogram rows -> (lang, q, value)."""
        out_l, out_q, out_v = [], [], []
        for lang, g in df.groupby("lang", sort=False, dropna=False):
            h = g.groupby("value", sort=True)["n"].sum()
            values = h.index.to_numpy()
            cum = h.to_numpy().cumsum()
            n = int(cum[-1]) if len(cum) else 0
            if n == 0:
                continue
            for q in qs:
                out_l.append(lang)
                out_q.append(float(q))
                out_v.append(int(values[np.searchsorted(
                    cum, max(1, math.ceil(q * n)))]))
        return pd.DataFrame({"lang": out_l, "q": out_q, "value": out_v})

    partials = (
        _docs(sf_dir, ["doc_id", "lang", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
    )
    return ex.combine_by_key(partials, ["lang"], select, out_schema,
                             driver_limit, num_parts)


# -- Quantile-bucket assignment (two-phase stats -> broadcast) ---------------


def docs_quality_buckets(sf_dir: str):
    """Assign every document its corpus length quartile (bucket 0-3)
    — the binning pass behind quality-stratified training mixes.
    Two-phase: the distributed value-histogram quantiles
    (``docs_nchars_quantiles``) produce three thresholds, broadcast as
    a sorted int array; pass 2 is a stateless vectorized searchsorted
    (side='left' == the SQL ``n_chars <= t`` CASE ladder, including
    duplicated thresholds). Output (doc_id, n_chars, bucket)."""
    import ray

    qdf = docs_nchars_quantiles(sf_dir, qs=(0.25, 0.5, 0.75)).to_pandas()
    if qdf.empty:
        return _docs(sf_dir, ["doc_id", "n_chars"]).map_batches(
            lambda b: b.append_column(
                "bucket", pa.array(np.zeros(b.num_rows, np.int64))),
            batch_format="pyarrow")
    thr = np.sort(qdf["value"].to_numpy(np.int64))
    ref = ray.put(thr)

    def f(batch: pa.Table) -> pa.Table:
        from ..stages.broadcast import get_broadcast

        t = get_broadcast(ref)
        n = batch["n_chars"].to_numpy(zero_copy_only=False)
        b = np.searchsorted(t, n, side="left").astype(np.int64)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_chars": batch["n_chars"],
            "bucket": pa.array(b, pa.int64()),
        })

    return _docs(sf_dir, ["doc_id", "n_chars"]).map_batches(
        f, batch_format="pyarrow")


# -- Heavy hitters: exact distributed top-k terms ---------------------------

# above this many partial (term, n) rows the combine leaves the driver
# for a term-hash partition exchange (tests patch to 0). Web-scale text
# has an effectively unbounded vocabulary (typos/urls/ids), so the
# driver combine cannot be the only path.
TERMS_DRIVER_LIMIT = 5_000_000

_TOP_TERMS_SCHEMA = pa.schema([("term", pa.string()), ("n", pa.int64())])


def top_terms(sf_dir: str, k: int = 20):
    """Top-``k`` corpus terms by total occurrence count with a
    deterministic tie-break (count desc, term asc): per-batch tokenize
    + value_counts partials (one row per distinct term per batch; never
    the token stream). Below ``TERMS_DRIVER_LIMIT`` partial rows the
    combine is a small driver groupby; beyond it, partials
    hash-partition on the term through the filesystem exchange, each
    part combines + takes its local top-k under the SAME total order
    (every term's rows co-locate, so per-part sums are exact totals and
    the global top-k is a subset of the per-part top-k union), and the
    driver merges ``num_parts * k`` rows. Output (term, n)."""
    import ray.data as rd

    from ..stages import exchange as ex

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.lower().str.findall(SK_TOKEN_RE)
        c = toks.explode().dropna().value_counts()
        out = pd.DataFrame({"term": c.index.to_numpy(dtype=object),
                            "n": c.to_numpy().astype(np.int64)})
        return out

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("term", sort=False)["n"].sum().reset_index()
                .sort_values(["n", "term"], ascending=[False, True],
                             kind="stable").head(k))

    partials_ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(partial, batch_format="pandas")
    )
    cand = ex.combine_by_key(partials_ds, ["term"], topk, _TOP_TERMS_SCHEMA,
                             TERMS_DRIVER_LIMIT).to_pandas()
    if cand.empty:
        return rd.from_arrow(_TOP_TERMS_SCHEMA.empty_table())
    return rd.from_pandas(topk(cand).reset_index(drop=True))


def docs_bm25(sf_dir: str, query_terms=("merge", "spark", "window"),
              k1: float = 1.2, b: float = 0.75):
    """Okapi BM25 ranked retrieval against a fixed query term set
    (Robertson/Sparck-Jones probabilistic weighting, the Lucene
    always-positive idf variant ``ln((N - df + 0.5)/(df + 0.5) + 1)``)
    — the relevance-scoring primitive behind search-index-style corpus
    triage. Tokens are the sklearn convention (lowercase ``\\w\\w+``,
    the tfidf/top_terms tokenizer). Output ``(doc_id, score)`` for
    documents containing at least one query term; the query wrapper
    rounds to 6.

    Scale shape: pass 1 tokenizes once and emits per-batch count
    partials — per-query-term document frequency plus the corpus
    doc/token totals as sentinel-key rows, ``len(query_terms) + 2``
    rows per batch — through the gated ``grouped_sum_by_key`` combine;
    the reduced table is query-sized (never vocabulary-sized). Pass 2
    is a stateless scoring map against the broadcast (terms, idf,
    avgdl) — a handful of floats. No shuffle touches the token stream
    or document text. Exact ANSI-SQL oracle (identical IEEE op order:
    ``avgdl = total/N`` first, then ``dl/avgdl``)."""
    import ray
    import ray.data as rd

    from ..stages.broadcast import get_broadcast

    qt = sorted(set(query_terms))
    out_schema = pa.schema([("doc_id", pa.int64()), ("score", pa.float64())])
    # sentinel keys can't collide with \w\w+ tokens ('#' is not \w).
    # NEVER use \x00 in pandas group keys: pandas 2.2 factorize /
    # groupby / hash_array truncate object strings at an embedded NUL,
    # so '\x00a' and '\x00b' silently merge into one group.
    S_NDOCS, S_NTOK = "#ndocs", "#ntok"

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.lower().str.findall(SK_TOKEN_RE)
        ex = toks.explode().dropna()
        hit = ex[ex.isin(qt)]
        d = pd.DataFrame({"i": hit.index.to_numpy(),
                          "t": hit.to_numpy(dtype=object)}).drop_duplicates()
        dfc = d.groupby("t", sort=False).size()
        out = pd.DataFrame({
            "term": np.concatenate([dfc.index.to_numpy(dtype=object),
                                    np.array([S_NDOCS, S_NTOK],
                                             dtype=object)]),
            "n": np.concatenate([dfc.to_numpy().astype(np.int64),
                                 np.array([len(df), len(ex)],
                                          dtype=np.int64)])})
        return out

    docs = _docs(sf_dir, ["doc_id", "text"])
    partials_ds = docs.map_batches(partial,
                                   batch_format="pandas").materialize()
    stats = grouped_sum_by_key(partials_ds, "term", ["n"],
                               TERMS_DRIVER_LIMIT).to_pandas()
    if stats.empty:
        return rd.from_arrow(out_schema.empty_table())
    by_term = dict(zip(stats["term"], stats["n"].astype(np.int64)))
    n_docs = int(by_term.pop(S_NDOCS, 0))
    n_tok = int(by_term.pop(S_NTOK, 0))
    if not n_docs or not n_tok or not by_term:
        return rd.from_arrow(out_schema.empty_table())
    avgdl = n_tok / n_docs
    terms = np.array(sorted(by_term), dtype=object)
    dfv = np.array([by_term[t] for t in terms], dtype=np.float64)
    idf = np.log((n_docs - dfv + 0.5) / (dfv + 0.5) + 1.0)
    k1p1, omb = k1 + 1.0, 1.0 - b
    ref = ray.put((terms, idf))

    def score(df: pd.DataFrame) -> pa.Table:
        bt, bidf = get_broadcast(ref)
        df = df.reset_index(drop=True)
        toks = df["text"].fillna("").str.lower().str.findall(SK_TOKEN_RE)
        ex = toks.explode().dropna()
        hit = ex[ex.isin(bt)]
        if hit.empty:
            return out_schema.empty_table()
        dl = ex.groupby(level=0).size()
        g = pd.DataFrame({"i": hit.index.to_numpy(),
                          "t": hit.to_numpy(dtype=object)})
        tf = g.groupby(["i", "t"], sort=False).size().reset_index(name="tf")
        j = np.searchsorted(bt, tf["t"].to_numpy(dtype=object))
        # membership guaranteed by the isin filter above
        tfv = tf["tf"].to_numpy().astype(np.float64)
        x = dl.loc[tf["i"]].to_numpy().astype(np.float64) / avgdl
        contrib = bidf[j] * (tfv * k1p1) / (tfv + k1 * (omb + b * x))
        sc = (pd.DataFrame({
                "doc_id": df["doc_id"].to_numpy()[tf["i"].to_numpy()],
                "c": contrib})
              .groupby("doc_id", sort=False)["c"].sum())
        return pa.table({
            "doc_id": pa.array(sc.index.to_numpy().astype(np.int64),
                               pa.int64()),
            "score": pa.array(sc.to_numpy(), pa.float64())})

    return docs.map_batches(score, batch_format="pandas")


def docs_bpe_merges(sf_dir: str, n_merges: int = 40):
    """Learn ``n_merges`` BPE merge operations over the documents
    corpus (``stages/bpe.bpe_learn``): corpus-sized work is only the
    word-frequency count (the ``top_terms`` partial pattern through
    the gated ``grouped_sum_by_key``); the merge iterations run over
    the language-bounded vocabulary, driver-side below
    ``BPE_VOCAB_DRIVER_LIMIT`` and exchange-partitioned beyond.
    Output (rank, left, right, pair_count); pinned-golden oracle (the
    iterative merge recurrence is not reasonably SQL-expressible)."""
    from ..stages.bpe import bpe_learn

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.lower().str.findall(SK_TOKEN_RE)
        c = toks.explode().dropna().value_counts()
        out = pd.DataFrame({"term": c.index.to_numpy(dtype=object),
                            "n": c.to_numpy().astype(np.int64)})
        return out

    partials_ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(partial, batch_format="pandas")
        .materialize()
    )
    vocab = grouped_sum_by_key(partials_ds, "term", ["n"],
                               TERMS_DRIVER_LIMIT)
    return bpe_learn(vocab, n_merges)


# vocab rows above which the importance-weight broadcast raises: like
# tfidf's vocabulary, scoring fundamentally ships the per-term
# log-ratio table to every worker — past budget the fix is semantic
# (hashed feature buckets), not a bigger pipe. Tests patch to 0.
DSIR_VOCAB_DRIVER_LIMIT = 20_000_000


def docs_importance_weights(sf_dir: str, target_lang: str = "en"):
    """DSIR-style unigram importance weights (Xie et al. 2023, public
    construction, unigram variant): per-doc mean log-likelihood ratio
    between the target distribution (docs with ``lang ==
    target_lang``) and the raw corpus distribution, add-one smoothed
    over the shared vocabulary — the data-selection reweighting step
    of an LLM pipeline. Tokenization: lowercase ``\\w+`` (the
    ``docs_repetition_stats`` convention, so 1-char words count — NOT
    the sklearn 2+-char ``SK_TOKEN_RE``). Output (doc_id, n_words,
    weight), weight rounded to 6.

    One corpus tokenize pass emits (term, cr, ct) count partials
    (raw + target tallied together) through the gated
    ``grouped_sum_by_key`` combine; the log-ratio table is
    vocabulary-sized and broadcasts once as sorted numpy arrays
    (hard-gated by ``DSIR_VOCAB_DRIVER_LIMIT``); the scoring pass is a
    stateless searchsorted map. Exact ANSI-SQL oracle."""
    import ray

    from ..stages.broadcast import get_broadcast

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.lower().str.findall(r"\w+")
        ex_t = toks.explode().dropna()
        if ex_t.empty:
            return pd.DataFrame({
                "term": pd.Series([], dtype=object),
                "cr": pd.Series([], dtype="int64"),
                "ct": pd.Series([], dtype="int64")})
        is_t = (df["lang"].reindex(ex_t.index) == target_lang)
        g = pd.DataFrame({"term": ex_t.to_numpy(dtype=object),
                          "t": is_t.to_numpy().astype(np.int64)})
        agg = (g.groupby("term", sort=False)["t"]
               .agg(cr="size", ct="sum").reset_index())
        agg["cr"] = agg["cr"].astype(np.int64)
        return agg

    partials_ds = (
        _docs(sf_dir, ["doc_id", "lang", "text"])
        .map_batches(partial, batch_format="pandas")
        .materialize())
    counts_ds = grouped_sum_by_key(partials_ds, "term", ["cr", "ct"],
                                   TERMS_DRIVER_LIMIT)
    n_vocab = counts_ds.count()
    if n_vocab > DSIR_VOCAB_DRIVER_LIMIT:
        raise ValueError(
            f"importance-weight vocabulary ({n_vocab} terms) exceeds "
            f"DSIR_VOCAB_DRIVER_LIMIT ({DSIR_VOCAB_DRIVER_LIMIT}); "
            "scoring broadcasts the per-term log-ratio table — use "
            "docs_importance_weights_hashed (bucket-space-bounded) "
            "instead")
    counts = counts_ds.to_pandas()
    if counts.empty:
        vocab_s = np.array([], dtype=object)
        lw = np.array([], dtype=np.float64)
    else:
        counts = counts.sort_values("term", kind="stable")
        vocab_s = counts["term"].to_numpy(dtype=object)
        cr = counts["cr"].to_numpy(dtype=np.float64)
        ct = counts["ct"].to_numpy(dtype=np.float64)
        v, tr, tt = float(len(counts)), cr.sum(), ct.sum()
        lw = np.log((ct + 1.0) / (tt + v)) - np.log((cr + 1.0) / (tr + v))
    ref = ray.put((vocab_s, lw))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        vs, w = get_broadcast(ref)
        toks = df["text"].fillna("").str.lower().str.findall(r"\w+")
        n_words = toks.map(len).to_numpy(dtype=np.int64)
        out = np.zeros(len(df), dtype=np.float64)
        for i, ts in enumerate(toks):
            if not ts:
                continue
            a = np.array(ts, dtype=object)
            j = np.clip(np.searchsorted(vs, a), 0, max(len(vs) - 1, 0))
            # membership invariant: the vocab came from this corpus,
            # so every token must hit (loud failure beats a silent
            # neighbor's weight — ADVICE r04 #3 pattern)
            if len(vs) == 0 or not (vs[j] == a).all():
                raise RuntimeError(
                    "importance-weight scoring saw a token absent "
                    "from the broadcast vocabulary")
            out[i] = w[j].sum() / len(ts)
        res = pd.DataFrame()
        res["doc_id"] = df["doc_id"]
        res["n_words"] = n_words
        res["weight"] = np.round(out, 6)
        return res

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pandas")


def docs_importance_weights_hashed(sf_dir: str, target_lang: str = "en",
                                   n_buckets: int = 4096):
    """Hashed-feature DSIR importance weights — the scale path the
    ``docs_importance_weights`` hard gate points at (Xie et al. 2023
    uses hashed n-gram buckets for exactly this reason): terms hash
    into ``n_buckets`` buckets (self-owned blake2b token hash, never
    Python's salted ``hash()``), counts and the log-ratio table are
    bucket-space-sized — the broadcast is ``n_buckets`` float64s
    (32 KB at 4096) REGARDLESS of corpus vocabulary, so nothing here
    ever outgrows a worker. Add-one smoothing over the bucket space.
    Tokenization: lowercase ``\\w+``. Output (doc_id, n_words,
    weight), rounded to 6. Pinned-golden oracle (blake2b is not
    SQL-expressible)."""
    import ray

    from ..functions.hashing import _token_hashes
    from ..stages.broadcast import get_broadcast

    def _buckets(terms: np.ndarray) -> np.ndarray:
        return (_token_hashes(list(terms)) % np.uint64(n_buckets)
                ).astype(np.int64)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.lower().str.findall(r"\w+")
        ex_t = toks.explode().dropna()
        if ex_t.empty:
            return pd.DataFrame({
                "bucket": pd.Series([], dtype="int64"),
                "cr": pd.Series([], dtype="int64"),
                "ct": pd.Series([], dtype="int64")})
        terms, inv = np.unique(ex_t.to_numpy(dtype=object),
                               return_inverse=True)
        bk = _buckets(terms)[inv]
        is_t = ((df["lang"].reindex(ex_t.index) == target_lang)
                .to_numpy().astype(np.int64))
        cr = np.bincount(bk, minlength=n_buckets)
        ct = np.bincount(bk, weights=is_t, minlength=n_buckets
                         ).astype(np.int64)
        nz = cr > 0
        out = pd.DataFrame({
            "bucket": np.arange(n_buckets, dtype=np.int64)[nz],
            "cr": cr[nz].astype(np.int64), "ct": ct[nz]})
        return out

    partials_ds = (
        _docs(sf_dir, ["doc_id", "lang", "text"])
        .map_batches(partial, batch_format="pandas")
        .materialize())
    counts = grouped_sum_by_key(partials_ds, "bucket", ["cr", "ct"],
                                TERMS_DRIVER_LIMIT).to_pandas()
    # the combined table is <= n_buckets rows by construction — a
    # parameter, not a corpus property — so the driver collect and the
    # broadcast below are bounded without a budget gate
    cr = np.zeros(n_buckets, dtype=np.float64)
    ct = np.zeros(n_buckets, dtype=np.float64)
    if not counts.empty:
        b = counts["bucket"].to_numpy(dtype=np.int64)
        cr[b] = counts["cr"].to_numpy(dtype=np.float64)
        ct[b] = counts["ct"].to_numpy(dtype=np.float64)
    tr, tt, v = cr.sum(), ct.sum(), float(n_buckets)
    lw = np.log((ct + 1.0) / (tt + v)) - np.log((cr + 1.0) / (tr + v))
    ref = ray.put(lw)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        w = get_broadcast(ref)
        toks = df["text"].fillna("").str.lower().str.findall(r"\w+")
        n_words = toks.map(len).to_numpy(dtype=np.int64)
        out = np.zeros(len(df), dtype=np.float64)
        for i, ts in enumerate(toks):
            if not ts:
                continue
            terms, inv = np.unique(np.array(ts, dtype=object),
                                   return_inverse=True)
            out[i] = w[_buckets(terms)[inv]].sum() / len(ts)
        res = pd.DataFrame()
        res["doc_id"] = df["doc_id"]
        res["n_words"] = n_words
        res["weight"] = np.round(out, 6)
        return res

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pandas")


def embeddings_label_centroids(sf_dir: str):
    """Per-label embedding centroid in LONG form — (label, dim,
    centroid, n_vecs) — the distributed vector-mean primitive behind
    cluster centroids at scale. Per-batch partials are (label, dim,
    s, n) rows (labels x dim per batch, bounded by the label
    cardinality, never by corpus size) through the gated
    ``grouped_sum_by_key`` combine; the finalize is a stateless map
    over the combined rows, so nothing here ever collects vectors to
    the driver. Exact ANSI-SQL oracle (round 6, BIGINT-cast keys)."""
    import ray.data as rd

    def partial(b: pa.Table) -> pa.Table:
        labs = b["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(labs) == 0:
            return pa.table({
                "label": pa.array([], pa.int64()),
                "dim": pa.array([], pa.int64()),
                "s": pa.array([], pa.float64()),
                "n": pa.array([], pa.int64())})
        col = b.column("embedding").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False)
        dim = len(flat) // len(labs)
        m = flat.astype(np.float64).reshape(len(labs), dim)
        uniq, inv = np.unique(labs, return_inverse=True)
        sums = np.zeros((len(uniq), dim), dtype=np.float64)
        np.add.at(sums, inv, m)
        cnt = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        lab_r = np.repeat(uniq, dim)
        dim_r = np.tile(np.arange(dim, dtype=np.int64), len(uniq))
        return pa.table({
            "label": pa.array(lab_r, pa.int64()),
            "dim": pa.array(dim_r, pa.int64()),
            "s": pa.array(sums.ravel(), pa.float64()),
            "n": pa.array(np.repeat(cnt, dim), pa.int64()),
        })

    partials_ds = (
        rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                        columns=["label", "embedding"])
        .map_batches(partial, batch_format="pyarrow")
        .materialize())
    combined = grouped_sum_by_key(partials_ds, ["label", "dim"],
                                  ["s", "n"], AGG_PARTIALS_DRIVER_LIMIT)

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame()
        out["label"] = df["label"].astype("int64")
        out["dim"] = df["dim"].astype("int64")
        out["centroid"] = np.round(
            df["s"].to_numpy() / df["n"].to_numpy(), 6)
        out["n_vecs"] = df["n"].astype("int64")
        return out

    return combined.map_batches(finalize, batch_format="pandas")


def corpus_stats(sf_dir: str):
    """One-row corpus summary: doc count, total lowercase ``\\w+``
    tokens, vocabulary size, top-term share, type-token ratio — the
    sanity report a pipeline run prints before training-data work.
    Term counts go through the gated ``grouped_sum_by_key`` combine;
    the summary reduces per-BLOCK partials (<= block-count rows on the
    driver, even when the combine stayed distributed). Exact ANSI-SQL
    oracle (counts cast to BIGINT on both sides)."""
    import ray.data as rd

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.lower().str.findall(r"\w+")
        c = toks.explode().dropna().value_counts()
        out = pd.DataFrame({"term": c.index.to_numpy(dtype=object),
                            "n": c.to_numpy().astype(np.int64)})
        return out

    partials_ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(partial, batch_format="pandas")
        .materialize())
    vocab_ds = grouped_sum_by_key(partials_ds, "term", ["n"],
                                  TERMS_DRIVER_LIMIT)

    def block_stat(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"s": pd.Series([], dtype="int64"),
                                 "v": pd.Series([], dtype="int64"),
                                 "m": pd.Series([], dtype="int64")})
        return pd.DataFrame({"s": [int(df["n"].sum())],
                             "v": [len(df)], "m": [int(df["n"].max())]})

    bs = vocab_ds.map_batches(block_stat, batch_format="pandas").to_pandas()
    n_docs = _docs(sf_dir, ["doc_id"]).count()
    if bs.empty:
        n_tokens, vocab, mx = 0, 0, 0
    else:
        n_tokens = int(bs["s"].sum())
        vocab = int(bs["v"].sum())
        mx = int(bs["m"].max())
    return rd.from_pandas(pd.DataFrame({
        "n_docs": pd.Series([n_docs], dtype="int64"),
        "n_tokens": pd.Series([n_tokens], dtype="int64"),
        "vocab_size": pd.Series([vocab], dtype="int64"),
        "top_term_share": [round(mx / n_tokens, 6) if n_tokens else 0.0],
        "type_token_ratio": [round(vocab / n_tokens, 6)
                             if n_tokens else 0.0],
    }))


def docs_winnow_fingerprints(sf_dir: str, k: int = 5, w: int = 4):
    """Winnowing fingerprints per document (``stages/winnow.py``,
    Schleimer et al. 2003): local-minimum sampling of the k-gram hash
    stream with the window-w coverage guarantee. Pinned-golden oracle
    (blake2b + polynomial window hashes are not SQL-expressible)."""
    from ..stages.winnow import winnow_fingerprints

    return winnow_fingerprints(_docs(sf_dir, ["doc_id", "text"]), k, w)


def docs_bpe_encode(sf_dir: str, n_merges: int = 20):
    """Chained tokenizer pipeline: learn ``n_merges`` BPE merges from
    the corpus (``docs_bpe_merges``), then encode every document with
    them (``stages/bpe.bpe_encode``). The merge list is
    parameter-sized (collected to the driver by construction — it IS
    the model, n_merges rows); the encode pass is a stateless map.
    Pinned-golden oracle (the merge recurrence is not
    SQL-expressible)."""
    from ..stages.bpe import bpe_encode

    merges_df = docs_bpe_merges(sf_dir, n_merges).to_pandas()
    merges = ([] if merges_df.empty  # zero-row datasets drop columns
              else list(zip(merges_df["left"], merges_df["right"])))
    return bpe_encode(_docs(sf_dir, ["doc_id", "text"]), merges)


# -- Per-domain aggregation + domain-level filtering ------------------------

# above this many partial (domain, counts) rows the stats combine
# leaves the driver for a domain-hash partition exchange (tests patch
# to 0). A web crawl has ~10^8 registered domains with a heavy tail of
# singletons, so neither the combine nor the kept-domain set may
# assume driver residency.
DOMAIN_DRIVER_LIMIT = 5_000_000

def _plant_domains(ids: pd.Series) -> pd.Series:
    """Deterministic registered-domain plant (the documents table has
    no url column): seven head domains plus a long tail of singleton
    domains on ``doc_id % 11 == 0`` — the head/tail shape a real crawl
    has, re-expressed exactly in the SQL oracle."""
    ids = ids.astype("int64")
    head = "site" + (ids % 7).astype(str) + ".example"
    tail = "tail" + ids.astype(str) + ".example"
    return tail.where(ids % 11 == 0, head)


def _domain_partials(sf_dir: str):
    """documents -> per-batch partial (domain, n_docs, total_chars,
    n_en) rows."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "domain": _plant_domains(df["doc_id"]),
            "n_chars": df["n_chars"].astype("int64"),
            "en": (df["lang"] == "en").astype("int64"),
        }).groupby("domain", sort=False).agg(
            n_docs=("en", "size"), total_chars=("n_chars", "sum"),
            n_en=("en", "sum")).reset_index()
        return g

    return (_docs(sf_dir, ["doc_id", "lang", "n_chars"])
            .map_batches(partial, batch_format="pandas")
            .materialize())


def grouped_sum_by_key(partials_ds, key_col, sum_cols: list[str],
                       driver_limit: int, num_parts: int = 32):
    """Exact per-key sums over a stream of PARTIAL aggregate rows —
    the shared combine behind the domain-stats, host-indegree,
    lineitem-pricing and hourly-window aggregates. ``key_col`` is one
    column name or a list (string / int / timestamp keys all work);
    key and sum dtypes come from the partials schema, so int sums stay
    exact and float sums combine per-part. Below ``driver_limit``
    partial rows: a small driver groupby. Beyond: a key-hash partition
    exchange whose per-part combine output STAYS distributed (keys
    co-locate, so per-part sums are exact global totals)."""
    from ..stages import exchange as ex

    key_cols = [key_col] if isinstance(key_col, str) else list(key_col)
    partials_ds = partials_ds.select_columns(
        key_cols + sum_cols).materialize()
    base = ex.arrow_schema_of(partials_ds)
    schema = pa.schema([base.field(c) for c in key_cols + sum_cols])

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        # dropna=False: a null key is a group like any other (SQL
        # GROUP BY keeps NULL; pandas' default silently drops it).
        return (df.groupby(key_cols, sort=False, dropna=False)[sum_cols]
                .sum().reset_index())

    return ex.combine_by_key(partials_ds, key_cols, combine, schema,
                             driver_limit, num_parts)


# partial HLL register rows are key-cardinality x batches sized (one
# 2^p-byte blob per key per batch); beyond this the max-combine leaves
# the driver for a key-hash partition exchange (tests patch to 0 and
# assert path equality).
HLL_GROUP_PARTIALS_DRIVER_LIMIT = 2_000_000


def hll_distinct_by_key(pre_ds, key_col: str, val_col: str, p: int = 12,
                        driver_limit: int | None = None,
                        num_parts: int = 32):
    """Approximate ``COUNT(DISTINCT val_col) GROUP BY key_col`` — the
    sketch-PER-KEY merge primitive (one HLL register array per key;
    registers combine by elementwise max, which is idempotent and
    commutative, so per-key merges are exact across any batch or part
    split). Per-batch partial rows (key, regs[2^p] bytes) are
    bounded by key-cardinality x batches, never the row stream; the
    combine is a vectorized driver groupby-max below ``driver_limit``
    partial rows and a key-hash partition exchange beyond (keys
    co-locate, so per-part maxima are exact global registers).

    ``val_col`` must be an integer column (self-owned splitmix64
    hashing — estimates pinned independent of library versions). Output
    (key_col, n_distinct_est), one row per key."""
    from ..stages import exchange as ex
    from ..stages.sketch import hll_estimate, hll_partial, splitmix64

    if driver_limit is None:
        driver_limit = HLL_GROUP_PARTIALS_DRIVER_LIMIT
    m = 1 << p

    def partial(batch: pa.Table) -> pa.Table:
        key_type = batch.schema.field(key_col).type
        t = batch.select([key_col, val_col]).to_pandas()
        t = t.dropna(subset=[val_col])  # COUNT(DISTINCT): NULL not a value
        keys, blobs = [], []
        for kv, g in t.groupby(key_col, sort=False, dropna=False):
            vals = g[val_col].to_numpy()
            if vals.dtype.kind == "f":
                # NULL-driven pandas promotion of an int column: the
                # NaNs are gone (dropna above); require the survivors
                # integral and restore int64 so hashing stays pinned
                iv = vals.astype(np.int64)
                if not (iv == vals).all():
                    raise TypeError(
                        f"hll_distinct_by_key needs an integer "
                        f"{val_col}, got non-integral floats")
                vals = iv
            elif not np.issubdtype(vals.dtype, np.integer):
                raise TypeError(
                    f"hll_distinct_by_key needs an integer {val_col}, "
                    f"got {vals.dtype}")
            blobs.append(hll_partial(splitmix64(vals), p).tobytes())
            keys.append(kv)
        return pa.table({key_col: pa.array(keys, key_type),
                         "regs": pa.array(blobs, pa.binary())})

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized groupby-max: factorize keys, stack blobs into an
        # (n, m) uint8 matrix, one unbuffered scatter-max — no
        # per-bucket Python loop (the VERDICT r04 _bucket_pairs rule);
        # only the per-KEY estimate call stays a loop (keys, not rows).
        codes, uniques = pd.factorize(df[key_col], use_na_sentinel=False)
        mat = np.frombuffer(
            b"".join(df["regs"]), dtype=np.uint8).reshape(len(df), m)
        acc = np.zeros((len(uniques), m), dtype=np.uint8)
        np.maximum.at(acc, codes, mat)
        ests = np.fromiter((hll_estimate(acc[i]) for i in range(len(uniques))),
                           dtype=np.int64, count=len(uniques))
        return pd.DataFrame({key_col: np.asarray(uniques),
                             "n_distinct_est": ests})

    partials = pre_ds.map_batches(
        partial, batch_format="pyarrow").materialize()
    key_type = ex.arrow_schema_of(partials).field(key_col).type
    out_schema = pa.schema([pa.field(key_col, key_type),
                            pa.field("n_distinct_est", pa.int64())])
    return ex.combine_by_key(partials, [key_col], combine, out_schema,
                             driver_limit, num_parts)


def events_user_hll_hourly(sf_dir: str, p: int = 12):
    """Approximate distinct active users per tumbling hour —
    ``COUNT(DISTINCT user_id) GROUP BY hour`` through the grouped-HLL
    primitive (``hll_distinct_by_key``): the windowed distinct-count a
    crawl/engagement dashboard computes where the exact per-window
    user sets would dwarf the 2^p-byte-per-window registers.
    Deterministic (fixed-key splitmix64), so golden-oracled; accuracy
    vs the exact per-hour counts is asserted in tests/test_sketch.py
    (sigma ~ 1.04/sqrt(2^p))."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "user_id"])

    def pre(batch: pa.Table) -> pa.Table:
        return pa.table({
            "hour": pc.floor_temporal(batch["ts"], unit="hour"),
            "user_id": batch["user_id"],
        })

    return hll_distinct_by_key(
        ds.map_batches(pre, batch_format="pyarrow"),
        "hour", "user_id", p=p)


def docs_domain_stats(sf_dir: str):
    """Per-registered-domain corpus statistics (doc count, total chars,
    English doc count) — the aggregate behind domain-level crawl
    hygiene (RefinedWeb/C4-style). Per-batch partial aggregate first
    (rows bounded by distinct domains per batch, never the doc
    stream), then the shared ``grouped_sum_by_key`` combine (driver
    below ``DOMAIN_DRIVER_LIMIT``, distributed-output domain-hash
    exchange above)."""
    return grouped_sum_by_key(
        _domain_partials(sf_dir), "domain",
        ["n_docs", "total_chars", "n_en"], DOMAIN_DRIVER_LIMIT)


def docs_domain_filter(sf_dir: str, min_docs: int = 5):
    """Domain-level document filter: keep docs whose registered domain
    has at least ``min_docs`` documents corpus-wide (drops the crawl's
    singleton-domain tail). Two-pass: the ``docs_domain_stats``
    aggregate, then — below ``DOMAIN_DRIVER_LIMIT`` kept domains — a
    broadcast of the kept-domain strings as a sorted numpy array
    (exact membership, no hash step); beyond it, docs and kept domains
    co-partition by domain hash through the exchange and the semi-join
    runs per part on exact strings. Output (doc_id, domain, n_chars)."""
    import ray

    stats = docs_domain_stats(sf_dir)
    kept_ds = stats.map_batches(
        lambda b: b.filter(pc.greater_equal(b["n_docs"], min_docs))
                   .select(["domain"]),
        batch_format="pyarrow").materialize()
    if kept_ds.count() > DOMAIN_DRIVER_LIMIT:
        return _domain_filter_exchanged(sf_dir, kept_ds)
    kept = np.sort(
        kept_ds.to_pandas()["domain"].to_numpy(dtype=object))
    ref = ray.put(kept)

    def filt(df: pd.DataFrame) -> pd.DataFrame:
        from ..stages.broadcast import get_broadcast

        kept_s = get_broadcast(ref)
        dom = _plant_domains(df["doc_id"])
        out = pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "domain": dom,
            "n_chars": df["n_chars"].astype("int64"),
        })
        j = np.clip(np.searchsorted(kept_s, dom.to_numpy(dtype=object)),
                    0, max(len(kept_s) - 1, 0))
        mask = (kept_s[j] == dom.to_numpy(dtype=object)) if len(kept_s) \
            else np.zeros(len(out), dtype=bool)
        return out[mask]

    return _docs(sf_dir, ["doc_id", "n_chars"]).map_batches(
        filt, batch_format="pandas")


def _domain_filter_exchanged(sf_dir: str, kept_ds, num_parts: int = 32):
    """Scale path: co-partition (doc_id, domain, n_chars) rows and kept
    domains by domain hash; exact string semi-join per part."""
    from ..stages import exchange as ex

    docs_schema = pa.schema([("doc_id", pa.int64()), ("domain", pa.string()),
                             ("n_chars", pa.int64())])
    kept_schema = pa.schema([("domain", pa.string())])
    by_domain = lambda b: ex.key_part(b, ["domain"], num_parts)  # noqa: E731
    with (ex.stage("nse_domf_docs_") as docs_stage,
          ex.stage("nse_domf_kept_") as kept_stage):
        def with_domain(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "doc_id": df["doc_id"].astype("int64"),
                "domain": _plant_domains(df["doc_id"]),
                "n_chars": df["n_chars"].astype("int64"),
            })

        ex.write_exchange(
            _docs(sf_dir, ["doc_id", "n_chars"]).map_batches(
                with_domain, batch_format="pandas"),
            docs_stage, by_domain)
        ex.write_exchange(
            kept_ds.map_batches(
                lambda b: pa.table({"domain": pc.cast(b["domain"],
                                                      pa.string())}),
                batch_format="pyarrow"),
            kept_stage, by_domain)

        def semi_join(docs_t: pa.Table, kept_t: pa.Table) -> pa.Table:
            kept_s = np.sort(np.asarray(kept_t["domain"].to_pylist(),
                                        dtype=object))
            dom = np.asarray(docs_t["domain"].to_pylist(), dtype=object)
            if not len(kept_s):
                return docs_schema.empty_table()
            j = np.clip(np.searchsorted(kept_s, dom), 0, len(kept_s) - 1)
            return docs_t.filter(pa.array(kept_s[j] == dom))

        return ex.map_parts([docs_stage, kept_stage], num_parts, semi_join,
                            docs_schema,
                            in_schemas=[docs_schema, kept_schema])


# -- Domain-level boilerplate line removal (CCNet/RefinedWeb-style) ----------

# boilerplate (domain, line) keys collected to the driver / broadcast
# as a sorted int64 array below this; beyond it docs and keys
# co-partition by domain hash through the exchange (no broadcast).
BOILERPLATE_KEYS_BROADCAST_LIMIT = 20_000_000

_BP_SEP = "\x1f"  # never occurs in planted domains; separates domain|line


def _bp_combo_keys(combos: np.ndarray) -> np.ndarray:
    """Stable 64-bit key per ``domain\\x1fline`` string (self-owned
    blake2b via ``_token_hashes`` — never Python's salted hash()),
    viewed as int64 for searchsorted membership. A 64-bit collision
    would mis-classify one line; at any realistic per-domain line
    cardinality the probability is negligible (same argument as
    ``fingerprint64``)."""
    from ..functions.hashing import _token_hashes

    uniq, inv = np.unique(combos, return_inverse=True)
    return _token_hashes(list(uniq)).view(np.int64)[inv]


def _bp_explode(df: pd.DataFrame):
    """(row index, line, domain-per-line) triple for a (domain, text)
    frame — one split pass shared by the count and strip kernels.
    ``text.split('\\n')`` of '' is [''], so every doc emits >= 1 line."""
    splits = df["text"].fillna("").str.split("\n")
    ex_s = splits.explode()
    ridx = ex_s.index.to_numpy()
    lines = ex_s.to_numpy(dtype=object)
    dom = df["domain"].to_numpy(dtype=object)[ridx]
    n_lines = splits.str.len().to_numpy().astype(np.int64)
    return ridx, lines, dom, n_lines


def _bp_count_partials(ds):
    """Per-batch partial (domain, line_key, n) rows: n = distinct
    DOCS of the batch containing the (domain, line) pair — exact
    globally because each doc lives in exactly one batch. Blank
    (whitespace-only) lines are never boilerplate candidates."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        empty = pd.DataFrame({
            "domain": pd.Series([], dtype=object),
            "line_key": pd.Series([], dtype="int64"),
            "n": pd.Series([], dtype="int64")})
        if df.empty:
            return empty
        ridx, lines, dom, _ = _bp_explode(df)
        nb = pd.Series(lines).str.strip().ne("").to_numpy()
        if not nb.any():
            return empty
        combos = np.add(np.add(dom[nb], _BP_SEP), lines[nb])
        pairs = pd.DataFrame({"r": ridx[nb], "c": combos,
                              "d": dom[nb]}).drop_duplicates(["r", "c"])
        vc = pairs.groupby("c", sort=False).agg(
            n=("r", "size"), d=("d", "first")).reset_index()
        keys = _bp_combo_keys(vc["c"].to_numpy(dtype=object))
        return pd.DataFrame({
            "domain": vc["d"].to_numpy(dtype=object),
            "line_key": keys,
            "n": vc["n"].to_numpy().astype(np.int64),
        })

    return ds.map_batches(partial, batch_format="pandas").materialize()


def _bp_domain_partials(ds):
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({
                "domain": pd.Series([], dtype=object),
                "n_docs": pd.Series([], dtype="int64")})
        vc = df["domain"].value_counts()
        return pd.DataFrame({
            "domain": vc.index.to_numpy(dtype=object),
            "n_docs": vc.to_numpy().astype(np.int64)})

    return ds.map_batches(partial, batch_format="pandas").materialize()


def _bp_boilerplate_keys(line_counts, dom_counts, ratio_num: int,
                         ratio_den: int, min_docs: int,
                         num_parts: int = 32):
    """(domain, line_key) rows whose doc count n satisfies
    ``n >= min_docs AND n * ratio_den >= n_docs(domain) * ratio_num``
    — integer-exact on both sides (no float ratio), mirrored verbatim
    in the SQL oracle. Below ``DOMAIN_DRIVER_LIMIT`` domain rows the
    per-domain totals broadcast as sorted arrays; beyond, candidates
    and totals co-partition by domain hash and join per part."""
    import ray

    from ..stages import exchange as ex
    from ..stages.broadcast import get_broadcast

    filtered = line_counts.map_batches(
        lambda b: b.filter(pc.greater_equal(b["n"], min_docs)),
        batch_format="pyarrow").materialize()
    out_schema = pa.schema([("domain", pa.string()),
                            ("line_key", pa.int64())])

    def mark(df: pd.DataFrame, doms: np.ndarray,
             nd: np.ndarray) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"domain": pd.Series([], dtype=object),
                                 "line_key": pd.Series([], dtype="int64")})
        if not len(doms):
            # non-empty candidates with no co-partitioned totals means
            # the two partial streams disagree — fail loudly, never
            # silently emit "no boilerplate"
            raise RuntimeError(
                "boilerplate ratio join: candidate part has no domain "
                "totals — partial streams disagree")
        d = df["domain"].to_numpy(dtype=object)
        j = np.clip(np.searchsorted(doms, d), 0, len(doms) - 1)
        if not (doms[j] == d).all():
            raise RuntimeError(
                "boilerplate ratio join: line-count domain missing from "
                "the domain totals — partial streams disagree")
        keep = (df["n"].to_numpy(np.int64) * ratio_den
                >= nd[j] * np.int64(ratio_num))
        return pd.DataFrame({
            "domain": d[keep],
            "line_key": df["line_key"].to_numpy(np.int64)[keep]})

    if dom_counts.count() <= DOMAIN_DRIVER_LIMIT:
        dp = dom_counts.to_pandas().sort_values("domain", kind="stable")
        doms = dp["domain"].to_numpy(dtype=object)
        nd = dp["n_docs"].to_numpy(np.int64)
        ref = ray.put((doms, nd))

        def mark_b(df: pd.DataFrame) -> pd.DataFrame:
            bd, bn = get_broadcast(ref)
            return mark(df, bd, bn)

        return filtered.map_batches(mark_b, batch_format="pandas")

    cand_schema = pa.schema([("domain", pa.string()),
                             ("line_key", pa.int64()), ("n", pa.int64())])
    dom_schema = pa.schema([("domain", pa.string()), ("n_docs", pa.int64())])
    by_domain = lambda b: ex.key_part(b, ["domain"], num_parts)  # noqa: E731
    with (ex.stage("nse_bp_cand_") as cand_stage,
          ex.stage("nse_bp_dom_") as dom_stage):
        ex.write_exchange(
            filtered.map_batches(lambda b: b.select(cand_schema.names)
                                 .cast(cand_schema),
                                 batch_format="pyarrow"),
            cand_stage, by_domain)
        ex.write_exchange(
            dom_counts.map_batches(lambda b: b.select(dom_schema.names)
                                   .cast(dom_schema),
                                   batch_format="pyarrow"),
            dom_stage, by_domain)

        def join(cand_t: pa.Table, dom_t: pa.Table) -> pa.Table:
            dp = dom_t.to_pandas().sort_values("domain", kind="stable")
            out = mark(cand_t.to_pandas(),
                       dp["domain"].to_numpy(dtype=object),
                       dp["n_docs"].to_numpy(np.int64))
            return pa.Table.from_pandas(out, schema=out_schema,
                                        preserve_index=False)

        return ex.map_parts([cand_stage, dom_stage], num_parts, join,
                            out_schema,
                            in_schemas=[cand_schema, dom_schema])


def _bp_strip_frame(df: pd.DataFrame,
                    bp_keys: np.ndarray) -> pd.DataFrame:
    """Strip boilerplate lines from a (doc_id, domain, text) frame
    given the SORTED int64 boilerplate key array. Blank lines are
    always kept; remaining lines keep their original order."""
    df = df.reset_index(drop=True)
    if df.empty:
        return pd.DataFrame({
            "doc_id": pd.Series([], dtype="int64"),
            "domain": pd.Series([], dtype=object),
            "n_lines": pd.Series([], dtype="int64"),
            "n_removed": pd.Series([], dtype="int64"),
            "clean_text": pd.Series([], dtype=object)})
    ridx, lines, dom, n_lines = _bp_explode(df)
    nb = pd.Series(lines).str.strip().ne("").to_numpy()
    is_bp = np.zeros(len(lines), dtype=bool)
    if nb.any() and len(bp_keys):
        combos = np.add(np.add(dom[nb], _BP_SEP), lines[nb])
        keys = _bp_combo_keys(combos)
        j = np.clip(np.searchsorted(bp_keys, keys), 0, len(bp_keys) - 1)
        is_bp[nb] = bp_keys[j] == keys
    kept = ~is_bp
    kept_s = pd.Series(lines[kept], index=ridx[kept], dtype=object)
    clean = kept_s.groupby(level=0).agg("\n".join)
    clean_full = clean.reindex(range(len(df)), fill_value="").to_numpy(
        dtype=object)
    n_kept = np.bincount(ridx[kept], minlength=len(df)).astype(np.int64)
    return pd.DataFrame({
        "doc_id": df["doc_id"].astype("int64"),
        "domain": df["domain"].astype(object),
        "n_lines": n_lines,
        "n_removed": n_lines - n_kept,
        "clean_text": clean_full})


def strip_boilerplate(ds, ratio_num: int = 1, ratio_den: int = 2,
                      min_docs: int = 3, num_parts: int = 32):
    """Domain-level boilerplate line removal (the CCNet / RefinedWeb /
    OSCAR cleaning step): a non-blank line is boilerplate for a
    registered domain when it appears in >= ``min_docs`` distinct
    documents of that domain AND in >= ``ratio_num/ratio_den`` of
    them; boilerplate lines are removed, everything else keeps its
    order. Input (doc_id int64 unique, domain string, text string);
    output (doc_id, domain, n_lines, n_removed, clean_text).

    Scale shape: two ``grouped_sum_by_key`` combines (per-(domain,
    line-hash) doc counts under ``TERMS_DRIVER_LIMIT``; per-domain doc
    totals under ``DOMAIN_DRIVER_LIMIT``), the integer-exact ratio
    join (broadcast totals / domain-hash co-partition beyond the
    gate), then the strip pass: the boilerplate key set broadcasts as
    ONE sorted int64 array below ``BOILERPLATE_KEYS_BROADCAST_LIMIT``,
    beyond it docs and keys co-partition by domain hash through the
    exchange (a pathological single domain lands in one part — the
    same documented skew assumption as ``docs_domain_cap``). Text
    never shuffles on the broadcast path."""
    import ray

    from ..stages import exchange as ex
    from ..stages.broadcast import get_broadcast

    ds = ds.materialize()
    line_counts = grouped_sum_by_key(
        _bp_count_partials(ds), ["domain", "line_key"], ["n"],
        TERMS_DRIVER_LIMIT)
    dom_counts = grouped_sum_by_key(
        _bp_domain_partials(ds), "domain", ["n_docs"],
        DOMAIN_DRIVER_LIMIT)
    bp = _bp_boilerplate_keys(line_counts, dom_counts, ratio_num,
                              ratio_den, min_docs, num_parts
                              ).materialize()

    if bp.count() <= BOILERPLATE_KEYS_BROADCAST_LIMIT:
        kp = bp.to_pandas()
        keys = (np.sort(kp["line_key"].to_numpy(np.int64))
                if len(kp) else np.array([], dtype=np.int64))
        ref = ray.put(keys)

        def strip_b(df: pd.DataFrame) -> pd.DataFrame:
            return _bp_strip_frame(df, get_broadcast(ref))

        return ds.map_batches(strip_b, batch_format="pandas")

    docs_schema = pa.schema([("doc_id", pa.int64()),
                             ("domain", pa.string()),
                             ("text", pa.string())])
    keys_schema = pa.schema([("domain", pa.string()),
                             ("line_key", pa.int64())])
    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("domain", pa.string()),
        ("n_lines", pa.int64()), ("n_removed", pa.int64()),
        ("clean_text", pa.string())])
    by_domain = lambda b: ex.key_part(b, ["domain"], num_parts)  # noqa: E731
    with (ex.stage("nse_bp_docs_") as docs_stage,
          ex.stage("nse_bp_keys_") as keys_stage):
        ex.write_exchange(
            ds.map_batches(lambda b: b.select(docs_schema.names)
                           .cast(docs_schema), batch_format="pyarrow"),
            docs_stage, by_domain)
        ex.write_exchange(
            bp.map_batches(lambda b: b.select(keys_schema.names)
                           .cast(keys_schema), batch_format="pyarrow"),
            keys_stage, by_domain)

        def strip_part(docs_t: pa.Table, keys_t: pa.Table) -> pa.Table:
            keys = np.sort(keys_t["line_key"].to_numpy(
                zero_copy_only=False).astype(np.int64))
            out = _bp_strip_frame(docs_t.to_pandas(), keys)
            return pa.Table.from_pandas(out, schema=out_schema,
                                        preserve_index=False)

        return ex.map_parts([docs_stage, keys_stage], num_parts,
                            strip_part, out_schema,
                            in_schemas=[docs_schema, keys_schema])


def docs_boilerplate_strip(sf_dir: str):
    """Boilerplate-strip query over the documents table: the corpus
    text is inert (single-line docs, no shared lines), so the wrapper
    plants deterministic per-domain chrome — a nav header and a
    copyright footer on EVERY doc (domain ratio 1 -> stripped on head
    domains, kept on singleton tail domains via min_docs), plus a
    'subscribe' line on doc_id % 4 == 0 (ratio ~0.25 < 1/2 -> kept) —
    and the SQL oracle replants it verbatim."""

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        dom = _plant_domains(df["doc_id"])
        sub = pd.Series(
            np.where(df["doc_id"].to_numpy(np.int64) % 4 == 0,
                     "subscribe to our newsletter\n", ""),
            index=df.index)
        text = ("home | about | contact - " + dom + "\n" + sub
                + df["text"].fillna("") + "\n(c) 2024 " + dom
                + " all rights reserved")
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "domain": dom, "text": text})

    planted = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        plant, batch_format="pandas")
    return strip_boilerplate(planted)


# -- Per-domain percentile filter ---------------------------------------------

# kept (domain, value, pr) rows above which the filter pass stops
# broadcasting and co-partitions docs + kept rows by domain hash
PCTL_KEPT_BROADCAST_LIMIT = 20_000_000

_PCTL_KEPT_SCHEMA = pa.schema([("domain", pa.string()), ("v", pa.int64()),
                               ("pr", pa.float64())])


def _pctl_kept_frame(df: pd.DataFrame, p: float) -> pd.DataFrame:
    """Combine (domain, v, cnt) partial rows (callable pre- or
    post-combine: summing already-exact counts is a no-op) and return
    the kept (domain, v, pr) rows — values whose SQL
    ``percent_rank()`` (min-rank ties, ``(rank-1)/(n-1)``, singleton
    group -> 0) is >= ``p``. Exact only when every row of a domain is
    present (driver path: all rows; exchange path: domains
    co-locate)."""
    if df.empty:
        return pd.DataFrame({"domain": pd.Series([], dtype=object),
                             "v": pd.Series([], dtype="int64"),
                             "pr": pd.Series([], dtype="float64")})
    g = (df.groupby(["domain", "v"], sort=False)["cnt"].sum()
         .reset_index().sort_values(["domain", "v"], kind="stable"))
    cnt = g["cnt"].to_numpy(np.int64)
    n = (g.groupby("domain", sort=False)["cnt"].transform("sum")
         .to_numpy(np.int64))
    csum = g.groupby("domain", sort=False)["cnt"].cumsum().to_numpy(np.int64)
    rank = csum - cnt + 1  # min-rank: 1 + count of strictly smaller
    pr = np.zeros(len(g), dtype=np.float64)
    m = n > 1  # singleton groups: percent_rank() is defined as 0
    pr[m] = (rank[m] - 1) / (n[m] - 1)
    keep = pr >= p
    return pd.DataFrame({"domain": g["domain"].to_numpy(dtype=object)[keep],
                         "v": g["v"].to_numpy(np.int64)[keep],
                         "pr": pr[keep]})


def docs_domain_percentile_filter(sf_dir: str, p: float = 0.5,
                                  num_parts: int = 32):
    """Per-domain percentile quality filter (quality-stratified corpus
    triage): keep documents whose ``n_chars`` sits at or above the
    ``p`` percent-rank WITHIN their registered domain — SQL
    ``percent_rank() OVER (PARTITION BY domain ORDER BY n_chars)``
    semantics exactly (min-rank ties, ``(rank-1)/(n-1)``, singleton
    domains rank 0 and drop for p > 0). Output (doc_id, domain,
    n_chars, pr); the query wrapper rounds pr to 6.

    Scale shape: one pass emits per-batch distinct-value count
    partials (domain, v, cnt) — value-level rows, never the doc
    stream; below ``TERMS_DRIVER_LIMIT`` partial rows the rank math is
    a driver groupby, beyond it partials co-partition by DOMAIN hash
    through the exchange (a domain's values co-locate, so per-part
    ranks are exact) and the kept rows stay distributed. The filter
    pass broadcasts kept rows as ONE sorted int64 composite key array
    (blake2b of ``domain\\x1fv``, the boilerplate-strip convention —
    64-bit collision argument documented there) below
    ``PCTL_KEPT_BROADCAST_LIMIT``; beyond it docs + kept rows
    co-partition by domain hash and every part merges on exact
    (domain, v). Exact ANSI-SQL oracle."""
    import ray

    from ..stages import exchange as ex
    from ..stages.broadcast import get_broadcast

    out_schema = pa.schema([("doc_id", pa.int64()), ("domain", pa.string()),
                            ("n_chars", pa.int64()), ("pr", pa.float64())])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"domain": pd.Series([], dtype=object),
                                 "v": pd.Series([], dtype="int64"),
                                 "cnt": pd.Series([], dtype="int64")})
        g = (pd.DataFrame({"domain": _plant_domains(df["doc_id"]),
                           "v": df["n_chars"].astype("int64")})
             .groupby(["domain", "v"], sort=False).size()
             .reset_index(name="cnt"))
        return g

    docs = _docs(sf_dir, ["doc_id", "n_chars"])
    kept_ds = ex.combine_by_key(
        docs.map_batches(partial, batch_format="pandas"), ["domain"],
        lambda df: _pctl_kept_frame(df, p), _PCTL_KEPT_SCHEMA,
        TERMS_DRIVER_LIMIT, num_parts)

    def doc_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "domain": _plant_domains(df["doc_id"]),
            "n_chars": df["n_chars"].astype("int64")})

    if kept_ds.count() <= PCTL_KEPT_BROADCAST_LIMIT:
        kp = kept_ds.to_pandas()
        combos = np.add(np.add(kp["domain"].to_numpy(dtype=object),
                               _BP_SEP),
                        kp["v"].astype(str).to_numpy(dtype=object))
        keys = (_bp_combo_keys(combos) if len(kp)
                else np.array([], dtype=np.int64))
        order = np.argsort(keys, kind="stable")
        ref = ray.put((keys[order],
                       kp["pr"].to_numpy(np.float64)[order]))

        def filt(df: pd.DataFrame) -> pa.Table:
            bk, bpr = get_broadcast(ref)
            out = doc_rows(df)
            if out.empty or not len(bk):
                return out_schema.empty_table()
            combos = np.add(np.add(out["domain"].to_numpy(dtype=object),
                                   _BP_SEP),
                            out["n_chars"].astype(str)
                            .to_numpy(dtype=object))
            k = _bp_combo_keys(combos)
            j = np.clip(np.searchsorted(bk, k), 0, len(bk) - 1)
            hit = bk[j] == k
            out = out[hit].assign(pr=bpr[j[hit]])
            return pa.Table.from_pandas(out, schema=out_schema,
                                        preserve_index=False)

        return docs.map_batches(filt, batch_format="pandas")

    docs_schema = pa.schema([("doc_id", pa.int64()),
                             ("domain", pa.string()),
                             ("n_chars", pa.int64())])
    by_dom = lambda t: ex.key_part(t, ["domain"], num_parts)  # noqa: E731
    with (ex.stage("nse_pctl_docs_") as d_stage,
          ex.stage("nse_pctl_kept_") as k_stage):
        ex.write_exchange(
            docs.map_batches(doc_rows, batch_format="pandas")
                .map_batches(lambda t: t.select(docs_schema.names)
                             .cast(docs_schema), batch_format="pyarrow"),
            d_stage, by_dom)
        ex.write_exchange(
            kept_ds.map_batches(lambda t: t.select(_PCTL_KEPT_SCHEMA.names)
                                .cast(_PCTL_KEPT_SCHEMA),
                                batch_format="pyarrow"),
            k_stage, by_dom)

        def part(dt: pa.Table, kt: pa.Table) -> pa.Table:
            dd, kk = dt.to_pandas(), kt.to_pandas()
            m = dd.merge(kk, left_on=["domain", "n_chars"],
                         right_on=["domain", "v"], how="inner")
            return pa.Table.from_pandas(
                m[["doc_id", "domain", "n_chars", "pr"]],
                schema=out_schema, preserve_index=False)

        return ex.map_parts([d_stage, k_stage], num_parts, part,
                            out_schema,
                            in_schemas=[docs_schema, _PCTL_KEPT_SCHEMA])


# -- Dataset diff / reconciliation -------------------------------------------

# (key, row-hash) pairs of the B side collected + broadcast below this;
# beyond it both sides co-partition by key hash through the exchange.
DIFF_BROADCAST_LIMIT = 20_000_000


def _diff_sig_partials(ds, key_col: str, val_cols: list[str]):
    """(key, sig) per row: sig = blake2b-64 of the unit-separated
    canonical string of ``val_cols`` (NULL encoded as a sentinel the
    separator keeps unambiguous). Only these 16-byte pairs ever move —
    never the payload columns."""
    from ..functions.hashing import _token_hashes

    def sig(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({
                "key": pd.Series([], dtype="int64"),
                "sig": pd.Series([], dtype="int64")})
        parts = []
        for c in val_cols:
            s = df[c]
            parts.append(np.where(s.isna(), "\x00",
                                  "\x01" + s.astype(str)))
        combo = parts[0]
        for p in parts[1:]:
            combo = np.add(np.add(combo, "\x1f"), p)
        return pd.DataFrame({
            "key": df[key_col].to_numpy().astype(np.int64),
            "sig": _token_hashes(list(combo)).view(np.int64)})

    return ds.map_batches(sig, batch_format="pandas")


def dataset_diff(a, b, key_col: str, val_cols: list[str],
                 num_parts: int = 32):
    """Distributed reconciliation of two keyed datasets — the
    primitive behind validating an incremental run against a
    from-scratch one: emits (key, status) with status ``added`` (key
    only in ``b``), ``removed`` (only in ``a``) or ``changed`` (both
    sides, differing ``val_cols``); unchanged rows emit nothing. Keys
    must be unique int64 per side.

    Scale shape: each side reduces to (key, blake2b-64 sig) pairs —
    payloads never move. Below ``DIFF_BROADCAST_LIMIT`` B-side rows,
    B's pairs broadcast as sorted arrays and A streams once (B-only
    keys need one bounded driver pass over the broadcast table to
    subtract A's matches); beyond it both pair streams co-partition by
    key hash through the exchange and every part diffs locally. A
    64-bit sig collision would mis-report one changed row as
    unchanged (the fingerprint64 argument — negligible)."""
    import ray
    import ray.data as rd

    from ..stages import exchange as ex
    from ..stages.broadcast import get_broadcast

    out_schema = pa.schema([("key", pa.int64()), ("status", pa.string())])
    a_sigs = _diff_sig_partials(a, key_col, val_cols)
    b_sigs = _diff_sig_partials(b, key_col, val_cols).materialize()

    def diff_frames(ap: pd.DataFrame, bp: pd.DataFrame) -> pd.DataFrame:
        bk = bp["key"].to_numpy(np.int64)
        order = np.argsort(bk, kind="stable")
        bk, bs = bk[order], bp["sig"].to_numpy(np.int64)[order]
        ak = ap["key"].to_numpy(np.int64)
        asig = ap["sig"].to_numpy(np.int64)
        j = (np.clip(np.searchsorted(bk, ak), 0, max(len(bk) - 1, 0))
             if len(bk) else np.zeros(len(ak), dtype=np.int64))
        in_b = (bk[j] == ak) if len(bk) else np.zeros(len(ak), bool)
        changed = in_b & (np.take(bs, j, mode="clip") != asig
                          if len(bk) else False)
        removed = ~in_b
        b_hit = np.zeros(len(bk), dtype=bool)
        if len(bk):
            b_hit[j[in_b]] = True
        out_k = np.concatenate([ak[changed], ak[removed], bk[~b_hit]])
        out_s = np.concatenate([
            np.full(int(changed.sum()), "changed", dtype=object),
            np.full(int(removed.sum()), "removed", dtype=object),
            np.full(int((~b_hit).sum()), "added", dtype=object)])
        return pd.DataFrame({"key": out_k.astype(np.int64),
                             "status": out_s})

    if b_sigs.count() <= DIFF_BROADCAST_LIMIT:
        a_sigs = a_sigs.materialize()  # consumed by two streamed passes
        bp = b_sigs.to_pandas().sort_values("key", kind="stable")
        bk_sorted = bp["key"].to_numpy(np.int64)
        ref = ray.put((bk_sorted, bp["sig"].to_numpy(np.int64)))

        def a_side(df: pd.DataFrame) -> pa.Table:
            # returns Arrow with an explicit schema: all-empty batches
            # (identical sides) must still carry (key, status) types
            bk, bs = get_broadcast(ref)
            if df.empty:
                return out_schema.empty_table()
            ak = df["key"].to_numpy(np.int64)
            asig = df["sig"].to_numpy(np.int64)
            j = (np.clip(np.searchsorted(bk, ak), 0, max(len(bk) - 1, 0))
                 if len(bk) else np.zeros(len(ak), dtype=np.int64))
            in_b = (bk[j] == ak) if len(bk) else np.zeros(len(ak), bool)
            changed = in_b & (np.take(bs, j, mode="clip") != asig
                              if len(bk) else False)
            k = np.concatenate([ak[changed], ak[~in_b]])
            s = np.concatenate([
                np.full(int(changed.sum()), "changed", dtype=object),
                np.full(int((~in_b).sum()), "removed", dtype=object)])
            return pa.table({"key": pa.array(k.astype(np.int64), pa.int64()),
                             "status": pa.array(s, pa.string())})

        res = a_sigs.map_batches(a_side, batch_format="pandas")
        # 'added' = B keys never matched by A. A's keys never collect:
        # each batch emits only its HIT b-indices (total hits <= |B|,
        # driver-sized on this path by the gate's definition) through
        # the gated combine; 'added' is the complement.
        def hits(df: pd.DataFrame) -> pd.DataFrame:
            bk, _ = get_broadcast(ref)
            empty = pd.DataFrame({"idx": pd.Series([], dtype="int64"),
                                  "n": pd.Series([], dtype="int64")})
            if df.empty or not len(bk):
                return empty
            ak = df["key"].to_numpy(np.int64)
            j = np.clip(np.searchsorted(bk, ak), 0, len(bk) - 1)
            hit_idx = np.unique(j[bk[j] == ak]).astype(np.int64)
            if not len(hit_idx):
                return empty
            return pd.DataFrame({
                "idx": hit_idx,
                "n": np.ones(len(hit_idx), dtype=np.int64)})

        hit_partials = a_sigs.map_batches(
            hits, batch_format="pandas").materialize()
        hit_df = grouped_sum_by_key(hit_partials, "idx", ["n"],
                                    DIFF_BROADCAST_LIMIT).to_pandas()
        hit_mask = np.zeros(len(bk_sorted), dtype=bool)
        if len(hit_df):
            hit_mask[hit_df["idx"].to_numpy(np.int64)] = True
        added = bk_sorted[~hit_mask]
        if not len(added):
            return res
        added_ds = rd.from_arrow(pa.table({
            "key": pa.array(added, pa.int64()),
            "status": pa.array(np.full(len(added), "added", dtype=object),
                               pa.string())}))
        return res.union(added_ds)

    pair_schema = pa.schema([("key", pa.int64()), ("sig", pa.int64())])
    by_key = lambda t: ex.int_part(  # noqa: E731
        [t["key"].to_numpy(zero_copy_only=False)], num_parts)
    with (ex.stage("nse_diff_a_") as a_stage,
          ex.stage("nse_diff_b_") as b_stage):
        for sds, stage in ((a_sigs, a_stage), (b_sigs, b_stage)):
            ex.write_exchange(
                sds.map_batches(lambda t: t.select(pair_schema.names)
                                .cast(pair_schema),
                                batch_format="pyarrow"),
                stage, by_key)

        def part(at: pa.Table, bt: pa.Table) -> pa.Table:
            out = diff_frames(at.to_pandas(), bt.to_pandas())
            return pa.Table.from_pandas(out, schema=out_schema,
                                        preserve_index=False)

        return ex.map_parts([a_stage, b_stage], num_parts, part,
                            out_schema,
                            in_schemas=[pair_schema, pair_schema])


def docs_diff_planted(sf_dir: str):
    """Reconciliation query: diff the documents table against a
    deterministically perturbed copy — text edited on doc_id % 17 == 0,
    rows dropped on doc_id % 23 == 0, synthetic rows added at
    doc_id + 10_000_000 for doc_id % 29 == 0 (precedence: a dropped
    row is dropped even if divisible by 17). Output (key, status) for
    the non-identical keys only; exact FULL-OUTER-JOIN SQL oracle."""
    import ray.data as rd

    a = _docs(sf_dir, ["doc_id", "text"])

    def perturb(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.int64)
        keep = ids % 23 != 0
        # unedited rows keep their ORIGINAL value (a null stays null,
        # so it diffs as unchanged); edited rows coalesce to '' first,
        # mirroring the SQL CASE/coalesce
        text = pd.Series(np.where(ids % 17 == 0,
                                  df["text"].fillna("") + " [edited v2]",
                                  df["text"].to_numpy(dtype=object)),
                         index=df.index)
        base = pd.DataFrame({"doc_id": ids, "text": text})[keep]
        addm = ids % 29 == 0
        added = pd.DataFrame({
            "doc_id": ids[addm] + 10_000_000,
            "text": np.full(int(addm.sum()), "synthetic added row",
                            dtype=object)})
        return pd.concat([base, added], ignore_index=True)

    b = a.map_batches(perturb, batch_format="pandas")
    return dataset_diff(a, b, "doc_id", ["text"])


def docs_domain_cap(sf_dir: str, cap: int = 3, num_parts: int = 32):
    """Per-domain document CAP (RefinedWeb-style domain quota): keep at
    most ``cap`` documents per registered domain, chosen by the house
    sampling hash then doc_id — a deterministic, input-order-free
    total order within each domain, so the kept set is stable across
    runs and cluster shapes. Output (doc_id, domain).

    Scale shape: rank-within-domain needs every id of a domain in one
    place, so this is inherently a co-partition op — there is no
    bounded driver/broadcast variant to gate (unlike the stats/filter
    pair above, whose exchanged rows are domain-bounded). Only
    (doc_id) int64 rows travel: the domain string and the hash are
    both pure functions of doc_id and recompute per part, keeping the
    exchange ~8 bytes/row at any corpus size. Per-part kernel is one
    factorize + lexsort + offset cumcount — no per-domain Python
    loop."""
    from ..stages import exchange as ex

    out_schema = pa.schema([("doc_id", pa.int64()), ("domain", pa.string())])

    def check_ids(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) and not ((ids >= 0).all() and ids.max() < (1 << 31)):
            raise ValueError("docs_domain_cap requires 0 <= doc_id < 2^31")
        return pa.table({"doc_id": pa.array(ids, pa.int64())})

    def by_domain(b: pa.Table) -> np.ndarray:
        dom = _plant_domains(
            pd.Series(b["doc_id"].to_numpy(zero_copy_only=False)))
        return ex.int_part([pd.util.hash_array(dom.to_numpy(dtype=object))],
                           num_parts)

    with ex.stage("nse_domcap_") as stage:
        ex.write_exchange(
            _docs(sf_dir, ["doc_id"]).map_batches(
                check_ids, batch_format="pyarrow"),
            stage, by_domain)

        def keep_part(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            dom = _plant_domains(pd.Series(ids)).to_numpy(dtype=object)
            h = (ids * 2654435761) % (1 << 31) % (1 << 20)
            codes, _ = pd.factorize(dom, sort=False)
            order = np.lexsort((ids, h, codes))
            sorted_codes = codes[order]
            starts = np.flatnonzero(
                np.r_[True, sorted_codes[1:] != sorted_codes[:-1]])
            sizes = np.diff(np.r_[starts, len(order)])
            cum = np.arange(len(order)) - np.repeat(starts, sizes)
            keep = order[cum < cap]
            return pa.table({
                "doc_id": pa.array(ids[keep], pa.int64()),
                "domain": pa.array(dom[keep], pa.string()),
            })

        return ex.map_parts(stage, num_parts, keep_part,
                            out_schema)


# -- Stratified deterministic sampling (per-group quotas) -------------------


def docs_sample_stratified(sf_dir: str, pct_en: int = 50, pct_other: int = 20):
    """Per-language sampling quota with the same coordination-free
    doc_id hash as ``docs_sample_hash``: keep an English doc iff
    ``h % 100 < pct_en``, any other language iff ``h % 100 <
    pct_other`` — the training-data-mix primitive for rebalancing a
    multilingual corpus, deterministic across reruns/partitioning and
    exactly SQL-re-expressible."""

    def f(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) and not ((ids >= 0).all() and ids.max() < (1 << 31)):
            raise ValueError("stratified sample requires 0 <= doc_id < 2^31")
        h = (ids * 2654435761) % (1 << 31) % 100
        is_en = pc.equal(batch["lang"], "en").to_numpy(zero_copy_only=False)
        keep = np.where(is_en, h < pct_en, h < pct_other)
        return batch.filter(pa.array(keep))

    return _docs(sf_dir, ["doc_id", "lang", "n_chars"]).map_batches(
        f, batch_format="pyarrow")


# -- Temperature resampling (corpus-statistic-driven language mix) ----------


def docs_lang_temperature_sample(sf_dir: str, rate_pct: int = 40):
    """Multilingual temperature rebalancing at alpha = 0.5 (the public
    mC4/XLM-R sampling construction: draw languages proportionally to
    ``n_lang^alpha``, upweighting low-resource languages). Unlike
    ``docs_sample_stratified`` (static quotas), the per-language keep
    quota here is COMPUTED FROM CORPUS STATISTICS — the reference's
    DependentPipeline shape (base.py:536-669: corpus-global transform)
    as a two-pass aggregate + broadcast-back.

    Integer-exact semantics (so the ANSI-SQL oracle matches bit-for-bit
    with no float-pow divergence):

        n_l  = docs in language l            N = total docs
        w_l  = isqrt(n_l)                    (== floor(sqrt(n_l)) in
                                             IEEE double for n_l < 2^52,
                                             guarded with ValueError)
        T    = (N * rate_pct) // 100         (target sample size)
        t_l  = min(n_l, (T * w_l) // sum(w)) (per-language quota)
        keep iff h20(doc_id) <= thr_l, thr_l = (2^20 * t_l - 1) // n_l
                                             (-1 when t_l == 0)

    where ``h20 = ((doc_id * 2654435761) % 2^31) % 2^20`` is the house
    coordination-free sampling hash (``docs_sample_hash``). The
    threshold form keeps the per-row comparison pure int64 (a direct
    ``h * n_l < 2^20 * t_l`` product overflows once n_l >= 2^43).

    Scale shape: pass 1 emits per-batch (lang, n) partials — rows
    bounded by language-cardinality x batches, never the corpus; the
    driver combine and the broadcast (three arrays keyed by a sorted
    lang array, searchsorted lookup per the CLAUDE.md no-dict rule) are
    bounded by language cardinality (~hundreds); pass 2 is a stateless
    streaming filter. No shuffle anywhere."""
    import math

    import ray

    def counts(batch: pa.Table) -> pa.Table:
        arr = batch["lang"]
        if arr.null_count:
            raise ValueError(
                "docs_lang_temperature_sample requires non-null lang")
        c = pd.Series(arr.to_pylist()).value_counts()
        return pa.table({"lang": pa.array(c.index.to_numpy(dtype=object),
                                          pa.string()),
                         "n": pa.array(c.to_numpy().astype(np.int64))})

    docs = _docs(sf_dir, ["doc_id", "lang", "n_chars"])
    pdf = docs.map_batches(counts, batch_format="pyarrow").to_pandas()
    if pdf.empty:
        return docs
    agg = pdf.groupby("lang", sort=True)["n"].sum()
    n_by_lang = agg.to_numpy().astype(np.int64)
    if n_by_lang.max() >= (1 << 52):
        raise ValueError("per-language count >= 2^52: floor(sqrt(double)) "
                         "no longer equals isqrt, oracle parity breaks")
    total = int(n_by_lang.sum())
    sw = int(sum(math.isqrt(int(n)) for n in n_by_lang))
    target = (total * rate_pct) // 100
    thr = np.empty(len(n_by_lang), dtype=np.int64)
    for i, n in enumerate(n_by_lang):
        t_l = min(int(n), (target * math.isqrt(int(n))) // sw)
        thr[i] = -1 if t_l == 0 else ((1 << 20) * t_l - 1) // int(n)
    langs_sorted = agg.index.to_numpy(dtype="U32")
    ref = ray.put((langs_sorted, thr))

    def keep(batch: pa.Table) -> pa.Table:
        from ..stages.broadcast import get_broadcast

        bl, bthr = get_broadcast(ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) and not ((ids >= 0).all() and ids.max() < (1 << 31)):
            raise ValueError("requires 0 <= doc_id < 2^31")
        h = (ids * 2654435761) % (1 << 31) % (1 << 20)
        # every batch lang is present in the pass-1 map by
        # construction — verify exact membership so a nondeterministic
        # upstream batch fails loudly instead of sampling with a
        # neighbor language's threshold (ADVICE r04 #3)
        langs = np.asarray(batch["lang"].to_pylist(), dtype="U32")
        idx = np.minimum(np.searchsorted(bl, langs), max(len(bl) - 1, 0))
        if len(langs) and (len(bl) == 0 or not (bl[idx] == langs).all()):
            raise ValueError(
                "temperature sample: lang absent from the pass-1 count "
                "map — upstream batch fn changed between passes")
        return batch.filter(pa.array(h <= bthr[idx]))

    return docs.map_batches(keep, batch_format="pyarrow")


# -- Token-budget shard packing (distributed ordered prefix sum) ------------


def pack_shards(ds, key_col: str, weight_col: str, budget: int,
                num_parts: int = 32):
    """Concatenate-and-chunk packing: rows ordered by ``key_col`` are
    conceptually concatenated and split into shards of ``budget``
    weight; each row's shard is the chunk containing its START offset —
    ``shard = (exclusive running sum of weight in key order) //
    budget`` (how LM training packs documents into fixed-token blocks;
    exactly a SQL window ``SUM() OVER (ORDER BY key)``).

    Distributed as the classic two-phase scan — nothing corpus-sized
    ever touches the driver:
    1. range-partition rows by ``key_col`` through the filesystem
       exchange (equal-width ranges over the observed [min, max]; a
       skewed key space makes uneven parts, never wrong results);
    2. per-part totals (ONE row per part) are driver-collected, the
       exclusive prefix of the range-ordered totals is broadcast as a
       (part_min_key -> offset) sorted array;
    3. a second pass over the same exchange parts sorts locally,
       adds the part offset to the local exclusive cumsum, and emits
       ``shard``.

    Requires unique keys (ORDER BY would otherwise be ambiguous) and
    int64-representable cumulative weight."""
    import ray
    import ray.data as rd

    from ..stages import exchange as ex
    from ..stages.broadcast import get_broadcast

    out_schema = pa.schema([
        (key_col, pa.int64()), (weight_col, pa.int64()),
        ("shard", pa.int64()),
    ])
    gmin = ds.min(key_col)
    if gmin is None:
        return rd.from_arrow(out_schema.empty_table())
    gmax = ds.max(key_col)
    # single-division range partitioner: no int64 overflow for any key
    # span (contrast (key-gmin)*P which overflows past 2^63/P)
    chunk = max(1, -((gmin - gmax - 1) // num_parts))

    def by_range(b: pa.Table) -> np.ndarray:
        ids = b[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return (ids - gmin) // chunk

    tot_schema = pa.schema([("min_key", pa.int64()), ("total", pa.int64())])
    with ex.stage("nse_pack_") as stage:
        ex.write_exchange(
            ds.map_batches(
                lambda b: pa.table({
                    key_col: pc.cast(b[key_col], pa.int64()),
                    weight_col: pc.cast(b[weight_col], pa.int64()),
                }),
                batch_format="pyarrow"),
            stage, by_range)

        def part_total(t: pa.Table) -> pa.Table:
            k = t[key_col].to_numpy(zero_copy_only=False)
            w = t[weight_col].to_numpy(zero_copy_only=False)
            return pa.table({
                "min_key": pa.array([int(k.min())], pa.int64()),
                "total": pa.array([int(w.sum())], pa.int64()),
            })

        totals = ex.map_parts(stage, num_parts, part_total,
                              tot_schema).to_pandas()
        totals = totals.sort_values("min_key", kind="stable")
        mins = totals["min_key"].to_numpy(np.int64)
        offs = np.concatenate([
            [0], np.cumsum(totals["total"].to_numpy(np.int64))[:-1]])
        ref = ray.put((mins, offs))

        def assign(t: pa.Table) -> pa.Table:
            m, o = get_broadcast(ref)
            k = t[key_col].to_numpy(zero_copy_only=False)
            w = t[weight_col].to_numpy(zero_copy_only=False)
            order = np.argsort(k, kind="stable")
            k, w = k[order], w[order]
            excl = np.concatenate([[0], np.cumsum(w)[:-1]])
            excl += o[np.searchsorted(m, k[0])]
            return pa.table({
                key_col: pa.array(k, pa.int64()),
                weight_col: pa.array(w, pa.int64()),
                "shard": pa.array(excl // budget, pa.int64()),
            })

        return ex.map_parts(stage, num_parts, assign, out_schema)


def docs_pack_shards(sf_dir: str, budget: int = 20000):
    """Pack the documents table into ~``budget``-char training shards
    in doc_id order (see ``pack_shards``)."""
    return pack_shards(_docs(sf_dir, ["doc_id", "n_chars"]),
                       "doc_id", "n_chars", budget)


_PSEQ_TOK_RE = re.compile(r"\S+")


def pack_sequences(ds, key_col: str = "doc_id", text_col: str = "text",
                   seq_len: int = 32, eos: str = "<eos>",
                   num_parts: int = 32):
    """GPT-style concat-and-chunk sequence packing: each row's ``\\S+``
    tokens plus one ``eos`` marker are conceptually concatenated in
    ``key_col`` order and re-emitted as fixed-``seq_len`` training
    rows ``(seq_id, n_tokens, seq_text)`` — sequences freely cross
    document boundaries (only the final one may be short). This is the
    tokenize->concat->chunk step of LM training-data prep; unlike
    ``pack_shards`` (which assigns whole rows to shards) the output
    rows are the packed token windows themselves.

    Distributed with nothing corpus-sized on the driver:
    1. range-partition ``(key, text)`` by ``key_col`` through the
       filesystem exchange (keys unique => per-part local order is a
       contiguous slice of the global order);
    2. per-part token TOTALS (one row per part) driver-collect; the
       exclusive prefix over range-ordered parts broadcasts as sorted
       ``(part_min_key -> token_offset)`` arrays;
    3. each part re-tokenizes locally, places every doc at its global
       token offset and emits per-(seq_id, pos) FRAGMENT rows — a doc
       spans at most ``ceil(n/seq_len)+1`` sequences, and a fragment
       carries at most ``seq_len`` tokens;
    4. fragments hash-partition on seq_id through a second exchange;
       each part stitches its sequences by (seq_id, pos). Boundary
       sequences receive fragments from adjacent ranges — the
       co-partition makes the stitch local.

    Per-part memory is O(part tokens); the combine is a pandas groupby
    over ~(part tokens / seq_len) groups each joining <= seq_len
    strings. Requires unique int64 keys (order would otherwise be
    ambiguous)."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Max, Min

    from ..stages import exchange as ex
    from ..stages.broadcast import get_broadcast

    out_schema = pa.schema([
        ("seq_id", pa.int64()), ("n_tokens", pa.int64()),
        ("seq_text", pa.string()),
    ])
    mm = ds.aggregate(Min(key_col), Max(key_col))
    gmin, gmax = mm[f"min({key_col})"], mm[f"max({key_col})"]
    if gmin is None:
        return rd.from_arrow(out_schema.empty_table())
    chunk = max(1, -((gmin - gmax - 1) // num_parts))

    def by_range(b: pa.Table) -> np.ndarray:
        ids = b[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return (ids - gmin) // chunk

    tot_schema = pa.schema([("min_key", pa.int64()), ("total", pa.int64())])
    frag_schema = pa.schema([
        ("seq_id", pa.int64()), ("pos", pa.int64()), ("n", pa.int64()),
        ("frag", pa.string()),
    ])
    with (ex.stage("nse_pseq_") as stage,
          ex.stage("nse_pseq2_") as stage2):
        ex.write_exchange(
            ds.map_batches(
                lambda b: pa.table({
                    key_col: pc.cast(b[key_col], pa.int64()),
                    text_col: pc.cast(b[text_col], pa.string()),
                }),
                batch_format="pyarrow"),
            stage, by_range)

        def part_total(t: pa.Table) -> pa.Table:
            k = t[key_col].to_numpy(zero_copy_only=False)
            # token count per doc = \S+ matches + 1 (the EOS marker);
            # str.count('\S+') == len(findall('\S+')) exactly
            n = (t[text_col].to_pandas().fillna("")
                 .str.count(r"\S+").to_numpy(dtype=np.int64) + 1)
            return pa.table({
                "min_key": pa.array([int(k.min())], pa.int64()),
                "total": pa.array([int(n.sum())], pa.int64()),
            })

        totals = ex.map_parts(stage, num_parts, part_total,
                              tot_schema).to_pandas()
        totals = totals.sort_values("min_key", kind="stable")
        mins = totals["min_key"].to_numpy(np.int64)
        offs = np.concatenate([
            [0], np.cumsum(totals["total"].to_numpy(np.int64))[:-1]])
        ref = ray.put((mins, offs))

        def frags_of_part(t: pa.Table) -> pa.Table:
            m, o = get_broadcast(ref)
            k = t[key_col].to_numpy(zero_copy_only=False)
            txt = t[text_col].to_pylist()
            order = np.argsort(k, kind="stable")
            off = int(o[np.searchsorted(m, int(k[order[0]]))])
            seq_l, pos_l, n_l, frag_l = [], [], [], []
            for i in order:
                toks = _PSEQ_TOK_RE.findall(txt[i] or "")
                toks.append(eos)
                n = len(toks)
                for s in range(off // seq_len, (off + n - 1) // seq_len + 1):
                    lo = max(off, s * seq_len)
                    hi = min(off + n, (s + 1) * seq_len)
                    seq_l.append(s)
                    pos_l.append(lo)
                    n_l.append(hi - lo)
                    frag_l.append(" ".join(toks[lo - off:hi - off]))
                off += n
            return pa.table({
                "seq_id": pa.array(seq_l, pa.int64()),
                "pos": pa.array(pos_l, pa.int64()),
                "n": pa.array(n_l, pa.int64()),
                "frag": pa.array(frag_l, pa.string()),
            })

        ex.write_exchange(
            ex.map_parts(stage, num_parts, frags_of_part, frag_schema),
            stage2,
            lambda b: ex.int_part(
                [b["seq_id"].to_numpy(zero_copy_only=False)], num_parts))

        def stitch(t: pa.Table) -> pa.Table:
            dfp = t.to_pandas().sort_values(
                ["seq_id", "pos"], kind="stable")
            g = dfp.groupby("seq_id", sort=True)
            out = pd.DataFrame({
                "n_tokens": g["n"].sum(),
                "seq_text": g["frag"].agg(" ".join),
            }).reset_index()
            return pa.Table.from_pandas(
                out[["seq_id", "n_tokens", "seq_text"]],
                schema=out_schema, preserve_index=False)

        return ex.map_parts(stage2, num_parts, stitch,
                            out_schema)


def docs_pack_sequences(sf_dir: str, seq_len: int = 32):
    """Pack the documents table into fixed-``seq_len`` token training
    sequences in doc_id order (see ``pack_sequences``)."""
    return pack_sequences(_docs(sf_dir, ["doc_id", "text"]),
                          "doc_id", "text", seq_len=seq_len)


# -- Distributed global sort / rank ------------------------------------------


def global_rank(ds, key_col: str, tie_col: str, descending: bool = False,
                num_parts: int = 32):
    """Total-order global rank (``ROW_NUMBER() OVER (ORDER BY key
    [DESC], tie)``) without Ray Data's ``sort`` all-to-all (measured
    scale-killer, BASELINE.md): the classic distributed sort —
    1. range-partition rows on ``key_col`` through the filesystem
       exchange (equal-width ranges; rows sharing a key value always
       co-locate, so boundary ties are safe — skew makes uneven parts,
       never wrong ranks);
    2. per-part row counts (ONE row per part) driver-collect; the
       exclusive prefix over range-ordered parts broadcasts as a
       sorted (part_min_key -> offset) array pair;
    3. each part sorts locally by (key, tie) and emits ``offset +
       local_index + 1``.
    Requires int64 keys with ``|key| < 2^62`` (the descending negation
    must not overflow) and a unique ``tie_col`` for a deterministic
    total order. Output: (tie_col, key_col, rnk)."""
    import ray
    import ray.data as rd

    from ..stages import exchange as ex
    from ..stages.broadcast import get_broadcast

    out_schema = pa.schema([
        (tie_col, pa.int64()), (key_col, pa.int64()), ("rnk", pa.int64()),
    ])
    sign = -1 if descending else 1

    def to_kt(b: pa.Table) -> pa.Table:
        k = b[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        # explicit bounds, not np.abs: np.abs(int64 min) wraps to int64
        # min and would slip past an abs-based guard (ADVICE r04 #2)
        if len(k) and (int(k.min()) <= -(1 << 62) or int(k.max()) >= (1 << 62)):
            raise ValueError("global_rank requires |key| < 2^62")
        return pa.table({
            "k": pa.array(sign * k, pa.int64()),
            tie_col: pc.cast(b[tie_col], pa.int64()),
        })

    from ray.data.aggregate import Max, Min

    kt = ds.map_batches(to_kt, batch_format="pyarrow")
    mm = kt.aggregate(Min("k"), Max("k"))  # one stats pass, not two
    gmin, gmax = mm["min(k)"], mm["max(k)"]
    if gmin is None:
        return rd.from_arrow(out_schema.empty_table())
    chunk = max(1, -((gmin - gmax - 1) // num_parts))

    def by_range(b: pa.Table) -> np.ndarray:
        k = b["k"].to_numpy(zero_copy_only=False)
        return (k - gmin) // chunk

    cnt_schema = pa.schema([("min_k", pa.int64()), ("n", pa.int64())])
    with ex.stage("nse_rank_") as stage:
        ex.write_exchange(kt, stage, by_range)

        def part_count(t: pa.Table) -> pa.Table:
            return pa.table({
                "min_k": pa.array(
                    [int(t["k"].to_numpy(zero_copy_only=False).min())],
                    pa.int64()),
                "n": pa.array([t.num_rows], pa.int64()),
            })

        counts = ex.map_parts(stage, num_parts, part_count,
                              cnt_schema).to_pandas()
        counts = counts.sort_values("min_k", kind="stable")
        mins = counts["min_k"].to_numpy(np.int64)
        offs = np.concatenate([
            [0], np.cumsum(counts["n"].to_numpy(np.int64))[:-1]])
        ref = ray.put((mins, offs))

        def rank_part(t: pa.Table) -> pa.Table:
            m, o = get_broadcast(ref)
            k = t["k"].to_numpy(zero_copy_only=False)
            tie = t[tie_col].to_numpy(zero_copy_only=False)
            order = np.lexsort((tie, k))
            base = o[np.searchsorted(m, k.min())]
            return pa.table({
                tie_col: pa.array(tie[order], pa.int64()),
                key_col: pa.array(sign * k[order], pa.int64()),
                "rnk": pa.array(base + 1 + np.arange(len(k), dtype=np.int64),
                                pa.int64()),
            })

        return ex.map_parts(stage, num_parts, rank_part,
                            out_schema)


def docs_rank_by_length(sf_dir: str):
    """Every document with its global rank by length (longest first,
    doc_id tie-break) — the distributed ORDER BY primitive with an
    observable output (a rank column makes the total order testable
    where the driver's order-insensitive compare would hide it)."""
    return global_rank(_docs(sf_dir, ["doc_id", "n_chars"]),
                       "n_chars", "doc_id", descending=True)


# -- M6: string normalization over a table column ---------------------------


def normalize_part_names(sf_dir: str):
    """capwords normalization of part names (normalize.py:8-28
    semantics) — vectorized pandas str kernel."""
    import ray.data as rd

    def norm(df: pd.DataFrame) -> pd.DataFrame:
        import string as _string

        out = pd.DataFrame()
        out["p_partkey"] = df["p_partkey"]
        cleaned = df["p_name"].map(
            lambda s: _string.capwords(s.strip()).replace("’", "'") if s is not None else None
        )
        out["p_name_normalized"] = cleaned.map(
            lambda s: None if s in ("", "None", "Nan", "N/a", "Null") else s
        )
        return out

    return rd.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]).map_batches(
        norm, batch_format="pandas"
    )


# -- Engine sanity: grouped aggregate + windowed stream ---------------------


# above this many partial (group-key, sums) rows the pricing/window
# combines leave the driver for the shared grouped_sum_by_key exchange
# (tests patch to 0). Group cardinality is structurally tiny here
# (returnflag x linestatus = 6; event_type x hour), but the repo rule
# is that NO driver collect goes ungated — a pathological key domain
# (e.g. per-second windows over years) must not OOM the driver.
AGG_PARTIALS_DRIVER_LIMIT = 5_000_000


def lineitem_agg(sf_dir: str):
    """TPC-H Q1-style pricing summary: vectorized derived column +
    per-batch partial aggregate, then the shared ``grouped_sum_by_key``
    combine (driver groupby below ``AGG_PARTIALS_DRIVER_LIMIT`` partial
    rows, key-hash partition exchange beyond). The fact stream itself
    never shuffles — only one partial row per (flag, status) per batch
    moves."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(revenue=df["l_extendedprice"] * (1.0 - df["l_discount"]))
        g = df.groupby(["l_returnflag", "l_linestatus"], sort=False).agg(
            sum_qty=("l_quantity", "sum"),
            sum_revenue=("revenue", "sum"),
            sum_disc=("l_discount", "sum"),
            n_rows=("l_quantity", "size"),
        ).reset_index()
        g["n_rows"] = g["n_rows"].astype("int64")
        return g

    partials = ds.map_batches(partial, batch_format="pandas").materialize()
    summed = grouped_sum_by_key(
        partials, ["l_returnflag", "l_linestatus"],
        ["sum_qty", "sum_revenue", "sum_disc", "n_rows"],
        AGG_PARTIALS_DRIVER_LIMIT)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["avg_disc"] = df["sum_disc"] / df["n_rows"]
        return df[["l_returnflag", "l_linestatus", "sum_qty",
                   "sum_revenue", "avg_disc", "n_rows"]]

    return summed.map_batches(finish, batch_format="pandas")


def lineitem_rollup(sf_dir: str):
    """``GROUP BY ROLLUP(l_returnflag, l_linestatus)`` — the OLAP
    subtotal lattice (finest level + per-flag subtotals + grand
    total), the multi-level aggregate a corpus report computes in one
    pass. The fact stream is touched ONCE: per-batch partials feed the
    shared gated ``grouped_sum_by_key`` combine for the finest level;
    each coarser level then re-aggregates the PREVIOUS level's
    combined rows (group-cardinality-sized, stays distributed through
    the same gated combine — rollup levels are sum-additive, so
    re-aggregation is exact for sums/counts). NULL marks a rolled-up
    column, SQL ROLLUP semantics; the data columns are non-NULL here,
    so no GROUPING() disambiguation is needed. CUBE is this same
    construction over all grouping subsets."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )

    out_schema = pa.schema([
        ("l_returnflag", pa.string()), ("l_linestatus", pa.string()),
        ("sum_qty", pa.float64()), ("sum_revenue", pa.float64()),
        ("n_rows", pa.int64()),
    ])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            revenue=df["l_extendedprice"] * (1.0 - df["l_discount"]))
        g = df.groupby(["l_returnflag", "l_linestatus"], sort=False).agg(
            sum_qty=("l_quantity", "sum"),
            sum_revenue=("revenue", "sum"),
            n_rows=("l_quantity", "size"),
        ).reset_index()
        g["n_rows"] = g["n_rows"].astype("int64")
        return g

    sums = ["sum_qty", "sum_revenue", "n_rows"]
    level2 = grouped_sum_by_key(
        ds.map_batches(partial, batch_format="pandas").materialize(),
        ["l_returnflag", "l_linestatus"], sums, AGG_PARTIALS_DRIVER_LIMIT)

    level1 = grouped_sum_by_key(
        level2.map_batches(
            lambda df: _lattice_partial(df, ["l_returnflag"], sums),
            batch_format="pandas").materialize(),
        "l_returnflag", sums, AGG_PARTIALS_DRIVER_LIMIT)
    # the grand total has no group key: a constant-key gated combine
    # (one partial row per batch of level-1 rows)
    level0 = grouped_sum_by_key(
        level1.map_batches(
            lambda df: _lattice_partial(df, [], sums)
            .assign(all=np.int64(0)),
            batch_format="pandas").materialize(),
        "all", sums, AGG_PARTIALS_DRIVER_LIMIT)

    finish = _lattice_finish(out_schema)
    return (level2.map_batches(finish, batch_format="pandas")
            .union(level1.map_batches(finish, batch_format="pandas"))
            .union(level0.map_batches(finish, batch_format="pandas")))


def _lattice_partial(df: pd.DataFrame, keys: list[str],
                     sums: list[str]) -> pd.DataFrame:
    """Re-aggregate an already-combined lattice level into a coarser
    grouping subset. Input rows are a previous level's COMBINED output
    — one row per group key."""
    if keys:
        g = df.groupby(keys, sort=False)[sums].sum().reset_index()
    else:
        g = pd.DataFrame({c: [df[c].sum()] for c in sums})
        g["n_rows"] = g["n_rows"].astype("int64")
    return g


def _lattice_finish(out_schema: pa.Schema):
    def finish(df: pd.DataFrame) -> pa.Table:
        # absent key columns are this level's rolled-up ones -> NULL
        arrs = [pa.array(df[name], typ) if name in df.columns
                else pa.nulls(len(df), typ)
                for name, typ in zip(out_schema.names, out_schema.types)]
        return pa.Table.from_arrays(arrs, schema=out_schema)

    return finish


def lineitem_cube(sf_dir: str):
    """``GROUP BY CUBE(l_returnflag, l_linestatus)`` — the full
    grouping-subset lattice (ROLLUP plus the per-status level). Shares
    the ROLLUP construction: the fact stream feeds the finest level
    ONCE through ``lineitem_rollup``'s level-2 combine; every coarser
    subset re-aggregates combined rows (sum-additive, exact). The
    per-status level comes from level 2 and the grand total from the
    per-flag level — each through the same gated combine."""
    rollup = lineitem_rollup(sf_dir)
    # rollup emits levels (flag,status), (flag), (); the missing
    # (status) subset re-aggregates rollup's own finest combined rows
    # (both key columns non-NULL)
    out_schema = pa.schema([
        ("l_returnflag", pa.string()), ("l_linestatus", pa.string()),
        ("sum_qty", pa.float64()), ("sum_revenue", pa.float64()),
        ("n_rows", pa.int64()),
    ])
    sums = ["sum_qty", "sum_revenue", "n_rows"]
    finest = rollup.map_batches(
        lambda b: b.filter(pc.and_(pc.is_valid(b["l_returnflag"]),
                                   pc.is_valid(b["l_linestatus"]))),
        batch_format="pyarrow")
    status_level = grouped_sum_by_key(
        finest.map_batches(
            lambda df: _lattice_partial(df, ["l_linestatus"], sums),
            batch_format="pandas").materialize(),
        "l_linestatus", sums, AGG_PARTIALS_DRIVER_LIMIT)
    return rollup.union(status_level.map_batches(
        _lattice_finish(out_schema), batch_format="pandas"))


def events_hourly(sf_dir: str):
    """Tumbling 1-hour window per event_type: count + value sum.
    Event-time windows via truncation + per-batch partial aggregate,
    then the shared ``grouped_sum_by_key`` combine (driver below
    ``AGG_PARTIALS_DRIVER_LIMIT`` partial rows, (type, hour)-hash
    partition exchange beyond — tumbling windows need no ordering
    assumption, so the window key partitions like any other key)."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["ts", "event_type", "value"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "event_type": batch["event_type"],
            "hour": pc.floor_temporal(batch["ts"], unit="hour"),
            "value": batch["value"],
        }).to_pandas()
        g = t.groupby(["event_type", "hour"], sort=False)["value"].agg(
            ["count", "sum"]).reset_index()
        g.columns = ["event_type", "hour", "n_events", "sum_value"]
        g["n_events"] = g["n_events"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow").materialize()
    return grouped_sum_by_key(
        partials, ["event_type", "hour"], ["n_events", "sum_value"],
        AGG_PARTIALS_DRIVER_LIMIT)


def events_hourly_top(sf_dir: str, num_parts: int = 32):
    """Windowed top-1: the busiest event type per tumbling hour
    (count desc, type asc tie-break) — the windowed-argmax composition
    over ``events_hourly``'s combined counts. The combined (type,
    hour) table is group-cardinality-sized but hours grow with the
    time range, so the argmax has both paths: a driver groupby below
    ``AGG_PARTIALS_DRIVER_LIMIT`` combined rows, an hour-hash
    partition exchange beyond it (hours co-locate, so per-part argmax
    is exact). Output (hour, event_type, n_events)."""
    from ..stages import exchange as ex

    out_schema = pa.schema([
        ("hour", pa.timestamp("us")), ("event_type", pa.string()),
        ("n_events", pa.int64())])

    def argmax(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["n_events", "event_type"],
                            ascending=[False, True], kind="stable")
        return df.groupby("hour", sort=False).head(1)

    return ex.combine_by_key(
        events_hourly(sf_dir).select_columns(out_schema.names), ["hour"],
        argmax, out_schema, AGG_PARTIALS_DRIVER_LIMIT, num_parts)


# distinct (user, day) pair rows; beyond this the retention kernel
# leaves the driver for a user-hash partition exchange (tests patch to
# 0 and assert path equality)
USER_DAYS_DRIVER_LIMIT = 5_000_000


def events_user_retention(sf_dir: str, num_parts: int = 32,
                          driver_limit: int | None = None):
    """Day-over-day retention: for every active day, the count of
    distinct active users and how many of them return the NEXT day —
    the cohort-retention primitive behind DAU/stickiness reports.
    Phase 1 streams per-batch DISTINCT (user_id, day) pairs (repeats
    across batches are fine: the consumer re-dedups). The retention kernel runs through
    ``combine_by_key`` on the user: on the driver below
    ``USER_DAYS_DRIVER_LIMIT`` pairs, per USER-hash part beyond it
    (each user's full day set lands in one part, so the per-part
    next-day flags are exact); the bounded per-day partial counts then
    sum through ``grouped_sum_by_key``. The kernel is one vectorized
    pass: sort (user, day), a shifted same-user/day-diff==1-day
    comparison — no per-user Python loop. Output (day, n_active,
    n_retained_next)."""
    import ray.data as rd

    from ..stages import exchange as ex

    if driver_limit is None:
        driver_limit = USER_DAYS_DRIVER_LIMIT

    def pairs(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "user_id": batch["user_id"],
            "day": pc.floor_temporal(batch["ts"], unit="day"),
        }).to_pandas().drop_duplicates()
        return pa.Table.from_pandas(t, preserve_index=False)

    def retention(t: pd.DataFrame) -> pd.DataFrame:
        """Distinct (user_id, day) pairs -> per-day (n_active,
        n_retained_next) counts over these users, fully
        vectorized."""
        t = (t.drop_duplicates()
             .sort_values(["user_id", "day"], kind="stable")
             .reset_index(drop=True))
        u = t["user_id"].to_numpy()
        d = t["day"].to_numpy().astype("datetime64[us]")
        nxt = np.zeros(len(t), dtype=bool)
        if len(t) > 1:
            nxt[:-1] = (u[1:] == u[:-1]) & (
                (d[1:] - d[:-1]) == np.timedelta64(1, "D"))
        g = t.groupby("day", sort=True)
        out = g.size().rename("n_active").reset_index()
        out["n_retained_next"] = (
            pd.Series(nxt).groupby(t["day"], sort=True).sum()
            .to_numpy().astype(np.int64))
        out["n_active"] = out["n_active"].astype(np.int64)
        return out[["day", "n_active", "n_retained_next"]]

    pair_ds = (
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["ts", "user_id"])
        .map_batches(pairs, batch_format="pyarrow")
    )
    partials = ex.combine_by_key(
        pair_ds, ["user_id"], retention,
        pa.schema([("day", pa.timestamp("us")), ("n_active", pa.int64()),
                   ("n_retained_next", pa.int64())]),
        driver_limit, num_parts)
    return grouped_sum_by_key(
        partials, "day", ["n_active", "n_retained_next"],
        AGG_PARTIALS_DRIVER_LIMIT)


# -- Streaming-shaped: session windows (gap-based) --------------------------


def events_sessionize(sf_dir: str, gap_minutes: int = 30, num_parts: int = 32):
    """Per-user session assignment: a new session starts when the gap
    since the previous event exceeds ``gap_minutes``. The user
    co-location runs through the filesystem partition exchange
    (stages/exchange.py — Ray's native groupby measured 50x slower
    here); each part then sessionizes ALL its users in one vectorized
    pandas pass (sort + shift/diff + per-user cumsum — no per-user
    Python loop). Output (event_id, user_id, session_id,
    session_start)."""
    import ray.data as rd

    from ..stages import exchange as ex

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    empty = pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("session_id", pa.int64()), ("session_start", pa.timestamp("us")),
    ])

    def sessionize_part(table: pa.Table) -> pa.Table:
        df = table.to_pandas().sort_values(
            ["user_id", "ts", "event_id"], kind="stable"
        ).reset_index(drop=True)
        new_user = df["user_id"].ne(df["user_id"].shift())
        brk = (df["ts"].diff() > pd.Timedelta(minutes=gap_minutes)) & ~new_user
        df["session_id"] = brk.groupby(df["user_id"].to_numpy()).cumsum().astype("int64")
        df["session_start"] = df.groupby(["user_id", "session_id"], sort=False)[
            "ts"].transform("min")
        out = df[["event_id", "user_id", "session_id", "session_start"]]
        return pa.Table.from_pandas(out, preserve_index=False).cast(
            pa.schema(empty))

    with ex.stage("nse_sessions_") as stage:
        ex.write_exchange(
            ds, stage,
            lambda b: ex.int_part(
                [b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)],
                num_parts,
            ),
        )
        return ex.map_parts(stage, num_parts, sessionize_part,
                            empty)


def events_rolling_count(sf_dir: str, window_minutes: int = 60,
                         num_parts: int = 32):
    """Sliding event-time window per user: for every event, the number
    of the same user's events in the preceding ``window_minutes``
    (inclusive both bounds — exactly SQL ``RANGE BETWEEN INTERVAL w
    PRECEDING AND CURRENT ROW``, which also includes ts-tie peers).
    Same partition-exchange user co-location as ``events_sessionize``;
    each part computes all its users' windows with TWO vectorized
    searchsorted calls over a composite (user-code * span + ts) key —
    measured 12.6x faster than the pandas groupby-rolling pass
    (100k real events, outputs identical), which
    remains as the fallback when the composite key would overflow
    int64 (pathological user-count x time-span; equivalence
    unit-tested). Output (event_id, user_id, ts, n_window)."""
    import ray.data as rd

    from ..stages import exchange as ex

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    empty = pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("ts", pa.timestamp("us")), ("n_window", pa.int64()),
    ])
    with ex.stage("nse_rolling_") as stage:
        ex.write_exchange(
            ds, stage,
            lambda b: ex.int_part(
                [b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)],
                num_parts,
            ),
        )

        def roll_part(table: pa.Table) -> pa.Table:
            df = table.to_pandas().sort_values(
                ["user_id", "ts", "event_id"], kind="stable"
            ).reset_index(drop=True)
            if not len(df):
                return empty.empty_table()
            w_us = np.int64(window_minutes) * 60_000_000
            m = df["ts"].to_numpy().astype("datetime64[us]").view(np.int64)
            codes, _ = pd.factorize(df["user_id"], sort=False)
            u = codes.astype(np.int64)  # nondecreasing (sorted by user)
            m0 = m.min()
            span = (m.max() - m0) + w_us + 2
            if span > 0 and int(u.max() + 1) < (1 << 62) // int(span):
                # vectorized RANGE window: rows are sorted by (user, ts),
                # so one composite key per row turns both window bounds
                # into searchsorted calls. side='right' at (u, t)
                # includes every ts-tie peer — exact SQL RANGE
                # semantics, no per-group pass.
                c = u * span + (m - m0)
                upper = np.searchsorted(c, u * span + (m - m0), side="right")
                lo_off = np.maximum(m - w_us - m0, 0)
                lower = np.searchsorted(c, u * span + lo_off, side="left")
                df["n_window"] = (upper - lower).astype(np.int64)
            else:
                # composite key would overflow int64 (pathological
                # user-count x time-span): C-level pandas rolling +
                # tie-group max lift (equivalence tested)
                cnt = (
                    df.set_index("ts")
                    .groupby("user_id", sort=False)["event_id"]
                    .rolling(f"{window_minutes}min", closed="both")
                    .count()
                    .to_numpy()
                    .astype(np.int64)
                )
                df["n_window"] = cnt
                df["n_window"] = df.groupby(
                    ["user_id", "ts"], sort=False)["n_window"].transform("max")
            out = df[["event_id", "user_id", "ts", "n_window"]]
            return pa.Table.from_pandas(out, preserve_index=False).cast(
                pa.schema(empty))

        return ex.map_parts(stage, num_parts, roll_part, empty)


# -- As-of join: each event matched to the user's latest prior order --------


# above this many order rows the orders side stops broadcasting and
# both sides hash-bucket on the user key (tests patch to 0)
ORDERS_BROADCAST_LIMIT = 5_000_000


def _orders_asof_arrays(orders: pd.DataFrame):
    """Deduped orders frame -> three flat sorted numpy arrays
    (BASELINE.md rule: never big python dicts): a composite
    (custkey << 21 | order-day) key, the order keys, and the order
    dates. Order dates are day-resolution so ``o_orderdate <= ts`` is
    equivalent at day granularity, letting one vectorized searchsorted
    answer the whole as-of join."""
    o_days = orders["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
    # ValueError, not assert: -O must not strip the composite-key bound
    if len(o_days) and not ((o_days >= 0).all() and o_days.max() < (1 << 21)):
        raise ValueError("as-of composite key needs 0 <= order-day < 2^21")
    o_comp = (orders["o_custkey"].to_numpy().astype(np.int64) << 21) | o_days
    order_ix = np.argsort(o_comp, kind="stable")
    return (
        o_comp[order_ix],
        orders["o_orderkey"].to_numpy()[order_ix].astype(np.int64),
        orders["o_orderdate"].to_numpy().astype("datetime64[us]")[order_ix],
    )


def _asof_lookup(df: pd.DataFrame, comp_s, okey_s, odate_s) -> pd.DataFrame:
    """Vectorized backward-as-of lookup of an events frame against the
    sorted composite order arrays (shared by both join paths)."""
    if not len(comp_s):
        return df[["event_id", "user_id", "ts"]].iloc[:0].assign(
            o_orderkey=pd.Series(dtype="int64"),
            o_orderdate=pd.Series(dtype="datetime64[us]"))
    users = df["user_id"].to_numpy().astype(np.int64)
    ts_days = df["ts"].to_numpy().astype("datetime64[D]").astype(np.int64)
    j = np.searchsorted(comp_s, (users << 21) | ts_days, side="right") - 1
    jc = np.clip(j, 0, None)
    hit = (j >= 0) & ((comp_s[jc] >> 21) == users)
    out = df[["event_id", "user_id", "ts"]].copy()
    out["o_orderkey"] = np.where(hit, okey_s[jc], -1)
    out["o_orderdate"] = odate_s[jc]
    return out[hit]


def events_asof_orders(sf_dir: str, num_parts: int = 32):
    """Backward as-of join events -> orders on (user_id = o_custkey,
    o_orderdate <= ts) — the composition the Dataset API lacks natively
    (custom operator per SURVEY guidance). One order per (custkey,
    date) — max orderkey wins — makes the as-of tie-break well-defined
    on both sides of the oracle.

    Below ``ORDERS_BROADCAST_LIMIT`` order rows the orders side is
    broadcast as sorted composite arrays and events stream with no
    shuffle; beyond it BOTH sides hash-bucket on the user key through
    the filesystem exchange and the identical vectorized lookup runs
    per part (VERDICT r02 next-round #4 — sessionize already proved
    the shape). Output: (event_id, user_id, ts, o_orderkey,
    o_orderdate)."""
    import duckdb
    import ray
    import ray.data as rd

    con = duckdb.connect()
    n_orders = con.execute(
        f"SELECT count(*) FROM read_parquet('{sf_dir}/orders.parquet')"
    ).fetchone()[0]
    if n_orders <= ORDERS_BROADCAST_LIMIT:
        orders = con.execute(
            f"SELECT o_custkey, o_orderdate, max(o_orderkey) AS o_orderkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet') "
            f"GROUP BY o_custkey, o_orderdate ORDER BY o_custkey, o_orderdate"
        ).fetchdf()
        con.close()
        ref = ray.put(_orders_asof_arrays(orders))

        def asof(df: pd.DataFrame) -> pd.DataFrame:
            from ..stages.broadcast import get_broadcast

            comp_s, okey_s, odate_s = get_broadcast(ref)
            return _asof_lookup(df, comp_s, okey_s, odate_s)

        return rd.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
        ).map_batches(asof, batch_format="pandas")
    con.close()
    return _events_asof_exchanged(sf_dir, num_parts)


def _events_asof_exchanged(sf_dir: str, num_parts: int):
    """Scale path: co-partition events by hash(user_id) and orders by
    hash(o_custkey); the per-(custkey, date) max-orderkey pre-aggregate
    and the vectorized as-of lookup both run inside each part (keys
    co-locate, so per-part results equal the global ones)."""
    import ray.data as rd

    from ..stages import exchange as ex

    ev_schema = pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("ts", pa.timestamp("us")),
    ])
    ord_schema = pa.schema([
        ("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
        ("o_orderdate", pa.timestamp("us")),
    ])
    out_schema = pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("ts", pa.timestamp("us")), ("o_orderkey", pa.int64()),
        ("o_orderdate", pa.timestamp("us")),
    ])
    with (ex.stage("nse_asof_ev_") as ev_stage,
          ex.stage("nse_asof_ord_") as ord_stage):
        ex.write_exchange(
            rd.read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id", "ts"])
            .map_batches(lambda b: b.cast(ev_schema), batch_format="pyarrow"),
            ev_stage,
            lambda b: ex.int_part(
                [b["user_id"].to_numpy(zero_copy_only=False)], num_parts))
        ex.write_exchange(
            rd.read_parquet(f"{sf_dir}/orders.parquet",
                            columns=["o_orderkey", "o_custkey", "o_orderdate"])
            .map_batches(lambda b: b.cast(ord_schema), batch_format="pyarrow"),
            ord_stage,
            lambda b: ex.int_part(
                [b["o_custkey"].to_numpy(zero_copy_only=False)], num_parts))

        def asof_part(ev_t: pa.Table, ord_t: pa.Table) -> pa.Table:
            orders = (
                ord_t.to_pandas()
                .groupby(["o_custkey", "o_orderdate"], sort=False)["o_orderkey"]
                .max().reset_index()
            )
            out = _asof_lookup(ev_t.to_pandas(), *_orders_asof_arrays(orders))
            return pa.Table.from_pandas(out, preserve_index=False).cast(out_schema)

        return ex.map_parts([ev_stage, ord_stage], num_parts, asof_part,
                            out_schema,
                            in_schemas=[ev_schema, ord_schema])


# -- Similarity search over the embeddings table ----------------------------


def knn_embeddings(sf_dir: str, k: int = 10, n_queries: int = 3):
    """Exact cosine top-k for the first ``n_queries`` stored vectors
    (query matrix broadcast; per-batch matmul + partial top-k; small
    final merge). Output (query_id, vec_id, score)."""
    import duckdb
    import ray.data as rd

    from ..stages.similarity import knn_brute_force

    con = duckdb.connect()
    q = con.execute(
        f"SELECT vec_id, embedding FROM read_parquet('{sf_dir}/embeddings.parquet') "
        f"WHERE vec_id < {n_queries} ORDER BY vec_id"
    ).fetchall()
    con.close()
    qids = [r[0] for r in q]
    qvecs = np.array([r[1] for r in q], dtype=np.float64)
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    return knn_brute_force(ds, qvecs, qids, k=k)


# -- Text-analysis features over documents ----------------------------------


def docs_text_features(sf_dir: str):
    """Vectorized per-doc text features: words, alpha chars, punct
    chars, fingerprint (rows checked; fingerprint column excluded from
    the SQL oracle via a dedicated query)."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        text = df["text"].fillna("")
        out = pd.DataFrame()
        out["doc_id"] = df["doc_id"]
        out["n_words"] = text.str.count(r"\S+").astype("int64")
        out["alpha_chars"] = text.str.count(r"[A-Za-z]").astype("int64")
        out["space_chars"] = text.str.count(r" ").astype("int64")
        return out

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pandas")


def docs_repetition_stats(sf_dir: str):
    """Gopher-style repetition quality signals per document (Rae et
    al. 2021 §A1 repetition filters, public construction): over the
    ``\\w+`` lowercase tokenization,

        n_words         = token count (NOTE: \\w+ tokens, not the
                          whitespace count of ``word_count``)
        top_word_frac   = occurrences of the most frequent token / n_words
        dup_word_frac   = (n_words - distinct tokens) / n_words
        top_bigram_frac = occurrences of the most frequent adjacent
                          token bigram / (n_words - 1)

    Empty/one-token edge cases yield 0 for the undefined fractions.
    Per-row numpy (token ids via np.unique; bigram codes id*V+id) —
    the scalar-kernel layout measured faster than batch variants for
    this corpus shape (BASELINE.md negative result on langid). Fully
    SQL-expressible; oracled as exact ANSI SQL (fractions rounded to
    6 on both sides)."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _repetition_frame, batch_format="pandas")


_REPETITION_TOK_RE = re.compile(r"\w+")


def _repetition_frame(df: pd.DataFrame) -> pd.DataFrame:
    """Batch kernel of ``docs_repetition_stats`` (module-level so unit
    tests can drive edge shapes directly)."""
    n_words = np.zeros(len(df), dtype=np.int64)
    top_w = np.zeros(len(df), dtype=np.float64)
    dup_w = np.zeros(len(df), dtype=np.float64)
    top_bg = np.zeros(len(df), dtype=np.float64)
    for i, t in enumerate(df["text"].fillna("")):
        toks = _REPETITION_TOK_RE.findall(t.lower())
        n = len(toks)
        n_words[i] = n
        if not n:
            continue
        ids, inv, counts = np.unique(
            toks, return_inverse=True, return_counts=True)
        top_w[i] = counts.max() / n
        dup_w[i] = (n - len(ids)) / n
        if n >= 2:
            codes = inv[:-1].astype(np.int64) * len(ids) + inv[1:]
            _, bcounts = np.unique(codes, return_counts=True)
            top_bg[i] = bcounts.max() / (n - 1)
    out = pd.DataFrame()
    out["doc_id"] = df["doc_id"]
    out["n_words"] = n_words
    out["top_word_frac"] = np.round(top_w, 6)
    out["dup_word_frac"] = np.round(dup_w, 6)
    out["top_bigram_frac"] = np.round(top_bg, 6)
    return out


# Gopher page-level quality gates (Rae et al. 2021 §A1.1, public
# construction; reference has no corpus-quality stage — this extends
# the M5/word-count family to the web-pipeline filter set).
_GOPHER_STOPWORDS = frozenset(
    ("the", "be", "to", "of", "and", "that", "have", "with"))
_GOPHER_MIN_WORDS, _GOPHER_MAX_WORDS = 50, 100_000
_ALPHA_RE = re.compile(r"[A-Za-z]")


def docs_gopher_rules(sf_dir: str):
    """Gopher document-quality rules per doc (Rae et al. 2021):
    word-count bounds [50, 100k], mean word length in [3, 10],
    symbol-to-word ratio ('#' chars + non-overlapping '...' runs)
    < 0.1, >=80% of words containing an alphabetic character, and >=2
    of the eight Gopher stopwords. Emits the signals plus the combined
    ``keep`` verdict (fractions rounded to 6 on both sides; the keep
    comparison uses the rounded values so kernel and oracle agree at
    boundaries). Fully SQL-expressible; exact ANSI-SQL oracle."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _gopher_frame, batch_format="pandas")


def _gopher_frame(df: pd.DataFrame) -> pd.DataFrame:
    """Batch kernel of ``docs_gopher_rules`` (module-level so unit
    tests can drive edge shapes directly). Tokenization: ``\\S+`` for
    word stats (mirrors ``word_count``), ``\\w+`` lowercase for the
    stopword tally (mirrors ``docs_repetition_stats``)."""
    text = df["text"].fillna("")
    toks = text.str.findall(r"\S+")
    n_words = toks.map(len).to_numpy(dtype=np.int64)
    safe = np.maximum(n_words, 1)
    nonspace = text.str.replace(r"\s", "", regex=True).str.len().to_numpy()
    mean_wl = np.round(np.where(n_words > 0, nonspace / safe, 0.0), 6)
    n_alpha = toks.map(
        lambda ts: sum(1 for t in ts if _ALPHA_RE.search(t))).to_numpy()
    alpha_frac = np.round(np.where(n_words > 0, n_alpha / safe, 0.0), 6)
    # non-overlapping '...' count via replace-length delta — matches the
    # SQL (length - length(replace(t,'...','')))/3 exactly
    n_hash = text.str.count("#").to_numpy()
    n_ell = ((text.str.len()
              - text.str.replace("...", "", regex=False).str.len()) // 3
             ).to_numpy()
    symbol_frac = np.round(
        np.where(n_words > 0, (n_hash + n_ell) / safe, 0.0), 6)
    n_stop = text.str.lower().str.findall(r"\w+").map(
        lambda ts: sum(1 for t in ts if t in _GOPHER_STOPWORDS)
    ).to_numpy(dtype=np.int64)
    out = pd.DataFrame()
    out["doc_id"] = df["doc_id"]
    out["n_words"] = n_words
    out["mean_word_len"] = mean_wl
    out["alpha_word_frac"] = alpha_frac
    out["symbol_frac"] = symbol_frac
    out["n_stopwords"] = n_stop
    out["keep"] = (
        (n_words >= _GOPHER_MIN_WORDS) & (n_words <= _GOPHER_MAX_WORDS)
        & (mean_wl >= 3) & (mean_wl <= 10)
        & (symbol_frac < 0.1) & (alpha_frac >= 0.8) & (n_stop >= 2))
    return out


# -- Multi-way broadcast join + aggregate (Q5-style) ------------------------


# above this many customer rows the customer dimension stops
# broadcasting (~2.4 GB at sf1000) and orders+customer hash-bucket on
# custkey through the filesystem exchange; nation/region (25 rows)
# always broadcast. Tests patch to 0.
CUSTOMER_BROADCAST_LIMIT = 5_000_000


def _nation_names(sf_dir: str):
    """(n_name_by_key, r_name_by_key) arrays indexed by nationkey, plus
    the raw nation frame — tiny (25 rows), always driver-side."""
    import duckdb

    con = duckdb.connect()
    nation = con.execute(
        f"SELECT n_nationkey, n_name, r_name FROM "
        f"read_parquet('{sf_dir}/nation.parquet') n JOIN "
        f"read_parquet('{sf_dir}/region.parquet') r "
        f"ON n.n_regionkey = r.r_regionkey"
    ).fetchdf()
    con.close()
    n_slots = int(nation["n_nationkey"].max()) + 1
    n_name_by_key = np.empty(n_slots, dtype=object)
    r_name_by_key = np.empty(n_slots, dtype=object)
    n_name_by_key[nation["n_nationkey"].to_numpy()] = nation["n_name"].to_numpy()
    r_name_by_key[nation["n_nationkey"].to_numpy()] = nation["r_name"].to_numpy()
    return n_name_by_key, r_name_by_key


def revenue_by_nation(sf_dir: str):
    """orders ⋈ customer ⋈ nation ⋈ region -> revenue per nation.
    Below ``CUSTOMER_BROADCAST_LIMIT`` the dimension tables
    (customer/nation/region) are broadcast once as sorted numpy arrays
    and applied with one searchsorted + fancy-index pass per batch; the
    per-batch partial aggregate is combined in one tiny final pass
    (25 nations), so the fact table streams with NO shuffle. Beyond the
    budget (customer scales with SF) orders and customer hash-bucket on
    custkey through the filesystem exchange and the identical join +
    partial aggregate run per part (VERDICT r03 next-round #3)."""
    import duckdb
    import ray
    import ray.data as rd

    con = duckdb.connect()
    n_cust = con.execute(
        f"SELECT count(*) FROM read_parquet('{sf_dir}/customer.parquet')"
    ).fetchone()[0]
    if n_cust > CUSTOMER_BROADCAST_LIMIT:
        con.close()
        return _revenue_by_nation_exchanged(sf_dir)
    cust = con.execute(
        f"SELECT c_custkey, c_nationkey FROM "
        f"read_parquet('{sf_dir}/customer.parquet') ORDER BY c_custkey"
    ).fetchdf()
    nation = con.execute(
        f"SELECT n_nationkey, n_name, r_name FROM "
        f"read_parquet('{sf_dir}/nation.parquet') n JOIN "
        f"read_parquet('{sf_dir}/region.parquet') r "
        f"ON n.n_regionkey = r.r_regionkey"
    ).fetchdf()
    con.close()
    # broadcast the customer dimension as SORTED custkey/nationkey
    # numpy arrays (searchsorted lookup; BASELINE.md rule — a python
    # dict here cost ~1 s deserialize per worker and scales with SF)
    # plus tiny nationkey-indexed name arrays (25 rows)
    n_slots = int(nation["n_nationkey"].max()) + 1
    n_name_by_key = np.empty(n_slots, dtype=object)
    r_name_by_key = np.empty(n_slots, dtype=object)
    n_name_by_key[nation["n_nationkey"].to_numpy()] = nation["n_name"].to_numpy()
    r_name_by_key[nation["n_nationkey"].to_numpy()] = nation["r_name"].to_numpy()
    ref = ray.put((
        cust["c_custkey"].to_numpy().astype(np.int64),
        cust["c_nationkey"].to_numpy().astype(np.int64),
        n_name_by_key, r_name_by_key,
    ))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        from ..stages.broadcast import get_broadcast

        ck_s, cnat_s, n_names, r_names = get_broadcast(ref)
        custs = df["o_custkey"].to_numpy().astype(np.int64)
        j = np.clip(np.searchsorted(ck_s, custs), 0, len(ck_s) - 1)
        hit = len(ck_s) > 0
        mask = (ck_s[j] == custs) if hit else np.zeros(len(custs), dtype=bool)
        nk = cnat_s[j[mask]]
        # inner-join semantics (oracle parity): drop rows whose
        # nationkey is outside or a gap of the nation dimension instead
        # of IndexError / None-named groups
        in_range = (nk >= 0) & (nk < len(n_names))
        nk_c = np.clip(nk, 0, max(0, len(n_names) - 1))
        names = n_names[nk_c]
        ok = in_range & pd.notna(names)
        out = pd.DataFrame({
            "n_name": names[ok], "r_name": r_names[nk_c][ok],
            "o_totalprice": df["o_totalprice"].to_numpy()[mask][ok],
        })
        g = out.groupby(["n_name", "r_name"], sort=False)["o_totalprice"].agg(
            ["sum", "count"]).reset_index()
        g.columns = ["n_name", "r_name", "s", "c"]
        return g

    partials = (
        rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])
        .map_batches(partial, batch_format="pandas")
        .to_pandas()
    )
    final = partials.groupby(["n_name", "r_name"], sort=False).agg(
        total_revenue=("s", "sum"), n_orders=("c", "sum")).reset_index()
    final["total_revenue"] = final["total_revenue"].round(4)
    final["n_orders"] = final["n_orders"].astype("int64")
    return rd.from_pandas(final)


def _revenue_by_nation_exchanged(sf_dir: str, num_parts: int = 32):
    """Scale path: orders and customer co-partition on hash(custkey)
    through the filesystem exchange; each part joins and pre-aggregates
    to (nationkey, sum, count) — at most 25 rows per part — so the
    driver combine is nations × parts regardless of SF. The name
    mapping + inner-join validity filter run at the combine, which
    commutes with the per-nationkey aggregation."""
    import ray.data as rd

    from ..stages import exchange as ex

    ord_schema = pa.schema([
        ("o_custkey", pa.int64()), ("o_totalprice", pa.float64()),
    ])
    cust_schema = pa.schema([
        ("c_custkey", pa.int64()), ("c_nationkey", pa.int64()),
    ])
    agg_schema = pa.schema([
        ("n_nationkey", pa.int64()), ("s", pa.float64()), ("c", pa.int64()),
    ])
    with (ex.stage("nse_rev_ord_") as ord_stage,
          ex.stage("nse_rev_cust_") as cust_stage):
        ex.write_exchange(
            rd.read_parquet(f"{sf_dir}/orders.parquet",
                            columns=["o_custkey", "o_totalprice"])
            .map_batches(lambda b: b.cast(ord_schema), batch_format="pyarrow"),
            ord_stage,
            lambda b: ex.int_part(
                [b["o_custkey"].to_numpy(zero_copy_only=False)], num_parts))
        ex.write_exchange(
            rd.read_parquet(f"{sf_dir}/customer.parquet",
                            columns=["c_custkey", "c_nationkey"])
            .map_batches(lambda b: b.cast(cust_schema), batch_format="pyarrow"),
            cust_stage,
            lambda b: ex.int_part(
                [b["c_custkey"].to_numpy(zero_copy_only=False)], num_parts))

        def agg_part(ord_t: pa.Table, cust_t: pa.Table) -> pa.Table:
            ck = cust_t["c_custkey"].to_numpy(zero_copy_only=False)
            order = np.argsort(ck, kind="stable")
            ck_s = ck[order]
            cnat_s = cust_t["c_nationkey"].to_numpy(zero_copy_only=False)[order]
            custs = ord_t["o_custkey"].to_numpy(zero_copy_only=False)
            if not len(ck_s) or not len(custs):
                return agg_schema.empty_table()
            j = np.clip(np.searchsorted(ck_s, custs), 0, len(ck_s) - 1)
            mask = ck_s[j] == custs
            nk = cnat_s[j[mask]]
            price = ord_t["o_totalprice"].to_numpy(zero_copy_only=False)[mask]
            g = pd.DataFrame({"n_nationkey": nk, "price": price}).groupby(
                "n_nationkey", sort=False)["price"].agg(["sum", "count"]).reset_index()
            return pa.table({
                "n_nationkey": pa.array(g["n_nationkey"].to_numpy(np.int64)),
                "s": pa.array(g["sum"].to_numpy(np.float64)),
                "c": pa.array(g["count"].to_numpy(np.int64)),
            })

        partials = ex.map_parts([ord_stage, cust_stage], num_parts, agg_part,
                                agg_schema,
                                in_schemas=[ord_schema, cust_schema]).to_pandas()
    n_names, r_names = _nation_names(sf_dir)
    nk = partials["n_nationkey"].to_numpy()
    in_range = (nk >= 0) & (nk < len(n_names))
    nk_c = np.clip(nk, 0, max(0, len(n_names) - 1))
    names = n_names[nk_c]
    ok = in_range & pd.notna(names)
    final = (
        partials[ok]
        .assign(n_name=names[ok], r_name=r_names[nk_c][ok])
        .groupby(["n_name", "r_name"], sort=False)
        .agg(total_revenue=("s", "sum"), n_orders=("c", "sum"))
        .reset_index()
    )
    final["total_revenue"] = final["total_revenue"].round(4)
    final["n_orders"] = final["n_orders"].astype("int64")
    return rd.from_pandas(final)


# the per-customer order aggregate is customer-cardinality-sized;
# beyond this many aggregate rows the zero-fill join stops
# broadcasting and co-partitions both sides by custkey hash through
# the filesystem exchange (tests patch to 0 and assert path equality)
ORDER_COUNTS_BROADCAST_LIMIT = 20_000_000


def customer_order_counts(sf_dir: str,
                          min_totalprice: float = 450_000.0,
                          num_parts: int = 32):
    """LEFT OUTER enrich with zero-fill: every customer with the count
    and total value of their big orders (``o_totalprice >
    min_totalprice``) — customers with NONE keep their row with 0/0.0,
    the outer-join semantics an inner join or semi-join cannot
    express. Shape: the orders stream aggregates per custkey through
    the shared gated ``grouped_sum_by_key`` combine (the fact stream
    never shuffles — one partial row per custkey per batch); the
    aggregate side then joins to customer either as a broadcast of
    sorted numpy arrays (searchsorted probe, miss -> zero-fill; below
    ``ORDER_COUNTS_BROADCAST_LIMIT`` aggregate rows) or, beyond the
    budget, via custkey-hash co-partitioning of BOTH sides through the
    filesystem exchange with the identical vectorized per-part join.
    Output (c_custkey, c_name, n_orders, total_spent)."""
    import ray
    import ray.data as rd

    from ..stages import exchange as ex

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        big = df[df["o_totalprice"] > min_totalprice]
        g = big.groupby("o_custkey", sort=False)["o_totalprice"].agg(
            ["count", "sum"]).reset_index()
        g.columns = ["o_custkey", "n_orders", "sum_total"]
        g["n_orders"] = g["n_orders"].astype("int64")
        return g

    agg = grouped_sum_by_key(
        rd.read_parquet(f"{sf_dir}/orders.parquet",
                        columns=["o_custkey", "o_totalprice"])
        .map_batches(partial, batch_format="pandas").materialize(),
        "o_custkey", ["n_orders", "sum_total"],
        AGG_PARTIALS_DRIVER_LIMIT).materialize()

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_name"])
    out_schema = pa.schema([
        ("c_custkey", pa.int64()), ("c_name", pa.string()),
        ("n_orders", pa.int64()), ("total_spent", pa.float64()),
    ])

    def left_join(ck: np.ndarray, names: np.ndarray, ak_s: np.ndarray,
                  n_s: np.ndarray, s_s: np.ndarray) -> pa.Table:
        # ak_s sorted by custkey; probe + zero-fill the misses
        n_out = np.zeros(len(ck), np.int64)
        s_out = np.zeros(len(ck), np.float64)
        if len(ak_s):
            j = np.clip(np.searchsorted(ak_s, ck), 0, len(ak_s) - 1)
            hit = ak_s[j] == ck
            n_out[hit] = n_s[j[hit]]
            s_out[hit] = s_s[j[hit]]
        return pa.table({"c_custkey": pa.array(ck, pa.int64()),
                         "c_name": pa.array(names, pa.string()),
                         "n_orders": pa.array(n_out),
                         "total_spent": pa.array(s_out)})

    if agg.count() <= ORDER_COUNTS_BROADCAST_LIMIT:
        adf = agg.to_pandas()
        order = np.argsort(adf["o_custkey"].to_numpy(), kind="stable")
        ref = ray.put((adf["o_custkey"].to_numpy(np.int64)[order],
                       adf["n_orders"].to_numpy(np.int64)[order],
                       adf["sum_total"].to_numpy(np.float64)[order]))

        def probe(batch: pa.Table) -> pa.Table:
            from ..stages.broadcast import get_broadcast

            ak_s, n_s, s_s = get_broadcast(ref)
            return left_join(
                batch["c_custkey"].to_numpy(zero_copy_only=False)
                .astype(np.int64),
                batch["c_name"].to_numpy(zero_copy_only=False),
                ak_s, n_s, s_s)

        return cust.map_batches(probe, batch_format="pyarrow")

    agg_schema = pa.schema([("o_custkey", pa.int64()),
                            ("n_orders", pa.int64()),
                            ("sum_total", pa.float64())])
    cust_schema = pa.schema([("c_custkey", pa.int64()),
                             ("c_name", pa.string())])
    with (ex.stage("nse_coc_agg_") as agg_stage,
          ex.stage("nse_coc_cust_") as cust_stage):
        ex.write_exchange(
            agg.map_batches(lambda b: b.cast(agg_schema),
                            batch_format="pyarrow"),
            agg_stage,
            lambda b: ex.int_part(
                [b["o_custkey"].to_numpy(zero_copy_only=False)], num_parts))
        ex.write_exchange(
            cust.map_batches(lambda b: b.cast(cust_schema),
                             batch_format="pyarrow"),
            cust_stage,
            lambda b: ex.int_part(
                [b["c_custkey"].to_numpy(zero_copy_only=False)], num_parts))

        def join_part(cust_t: pa.Table, agg_t: pa.Table) -> pa.Table:
            ak = agg_t["o_custkey"].to_numpy(zero_copy_only=False)
            order = np.argsort(ak, kind="stable")
            return left_join(
                cust_t["c_custkey"].to_numpy(zero_copy_only=False)
                .astype(np.int64),
                cust_t["c_name"].to_numpy(zero_copy_only=False),
                ak[order],
                agg_t["n_orders"].to_numpy(zero_copy_only=False)[order],
                agg_t["sum_total"].to_numpy(zero_copy_only=False)[order])

        return ex.map_parts([cust_stage, agg_stage], num_parts, join_part,
                            out_schema,
                            in_schemas=[cust_schema, agg_schema])


# -- Set op: distinct values (partial-unique + combine) ---------------------


def distinct_langs(sf_dir: str):
    """DISTINCT over a column without a Ray-native shuffle: per-batch
    unique (vectorized), then the shared ``grouped_sum_by_key``
    combine keyed by the value itself (driver below
    ``AGG_PARTIALS_DRIVER_LIMIT`` partial rows, value-hash exchange
    with distributed output beyond — DISTINCT over a high-cardinality
    column must not assume driver residency)."""
    import ray.data as rd

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({"lang": pc.unique(batch["lang"])})

    partials = (
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["lang"])
        .map_batches(partial, batch_format="pyarrow")
        .materialize()
    )
    return grouped_sum_by_key(partials, "lang", [],
                              AGG_PARTIALS_DRIVER_LIMIT)


# -- Top-k (partial top-k per batch + merge) --------------------------------


def docs_sample_weighted(sf_dir: str, k: int = 100):
    """Deterministic weighted sampling without replacement via
    priority sampling (Duffield–Lund–Thorup 2007, public
    construction): priority q_i = w_i / u_i with weight w = n_chars
    and the deterministic uniform u = (hash(doc_id)+1) / 2^31 shared
    with ``docs_sample_hash``; keep the k largest priorities
    (tie-break doc_id asc).

    Exactness across engines: q = (w * 2^31) / (h+1). The numerator
    stays below 2^53 for n_chars < ~4.2M (guarded), so it is an exact
    double; h+1 <= 2^31 is exact; one IEEE division is correctly
    rounded — so numpy and DuckDB compute BIT-IDENTICAL priorities
    and the selected set matches the SQL oracle exactly. Per-batch
    partial top-k then one tiny driver merge — no global sort."""
    import ray.data as rd

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.int64)
        w = df["n_chars"].to_numpy().astype(np.int64)
        if len(ids) and not ((ids >= 0).all() and ids.max() < (1 << 31)):
            raise ValueError("docs_sample_weighted requires 0 <= doc_id < 2^31")
        if len(w) and not ((w > 0).all() and w.max() < (1 << 22)):
            raise ValueError("weights must be in (0, 2^22) for exact doubles")
        h = (ids * 2654435761) % (1 << 31)
        q = (w.astype(np.float64) * float(1 << 31)) / (h + 1).astype(np.float64)
        out = pd.DataFrame({"doc_id": ids, "n_chars": w, "priority": q})
        return out.sort_values(
            ["priority", "doc_id"], ascending=[False, True]).head(k)

    partials_ds = (
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["doc_id", "n_chars"])
        .map_batches(partial, batch_format="pandas")
        .materialize()
    )

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["priority", "doc_id"], ascending=[False, True]).head(k)

    final = _topk_combine(partials_ds, local_topk,
                          TOPK_PARTIALS_DRIVER_LIMIT)
    final["priority"] = final["priority"].round(6)
    return rd.from_pandas(final.reset_index(drop=True))


def top_docs_by_length(sf_dir: str, k: int = 10):
    """Global top-k by n_chars with a deterministic tie-break
    (n_chars desc, doc_id asc): per-batch partial top-k rows then the
    shared gated merge — no global sort (shared ``_topk_rows``
    kernel, ``_topk_combine`` two-level exchange beyond the driver
    budget)."""
    import ray.data as rd

    partials_ds = (
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["doc_id", "n_chars"])
        .map_batches(lambda df: _topk_rows(df, k, None),
                     batch_format="pandas")
        .materialize()
    )
    final = _topk_combine(partials_ds, lambda df: _topk_rows(df, k, None),
                          TOPK_PARTIALS_DRIVER_LIMIT)
    return rd.from_pandas(final)


# -- Naive-Bayes quality classifier (fastText-style filter) ------------------

# hard ceiling on the model rows (per-term class counts) the scoring
# pass may broadcast — classifier scoring fundamentally requires the
# vocabulary everywhere, so past this budget the fix is semantic
# (prune the vocabulary / hash features), same contract as
# TFIDF_VOCAB_DRIVER_LIMIT. Tests patch to 0.
NB_MODEL_BROADCAST_LIMIT = 20_000_000


def docs_nb_quality(sf_dir: str, positive_lang: str = "en"):
    """Model-based quality filtering in the fastText-classifier mold
    (the RedPajama/Dolma "quality classifier" stage): fit a multinomial
    Naive Bayes with add-one smoothing on the corpus — positive class =
    docs whose ``lang`` equals ``positive_lang`` — and score every doc
    with its token log-odds. Tokens are the ``tfidf``/``top_terms``
    convention (lowercase ``\\w\\w+``); per-token weight
    ``ln((c1+1)/(T1+V)) - ln((c0+1)/(T0+V))`` with class token totals
    T1/T0 and global vocabulary size V; doc score = class-prior
    log-odds + token-weight sum (with multiplicity).

    Output: (doc_id, n_tokens, log_odds, pred) — log_odds rounded to
    6 dp, pred = log_odds > 0. Out-of-vocabulary tokens (when scoring
    text the fit never saw) take the smoothed zero-count weight
    ``ln((T0+V)/(T1+V))`` rather than erroring.

    Scale shape (mirrors ``docs_lm_score``): one tokenize pass emits
    per-batch PARTIAL (term, c1, c0) rows — never the token stream —
    plus a NULL-term sentinel row carrying the per-batch class DOC
    counts, all through the shared gated ``grouped_sum_by_key``
    combine; the model is hard-gated by ``NB_MODEL_BROADCAST_LIMIT``
    and broadcast once as sorted term-hash/weight arrays."""
    import ray
    import ray.data as rd

    docs = _docs(sf_dir, ["doc_id", "lang", "text"])

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.lower().str.findall(SK_TOKEN_RE)
        lens = toks.map(len).to_numpy(dtype=np.int64)
        idx = np.repeat(np.arange(len(df)), lens)
        flat = (np.concatenate([np.asarray(t, dtype=object) for t in toks])
                if lens.sum() else np.empty(0, dtype=object))
        pos_doc = (df["lang"] == positive_lang).to_numpy()
        g = (pd.DataFrame({"term": flat,
                           "c1": pos_doc[idx].astype(np.int64)})
             .groupby("term", sort=False)
             .agg(c1=("c1", "sum"), n=("c1", "size")).reset_index())
        out = pd.DataFrame({
            "term": g["term"].to_numpy(dtype=object),
            "c1": g["c1"].to_numpy().astype(np.int64),
            "c0": (g["n"] - g["c1"]).to_numpy().astype(np.int64),
        })
        # NULL-term sentinel: per-batch class DOC counts (the priors)
        sent = pd.DataFrame({
            "term": np.array([None], dtype=object),
            "c1": np.array([int(pos_doc.sum())], dtype=np.int64),
            "c0": np.array([int((~pos_doc).sum())], dtype=np.int64),
        })
        out = pd.concat([out, sent], ignore_index=True)
        return out

    partials = docs.map_batches(
        count_partial, batch_format="pandas").materialize()
    summed = grouped_sum_by_key(partials, "term", ["c1", "c0"],
                                TERMS_DRIVER_LIMIT).materialize()
    if summed.count() > NB_MODEL_BROADCAST_LIMIT:
        raise RuntimeError(
            "NB vocabulary exceeds the broadcast budget "
            f"({NB_MODEL_BROADCAST_LIMIT} model rows): prune the "
            "vocabulary or raise NB_MODEL_BROADCAST_LIMIT")
    mdf = summed.to_pandas()
    if mdf.empty:
        mdf = pd.DataFrame({"term": pd.Series(dtype=object),
                            "c1": pd.Series(dtype="int64"),
                            "c0": pd.Series(dtype="int64")})
    is_sent = mdf["term"].isna().to_numpy()
    n1 = int(mdf[is_sent]["c1"].sum())
    n0 = int(mdf[is_sent]["c0"].sum())
    if n1 == 0 or n0 == 0:
        raise ValueError(
            f"docs_nb_quality needs both classes non-empty "
            f"(positive lang {positive_lang!r}: n1={n1}, n0={n0})")
    terms_df = mdf[~is_sent]
    terms = terms_df["term"].to_numpy(dtype=object)
    vocab_n = len(terms)
    t1 = float(terms_df["c1"].sum())
    t0 = float(terms_df["c0"].sum())
    wt = (np.log((terms_df["c1"].to_numpy() + 1.0) / (t1 + vocab_n))
          - np.log((terms_df["c0"].to_numpy() + 1.0) / (t0 + vocab_n)))
    th = pd.util.hash_array(terms)
    if len(np.unique(th)) != len(th):
        # not an assert: -O must not strip the guard (silent weight mixups)
        raise RuntimeError("64-bit vocab hash collision")
    order = np.argsort(th, kind="stable")
    # zero-token corpus (both classes non-empty but no \w\w+ tokens):
    # the model is just the prior; 0/0 in the OOV weight must not raise
    oov_wt = (float(np.log((t0 + vocab_n) / (t1 + vocab_n)))
              if vocab_n else 0.0)
    prior = float(np.log(n1 / n0))
    model_ref = ray.put((th[order], wt[order], prior, oov_wt))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        from ..stages.broadcast import get_broadcast

        th_b, wt_b, prior_b, oov_b = get_broadcast(model_ref)
        toks = df["text"].fillna("").str.lower().str.findall(SK_TOKEN_RE)
        lens = toks.map(len).to_numpy(dtype=np.int64)
        idx = np.repeat(np.arange(len(df)), lens)
        s = np.zeros(len(df), dtype=np.float64)
        if lens.sum():
            flat = np.concatenate(
                [np.asarray(t, dtype=object) for t in toks])
            h = pd.util.hash_array(flat)
            j = np.clip(np.searchsorted(th_b, h), 0, max(0, len(th_b) - 1))
            hit = (th_b[j] == h) if len(th_b) else np.zeros(len(flat), bool)
            w = np.where(hit, wt_b[j] if len(th_b) else 0.0, oov_b)
            s = np.bincount(idx, weights=w, minlength=len(df))
        lo = prior_b + s
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy().astype(np.int64),
            "n_tokens": lens,
            "log_odds": np.round(lo, 6),
            "pred": lo > 0,
        })

    return docs.map_batches(score, batch_format="pandas")


# -- Inverted-index postings build -------------------------------------------


def term_postings(sf_dir: str, k: int = 32):
    """Inverted-index build: per term, the exact document frequency and
    the first ``k`` (smallest) doc_ids containing it, serialized as
    canonical JSON (the CLAUDE.md nested-output rule). The posting cap
    bounds the per-term output regardless of df — the head of a real
    posting list — while df stays exact.

    Scale shape: each document lives in exactly one batch, so per-batch
    DISTINCT (term, doc_id) rows are globally distinct postings — no
    cross-batch dedup needed. Below ``TERMS_DRIVER_LIMIT`` posting rows the combine is
    a driver groupby; beyond, rows term-hash-partition through the
    filesystem exchange and each part computes exact df + head-k
    locally (a term's rows all co-locate). Postings-string assembly is
    O(output) by construction (k ids per term)."""
    from ..stages import exchange as ex

    out_schema = pa.schema([("term", pa.string()), ("df", pa.int64()),
                            ("postings", pa.string())])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.lower().str.findall(SK_TOKEN_RE)
        ex = df[["doc_id"]].assign(term=toks).explode("term")
        ex = ex.dropna(subset=["term"]).drop_duplicates()
        return pd.DataFrame({"term": ex["term"].to_numpy(dtype=object),
                             "doc_id": ex["doc_id"].to_numpy().astype(np.int64)})

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["term", "doc_id"], kind="stable")
        dfreq = df.groupby("term", sort=False).size()
        head = df[df.groupby("term", sort=False).cumcount() < k]
        posts = head.groupby("term", sort=False)["doc_id"].agg(
            lambda s: "[" + ",".join(map(str, s)) + "]")
        return pd.DataFrame({
            "term": dfreq.index.to_numpy(dtype=object),
            "df": dfreq.to_numpy().astype(np.int64),
            "postings": posts.reindex(dfreq.index).to_numpy(dtype=object),
        })

    return ex.combine_by_key(
        _docs(sf_dir, ["doc_id", "text"]).map_batches(
            pairs, batch_format="pandas"),
        ["term"], combine, out_schema, TERMS_DRIVER_LIMIT)


# -- Sharded Bloom seen-set (crawl-frontier membership) ----------------------

# above this many distinct set-bit partial rows the filter leaves the
# driver for a shard-co-partitioned exchange (tests patch to 0). The
# row count is bounded by the filter's total bit size, so this is
# equivalently a cap on the broadcastable filter (uint64 words) — a
# 10^12-key filter is ~1.25 TB and must be sharded, never broadcast.
BLOOM_SEEN_PARTIALS_DRIVER_LIMIT = 50_000_000
BLOOM_SEEN_SHARDS = 64


def _bloom_fp_keys(df: pd.DataFrame) -> np.ndarray:
    """The seen-set's key derivation — ONE implementation shared by the
    broadcast build/probe and the exchange build/probe rows, so the two
    paths can never drift onto different keys."""
    from ..functions.textstats import fingerprint64

    return np.fromiter((fingerprint64(t) for t in df["text"]),
                       dtype=np.uint64, count=len(df))


def docs_bloom_seen(sf_dir: str, bits_per_key: int = 10,
                    k_hashes: int = 7, shards: int = BLOOM_SEEN_SHARDS):
    """Crawl-frontier seen-set membership via a SHARDED Bloom filter —
    the approximate-membership sketch completing the HLL/CMS family:
    "is this page's content already in the previous crawl?" at a
    per-key cost of ``bits_per_key`` bits instead of the exact set.
    The seen set is the deterministic 'previous crawl' slice (docs
    with even doc_id), keyed by the content fingerprint
    (``fingerprint64``: whitespace/case-normalized blake2b), so exact
    re-crawls of seen content flag as seen wherever they appear.

    Output: (doc_id, maybe_seen) for every doc. NO false negatives
    (every even doc and every exact duplicate of one flags True);
    false positives at the classic ~0.8^k rate for the 10-bit/7-hash
    default. Deterministic given the self-owned splitmix64/blake2b
    hashes -> pinned-golden oracle.

    Scale shape: the filter is PARTITIONED into ``shards`` fixed
    sub-filters by a key hash that is independent of the in-shard bit
    hashes, so both paths set identical bits:
    - below ``BLOOM_SEEN_PARTIALS_DRIVER_LIMIT`` distinct set-bit
      partial rows (== filter bits), the driver assembles one global
      word array and broadcasts it once (``ray.put``);
    - beyond, build keys and probe rows co-partition by shard through
      the filesystem exchange and each part builds + probes its own
      sub-filter locally — NO broadcast at all, the true 10^12-key
      path. ``shards`` is the parallelism knob of that path.
    Filter sizing uses the parquet-metadata row count (a deterministic
    2x overestimate of the even half — overestimating only lowers the
    FP rate)."""
    from ..stages.sketch import bloom_indices, bloom_round_bits, bloom_shard
    import ray

    if bits_per_key < 1 or k_hashes < 1 or shards < 1:
        raise ValueError("bits_per_key, k_hashes and shards must be >= 1")

    docs = _docs(sf_dir, ["doc_id", "text"])
    n_expected = docs.count()
    m_shard = bloom_round_bits(
        max(1024, -(-bits_per_key * max(n_expected, 1) // shards)))

    def bit_partial(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[df["doc_id"].to_numpy() % 2 == 0]
        keys = _bloom_fp_keys(sub)
        if len(keys):
            shard = bloom_shard(keys, shards)
            g = np.unique(np.concatenate(
                [shard * m_shard + idx
                 for idx in bloom_indices(keys, m_shard, k_hashes)]))
        else:
            g = np.empty(0, dtype=np.int64)
        return pd.DataFrame({"bit": g})

    partials = docs.map_batches(
        bit_partial, batch_format="pandas").materialize()

    if partials.count() <= BLOOM_SEEN_PARTIALS_DRIVER_LIMIT:
        pdf = partials.to_pandas()
        bits = (np.unique(pdf["bit"].to_numpy().astype(np.int64))
                if len(pdf) else np.empty(0, dtype=np.int64))
        words = np.zeros(shards * (m_shard // 64), dtype=np.uint64)
        if len(bits):
            np.bitwise_or.at(words, bits >> 6,
                             np.uint64(1) << (bits & 63).astype(np.uint64))
        words_ref = ray.put(words)

        def probe(df: pd.DataFrame) -> pd.DataFrame:
            from ..stages.broadcast import get_broadcast

            w = get_broadcast(words_ref)
            keys = _bloom_fp_keys(df)
            ok = np.ones(len(df), dtype=bool)
            if len(keys):
                shard = bloom_shard(keys, shards)
                for idx in bloom_indices(keys, m_shard, k_hashes):
                    g = shard * m_shard + idx
                    bit = (w[g >> 6] >> (g & 63).astype(np.uint64)) & np.uint64(1)
                    ok &= bit.astype(bool)
            return pd.DataFrame({
                "doc_id": df["doc_id"].to_numpy().astype(np.int64),
                "maybe_seen": ok,
            })

        return docs.map_batches(probe, batch_format="pandas")

    return _docs_bloom_seen_exchanged(sf_dir, m_shard, k_hashes, shards)


def _docs_bloom_seen_exchanged(sf_dir: str, m_shard: int, k_hashes: int,
                               shards: int):
    """Scale path: build keys and probe rows co-partition by the shard
    hash; each part builds its sub-filter from its build keys and
    probes its probe rows locally. In-shard bit positions depend only
    on (key, m_shard), so the bits — and therefore every probe answer
    — are identical to the broadcast path's."""
    from ..stages import exchange as ex
    from ..stages.sketch import bloom_shard, build_bloom, bloom_contains

    b_schema = pa.schema([("key", pa.int64())])
    p_schema = pa.schema([("doc_id", pa.int64()), ("key", pa.int64())])
    out_schema = pa.schema([("doc_id", pa.int64()), ("maybe_seen", pa.bool_())])

    def build_rows(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[df["doc_id"].to_numpy() % 2 == 0]
        return pd.DataFrame({"key": _bloom_fp_keys(sub).view(np.int64)})

    def probe_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy().astype(np.int64),
            "key": _bloom_fp_keys(df).view(np.int64),
        })

    docs = _docs(sf_dir, ["doc_id", "text"])
    with (ex.stage("nse_bloom_b_") as b_stage,
          ex.stage("nse_bloom_p_") as p_stage):
        part_of = lambda b: bloom_shard(  # noqa: E731
            b["key"].to_numpy(zero_copy_only=False).view(np.uint64), shards)
        ex.write_exchange(
            docs.map_batches(build_rows, batch_format="pandas")
            .map_batches(lambda t: t.cast(b_schema), batch_format="pyarrow"),
            b_stage, part_of)
        ex.write_exchange(
            docs.map_batches(probe_rows, batch_format="pandas")
            .map_batches(lambda t: t.cast(p_schema), batch_format="pyarrow"),
            p_stage, part_of)

        def part_fn(bt: pa.Table, pt: pa.Table) -> pa.Table:
            if pt.num_rows == 0:
                return out_schema.empty_table()
            words = build_bloom(
                bt["key"].to_numpy(zero_copy_only=False).view(np.uint64),
                m_shard, k_hashes)
            seen = bloom_contains(
                words,
                pt["key"].to_numpy(zero_copy_only=False).view(np.uint64),
                k_hashes)
            return pa.table({"doc_id": pt["doc_id"],
                             "maybe_seen": pa.array(seen, pa.bool_())})

        return ex.map_parts([b_stage, p_stage], shards, part_fn, out_schema,
                            in_schemas=[b_schema, p_schema])


# -- Bigram-LM quality scoring (CCNet-style perplexity filter) ---------------

# hard ceiling on the model rows (unigram + bigram counts) the scoring
# pass may broadcast. LM scoring fundamentally requires the model
# everywhere — past this budget the fix is semantic (raise min_count to
# prune rare bigrams), not a bigger driver; raising loudly beats an OOM
# mid-job (same contract as TFIDF_VOCAB_DRIVER_LIMIT). Tests patch to 0.
LM_MODEL_BROADCAST_LIMIT = 20_000_000


def docs_lm_score(sf_dir: str, min_count: int = 1):
    """Language-model quality scoring in the CCNet/RedPajama mold: fit
    an add-one-smoothed bigram LM on the corpus, then score every
    document by its mean bigram log-probability — the standard
    perplexity-bucket signal for training-data quality filtering
    (Wenzek et al. 2020, public construction). Tokens are the
    ``tfidf``/``top_terms`` convention (lowercase, ``\\w\\w+``);
    p(w2|w1) = (c(w1,w2)+1) / (c(w1)+V) with V the unigram vocabulary
    size.

    Output: (doc_id, n_bigrams, avg_logprob) — avg rounded to 6 dp,
    0.0 (not NULL) for docs with fewer than two tokens.

    Scale shape (two passes, like ``tfidf``):
    1. one tokenize pass emits per-batch PARTIAL unigram rows
       (w2 NULL) and bigram rows with exact counts — never the token
       stream; the shared ``grouped_sum_by_key`` combine (driver below
       ``TERMS_DRIVER_LIMIT`` partial rows, term-hash exchange beyond;
       NULL w2 is a group key like any other). ``min_count`` prunes
       rare bigrams DISTRIBUTED (exact: all of a key's rows co-locate
       per part) before the collect; pruned/unseen bigrams score with
       count 0 under the same smoothing, so the estimate degrades
       gracefully instead of breaking.
    2. the combined model is hard-gated by ``LM_MODEL_BROADCAST_LIMIT``
       and broadcast once as sorted numpy arrays (term-hash ->
       unigram count; vocab-id-pair int64 key -> bigram count;
       BASELINE.md rule: searchsorted arrays, never python dicts);
       scoring is a stateless vectorized map (searchsorted + log +
       bincount per-doc reduction)."""
    import ray
    import ray.data as rd

    if min_count < 1:
        raise ValueError("min_count must be >= 1")

    docs = _docs(sf_dir, ["doc_id", "text"])

    def _flat_tokens(df: pd.DataFrame):
        """(flat token object array, owning-row index array)."""
        toks = df["text"].fillna("").str.lower().str.findall(SK_TOKEN_RE)
        lens = toks.map(len).to_numpy(dtype=np.int64)
        idx = np.repeat(np.arange(len(df)), lens)
        flat = (np.concatenate([np.asarray(t, dtype=object) for t in toks])
                if lens.sum() else np.empty(0, dtype=object))
        return flat, idx

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        flat, idx = _flat_tokens(df)
        cu = pd.Series(flat, dtype=object).value_counts()
        uni = pd.DataFrame({"w1": cu.index.to_numpy(dtype=object),
                            "w2": np.full(len(cu), None, dtype=object),
                            "n": cu.to_numpy().astype(np.int64)})
        same = idx[1:] == idx[:-1] if len(idx) else np.empty(0, dtype=bool)
        big = (pd.DataFrame({"w1": flat[:-1][same], "w2": flat[1:][same]})
               .groupby(["w1", "w2"], sort=False).size()
               .reset_index(name="n"))
        big["n"] = big["n"].astype(np.int64)
        out = pd.concat([uni, big], ignore_index=True)
        return out

    partials_ds = docs.map_batches(
        count_partial, batch_format="pandas").materialize()
    summed = grouped_sum_by_key(partials_ds, ["w1", "w2"], ["n"],
                                TERMS_DRIVER_LIMIT)
    if min_count > 1:
        summed = summed.map_batches(
            lambda t: t.filter(pc.or_(pc.is_null(t["w2"]),
                                      pc.greater_equal(t["n"], min_count))),
            batch_format="pyarrow")
    kept = summed.materialize()
    if kept.count() > LM_MODEL_BROADCAST_LIMIT:
        raise RuntimeError(
            "bigram LM exceeds the broadcast budget "
            f"({LM_MODEL_BROADCAST_LIMIT} model rows): raise min_count "
            "or raise LM_MODEL_BROADCAST_LIMIT")
    mdf = kept.to_pandas()
    if mdf.empty:
        mdf = pd.DataFrame({"w1": pd.Series(dtype=object),
                            "w2": pd.Series(dtype=object),
                            "n": pd.Series(dtype="int64")})
    is_uni = mdf["w2"].isna().to_numpy()
    uni = mdf[is_uni]
    terms = uni["w1"].to_numpy(dtype=object)
    vocab_n = len(terms)
    th = pd.util.hash_array(terms)
    if len(np.unique(th)) != len(th):
        # not an assert: -O must not strip the guard (silent count mixups)
        raise RuntimeError("64-bit vocab hash collision")
    order = np.argsort(th, kind="stable")
    th_s = th[order]
    cu_s = uni["n"].to_numpy().astype(np.int64)[order]

    def _vocab_ids(words: np.ndarray):
        h = pd.util.hash_array(words)
        j = np.clip(np.searchsorted(th_s, h), 0, max(0, vocab_n - 1))
        hit = (th_s[j] == h) if vocab_n else np.zeros(len(words), dtype=bool)
        return j.astype(np.int64), hit

    big = mdf[~is_uni]
    j1, hit1 = _vocab_ids(big["w1"].to_numpy(dtype=object))
    j2, hit2 = _vocab_ids(big["w2"].to_numpy(dtype=object))
    if not (hit1.all() and hit2.all()):
        # every bigram component was counted as a unigram in the same
        # pass; a miss means the combine dropped rows — fail loudly
        raise RuntimeError("bigram component missing from unigram vocab")
    bk = j1 * np.int64(max(vocab_n, 1)) + j2
    bo = np.argsort(bk, kind="stable")
    bk_s = bk[bo]
    cb_s = big["n"].to_numpy().astype(np.int64)[bo]
    model_ref = ray.put((th_s, cu_s, bk_s, cb_s, vocab_n))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        from ..stages.broadcast import get_broadcast

        th_b, cu_b, bk_b, cb_b, v_n = get_broadcast(model_ref)
        flat, idx = _flat_tokens(df)
        n_b = np.zeros(len(df), dtype=np.int64)
        s_b = np.zeros(len(df), dtype=np.float64)
        same = idx[1:] == idx[:-1] if len(idx) else np.empty(0, dtype=bool)
        if same.any():
            if v_n == 0:
                raise RuntimeError("cannot score bigrams with an empty model")
            h = pd.util.hash_array(flat)
            j = np.clip(np.searchsorted(th_b, h), 0, v_n - 1)
            in_vocab = th_b[j] == h
            cu1 = np.where(in_vocab, cu_b[j], 0)
            w1 = np.flatnonzero(same)  # bigram i = (flat[i], flat[i+1])
            keys = j[w1] * np.int64(v_n) + j[w1 + 1]
            both = in_vocab[w1] & in_vocab[w1 + 1]
            if len(bk_b):
                p = np.clip(np.searchsorted(bk_b, keys), 0, len(bk_b) - 1)
                cb = np.where(both & (bk_b[p] == keys), cb_b[p], 0)
            else:
                cb = np.zeros(len(keys), dtype=np.int64)
            lp = np.log((cb + 1.0) / (cu1[w1] + float(v_n)))
            d = idx[w1]
            n_b = np.bincount(d, minlength=len(df)).astype(np.int64)
            s_b = np.bincount(d, weights=lp, minlength=len(df))
        avg = np.where(n_b > 0, np.round(s_b / np.maximum(n_b, 1), 6), 0.0)
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy().astype(np.int64),
            "n_bigrams": n_b,
            "avg_logprob": avg,
        })

    return docs.map_batches(score, batch_format="pandas")


# -- Training-example chunking: fixed token windows with stride --------------


def docs_chunk_windows(sf_dir: str, window: int = 64, stride: int = 48):
    """Split each document into fixed-size token windows with overlap —
    the training-example creation step between cleaning and shard
    packing (``docs_pack_shards`` budgets whole docs; this op produces
    the model-context-sized pieces). Tokens are whitespace runs of the
    trimmed text (the ``word_count`` M5 convention); window ``i`` covers
    tokens ``[i*stride, i*stride + window)`` for every start below the
    token count, so consecutive windows share ``window - stride``
    tokens of context and the tail window is short rather than padded.
    Docs with no tokens emit no rows.

    Output: (doc_id, chunk_id, start_tok, n_tok, chunk_text).

    Scale shape: a stateless vectorized flat-map — no shuffle, no
    aggregate, no driver state. Chunk counts and offsets come from one
    numpy pass (ceil-div + repeat + cumsum); only the final token join
    touches Python strings, proportional to output size. Output rows
    are ~window/stride x the token volume of the input, so the batch
    size is the only memory knob — blocks stay bounded regardless of
    corpus size."""
    if window <= 0 or stride <= 0:
        raise ValueError("window and stride must be positive")

    def chunk(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.strip().str.split()
        lens = toks.map(len).to_numpy(dtype=np.int64)
        k = np.where(lens > 0, -(-lens // stride), 0).astype(np.int64)
        doc_rep = np.repeat(np.arange(len(df)), k)
        cum = np.concatenate([[0], np.cumsum(k)])
        ci = (np.arange(int(k.sum())) - np.repeat(cum[:-1], k)).astype(np.int64)
        starts = ci * stride
        tok_arr = toks.to_numpy()
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy()[doc_rep],
            "chunk_id": ci,
            "start_tok": starts,
            "n_tok": np.minimum(window, lens[doc_rep] - starts),
            "chunk_text": [" ".join(tok_arr[d][s:s + window])
                           for d, s in zip(doc_rep, starts)],
        })

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        chunk, batch_format="pandas")


# -- Range (interval) self-join: same-user event co-occurrence ---------------

# above this many event rows the build side stops broadcasting and both
# join roles hash-bucket on the user key (tests patch to 0)
RANGE_EVENTS_BROADCAST_LIMIT = 5_000_000

_RANGE_PAIRS_SCHEMA = pa.schema([
    ("a_id", pa.int64()), ("b_id", pa.int64()), ("user_id", pa.int64()),
])


def _range_build_state(df: pd.DataFrame, window_us: int):
    """Events frame -> build-side state for the interval probe: the
    sorted unique user ids, a sorted composite key ``user-rank *
    padded-span + (ts - ts_min)``, the event ids in composite order,
    and ``(ts_min, span)``. The span is padded by ``window_us + 1`` so
    a probe's upper bound never crosses into the next user's key range.
    Returns None when ``n_users * span`` would overflow the int64
    composite (the caller then routes to / subdivides the exchange
    path)."""
    u = df["user_id"].to_numpy().astype(np.int64)
    u_unique = np.unique(u)
    if not len(u):
        return u_unique, np.empty(0, np.int64), np.empty(0, np.int64), 0, 1
    t = df["ts"].to_numpy().astype("datetime64[us]").view(np.int64)
    m0 = int(t.min())
    span = int(t.max()) - m0 + int(window_us) + 1
    if span <= 0 or int(len(u_unique)) >= (1 << 62) // int(span):
        return None
    comp = (np.searchsorted(u_unique, u).astype(np.int64) * np.int64(span)
            + (t - m0))
    ix = np.argsort(comp, kind="stable")
    return (u_unique, comp[ix],
            df["event_id"].to_numpy().astype(np.int64)[ix], m0, span)


def _range_probe(df: pd.DataFrame, state, window_us: int) -> pd.DataFrame:
    """Vectorized interval probe shared by both join paths: for every
    probe row ``a`` emit all build rows ``b`` of the same user with
    ``a.ts <= b.ts < a.ts + window`` and ``b.event_id != a.event_id``
    (ts ties emit both directions, matching the SQL self-join). Two
    searchsorted calls bound each probe's candidate run; pair emission
    is the repeat/offset trick — no per-row Python loop."""
    u_unique, comp_s, eid_s, m0, span = state
    empty = pd.DataFrame({
        "a_id": pd.Series(dtype="int64"), "b_id": pd.Series(dtype="int64"),
        "user_id": pd.Series(dtype="int64")})
    if not len(comp_s) or not len(df):
        return empty
    u = df["user_id"].to_numpy().astype(np.int64)
    t = df["ts"].to_numpy().astype("datetime64[us]").view(np.int64)
    e = df["event_id"].to_numpy().astype(np.int64)
    k = np.searchsorted(u_unique, u)
    kc = np.minimum(k, len(u_unique) - 1)
    comp_a = kc.astype(np.int64) * np.int64(span) + (t - m0)
    lo = np.searchsorted(comp_s, comp_a, side="left")
    hi = np.searchsorted(comp_s, comp_a + np.int64(window_us), side="left")
    counts = np.where(u_unique[kc] == u, hi - lo, 0).astype(np.int64)
    total = int(counts.sum())
    if not total:
        return empty
    rep = np.repeat(np.arange(len(u), dtype=np.int64), counts)
    starts = np.concatenate(([np.int64(0)], np.cumsum(counts)[:-1]))
    bix = lo[rep] + (np.arange(total, dtype=np.int64) - starts[rep])
    a_id, b_id = e[rep], eid_s[bix]
    keep = a_id != b_id
    return pd.DataFrame({"a_id": a_id[keep], "b_id": b_id[keep],
                         "user_id": u[rep][keep]})


def events_range_join(sf_dir: str, window_minutes: int = 10,
                      num_parts: int = 32):
    """Range (interval) self-join over the events stream: every pair of
    same-user events ``(a, b)`` with ``a.ts <= b.ts < a.ts + window``
    and ``b != a`` — the co-occurrence / attribution primitive SQL
    spells ``JOIN ... ON b.ts >= a.ts AND b.ts < a.ts + INTERVAL w
    MINUTE`` and the Dataset API lacks natively (custom operator per
    SURVEY guidance; reference analog: the study-level input pairing of
    ns_extract/dataset.py:80-96 is an equality join — this is the
    event-time generalization a crawl/clickstream corpus needs).

    Below ``RANGE_EVENTS_BROADCAST_LIMIT`` events (and while the global
    composite key fits int64) the build side broadcasts as sorted
    composite arrays and probe batches stream with no shuffle; beyond
    either bound, BOTH roles co-partition by user hash through the
    filesystem exchange and the identical kernel runs per part —
    per-part user ranks shrink the composite, so at scale you raise
    ``num_parts`` instead of overflowing (a part that still overflows
    raises with that hint). Output (a_id, b_id, user_id)."""
    import duckdb
    import ray
    import ray.data as rd

    window_us = int(window_minutes) * 60_000_000
    con = duckdb.connect()
    # route on aggregates only — no row materialization before the
    # overflow check (the exchange route would discard it)
    n_events, n_users, ts_lo, ts_hi = con.execute(
        f"SELECT count(*), count(DISTINCT user_id), min(ts), max(ts) "
        f"FROM read_parquet('{sf_dir}/events.parquet')").fetchone()
    state = None
    if 0 < n_events <= RANGE_EVENTS_BROADCAST_LIMIT:
        span = (int(pd.Timestamp(ts_hi).value - pd.Timestamp(ts_lo).value)
                // 1000 + window_us + 1)
        if int(n_users) < (1 << 62) // span:
            build = con.execute(
                f"SELECT event_id, user_id, ts FROM "
                f"read_parquet('{sf_dir}/events.parquet')").fetchdf()
            state = _range_build_state(build, window_us)
    con.close()
    if state is None:
        return _events_range_join_exchanged(sf_dir, window_us, num_parts)
    ref = ray.put(state)

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        from ..stages.broadcast import get_broadcast

        return _range_probe(df, get_broadcast(ref), window_us)

    return rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    ).map_batches(probe, batch_format="pandas")


def _events_range_join_exchanged(sf_dir: str, window_us: int,
                                 num_parts: int):
    """Scale path: events co-partition by hash(user_id); each part is
    both build and probe side (a user's full event set lands in one
    part, so per-part pairs equal the global ones)."""
    import ray.data as rd

    from ..stages import exchange as ex

    in_schema = pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("ts", pa.timestamp("us")),
    ])
    with ex.stage("nse_rjoin_") as stage:
        ex.write_exchange(
            rd.read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id", "ts"])
            .map_batches(lambda b: b.cast(in_schema), batch_format="pyarrow"),
            stage,
            lambda b: ex.int_part(
                [b["user_id"].to_numpy(zero_copy_only=False)], num_parts))

        def pairs_of_part(t: pa.Table) -> pa.Table:
            df = t.to_pandas()
            state = _range_build_state(df, window_us)
            if state is None:
                raise ValueError(
                    "events_range_join: per-part users x time-span "
                    "overflows the int64 composite key; raise num_parts "
                    f"(currently {num_parts}) so parts hold fewer users")
            return pa.Table.from_pandas(
                _range_probe(df, state, window_us),
                preserve_index=False).cast(_RANGE_PAIRS_SCHEMA)

        return ex.map_parts(stage, num_parts, pairs_of_part,
                            _RANGE_PAIRS_SCHEMA)


# -- Cumulative window: per-user running totals ------------------------------


def events_user_running_total(sf_dir: str, num_parts: int = 32):
    """Per-user cumulative window (SQL ``ROWS UNBOUNDED PRECEDING``):
    for every event, the count and value total of the same user's
    events so far, ordered by (ts, event_id). The running sum is kept
    in integer cents (``floor(value * 100 + 0.5)`` — the same IEEE op
    sequence on both oracle sides) so the prefix sums are exact and
    independent of accumulation order. Same user-hash partition
    exchange as sessionize — no driver collect, no broadcast; each part
    is one vectorized pass: lexsort, one int64 cumsum, a per-group base
    subtraction at group starts (no per-user Python loop). Output
    (event_id, user_id, ts, run_n, run_cents)."""
    import ray.data as rd

    from ..stages import exchange as ex

    out_schema = pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("ts", pa.timestamp("us")), ("run_n", pa.int64()),
        ("run_cents", pa.int64()),
    ])
    with ex.stage("nse_runtot_") as stage:
        ex.write_exchange(
            rd.read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "user_id", "ts", "value"]),
            stage,
            lambda b: ex.int_part(
                [b["user_id"].to_numpy(zero_copy_only=False)], num_parts))

        def totals_of_part(t: pa.Table) -> pa.Table:
            df = t.to_pandas().sort_values(
                ["user_id", "ts", "event_id"], kind="stable"
            ).reset_index(drop=True)
            if not len(df):
                return out_schema.empty_table()
            u = df["user_id"].to_numpy().astype(np.int64)
            cents = np.floor(
                df["value"].to_numpy().astype(np.float64) * 100.0 + 0.5
            ).astype(np.int64)
            cs = np.cumsum(cents)
            new_grp = np.ones(len(u), dtype=bool)
            new_grp[1:] = u[1:] != u[:-1]
            starts = np.flatnonzero(new_grp)
            counts = np.diff(np.append(starts, len(u)))
            base = np.where(starts > 0, cs[starts - 1], 0)
            df["run_cents"] = cs - np.repeat(base, counts)
            df["run_n"] = (np.arange(len(u), dtype=np.int64)
                           - np.repeat(starts, counts) + 1)
            return pa.Table.from_pandas(
                df[["event_id", "user_id", "ts", "run_n", "run_cents"]],
                preserve_index=False).cast(out_schema)

        return ex.map_parts(stage, num_parts, totals_of_part,
                            out_schema)


# -- Funnel analysis: ordered-stage conversion counts ------------------------


def events_funnel(sf_dir: str,
                  stages: tuple = ("view", "click", "purchase"),
                  num_parts: int = 32):
    """Funnel conversion over the event stream: for every stage k, the
    number of users with a strictly-increasing timestamp chain
    ``t_1 < t_2 < ... < t_k`` where ``t_i`` is an event of stage-i's
    type — each ``t_i`` the EARLIEST qualifying time (the greedy
    earliest chain, which reaches stage k iff any chain does). The
    clickstream primitive behind signup/checkout conversion reports.

    The stream is pruned to the stage types at the read, co-partitions
    by user hash (a user's chain is decided wholly in its part), and
    each part runs one vectorized pass per stage (``np.minimum.at``
    scatter-min over factorized users — no per-user Python loop).
    Only ``len(stages)``-row partial counts leave the parts, through
    the gated ``grouped_sum_by_key`` combine. Output
    (stage, n_users)."""
    import ray.data as rd

    from ..stages import exchange as ex

    stage_list = list(stages)
    in_schema = pa.schema([
        ("user_id", pa.int64()), ("ts", pa.timestamp("us")),
        ("event_type", pa.string()),
    ])
    out_schema = pa.schema([("stage", pa.string()), ("n_users", pa.int64())])

    def prune(b: pa.Table) -> pa.Table:
        keep = pc.is_in(b["event_type"],
                        value_set=pa.array(stage_list, pa.string()))
        return b.filter(keep).select(in_schema.names).cast(in_schema)

    with ex.stage("nse_funnel_") as stage_dir:
        ex.write_exchange(
            rd.read_parquet(f"{sf_dir}/events.parquet",
                            columns=["user_id", "ts", "event_type"])
            .map_batches(prune, batch_format="pyarrow"),
            stage_dir,
            lambda b: ex.int_part(
                [b["user_id"].to_numpy(zero_copy_only=False)], num_parts))

        def part_counts(tbl: pa.Table) -> pa.Table:
            df = tbl.to_pandas()
            if not len(df):
                return out_schema.empty_table()
            codes, uniques = pd.factorize(df["user_id"], sort=False)
            t = df["ts"].to_numpy().astype("datetime64[us]").view(np.int64)
            et = df["event_type"].to_numpy()
            n_users = len(uniques)
            inf = np.iinfo(np.int64).max
            prev = np.full(n_users, np.iinfo(np.int64).min, dtype=np.int64)
            counts = []
            for s in stage_list:
                cand = np.where((et == s) & (t > prev[codes]), t, inf)
                cur = np.full(n_users, inf, dtype=np.int64)
                np.minimum.at(cur, codes, cand)
                counts.append(int((cur < inf).sum()))
                prev = cur
            return pa.table({
                "stage": pa.array(stage_list, pa.string()),
                "n_users": pa.array(counts, pa.int64()),
            })

        partials = ex.map_parts(stage_dir, num_parts, part_counts,
                                out_schema)
        return grouped_sum_by_key(partials, "stage", ["n_users"],
                                  AGG_PARTIALS_DRIVER_LIMIT)


# -- PMI collocations: phrase mining over corpus bigrams ---------------------

# above this many combined (gram, n) vocabulary rows the PMI scoring
# join leaves the driver for the two-round co-partitioned exchange
# (tests patch to 0)
PMI_SCORE_DRIVER_LIMIT = 5_000_000

_PMI_SCHEMA = pa.schema([
    ("bigram", pa.string()), ("n", pa.int64()), ("pmi", pa.float64()),
])


def _pmi_value(nab, na, nb, tot_t: float, tot_b: float) -> np.ndarray:
    """round(ln((nab/B) / ((na/T) * (nb/T))), 6) — the exact IEEE op
    tree the SQL oracle spells, so scores hash-match."""
    return np.round(np.log(
        (nab.astype(np.float64) / tot_b)
        / ((na.astype(np.float64) / tot_t)
           * (nb.astype(np.float64) / tot_t))), 6)


def docs_pmi_bigrams(sf_dir: str, k: int = 20, min_count: int = 5,
                     num_parts: int = 32):
    """Top-``k`` corpus bigram collocations by pointwise mutual
    information (phrase mining — the multi-word-expression signal a
    tokenizer/vocabulary pipeline wants before merging phrases).
    ``pmi = ln(p(ab) / (p(a) p(b)))`` over adjacent ``\\w\\w+`` token
    pairs, restricted to bigrams with count >= ``min_count``;
    deterministic total order (pmi desc, bigram asc) on the ROUNDED
    score so both oracle sides rank identically.

    One tokenize pass emits per-batch unigram + bigram count partials
    in a single stream (unigram keys never contain a space, bigram
    keys always do; ``#T``/``#B`` sentinel rows carry the token/bigram
    totals — ``#`` cannot appear in a ``\\w`` token), all combined by
    the shared gated ``grouped_sum_by_key``. Scoring joins each
    bigram's count with both words' counts: a driver merge below
    ``PMI_SCORE_DRIVER_LIMIT`` combined vocabulary rows; beyond it a
    two-round co-partitioned exchange join (bigrams by hash(word1)
    against unigrams by hash(word), then re-keyed by hash(word2) —
    the verify_pairs attach shape), each part taking its local top-k
    under the same total order (a bigram's score lands in exactly one
    part, so the global top-k is a subset of the per-part union) and
    the driver merging ``num_parts * k`` rows. The token stream never
    leaves the tokenize pass. Output (bigram, n, pmi)."""
    import ray.data as rd

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.lower().str.findall(SK_TOKEN_RE)
        flat = toks.explode().dropna()
        uc = flat.value_counts()
        # bigrams: adjacent within one doc — shift-compare the doc ids
        # of the exploded stream to mask cross-doc seams
        fv = flat.to_numpy(dtype=object)
        di = flat.index.to_numpy()
        if len(fv) > 1:
            same = di[1:] == di[:-1]
            bg = pd.Series(fv[:-1][same]) + " " + pd.Series(fv[1:][same])
        else:
            bg = pd.Series([], dtype=object)
        bc = bg.value_counts()
        out = pd.DataFrame({
            "gram": np.concatenate([
                uc.index.to_numpy(dtype=object),
                bc.index.to_numpy(dtype=object),
                np.array(["#T", "#B"], dtype=object)]),
            "n": np.concatenate([
                uc.to_numpy().astype(np.int64),
                bc.to_numpy().astype(np.int64),
                np.array([len(flat), len(bg)], dtype=np.int64)]),
        })
        return out

    partials_ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(partial, batch_format="pandas")
        .materialize()
    )
    combined = grouped_sum_by_key(
        partials_ds, "gram", ["n"], TERMS_DRIVER_LIMIT).materialize()
    tot = (combined
           .map_batches(lambda df: df[df["gram"].isin(["#T", "#B"])],
                        batch_format="pandas")
           .to_pandas().set_index("gram")["n"])
    tot_t = float(tot.get("#T", 0))
    tot_b = float(tot.get("#B", 0))
    if tot_b == 0.0 or tot_t == 0.0:
        return rd.from_arrow(_PMI_SCHEMA.empty_table())

    if combined.count() <= PMI_SCORE_DRIVER_LIMIT:
        df = combined.to_pandas()
        is_big = df["gram"].str.contains(" ", regex=False)
        uni = df[~is_big & ~df["gram"].str.startswith("#")]
        big = df[is_big & (df["n"] >= min_count)].copy()
        if not len(big):
            return rd.from_arrow(_PMI_SCHEMA.empty_table())
        w = big["gram"].str.split(" ", n=1, expand=True)
        un = uni.set_index("gram")["n"]
        big["pmi"] = _pmi_value(
            big["n"].to_numpy(),
            un.reindex(w[0].to_numpy()).to_numpy(),
            un.reindex(w[1].to_numpy()).to_numpy(), tot_t, tot_b)
        big = big.sort_values(["pmi", "gram"], ascending=[False, True],
                              kind="stable").head(k)
        return rd.from_pandas(pd.DataFrame({
            "bigram": big["gram"].to_numpy(dtype=object),
            "n": big["n"].to_numpy(),
            "pmi": big["pmi"].to_numpy()}))
    return _pmi_scored_exchanged(combined, k, min_count, tot_t, tot_b,
                                 num_parts)


def _pmi_scored_exchanged(combined, k: int, min_count: int,
                          tot_t: float, tot_b: float, num_parts: int):
    """Scale path for the PMI scoring join: unigram rows partition by
    hash(word); bigram rows attach word-1's count in word-1's part,
    re-exchange to word-2's part for the second count, score, and take
    a per-part top-k under the global total order."""
    import ray.data as rd

    from ..stages import exchange as ex

    uni_schema = pa.schema([("gram", pa.string()), ("n", pa.int64())])
    b1_schema = pa.schema([
        ("bigram", pa.string()), ("n", pa.int64()),
        ("w1", pa.string()), ("w2", pa.string())])
    b2_schema = pa.schema([
        ("bigram", pa.string()), ("n", pa.int64()),
        ("w2", pa.string()), ("na", pa.int64())])

    def uni_rows(df: pd.DataFrame) -> pd.DataFrame:
        m = ~df["gram"].str.contains(" ", regex=False)
        return df[m & ~df["gram"].str.startswith("#")][["gram", "n"]]

    def big_rows(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[df["gram"].str.contains(" ", regex=False)
                 & (df["n"] >= min_count)]
        if not len(sub):
            return pd.DataFrame({"bigram": pd.Series(dtype="object"),
                                 "n": pd.Series(dtype="int64"),
                                 "w1": pd.Series(dtype="object"),
                                 "w2": pd.Series(dtype="object")})
        w = sub["gram"].str.split(" ", n=1, expand=True)
        return pd.DataFrame({"bigram": sub["gram"].to_numpy(dtype=object),
                             "n": sub["n"].to_numpy(),
                             "w1": w[0].to_numpy(dtype=object),
                             "w2": w[1].to_numpy(dtype=object)})

    by_col = lambda c: lambda b: ex.key_part(b, [c], num_parts)  # noqa: E731
    with (ex.stage("nse_pmi_uni_") as uni_stage,
          ex.stage("nse_pmi_b1_") as b1_stage,
          ex.stage("nse_pmi_b2_") as b2_stage):
        ex.write_exchange(
            combined.map_batches(uni_rows, batch_format="pandas")
            .map_batches(lambda b: b.cast(uni_schema), batch_format="pyarrow"),
            uni_stage, by_col("gram"))
        ex.write_exchange(
            combined.map_batches(big_rows, batch_format="pandas")
            .map_batches(lambda b: b.cast(b1_schema), batch_format="pyarrow"),
            b1_stage, by_col("w1"))

        def attach_a(big_t: pa.Table, uni_t: pa.Table) -> pa.Table:
            bdf = big_t.to_pandas()
            un = uni_t.to_pandas().set_index("gram")["n"]
            bdf["na"] = un.reindex(bdf["w1"].to_numpy()).to_numpy()
            return pa.Table.from_pandas(
                bdf[["bigram", "n", "w2", "na"]],
                preserve_index=False).cast(b2_schema)

        mid = ex.map_parts([b1_stage, uni_stage], num_parts, attach_a,
                           b2_schema, in_schemas=[b1_schema, uni_schema])
        ex.write_exchange(mid, b2_stage, by_col("w2"))

        def attach_b_score(mid_t: pa.Table, uni_t: pa.Table) -> pa.Table:
            mdf = mid_t.to_pandas()
            if not len(mdf):
                return _PMI_SCHEMA.empty_table()
            un = uni_t.to_pandas().set_index("gram")["n"]
            nb = un.reindex(mdf["w2"].to_numpy()).to_numpy()
            mdf["pmi"] = _pmi_value(mdf["n"].to_numpy(),
                                    mdf["na"].to_numpy(), nb, tot_t, tot_b)
            top = mdf.sort_values(["pmi", "bigram"],
                                  ascending=[False, True],
                                  kind="stable").head(k)
            return pa.Table.from_pandas(
                top[["bigram", "n", "pmi"]],
                preserve_index=False).cast(_PMI_SCHEMA)

        cand = ex.map_parts([b2_stage, uni_stage], num_parts,
                            attach_b_score, _PMI_SCHEMA,
                            in_schemas=[b2_schema, uni_schema]).to_pandas()
    out = cand.sort_values(["pmi", "bigram"], ascending=[False, True],
                           kind="stable").head(k).reset_index(drop=True)
    return rd.from_pandas(out) if len(out) else rd.from_arrow(
        _PMI_SCHEMA.empty_table())


# -- Interpolated (continuous) quantiles --------------------------------------


def docs_nchars_quantiles_cont(sf_dir: str, qs=(0.25, 0.5, 0.75, 0.95)):
    """Exact INTERPOLATED quantiles (SQL ``quantile_cont`` /
    ``percentile_cont``) of an integer column without a sort — the
    continuous companion of ``docs_nchars_quantiles``, over the same
    shared ``_nchars_histogram`` combine: the two order statistics
    around ``pos = q * (n - 1)`` are read off the cumulative counts
    and linearly interpolated
    (``lo + (pos - floor(pos)) * (hi - lo)`` — exact in float64 for
    int values below 2^52, matching DuckDB's interpolator bit-for-bit
    on integer inputs). Output (q, value[double])."""
    import math

    import ray.data as rd

    values, cum, n = _nchars_histogram(sf_dir)
    rows_q, rows_v = [], []
    for q in qs:
        if n == 0:
            continue
        pos = float(q) * (n - 1)
        lo_k, hi_k = math.floor(pos), math.ceil(pos)
        # order statistic k (0-indexed) = first value with cum >= k+1
        lo_v = float(values[np.searchsorted(cum, lo_k + 1)])
        hi_v = float(values[np.searchsorted(cum, hi_k + 1)])
        rows_q.append(float(q))
        rows_v.append(round(lo_v + (pos - lo_k) * (hi_v - lo_v), 4))
    return rd.from_arrow(pa.table({
        "q": pa.array(rows_q, pa.float64()),
        "value": pa.array(rows_v, pa.float64()),
    }))


# -- Grouped correlation (distributed covariance from exact int sums) --------


def docs_lang_corr(sf_dir: str, num_parts: int = 32):
    """Per-language Pearson correlation between document length
    (n_chars) and token count — the distributed covariance/correlation
    aggregate, computed EXACTLY: per-batch integer moment partials
    (n, Sx, Sy, Sxx, Syy, Sxy — int64, exact) through the shared gated
    ``grouped_sum_by_key`` combine, then one float evaluation of
    ``(n*Sxy - Sx*Sy) / (sqrt(n*Sxx - Sx^2) * sqrt(n*Syy - Sy^2))``
    per group. The SQL oracle computes the SAME expression from the
    same exact integer sums (not the stream-order-dependent ``corr()``
    aggregate), so both sides match to the last bit before the 6dp
    round.

    Exactness bound: the int64 moments hold while every group's
    ``sum(x^2)`` stays below 2^63 (~9.2e18 — e.g. 1e9 docs of 3e4
    chars; a corpus of 1e6-char documents overflows near 1e7 docs).
    x, y >= 0 makes every true moment nonnegative, so the finishing
    pass raises loudly on a negative combined moment (the common wrap
    signature) instead of emitting a silent garbage correlation; past
    the bound, pre-scale the inputs (e.g. n_chars // 256) — the
    DuckDB oracle sums into HUGEINT and would otherwise diverge.
    Output (lang, n, corr_len_tokens)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df["n_chars"].to_numpy().astype(np.int64)
        y = (df["text"].fillna("").str.lower()
             .str.count(SK_TOKEN_RE).to_numpy().astype(np.int64))
        g = pd.DataFrame({
            "lang": df["lang"].to_numpy(),
            "n": np.int64(1), "sx": x, "sy": y,
            "sxx": x * x, "syy": y * y, "sxy": x * y,
        }).groupby("lang", sort=False, dropna=False).sum().reset_index()
        return g

    combined = grouped_sum_by_key(
        _docs(sf_dir, ["doc_id", "lang", "n_chars", "text"])
        .map_batches(partial, batch_format="pandas").materialize(),
        "lang", ["n", "sx", "sy", "sxx", "syy", "sxy"],
        AGG_PARTIALS_DRIVER_LIMIT, num_parts=num_parts)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        moments = df[["n", "sx", "sy", "sxx", "syy", "sxy"]].to_numpy()
        if (moments < 0).any():
            # x, y >= 0: a negative combined moment means int64 wrap
            raise ValueError(
                "docs_lang_corr: int64 moment overflow (negative combined "
                "sum) — pre-scale the inputs; see the docstring bound")
        n = df["n"].to_numpy().astype(np.float64)
        sx = df["sx"].to_numpy().astype(np.float64)
        sy = df["sy"].to_numpy().astype(np.float64)
        sxx = df["sxx"].to_numpy().astype(np.float64)
        syy = df["syy"].to_numpy().astype(np.float64)
        sxy = df["sxy"].to_numpy().astype(np.float64)
        corr = np.round((n * sxy - sx * sy)
                        / (np.sqrt(n * sxx - sx * sx)
                           * np.sqrt(n * syy - sy * sy)), 6)
        return pd.DataFrame({
            "lang": df["lang"].to_numpy(),
            "n": df["n"].to_numpy().astype(np.int64),
            "corr_len_tokens": corr,
        })

    return combined.map_batches(finish, batch_format="pandas")


# -- Global event-time sliding window (range partition + halo) ---------------


def events_global_rolling_sum(sf_dir: str, window_minutes: int = 60,
                              num_parts: int = 32):
    """GLOBAL event-time sliding window: for every event, the count and
    integer-cents value total of ALL events (any user) in the trailing
    ``window_minutes`` — SQL ``ORDER BY ts RANGE BETWEEN w PRECEDING
    AND CURRENT ROW`` with no PARTITION BY. The per-user rolling ops
    co-partition by user; a global window has no partition key, so this
    is the RANGE-PARTITION + HALO pattern: rows range-partition on ts
    (the global_rank shape), and every row additionally duplicates into
    the later part(s) whose leading windows reach back to it, flagged
    ``emit=false`` — counted by those parts' windows, emitted only by
    its home part. The effective part count is floored so a part span
    is at least the window width (halo ≈ one part ahead; a degenerate
    ts-range collapses to one part instead of duplicating rows
    num_parts times). Each part is one vectorized pass: sort by ts,
    one int64 prefix sum, two searchsorted calls (RANGE semantics:
    ts-ties are frame peers on both bounds). Output
    (event_id, ts, win_n, win_cents)."""
    import math

    import ray.data as rd

    from ..stages import exchange as ex

    w_us = int(window_minutes) * 60_000_000
    out_schema = pa.schema([
        ("event_id", pa.int64()), ("ts", pa.timestamp("us")),
        ("win_n", pa.int64()), ("win_cents", pa.int64()),
    ])

    from ray.data.aggregate import Max, Min

    base = rd.read_parquet(f"{sf_dir}/events.parquet",
                           columns=["event_id", "ts", "value"])
    mm = base.aggregate(Min("ts"), Max("ts"))
    if mm["min(ts)"] is None:
        return rd.from_arrow(out_schema.empty_table())
    gmin = int(pd.Timestamp(mm["min(ts)"]).value) // 1000
    gmax = int(pd.Timestamp(mm["max(ts)"]).value) // 1000
    span = gmax - gmin + 1
    eff_parts = max(1, min(num_parts, span // max(w_us, 1) + 1))
    chunk = -(-span // eff_parts)
    halo_k = math.ceil(w_us / chunk)  # how many parts a window reaches back

    mid_schema = pa.schema([
        ("event_id", pa.int64()), ("m", pa.int64()),
        ("cents", pa.int64()), ("part", pa.int64()),
        ("emit", pa.bool_()),
    ])

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        m = df["ts"].to_numpy().astype("datetime64[us]").view(np.int64)
        cents = np.floor(
            df["value"].to_numpy().astype(np.float64) * 100.0 + 0.5
        ).astype(np.int64)
        eid = df["event_id"].to_numpy().astype(np.int64)
        home = (m - gmin) // chunk
        frames = [pd.DataFrame({
            "event_id": eid, "m": m, "cents": cents,
            "part": home, "emit": True})]
        for k in range(1, halo_k + 1):
            # part home+k's leading window [start, start+w) reaches
            # back to rows with m >= start - w
            start = gmin + (home + k) * chunk
            need = (home + k < eff_parts) & (m >= start - w_us)
            if need.any():
                frames.append(pd.DataFrame({
                    "event_id": eid[need], "m": m[need],
                    "cents": cents[need], "part": home[need] + k,
                    "emit": False}))
        return pd.concat(frames, ignore_index=True)

    with ex.stage("nse_grs_") as stage:
        ex.write_exchange(
            base.map_batches(explode, batch_format="pandas")
            .map_batches(lambda b: b.cast(mid_schema),
                         batch_format="pyarrow"),
            stage,
            lambda b: b["part"].to_numpy(zero_copy_only=False))

        def roll_part(t: pa.Table) -> pa.Table:
            df = t.to_pandas().sort_values(["m", "event_id"],
                                           kind="stable")
            m = df["m"].to_numpy()
            pref = np.concatenate(
                [[np.int64(0)], np.cumsum(df["cents"].to_numpy())])
            lo = np.searchsorted(m, m - w_us, side="left")
            hi = np.searchsorted(m, m, side="right")
            keep = df["emit"].to_numpy()
            return pa.table({
                "event_id": pa.array(df["event_id"].to_numpy()[keep],
                                     pa.int64()),
                "ts": pa.array(m[keep].view("datetime64[us]"),
                               pa.timestamp("us")),
                "win_n": pa.array((hi - lo)[keep], pa.int64()),
                "win_cents": pa.array((pref[hi] - pref[lo])[keep],
                                      pa.int64()),
            })

        return ex.map_parts(stage, eff_parts, roll_part,
                            out_schema)


# -- Grouped mode: most frequent value per key --------------------------------


def events_user_top_type(sf_dir: str, num_parts: int = 32):
    """Grouped mode: each user's most frequent event type (count desc,
    type asc tie-break) — SQL's ``mode() WITHIN GROUP`` /
    ``row_number() OVER (PARTITION BY user ORDER BY n DESC)`` shape.
    Per-batch (user, type) count partials feed the shared gated
    ``grouped_sum_by_key`` combine; the argmax then needs each user's
    rows co-located, which the (user, type) combine does NOT give
    beyond its gate — so the argmax has both paths: a driver groupby
    below ``AGG_PARTIALS_DRIVER_LIMIT`` combined rows, a USER-hash
    partition exchange beyond it (per-part argmax exact). Output
    (user_id, event_type, n_events); a NULL event type is a value like
    any other, as in SQL's GROUP BY."""
    import ray.data as rd

    from ..stages import exchange as ex

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["user_id", "event_type"], sort=False, dropna=False)
             .size().rename("n_events").reset_index())
        g["n_events"] = g["n_events"].astype("int64")
        return g

    combined = grouped_sum_by_key(
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["user_id", "event_type"])
        .map_batches(partial, batch_format="pandas").materialize(),
        ["user_id", "event_type"], ["n_events"],
        AGG_PARTIALS_DRIVER_LIMIT, num_parts=num_parts)

    out_schema = pa.schema([
        ("user_id", pa.int64()), ("event_type", pa.string()),
        ("n_events", pa.int64())])

    def argmax(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["n_events", "event_type"],
                            ascending=[False, True], kind="stable")
        return df.groupby("user_id", sort=False).head(1)

    return ex.combine_by_key(combined, ["user_id"], argmax, out_schema,
                             AGG_PARTIALS_DRIVER_LIMIT, num_parts)


# -- Pivot / crosstab: lang x length-quartile counts, wide --------------------


def docs_lang_bucket_pivot(sf_dir: str, num_parts: int = 32):
    """PIVOT / crosstab: one row per language with a column per corpus
    length quartile (the conditional-aggregation surface —
    ``count(*) FILTER (bucket = k)`` — that mix reports render wide).
    Phase 1 reuses the distributed value-histogram quantiles for the
    three thresholds; phase 2 pivots INSIDE the per-batch partial (one
    ``np.bincount`` over ``lang_code * 4 + bucket`` — no row
    explosion, one partial row per language per batch) and the shared
    gated ``grouped_sum_by_key`` combine sums the wide counts. Output
    (lang, n_b0..n_b3, n_total)."""
    import ray
    import ray.data as rd

    cols = ["n_b0", "n_b1", "n_b2", "n_b3", "n_total"]
    qdf = docs_nchars_quantiles(sf_dir, qs=(0.25, 0.5, 0.75)).to_pandas()
    if qdf.empty:
        return rd.from_arrow(pa.schema(
            [("lang", pa.string())] + [(c, pa.int64()) for c in cols]
        ).empty_table())
    ref = ray.put(np.sort(qdf["value"].to_numpy(np.int64)))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        from ..stages.broadcast import get_broadcast

        thr = get_broadcast(ref)
        b = np.searchsorted(thr, df["n_chars"].to_numpy(), side="left")
        # NULL lang gets its own code (the default -1 sentinel would
        # index off the front of the bincount)
        codes, uniq = pd.factorize(df["lang"], sort=False,
                                   use_na_sentinel=False)
        cnt = np.bincount(codes * 4 + b, minlength=len(uniq) * 4
                          ).reshape(-1, 4).astype(np.int64)
        out = pd.DataFrame({"lang": uniq})
        for k in range(4):
            out[f"n_b{k}"] = cnt[:, k]
        out["n_total"] = cnt.sum(axis=1)
        return out

    return grouped_sum_by_key(
        _docs(sf_dir, ["doc_id", "lang", "n_chars"])
        .map_batches(partial, batch_format="pandas").materialize(),
        "lang", cols, AGG_PARTIALS_DRIVER_LIMIT, num_parts=num_parts)
