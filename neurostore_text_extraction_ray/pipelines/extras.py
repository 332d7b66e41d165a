"""Query-only pipelines (SURVEY coverage beyond the core operator
library in ``steps.py``): flagship wrappers, rows-only operators, and
modality-specific end-to-end extractions. Each takes ``sf_dir`` and
returns a lazy Dataset; all are registered for the CLI."""

from __future__ import annotations

import json
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages import exchange as ex


def _canon_json(value) -> str:
    """Canonical JSON for nested (list<struct>) query outputs so the
    driver's value-hash compare sees a plain string column on both the
    Ray side and the pinned-golden oracle side."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _vec_hex(vec) -> str:
    """Exact (bit-level) serialization of a float32 vector — avoids any
    float-repr ambiguity in the compare."""
    import numpy as np_

    return np_.asarray(vec, dtype=np_.float32).tobytes().hex()


def _flagship(sf_dir: str):
    """pages synthesis -> url-hash exchange -> per-part dedup + extract
    -> (url, extracted_text) for cleanly extracted rows."""
    from . import flagship
    from ..sources import pages as pages_src

    ds = flagship.flagship_dataset(pages_src.read_pages(sf_dir))

    def ok_rows(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.equal(batch["parse_failed"], False), pc.equal(batch["empty"], False)
        )
        return batch.filter(mask).select(["url", "extracted_text"])

    return ds.map_batches(ok_rows, batch_format="pyarrow")


def _flagship_titles(sf_dir: str):
    """M11 text-source projection: struct-field projection of the
    extracted metadata (title) — pc.struct_field over the flagship
    output."""
    from . import flagship
    from ..sources import pages as pages_src

    ds = flagship.flagship_dataset(pages_src.read_pages(sf_dir))

    def project(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.equal(batch["parse_failed"], False), pc.equal(batch["empty"], False)
        )
        sub = batch.filter(mask)
        return pa.table({
            "url": sub["url"],
            "title": pc.struct_field(sub["metadata"], "title"),
        })

    return ds.map_batches(project, batch_format="pyarrow")


def _docs_langid_quality(sf_dir: str):
    """Language-ID + quality scoring over documents.

    MEASURED (round 3, VERDICT r02 #9 follow-up): the pandas
    explode+isin batch kernels (``lang_id_batch`` /
    ``quality_features_batch``) are 1.8-2.4x SLOWER than the scalar
    loops on this corpus at both 300 B and 2.4 KB docs — per-word set
    membership in a generator expression is already C-speed, while
    explode materializes a words×docs frame. The scalar kernels ARE
    the fast path; the batch variants remain available with a pinned
    exact-equality contract (tests/test_textstats.py) for callers
    whose text shapes differ."""
    import pandas as pd_
    import ray.data as rd

    from ..functions.textstats import lang_id, quality_features

    def f(df: pd_.DataFrame) -> pd_.DataFrame:
        li = [lang_id(t) for t in df["text"]]
        out = pd_.DataFrame()
        out["doc_id"] = df["doc_id"].to_numpy()
        out["lang_pred"] = [x[0] for x in li]
        out["lang_conf"] = [x[1] for x in li]
        out["quality_score"] = [
            quality_features(t)["quality_score"] for t in df["text"]]
        return out

    return rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"]).map_batches(
        f, batch_format="pandas")


def _docs_fingerprint(sf_dir: str):
    import pandas as pd_
    import ray.data as rd

    from ..functions.textstats import fingerprint64

    def f(df: pd_.DataFrame) -> pd_.DataFrame:
        out = pd_.DataFrame()
        out["doc_id"] = df["doc_id"]
        out["fingerprint"] = df["text"].map(lambda t: fingerprint64(t) >> 1).astype("int64")
        return out

    return rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"]).map_batches(
        f, batch_format="pandas")


def _docs_char_entropy(sf_dir: str):
    """Character-entropy quality signal per doc (bits/char). Stateless
    vectorized-per-doc map (C-level passes inside the scalar kernel —
    the textstats MEASURED preference over explode kernels); exact SQL
    oracle via string_split + grouped -sum(p*log2 p)."""
    import pandas as pd_
    import ray.data as rd

    from ..functions.textstats import char_entropy

    def f(df: pd_.DataFrame) -> pd_.DataFrame:
        out = pd_.DataFrame()
        out["doc_id"] = df["doc_id"].to_numpy()
        out["char_entropy"] = df["text"].map(
            lambda t: round(char_entropy(t), 6))
        return out

    return rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"]).map_batches(
        f, batch_format="pandas")


def _docs_compression_ratio(sf_dir: str):
    """zlib-compressibility quality signal per doc — highly
    compressible pages are template/boilerplate-heavy (Gopher-family
    heuristic). Golden-oracled: zlib output is not SQL-expressible."""
    import pandas as pd_
    import ray.data as rd

    from ..functions.textstats import zlib_ratio

    def f(df: pd_.DataFrame) -> pd_.DataFrame:
        trips = df["text"].map(zlib_ratio)
        out = pd_.DataFrame()
        out["doc_id"] = df["doc_id"].to_numpy()
        out["n_bytes"] = trips.map(lambda t: t[0]).astype("int64")
        out["n_compressed"] = trips.map(lambda t: t[1]).astype("int64")
        out["zlib_ratio"] = trips.map(lambda t: round(t[2], 6))
        return out

    return rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"]).map_batches(
        f, batch_format="pandas")


def _docs_token_count(sf_dir: str):
    """BPE-ish token counting (GPT-2 pre-tokenizer regex) per document.
    Golden-oracled: the pattern uses a lookahead RE2/DuckDB doesn't
    support, so it is not SQL-expressible."""
    import pandas as pd_
    import ray.data as rd

    from ..functions.textstats import token_count_batch, word_count_batch

    def f(df: pd_.DataFrame) -> pd_.DataFrame:
        out = pd_.DataFrame()
        out["doc_id"] = df["doc_id"].to_numpy()
        out["n_tokens"] = token_count_batch(df["text"])
        out["n_words"] = word_count_batch(df["text"])
        return out

    return rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"]).map_batches(
        f, batch_format="pandas")


def _minhash_groups(sf_dir: str):
    import ray.data as rd

    from ..stages.dedup import minhash_near_dup

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return minhash_near_dup(docs, threshold=0.7, bands=16)


def _minhash_dedup_incremental(sf_dir: str):
    """Incremental near-dup exercised FOR REAL inside the gate: run the
    incremental operator over the first half of the corpus, then over
    the full corpus against the same state dir — the second run
    re-sketches only the new docs and merges the prior verified edges.
    The final labels provably equal from-scratch ``minhash_near_dup``
    (tests/test_dedup_incremental.py asserts the equality under edits,
    adds and removals), so the query shares the minhash_dedup_groups
    golden."""
    import shutil
    import tempfile

    import ray.data as rd

    from ..stages.dedup_incremental import minhash_near_dup_incremental

    state = tempfile.mkdtemp(prefix="nse_inc_q_")
    try:
        docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
        half = docs.map_batches(
            lambda b: b.filter(pc.less(b["doc_id"], 250)),
            batch_format="pyarrow")
        minhash_near_dup_incremental(half, state, threshold=0.7, bands=16)
        labels, stats = minhash_near_dup_incremental(
            docs, state, threshold=0.7, bands=16)
        if stats["n_sketched"] >= stats["n_docs"]:
            raise RuntimeError(
                "incremental run re-sketched the whole corpus "
                f"({stats}) — state reuse is broken")
        return labels.materialize()
    finally:
        shutil.rmtree(state, ignore_errors=True)


def _simhash_dedup_incremental(sf_dir: str):
    """Incremental SimHash near-dup (``method='simhash'`` of the same
    state machinery as ``_minhash_dedup_incremental``): first half of
    the corpus, then the full corpus against the same state dir; the
    second run sketches only the new docs. Equality with from-scratch
    ``simhash_near_dup`` is test-asserted
    (tests/test_dedup_incremental.py), so the query shares the
    simhash_dedup_groups golden."""
    import shutil
    import tempfile

    import ray.data as rd

    from ..stages.dedup_incremental import minhash_near_dup_incremental

    state = tempfile.mkdtemp(prefix="nse_incs_q_")
    try:
        docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
        half = docs.map_batches(
            lambda b: b.filter(pc.less(b["doc_id"], 250)),
            batch_format="pyarrow")
        kw = dict(method="simhash", bands=4, hamming_threshold=3)
        minhash_near_dup_incremental(half, state, **kw)
        labels, stats = minhash_near_dup_incremental(docs, state, **kw)
        if stats["n_sketched"] >= stats["n_docs"]:
            raise RuntimeError(
                "incremental simhash run re-sketched the whole corpus "
                f"({stats}) — state reuse is broken")
        return labels.materialize()
    finally:
        shutil.rmtree(state, ignore_errors=True)


def _docs_decontaminate(sf_dir: str):
    """Benchmark decontamination over the documents table: benchmark
    side = docs with ``doc_id % 50 == 0`` (a deterministic stand-in
    for a held-out eval set); flags every corpus doc sharing >= 1
    distinct 5-word shingle with it. Oracled as exact ANSI SQL (the
    shingle construction is re-expressed with regexp_extract_all +
    list slicing; corpus is ASCII so RE2 ``\\w`` == Python ``\\w``)."""
    import ray.data as rd

    from ..stages.decontam import decontaminate

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def bench_filter(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 50 == 0))

    bench = docs.map_batches(bench_filter, batch_format="pyarrow")
    return decontaminate(docs, bench)


def _docs_line_dedup(sf_dir: str):
    """Corpus-level keep-first line dedup over a planted multi-line
    corpus. The raw documents text is single-line word soup, so — like
    the planted-abbreviation queries — the wrapper derives a
    deterministic multi-line column (shared boilerplate lines + a
    unique per-doc body line) identically here and in the ANSI-SQL
    oracle; the operator (``stages/linededup.line_dedup``) is generic
    over any (id, text) dataset."""
    import ray.data as rd

    from ..stages.linededup import line_dedup

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def plant(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        out = []
        for did, t in zip(ids, b["text"].to_pylist()):
            parts = []
            if did % 2 == 0:
                parts.append("COOKIE NOTICE we use cookies")
            if did % 3 == 0:
                parts.append("NAV home about contact")
            parts.append("body " + (t or ""))
            parts.append("Copyright 2099 Example Corp")
            out.append("\n".join(parts))
        return pa.table({
            "doc_id": pa.compute.cast(b["doc_id"], pa.int64()),
            "text": pa.array(out, pa.string()),
        })

    return line_dedup(docs.map_batches(plant, batch_format="pyarrow"))


# C4 line rule: terminal punctuation + >=5 words + no 'javascript'.
_C4_LINE_END_RE = re.compile(r'[.!?"]$')
_C4_WORD_RE = re.compile(r"\S+")
_C4_SENT_RE = re.compile(r"[.!?]")


def _docs_c4_rules(sf_dir: str):
    """C4 cleaning rules (Raffel et al. 2020 §2.2, public
    construction) over a planted multi-line web page per doc. The raw
    documents text is single-line word soup, so — like the line-dedup
    query — the wrapper derives a deterministic page (nav line,
    javascript notice, body with 2-3 sentences, short line, lorem
    ipsum filler, code line with '{', keyed on doc_id residues)
    identically here and in the ANSI-SQL oracle.

    Line filter: keep lines ending in terminal punctuation (.!?"),
    with >=5 words, not containing 'javascript' (case-insensitive).
    Page filter: drop pages containing 'lorem ipsum' (lowercased) or
    '{' anywhere in the raw page, or with <3 sentences ([.!?] count)
    in the kept text, or with no kept lines. Emits per-doc line/
    sentence counts, the page ``keep`` verdict and the cleaned text.
    Stateless vectorizable map — scales as a pure ``map_batches``
    stage (no shuffle, no driver state)."""
    import ray.data as rd

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def plant_and_filter(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        n_lines = np.zeros(len(ids), dtype=np.int64)
        n_kept = np.zeros(len(ids), dtype=np.int64)
        n_sent = np.zeros(len(ids), dtype=np.int64)
        keep = np.zeros(len(ids), dtype=bool)
        clean = []
        for i, (did, t) in enumerate(zip(ids, b["text"].to_pylist())):
            lines = []
            if did % 2 == 0:
                lines.append("Home | About | Contact")
            if did % 7 == 0:
                lines.append(
                    "Please enable javascript in your browser settings.")
            body = ("First the page content follows. " + (t or "")
                    + " appears in the body.")
            if did % 4 != 1:
                body += " The article ends here."
            lines.append(body)
            if did % 5 == 0:
                lines.append("Short line.")
            if did % 11 == 0:
                lines.append("It contains lorem ipsum filler text today.")
            if did % 13 == 0:
                lines.append("var config = { mode: 1 };")
            full = "\n".join(lines)
            kept = [l for l in lines
                    if _C4_LINE_END_RE.search(l)
                    and len(_C4_WORD_RE.findall(l)) >= 5
                    and "javascript" not in l.lower()]
            ctext = "\n".join(kept)
            n_lines[i] = len(lines)
            n_kept[i] = len(kept)
            n_sent[i] = len(_C4_SENT_RE.findall(ctext))
            keep[i] = ("lorem ipsum" not in full.lower()
                       and "{" not in full
                       and n_sent[i] >= 3 and len(kept) >= 1)
            clean.append(ctext)
        return pa.table({
            "doc_id": pa.array(ids.astype(np.int64), pa.int64()),
            "n_lines": pa.array(n_lines, pa.int64()),
            "n_lines_kept": pa.array(n_kept, pa.int64()),
            "n_sentences": pa.array(n_sent, pa.int64()),
            "keep": pa.array(keep, pa.bool_()),
            "clean_text": pa.array(clean, pa.string()),
        })

    return docs.map_batches(plant_and_filter, batch_format="pyarrow")


def _docs_dup_spans(sf_dir: str, k: int = 5):
    """Cross-document duplicate-span detection
    (``stages/dupspans.dup_spans``) over a corpus with planted shared
    boilerplate sentences: the raw documents text is unique word soup,
    so — like the line-dedup query — the wrapper prepends/appends
    deterministic boilerplate (two rotating prefix sentences + a
    universal footer) whose k-word windows repeat across documents;
    the operator marks the duplicated char ranges in every non-winner
    document. Pinned-golden oracle (char spans of word windows are not
    reasonably ANSI-SQL-expressible)."""
    import ray.data as rd

    from ..stages.dupspans import dup_spans

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def plant(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        out = []
        for did, t in zip(ids, b["text"].to_pylist()):
            parts = []
            if did % 2 == 0:
                parts.append("cookie notice please accept our cookie "
                             "policy to continue reading.")
            if did % 3 == 0:
                parts.append("subscribe to our weekly newsletter for "
                             "updates and exclusive offers.")
            parts.append(t or "")
            parts.append("copyright example corporation all rights "
                         "reserved worldwide terms apply.")
            out.append(" ".join(parts))
        return pa.table({
            "doc_id": pa.compute.cast(b["doc_id"], pa.int64()),
            "text": pa.array(out, pa.string()),
        })

    return dup_spans(docs.map_batches(plant, batch_format="pyarrow"), k=k)


def _docs_training_mix(sf_dir: str, quality_min: float = 0.5,
                       budget: int = 20000):
    """Composite training-data-mix pipeline — the headline composition
    of the engine's filter/dedup/pack primitives in ONE streaming
    dataflow:

      1. language-ID + quality score (scalar kernels, rounded to 6 —
         the filter applies to the ROUNDED score on both sides),
         keep lang_pred == 'en' AND quality_score >= ``quality_min``;
      2. exact-dedup survivors (min doc_id per 16-byte blake2b content
         hash — per-batch partials, then ``dedup_exact``'s
         ``steps.keep_content_winners``);
      3. pack winners into ~``budget``-char shards in doc_id order via
         the generic two-phase ``steps.pack_shards``.

    Output (doc_id, n_chars, shard). Oracled end-to-end as one ANSI-SQL
    CTE chain (langid SQL -> GROUP BY text -> SUM() OVER window)."""
    import numpy as np_
    import ray.data as rd

    from ..functions.textstats import lang_id, quality_features
    from ..pipelines.steps import keep_content_winners, pack_shards

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text", "n_chars"])

    def survivors(df: pd.DataFrame) -> pd.DataFrame:
        mask = np_.fromiter(
            (lang_id(t)[0] == "en"
             and round(quality_features(t)["quality_score"], 6)
             >= quality_min
             for t in df["text"]),
            dtype=bool, count=len(df))
        return df.loc[mask].reset_index(drop=True)

    surv = docs.map_batches(survivors, batch_format="pandas").materialize()

    kept = keep_content_winners(surv, surv)
    return pack_shards(kept, "doc_id", "n_chars", budget)


def _docs_normalize_text(sf_dir: str):
    """Web-text normalization over deterministically planted messy
    whitespace (leading tab runs, doubled spaces, newline bursts — the
    corpus itself is single-spaced ASCII). NFC and the control-char
    strip are identities on ASCII, so the full kernel is exactly
    re-expressed in the ANSI-SQL oracle; unicode/control behavior is
    pinned by unit tests."""
    import ray.data as rd

    from ..functions.normalize import normalize_web_text

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64")
        base = df["text"].fillna("")
        import numpy as np_

        messy = base.where(ids % 3 != 0, base.str.replace(" ", "  "))
        prefix = pd.Series(
            np_.where(ids % 2 == 0, "  \t", ""), index=df.index)
        suffix = pd.Series(
            np_.where(ids % 5 == 0, "\n\n\n\nEnd.", ""), index=df.index)
        messy = prefix + messy + suffix + " "
        out = pd.DataFrame()
        out["doc_id"] = ids
        out["normalized_text"] = messy.map(normalize_web_text)
        out["n_chars_norm"] = out["normalized_text"].str.len().astype("int64")
        return out

    return docs.map_batches(f, batch_format="pandas")


def _docs_url_filter(sf_dir: str):
    """URL-based filtering (the standard crawl-hygiene pass: derive
    the registered domain, flag blocklisted domains). Urls are planted
    deterministically (the documents table has no url column);
    extraction is vectorized pandas str ops; the blocklist is a tiny
    frozen set (broadcast-trivial — at a real blocklist's 10^6 scale
    it ships once via ray.put exactly like the linker vocabulary).
    Output: (doc_id, domain, blocked). Oracled as exact ANSI SQL."""
    import ray.data as rd

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])
    blocklist = {"site0.example", "site4.example"}

    def f(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64")
        url = ("https://sub" + (ids % 3).astype(str) + ".site"
               + (ids % 7).astype(str) + ".example/doc/" + ids.astype(str))
        host = url.str.extract(r"^[a-z]+://([^/]+)/", expand=False)
        # registered domain = last two dot-labels of the host
        domain = host.str.extract(r"([^.]+\.[^.]+)$", expand=False)
        out = pd.DataFrame()
        out["doc_id"] = ids
        out["domain"] = domain
        out["blocked"] = domain.isin(blocklist)
        return out

    return docs.map_batches(f, batch_format="pandas")


_ROBOTS_TXT = """\
# planted site policy (the documents table has no fetch metadata)
User-agent: badbot
Disallow: /

User-agent: *
Disallow: /private/
Allow: /private/archive/
Disallow: /*.tmp$
"""


def _docs_robots_filter(sf_dir: str):
    """robots.txt compliance filter (RFC 9309 kernel in
    ``functions/robots.py``): per-doc planted paths checked against a
    planted site policy — longest-match rules with wildcard and
    end-anchor, Allow-beats-Disallow ties. The ruleset compiles ONCE
    on the driver and rides into tasks by closure (per-HOST rulesets
    on a real crawl broadcast via ray.put like the url blocklist).
    Output (doc_id, path, allowed); the plant makes `allowed` a pure
    function of doc_id % 4, so the oracle is exact ANSI SQL while the
    kernel semantics are covered by unit tests."""
    import numpy as np_
    import ray.data as rd

    from ..functions.robots import allowed_mask, parse_robots

    rules = parse_robots(_ROBOTS_TXT, agent="graftbot/1.0")

    def f(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64")
        m = ids % 4
        path = pd.Series(
            np_.where(m == 0, "/public/" + ids.astype(str),
            np_.where(m == 1, "/private/" + ids.astype(str),
            np_.where(m == 2, "/private/archive/" + ids.astype(str),
                      "/cache/" + ids.astype(str) + ".tmp"))),
            index=df.index)
        return pd.DataFrame({
            "doc_id": ids,
            "path": path,
            "allowed": allowed_mask(rules, path.tolist()),
        })

    return rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"]).map_batches(
        f, batch_format="pandas")


def _docs_top_terms_cms(sf_dir: str):
    """Approximate heavy hitters over the documents text via the
    Count-Min sketch (golden-oracled: the estimate depends on sketch
    collisions, not SQL-expressible; a test asserts the top-k SET
    equals the exact ``top_terms`` on both corpora)."""
    import ray.data as rd

    from ..stages.sketch import cms_top_terms

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return cms_top_terms(docs)


def _docs_pii_redact(sf_dir: str):
    """PII redaction over deterministically planted PII (the corpus
    text itself is digit-free — verified inert): emails on doc_id%2,
    phones on doc_id%3, IPv4 on doc_id%5. The same plants are
    reconstructed in the ANSI-SQL oracle; counts apply sequentially
    (phone counted after email redaction, etc.) on both sides."""
    import ray.data as rd

    from ..functions.pii import redact_frame

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame()
        out["doc_id"] = df["doc_id"].astype("int64")
        texts = []
        for did, t in zip(out["doc_id"], df["text"]):
            parts = []
            if did % 2 == 0:
                parts.append(f"Contact user{did}@example.com now.")
            if did % 3 == 0:
                parts.append(f"Call 555-010-{did % 10000:04d} today.")
            if did % 5 == 0:
                parts.append(f"Host 10.0.{did % 256}.{(did * 7) % 256} up.")
            parts.append(t if isinstance(t, str) else "")
            texts.append(" ".join(parts))
        out["text"] = texts
        return out

    return docs.map_batches(plant, batch_format="pandas").map_batches(
        redact_frame, batch_format="pandas")


def _simhash_groups(sf_dir: str):
    import ray.data as rd

    from ..stages.dedup import simhash_near_dup

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return simhash_near_dup(docs, hamming_threshold=3)


def _ngram_jaccard_dups(sf_dir: str):
    """Exact n-gram Jaccard verification over MinHash-LSH candidates:
    (a, b, jaccard) pairs at >= 0.5 similarity (golden-oracled)."""
    import ray.data as rd

    from ..stages.dedup import ngram_jaccard_pairs

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ds = ngram_jaccard_pairs(docs, k_shingle=3, threshold=0.5)

    def r(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["jaccard"] = df["jaccard"].round(6)
        return df

    return ds.map_batches(r, batch_format="pandas")


def _embeddings_with_planted_dups(sf_dir: str):
    """The stored vectors are random (no natural near-dups at 0.99
    cosine), so the first 20 are re-planted under vec_id+100000 — those
    MUST collapse onto their originals, exercising the positive path of
    every embedding-dedup gate."""
    import duckdb
    import ray.data as rd

    con = duckdb.connect()
    head = con.execute(
        f"SELECT vec_id, embedding FROM "
        f"read_parquet('{sf_dir}/embeddings.parquet') "
        f"WHERE vec_id < 20 ORDER BY vec_id").fetchall()
    con.close()
    dup = pa.table({
        "vec_id": pa.array([int(v) + 100000 for v, _ in head], pa.int64()),
        # match the parquet's list<float> so the union needs no promotion
        "embedding": pa.array([e for _, e in head], pa.list_(pa.float32())),
    })
    vecs = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                           columns=["vec_id", "embedding"])
    return vecs.union(rd.from_arrow(dup))


def _embedding_cosine_dups(sf_dir: str):
    """Embedding-cosine near-dup via sign-LSH buckets + exact cosine
    verify: (vec_id, dup_group) (golden-oracled) over the planted-dup
    corpus."""
    from ..stages.dedup import embedding_cosine_dup

    return embedding_cosine_dup(
        _embeddings_with_planted_dups(sf_dir), threshold=0.99)


def _embeddings_kmeans(sf_dir: str):
    """k-means cluster assignment over the embeddings table
    (golden-oracled: the Lloyd fit is deterministic on the id-ordered
    driver sample, the assignment one vectorized streamed pass)."""
    import ray.data as rd

    from ..stages.cluster import kmeans_assign

    vecs = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                           columns=["vec_id", "embedding"])
    return kmeans_assign(vecs, n_clusters=10)


def _embeddings_semdedup(sf_dir: str):
    """SemDeDup semantic dedup over the planted-dup corpus: every
    planted copy (vec_id >= 100000) must come back keep=false with
    dup_of = its original (golden-oracled; the invariant itself is
    asserted in tests/test_cluster.py)."""
    from ..stages.cluster import semdedup

    return semdedup(_embeddings_with_planted_dups(sf_dir),
                    n_clusters=10, threshold=0.99)


def _knn_lsh(sf_dir: str):
    """Sign-LSH bucketed approximate kNN for the first 3 stored
    vectors (golden-oracled — approximate by construction, so no
    brute-force SQL equivalence; recall + pruning vs brute force are
    asserted in tests/test_cluster.py)."""
    import duckdb
    import numpy as np_
    import ray.data as rd

    from ..stages.cluster import knn_lsh

    con = duckdb.connect()
    q = con.execute(
        f"SELECT vec_id, embedding FROM "
        f"read_parquet('{sf_dir}/embeddings.parquet') "
        f"WHERE vec_id < 3 ORDER BY vec_id").fetchall()
    con.close()
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    return knn_lsh(ds, np_.array([r[1] for r in q]), [r[0] for r in q], k=10)


def _docs_url_canonicalize(sf_dir: str):
    """URL canonicalization over planted messy crawl urls (uppercase
    scheme/host, default port, duplicate slashes, tracking params,
    fragments, trailing slashes) — exact ANSI-SQL oracle: the kernel is
    an RE2-compatible regex chain mirrored rule-for-rule in DuckDB."""
    import ray.data as rd

    from ..functions.urlnorm import canonicalize_urls, url_host

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        i = df["doc_id"]
        url = (
            "HTTPS://WWW.Example" + (i % 5).astype(str)
            + ".COM:443//Docs//" + i.astype(str)
            + (i % 2 == 0).map({True: "/", False: ""})
        )
        q = pd.Series("", index=df.index)
        q[i % 7 == 0] = "?utm_only=1"
        q[i % 3 == 0] = "?utm_source=track&id=" + i[i % 3 == 0].astype(str)
        frag = pd.Series("", index=df.index)
        m4 = i % 4 == 0
        frag[m4] = "#sec-" + (i[m4] % 7).astype(str)
        url = url + q + frag
        return pd.DataFrame({
            "doc_id": i,
            "url_canon": canonicalize_urls(url),
            "host": url_host(url),
        })

    return docs.map_batches(f, batch_format="pandas")


def _embed_documents(sf_dir: str):
    import ray.data as rd

    from ..stages.embed import embed_documents

    # (1,2) autoscaling pool (repo deadlock rule: a fixed pool of N
    # pins every CPU of an N-CPU cluster and starves the feeding tasks)
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ds = embed_documents(docs, dim=32, concurrency=(1, 2))

    def ser(batch: pa.Table) -> pa.Table:
        # bit-exact hex serialization of the vector for the golden
        # oracle compare; library users get the native fixed-size-list
        # from stages/embed.py
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_chunks": batch["n_chunks"],
            "embedding_hex": pa.array(
                [_vec_hex(v) for v in batch["embedding"].to_pylist()], pa.string()),
        })

    return ds.map_batches(ser, batch_format="pyarrow")


def planted_demographics_sentence(doc_id: int) -> str:
    """Deterministic per-doc demographics sentence (the corpus text
    itself contains no demographic patterns — verified: 0/500 docs
    match — so without planting, the LLM-pipeline goldens would be
    all-empty). The doc_id % 4 classes exercise every branch of the
    cleanup ladder and the abbreviation-aware linker:

    0 -> no demographics (empty-groups path)
    1 -> patients with an abbreviation-defined diagnosis + controls,
         both sex counts, mean age, imaging vocabulary
    2 -> patients with schizophrenia, female count only (male
         imputation fires), age range + median
    3 -> controls only (group_name fill -> healthy), male count only
         (female imputation fires)
    """
    did = int(doc_id)
    k = did % 4
    if k == 0:
        return ""
    if k == 1:
        return (
            f" Major depressive disorder (MDD) was the focus. We recruited "
            f"{10 + did % 50} patients with MDD and {5 + did % 30} healthy "
            f"controls; mean age of {20 + did % 40}.5 years; {2 + did % 20} "
            f"males and {1 + did % 15} females underwent fMRI scanning."
        )
    if k == 2:
        return (
            f" The sample comprised {8 + did % 40} patients with "
            f"schizophrenia, aged {18 + did % 5}-{60 + did % 10}, median age "
            f"of {30 + did % 9}, including {3 + did % 12} females."
        )
    return (
        f" We studied {12 + did % 25} controls, including {4 + did % 10} "
        f"males, in a behavioral session."
    )


def flatten_ground_truth_demo(n_docs: int) -> "pd.DataFrame":
    """Hand-derived expected CLEANED demographics rows for the planted
    sentences (independent of the client/ladder code) — evaluation
    ground truth. The corpus text is inert (0/500 docs match any
    demographic pattern), so these are exact."""
    import numpy as np_

    rows = []
    for did in range(n_docs):
        k = did % 4
        if k == 0:
            continue
        if k == 1:
            male = float(2 + did % 20)
            female = float(1 + did % 15)
            age = (20 + did % 40) + 0.5
            rows.append(dict(doc_id=did, group_ix=0, count=float(10 + did % 50),
                             diagnosis="MDD", group_name="patients",
                             male_count=male, female_count=female, age_mean=age))
            rows.append(dict(doc_id=did, group_ix=1, count=float(5 + did % 30),
                             diagnosis=None, group_name="healthy",
                             male_count=male, female_count=female, age_mean=age))
        elif k == 2:
            cnt = float(8 + did % 40)
            fem = float(3 + did % 12)
            rows.append(dict(doc_id=did, group_ix=0, count=cnt,
                             diagnosis="schizophrenia", group_name="patients",
                             male_count=cnt - fem, female_count=fem,
                             age_mean=np_.nan))
        else:
            cnt = float(12 + did % 25)
            male = float(4 + did % 10)
            rows.append(dict(doc_id=did, group_ix=0, count=cnt, diagnosis=None,
                             group_name="healthy", male_count=male,
                             female_count=cnt - male, age_mean=np_.nan))
    return pd.DataFrame(rows)


def flatten_ground_truth_tasks(n_docs: int) -> "pd.DataFrame":
    """Expected fMRI-task rows for the planted task sentences."""
    rows = []
    for did in range(n_docs):
        k = did % 5
        if k == 1:
            rows.append(dict(doc_id=did, task_ix=0, TaskName="Go/No-Go Task",
                             RestingState=False,
                             TaskDuration=f"{5 + did % 20} minutes",
                             Modality="fMRI-BOLD"))
        elif k == 2:
            rows.append(dict(doc_id=did, task_ix=0, TaskName="Resting state",
                             RestingState=True,
                             TaskDuration=f"{4 + did % 12} minutes",
                             Modality="fMRI-BOLD"))
    return pd.DataFrame(rows)


def _planted_docs(sf_dir: str, sentence_fn):
    """documents with a deterministic planted sentence appended per
    doc. A single parquet file reads as one block, which would
    serialize a downstream actor-pool chain — split so pools scale.
    32 blocks measured fastest for the 5-stage LLM chains at 32 CPUs
    (8 blocks capped every downstream task stage at 8-way: 5.4-6.4 s
    -> 4.1 s at sf0.1); 64 regressed on task overhead."""
    import pandas as pd_
    import ray.data as rd

    def plant(df: pd_.DataFrame) -> pd_.DataFrame:
        out = df.copy()
        out["text"] = [
            (t or "") + sentence_fn(int(d))
            for d, t in zip(df["doc_id"], df["text"])
        ]
        return out

    return rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
        override_num_blocks=32,
    ).map_batches(plant, batch_format="pandas")


def _demo_docs(sf_dir: str):
    """documents with the planted demographics sentence appended."""
    return _planted_docs(sf_dir, planted_demographics_sentence)


def _llm_demographics(sf_dir: str, post_process=True, prior_dir: str | None = None):
    """Demographics pipeline with the reference's post-process modes
    (``base.py:174-215``): ``True`` = extract + cleanup ladder;
    ``False`` = raw extraction only; ``'only'`` = re-run the cleanup
    over a PRIOR run's output (raw-results-first, falling back to the
    cleaned results when no raw was retained) without re-extracting."""
    import json as _json

    import ray.data as rd

    from ..stages.llm import (
        GROUPS_TYPE, LLMExtractActor, clean_groups_batch,
        is_patient_study_batch, raw_iff_different_batch)

    import pyarrow as pa_

    def ser(batch: pa_.Table) -> pa_.Table:
        # canonical-JSON the nested group structs for the golden oracle
        return pa_.table({
            "doc_id": batch["doc_id"],
            "groups_json": pa_.array(
                [_canon_json(g) for g in batch["groups"].to_pylist()], pa_.string()),
            "groups_raw_json": pa_.array(
                [_canon_json(g) for g in batch["groups_raw"].to_pylist()], pa_.string()),
            "is_patient_study": batch["is_patient_study"],
        })

    if post_process == "only":
        if prior_dir is None:
            raise ValueError("post_process='only' needs prior_dir")
        import glob as _glob
        import os as _os

        prior = rd.read_parquet(
            sorted(_glob.glob(_os.path.join(prior_dir, "*.parquet"))))

        def reload_raw(batch: pa_.Table) -> pa_.Table:
            # raw_results.json first, else results.json (base.py:182-199)
            raws = []
            for raw_j, clean_j in zip(batch["groups_raw_json"].to_pylist(),
                                      batch["groups_json"].to_pylist()):
                raw = _json.loads(raw_j) if raw_j else None
                raws.append(raw if raw is not None else _json.loads(clean_j))
            return pa_.table({
                "doc_id": batch["doc_id"],
                "groups": pa_.array(raws, GROUPS_TYPE),
            })

        ds = prior.map_batches(reload_raw, batch_format="pyarrow")
    else:
        # (1,2) autoscaling pool: a fixed pool of 2 pins every CPU of a
        # 2-CPU cluster and starves the feeding tasks (deadlock)
        ds = _demo_docs(sf_dir).map_batches(
            LLMExtractActor, batch_format="pyarrow", concurrency=(1, 8))

    def keep_raw(batch: pa_.Table) -> pa_.Table:
        return batch.append_column("groups_raw", batch["groups"])

    ds = ds.map_batches(keep_raw, batch_format="pyarrow")
    if post_process in (True, "only"):
        ds = (
            ds.map_batches(clean_groups_batch, batch_format="pyarrow")
            # S5 parity: raw retained ONLY when the ladder changed it
            # (utils.py:309-342 writes raw_results iff different)
            .map_batches(raw_iff_different_batch, batch_format="pyarrow")
        )
    else:
        # --no-post-process: raw passes through; no duplicate retention
        def null_raw(batch: pa_.Table) -> pa_.Table:
            i = batch.column_names.index("groups_raw")
            return batch.set_column(
                i, "groups_raw",
                pa_.array([None] * batch.num_rows, GROUPS_TYPE))

        ds = ds.map_batches(null_raw, batch_format="pyarrow")
    ds = ds.map_batches(is_patient_study_batch, batch_format="pyarrow")
    return ds.map_batches(ser, batch_format="pyarrow")


def _abbrev_expand(sf_dir: str):
    """M7/M8 as a pipeline: detect abbreviations in each document and
    expand them in its own text (rows-only; Schwartz-Hearst kernel)."""
    import pandas as pd_
    import ray.data as rd

    from ..functions.normalize import (
        detect_abbreviations, resolve_abbreviations)

    def f(df: pd_.DataFrame) -> pd_.DataFrame:
        out = pd_.DataFrame()
        out["doc_id"] = df["doc_id"]
        abbrevs = df["text"].map(lambda t: detect_abbreviations(t or ""))
        out["n_abbreviations"] = abbrevs.map(len).astype("int64")
        out["expanded_text"] = [
            resolve_abbreviations(t, a) for t, a in zip(df["text"], abbrevs)
        ]
        return out

    return rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"]).map_batches(
        f, batch_format="pandas")


def _entity_linking(sf_dir: str):
    """Demographics extraction -> candidate entity linking (T4/K1
    chain; rows-only)."""
    from ..stages.linker import LinkActor
    from ..stages.llm import (
        LLMExtractActor, clean_groups_batch)

    # autoscaling (1,2) pools: two fixed pools of 2 actors each deadlock
    # a 4-CPU cluster (all CPUs pinned by actors, none left for the
    # read/serialize tasks feeding them)
    ds = (
        _demo_docs(sf_dir)
        .map_batches(LLMExtractActor, batch_format="pyarrow", concurrency=(1, 8))
        .map_batches(clean_groups_batch, batch_format="pyarrow")
        .map_batches(LinkActor, batch_format="pyarrow", concurrency=(1, 8))
    )

    def ser(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "entities_json": pa.array(
                [_canon_json(v) for v in batch["entities"].to_pylist()], pa.string()),
        })

    return ds.map_batches(ser, batch_format="pyarrow")


def _knn_ivf(sf_dir: str):
    import duckdb
    import numpy as np_
    import ray.data as rd

    from ..stages.similarity import knn_ivf

    con = duckdb.connect()
    q = con.execute(
        f"SELECT vec_id, embedding FROM read_parquet('{sf_dir}/embeddings.parquet') "
        f"WHERE vec_id < 3 ORDER BY vec_id").fetchall()
    con.close()
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    # Correctness-gate config: n_probe == n_cells makes IVF exhaustive,
    # so the result provably equals exact brute-force top-k and shares
    # its SQL oracle; approximate recall at n_probe < n_cells is
    # covered by tests/test_dedup_similarity.py.
    return knn_ivf(ds, np_.array([r[1] for r in q]), [r[0] for r in q],
                   k=10, n_cells=8, n_probe=8)


def _pdf_extract_text(sf_dir: str):
    """PDF layout-block e2e with a BYTE-EXACT SQL oracle: one-page PDFs
    synthesized from documents -> pure-python PDF parser -> reading-
    order text."""
    import pyarrow as pa_

    from . import flagship
    from ..sources import pages as pages_src

    ds = flagship.extract_pages(
        pages_src.read_pages_pdf(sf_dir), payload_column="pdf", mode="auto",
        concurrency=(1, 2), batch_size=128,
    )

    def project(batch: pa_.Table) -> pa_.Table:
        return batch.select(["url", "extracted_text"])

    return ds.map_batches(project, batch_format="pyarrow")


def _jats_extract_text(sf_dir: str):
    """JATS e2e with a BYTE-EXACT SQL oracle: xml pages synthesized
    from documents -> JATS renderer -> (url, extracted_text)."""
    import pyarrow as pa_

    from . import flagship
    from ..sources import pages as pages_src

    ds = flagship.extract_pages(
        pages_src.read_pages_xml(sf_dir), payload_column="xml", mode="jats",
        concurrency=(1, 2), batch_size=128,
    )

    def project(batch: pa_.Table) -> pa_.Table:
        return batch.select(["url", "extracted_text"])

    return ds.map_batches(project, batch_format="pyarrow")


def _extract_jats(sf_dir: str):
    """JATS variant of the flagship (pubget path): xml pages -> extract
    with section spans."""
    import pyarrow as pa_

    from . import flagship
    from ..sources import pages as pages_src

    ds = flagship.extract_pages(
        pages_src.read_pages_xml(sf_dir), payload_column="xml", mode="jats",
        concurrency=(1, 2), batch_size=128,
    )

    def project(batch: pa_.Table) -> pa_.Table:
        spans = batch["spans"].to_pylist()
        return pa_.table({
            "url": batch["url"],
            "n_chars": pa_.array(
                [len(t or "") for t in batch["extracted_text"].to_pylist()],
                pa_.int64()),
            "n_spans": pa_.array([len(s) for s in spans], pa_.int64()),
        })

    return ds.map_batches(project, batch_format="pyarrow")


def _entity_linking_chained(sf_dir: str, upstream_dirs: dict[str, str]):
    """Pipeline-on-pipeline dataflow (reference ``_input_pipelines`` +
    ``Dataset.add_pipeline``, base.py:94-108, dataset.py:243-382): link
    diagnoses from the STORED llm_demographics output — resolved to the
    latest version/config dir by the registry — with no re-extraction.
    Output matches the inline ``entity_linking`` query exactly."""
    import glob as _glob
    import json as _json
    import os as _os

    import ray.data as rd

    from ..stages.linker import LinkActor
    from ..stages.llm import GROUPS_TYPE

    files = sorted(_glob.glob(_os.path.join(
        upstream_dirs["llm_demographics"], "*.parquet")))
    prior = rd.read_parquet(files)

    def parse(batch: pa.Table) -> pa.Table:
        groups = [_json.loads(g) for g in batch["groups_json"].to_pylist()]
        return pa.table({
            "doc_id": batch["doc_id"],
            "groups": pa.array(groups, GROUPS_TYPE),
        })

    ds = (
        prior.map_batches(parse, batch_format="pyarrow")
        .map_batches(LinkActor, batch_format="pyarrow", concurrency=(1, 8))
    )

    def ser(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "entities_json": pa.array(
                [_canon_json(v) for v in batch["entities"].to_pylist()], pa.string()),
        })

    return ds.map_batches(ser, batch_format="pyarrow")


def _entity_linking_chained_query(sf_dir: str):
    """queries() surface for the chained op: run the upstream
    demographics pipeline to a scratch output tree, then link from its
    STORED results. Provably equal to the inline ``entity_linking``
    query, so it shares that pinned-golden oracle."""
    import shutil
    import tempfile

    from .registry import run_entries

    tmp = tempfile.mkdtemp(prefix="nse_chain_")
    try:
        out = run_entries([("llm_demographics", {})], sf_dir, tmp)
        return _entity_linking_chained(
            sf_dir, {"llm_demographics": out["llm_demographics"]}
        ).materialize()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _umls_disease_groups(sf_dir: str):
    """UMLS-disease positional pipeline (umls_disease/model.py:289-319):
    demographics -> abbreviation-aware mention expansion -> candidate
    linking -> UMLSDiseaseSchema-shaped groups."""
    from ..stages.linker import PositionalLinkActor
    from ..stages.llm import LLMExtractActor, clean_groups_batch

    ds = (
        _demo_docs(sf_dir).map_batches(
            LLMExtractActor, fn_constructor_kwargs={"keep_text": True},
            batch_format="pyarrow", concurrency=(1, 8))
        .map_batches(clean_groups_batch, batch_format="pyarrow")
        .map_batches(PositionalLinkActor, batch_format="pyarrow", concurrency=(1, 8))
    )

    def ser(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "linked_groups_json": pa.array(
                [_canon_json(v) for v in batch["linked_groups"].to_pylist()],
                pa.string()),
        })

    return ds.map_batches(ser, batch_format="pyarrow")


def planted_task_sentence(doc_id: int) -> str:
    """Deterministic per-doc study/task sentence (the corpus text has
    no task vocabulary, so goldens would otherwise be content-free).
    doc_id % 5 classes cover the schema surface: none, event-related
    fMRI task, resting state, meta-analysis + behavioral task, blocked
    EEG with conditions."""
    did = int(doc_id)
    k = did % 5
    if k == 0:
        return ""
    if k == 1:
        return (
            f" We investigated response inhibition using the Go/No-Go Task "
            f"in an event-related fMRI design lasting {5 + did % 20} minutes; "
            f"accuracy and reaction time were recorded."
        )
    if k == 2:
        return (
            f" Participants underwent a resting state fMRI scan lasting "
            f"{4 + did % 12} minutes with eyes closed."
        )
    if k == 3:
        return (
            " This meta-analysis also summarizes a behavioral task battery "
            "using the Stroop Task measuring attention."
        )
    return (
        " EEG was recorded during a blocked design; the conditions were "
        "congruent trials and incongruent trials. The task probed working memory."
    )


def _llm_task_metadata(sf_dir: str):
    """T2 second flagship pipeline: TaskExtractor analog
    (nv_task/model.py:9-13, schemas.py:6-156) — study modality,
    objective, exclusion, fMRI/behavioral task metadata, validated
    against the pydantic mirror (valid column; rows never dropped)."""
    from ..stages.task import task_metadata_pipeline

    ds = task_metadata_pipeline(
        _planted_docs(sf_dir, planted_task_sentence), concurrency=(1, 8))

    def ser(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "study_metadata_json": pa.array(
                [_canon_json(r) for r in batch["study_metadata"].to_pylist()],
                pa.string()),
            "valid": batch["valid"],
        })

    return ds.map_batches(ser, batch_format="pyarrow")


def _multimodal_features(sf_dir: str):
    """Multimodal actor-pool stage over a deterministic synthetic media
    table (decode -> feature extract; stubbed codec, real plumbing)."""
    import ray.data as rd

    from ..stages.multimodal import (
        FeatureActor, media_table)

    # split the synthetic table into >= pool-size blocks so the pool
    # actually parallelizes (a single from_arrow block feeds only one
    # actor), and use an autoscaling (1,2) pool per the deadlock rule
    tbl = media_table(240, size_bytes=2048)
    ds = rd.from_arrow([tbl.slice(i, 30) for i in range(0, tbl.num_rows, 30)])
    feats = ds.map_batches(
        FeatureActor, fn_constructor_kwargs={"dim": 16},
        batch_format="pyarrow", batch_size=32, concurrency=(1, 2),
    )

    def ser(batch: pa.Table) -> pa.Table:
        return pa.table({
            "media_id": batch["media_id"],
            "kind": batch["kind"],
            "feature_hex": pa.array(
                [_vec_hex(v) for v in batch["feature"].to_pylist()], pa.string()),
        })

    return feats.map_batches(ser, batch_format="pyarrow")


PLANTED_LONG = "functional magnetic resonance imaging"
PLANTED_SHORT = "fMRI"


def planted_abbrev_text(doc_id: int) -> str:
    """Deterministic per-doc text with a planted Schwartz-Hearst
    ``long form (SF)`` definition (docs with doc_id %% 3 == 0 get no
    definition — negative path). The expansion result is a pure string
    function of doc_id, so the oracle is plain ANSI SQL."""
    if doc_id % 3 == 0:
        return f"Study {doc_id} reports baseline results with no definitions."
    return (
        f"Participants in study {doc_id} underwent {PLANTED_LONG} "
        f"({PLANTED_SHORT}) screening. The {PLANTED_SHORT} findings for "
        f"study {doc_id} were stable."
    )


def _abbrev_expand_planted(sf_dir: str):
    """M7/M8 with a REAL SQL oracle: the Schwartz-Hearst detector and
    expander run on planted-pattern text whose expansion is an exact
    SQL-expressible function of doc_id (VERDICT r01 next-round #1a)."""
    import pandas as pd_
    import ray.data as rd

    from ..functions.normalize import (
        detect_abbreviations, resolve_abbreviations)

    def f(df: pd_.DataFrame) -> pd_.DataFrame:
        out = pd_.DataFrame()
        out["doc_id"] = df["doc_id"]
        texts = [planted_abbrev_text(int(d)) for d in df["doc_id"]]
        abbrevs = [detect_abbreviations(t) for t in texts]
        out["n_abbreviations"] = pd_.Series(
            [len(a) for a in abbrevs], index=df.index).astype("int64")
        out["expanded_text"] = [
            resolve_abbreviations(t, a) for t, a in zip(texts, abbrevs)
        ]
        return out

    return rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"]).map_batches(
        f, batch_format="pandas")


def _plant_linked_html(df: pd.DataFrame) -> pd.DataFrame:
    """Deterministic anchor plant: ``doc_id % 4`` absolute anchors
    (target host ``site{(doc_id * j) % 7}.example`` — j = 0 always
    hits site0, a hub host with realistic in-degree skew, and docs
    with ``doc_id % 7 == 0`` repeat a host within one page so
    n_links != n_docs) plus a relative nav link on ``doc_id % 5 == 0``
    (host = NULL). The SQL oracle re-derives the same plant."""
    rows_id, rows_html = [], []
    for did in df["doc_id"].astype("int64"):
        k = did % 4
        anchors = "".join(
            f'<a class="x" href="https://site{(did * j) % 7}.example'
            f'/p/{did}/{j}">l{j}</a>' for j in range(k))
        if did % 5 == 0:
            anchors += '<a href="/nav/local">nav</a>'
        rows_id.append(did)
        rows_html.append(f"<html><body><p>t</p>{anchors}</body></html>")
    return pd.DataFrame({"doc_id": rows_id, "html": rows_html})


def _host_pagerank(sf_dir: str, n_iter: int = 5, damping: float = 0.85):
    """Iterative PageRank over the host-level link graph — the classic
    link-quality signal beyond plain in-degree (`host_indegree`).
    Edges: source host = the doc's own domain plant, target host = each
    absolute outlink's host (the ``weblinks`` kernel over the planted
    link-rich pages), weighted by link count. Semantics: standard
    damped PageRank with weighted out-edges and dangling-mass
    redistribution, ``n_iter`` synchronous iterations from the uniform
    vector. Output (host, pagerank) rounded to 6 dp.

    Scale shape: the per-batch link scan emits PARTIAL (src, dst, w)
    edge rows (bounded by host-pair cardinality per batch, never the
    link stream) through the shared gated ``grouped_sum_by_key``
    combine; below ``ROUTES['pagerank_edges']`` edges the iteration
    is a vectorized driver scatter-add (np.add.at), beyond it the
    whole iteration runs distributed (``_host_pagerank_exchanged``:
    rank co-partitioned with the edge list per iteration, contributions
    combined through the exchange — the rank vector never touches the
    driver). Both paths agree at the rounded output
    (equivalence-tested)."""
    import numpy as np_
    import ray.data as rd

    from ..functions.weblinks import outlinks_frame
    from .steps import grouped_sum_by_key

    if n_iter < 0 or not (0.0 <= damping <= 1.0):
        raise ValueError("need n_iter >= 0 and 0 <= damping <= 1")

    def edge_partial(df: pd.DataFrame) -> pd.DataFrame:
        links = outlinks_frame(_plant_linked_html(df)).dropna(subset=["host"])
        links["src"] = "site" + (links["doc_id"] % 7).astype(str) + ".example"
        g = (links.groupby(["src", "host"], sort=False).size()
             .reset_index(name="w").rename(columns={"host": "dst"}))
        g["w"] = g["w"].astype("int64")
        return g

    partials = (
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
        .map_batches(edge_partial, batch_format="pandas")
        .materialize()
    )
    edges_ds = grouped_sum_by_key(partials, ["src", "dst"], ["w"],
                                  "domain").materialize()
    if not ex.fits("pagerank_edges", edges_ds.count()):
        return _host_pagerank_exchanged(edges_ds, n_iter, damping)
    edges = edges_ds.to_pandas()
    out_schema = pa.schema([("host", pa.string()), ("pagerank", pa.float64())])
    if edges.empty:
        return rd.from_arrow(out_schema.empty_table())

    nodes = np_.unique(np_.concatenate([edges["src"].to_numpy(dtype=object),
                                        edges["dst"].to_numpy(dtype=object)]))
    # host -> id via the pandas C hash index, not a python dict of all
    # hosts (BASELINE.md broadcast-state rule; at the 20M-edge budget a
    # dict would cost GBs + minutes of single-core mapping)
    node_index = pd.Index(nodes)
    src_i = node_index.get_indexer(edges["src"]).astype(np_.int64)
    dst_i = node_index.get_indexer(edges["dst"]).astype(np_.int64)
    w = edges["w"].to_numpy(dtype=np_.float64)
    n = len(nodes)
    out_w = np_.zeros(n)
    np_.add.at(out_w, src_i, w)
    dangling = out_w == 0
    pr = np_.full(n, 1.0 / n)
    for _ in range(n_iter):
        contrib = np_.zeros(n)
        np_.add.at(contrib, dst_i, pr[src_i] * w / out_w[src_i])
        pr = (1.0 - damping) / n + damping * (contrib
                                              + pr[dangling].sum() / n)
    return rd.from_pandas(pd.DataFrame({
        "host": nodes, "pagerank": np_.round(pr, 6)}))


def _host_pagerank_exchanged(edges_ds, n_iter: int, damping: float,
                             num_parts: int = 32):
    """Scale path for ``_host_pagerank``: the rank vector never lives
    on the driver. Per iteration, rank rows co-partition with the
    (src-hash-partitioned, written once) edge list — every src's edges
    and its rank co-locate, so per-part out-weights and contributions
    are exact — the (dst, contrib) partials combine through
    ``grouped_sum_by_key`` (distributed output), and the new rank is a
    host-co-partitioned left join of the node set with the combined
    contributions. The dangling mass is the one driver scalar per
    iteration (a float sum of partial sums). Bit-level caveat: float
    addition order differs from the driver path's single scatter-add,
    so agreement is at the rounded 6-dp output (equivalence-tested),
    not the raw ulp."""
    import numpy as np_
    import ray.data as rd

    from .steps import grouped_sum_by_key

    EDGE_SCHEMA = pa.schema([("src", pa.string()), ("dst", pa.string()),
                             ("w", pa.int64())])
    RANK_SCHEMA = pa.schema([("host", pa.string()), ("pr", pa.float64())])
    NODE_SCHEMA = pa.schema([("host", pa.string()),
                             ("dangling", pa.bool_())])
    FULL_SCHEMA = pa.schema([("host", pa.string()), ("pr", pa.float64()),
                             ("dangling", pa.bool_())])
    CONTRIB_SCHEMA = pa.schema([("dst", pa.string()),
                                ("contrib", pa.float64())])
    OUT_SCHEMA = pa.schema([("host", pa.string()),
                            ("pagerank", pa.float64())])

    def node_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (pd.concat([pd.DataFrame({"host": df["src"], "o": 1}),
                        pd.DataFrame({"host": df["dst"], "o": 0})])
             .groupby("host", sort=False)["o"].sum().reset_index())
        g["o"] = g["o"].astype(np_.int64)
        return g

    nodes_ds = grouped_sum_by_key(
        edges_ds.map_batches(node_partial, batch_format="pandas")
        .materialize(),
        "host", ["o"], "agg_partials").map_batches(
            lambda df: pd.DataFrame({
                "host": df["host"].to_numpy(dtype=object),
                "dangling": (df["o"].to_numpy() == 0),
            }), batch_format="pandas").materialize()
    n = nodes_ds.count()
    if n == 0:
        return rd.from_arrow(OUT_SCHEMA.empty_table())

    by_src = lambda b: ex.key_part(b, ["src"], num_parts)  # noqa: E731
    by_host = lambda b: ex.key_part(b, ["host"], num_parts)  # noqa: E731
    with (ex.stage("nse_pr_edges_") as edges_stage,
          ex.stage("nse_pr_nodes_") as nodes_stage):
        ex.write_exchange(
            edges_ds.map_batches(lambda t: t.cast(EDGE_SCHEMA),
                                 batch_format="pyarrow"),
            edges_stage, by_src)
        ex.write_exchange(
            nodes_ds.map_batches(lambda t: t.cast(NODE_SCHEMA),
                                 batch_format="pyarrow"),
            nodes_stage, by_host)

        rank_ds = nodes_ds.map_batches(
            lambda df: pd.DataFrame({
                "host": df["host"].to_numpy(dtype=object),
                "pr": np_.full(len(df), 1.0 / n),
                "dangling": df["dangling"].to_numpy(),
            }), batch_format="pandas").materialize()

        def contrib_part(et: pa.Table, rt: pa.Table) -> pa.Table:
            if et.num_rows == 0:
                return CONTRIB_SCHEMA.empty_table()
            ed = et.to_pandas()
            rk = rt.to_pandas()
            j = pd.Index(rk["host"]).get_indexer(ed["src"])
            if (j < 0).any():
                # every src is a node and both sides co-partition on
                # the same host hash — a miss means lost rows
                raise RuntimeError("pagerank: src missing from rank part")
            pr_src = rk["pr"].to_numpy()[j]
            out_w = ed.groupby("src", sort=False)["w"].transform("sum")
            contrib = pr_src * ed["w"].to_numpy() / out_w.to_numpy()
            g = (pd.DataFrame({"dst": ed["dst"], "contrib": contrib})
                 .groupby("dst", sort=False)["contrib"].sum().reset_index())
            return pa.table({
                "dst": pa.array(g["dst"].to_numpy(dtype=object), pa.string()),
                "contrib": pa.array(g["contrib"].to_numpy(), pa.float64()),
            })

        def new_rank_part(nt: pa.Table, ct: pa.Table, dang: float):
            if nt.num_rows == 0:
                return FULL_SCHEMA.empty_table()
            nd = nt.to_pandas()
            cd = ct.to_pandas()
            c = np_.zeros(len(nd))
            if len(cd):
                j = pd.Index(nd["host"]).get_indexer(cd["host"])
                if (j < 0).any():
                    raise RuntimeError(
                        "pagerank: contrib host missing from node part")
                c[j] = cd["contrib"].to_numpy()
            pr = (1.0 - damping) / n + damping * (c + dang / n)
            return pa.table({
                "host": pa.array(nd["host"].to_numpy(dtype=object),
                                 pa.string()),
                "pr": pa.array(pr, pa.float64()),
                "dangling": pa.array(nd["dangling"].to_numpy(), pa.bool_()),
            })

        for _ in range(n_iter):
            dang = float(sum(
                r["s"] for r in rank_ds.map_batches(
                    lambda df: pd.DataFrame(
                        {"s": [float(df.loc[df["dangling"], "pr"].sum())]}),
                    batch_format="pandas").take_all()))
            with (ex.stage("nse_pr_rank_") as rank_stage,
                  ex.stage("nse_pr_contrib_") as contrib_stage):
                ex.write_exchange(
                    rank_ds.map_batches(
                        lambda t: t.select(["host", "pr"]).cast(RANK_SCHEMA),
                        batch_format="pyarrow"),
                    rank_stage, by_host)
                contrib_ds = grouped_sum_by_key(
                    ex.map_parts(
                        [edges_stage, rank_stage], num_parts, contrib_part,
                        CONTRIB_SCHEMA, in_schemas=[EDGE_SCHEMA, RANK_SCHEMA]
                    ),
                    "dst", ["contrib"], "agg_partials")
                ex.write_exchange(
                    contrib_ds.map_batches(
                        lambda t: pa.table({
                            "host": t["dst"].cast(pa.string()),
                            "contrib": t["contrib"].cast(pa.float64()),
                        }), batch_format="pyarrow"),
                    contrib_stage,
                    by_host)
                c_schema = pa.schema([("host", pa.string()),
                                      ("contrib", pa.float64())])
                rank_ds = ex.map_parts(
                    [nodes_stage, contrib_stage], num_parts,
                    lambda nt, ct: new_rank_part(nt, ct, dang),
                    FULL_SCHEMA, in_schemas=[NODE_SCHEMA, c_schema]
                )

    return rank_ds.map_batches(
        lambda df: pd.DataFrame({
            "host": df["host"].to_numpy(dtype=object),
            "pagerank": df["pr"].round(6),
        }), batch_format="pandas").materialize()


def _components_driver(edf: pd.DataFrame) -> pd.DataFrame:
    """Driver-side connected components over deduped int64 edges:
    per-round edge min-propagation (np.minimum.at both directions) +
    full pointer-jumping compression — same fixed point as
    ``pairs.label_components_exchanged`` (label = min node id of the
    component under int64 order)."""
    a = edf["a"].to_numpy(dtype=np.int64)
    b = edf["b"].to_numpy(dtype=np.int64)
    nodes = np.unique(np.concatenate([a, b]))
    ai = np.searchsorted(nodes, a)
    bi = np.searchsorted(nodes, b)
    lab = np.arange(len(nodes), dtype=np.int64)
    while True:
        old = lab.copy()
        np.minimum.at(lab, bi, lab[ai])
        np.minimum.at(lab, ai, lab[bi])
        while True:  # compress: label index chains -> roots
            nxt = lab[lab]
            if (nxt == lab).all():
                break
            lab = nxt
        if (lab == old).all():
            break
    return pd.DataFrame({"node": nodes, "label": nodes[lab]})


def _host_components(sf_dir: str, num_parts: int = 32):
    """Connected components of the host link graph — the site-cluster
    operator behind host-level dedup, mirror detection and spam-farm
    grouping; the undirected complement of ``host_pagerank``. Edges
    are planted deterministically from doc_id (three sub-rings of 7
    sites each: sub{doc_id%3}.site{k} -> same sub, site (k+1)%7; cross
    links sub0.site{k} -> sub1.site{k} on doc_id % 33 == 0 merge two
    of the rings), so the WHOLE chain is oracled by a recursive-CTE
    reachability query — the expected structure is two components of
    14 and 7 hosts. Output (host, component, n_hosts) with component =
    min host string of the component.

    Scale shape: per-batch edge partials (bounded by per-batch
    host-pair cardinality, never the doc stream) dedupe through the
    gated ``grouped_sum_by_key`` combine; hosts hash to int64 node ids
    (the house blake2b-64 token hash — a collision would merge two
    hosts, the same documented 64-bit-birthday assumption as the
    near-dup band keys); components label via a vectorized driver
    min-propagation below ``ROUTES['component_edges']`` deduped
    edges and the O(log n) pointer-jumping exchange propagation
    (``pairs.label_components_exchanged`` — labels never on the
    driver) beyond it; the (host, label) decorate is a ``join_by_key``
    on the node and the per-label (min host, size) aggregate a
    ``combine_by_key`` on the label, both on ``ROUTES['hostlabel']``
    (broadcast and one driver groupby below it, node- then
    label-co-partitioned beyond it)."""
    import ray.data as rd

    from ..functions.hashing import _token_hashes
    from ..stages.pairs import label_components_exchanged
    from .steps import grouped_sum_by_key

    def edge_partial(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64")
        k = (ids % 7).astype(str)
        src = "sub" + (ids % 3).astype(str) + ".site" + k + ".example"
        dst = ("sub" + (ids % 3).astype(str) + ".site"
               + ((ids + 1) % 7).astype(str) + ".example")
        cm = (ids % 33 == 0).to_numpy()
        e = pd.DataFrame({
            "src": pd.concat([src, ("sub0.site" + k + ".example")[cm]],
                             ignore_index=True),
            "dst": pd.concat([dst, ("sub1.site" + k + ".example")[cm]],
                             ignore_index=True),
        })
        g = e.groupby(["src", "dst"], sort=False).size().reset_index(name="n")
        g["n"] = g["n"].astype("int64")
        return g

    edges = grouped_sum_by_key(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
        .map_batches(edge_partial, batch_format="pandas"),
        ["src", "dst"], ["n"], "agg_partials")

    def to_int_edges(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "a": _token_hashes(df["src"].tolist()).view(np.int64),
            "b": _token_hashes(df["dst"].tolist()).view(np.int64),
        })

    edges_int = edges.map_batches(
        to_int_edges, batch_format="pandas").materialize()
    if ex.fits("component_edges", edges_int.count()):
        labels = rd.from_pandas(_components_driver(edges_int.to_pandas()))
    else:
        labels = label_components_exchanged(edges_int, num_parts=num_parts)

    def node_partial(df: pd.DataFrame) -> pd.DataFrame:
        hosts = pd.concat([df["src"], df["dst"]],
                          ignore_index=True).drop_duplicates()
        g = pd.DataFrame({"host": hosts.to_numpy(dtype=object)})
        g["node"] = _token_hashes(g["host"].tolist()).view(np.int64)
        g["n"] = np.int64(1)
        return g

    nodes = grouped_sum_by_key(
        edges.map_batches(node_partial, batch_format="pandas"),
        ["node", "host"], ["n"], "agg_partials")

    out_schema = pa.schema([
        ("host", pa.string()), ("component", pa.string()),
        ("n_hosts", pa.int64()),
    ])
    hl_schema = pa.schema([("label", pa.int64()), ("host", pa.string())])

    def sorted_labels(lab: pa.Table):
        ln = lab["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ln, kind="stable")
        return ln[order], lab["label"].to_numpy(
            zero_copy_only=False).astype(np.int64)[order]

    def decorate(nodes_t: pa.Table, state) -> pa.Table:
        # pure-int64 searchsorted join (never a pandas merge — the
        # float64 NaN path silently rounds 64-bit hash ids); nodes
        # absent from labels (edgeless — impossible here, kept for
        # robustness) default to self
        ln_s, ll_s = state
        nid = nodes_t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        lab = nid.copy()
        if len(ln_s):
            j = np.clip(np.searchsorted(ln_s, nid), 0, len(ln_s) - 1)
            hit = ln_s[j] == nid
            lab[hit] = ll_s[j[hit]]
        return pa.table({"label": pa.array(lab, pa.int64()),
                         "host": nodes_t["host"]})

    def finish(hl: pd.DataFrame) -> pd.DataFrame:
        g = hl.groupby("label", sort=False)
        return pd.DataFrame({
            "host": hl["host"].to_numpy(dtype=object),
            "component": g["host"].transform("min").to_numpy(dtype=object),
            "n_hosts": g["host"].transform("size").to_numpy(np.int64),
        })

    # labels co-locate in the combine, so each call's min/size are exact
    hl = ex.join_by_key(nodes, labels, ["node"], ["node"], sorted_labels,
                        decorate, hl_schema, "hostlabel", num_parts)
    return ex.combine_by_key(hl, ["label"], finish, out_schema, "hostlabel",
                             num_parts)


def _docs_outlinks(sf_dir: str):
    """Anchor/outlink extraction over planted link-rich pages (the
    documents table has no html column) — one row per anchor in
    document order: (doc_id, ord, href, host); relative links keep
    host = NULL. Kernel: ``functions/weblinks`` compiled-regex scan,
    vectorized ``str.extractall`` explode — no DOM build on the link
    pass by design."""
    import ray.data as rd

    from ..functions.weblinks import outlinks_frame

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])
    return docs.map_batches(_plant_linked_html, batch_format="pandas") \
               .map_batches(outlinks_frame, batch_format="pandas")


def _write_warc_segments(sf_dir: str, scratch: str) -> None:
    """Synthesize gzipped WARC/1.0 segments from the documents table
    into ``scratch`` — one .warc.gz file per input batch, written
    DISTRIBUTED with content-addressed names (task retries rewrite the
    same bytes; distinct batches never collide, urls are unique). The
    scratch is an exchange-visibility path (write tasks on ANY node
    must see what read tasks read), so callers take it from
    ``exchange.stage`` (NSE_EXCHANGE_ROOT on multi-node,
    asserted-single-node tmpfs otherwise) — never a driver-local
    mkdtemp."""
    import hashlib
    import os
    from datetime import datetime, timedelta

    import ray.data as rd

    from ..sources import warc as W

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def write_part(df: pd.DataFrame) -> pd.DataFrame:
        epoch = datetime(2020, 1, 1)
        rows = [{
            "url": f"https://site{did % 7}.example/d/{did}",
            "warc_ts": epoch + timedelta(seconds=int(did)),
            "html": f"<html><body>{text}</body></html>",
        } for did, text in zip(df["doc_id"].astype("int64"),
                               df["text"].fillna(""))]
        name = hashlib.blake2b(
            "|".join(r["url"] for r in rows).encode(),
            digest_size=8).hexdigest()
        W.write_warc(rows, os.path.join(scratch, f"{name}.warc.gz"),
                     gzip_members=True)
        return pd.DataFrame({"n": [len(rows)]})

    docs.map_batches(write_part, batch_format="pandas").count()


def _warc_source_roundtrip(sf_dir: str):
    """WARC source round-trip (sources/warc.py): synthesize gzipped
    WARC/1.0 segments from the documents table, then read them back
    through ``read_warc`` (one task per file, the WARC parallelism
    unit) and emit (url, warc_ts, n_chars). Oracled as pure SQL over
    documents, so the whole write->parse->read chain is
    value-verified."""
    from ..sources import warc as W

    with ex.stage("nse_warc_") as scratch:
        _write_warc_segments(sf_dir, scratch)

        def project(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "url": df["url"].to_numpy(dtype=object),
                "warc_ts": pd.to_datetime(df["warc_ts"]),
                "n_chars": df["html"].str.len().astype("int64"),
            })

        return W.read_warc(scratch).map_batches(
            project, batch_format="pandas").materialize()


def _warc_extract_text(sf_dir: str):
    """The full crawl-to-text tier END TO END: WARC segments ->
    ``read_warc`` (file = parallelism unit, streaming gzip, charset
    sniff) -> the FROZEN html kernel as flagship extract tasks
    (``flagship.extract_pages``) -> (url, warc_ts, extracted_text). The
    planted ``<html><body>{text}</body></html>`` wrapper extracts
    BYTE-IDENTICALLY to ``documents.text`` (asserted over both test
    corpora), so the whole chain — WARC framing, gzip members, HTTP
    header split, charset decode, DOM strip — is value-verified by
    exact ANSI SQL. Scale shape: the flagship's extract stage (plain
    tasks, at most 4 at once, Arrow batches throughout)."""
    from . import flagship
    from ..sources import warc as W

    with ex.stage("nse_warc_") as scratch:
        _write_warc_segments(sf_dir, scratch)
        out = flagship.extract_pages(
            W.read_warc(scratch), payload_column="html", mode="html",
            concurrency=(1, 4))

        def project(t: pa.Table) -> pa.Table:
            if t["parse_failed"].to_pandas().any():
                raise ValueError("planted WARC page failed to parse")
            return t.select(["url", "warc_ts", "extracted_text"])

        return out.map_batches(
            project, batch_format="pyarrow").materialize()


def _docs_outlinks_anchored(sf_dir: str):
    """Outlink extraction WITH anchor text (the link-graph feature
    quality models consume) over the same planted link-rich pages —
    one row per anchor: (doc_id, ord, href, host, anchor). Kernel:
    ``weblinks.anchors_frame`` (full-element regex + tag strip +
    whitespace collapse), still no DOM build."""
    import ray.data as rd

    from ..functions.weblinks import anchors_frame

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])
    return docs.map_batches(_plant_linked_html, batch_format="pandas") \
               .map_batches(anchors_frame, batch_format="pandas")


def _host_indegree(sf_dir: str):
    """Host-level in-degree over the extracted outlinks — the
    link-graph aggregate (a PageRank-ish quality signal): per target
    host, total inbound links and distinct linking docs. Per-batch
    partials (each doc's links sit in one row, so per-batch
    ``nunique(doc_id)`` partials are exactly summable), then the
    shared ``grouped_sum_by_key`` combine (driver below
    ``ROUTES['domain']``, distributed-output host-hash exchange
    above)."""
    import ray.data as rd

    from ..functions.weblinks import outlinks_frame
    from . import steps

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        links = outlinks_frame(_plant_linked_html(df)).dropna(
            subset=["host"])
        g = links.groupby("host", sort=False).agg(
            n_links=("doc_id", "size"),
            n_docs=("doc_id", "nunique")).reset_index()
        g["n_links"] = g["n_links"].astype("int64")
        g["n_docs"] = g["n_docs"].astype("int64")
        return g

    partials_ds = docs.map_batches(
        partial, batch_format="pandas").materialize()
    return steps.grouped_sum_by_key(
        partials_ds, "host", ["n_links", "n_docs"],
        "domain")


def _host_anchor_topk(sf_dir: str, k: int = 2):
    """Anchor-text corpus aggregation — the web-graph feature behind
    anchor-based retrieval / query-generation training sets (and the
    reference's link-metadata normalization, reframed at crawl scale):
    for each target host, the top-``k`` most frequent inbound anchor
    texts with their link and linking-doc counts, ranked
    ``(n_links desc, anchor asc)``.

    Two shared-machinery stages, both budget-gated:

    1. exact (host, anchor) counts — per-batch partial ``groupby``
       rows (bounded by host x anchor cardinality per batch, never the
       link stream; per-batch ``nunique(doc_id)`` partials are exactly
       summable because each doc's links sit in one input row) through
       ``grouped_sum_by_key`` (driver below ``ROUTES['terms']``,
       key-hash partition exchange above — (host, anchor) keys
       co-locate so per-part sums are exact global totals);
    2. per-host top-k over the now globally-unique count rows — the
       associative partial-top-k shape (top-k of a union == top-k of
       per-part top-ks) through ``_topk_combine``
       (driver below ``ROUTES['topk_partials']``, two-level
       exchange merge beyond). The combine's required unique int64
       part key is the blake2b hash of ``host \\x1f anchor``
       (``_token_hashes`` — NUL-free separator per the repo rule;
       post-combine rows are unique per (host, anchor), so a 64-bit
       collision only co-routes rows and cannot change the top-k).

    Output (host, anchor, n_links, n_docs, rnk), rnk 1-based per host.
    No shuffle of the link stream anywhere; the final frame is bounded
    by hosts x k."""
    import ray.data as rd

    from ..functions.hashing import _token_hashes
    from ..functions.weblinks import anchors_frame
    from . import steps

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        links = anchors_frame(_plant_linked_html(df)).dropna(
            subset=["host"])
        g = links.groupby(["host", "anchor"], sort=False).agg(
            n_links=("doc_id", "size"),
            n_docs=("doc_id", "nunique")).reset_index()
        g["n_links"] = g["n_links"].astype("int64")
        g["n_docs"] = g["n_docs"].astype("int64")
        return g

    counts = steps.grouped_sum_by_key(
        docs.map_batches(partial, batch_format="pandas").materialize(),
        ["host", "anchor"], ["n_links", "n_docs"],
        "terms")

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        s = df.sort_values(["n_links", "anchor"], ascending=[False, True],
                           kind="stable")
        return s.groupby("host", sort=False, dropna=False).head(k)

    def add_part_key(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["doc_id"] = _token_hashes(
            [f"{h}\x1f{a}" for h, a in zip(df["host"], df["anchor"])]
        ).view(np.int64) if len(df) else pd.Series([], dtype="int64")
        return local_topk(out)

    partial_topk = counts.map_batches(
        add_part_key, batch_format="pandas").materialize()
    final = steps._topk_combine(
        partial_topk, local_topk, "topk_partials")
    if final.empty:
        return rd.from_pandas(pd.DataFrame({
            "host": pd.Series([], dtype=object),
            "anchor": pd.Series([], dtype=object),
            "n_links": pd.Series([], dtype="int64"),
            "n_docs": pd.Series([], dtype="int64"),
            "rnk": pd.Series([], dtype="int64")}))
    final = final.sort_values(["host", "n_links", "anchor"],
                              ascending=[True, False, True],
                              kind="stable").reset_index(drop=True)
    final["rnk"] = (final.groupby("host", sort=False).cumcount() + 1
                    ).astype("int64")
    return rd.from_pandas(
        final[["host", "anchor", "n_links", "n_docs", "rnk"]])
