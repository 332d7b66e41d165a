"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship extraction pipeline on sf0.001;
``queries()`` exposes each implemented operator from SURVEY.md §2 as a
callable over an ``sf_dir``; ``oracle_sql()`` gives the DuckDB
equivalent (same column names) for the value-hash correctness gate.

Ray is initialised by the driver BEFORE this module is imported: no
``ray.init`` / ``ray.shutdown`` here or in the library code.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


from neurostore_text_extraction_ray.pipelines.extras import (  # noqa: E402
    PLANTED_LONG,
    PLANTED_SHORT,
    _abbrev_expand,
    _abbrev_expand_planted,
    _docs_fingerprint,
    _docs_decontaminate,
    _docs_dup_spans,
    _docs_line_dedup,
    _docs_pii_redact,
    _docs_top_terms_cms,
    _docs_normalize_text,
    _docs_training_mix,
    _docs_outlinks,
    _docs_outlinks_anchored,
    _docs_robots_filter,
    _warc_source_roundtrip,
    _warc_extract_text,
    _docs_url_filter,
    _host_anchor_topk,
    _host_components,
    _host_indegree,
    _host_pagerank,
    _docs_langid_quality,
    _docs_char_entropy,
    _docs_compression_ratio,
    _docs_c4_rules,
    _docs_token_count,
    _docs_url_canonicalize,
    _embed_documents,
    _embedding_cosine_dups,
    _embeddings_kmeans,
    _embeddings_semdedup,
    _entity_linking,
    _entity_linking_chained_query,
    _extract_jats,
    _flagship,
    _flagship_titles,
    _jats_extract_text,
    _knn_ivf,
    _knn_lsh,
    _llm_demographics,
    _llm_task_metadata,
    _minhash_dedup_incremental,
    _minhash_groups,
    _multimodal_features,
    _ngram_jaccard_dups,
    _pdf_extract_text,
    _simhash_dedup_incremental,
    _simhash_groups,
    _umls_disease_groups,
)

_GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "tests", "goldens"
)


def _part_name_fuzzy_pairs(sf_dir: str):
    from neurostore_text_extraction_ray.stages.fuzzyjoin import (
        part_name_fuzzy_pairs,
    )

    return part_name_fuzzy_pairs(sf_dir)


def _golden_sql(name: str, discriminated: bool = True) -> str:
    """Oracle SQL for a pinned-golden query: read the committed golden
    parquet (regenerate with ``python tools/make_goldens.py``). For
    sf-dependent queries one golden exists per corpus, discriminated by
    the corpus's total n_chars (sf0.001 and sf0.01 both have 500 docs,
    so count(*) can't tell them apart) — the UNION ALL keeps exactly
    the branch whose discriminator matches the corpus under test."""
    import glob as _glob
    import os as _os

    if not discriminated:
        return f"SELECT * FROM read_parquet('{_GOLDEN_DIR}/{name}.parquet')"
    parts = []
    for f in sorted(_glob.glob(f"{_GOLDEN_DIR}/{name}.*.parquet")):
        disc = _os.path.basename(f).rsplit(".", 2)[-2]
        parts.append(
            f"SELECT * FROM read_parquet('{f}') "
            f"WHERE (SELECT sum(n_chars) FROM documents) = {disc}"
        )
    if not parts:
        raise FileNotFoundError(
            f"no goldens for {name} in {_GOLDEN_DIR}; run tools/make_goldens.py"
        )
    return " UNION ALL ".join(parts)


def _langid_quality_sql() -> str:
    """ANSI-SQL re-expression of the lang_id stopword-voting heuristic
    and the quality_features score (functions/textstats.py) — validated
    equal to the Python kernels on sf0.001 and sf0.01 (ASCII corpus, so
    RE2 \\w == Python \\w and [A-Za-z] == isalpha)."""
    from neurostore_text_extraction_ray.functions.textstats import _STOPWORDS

    def lst(words):
        return "[" + ",".join(f"'{w}'" for w in sorted(words)) + "]"

    langs = list(_STOPWORDS)
    hits = ", ".join(
        f"len(list_filter(ws, w -> list_contains({lst(_STOPWORDS[l])}, w))) AS {l}_hits"
        for l in langs
    )
    case_lang = " ".join(f"WHEN {l}_hits = best THEN '{l}'" for l in langs)
    return (
        "WITH t AS (SELECT doc_id, text, "
        "list_transform(regexp_extract_all(substr(text,1,4000), '\\w+'), "
        "w -> lower(w)) AS ws FROM documents), "
        f"h AS (SELECT doc_id, text, ws, {hits} FROM t), "
        "b AS (SELECT *, greatest("
        + ",".join(f"{l}_hits" for l in langs)
        + ") AS best FROM h), "
        "lid AS (SELECT doc_id, text, ws, "
        f"CASE WHEN len(ws)=0 OR best=0 THEN 'und' {case_lang} END AS lang_pred, "
        "CASE WHEN len(ws)=0 OR best=0 THEN 0.0 "
        "ELSE least(1.0, best / greatest(1, len(ws))) END AS lang_conf FROM b), "
        "q AS (SELECT doc_id, lang_pred, lang_conf, "
        "CASE WHEN trim(text)='' THEN 0 ELSE "
        "len(regexp_split_to_array(trim(text),'\\s+')) END AS n_words, "
        "length(regexp_replace(text,'[^A-Za-z]','','g')) AS alpha, "
        "length(regexp_replace(text,'[A-Za-z0-9\\s]','','g')) AS punct, "
        "length(text) AS n_chars, "
        "CASE WHEN trim(text)='' THEN [] ELSE "
        "list_transform(regexp_split_to_array(trim(text),'\\s+'), "
        "w -> trim(lower(w), '.,;:!?()\"' || chr(39))) END AS lw FROM lid), "
        "q2 AS (SELECT doc_id, lang_pred, lang_conf, n_words, n_chars, alpha, punct, "
        f"len(list_filter(lw, w -> list_contains({lst(_STOPWORDS['en'])}, w))) AS stops "
        "FROM q) "
        "SELECT doc_id, lang_pred, round(lang_conf, 6) AS lang_conf, "
        "round(least(1.0, n_words/50.0)*0.3 "
        "+ least(1.0, (stops/greatest(1,n_words))/0.3)*0.3 "
        "+ (alpha/greatest(1,n_chars))*0.3 "
        "+ (1.0 - least(1.0, (punct/greatest(1,n_chars))/0.3))*0.1, 6) "
        "AS quality_score FROM q2"
    )


# fixed custom vocabulary for the tfidf_vocab query (reference
# custom_terms option, tfidf/model.py:29-79); 'zzzyx' is deliberately
# absent from the corpus to exercise the no-rows vocab-term path
TFIDF_VOCAB_TERMS = [
    "the", "and", "data", "with", "for", "study", "results", "analysis",
    "of", "zzzyx",
]


def _round_cols(ds, spec: dict[str, int]):
    def r(df: pd.DataFrame) -> pd.DataFrame:
        for col, nd in spec.items():
            df[col] = df[col].round(nd)
        return df

    return ds.map_batches(r, batch_format="pandas")


def _host_pagerank_sql(n_iter: int = 5, damping: float = 0.85) -> str:
    """ANSI-SQL re-expression of the host-graph PageRank: the planted
    link graph re-derived arithmetically (the weblinks kernel extracts
    exactly the planted anchors), then ``n_iter`` unrolled iteration
    CTEs — weighted contributions + dangling-mass redistribution, the
    same update the numpy scatter-add computes."""
    sql = (
        "WITH links AS ("
        "  SELECT 'site' || (doc_id % 7) || '.example' AS src, "
        "         'site' || ((doc_id * j) % 7) || '.example' AS dst "
        "  FROM documents, unnest(range(0, doc_id % 4)) AS t(j)), "
        "e AS (SELECT src, dst, count(*) AS w FROM links GROUP BY src, dst), "
        "ow AS (SELECT src, sum(w) AS out_w FROM e GROUP BY src), "
        "n AS (SELECT DISTINCT host FROM "
        "(SELECT src AS host FROM e UNION SELECT dst FROM e)), "
        "nn AS (SELECT count(*) AS n FROM n), "
        "p0 AS (SELECT host, 1.0 / nn.n AS pr FROM n, nn)"
    )
    for i in range(n_iter):
        j = i + 1
        sql += (
            f", c{j} AS (SELECT e.dst AS host, "
            f"sum(p{i}.pr * e.w / ow.out_w) AS s "
            f"FROM e JOIN p{i} ON p{i}.host = e.src "
            f"JOIN ow ON ow.src = e.src GROUP BY e.dst)"
            f", d{j} AS (SELECT coalesce(sum(pr), 0) AS dang FROM p{i} "
            f"WHERE host NOT IN (SELECT src FROM e))"
            f", p{j} AS (SELECT n.host, (1 - {damping}) / nn.n + {damping} * "
            f"(coalesce(c{j}.s, 0) + d{j}.dang / nn.n) AS pr "
            f"FROM n CROSS JOIN nn CROSS JOIN d{j} "
            f"LEFT JOIN c{j} ON c{j}.host = n.host)"
        )
    return sql + (
        f" SELECT host, round(pr, 6) AS pagerank FROM p{n_iter}")


def _evaluation_golden_metrics(sf_dir: str):
    """Committed-golden replay (VERDICT r04 #5): score the reference's
    1.0.0 pipeline outputs against its 1.1.0 outputs through the full
    loader -> best-match alignment -> P/R/F1 chain. Corpus-independent
    (reads only the reference's committed results.json files), so the
    golden oracle is undiscriminated."""
    from neurostore_text_extraction_ray.pipelines.evaluation import (
        golden_replay_metrics)

    # rounding + results-root resolution live inside the shared
    # implementation so the registry op emits identical values
    return golden_replay_metrics()


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001."""
    return _flagship("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from neurostore_text_extraction_ray.pipelines import steps

    # Ordering contract: the driver's CORRECTNESS snapshot records the
    # first ~50 entries only. Queries never yet driver-verified come
    # first (the 7 r5f entries, VERDICT.md round 5 item 1), then the
    # r5 first-runs, then the 15 last verified in r3, then the 50 that
    # were driver-green in r4 (see VERDICT.md round 4, next-round
    # item 1).
    return {
        # --- new in r5f, never driver-verified ---
        "docs_pmi_bigrams": steps.docs_pmi_bigrams,
        "lineitem_cube": lambda sf: _round_cols(
            steps.lineitem_cube(sf), {"sum_qty": 4, "sum_revenue": 4}),
        "docs_nchars_quantiles_cont": steps.docs_nchars_quantiles_cont,
        "docs_lang_corr": steps.docs_lang_corr,
        "events_global_rolling_sum": steps.events_global_rolling_sum,
        "events_user_top_type": steps.events_user_top_type,
        "docs_lang_bucket_pivot": steps.docs_lang_bucket_pivot,
        # --- never driver-verified before r5 ---
        "docs_lang_quantiles": steps.docs_lang_quantiles,
        "events_user_retention": steps.events_user_retention,
        "host_anchor_topk": _host_anchor_topk,
        "events_user_hll_hourly": steps.events_user_hll_hourly,
        "lineitem_rollup": lambda sf: _round_cols(
            steps.lineitem_rollup(sf), {"sum_qty": 4, "sum_revenue": 4}),
        "customer_order_counts": lambda sf: _round_cols(
            steps.customer_order_counts(sf), {"total_spent": 4}),
        "host_components": _host_components,
        "docs_boilerplate_strip": steps.docs_boilerplate_strip,
        "docs_diff_planted": steps.docs_diff_planted,
        "docs_bm25": lambda sf: _round_cols(steps.docs_bm25(sf),
                                            {"score": 6}),
        "docs_domain_percentile_filter": lambda sf: _round_cols(
            steps.docs_domain_percentile_filter(sf), {"pr": 6}),
        "evaluation_golden_metrics": _evaluation_golden_metrics,
        "docs_domain_cap": steps.docs_domain_cap,
        "docs_outlinks_anchored": _docs_outlinks_anchored,
        "warc_source_roundtrip": _warc_source_roundtrip,
        "warc_extract_text": _warc_extract_text,
        "docs_robots_filter": _docs_robots_filter,
        "docs_url_filter": _docs_url_filter,
        "docs_outlinks": _docs_outlinks,
        "host_indegree": _host_indegree,
        "docs_normalize_text": _docs_normalize_text,
        "docs_training_mix": _docs_training_mix,
        "knn_lsh": lambda sf: _round_cols(_knn_lsh(sf), {"score": 4}),
        "embeddings_kmeans": lambda sf: _round_cols(
            _embeddings_kmeans(sf), {"dist": 6}),
        "embeddings_semdedup": lambda sf: _round_cols(
            _embeddings_semdedup(sf), {"max_sim": 6}),
        "docs_url_canonicalize": _docs_url_canonicalize,
        # --- new in r5 (inside the driver window for first-run
        #     verification; displaces r4-green entries whose evidence
        #     already exists in CORRECTNESS_r04.json) ---
        "docs_chunk_windows": steps.docs_chunk_windows,
        "docs_lm_score": steps.docs_lm_score,
        "docs_bloom_seen": steps.docs_bloom_seen,
        "term_postings": steps.term_postings,
        "docs_split_assign": steps.docs_split_assign,
        "host_pagerank": _host_pagerank,
        "docs_nb_quality": steps.docs_nb_quality,
        "docs_char_entropy": _docs_char_entropy,
        "docs_compression_ratio": _docs_compression_ratio,
        "docs_gopher_rules": steps.docs_gopher_rules,
        "docs_c4_rules": _docs_c4_rules,
        "docs_pack_sequences": steps.docs_pack_sequences,
        "docs_bpe_merges": steps.docs_bpe_merges,
        "docs_bpe_encode": steps.docs_bpe_encode,
        "docs_importance_weights": steps.docs_importance_weights,
        "docs_importance_weights_hashed":
            steps.docs_importance_weights_hashed,
        "docs_winnow_fingerprints": steps.docs_winnow_fingerprints,
        "corpus_stats": steps.corpus_stats,
        "embeddings_label_centroids": steps.embeddings_label_centroids,
        "events_hourly_top": steps.events_hourly_top,
        "events_range_join": steps.events_range_join,
        "events_user_running_total": steps.events_user_running_total,
        "part_name_fuzzy_pairs": _part_name_fuzzy_pairs,
        "events_funnel": steps.events_funnel,
        # --- last driver-verified in r3 ---
        "ngram_jaccard_dups": _ngram_jaccard_dups,
        "embedding_cosine_dups": _embedding_cosine_dups,
        "embed_documents": _embed_documents,
        "llm_demographics": _llm_demographics,
        "llm_task_metadata": _llm_task_metadata,
        "entity_linking": _entity_linking,
        "entity_linking_chained": _entity_linking_chained_query,
        "umls_disease_groups": _umls_disease_groups,
        "abbrev_expand": _abbrev_expand,
        "abbrev_expand_planted": _abbrev_expand_planted,
        "knn_ivf": lambda sf: _round_cols(_knn_ivf(sf), {"score": 4}),
        "extract_jats_pages": _extract_jats,
        "jats_extract_text": _jats_extract_text,
        "pdf_extract_text": _pdf_extract_text,
        "multimodal_features": _multimodal_features,
        # --- driver-green in r4 ---
        "flagship_extract": _flagship,
        "flagship_titles": _flagship_titles,
        "word_count": steps.word_count,
        "word_deviance": steps.word_deviance,
        "tfidf": lambda sf: _round_cols(steps.tfidf(sf), {"score": 6}),
        "tfidf_vocab": lambda sf: _round_cols(
            steps.tfidf(sf, custom_terms=TFIDF_VOCAB_TERMS, text_type="both"),
            {"score": 6},
        ),
        "docs_en_quality": steps.docs_en_quality,
        "docs_join_embeddings": steps.docs_join_embeddings,
        "filter_unprocessed": steps.filter_unprocessed,
        "dedup_exact": steps.dedup_exact,
        "docs_slice": steps.docs_slice,
        "docs_sample_hash": steps.docs_sample_hash,
        "docs_sample_stratified": steps.docs_sample_stratified,
        "docs_sample_weighted": steps.docs_sample_weighted,
        "docs_lang_temperature_sample": steps.docs_lang_temperature_sample,
        "docs_nchars_quantiles": steps.docs_nchars_quantiles,
        "docs_nchars_quantiles_sampled": steps.docs_nchars_quantiles_sampled,
        "docs_pack_shards": steps.docs_pack_shards,
        "top_terms": steps.top_terms,
        "top_terms_cms": _docs_top_terms_cms,
        "top_docs_per_lang": steps.top_docs_per_lang,
        "orders_custkey_hll": steps.orders_custkey_hll,
        "lineitem_orders_semijoin": lambda sf: _round_cols(
            steps.lineitem_orders_semijoin(sf), {"l_extendedprice": 2}),
        "normalize_part_names": steps.normalize_part_names,
        "lineitem_agg": lambda sf: _round_cols(
            steps.lineitem_agg(sf), {"sum_qty": 4, "sum_revenue": 4, "avg_disc": 6}
        ),
        "events_hourly": lambda sf: _round_cols(
            steps.events_hourly(sf), {"sum_value": 6}
        ),
        "events_sessionize": steps.events_sessionize,
        "events_asof_orders": steps.events_asof_orders,
        "events_rolling_count": steps.events_rolling_count,
        "knn_embeddings": lambda sf: _round_cols(steps.knn_embeddings(sf), {"score": 4}),
        "docs_text_features": steps.docs_text_features,
        "docs_repetition_stats": steps.docs_repetition_stats,
        "docs_domain_stats": steps.docs_domain_stats,
        "docs_domain_filter": steps.docs_domain_filter,
        "docs_rank_by_length": steps.docs_rank_by_length,
        "docs_quality_buckets": steps.docs_quality_buckets,
        "revenue_by_nation": steps.revenue_by_nation,
        "distinct_langs": steps.distinct_langs,
        "top_docs_by_length": steps.top_docs_by_length,
        # --- heuristic / sketch / fake-client operators: each has
        # either a re-expressed ANSI-SQL oracle or a pinned-golden
        # oracle (tools/make_goldens.py) ---
        "docs_langid_quality": lambda sf: _round_cols(
            _docs_langid_quality(sf), {"lang_conf": 6, "quality_score": 6}
        ),
        "docs_fingerprint": _docs_fingerprint,
        "docs_token_count": _docs_token_count,
        "minhash_dedup_groups": _minhash_groups,
        "minhash_dedup_incremental": _minhash_dedup_incremental,
        "simhash_dedup_groups": _simhash_groups,
        "simhash_dedup_incremental": _simhash_dedup_incremental,
        "docs_decontaminate": _docs_decontaminate,
        "docs_line_dedup": _docs_line_dedup,
        "docs_dup_spans": _docs_dup_spans,
        "docs_pii_redact": _docs_pii_redact,
    }


def oracle_sql() -> dict[str, str]:
    wc = (
        "SELECT doc_id, CASE WHEN trim(text) = '' THEN 0 "
        "ELSE len(regexp_split_to_array(trim(text), '\\s+')) END AS word_count "
        "FROM documents"
    )
    jats = (
        "WITH w AS (SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS ws "
        "           FROM documents), "
        "h AS (SELECT doc_id, ws, "
        "      CASE WHEN len(ws) // 2 = 0 THEN 1 ELSE len(ws) // 2 END AS half "
        "      FROM w), "
        "p AS (SELECT doc_id, "
        "      array_to_string(ws[1:half], ' ') AS intro, "
        "      CASE WHEN array_to_string(ws[half+1:], ' ') = '' THEN 'none' "
        "           ELSE array_to_string(ws[half+1:], ' ') END AS results "
        "      FROM h) "
        "SELECT 'https://corpus.example.org/doc/' || doc_id AS url, "
        "' ' || chr(10) || '## Introduction ' || chr(10) || '  ' || chr(10) || "
        "intro || ' ' || chr(10) || chr(10) || chr(10) || '## Results ' || chr(10) "
        "|| '  ' || chr(10) || results || ' ' || chr(10) || chr(10) || ' ' "
        "AS extracted_text FROM p"
    )
    knn = (
        "WITH q AS (SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qe "
        "           FROM embeddings WHERE vec_id < 3), "
        "s AS (SELECT q.query_id, e.vec_id, "
        "      list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe) AS score "
        "      FROM embeddings e CROSS JOIN q), "
        "r AS (SELECT *, row_number() OVER (PARTITION BY query_id "
        "      ORDER BY score DESC, vec_id) AS rn FROM s) "
        "SELECT query_id, vec_id, round(score, 4) AS score FROM r WHERE rn <= 10"
    )
    planted_expanded = (
        f"'Participants in study ' || doc_id || ' underwent {PLANTED_LONG} "
        f"({PLANTED_LONG}) screening. The {PLANTED_LONG} findings for "
        f"study ' || doc_id || ' were stable.'"
    )
    return {
        "flagship_extract": (
            "SELECT 'https://corpus.example.org/doc/' || doc_id AS url, "
            "'Doc ' || doc_id || 'Doc ' || doc_id || ' rev' || "
            "(CASE WHEN doc_id % 10 = 0 THEN 1 ELSE 0 END) || chr(10) || text || chr(10) "
            "AS extracted_text FROM documents "
            "WHERE doc_id % 101 <> 3 AND doc_id % 97 <> 5"
        ),
        "flagship_titles": (
            "SELECT 'https://corpus.example.org/doc/' || doc_id AS url, "
            "'Doc ' || doc_id AS title FROM documents "
            "WHERE doc_id % 101 <> 3 AND doc_id % 97 <> 5"
        ),
        "word_count": wc,
        "docs_chunk_windows": (
            # window=64 / stride=48 fixed-token training windows; the
            # M5 whitespace-token convention (trim + \s+ split), tail
            # window short, zero-token docs emit nothing
            "WITH w AS (SELECT doc_id, "
            "regexp_split_to_array(trim(text), '\\s+') AS ws "
            "FROM documents WHERE trim(coalesce(text,'')) <> ''), "
            "g AS (SELECT doc_id, ws, unnest(range(0, len(ws), 48)) AS s "
            "FROM w) "
            "SELECT doc_id, s // 48 AS chunk_id, s AS start_tok, "
            "least(64, len(ws) - s) AS n_tok, "
            "array_to_string(ws[s+1 : s+64], ' ') AS chunk_text FROM g"
        ),
        "host_pagerank": _host_pagerank_sql(),
        "docs_nb_quality": (
            # multinomial NB with add-one smoothing; positive class =
            # lang 'en'; token convention shared with tfidf/top_terms
            "WITH tok AS (SELECT doc_id, lang, "
            "unnest(regexp_extract_all(lower(text), '\\w\\w+')) AS t "
            "FROM documents), "
            "cnt AS (SELECT t, sum(CASE WHEN lang='en' THEN 1 ELSE 0 END) AS c1, "
            "sum(CASE WHEN lang='en' THEN 0 ELSE 1 END) AS c0 FROM tok GROUP BY t), "
            "tot AS (SELECT sum(c1) AS t1, sum(c0) AS t0, count(*) AS v FROM cnt), "
            "nd AS (SELECT sum(CASE WHEN lang='en' THEN 1 ELSE 0 END) AS n1, "
            "sum(CASE WHEN lang='en' THEN 0 ELSE 1 END) AS n0 FROM documents), "
            "w AS (SELECT t, ln((c1 + 1.0)/(t1 + v)) - ln((c0 + 1.0)/(t0 + v)) "
            "AS wt FROM cnt, tot), "
            "s AS (SELECT tok.doc_id, count(*) AS n_tokens, sum(w.wt) AS sw "
            "FROM tok JOIN w USING (t) GROUP BY tok.doc_id) "
            "SELECT d.doc_id, coalesce(s.n_tokens, 0) AS n_tokens, "
            "round(ln(nd.n1 * 1.0 / nd.n0) + coalesce(s.sw, 0), 6) AS log_odds, "
            "(ln(nd.n1 * 1.0 / nd.n0) + coalesce(s.sw, 0)) > 0 AS pred "
            "FROM documents d CROSS JOIN nd LEFT JOIN s ON s.doc_id = d.doc_id"
        ),
        "docs_split_assign": (
            # same Knuth-multiplicative + LCG-salt stream as the kernel
            "SELECT doc_id, lang, CASE "
            "WHEN (doc_id * 2654435761 + 1013904223) % 2147483648 % 100 < 90 "
            "THEN 'train' "
            "WHEN (doc_id * 2654435761 + 1013904223) % 2147483648 % 100 < 95 "
            "THEN 'valid' ELSE 'test' END AS split FROM documents"
        ),
        "term_postings": (
            # inverted index: exact df + head-32 posting list per term;
            # to_json(list_sort(...)[1:32]) is byte-equal to the
            # kernel's canonical JSON int-list serialization
            "WITH tok AS (SELECT DISTINCT doc_id, "
            "unnest(regexp_extract_all(lower(text), '\\w\\w+')) AS term "
            "FROM documents), "
            "g AS (SELECT term, count(*) AS df, "
            "list_sort(array_agg(doc_id))[1:32] AS ids FROM tok GROUP BY term) "
            "SELECT term, df, CAST(to_json(ids) AS VARCHAR) AS postings FROM g"
        ),
        "docs_lm_score": (
            # add-one-smoothed bigram LM fit on the corpus, scored as
            # mean bigram log-prob per doc (CCNet-style quality signal);
            # token convention shared with tfidf/top_terms
            "WITH tok AS (SELECT doc_id, "
            "regexp_extract_all(lower(text), '\\w\\w+') AS ts FROM documents), "
            "uni AS (SELECT t AS w, count(*) AS cu FROM "
            "(SELECT unnest(ts) AS t FROM tok) GROUP BY t), "
            "v AS (SELECT count(*) AS v FROM uni), "
            "big AS (SELECT doc_id, unnest(list_transform(range(1, len(ts)), "
            "i -> {'w1': ts[i], 'w2': ts[i+1]})) AS b FROM tok), "
            "bw AS (SELECT doc_id, b.w1 AS w1, b.w2 AS w2 FROM big), "
            "bc AS (SELECT w1, w2, count(*) AS cb FROM bw GROUP BY w1, w2), "
            "scored AS (SELECT bw.doc_id, "
            "ln((bc.cb + 1.0) / (uni.cu + v.v)) AS lp "
            "FROM bw JOIN bc USING (w1, w2) "
            "JOIN uni ON uni.w = bw.w1 CROSS JOIN v), "
            "agg AS (SELECT doc_id, count(*) AS n_bigrams, sum(lp) AS s "
            "FROM scored GROUP BY doc_id) "
            "SELECT d.doc_id, coalesce(a.n_bigrams, 0) AS n_bigrams, "
            "coalesce(round(a.s / a.n_bigrams, 6), 0.0) AS avg_logprob "
            "FROM documents d LEFT JOIN agg a USING (doc_id)"
        ),
        "word_deviance": (
            f"WITH wc AS ({wc}) "
            "SELECT doc_id, CAST(abs(word_count - "
            "(SELECT CAST(sum(word_count) AS BIGINT) // count(*) FROM wc)) AS BIGINT) "
            "AS word_deviance FROM wc"
        ),
        "tfidf": (
            "WITH tok AS ("
            "  SELECT doc_id, t AS term, count(*) AS tf FROM ("
            "    SELECT doc_id, unnest(regexp_extract_all(lower(text), '\\w\\w+')) AS t"
            "    FROM documents) GROUP BY doc_id, t"
            "), df AS (SELECT term, count(*) AS df FROM tok GROUP BY term), "
            "n AS (SELECT count(*) AS n FROM documents), "
            "idf AS (SELECT term, ln((1 + n.n) / (1 + df.df)) + 1.0 AS idf "
            "        FROM df, n WHERE df.df >= 2), "
            "scored AS (SELECT t.doc_id, t.term, t.tf * i.idf AS raw "
            "           FROM tok t JOIN idf i USING (term)), "
            "nrm AS (SELECT doc_id, sqrt(sum(raw*raw)) AS nrm FROM scored GROUP BY doc_id) "
            "SELECT s.doc_id, s.term, round(s.raw / nr.nrm, 6) AS score "
            "FROM scored s JOIN nrm nr USING (doc_id)"
        ),
        "tfidf_vocab": (
            "WITH vocab(term) AS (VALUES "
            + ", ".join(f"('{t}')" for t in TFIDF_VOCAB_TERMS)
            + "), docs AS ("
            "  SELECT doc_id, substr(coalesce(text,''), 1, 200) || chr(10) "
            "         || coalesce(text,'') AS content FROM documents"
            "), tok AS ("
            "  SELECT doc_id, t AS term, count(*) AS tf FROM ("
            "    SELECT doc_id, unnest(regexp_extract_all(lower(content), "
            "'\\w\\w+')) AS t FROM docs) "
            "  WHERE t IN (SELECT term FROM vocab) GROUP BY doc_id, t"
            "), df AS (SELECT term, count(*) AS df FROM tok GROUP BY term), "
            "n AS (SELECT count(*) AS n FROM documents), "
            "idf AS (SELECT term, ln((1 + n.n) / (1 + df.df)) + 1.0 AS idf "
            "        FROM df, n), "
            "scored AS (SELECT t.doc_id, t.term, t.tf * i.idf AS raw "
            "           FROM tok t JOIN idf i USING (term)), "
            "nrm AS (SELECT doc_id, sqrt(sum(raw*raw)) AS nrm FROM scored "
            "        GROUP BY doc_id) "
            "SELECT s.doc_id, s.term, round(s.raw / nr.nrm, 6) AS score "
            "FROM scored s JOIN nrm nr USING (doc_id)"
        ),
        "docs_en_quality": (
            "SELECT doc_id, source, n_chars, "
            "CAST(CASE WHEN trim(text) = '' THEN 0 "
            "ELSE len(regexp_split_to_array(trim(text), '\\s+')) END AS BIGINT) AS n_words "
            "FROM documents WHERE lang = 'en'"
        ),
        "docs_join_embeddings": (
            "SELECT d.doc_id, d.lang, d.n_chars, e.label "
            "FROM documents d JOIN embeddings e ON d.doc_id = e.vec_id"
        ),
        "filter_unprocessed": (
            "SELECT doc_id, lang, n_chars FROM documents "
            "WHERE doc_id NOT IN (SELECT vec_id FROM embeddings WHERE label = 0)"
        ),
        "dedup_exact": (
            "SELECT min(doc_id) AS doc_id, min(n_chars) AS n_chars "
            "FROM documents GROUP BY text"
        ),
        "docs_slice": (
            "SELECT doc_id, lang, n_chars FROM documents "
            "WHERE doc_id % 7 = 0 AND doc_id < 500"
        ),
        "docs_sample_hash": (
            "SELECT doc_id, lang, n_chars FROM documents "
            "WHERE ((doc_id * 2654435761) % 2147483648) % 100 < 30"
        ),
        "docs_sample_stratified": (
            "SELECT doc_id, lang, n_chars FROM documents "
            "WHERE ((doc_id * 2654435761) % 2147483648) % 100 < "
            "CASE WHEN lang = 'en' THEN 50 ELSE 20 END"
        ),
        # temperature resampling (alpha=0.5): integer-exact quota chain
        # n -> isqrt weight -> quota -> per-lang int threshold; see
        # steps.docs_lang_temperature_sample. floor(sqrt(double)) ==
        # isqrt below 2^52 (guarded on the Ray side).
        "docs_lang_temperature_sample": (
            "WITH c AS (SELECT lang, COUNT(*)::BIGINT AS n "
            "           FROM documents GROUP BY lang), "
            "t AS (SELECT SUM(CAST(FLOOR(SQRT(n::DOUBLE)) AS BIGINT))"
            "::BIGINT AS sw, SUM(n)::BIGINT AS nn FROM c), "
            "q AS (SELECT lang, n, LEAST(n, ((nn * 40) // 100) * "
            "CAST(FLOOR(SQRT(n::DOUBLE)) AS BIGINT) // sw) AS tl "
            "      FROM c, t), "
            "thr AS (SELECT lang, CASE WHEN tl = 0 THEN -1 "
            "ELSE (1048576 * tl - 1) // n END AS th FROM q) "
            "SELECT d.doc_id, d.lang, d.n_chars "
            "FROM documents d JOIN thr USING (lang) "
            "WHERE ((d.doc_id * 2654435761) % 2147483648) % 1048576 "
            "<= thr.th"
        ),
        # priority sampling (w/u, top-k): the numerator is an exact
        # double below 2^53 and one IEEE division is correctly
        # rounded, so numpy and DuckDB select the identical set.
        "docs_sample_weighted": (
            "SELECT doc_id, n_chars, round(priority, 6) AS priority "
            "FROM (SELECT doc_id, n_chars, "
            "  (n_chars * 2147483648.0) / "
            "  (((doc_id * 2654435761) % 2147483648) + 1) AS priority "
            "  FROM documents) "
            "ORDER BY priority DESC, doc_id LIMIT 100"
        ),
        # exclusive running sum over doc_id order, floor-divided into
        # budget-sized chunks (concatenate-and-chunk packing); float
        # division is exact below 2^53
        "docs_pack_shards": (
            "SELECT doc_id, n_chars, CAST(FLOOR("
            "(SUM(n_chars) OVER (ORDER BY doc_id ROWS BETWEEN UNBOUNDED"
            " PRECEDING AND CURRENT ROW) - n_chars) / 20000.0) AS BIGINT)"
            " AS shard FROM documents"
        ),
        "docs_nchars_quantiles": (
            "SELECT q, value FROM ("
            "  SELECT 0.25 AS q, quantile_disc(n_chars, 0.25) AS value FROM documents"
            "  UNION ALL SELECT 0.50, quantile_disc(n_chars, 0.50) FROM documents"
            "  UNION ALL SELECT 0.75, quantile_disc(n_chars, 0.75) FROM documents"
            "  UNION ALL SELECT 0.95, quantile_disc(n_chars, 0.95) FROM documents)"
        ),
        "docs_nchars_quantiles_cont": (
            "SELECT q, value FROM ("
            "  SELECT 0.25 AS q, round(quantile_cont(n_chars, 0.25), 4)"
            "    AS value FROM documents"
            "  UNION ALL SELECT 0.50, round(quantile_cont(n_chars, 0.50), 4)"
            "    FROM documents"
            "  UNION ALL SELECT 0.75, round(quantile_cont(n_chars, 0.75), 4)"
            "    FROM documents"
            "  UNION ALL SELECT 0.95, round(quantile_cont(n_chars, 0.95), 4)"
            "    FROM documents)"
        ),
        # exact integer moment sums on both sides; the identical
        # (n*Sxy - Sx*Sy) / (sqrt(n*Sxx - Sx^2) * sqrt(n*Syy - Sy^2))
        # double expression — NOT the stream-order-dependent corr()
        "docs_lang_corr": (
            r"WITH t AS (SELECT lang, n_chars AS x, "
            r"len(regexp_extract_all(lower(coalesce(text, '')), '\w\w+')) "
            r"AS y "
            "FROM documents), "
            "m AS (SELECT lang, count(*) AS n, sum(x) AS sx, sum(y) AS sy, "
            "  sum(x * x) AS sxx, sum(y * y) AS syy, sum(x * y) AS sxy "
            "  FROM t GROUP BY lang) "
            "SELECT lang, CAST(n AS BIGINT) AS n, "
            "round((CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE) "
            "  - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE)) "
            " / (sqrt(CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE) "
            "    - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)) "
            "  * sqrt(CAST(n AS DOUBLE) * CAST(syy AS DOUBLE) "
            "    - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE))), 6) "
            "AS corr_len_tokens FROM m"
        ),
        "events_user_retention": (
            "WITH ud AS (SELECT DISTINCT date_trunc('day', ts) AS day, "
            "  user_id FROM events) "
            "SELECT ud.day AS day, count(*) AS n_active, "
            "  count(nxt.user_id) AS n_retained_next "
            "FROM ud LEFT JOIN ud nxt ON nxt.user_id = ud.user_id "
            "  AND nxt.day = ud.day + INTERVAL 1 DAY "
            "GROUP BY ud.day"
        ),
        "docs_lang_quantiles": (
            "SELECT lang, q, value FROM ("
            "  SELECT lang, 0.25 AS q, quantile_disc(n_chars, 0.25) AS value"
            "    FROM documents GROUP BY lang"
            "  UNION ALL SELECT lang, 0.50, quantile_disc(n_chars, 0.50)"
            "    FROM documents GROUP BY lang"
            "  UNION ALL SELECT lang, 0.75, quantile_disc(n_chars, 0.75)"
            "    FROM documents GROUP BY lang"
            "  UNION ALL SELECT lang, 0.95, quantile_disc(n_chars, 0.95)"
            "    FROM documents GROUP BY lang)"
        ),
        "docs_nchars_quantiles_sampled": (
            "WITH s AS (SELECT n_chars FROM documents "
            "  WHERE ((doc_id * 2654435761) % 2147483648) % 8 = 0) "
            "SELECT q, value FROM ("
            "  SELECT 0.25 AS q, quantile_disc(n_chars, 0.25) AS value FROM s"
            "  UNION ALL SELECT 0.50, quantile_disc(n_chars, 0.50) FROM s"
            "  UNION ALL SELECT 0.75, quantile_disc(n_chars, 0.75) FROM s"
            "  UNION ALL SELECT 0.95, quantile_disc(n_chars, 0.95) FROM s)"
        ),
        "top_terms": (
            "SELECT t AS term, count(*) AS n FROM ("
            "  SELECT unnest(regexp_extract_all(lower(text), '\\w\\w+')) AS t"
            "  FROM documents) "
            "GROUP BY t ORDER BY n DESC, term ASC LIMIT 20"
        ),
        "top_docs_per_lang": (
            "SELECT doc_id, lang, n_chars FROM ("
            "  SELECT doc_id, lang, n_chars, row_number() OVER ("
            "    PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS rn"
            "  FROM documents) WHERE rn <= 3"
        ),
        "orders_custkey_hll": _golden_sql("orders_custkey_hll"),
        "events_user_hll_hourly": _golden_sql("events_user_hll_hourly"),
        "lineitem_rollup": (
            "SELECT l_returnflag, l_linestatus, "
            "round(sum(l_quantity), 4) AS sum_qty, "
            "round(sum(l_extendedprice * (1 - l_discount)), 4) "
            "  AS sum_revenue, "
            "count(*) AS n_rows "
            "FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)"
        ),
        "lineitem_cube": (
            "SELECT l_returnflag, l_linestatus, "
            "round(sum(l_quantity), 4) AS sum_qty, "
            "round(sum(l_extendedprice * (1 - l_discount)), 4) "
            "  AS sum_revenue, "
            "count(*) AS n_rows "
            "FROM lineitem GROUP BY CUBE(l_returnflag, l_linestatus)"
        ),
        # Connected components of the planted host graph, oracled by a
        # genuine recursive-CTE reachability query (not a plant
        # re-derivation): component = min reachable host over the
        # undirected edge set, n_hosts = reachable-set size.
        "host_components": (
            "WITH RECURSIVE d AS ("
            "  SELECT doc_id % 3 AS s, doc_id % 7 AS k, doc_id "
            "  FROM documents), "
            "e0 AS ("
            "  SELECT 'sub' || s || '.site' || k || '.example' AS a, "
            "    'sub' || s || '.site' || ((k + 1) % 7) || '.example' AS b "
            "  FROM d "
            "  UNION "
            "  SELECT 'sub0.site' || k || '.example' AS a, "
            "    'sub1.site' || k || '.example' AS b "
            "  FROM d WHERE doc_id % 33 = 0), "
            "e AS (SELECT a, b FROM e0 UNION SELECT b AS a, a AS b FROM e0), "
            "r AS ("
            "  SELECT a AS host, a AS peer FROM e "
            "  UNION "
            "  SELECT r.host, e.b AS peer FROM r JOIN e ON e.a = r.peer) "
            "SELECT host, min(peer) AS component, count(*) AS n_hosts "
            "FROM r GROUP BY host"
        ),
        "customer_order_counts": (
            "SELECT c.c_custkey, c.c_name, "
            "COALESCE(o.n_orders, 0) AS n_orders, "
            "round(COALESCE(o.sum_total, 0.0), 4) AS total_spent "
            "FROM customer c LEFT JOIN ("
            "  SELECT o_custkey, count(*) AS n_orders, "
            "    sum(o_totalprice) AS sum_total "
            "  FROM orders WHERE o_totalprice > 450000.0 "
            "  GROUP BY o_custkey) o ON o.o_custkey = c.c_custkey"
        ),
        "lineitem_orders_semijoin": (
            "SELECT l_orderkey, round(l_extendedprice, 2) AS l_extendedprice "
            "FROM lineitem WHERE l_orderkey IN ("
            "SELECT o_orderkey FROM orders WHERE o_totalprice > 400000)"
        ),
        "normalize_part_names": (
            "SELECT p_partkey, array_to_string(list_transform("
            "string_split(trim(p_name), ' '), "
            "x -> upper(substr(x, 1, 1)) || lower(substr(x, 2))), ' ') "
            "AS p_name_normalized FROM part"
        ),
        "lineitem_agg": (
            "SELECT l_returnflag, l_linestatus, "
            "round(sum(l_quantity), 4) AS sum_qty, "
            "round(sum(l_extendedprice * (1 - l_discount)), 4) AS sum_revenue, "
            "round(avg(l_discount), 6) AS avg_disc, "
            "count(*) AS n_rows "
            "FROM lineitem GROUP BY l_returnflag, l_linestatus"
        ),
        "events_hourly": (
            "SELECT event_type, date_trunc('hour', ts) AS hour, "
            "count(*) AS n_events, round(sum(value), 6) AS sum_value "
            "FROM events GROUP BY event_type, date_trunc('hour', ts)"
        ),
        "events_sessionize": (
            "WITH e AS ("
            "  SELECT event_id, user_id, ts, CASE WHEN ts - lag(ts) OVER "
            "    (PARTITION BY user_id ORDER BY ts, event_id) > INTERVAL 30 MINUTE "
            "    THEN 1 ELSE 0 END AS brk FROM events), "
            "s AS (SELECT event_id, user_id, ts, CAST(sum(brk) OVER "
            "  (PARTITION BY user_id ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING) "
            "  AS BIGINT) AS session_id FROM e) "
            "SELECT event_id, user_id, session_id, "
            "min(ts) OVER (PARTITION BY user_id, session_id) AS session_start FROM s"
        ),
        "events_asof_orders": (
            "WITH o AS (SELECT o_custkey, o_orderdate, max(o_orderkey) AS o_orderkey "
            "           FROM orders GROUP BY o_custkey, o_orderdate) "
            "SELECT e.event_id, e.user_id, e.ts, o.o_orderkey, o.o_orderdate "
            "FROM events e ASOF JOIN o "
            "ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate"
        ),
        "events_rolling_count": (
            "SELECT event_id, user_id, ts, "
            "CAST(count(*) OVER (PARTITION BY user_id ORDER BY ts "
            "RANGE BETWEEN INTERVAL 60 MINUTE PRECEDING AND CURRENT ROW) "
            "AS BIGINT) AS n_window FROM events"
        ),
        "events_range_join": (
            "SELECT a.event_id AS a_id, b.event_id AS b_id, a.user_id "
            "FROM events a JOIN events b ON a.user_id = b.user_id "
            "AND b.ts >= a.ts AND b.ts < a.ts + INTERVAL 10 MINUTE "
            "AND b.event_id <> a.event_id"
        ),
        # deletion-neighborhood blocking is complete for edit
        # distance <= 1, so the exact levenshtein predicate is a true
        # oracle; the trailing-char plant replays identically
        "part_name_fuzzy_pairs": (
            "WITH s AS ("
            "  SELECT DISTINCT trim(p_name) AS nm FROM part "
            "  UNION "
            "  SELECT DISTINCT substr(trim(p_name), 1, "
            "length(trim(p_name)) - 1) AS nm FROM part "
            "  WHERE p_partkey % 7 = 0) "
            "SELECT a.nm AS nm_a, b.nm AS nm_b FROM s a JOIN s b "
            "ON a.nm < b.nm AND levenshtein(a.nm, b.nm) <= 1"
        ),
        # PMI over adjacent \w\w+ token pairs; identical IEEE op tree
        # (nab/B) / ((na/T) * (nb/T)) inside ln on both sides, rounded
        # to 6dp BEFORE the (pmi desc, bigram asc) total order
        "docs_pmi_bigrams": (
            r"WITH arrs AS (SELECT regexp_extract_all("
            r"lower(coalesce(text, '')), '\w\w+') AS a FROM documents), "
            "uni AS (SELECT unnest(a) AS w FROM arrs), "
            "big AS (SELECT a[i] || ' ' || a[i+1] AS bg FROM arrs, "
            "  unnest(generate_series(1, greatest(len(a) - 1, 0))) "
            "  AS t(i)), "
            "uc AS (SELECT w, count(*) AS n FROM uni GROUP BY w), "
            "bc AS (SELECT bg, count(*) AS n FROM big GROUP BY bg "
            "  HAVING count(*) >= 5), "
            "tot AS (SELECT CAST((SELECT count(*) FROM uni) AS DOUBLE) "
            "  AS t, CAST((SELECT count(*) FROM big) AS DOUBLE) AS b) "
            "SELECT bc.bg AS bigram, bc.n AS n, "
            "round(ln((CAST(bc.n AS DOUBLE) / tot.b) / "
            "((CAST(ua.n AS DOUBLE) / tot.t) * "
            "(CAST(ub.n AS DOUBLE) / tot.t))), 6) AS pmi "
            "FROM bc, tot "
            "JOIN uc ua ON ua.w = split_part(bc.bg, ' ', 1) "
            "JOIN uc ub ON ub.w = split_part(bc.bg, ' ', 2) "
            "ORDER BY pmi DESC, bigram LIMIT 20"
        ),
        # greedy earliest chain: each stage's time is the min event
        # time strictly after the previous stage's — a user reaches
        # stage k under ANY chain iff under the greedy one
        "events_funnel": (
            "WITH u1 AS (SELECT user_id, min(ts) AS t FROM events "
            "  WHERE event_type = 'view' GROUP BY user_id), "
            "u2 AS (SELECT e.user_id, min(e.ts) AS t FROM events e "
            "  JOIN u1 ON e.user_id = u1.user_id "
            "  WHERE e.event_type = 'click' AND e.ts > u1.t "
            "  GROUP BY e.user_id), "
            "u3 AS (SELECT e.user_id, min(e.ts) AS t FROM events e "
            "  JOIN u2 ON e.user_id = u2.user_id "
            "  WHERE e.event_type = 'purchase' AND e.ts > u2.t "
            "  GROUP BY e.user_id) "
            "SELECT 'view' AS stage, CAST(count(*) AS BIGINT) AS n_users "
            "FROM u1 UNION ALL "
            "SELECT 'click', CAST(count(*) AS BIGINT) FROM u2 UNION ALL "
            "SELECT 'purchase', CAST(count(*) AS BIGINT) FROM u3"
        ),
        # PIVOT / crosstab via conditional aggregation; the CASE ladder
        # replays the quality-buckets thresholds exactly
        "docs_lang_bucket_pivot": (
            "WITH t AS (SELECT quantile_disc(n_chars, 0.25) AS t25, "
            "  quantile_disc(n_chars, 0.5) AS t50, "
            "  quantile_disc(n_chars, 0.75) AS t75 FROM documents), "
            "b AS (SELECT lang, CASE WHEN n_chars <= t25 THEN 0 "
            "  WHEN n_chars <= t50 THEN 1 WHEN n_chars <= t75 THEN 2 "
            "  ELSE 3 END AS bucket FROM documents, t) "
            "SELECT lang, "
            "CAST(count(*) FILTER (bucket = 0) AS BIGINT) AS n_b0, "
            "CAST(count(*) FILTER (bucket = 1) AS BIGINT) AS n_b1, "
            "CAST(count(*) FILTER (bucket = 2) AS BIGINT) AS n_b2, "
            "CAST(count(*) FILTER (bucket = 3) AS BIGINT) AS n_b3, "
            "CAST(count(*) AS BIGINT) AS n_total "
            "FROM b GROUP BY lang"
        ),
        # grouped mode with the (count desc, type asc) total order
        "events_user_top_type": (
            "SELECT user_id, event_type, n_events FROM ("
            "  SELECT user_id, event_type, count(*) AS n_events, "
            "  row_number() OVER (PARTITION BY user_id "
            "    ORDER BY count(*) DESC, event_type) AS rn "
            "  FROM events GROUP BY user_id, event_type) "
            "WHERE rn = 1"
        ),
        # global (no PARTITION BY) trailing window; RANGE peers share
        # the frame on both bounds; integer cents keep sums exact
        "events_global_rolling_sum": (
            "SELECT event_id, ts, "
            "CAST(count(*) OVER w AS BIGINT) AS win_n, "
            "CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER w "
            "AS BIGINT) AS win_cents FROM events "
            "WINDOW w AS (ORDER BY ts "
            "RANGE BETWEEN INTERVAL 60 MINUTE PRECEDING AND CURRENT ROW)"
        ),
        # integer-cents running sum: floor(v*100 + 0.5) is the same
        # IEEE op sequence as the numpy kernel, so prefix sums are
        # exact and accumulation-order-independent
        "events_user_running_total": (
            "SELECT event_id, user_id, ts, "
            "CAST(count(*) OVER w AS BIGINT) AS run_n, "
            "CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER w "
            "AS BIGINT) AS run_cents FROM events "
            "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS UNBOUNDED PRECEDING)"
        ),
        "knn_embeddings": knn,
        # IVF with n_probe == n_cells is exhaustive -> provably equal
        # to exact brute-force cosine top-k, so it shares the oracle.
        "knn_ivf": knn,
        "revenue_by_nation": (
            "SELECT n.n_name, r.r_name, "
            "round(sum(o.o_totalprice), 4) AS total_revenue, "
            "count(*) AS n_orders "
            "FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey "
            "JOIN nation n ON c.c_nationkey = n.n_nationkey "
            "JOIN region r ON n.n_regionkey = r.r_regionkey "
            "GROUP BY n.n_name, r.r_name"
        ),
        "pdf_extract_text": (
            "SELECT 'https://corpus.example.org/doc/' || doc_id AS url, "
            "'Doc ' || doc_id || chr(10) || chr(10) || text AS extracted_text "
            "FROM documents"
        ),
        "jats_extract_text": jats,
        # extract_jats_pages projects (n_chars, n_spans) of the same
        # byte-exact JATS reconstruction; every synthesized article has
        # exactly two sections (intro, results).
        "extract_jats_pages": (
            f"WITH j AS ({jats}) "
            "SELECT url, CAST(length(extracted_text) AS BIGINT) AS n_chars, "
            "CAST(2 AS BIGINT) AS n_spans FROM j"
        ),
        "docs_langid_quality": _langid_quality_sql(),
        # composite mix pipeline: the langid/quality SQL feeds an
        # exact-dedup GROUP BY and the pack window — one CTE chain,
        # end-to-end (filter thresholds apply to the ROUNDED score on
        # both sides; texts are all-distinct on the test corpora but
        # the GROUP BY mirrors the engine's dedup stage regardless)
        "docs_training_mix": (
            f"WITH lq AS ({_langid_quality_sql()}), "
            "surv AS (SELECT d.doc_id, d.text, d.n_chars FROM documents d "
            "  JOIN lq USING (doc_id) WHERE lq.lang_pred = 'en' "
            "  AND lq.quality_score >= 0.5), "
            "win AS (SELECT min(doc_id) AS doc_id FROM surv "
            "  GROUP BY text), "
            "kept AS (SELECT s.doc_id, s.n_chars FROM surv s "
            "  JOIN win USING (doc_id)) "
            "SELECT doc_id, n_chars, CAST(FLOOR("
            "(SUM(n_chars) OVER (ORDER BY doc_id ROWS BETWEEN UNBOUNDED"
            " PRECEDING AND CURRENT ROW) - n_chars) / 20000.0) AS BIGINT)"
            " AS shard FROM kept"
        ),
        "abbrev_expand_planted": (
            "SELECT doc_id, "
            "CAST(CASE WHEN doc_id % 3 = 0 THEN 0 ELSE 1 END AS BIGINT) "
            "AS n_abbreviations, "
            "CASE WHEN doc_id % 3 = 0 "
            "THEN 'Study ' || doc_id || "
            "' reports baseline results with no definitions.' "
            f"ELSE {planted_expanded} END AS expanded_text FROM documents"
        ),
        # pinned-golden oracles (regenerate: python tools/make_goldens.py)
        "docs_bpe_merges": _golden_sql("docs_bpe_merges"),
        "docs_importance_weights_hashed": _golden_sql(
            "docs_importance_weights_hashed"),
        "docs_winnow_fingerprints": _golden_sql("docs_winnow_fingerprints"),
        "events_hourly_top": (
            "WITH h AS (SELECT date_trunc('hour', ts) AS hour, "
            "  event_type, count(*) AS n_events FROM events "
            "  GROUP BY 1, 2), "
            "r AS (SELECT *, row_number() OVER (PARTITION BY hour "
            "  ORDER BY n_events DESC, event_type) AS rk FROM h) "
            "SELECT hour, event_type, n_events FROM r WHERE rk = 1"
        ),
        "embeddings_label_centroids": (
            "WITH e AS (SELECT CAST(label AS BIGINT) AS label, "
            "  CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) "
            "    AS dim, "
            "  unnest(embedding) AS v FROM embeddings) "
            "SELECT label, dim, round(avg(v), 6) AS centroid, "
            "  CAST(count(*) AS BIGINT) AS n_vecs "
            "FROM e GROUP BY label, dim"
        ),
        "corpus_stats": (
            "WITH tok AS (SELECT unnest(regexp_extract_all("
            "  lower(coalesce(text,'')), '\\w+')) AS w FROM documents), "
            "c AS (SELECT w, count(*) AS n FROM tok GROUP BY w) "
            "SELECT (SELECT count(*) FROM documents) AS n_docs, "
            "  CAST(coalesce((SELECT sum(n) FROM c), 0) AS BIGINT) "
            "    AS n_tokens, "
            "  CAST((SELECT count(*) FROM c) AS BIGINT) AS vocab_size, "
            "  round(coalesce((SELECT max(n) FROM c) * 1.0 / "
            "    nullif((SELECT sum(n) FROM c), 0), 0), 6) "
            "    AS top_term_share, "
            "  round(coalesce((SELECT count(*) FROM c) * 1.0 / "
            "    nullif((SELECT sum(n) FROM c), 0), 0), 6) "
            "    AS type_token_ratio"
        ),
        "docs_bpe_encode": _golden_sql("docs_bpe_encode"),
        "docs_fingerprint": _golden_sql("docs_fingerprint"),
        "docs_bloom_seen": _golden_sql("docs_bloom_seen"),
        "docs_compression_ratio": _golden_sql("docs_compression_ratio"),
        "docs_char_entropy": (
            # Shannon entropy in bits/char over the exact character
            # multiset; empty/NULL text scores 0.0
            "WITH ch AS (SELECT doc_id, unnest(string_split(text, '')) AS c "
            "FROM documents WHERE len(coalesce(text,'')) > 0), "
            "f AS (SELECT doc_id, c, count(*) AS n FROM ch GROUP BY doc_id, c), "
            "t AS (SELECT doc_id, sum(n) AS tot FROM f GROUP BY doc_id), "
            "e AS (SELECT f.doc_id, -sum((n * 1.0 / tot) * log2(n * 1.0 / tot)) "
            "AS ent FROM f JOIN t USING (doc_id) GROUP BY f.doc_id) "
            "SELECT d.doc_id, round(coalesce(e.ent, 0.0), 6) AS char_entropy "
            "FROM documents d LEFT JOIN e USING (doc_id)"
        ),
        "docs_importance_weights": (
            # DSIR unigram log-likelihood-ratio weights, add-one
            # smoothed, length-normalized, rounded to 6 on both sides
            "WITH tok AS (SELECT doc_id, lang, "
            "  unnest(regexp_extract_all(lower(coalesce(text,'')), "
            "  '\\w+')) AS w FROM documents), "
            "raw AS (SELECT w, count(*) AS cr FROM tok GROUP BY w), "
            "tgt AS (SELECT w, count(*) AS ct FROM tok "
            "  WHERE lang = 'en' GROUP BY w), "
            "tots AS (SELECT (SELECT sum(cr) FROM raw) AS tr, "
            "  (SELECT coalesce(sum(ct), 0) FROM tgt) AS tt, "
            "  (SELECT count(*) FROM raw) AS v), "
            "lr AS (SELECT raw.w, "
            "  ln((coalesce(tgt.ct, 0) + 1.0) / (tots.tt + tots.v)) "
            "  - ln((raw.cr + 1.0) / (tots.tr + tots.v)) AS lw "
            "  FROM raw LEFT JOIN tgt USING (w) CROSS JOIN tots), "
            "perdoc AS (SELECT tok.doc_id, count(*) AS n_words, "
            "  sum(lr.lw) AS s FROM tok JOIN lr USING (w) "
            "  GROUP BY tok.doc_id) "
            "SELECT d.doc_id, coalesce(p.n_words, 0) AS n_words, "
            "  round(coalesce(p.s / p.n_words, 0.0), 6) AS weight "
            "FROM documents d LEFT JOIN perdoc p USING (doc_id)"
        ),
        "docs_gopher_rules": (
            # Gopher page-quality gates; keep compares ROUNDED
            # fractions on both sides (kernel rounds to 6 first too)
            "WITH s AS (SELECT doc_id, "
            "  len(regexp_extract_all(coalesce(text,''), '\\S+')) AS nw, "
            "  length(regexp_replace(coalesce(text,''), '\\s', '', 'g')) "
            "    AS nonspace, "
            "  len(list_filter(regexp_extract_all(coalesce(text,''), "
            "    '\\S+'), x -> regexp_matches(x, '[A-Za-z]'))) AS na, "
            "  length(coalesce(text,'')) - "
            "    length(replace(coalesce(text,''), '#', '')) AS nh, "
            "  (length(coalesce(text,'')) - "
            "    length(replace(coalesce(text,''), '...', ''))) / 3 AS ne, "
            "  len(list_filter(regexp_extract_all(lower(coalesce(text,'')), "
            "    '\\w+'), x -> x IN ('the','be','to','of','and','that',"
            "    'have','with'))) AS ns FROM documents), "
            "r AS (SELECT doc_id, nw AS n_words, "
            "  round(CASE WHEN nw>0 THEN nonspace*1.0/nw ELSE 0 END, 6) "
            "    AS mean_word_len, "
            "  round(CASE WHEN nw>0 THEN na*1.0/nw ELSE 0 END, 6) "
            "    AS alpha_word_frac, "
            "  round(CASE WHEN nw>0 THEN (nh+ne)*1.0/nw ELSE 0 END, 6) "
            "    AS symbol_frac, "
            "  ns AS n_stopwords FROM s) "
            "SELECT doc_id, n_words, mean_word_len, alpha_word_frac, "
            "  symbol_frac, n_stopwords, "
            "  (n_words BETWEEN 50 AND 100000 "
            "   AND mean_word_len BETWEEN 3 AND 10 "
            "   AND symbol_frac < 0.1 AND alpha_word_frac >= 0.8 "
            "   AND n_stopwords >= 2) AS keep FROM r"
        ),
        "docs_c4_rules": (
            # planted page built with concat_ws (skips NULL branches,
            # matching the kernel's conditional list append)
            "WITH p AS (SELECT doc_id, concat_ws(chr(10), "
            "  CASE WHEN doc_id % 2 = 0 THEN 'Home | About | Contact' END, "
            "  CASE WHEN doc_id % 7 = 0 THEN "
            "    'Please enable javascript in your browser settings.' END, "
            "  'First the page content follows. ' || coalesce(text,'') || "
            "    ' appears in the body.' || CASE WHEN doc_id % 4 <> 1 "
            "    THEN ' The article ends here.' ELSE '' END, "
            "  CASE WHEN doc_id % 5 = 0 THEN 'Short line.' END, "
            "  CASE WHEN doc_id % 11 = 0 THEN "
            "    'It contains lorem ipsum filler text today.' END, "
            "  CASE WHEN doc_id % 13 = 0 THEN "
            "    'var config = { mode: 1 };' END) AS t FROM documents), "
            "s AS (SELECT doc_id, t, string_split(t, chr(10)) AS lines, "
            "  list_filter(string_split(t, chr(10)), l -> "
            "    regexp_matches(l, '[.!?\"]$') "
            "    AND len(regexp_extract_all(l, '\\S+')) >= 5 "
            "    AND NOT contains(lower(l), 'javascript')) AS kept FROM p) "
            "SELECT doc_id, len(lines) AS n_lines, "
            "  len(kept) AS n_lines_kept, "
            "  len(regexp_extract_all(array_to_string(kept, chr(10)), "
            "    '[.!?]')) AS n_sentences, "
            "  (NOT contains(lower(t), 'lorem ipsum') "
            "   AND NOT contains(t, '{') "
            "   AND len(regexp_extract_all(array_to_string(kept, chr(10)), "
            "     '[.!?]')) >= 3 AND len(kept) >= 1) AS keep, "
            "  array_to_string(kept, chr(10)) AS clean_text FROM s"
        ),
        "docs_pack_sequences": (
            # concat-and-chunk packing: global token positions via a
            # window prefix over doc_id order, then group by pos//L
            "WITH d AS (SELECT doc_id, list_append("
            "  regexp_extract_all(coalesce(text,''), '\\S+'), '<eos>') "
            "  AS toks FROM documents), "
            "o AS (SELECT doc_id, toks, coalesce(sum(len(toks)) OVER ("
            "  ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND "
            "  1 PRECEDING), 0) AS off FROM d), "
            "t AS (SELECT off + generate_subscripts(toks, 1) - 1 AS pos, "
            "  unnest(toks) AS tok FROM o) "
            # the window sum promotes to HUGEINT, which fetchdf would
            # surface as float64 — BIGINT-cast both outputs (repo rule)
            "SELECT CAST(pos // 32 AS BIGINT) AS seq_id, "
            "  CAST(count(*) AS BIGINT) AS n_tokens, "
            "  string_agg(tok, ' ' ORDER BY pos) AS seq_text "
            "FROM t GROUP BY 1"
        ),
        "top_terms_cms": _golden_sql("top_terms_cms"),
        "docs_token_count": _golden_sql("docs_token_count"),
        "minhash_dedup_groups": _golden_sql("minhash_dedup_groups"),
        # incremental two-step run provably equals from-scratch
        # (tests/test_dedup_incremental.py) -> shares its golden
        "minhash_dedup_incremental": _golden_sql("minhash_dedup_groups"),
        "simhash_dedup_groups": _golden_sql("simhash_dedup_groups"),
        # incremental two-step simhash == from-scratch (same proof as
        # minhash_dedup_incremental) -> shares its golden
        "simhash_dedup_incremental": _golden_sql("simhash_dedup_groups"),
        # exact SQL re-expression of the k=5 word-shingle overlap: the
        # \w+ lowercase tokenization matches textstats.shingles on the
        # (all-ASCII) corpora; short docs (< 5 words) contribute their
        # single joined-words shingle, matching the Python kernel
        "docs_decontaminate": (
            "WITH w AS (SELECT doc_id,"
            "  regexp_extract_all(lower(text), '\\w+') AS ws"
            "  FROM documents),"
            " ix AS (SELECT doc_id, ws,"
            "  unnest(generate_series(1, greatest(len(ws) - 4, 1))) AS i"
            "  FROM w WHERE len(ws) > 0),"
            " sh AS (SELECT doc_id, array_to_string(ws[i:i+4], ' ') AS s"
            "  FROM ix),"
            " bs AS (SELECT DISTINCT s FROM sh WHERE doc_id % 50 = 0),"
            " hits AS (SELECT u.doc_id, count(*) AS n_hits FROM"
            "  (SELECT DISTINCT doc_id, s FROM sh) u JOIN bs USING (s)"
            "  GROUP BY u.doc_id)"
            " SELECT d.doc_id, coalesce(h.n_hits, 0) AS n_hits,"
            "  coalesce(h.n_hits, 0) > 0 AS contaminated"
            " FROM documents d LEFT JOIN hits h USING (doc_id)"
        ),
        # dataset reconciliation: B = documents with planted edits
        # (%17 edited, %23 dropped, %29 spawns doc_id+10M), statuses
        # via FULL OUTER JOIN; matched-and-equal rows emit nothing
        # (IS DISTINCT FROM keeps null==null as unchanged, mirroring
        # the engine's null sentinel in the row signature)
        "docs_diff_planted": (
            "WITH b AS ("
            "  SELECT doc_id, CASE WHEN doc_id % 17 = 0 THEN "
            "    coalesce(text,'') || ' [edited v2]' ELSE text END AS text "
            "  FROM documents WHERE doc_id % 23 <> 0 "
            "  UNION ALL "
            "  SELECT doc_id + 10000000 AS doc_id, "
            "    'synthetic added row' AS text "
            "  FROM documents WHERE doc_id % 29 = 0), "
            "j AS (SELECT a.doc_id AS ak, b.doc_id AS bk, "
            "  a.text AS at, b.text AS bt "
            "  FROM documents a FULL OUTER JOIN b ON a.doc_id = b.doc_id) "
            "SELECT coalesce(ak, bk) AS key, "
            "  CASE WHEN ak IS NULL THEN 'added' "
            "       WHEN bk IS NULL THEN 'removed' "
            "       ELSE 'changed' END AS status "
            "FROM j WHERE ak IS NULL OR bk IS NULL "
            "  OR (at IS DISTINCT FROM bt)"
        ),
        # per-domain percentile filter: percent_rank() semantics
        # (min-rank ties, (rank-1)/(n-1), singleton -> 0) over the
        # planted domains; filter on the UNROUNDED pr, round after
        "docs_domain_percentile_filter": (
            "WITH d AS (SELECT doc_id, "
            "  CASE WHEN doc_id % 11 = 0 THEN 'tail' || doc_id || '.example' "
            "    ELSE 'site' || (doc_id % 7) || '.example' END AS domain, "
            "  n_chars FROM documents), "
            "r AS (SELECT doc_id, domain, n_chars, "
            "  percent_rank() OVER (PARTITION BY domain ORDER BY n_chars)"
            "  AS pr FROM d) "
            "SELECT doc_id, domain, n_chars, round(pr, 6) AS pr "
            "FROM r WHERE pr >= 0.5"
        ),
        # Okapi BM25 (Lucene idf variant) against the fixed query set
        # {merge, spark, window}; identical IEEE op order as the
        # engine: avgdl = total/N first, then dl/avgdl; (1.2 + 1.0)
        # and (1.0 - 0.75) spelled as the engine computes k1+1 / 1-b
        "docs_bm25": (
            "WITH tok AS ("
            "  SELECT doc_id, unnest(regexp_extract_all(lower(text),"
            " '\\w\\w+')) AS t FROM documents), "
            "dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id), "
            "n AS (SELECT (SELECT count(*) FROM documents) AS n, "
            "             (SELECT count(*) FROM tok) AS total), "
            "q(term) AS (VALUES ('merge'), ('spark'), ('window')), "
            "tf AS (SELECT doc_id, t AS term, count(*) AS tf "
            "       FROM tok JOIN q ON tok.t = q.term GROUP BY doc_id, t), "
            "df AS (SELECT term, count(*) AS df FROM tf GROUP BY term) "
            "SELECT tf.doc_id AS doc_id, "
            "  round(sum(ln((n.n - df.df + 0.5) / (df.df + 0.5) + 1.0) "
            "        * (tf.tf * (1.2 + 1.0)) "
            "        / (tf.tf + 1.2 * ((1.0 - 0.75) "
            "           + 0.75 * (dl.dl / (n.total / n.n))))), 6) AS score "
            "FROM tf JOIN df USING (term) JOIN dl USING (doc_id), n "
            "GROUP BY tf.doc_id"
        ),
        # domain-level boilerplate strip: the wrapper plants per-domain
        # nav/copyright chrome on every doc plus a 'subscribe' line on
        # doc_id % 4 == 0; a non-blank line is boilerplate iff it
        # appears in >= 3 docs of its domain AND n * 2 >= domain_docs
        # (integer-exact, mirrored in steps._bp_boilerplate_keys).
        # Head domains (~70 docs) shed the chrome; singleton tail
        # domains keep it (min_docs); 'subscribe' (ratio ~1/4) stays.
        "docs_boilerplate_strip": (
            "WITH d AS (SELECT doc_id, "
            "  CASE WHEN doc_id % 11 = 0 THEN 'tail' || doc_id || '.example' "
            "       ELSE 'site' || (doc_id % 7) || '.example' END AS domain, "
            "  coalesce(text,'') AS text FROM documents), "
            "p AS (SELECT doc_id, domain, "
            "  ['home | about | contact - ' || domain] "
            "  || (CASE WHEN doc_id % 4 = 0 THEN "
            "      ['subscribe to our newsletter'] "
            "      ELSE CAST([] AS VARCHAR[]) END) "
            "  || string_split(text, chr(10)) "
            "  || ['(c) 2024 ' || domain || ' all rights reserved'] "
            "  AS lines FROM d), "
            "l AS (SELECT doc_id, domain, unnest(lines) AS line, "
            "  generate_subscripts(lines, 1) AS i FROM p), "
            "dc AS (SELECT domain, count(*) AS nd FROM p GROUP BY domain), "
            "lc AS (SELECT domain, line, count(DISTINCT doc_id) AS n "
            "  FROM l WHERE trim(line) <> '' GROUP BY domain, line), "
            "bp AS (SELECT lc.domain, lc.line FROM lc JOIN dc "
            "  USING (domain) WHERE n >= 3 AND n * 2 >= nd * 1), "
            "k AS (SELECT l.doc_id, l.line, l.i FROM l "
            "  LEFT JOIN bp ON l.domain = bp.domain AND l.line = bp.line "
            "  WHERE bp.line IS NULL), "
            "agg AS (SELECT doc_id, count(*) AS n_kept, "
            "  string_agg(line, chr(10) ORDER BY i) AS clean_text "
            "  FROM k GROUP BY doc_id) "
            "SELECT p.doc_id, p.domain, "
            "  CAST(len(p.lines) AS BIGINT) AS n_lines, "
            "  CAST(len(p.lines) - coalesce(agg.n_kept, 0) AS BIGINT) "
            "    AS n_removed, "
            "  coalesce(agg.clean_text, '') AS clean_text "
            "FROM p LEFT JOIN agg USING (doc_id)"
        ),
        # web-text normalization over planted messy whitespace; NFC
        # and the control strip are identities on the ASCII corpus so
        # the chain is collapse-[ \t]+ -> collapse-\n{3,} -> trim.
        "docs_normalize_text": (
            "WITH m AS (SELECT doc_id, "
            "  CASE WHEN doc_id % 2 = 0 THEN '  ' || chr(9) ELSE '' END || "
            "  CASE WHEN doc_id % 3 = 0 THEN "
            "    replace(coalesce(text,''), ' ', '  ') "
            "    ELSE coalesce(text,'') END || "
            "  CASE WHEN doc_id % 5 = 0 THEN repeat(chr(10), 4) || 'End.' "
            "    ELSE '' END || ' ' AS t0 FROM documents), "
            "n AS (SELECT doc_id, regexp_replace(regexp_replace(t0, "
            "  '[ \\t]+', ' ', 'g'), '\\n{3,}', chr(10) || chr(10), 'g') "
            "  AS t1 FROM m) "
            "SELECT doc_id, trim(t1, ' ' || chr(9) || chr(10)) "
            "  AS normalized_text, "
            "CAST(length(trim(t1, ' ' || chr(9) || chr(10))) AS BIGINT) "
            "  AS n_chars_norm FROM n"
        ),
        # Quantile-bucket assignment: thresholds re-derived with
        # quantile_disc, the same discrete-quantile semantics the
        # distributed value-histogram quantiles implement.
        "docs_quality_buckets": (
            "WITH t AS (SELECT quantile_disc(n_chars, 0.25) AS t25, "
            "  quantile_disc(n_chars, 0.5) AS t50, "
            "  quantile_disc(n_chars, 0.75) AS t75 FROM documents) "
            "SELECT doc_id, n_chars, CAST(CASE "
            "  WHEN n_chars <= t25 THEN 0 "
            "  WHEN n_chars <= t50 THEN 1 "
            "  WHEN n_chars <= t75 THEN 2 ELSE 3 END AS BIGINT) AS bucket "
            "FROM documents, t"
        ),
        # Distributed global sort/rank: the rank column makes the
        # total order observable through the order-insensitive compare.
        "docs_rank_by_length": (
            "SELECT doc_id, n_chars, ROW_NUMBER() OVER "
            "(ORDER BY n_chars DESC, doc_id) AS rnk FROM documents"
        ),
        # Per-domain aggregation over planted registered domains
        # (seven head domains + a singleton tail on doc_id % 11) —
        # the exact CASE plant mirrors steps._plant_domains.
        "docs_domain_stats": (
            "WITH d AS (SELECT doc_id, "
            "  CASE WHEN doc_id % 11 = 0 THEN 'tail' || doc_id || '.example' "
            "    ELSE 'site' || (doc_id % 7) || '.example' END AS domain, "
            "  n_chars, lang FROM documents) "
            "SELECT domain, COUNT(*) AS n_docs, "
            "  CAST(SUM(n_chars) AS BIGINT) AS total_chars, "
            "  CAST(SUM(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS BIGINT) "
            "    AS n_en "
            "FROM d GROUP BY domain"
        ),
        # Per-domain CAP: keep at most 3 docs per domain, ordered by
        # the house sampling hash then doc_id (exact window analog).
        "docs_domain_cap": (
            "WITH d AS (SELECT doc_id, "
            "  CASE WHEN doc_id % 11 = 0 THEN 'tail' || doc_id || '.example' "
            "    ELSE 'site' || (doc_id % 7) || '.example' END AS domain, "
            "  ((doc_id * 2654435761) % 2147483648) % 1048576 AS h "
            "  FROM documents), "
            "r AS (SELECT doc_id, domain, "
            "  ROW_NUMBER() OVER (PARTITION BY domain ORDER BY h, doc_id) "
            "    AS rn FROM d) "
            "SELECT doc_id, domain FROM r WHERE rn <= 3"
        ),
        # Domain-level filter: keep docs whose domain has >= 5 docs
        # corpus-wide (drops the singleton tail at every scale).
        "docs_domain_filter": (
            "WITH d AS (SELECT doc_id, "
            "  CASE WHEN doc_id % 11 = 0 THEN 'tail' || doc_id || '.example' "
            "    ELSE 'site' || (doc_id % 7) || '.example' END AS domain, "
            "  n_chars FROM documents), "
            "s AS (SELECT domain FROM d GROUP BY domain "
            "  HAVING COUNT(*) >= 5) "
            "SELECT d.doc_id, d.domain, d.n_chars FROM d "
            "JOIN s USING (domain)"
        ),
        # Anchor/outlink extraction over planted link-rich pages:
        # the SQL re-derives the exact plant (k = doc_id % 4 absolute
        # anchors targeting site{(doc_id*j)%7}.example, plus a
        # relative nav link with NULL host on doc_id % 5 == 0).
        "docs_outlinks": (
            "WITH j AS ("
            "  SELECT doc_id, CAST(0 AS BIGINT) AS ord FROM documents "
            "    WHERE doc_id % 4 >= 1 "
            "  UNION ALL SELECT doc_id, CAST(1 AS BIGINT) FROM documents "
            "    WHERE doc_id % 4 >= 2 "
            "  UNION ALL SELECT doc_id, CAST(2 AS BIGINT) FROM documents "
            "    WHERE doc_id % 4 >= 3) "
            "SELECT doc_id, ord, "
            "  'https://site' || ((doc_id * ord) % 7) || '.example/p/' "
            "    || doc_id || '/' || ord AS href, "
            "  'site' || ((doc_id * ord) % 7) || '.example' AS host "
            "FROM j "
            "UNION ALL "
            "SELECT doc_id, CAST(doc_id % 4 AS BIGINT) AS ord, "
            "  '/nav/local' AS href, CAST(NULL AS VARCHAR) AS host "
            "FROM documents WHERE doc_id % 5 = 0"
        ),
        # robots.txt filter over planted paths: the plant makes the
        # decision a pure function of doc_id % 4 (public allowed,
        # /private/ disallowed, /private/archive/ re-allowed by the
        # longer Allow, *.tmp$ disallowed).
        "docs_robots_filter": (
            "SELECT doc_id, "
            "  CASE doc_id % 4 "
            "    WHEN 0 THEN '/public/' || doc_id "
            "    WHEN 1 THEN '/private/' || doc_id "
            "    WHEN 2 THEN '/private/archive/' || doc_id "
            "    ELSE '/cache/' || doc_id || '.tmp' END AS path, "
            "  (doc_id % 4) IN (0, 2) AS allowed "
            "FROM documents"
        ),
        # WARC round-trip: the synthesized segment content is a pure
        # function of the documents table, so the whole
        # write->parse->read chain re-expresses as SQL.
        "warc_source_roundtrip": (
            "SELECT 'https://site' || (doc_id % 7) || '.example/d/' "
            "    || doc_id AS url, "
            "  TIMESTAMP '2020-01-01' + INTERVAL (doc_id) SECOND "
            "    AS warc_ts, "
            "  LENGTH('<html><body>' || COALESCE(text, '') "
            "    || '</body></html>') AS n_chars "
            "FROM documents"
        ),
        # Crawl tier end to end: the planted body wrapper extracts
        # byte-identically to documents.text through the frozen html
        # kernel, so the WHOLE WARC -> decode -> extract chain
        # re-expresses as SQL.
        "warc_extract_text": (
            "SELECT 'https://site' || (doc_id % 7) || '.example/d/' "
            "    || doc_id AS url, "
            "  TIMESTAMP '2020-01-01' + INTERVAL (doc_id) SECOND "
            "    AS warc_ts, "
            "  COALESCE(text, '') AS extracted_text "
            "FROM documents"
        ),
        # Same planted link graph with the anchor text ('l' || ord for
        # absolute anchors, 'nav' for the relative nav link).
        "docs_outlinks_anchored": (
            "WITH j AS ("
            "  SELECT doc_id, CAST(0 AS BIGINT) AS ord FROM documents "
            "    WHERE doc_id % 4 >= 1 "
            "  UNION ALL SELECT doc_id, CAST(1 AS BIGINT) FROM documents "
            "    WHERE doc_id % 4 >= 2 "
            "  UNION ALL SELECT doc_id, CAST(2 AS BIGINT) FROM documents "
            "    WHERE doc_id % 4 >= 3) "
            "SELECT doc_id, ord, "
            "  'https://site' || ((doc_id * ord) % 7) || '.example/p/' "
            "    || doc_id || '/' || ord AS href, "
            "  'site' || ((doc_id * ord) % 7) || '.example' AS host, "
            "  'l' || ord AS anchor "
            "FROM j "
            "UNION ALL "
            "SELECT doc_id, CAST(doc_id % 4 AS BIGINT) AS ord, "
            "  '/nav/local' AS href, CAST(NULL AS VARCHAR) AS host, "
            "  'nav' AS anchor "
            "FROM documents WHERE doc_id % 5 = 0"
        ),
        # Anchor-text corpus: per target host the top-2 inbound anchor
        # texts by (n_links desc, anchor asc) over the same planted
        # link graph (anchor = 'l' || ord; the relative nav link has
        # NULL host and is dropped before aggregation).
        "host_anchor_topk": (
            "WITH j AS ("
            "  SELECT doc_id, 0 AS ord FROM documents WHERE doc_id % 4 >= 1 "
            "  UNION ALL SELECT doc_id, 1 FROM documents WHERE doc_id % 4 >= 2 "
            "  UNION ALL SELECT doc_id, 2 FROM documents WHERE doc_id % 4 >= 3), "
            "a AS (SELECT doc_id, 'site' || ((doc_id * ord) % 7) "
            "  || '.example' AS host, 'l' || ord AS anchor FROM j), "
            "c AS (SELECT host, anchor, COUNT(*) AS n_links, "
            "  CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS n_docs "
            "  FROM a GROUP BY host, anchor), "
            "r AS (SELECT host, anchor, n_links, n_docs, "
            "  CAST(ROW_NUMBER() OVER (PARTITION BY host "
            "    ORDER BY n_links DESC, anchor) AS BIGINT) AS rnk FROM c) "
            "SELECT host, anchor, n_links, n_docs, rnk FROM r "
            "WHERE rnk <= 2"
        ),
        # Host-level in-degree over the same planted link graph.
        "host_indegree": (
            "WITH j AS ("
            "  SELECT doc_id, 0 AS ord FROM documents WHERE doc_id % 4 >= 1 "
            "  UNION ALL SELECT doc_id, 1 FROM documents WHERE doc_id % 4 >= 2 "
            "  UNION ALL SELECT doc_id, 2 FROM documents WHERE doc_id % 4 >= 3), "
            "a AS (SELECT doc_id, 'site' || ((doc_id * ord) % 7) "
            "  || '.example' AS host FROM j) "
            "SELECT host, COUNT(*) AS n_links, "
            "  CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS n_docs "
            "FROM a GROUP BY host"
        ),
        # URL blocklist filter over planted urls: same host/domain
        # regex extraction re-expressed with RE2 (no lookaround).
        "docs_url_filter": (
            "WITH u AS (SELECT doc_id, 'https://sub' || (doc_id % 3) "
            "  || '.site' || (doc_id % 7) || '.example/doc/' || doc_id "
            "  AS url FROM documents), "
            "h AS (SELECT doc_id, regexp_extract(url, "
            "  '^[a-z]+://([^/]+)/', 1) AS host FROM u) "
            "SELECT doc_id, regexp_extract(host, '([^.]+\\.[^.]+)$', 1) "
            "  AS domain, "
            "regexp_extract(host, '([^.]+\\.[^.]+)$', 1) IN "
            "  ('site0.example', 'site4.example') AS blocked FROM h"
        ),
        # PII redaction over planted PII (extras._docs_pii_redact):
        # the patterns avoid lookaround so Python re and RE2 agree;
        # counts apply sequentially (phone counted after email
        # redaction), mirrored by the CTE chain.
        "docs_pii_redact": (
            "WITH p AS (SELECT doc_id, "
            "  CASE WHEN doc_id % 2 = 0 THEN 'Contact user' || doc_id "
            "    || '@example.com now. ' ELSE '' END || "
            "  CASE WHEN doc_id % 3 = 0 THEN 'Call 555-010-' || "
            "    lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') "
            "    || ' today. ' ELSE '' END || "
            "  CASE WHEN doc_id % 5 = 0 THEN 'Host 10.0.' || "
            "    (doc_id % 256) || '.' || ((doc_id * 7) % 256) "
            "    || ' up. ' ELSE '' END || coalesce(text, '') AS t0 "
            "  FROM documents), "
            "e AS (SELECT doc_id, t0, regexp_replace(t0, "
            "  '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', "
            "  '<EMAIL>', 'g') AS t1 FROM p), "
            "ph AS (SELECT *, regexp_replace(t1, "
            "  '\\b\\d{3}-\\d{3}-\\d{4}\\b', '<PHONE>', 'g') AS t2 FROM e) "
            "SELECT doc_id, "
            "CAST(len(regexp_extract_all(t0, "
            "  '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) "
            "  AS BIGINT) AS n_emails, "
            "CAST(len(regexp_extract_all(t1, "
            "  '\\b\\d{3}-\\d{3}-\\d{4}\\b')) AS BIGINT) AS n_phones, "
            "CAST(len(regexp_extract_all(t2, "
            "  '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b')) "
            "  AS BIGINT) AS n_ips, "
            "regexp_replace(t2, "
            "  '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b', "
            "  '<IP>', 'g') AS redacted_text "
            "FROM ph"
        ),
        # exact SQL re-expression of keep-first line dedup over the
        # planted multi-line corpus (see extras._docs_line_dedup): a
        # line survives in the min doc_id containing it; all other
        # docs drop it. coalesce('') keeps all-removed docs at ''.
        "docs_line_dedup": (
            "WITH base AS (SELECT doc_id, "
            "  CASE WHEN doc_id % 2 = 0 THEN "
            "    'COOKIE NOTICE we use cookies' || chr(10) ELSE '' END || "
            "  CASE WHEN doc_id % 3 = 0 THEN "
            "    'NAV home about contact' || chr(10) ELSE '' END || "
            "  'body ' || coalesce(text, '') || chr(10) || "
            "  'Copyright 2099 Example Corp' AS txt FROM documents), "
            "ls AS (SELECT doc_id, string_split(txt, chr(10)) AS ls "
            "  FROM base), "
            "l AS (SELECT doc_id, ls, "
            "  unnest(generate_series(1, len(ls))) AS i FROM ls), "
            "l2 AS (SELECT doc_id, i, ls[i] AS ln FROM l), "
            "w AS (SELECT ln, min(doc_id) AS winner FROM l2 GROUP BY ln), "
            "k AS (SELECT l2.doc_id, l2.i, l2.ln FROM l2 "
            "  JOIN w USING (ln) WHERE l2.doc_id = w.winner), "
            "agg AS (SELECT doc_id, count(*) AS n_kept, "
            "  array_to_string(list(ln ORDER BY i), chr(10)) AS text_dedup "
            "  FROM k GROUP BY doc_id), "
            "tot AS (SELECT doc_id, count(*) AS n_lines FROM l2 "
            "  GROUP BY doc_id) "
            "SELECT t.doc_id, t.n_lines, "
            "t.n_lines - coalesce(a.n_kept, 0) AS n_removed, "
            "coalesce(a.text_dedup, '') AS text_dedup "
            "FROM tot t LEFT JOIN agg a USING (doc_id)"
        ),
        # duplicate-span detection: char spans of k-word windows are
        # not reasonably SQL-expressible -> pinned golden
        "docs_dup_spans": _golden_sql("docs_dup_spans"),
        "ngram_jaccard_dups": _golden_sql("ngram_jaccard_dups"),
        "embedding_cosine_dups": _golden_sql("embedding_cosine_dups"),
        "embeddings_kmeans": _golden_sql("embeddings_kmeans"),
        "embeddings_semdedup": _golden_sql("embeddings_semdedup"),
        # approximate by construction (bucketed candidate pruning), so
        # no brute-force SQL equivalence exists; recall + pruning vs
        # brute force are asserted in tests/test_cluster.py
        "knn_lsh": _golden_sql("knn_lsh"),
        # exact ANSI-SQL mirror of the functions/urlnorm.py regex
        # chain (RE2-compatible rules applied in identical order) over
        # the same planted messy-url corpus
        "docs_url_canonicalize": (
            "WITH u AS (SELECT doc_id, "
            "  'HTTPS://WWW.Example' || (doc_id % 5) || '.COM:443//Docs//' "
            "  || doc_id || "
            "  CASE WHEN doc_id % 2 = 0 THEN '/' ELSE '' END || "
            "  CASE WHEN doc_id % 3 = 0 THEN '?utm_source=track&id=' || doc_id "
            "       WHEN doc_id % 7 = 0 THEN '?utm_only=1' ELSE '' END || "
            "  CASE WHEN doc_id % 4 = 0 THEN '#sec-' || (doc_id % 7) "
            "       ELSE '' END AS url FROM documents), "
            "c AS (SELECT doc_id, url, "
            "  lower(regexp_extract(url, "
            "    '^([A-Za-z][A-Za-z0-9+.\\-]*://[^/?#]*)', 1)) || "
            "  regexp_replace(url, '^[A-Za-z][A-Za-z0-9+.\\-]*://[^/?#]*', '') "
            "  AS t0 FROM u) "
            "SELECT doc_id, "
            "regexp_replace(regexp_replace(regexp_replace(regexp_replace("
            "regexp_replace(regexp_replace(regexp_replace(regexp_replace(t0, "
            "  '^(https://[^/?#]*):443([/?#].*)?$', '\\1\\2'), "
            "  '^(http://[^/?#]*):80([/?#].*)?$', '\\1\\2'), "
            "  '#.*$', ''), "
            "  '([^:])/{2,}', '\\1/', 'g'), "
            "  '\\?utm_[^&#]*&', '?'), "
            "  '\\?utm_[^&#]*$', ''), "
            "  '([^:/])/\\?', '\\1?'), "
            "  '([^:/])/$', '\\1') AS url_canon, "
            "lower(regexp_extract(url, "
            "  '^[A-Za-z][A-Za-z0-9+.\\-]*://([^/?#:]+)', 1)) AS host "
            "FROM c"
        ),
        "embed_documents": _golden_sql("embed_documents"),
        "llm_demographics": _golden_sql("llm_demographics"),
        "llm_task_metadata": _golden_sql("llm_task_metadata"),
        "entity_linking": _golden_sql("entity_linking"),
        # chained variant links from STORED upstream output; result is
        # provably identical to the inline pipeline -> same golden
        "entity_linking_chained": _golden_sql("entity_linking"),
        "umls_disease_groups": _golden_sql("umls_disease_groups"),
        "abbrev_expand": _golden_sql("abbrev_expand"),
        "multimodal_features": _golden_sql("multimodal_features", discriminated=False),
        "evaluation_golden_metrics": _golden_sql(
            "evaluation_golden_metrics", discriminated=False),
        "distinct_langs": "SELECT DISTINCT lang FROM documents",
        "top_docs_by_length": (
            "SELECT doc_id, n_chars FROM documents "
            "ORDER BY n_chars DESC, doc_id LIMIT 10"
        ),
        # Gopher-style repetition fractions over the \w+ lowercase
        # tokenization (ASCII corpus: RE2 \w == Python \w); one-token
        # docs have no bigram -> bm misses -> coalesce 0; a.tot >= 2
        # whenever bm exists, so the (tot-1) denominator is never 0.
        "docs_repetition_stats": (
            "WITH tw AS (SELECT doc_id, "
            "  regexp_extract_all(lower(coalesce(text,'')), '\\w+') AS ws "
            "  FROM documents), "
            "tok AS (SELECT doc_id, unnest(ws) AS w FROM tw), "
            "c AS (SELECT doc_id, w, count(*) AS n FROM tok "
            "  GROUP BY doc_id, w), "
            "a AS (SELECT doc_id, max(n) AS mx, sum(n) AS tot, "
            "  count(*) AS nd FROM c GROUP BY doc_id), "
            "bi AS (SELECT doc_id, ws[i] || ' ' || ws[i+1] AS bg FROM ("
            "  SELECT doc_id, ws, unnest(generate_series(1, len(ws)-1)) AS i "
            "  FROM tw WHERE len(ws) >= 2)), "
            "bc AS (SELECT doc_id, bg, count(*) AS n FROM bi "
            "  GROUP BY doc_id, bg), "
            "bm AS (SELECT doc_id, max(n) AS mbg FROM bc GROUP BY doc_id) "
            "SELECT d.doc_id, "
            "CAST(coalesce(a.tot, 0) AS BIGINT) AS n_words, "
            "round(coalesce(a.mx * 1.0 / a.tot, 0), 6) AS top_word_frac, "
            "round(coalesce((a.tot - a.nd) * 1.0 / a.tot, 0), 6) "
            "  AS dup_word_frac, "
            "round(coalesce(bm.mbg * 1.0 / (a.tot - 1), 0), 6) "
            "  AS top_bigram_frac "
            "FROM documents d LEFT JOIN a USING (doc_id) "
            "LEFT JOIN bm USING (doc_id)"
        ),
        "docs_text_features": (
            "SELECT doc_id, "
            "CAST(CASE WHEN trim(text) = '' THEN 0 ELSE "
            "len(regexp_split_to_array(trim(text), '\\s+')) END AS BIGINT) AS n_words, "
            "CAST(length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS BIGINT) AS alpha_chars, "
            "CAST(length(text) - length(replace(text, ' ', '')) AS BIGINT) AS space_chars "
            "FROM documents"
        ),
    }
