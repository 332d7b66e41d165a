"""Regenerate the pinned-golden oracle fixtures under tests/goldens/.

For operators whose semantics are not ANSI-SQL-expressible (sketches,
fake-client extraction, hash fingerprints), the correctness oracle is a
committed golden parquet produced by the hand-verified kernels (the
same pattern as the JATS byte-parity fixtures): the driver's oracle SQL
just reads the golden back (`__ray_entry__._golden_sql`).

sf-dependent goldens carry the corpus discriminator (total n_chars) in
the filename — sf0.001 and sf0.01 both have 500 documents, so row count
cannot distinguish them. Regenerate after any intentional kernel
change:

    python tools/make_goldens.py
"""

from __future__ import annotations

import os
import sys

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(REPO, "tests", "goldens")

# queries whose golden depends on the corpus (one file per sf dir)
SF_QUERIES = [
    "docs_fingerprint",
    "docs_token_count",
    "minhash_dedup_groups",
    "simhash_dedup_groups",
    "ngram_jaccard_dups",
    "embedding_cosine_dups",
    "embeddings_kmeans",
    "embeddings_semdedup",
    "knn_lsh",
    "embed_documents",
    "llm_demographics",
    "llm_task_metadata",
    "entity_linking",
    "umls_disease_groups",
    "abbrev_expand",
    "orders_custkey_hll",
    "events_user_hll_hourly",
    "top_terms_cms",
    "docs_dup_spans",
    "docs_bloom_seen",
    "docs_compression_ratio",
    "docs_bpe_merges",
    "docs_bpe_encode",
    "docs_importance_weights_hashed",
    "docs_winnow_fingerprints",
]
# corpus-independent queries (single file)
GLOBAL_QUERIES = ["multimodal_features", "evaluation_golden_metrics"]
# goldens that replay committed reference outputs, which not every
# checkout carries: skipped, with the reason printed, where
# tests/test_oracle_parity.py skips their parity check
NEEDS_REFERENCE = {"evaluation_golden_metrics"}

SF_DIRS = ["/root/testdata/sf0.001", "/root/testdata/sf0.01"]


def _to_table(result) -> pa.Table:
    df = result if not hasattr(result, "to_pandas") else result.to_pandas()
    df = df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)
    return pa.Table.from_pandas(df, preserve_index=False)


def main() -> None:
    sys.path.insert(0, REPO)
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)
    import __ray_entry__ as e

    qs = e.queries()
    # optional argv name filter: regenerate only the listed goldens
    only = set(sys.argv[1:])
    unknown = only - set(SF_QUERIES) - set(GLOBAL_QUERIES)
    if unknown:
        # a silent no-op here would leave a STALE golden passing local
        # parity after a kernel change — fail loudly instead
        raise SystemExit(
            f"not golden-oracled queries: {', '.join(sorted(unknown))} "
            f"(known: {', '.join(SF_QUERIES + GLOBAL_QUERIES)})")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    con = duckdb.connect()
    for sf_dir in SF_DIRS:
        disc = con.execute(
            f"SELECT sum(n_chars) FROM read_parquet('{sf_dir}/documents.parquet')"
        ).fetchone()[0]
        for name in SF_QUERIES:
            if only and name not in only:
                continue
            table = _to_table(qs[name](sf_dir))
            path = os.path.join(GOLDEN_DIR, f"{name}.{disc}.parquet")
            pq.write_table(table, path)
            print(f"wrote {path} ({table.num_rows} rows)")
    sys.path.insert(0, os.path.join(REPO, "tests"))
    from test_evaluation import REF_RESULTS

    ref_root = os.environ.get("NSE_GOLDEN_RESULTS_ROOT", REF_RESULTS)
    for name in GLOBAL_QUERIES:
        if only and name not in only:
            continue
        if name in NEEDS_REFERENCE and not os.path.isdir(ref_root):
            print(f"skipped {name}: reference results not found at "
                  f"{ref_root} (set NSE_GOLDEN_RESULTS_ROOT)")
            continue
        table = _to_table(qs[name](SF_DIRS[0]))
        path = os.path.join(GOLDEN_DIR, f"{name}.parquet")
        pq.write_table(table, path)
        print(f"wrote {path} ({table.num_rows} rows)")
    con.close()
    ray.shutdown()


if __name__ == "__main__":
    main()
