"""docs_bloom_seen: sharded Bloom seen-set membership.

Golden parity over the sf corpora lives in test_oracle_parity.py; here
we pin the membership guarantees (never a false negative), the FP
mechanics under a deliberately tight filter, and equality of the
broadcast and shard-co-partitioned exchange paths.
"""

import numpy as np
import pandas as pd
import pytest

from conftest import force_routes
from neurostore_text_extraction_ray.pipelines import steps


def _write(texts, tmp_path, name="sf"):
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path / name
    d.mkdir()
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }),
        d / "documents.parquet",
    )
    return str(d)


def _run(sf, **kw):
    return (steps.docs_bloom_seen(sf, **kw).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))


def test_no_false_negatives_and_duplicate_content(ray_session, tmp_path):
    # doc 3 duplicates doc 0's text (modulo whitespace/case, which the
    # fingerprint normalizes away) -> must flag seen although odd
    texts = ["the quick fox", "unique odd one", "other even text",
             "  The   QUICK fox ", "more even words", "another odd doc"]
    sf = _write(texts, tmp_path)
    df = _run(sf)
    assert df[df.doc_id % 2 == 0]["maybe_seen"].all()
    assert bool(df.loc[3, "maybe_seen"])


def test_tight_filter_has_false_positives(ray_session, tmp_path):
    """With 1 bit/key and 1 hash over thousands of keys the filter
    saturates and unseen docs start flagging — deterministic given the
    fixed hashes, and the never-false-negative guarantee still holds."""
    texts = [f"document number {i} body {i * i}" for i in range(3000)]
    sf = _write(texts, tmp_path)
    df = _run(sf, bits_per_key=1, k_hashes=1, shards=1)
    assert df[df.doc_id % 2 == 0]["maybe_seen"].all()
    odd = df[df.doc_id % 2 == 1]
    fp = odd["maybe_seen"].mean()
    assert 0.05 < fp < 0.95, fp


def test_default_sizing_keeps_fp_low(ray_session, tmp_path):
    texts = [f"document number {i} body {i * i}" for i in range(3000)]
    sf = _write(texts, tmp_path)
    df = _run(sf)
    odd = df[df.doc_id % 2 == 1]
    assert odd["maybe_seen"].mean() < 0.05


def test_exchange_path_equivalence(ray_session, monkeypatch):
    sf = "/root/testdata/sf0.001"
    base = _run(sf)
    force_routes(monkeypatch, "bloom_seen_partials")
    exchanged = _run(sf)
    pd.testing.assert_frame_equal(base, exchanged)


def test_exchange_path_equivalence_tight(ray_session, tmp_path, monkeypatch):
    """Path equality must hold where FPs actually occur, not just on
    an all-clean corpus."""
    texts = [f"document number {i} body {i * i}" for i in range(1200)]
    sf = _write(texts, tmp_path)
    base = _run(sf, bits_per_key=1, k_hashes=1, shards=4)
    force_routes(monkeypatch, "bloom_seen_partials")
    exchanged = _run(sf, bits_per_key=1, k_hashes=1, shards=4)
    pd.testing.assert_frame_equal(base, exchanged)
    assert base[base.doc_id % 2 == 1]["maybe_seen"].any()


def test_block_layout_invariance(ray_session, tmp_path):
    """Same corpus as a directory of one-row files (many blocks, many
    independent bit partials) must produce identical flags."""
    import pyarrow.parquet as pq

    texts = [f"text {i} words {i % 7}" for i in range(64)]
    sf = _write(texts, tmp_path)
    one = _run(sf)
    d2 = tmp_path / "sf2"
    (d2 / "documents.parquet").mkdir(parents=True)
    t = pq.read_table(f"{sf}/documents.parquet")
    for i in range(len(t)):
        pq.write_table(t.slice(i, 1),
                       d2 / "documents.parquet" / f"part_{i:03d}.parquet")
    many = _run(str(d2))
    pd.testing.assert_frame_equal(one, many)


def test_invalid_params_raise():
    with pytest.raises(ValueError):
        steps.docs_bloom_seen("/nonexistent", bits_per_key=0)
    with pytest.raises(ValueError):
        steps.docs_bloom_seen("/nonexistent", k_hashes=0)
    with pytest.raises(ValueError):
        steps.docs_bloom_seen("/nonexistent", shards=0)
