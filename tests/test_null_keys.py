"""NULL group keys and NULL text: the engine must match the DuckDB
oracle on the driver path AND on the forced exchange path. The corpus
is a copy of sf0.001 with NULL ``lang`` / ``text`` on some documents
and NULL ``event_type`` on some events (the committed corpora carry
no NULLs, so the plain parity sweep never sees one)."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from test_oracle_parity import SF
from tools.parity_sweep import TABLES, _canon, _compare, _oracle

pytestmark = pytest.mark.skipif(not os.path.isdir(SF),
                                reason="testdata unavailable")

# query -> the gates that route it through the exchange when set to 0
CASES = {
    "docs_lang_corr": ["AGG_PARTIALS_DRIVER_LIMIT"],
    "events_user_top_type": ["AGG_PARTIALS_DRIVER_LIMIT"],
    "docs_lang_bucket_pivot": ["AGG_PARTIALS_DRIVER_LIMIT"],
    "docs_pmi_bigrams": ["TERMS_DRIVER_LIMIT", "PMI_SCORE_DRIVER_LIMIT"],
}


def _null_where(col: pa.ChunkedArray, mask) -> pa.ChunkedArray:
    return pc.if_else(pa.array(mask), pa.scalar(None, col.type), col)


@pytest.fixture(scope="module")
def null_sf(tmp_path_factory):
    out = tmp_path_factory.mktemp("sf_nulls")
    for t in TABLES:
        os.symlink(f"{SF}/{t}.parquet", out / f"{t}.parquet")
    docs = pq.read_table(f"{SF}/documents.parquet")
    ids = docs["doc_id"].to_numpy()
    docs = docs.set_column(
        docs.schema.get_field_index("lang"), "lang",
        _null_where(docs["lang"], ids % 13 == 0))
    docs = docs.set_column(
        docs.schema.get_field_index("text"), "text",
        _null_where(docs["text"], ids % 17 == 5))
    ev = pq.read_table(f"{SF}/events.parquet")
    ev = ev.set_column(
        ev.schema.get_field_index("event_type"), "event_type",
        _null_where(ev["event_type"], ev["event_id"].to_numpy() % 3 == 0))
    for name, table in (("documents", docs), ("events", ev)):
        os.unlink(out / f"{name}.parquet")
        pq.write_table(table, out / f"{name}.parquet")
    return str(out)


@pytest.mark.parametrize("path", ["driver", "exchange"])
@pytest.mark.parametrize("name", list(CASES))
def test_null_inputs_match_oracle(name, path, null_sf, ray_session,
                                  monkeypatch):
    import __ray_entry__ as e
    from neurostore_text_extraction_ray.pipelines import steps

    if path == "exchange":
        for gate in CASES[name]:
            monkeypatch.setattr(steps, gate, 0)
    mine = _canon(e.queries()[name](null_sf).to_pandas())
    gold = _canon(_oracle(e.oracle_sql()[name], null_sf))
    err = _compare(name, mine, gold)
    assert err is None, f"{name} ({path} path): {err}"


def test_null_corpus_reaches_the_groups(null_sf):
    """The fixture really plants NULL keys that survive into the oracle's
    groups (guards the tests above against a vacuous corpus)."""
    import __ray_entry__ as e

    corr = _oracle(e.oracle_sql()["docs_lang_corr"], null_sf)
    assert corr["lang"].isna().sum() == 1
    top = _oracle(e.oracle_sql()["events_user_top_type"], null_sf)
    assert top["event_type"].isna().any()
