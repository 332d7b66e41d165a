"""Funnel conversion (steps.events_funnel): strict-order semantics on
adversarial shapes — out-of-order stages, exact-tie timestamps (strict
``>`` excludes), repeat stages, users stalling at each stage — against
DuckDB's chained-min oracle, plus the combine-gate path equivalence."""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import force_routes
from neurostore_text_extraction_ray.stages import exchange as ex

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def funnel_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("funnel")
    base = pd.Timestamp("2025-01-01 00:00:00")
    m = pd.Timedelta(minutes=1)
    rows = [
        # user 1: full conversion view < click < purchase
        (1, base, "view"), (1, base + m, "click"),
        (1, base + 2 * m, "purchase"),
        # user 2: click BEFORE the view, purchase after — reaches view
        # only (no click strictly after the first view)
        (2, base + m, "click"), (2, base + 2 * m, "view"),
        (2, base + 3 * m, "purchase"),
        # user 3: click exactly AT the view time — strict > excludes it
        (3, base, "view"), (3, base, "click"),
        # user 4: stalls after click (no purchase)
        (4, base, "view"), (4, base + m, "click"),
        # user 5: converts via a LATER click (first click too early)
        (5, base + m, "click"), (5, base + 2 * m, "view"),
        (5, base + 3 * m, "click"), (5, base + 4 * m, "purchase"),
        # user 6: purchase between view and click — not a chain
        (6, base, "view"), (6, base + m, "purchase"),
        (6, base + 2 * m, "click"),
        # user 7: no view at all
        (7, base, "click"), (7, base + m, "purchase"),
        # noise types are pruned at the read
        (1, base + m, "error"), (2, base, "signup"),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts", "event_type"])
    df["event_id"] = np.arange(len(df), dtype=np.int64)
    df["value"] = 1.0
    tbl = pa.Table.from_pandas(
        df[["event_id", "user_id", "ts", "event_type", "value"]],
        preserve_index=False)
    pq.write_table(tbl, os.path.join(str(d), "events.parquet"))
    return str(d)


def _canon(df):
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


@pytest.mark.parametrize("forced", [False, True], ids=["driver", "exchange"])
def test_funnel_strict_order_semantics(ray_session, funnel_dir, monkeypatch,
                                       forced):
    """On the driver path (default gates) and on the user-hash
    exchange path (``key_rows`` forced to 0)."""
    import __ray_entry__ as e
    from neurostore_text_extraction_ray.pipelines import steps

    if forced:
        force_routes(monkeypatch, "key_rows")
    monkeypatch.setattr(ex, "NUM_PARTS", 3)
    mine = steps.events_funnel(funnel_dir).to_pandas()
    got = dict(zip(mine["stage"], mine["n_users"]))
    # view: users 1..6 have a view; click-after-view: 1, 4, 5
    # (user 2's click precedes its view; user 3's is an exact tie;
    # user 6's click follows its purchase but IS after the view)
    # -> recheck user 6: view@0, click@2m qualifies -> click count 4
    # purchase-after-that-click: 1, 5
    assert got == {"view": 6, "click": 4, "purchase": 2}, got
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet("
                f"'{funnel_dir}/events.parquet')")
    gold = con.execute(e.oracle_sql()["events_funnel"]).fetchdf()
    pd.testing.assert_frame_equal(_canon(mine), _canon(gold))


def test_funnel_combine_gate_equivalence(ray_session, monkeypatch):
    from neurostore_text_extraction_ray.pipelines import steps

    drv = _canon(steps.events_funnel(SF).to_pandas())
    force_routes(monkeypatch, "agg_partials")
    monkeypatch.setattr(ex, "NUM_PARTS", 5)
    exch = _canon(steps.events_funnel(SF).to_pandas())
    pd.testing.assert_frame_equal(drv, exch)
    assert drv["n_users"].sum() > 0


def test_user_top_type_matches_sql_and_gates(ray_session, monkeypatch):
    """Grouped mode (events_user_top_type): both argmax paths equal the
    SQL row_number oracle, incl. the count-tie type-asc tie-break."""
    import duckdb as _duckdb

    import __ray_entry__ as e
    from neurostore_text_extraction_ray.pipelines import steps

    con = _duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet("
                f"'{SF}/events.parquet')")
    gold = _canon(con.execute(e.oracle_sql()["events_user_top_type"])
                  .fetchdf())
    drv = _canon(steps.events_user_top_type(SF).to_pandas())
    pd.testing.assert_frame_equal(drv, gold)
    assert len(drv) > 0
    force_routes(monkeypatch, "agg_partials")
    monkeypatch.setattr(ex, "NUM_PARTS", 5)
    exch = _canon(steps.events_user_top_type(SF).to_pandas())
    pd.testing.assert_frame_equal(exch, gold)
