"""Sliding event-time window (steps.events_rolling_count): SQL RANGE
semantics on adversarial shapes — ts-tie peers, boundary exactly at
the window edge, single-event users — compared against DuckDB's own
window function."""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import force_routes
from neurostore_text_extraction_ray.stages import exchange as ex

# each kernel test runs on the driver path (default gates) and on the
# user-hash exchange path (``key_rows`` forced to 0)
PATHS = pytest.mark.parametrize("forced", [False, True],
                                ids=["driver", "exchange"])


@pytest.fixture(scope="module")
def events_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("rolling")
    base = pd.Timestamp("2025-01-01 00:00:00")
    rows = [
        # user 1: tie peers at t0, one at +60min exactly (inclusive
        # edge), one at +121min (outside the window of the +60 event)
        (1, 1, base), (2, 1, base), (3, 1, base),
        (4, 1, base + pd.Timedelta(minutes=60)),
        (5, 1, base + pd.Timedelta(minutes=121)),
        # user 2: single event
        (6, 2, base),
        # user 3: a chain straddling the edge repeatedly
        (7, 3, base), (8, 3, base + pd.Timedelta(minutes=59)),
        (9, 3, base + pd.Timedelta(minutes=119)),
        (10, 3, base + pd.Timedelta(minutes=119)),  # tie
    ]
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "ts"])
    tbl = pa.Table.from_pandas(df, preserve_index=False).cast(pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("ts", pa.timestamp("us")),
    ]))
    pq.write_table(tbl, os.path.join(str(d), "events.parquet"))
    return str(d)


@PATHS
def test_rolling_matches_sql_on_ties_and_edges(ray_session, events_dir,
                                               monkeypatch, forced):
    import __ray_entry__ as e
    from neurostore_text_extraction_ray.pipelines import steps

    if forced:
        force_routes(monkeypatch, "key_rows")
    monkeypatch.setattr(ex, "NUM_PARTS", 2)
    mine = steps.events_rolling_count(events_dir).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet("
                f"'{events_dir}/events.parquet')")
    gold = con.execute(e.oracle_sql()["events_rolling_count"]).fetchdf()
    con.close()
    a = mine.sort_values("event_id").reset_index(drop=True)
    b = gold.sort_values("event_id").reset_index(drop=True)
    assert (a["n_window"].to_numpy() == b["n_window"].to_numpy()).all(), (
        list(zip(a["event_id"], a["n_window"], b["n_window"])))
    by_id = dict(zip(a["event_id"], a["n_window"]))
    assert by_id[1] == by_id[2] == by_id[3] == 3  # peers see each other
    assert by_id[4] == 4   # 60-min edge INCLUDES the tie group at t0
    assert by_id[5] == 1   # 121 - 60 = 61 > window
    assert by_id[6] == 1
    assert by_id[9] == by_id[10] == 3  # 119-60=59 covers the 59' event
    assert len(a) == 10


@PATHS
def test_rolling_fallback_path_matches_sql(ray_session, tmp_path,
                                           monkeypatch, forced):
    """A user-count x time-span big enough to overflow the composite
    key must route to the pandas-rolling fallback and still match the
    SQL oracle (700 users spanning 230 years: span ~7.3e15 us x 700
    users > 2^62). The driver path runs every user in one call, so it
    takes the fallback at any ``num_parts``."""
    import __ray_entry__ as e
    from neurostore_text_extraction_ray.pipelines import steps

    if forced:
        force_routes(monkeypatch, "key_rows")
    rows = []
    eid = 0
    lo = pd.Timestamp("1970-01-02")
    hi = pd.Timestamp("2200-01-01")
    for u in range(700):
        rows.append((eid, u, lo + pd.Timedelta(minutes=u))); eid += 1
        rows.append((eid, u, lo + pd.Timedelta(minutes=u + 30))); eid += 1
        rows.append((eid, u, hi + pd.Timedelta(minutes=u))); eid += 1
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "ts"])
    tbl = pa.Table.from_pandas(df, preserve_index=False).cast(pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("ts", pa.timestamp("us")),
    ]))
    pq.write_table(tbl, os.path.join(str(tmp_path), "events.parquet"))
    # exchange path: num_parts=1 keeps all 700 users in one part: 700 x 7.3e15 us
    # exceeds 2^62, so the part MUST take the pandas fallback (with
    # more parts the per-part user count drops below the threshold
    # and the vectorized path would run instead)
    monkeypatch.setattr(ex, "NUM_PARTS", 1)
    mine = steps.events_rolling_count(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet("
                f"'{tmp_path}/events.parquet')")
    gold = con.execute(e.oracle_sql()["events_rolling_count"]).fetchdf()
    con.close()
    a = mine.sort_values("event_id").reset_index(drop=True)
    b = gold.sort_values("event_id").reset_index(drop=True)
    assert (a["n_window"].to_numpy() == b["n_window"].to_numpy()).all()
    assert a["n_window"].max() == 2  # the +30min event sees its elder
    # and on the exchange path the vectorized kernel (4 parts -> ~175
    # users/part, under the overflow threshold) agrees with the
    # fallback row-for-row
    monkeypatch.setattr(ex, "NUM_PARTS", 4)
    vec = steps.events_rolling_count(
        str(tmp_path)).to_pandas().sort_values(
        "event_id").reset_index(drop=True)
    assert (vec["n_window"].to_numpy() == a["n_window"].to_numpy()).all()
