"""Range (interval) self-join (steps.events_range_join) and the
per-user cumulative window (steps.events_user_running_total):
adversarial shapes — ts-tie peers (both pair directions), the strict
upper window edge, cross-user isolation — compared against DuckDB's
own join/window output, plus broadcast/exchange path equivalence and
the composite-overflow routing."""

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
def events_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("rangejoin")
    base = pd.Timestamp("2025-01-01 00:00:00")
    rows = [
        # user 1: tie peers at t0 (pairs in BOTH directions), one at
        # +10min exactly (strict upper edge: NOT in t0's window, but t0
        # events are not in ITS window either), one at +9min59s
        # (inside)
        (1, 1, base, 10.0), (2, 1, base, 20.0),
        (3, 1, base + pd.Timedelta(minutes=10), 5.0),
        (4, 1, base + pd.Timedelta(seconds=599), 1.0),
        # user 2: single event — no pairs
        (5, 2, base, 7.5),
        # user 3: same timestamps as user 1 — must not cross-pair
        (6, 3, base, 2.25), (7, 3, base + pd.Timedelta(seconds=1), 3.0),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "ts", "value"])
    tbl = pa.Table.from_pandas(df, preserve_index=False).cast(pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("ts", pa.timestamp("us")), ("value", pa.float64()),
    ]))
    pq.write_table(tbl, os.path.join(str(d), "events.parquet"))
    return str(d)


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def _gold(events_dir: str, name: str) -> pd.DataFrame:
    import __ray_entry__ as e

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet("
                f"'{events_dir}/events.parquet')")
    gold = con.execute(e.oracle_sql()[name]).fetchdf()
    con.close()
    return gold


def test_range_join_ties_edges_and_user_isolation(ray_session, events_dir,
                                                  monkeypatch):
    from neurostore_text_extraction_ray.pipelines import steps

    monkeypatch.setattr(ex, "NUM_PARTS", 2)
    mine = steps.events_range_join(events_dir).to_pandas()
    pd.testing.assert_frame_equal(
        _canon(mine), _canon(_gold(events_dir, "events_range_join")))
    got = set(zip(mine["a_id"], mine["b_id"]))
    # tie peers pair both directions; 599 s is inside, 600 s is out
    assert (1, 2) in got and (2, 1) in got
    assert (1, 4) in got and (2, 4) in got
    assert (1, 3) not in got and (3, 1) not in got
    # user 3 shares user 1's timestamps but never cross-pairs
    assert all(mine.loc[mine["user_id"] == 3, "a_id"].isin([6, 7]))


def test_range_join_exchange_equivalence(ray_session, monkeypatch):
    from neurostore_text_extraction_ray.pipelines import steps

    drv = _canon(steps.events_range_join(SF).to_pandas())
    force_routes(monkeypatch, "range_events")
    monkeypatch.setattr(ex, "NUM_PARTS", 7)
    exch = _canon(steps.events_range_join(SF).to_pandas())
    pd.testing.assert_frame_equal(drv, exch)
    assert len(drv) > 0


def test_range_join_overflow_routes_to_exchange(ray_session, events_dir,
                                                tmp_path, monkeypatch):
    """A pathological users x time-span that overflows the int64
    composite on the GLOBAL build must fall through to the exchange
    path (where per-part spans still fit) and stay correct."""
    from neurostore_text_extraction_ray.pipelines import steps

    base = pd.Timestamp("2025-01-01 00:00:00")
    rows = []
    # many users, each with two pairable events, plus one far-future
    # event that blows the global span x user-count product past 2^62
    for u in range(1, 1001):
        rows.append((u * 10, u, base, 1.0))
        rows.append((u * 10 + 1, u, base + pd.Timedelta(minutes=1), 1.0))
    rows.append((99999, 99999,
                 pd.Timestamp("2200-01-01 00:00:00"), 1.0))
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "ts", "value"])
    d = str(tmp_path)
    pq.write_table(
        pa.Table.from_pandas(df, preserve_index=False).cast(pa.schema([
            ("event_id", pa.int64()), ("user_id", pa.int64()),
            ("ts", pa.timestamp("us")), ("value", pa.float64()),
        ])), os.path.join(d, "events.parquet"))

    window_us = 10 * 60_000_000
    state = steps._range_build_state(df, window_us)
    assert state is None  # the fixture really does overflow globally
    monkeypatch.setattr(ex, "NUM_PARTS", 8)
    mine = _canon(steps.events_range_join(d).to_pandas())
    pd.testing.assert_frame_equal(mine, _canon(_gold(d, "events_range_join")))
    assert len(mine) == 1000  # 1000 users x 1 forward pair each


def test_range_join_empty_and_single_row(ray_session, tmp_path):
    from neurostore_text_extraction_ray.pipelines import steps

    df = pd.DataFrame({
        "event_id": pd.array([1], dtype="int64"),
        "user_id": pd.array([1], dtype="int64"),
        "ts": pd.to_datetime(["2025-01-01"]),
        "value": [1.0],
    })
    d = str(tmp_path)
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "events.parquet"))
    assert len(steps.events_range_join(d).to_pandas()) == 0


def test_running_total_matches_sql_and_part_invariant(ray_session,
                                                      events_dir, monkeypatch):
    from neurostore_text_extraction_ray.pipelines import steps

    monkeypatch.setattr(ex, "NUM_PARTS", 2)
    mine = steps.events_user_running_total(events_dir).to_pandas()
    pd.testing.assert_frame_equal(
        _canon(mine), _canon(_gold(events_dir, "events_user_running_total")))
    # tie rows order by event_id: event 1 (10.00) before event 2 (20.00)
    m = mine.set_index("event_id")
    assert m.loc[1, "run_cents"] == 1000 and m.loc[1, "run_n"] == 1
    assert m.loc[2, "run_cents"] == 3000 and m.loc[2, "run_n"] == 2
    assert m.loc[5, "run_cents"] == 750 and m.loc[5, "run_n"] == 1
    monkeypatch.setattr(ex, "NUM_PARTS", 1)
    one = _canon(steps.events_user_running_total(
        events_dir).to_pandas())
    pd.testing.assert_frame_equal(one, _canon(mine))
