"""Global event-time sliding window (steps.events_global_rolling_sum):
RANGE-peer ties, the inclusive window edge, windows straddling range-
partition boundaries (halo rows), and degenerate spans — against
DuckDB's own global window."""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from neurostore_text_extraction_ray.stages import exchange as ex

SF = "/root/testdata/sf0.001"


def _canon(df):
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def _gold(d, window="60 MINUTE"):
    import __ray_entry__ as e

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet("
                f"'{d}/events.parquet')")
    sql = e.oracle_sql()["events_global_rolling_sum"].replace(
        "60 MINUTE", window)
    return con.execute(sql).fetchdf()


def _write(tmp_path, rows):
    df = pd.DataFrame(rows, columns=["event_id", "ts", "value"])
    df["user_id"] = np.int64(1)
    d = str(tmp_path)
    pq.write_table(
        pa.Table.from_pandas(df, preserve_index=False).cast(pa.schema([
            ("event_id", pa.int64()), ("ts", pa.timestamp("us")),
            ("value", pa.float64()), ("user_id", pa.int64()),
        ])), os.path.join(d, "events.parquet"))
    return d


def test_global_rolling_ties_and_edges(ray_session, tmp_path):
    from neurostore_text_extraction_ray.pipelines import steps

    base = pd.Timestamp("2025-01-01 00:00:00")
    m = pd.Timedelta(minutes=1)
    rows = [
        # tie peers at t0: RANGE frame includes BOTH for both rows
        (1, base, 1.0), (2, base, 2.0),
        # exactly at the window edge (inclusive): t0 rows still count
        (3, base + 60 * m, 4.0),
        # one microsecond past the edge of event 1/2's reach
        (4, base + 60 * m + pd.Timedelta(microseconds=1), 8.0),
    ]
    d = _write(tmp_path, rows)
    out = steps.events_global_rolling_sum(d).to_pandas()
    got = out.set_index("event_id")
    assert got.loc[1, "win_n"] == 2 and got.loc[1, "win_cents"] == 300
    assert got.loc[2, "win_n"] == 2  # tie peer counted both directions
    assert got.loc[3, "win_n"] == 3 and got.loc[3, "win_cents"] == 700
    # event 4: window (t0+1us, t0+60m+1us] excludes the t0 ties
    assert got.loc[4, "win_n"] == 2 and got.loc[4, "win_cents"] == 1200
    pd.testing.assert_frame_equal(_canon(out), _canon(_gold(d)))


def test_global_rolling_halo_across_parts(ray_session, tmp_path,
                                          monkeypatch):
    """An event whose window reaches into the previous range partition
    must still count those rows (the halo duplication); verified by
    forcing many tiny parts relative to the window."""
    from neurostore_text_extraction_ray.pipelines import steps

    base = pd.Timestamp("2025-01-01 00:00:00")
    rows = [(i, base + pd.Timedelta(minutes=i), 1.0) for i in range(200)]
    d = _write(tmp_path, rows)
    monkeypatch.setattr(ex, "NUM_PARTS", 32)
    out = steps.events_global_rolling_sum(
        d, window_minutes=60).to_pandas()
    got = out.set_index("event_id")["win_n"]
    # event i sees min(i, 60) + 1 rows (1-minute spacing, inclusive)
    for i in (0, 1, 59, 60, 61, 120, 199):
        assert got[i] == min(i, 60) + 1, (i, got[i])
    pd.testing.assert_frame_equal(_canon(out), _canon(_gold(d)))


def test_global_rolling_matches_sql_on_testdata(ray_session, monkeypatch):
    from neurostore_text_extraction_ray.pipelines import steps

    monkeypatch.setattr(ex, "NUM_PARTS", 7)
    out = steps.events_global_rolling_sum(SF).to_pandas()
    pd.testing.assert_frame_equal(_canon(out), _canon(_gold(SF)))
    assert len(out) == 1000


def test_global_rolling_degenerate_span_single_part(ray_session, tmp_path,
                                                   monkeypatch):
    """All events inside one window width: the effective part count
    collapses instead of duplicating every row num_parts times."""
    from neurostore_text_extraction_ray.pipelines import steps

    base = pd.Timestamp("2025-01-01 00:00:00")
    rows = [(i, base + pd.Timedelta(seconds=i), 1.0) for i in range(10)]
    d = _write(tmp_path, rows)
    monkeypatch.setattr(ex, "NUM_PARTS", 32)
    out = steps.events_global_rolling_sum(
        d, window_minutes=60).to_pandas()
    assert (out.sort_values("event_id")["win_n"].to_numpy()
            == np.arange(1, 11)).all()
    pd.testing.assert_frame_equal(_canon(out), _canon(_gold(d)))
