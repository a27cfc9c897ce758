"""DashBoard event folding, manifest ingestion, and frame rendering."""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.obs import (
    DashBoard,
    dash_from_manifest,
    follow_lines,
    parse_json_lines,
    render_frame,
)


def _read(scheme="sp-cache", file_id=0, servers=(0, 1), sizes=(10.0, 30.0),
          ts=1.0, **extra):
    return {
        "event": "read", "scheme": scheme, "file_id": file_id,
        "servers": list(servers), "sizes": list(sizes), "ts": ts, **extra,
    }


def _done(scheme="sp-cache", latency=0.5, ts=2.0):
    return {"event": "read_done", "scheme": scheme, "latency": latency,
            "ts": ts}


class TestFeed:
    def test_read_events_accumulate_server_bytes(self):
        board = DashBoard()
        board.feed(_read(servers=(0, 2), sizes=(5.0, 7.0)))
        board.feed(_read(servers=(2,), sizes=(1.0,)))
        st = board.state("sp-cache")
        assert st.requests == 2
        assert st.server_bytes[0] == 5.0
        assert st.server_bytes[2] == 8.0

    def test_miss_and_straggler_flags_counted(self):
        board = DashBoard()
        board.feed(_read(miss=True, straggler=True))
        board.feed(_read())
        st = board.state("sp-cache")
        assert st.misses == 1 and st.stragglers == 1

    def test_latencies_window_is_bounded(self):
        board = DashBoard()
        for i in range(5000):
            board.feed(_done(latency=float(i)))
        st = board.state("sp-cache")
        assert len(st.latencies) == st.latencies.maxlen

    def test_breach_opens_alert_and_recovery_clears_it(self):
        board = DashBoard()
        breach = {
            "event": "slo_breach", "scheme": "sp-cache",
            "objective": "p99_latency", "severity": "page",
            "burn": 3.0, "t_start": 4.0, "ts": 4.0,
        }
        board.feed(breach)
        st = board.state("sp-cache")
        assert ("p99_latency", "page") in st.active_alerts
        assert st.total_breaches == 1
        board.feed(
            {
                "event": "slo_recovered", "scheme": "sp-cache",
                "objective": "p99_latency", "severity": "page", "ts": 9.0,
            }
        )
        assert not st.active_alerts
        assert st.total_breaches == 1

    def test_unknown_kinds_counted_never_raise(self):
        board = DashBoard()
        board.feed({"event": "mystery", "payload": object()})
        board.feed({"no_event_key": True})
        assert board.n_unknown == 2

    def test_simulation_end_widens_server_vector(self):
        board = DashBoard()
        board.feed(_read(servers=(1,), sizes=(1.0,)))
        board.feed(
            {"event": "simulation_end", "scheme": "sp-cache", "n_servers": 8}
        )
        assert board.state("sp-cache").server_bytes.size == 8

    def test_feed_many_skips_non_mappings(self):
        board = DashBoard()
        board.feed_many([_read(), "junk", None, 42, _done()])
        assert board.state("sp-cache").requests == 1


class TestManifest:
    def _manifest(self):
        return {
            "schema_version": 7,
            "metrics": {
                "sim.server_bytes{engine=ps,scheme=sp-cache,server_id=0}": 30.0,
                "sim.server_bytes{engine=ps,scheme=sp-cache,server_id=1}": 10.0,
                "sim.requests{engine=ps,scheme=sp-cache}": 300.0,
                "sim.misses{engine=ps,scheme=sp-cache}": 12.0,
                "sim.latency_seconds{engine=ps,scheme=sp-cache}": {
                    "p50": 0.1, "p95": 0.5, "p99": 0.9,
                    "count": 300, "sum": 40.0,
                },
            },
            "popularity": [
                {
                    "scheme": "sp-cache",
                    "top": [{"file_id": 3, "count": 50.0, "share": 0.2}],
                }
            ],
            "slo": [
                {
                    "scheme": "sp-cache",
                    "objectives": [
                        {"name": "p99_latency", "budget_remaining": 0.4},
                    ],
                    "alerts": [
                        {
                            "objective": "p99_latency", "severity": "page",
                            "t_start": 2.0, "active": True, "peak_burn": 6.0,
                        },
                        {
                            "objective": "p99_latency", "severity": "warn",
                            "t_start": 1.0, "active": False,
                        },
                    ],
                }
            ],
            "causal": [],
            "membership": [],
        }

    def test_board_from_manifest(self):
        board = dash_from_manifest(self._manifest())
        st = board.state("sp-cache")
        assert st.requests == 300 and st.misses == 12
        assert st.server_bytes[0] == 30.0 and st.server_bytes[1] == 10.0
        assert st.total_breaches == 2
        assert list(st.active_alerts) == [("p99_latency", "page")]
        assert st.budget_remaining["p99_latency"] == pytest.approx(0.4)
        assert st.hot.top(1)[0][0] == 3


class TestRenderFrame:
    def test_empty_board(self):
        assert "no simulator events" in render_frame(DashBoard())

    def test_frame_sections(self):
        board = dash_from_manifest(TestManifest()._manifest())
        frame = render_frame(board)
        assert "== sp-cache ==" in frame
        assert "requests=300" in frame
        assert "miss=4.0%" in frame
        assert "s0   |" in frame and "#" in frame
        assert "hot keys: f3:50" in frame
        assert "slo budget left: p99_latency=40%" in frame
        assert "ALERT [page] p99_latency" in frame

    def test_alerts_none_line(self):
        board = DashBoard()
        board.feed(_read())
        assert "alerts: none" in render_frame(board)

    def test_server_list_truncated(self):
        board = DashBoard()
        board.feed(_read(servers=range(40), sizes=[1.0] * 40))
        frame = render_frame(board, max_servers=8)
        assert "... 32 more servers" in frame

    def test_unknown_events_footer(self):
        board = DashBoard()
        board.feed(_read())
        board.feed({"event": "mystery"})
        assert "1 unknown event records skipped" in render_frame(board)


class TestMembershipPanel:
    def _topology_events(self):
        return [
            {"event": "epoch", "ts": 0.0, "epoch": 0, "n_servers": 3,
             "added": [], "removed": []},
            {"event": "membership", "ts": 10.0, "kind": "add",
             "server_id": 3},
            {"event": "epoch", "ts": 10.0, "epoch": 1, "n_servers": 4,
             "added": [3], "removed": []},
            {"event": "repartition_time", "mode": "epoch", "epoch": 1,
             "seconds": 0.5, "moved_bytes": 1024.0},
        ]

    def test_trace_fold_tracks_epochs(self):
        board = DashBoard()
        board.feed_many(self._topology_events())
        assert board.n_servers == 4
        assert board.current_epoch == 1
        assert board.last_membership_event["server_id"] == 3
        assert board.membership[1]["added"] == 1
        assert board.membership[1]["moved"]["plan"] == 1024.0
        assert board.n_unknown == 0

    def test_membership_panel_renders_without_sim_events(self):
        board = DashBoard()
        board.feed_many(self._topology_events())
        frame = render_frame(board)
        assert "== cluster membership ==  servers=4  epoch=1" in frame
        assert "last event: add s3 at t=10.0s" in frame
        assert "plan=1.0KiB" in frame

    def test_manifest_membership_sections_fold(self):
        manifest = {
            "schema_version": 7,
            "metrics": {},
            "popularity": [],
            "slo": [],
            "causal": [],
            "membership": [
                {
                    "scheme": "ring",
                    "n_epochs": 2,
                    "epochs": [
                        {"epoch": 0, "t_start": 0.0, "n_servers": 3,
                         "added": [], "removed": [], "moved_bytes": 0.0},
                        {"epoch": 1, "t_start": 10.0, "n_servers": 4,
                         "added": [3], "removed": [],
                         "moved_bytes": 2048.0},
                    ],
                    "events": [
                        {"t": 10.0, "kind": "add", "server_id": 3},
                    ],
                },
            ],
        }
        board = dash_from_manifest(manifest)
        assert board.n_servers == 4
        frame = render_frame(board)
        assert "== cluster membership ==" in frame
        assert "ring=2.0KiB" in frame
        assert "last event: add s3 at t=10.0s" in frame


class TestFollowLines:
    def test_only_complete_lines_yielded(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1}\n{"partial"')
        lines = list(follow_lines(str(path), poll_s=0.01, idle_limit=0.05))
        assert lines == ['{"a": 1}']

    def test_picks_up_growth(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1}\n')

        def writer():
            time.sleep(0.05)
            with open(path, "a") as fh:
                fh.write('{"b": 2}\n')

        t = threading.Thread(target=writer)
        t.start()
        lines = list(follow_lines(str(path), poll_s=0.01, idle_limit=0.3))
        t.join()
        assert lines == ['{"a": 1}', '{"b": 2}']

    def test_parse_json_lines_skips_junk(self):
        records = list(
            parse_json_lines(['{"a": 1}', "not json", "[1,2]", '{"b": 2}'])
        )
        assert records == [{"a": 1}, {"b": 2}]
