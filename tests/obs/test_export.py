"""Exporters: Chrome trace validity, flamegraph accounting, heartbeat."""

import json

from repro.obs.export import chrome_trace, flamegraph, heartbeat_line


class TestChromeTrace:
    def _events(self):
        return [
            {"ts": 0.0, "event": "observation_opened", "label": "t"},
            {"ts": 0.1, "event": "workload_started", "workload": "a"},
            {"ts": 0.4, "event": "workload_finished", "workload": "a",
             "cycles": 123},
            {"ts": 0.5, "event": "task_finished", "index": 0,
             "label": "job", "worker": 4242, "seconds": 0.3},
            {"ts": 0.6, "event": "task_finished", "index": 1,
             "label": "job", "worker": 4243, "seconds": 0.2},
            {"ts": 0.7, "event": "observation_closed", "label": "t"},
        ]

    def test_trace_is_valid_json_with_monotonic_ts(self):
        doc = chrome_trace(self._events())
        json.dumps(doc)                       # serialisable as-is
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert all(e["ph"] in ("X", "i", "M") for e in events)
        stamps = [e["ts"] for e in events if e["ph"] != "M"]
        assert stamps == sorted(stamps)

    def test_started_finished_becomes_one_slice(self):
        events = [e for e in chrome_trace(self._events())["traceEvents"]
                  if e["ph"] == "X" and e["cat"] == "workload"]
        assert len(events) == 1
        span = events[0]
        assert span["name"] == "a"
        assert span["ts"] == 100_000          # 0.1 s in microseconds
        assert span["dur"] == 300_000
        assert span["args"]["cycles"] == 123

    def test_pool_tasks_get_worker_lanes(self):
        doc = chrome_trace(self._events())
        lanes = {e["tid"] for e in doc["traceEvents"]
                 if e.get("cat") == "pool"}
        assert len(lanes) == 2
        assert all(tid >= 100 for tid in lanes)
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"main", "worker-4242", "worker-4243"} <= names

    def test_unclosed_span_is_closed_at_last_ts(self):
        events = [
            {"ts": 0.0, "event": "workload_started", "workload": "w"},
            {"ts": 2.0, "event": "heartbeat", "line": "x"},
        ]
        spans = [e for e in chrome_trace(events)["traceEvents"]
                 if e["ph"] == "X"]
        assert len(spans) == 1
        assert spans[0]["args"] == {"unclosed": True}
        assert spans[0]["dur"] == 2_000_000

    def test_empty_stream(self):
        doc = chrome_trace([])
        assert all(e["ph"] == "M" for e in doc["traceEvents"])


class TestFlamegraph:
    def test_counts_sum_to_classified_cycles(self):
        from repro.analysis.reduction import Reduction
        from repro.workloads.engine import run_workload
        from repro.workloads.profiles import STANDARD_PROFILES

        measurement = run_workload(STANDARD_PROFILES[0], 1_500)
        lines = flamegraph(measurement)
        assert lines
        total = 0
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            total += int(count)
            frames = stack.split(";")
            assert frames[0] == measurement.name
            assert 3 <= len(frames) <= 4
        assert total == Reduction(measurement.histogram).total_cycles()

    def test_stack_roots_cover_the_stages(self):
        from repro.workloads.engine import run_workload
        from repro.workloads.profiles import STANDARD_PROFILES

        measurement = run_workload(STANDARD_PROFILES[0], 1_500)
        stages = {line.split(";")[1] for line in flamegraph(measurement)}
        assert {"decode", "specifier", "execute"} <= stages


class TestHeartbeatLine:
    def test_warming_up_when_nothing_moves(self):
        assert heartbeat_line({}, 0.3, label="x") \
            == "[obs +0.3s x] warming up"

    def test_counters_and_gauges_render(self):
        snapshot = {
            "workloads.runs": {"kind": "counter", "value": 2},
            "workloads.cycles": {"kind": "counter", "value": 12345},
            "run.a.instructions": {"kind": "gauge", "value": 700,
                                   "agg": "max"},
            "run.b.instructions": {"kind": "gauge", "value": 300,
                                   "agg": "max"},
        }
        line = heartbeat_line(snapshot, 12.0, label="run")
        assert "workloads=2" in line
        assert "cycles=12,345" in line
        assert "instr~1,000" in line

    def test_codegen_memo_counters_render(self):
        snapshot = {
            "osim.codegen_misses": {"kind": "counter", "value": 10},
            "osim.codegen_hits": {"kind": "counter", "value": 30},
        }
        line = heartbeat_line(snapshot, 1.0)
        assert "codegen=10" in line
        assert "codegen-hits=30" in line

    def test_zero_counters_are_quiet(self):
        snapshot = {"validate.divergences": {"kind": "counter",
                                             "value": 0}}
        assert "DIVERGED" not in heartbeat_line(snapshot, 1.0)
