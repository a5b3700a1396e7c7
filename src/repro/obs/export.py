"""Exporters: Chrome-trace timeline, cycle flamegraph, heartbeat line.

Three views of one observed run:

* :func:`chrome_trace` — the lifecycle event stream as a Chrome trace
  (``chrome://tracing`` / https://ui.perfetto.dev): run, workload and
  measurement phases as duration slices on the main lane, pool tasks as
  slices on one lane per worker process, everything else as instants.
* :func:`flamegraph` — the Table-8-style attribution of every counted
  machine cycle as collapsed stacks
  (``stage;group;cycle-kind count``), the input format of
  ``flamegraph.pl`` and https://speedscope.app: decode → specifier →
  execute-by-group → stall-kind, exactly the paper's decomposition but
  zoomable.
* :func:`heartbeat_line` — one plain-text liveness line from a metrics
  snapshot.
"""

from __future__ import annotations

from repro.ucode.rows import COLUMN_ORDER, Column, ROW_ORDER, Row

#: Stack frames for each Table 8 row (stage, then group for executes).
_ROW_FRAMES = {
    Row.DECODE: ("decode",),
    Row.SPEC1: ("specifier", "spec1"),
    Row.SPEC26: ("specifier", "spec2-6"),
    Row.BDISP: ("specifier", "bdisp"),
    Row.EX_SIMPLE: ("execute", "simple"),
    Row.EX_FIELD: ("execute", "field"),
    Row.EX_FLOAT: ("execute", "float"),
    Row.EX_CALLRET: ("execute", "call-ret"),
    Row.EX_SYSTEM: ("execute", "system"),
    Row.EX_CHARACTER: ("execute", "character"),
    Row.EX_DECIMAL: ("execute", "decimal"),
    Row.INT_EXCEPT: ("overhead", "int-except"),
    Row.MEM_MGMT: ("overhead", "mem-mgmt"),
    Row.ABORTS: ("overhead", "aborts"),
}

#: Leaf frame for each Table 8 column (the cycle/stall kind).
_COLUMN_FRAMES = {
    Column.COMPUTE: "compute",
    Column.READ: "read",
    Column.RSTALL: "read-stall",
    Column.WRITE: "write",
    Column.WSTALL: "write-stall",
    Column.IBSTALL: "ib-stall",
}


def flamegraph(measurement) -> list:
    """Collapsed-stack lines attributing every counted cycle.

    The sum of the counts equals the measurement's classified cycle
    total (the histogram's busy + stall cycles), so the flamegraph is
    the same exact accounting as Table 8 — just hierarchical.
    """
    from repro.analysis.reduction import Reduction

    red = Reduction(measurement.histogram)
    root = measurement.name.replace(" ", "-").replace(";", "-")
    lines = []
    for row in ROW_ORDER:
        for col in COLUMN_ORDER:
            cycles = red.cells[(row, col)]
            if not cycles:
                continue
            frames = (root,) + _ROW_FRAMES[row] + (_COLUMN_FRAMES[col],)
            lines.append(f"{';'.join(frames)} {cycles}")
    return lines


# -- Chrome trace -------------------------------------------------------

#: Events that open/close a duration slice, matched by a key field.
_SPAN_KEY_FIELDS = ("workload", "name", "command", "label", "spec")

_US = 1_000_000


def _span_key(record: dict) -> tuple:
    for field in _SPAN_KEY_FIELDS:
        value = record.get(field)
        if value is not None:
            return (record["event"].rsplit("_", 1)[0], str(value))
    return (record["event"].rsplit("_", 1)[0], "")


def chrome_trace(events) -> dict:
    """Shape an event stream into the Chrome trace-event format.

    ``*_started``/``*_finished`` pairs become complete ("X") slices on
    the main lane; ``task_finished`` events (pool tasks report their
    duration and worker pid when they land) become slices on a
    per-worker lane; every other event becomes an instant ("i").  The
    returned ``traceEvents`` are sorted by ``ts``, so timestamps are
    monotonically ordered — a property the tests pin, since Perfetto
    tolerates disorder but humans debugging a trace should not have to.
    """
    trace = []
    open_spans = {}
    worker_lanes = {}
    last_ts = 0.0
    for record in events:
        ts = record["ts"]
        last_ts = max(last_ts, ts)
        event = record["event"]
        args = {k: v for k, v in record.items()
                if k not in ("ts", "event")}
        if event == "task_finished" and "seconds" in record:
            worker = record.get("worker", "?")
            lane = worker_lanes.setdefault(worker,
                                           100 + len(worker_lanes))
            start = max(0.0, ts - record["seconds"])
            trace.append({"name": record.get("label", "task"),
                          "cat": "pool", "ph": "X",
                          "ts": round(start * _US, 3),
                          "dur": round((ts - start) * _US, 3),
                          "pid": 1, "tid": lane, "args": args})
        elif event.endswith("_started"):
            open_spans.setdefault(_span_key(record), []).append(record)
        elif event.endswith("_finished") and \
                open_spans.get(_span_key(record)):
            begun = open_spans[_span_key(record)].pop()
            name = _span_key(record)[1] or _span_key(record)[0]
            trace.append({"name": name,
                          "cat": _span_key(record)[0], "ph": "X",
                          "ts": round(begun["ts"] * _US, 3),
                          "dur": round((ts - begun["ts"]) * _US, 3),
                          "pid": 1, "tid": 0, "args": args})
        else:
            trace.append({"name": event, "cat": "event", "ph": "i",
                          "s": "t", "ts": round(ts * _US, 3),
                          "pid": 1, "tid": 0, "args": args})
    # Close anything a crash (or a caller) left open at the last ts.
    for spans in open_spans.values():
        for begun in spans:
            key = _span_key(begun)
            trace.append({"name": key[1] or key[0], "cat": key[0],
                          "ph": "X", "ts": round(begun["ts"] * _US, 3),
                          "dur": round(max(0.0, last_ts - begun["ts"])
                                       * _US, 3),
                          "pid": 1, "tid": 0,
                          "args": {"unclosed": True}})
    trace.sort(key=lambda e: e["ts"])

    meta = [{"name": "process_name", "ph": "M", "pid": 1, "ts": 0,
             "args": {"name": "repro-vax780"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
             "ts": 0, "args": {"name": "main"}}]
    for worker, lane in sorted(worker_lanes.items(),
                               key=lambda item: item[1]):
        meta.append({"name": "thread_name", "ph": "M", "pid": 1,
                     "tid": lane, "ts": 0,
                     "args": {"name": f"worker-{worker}"}})
    return {"traceEvents": meta + trace, "displayTimeUnit": "ms"}


# -- heartbeat ----------------------------------------------------------

#: counter name -> short heartbeat field label, in display order.
_PULSE_COUNTERS = (
    ("workloads.runs", "workloads"),
    ("workloads.cycles", "cycles"),
    ("explore.simulations", "sims"),
    ("explore.store.hits", "store-hits"),
    ("osim.codegen_misses", "codegen"),
    ("osim.codegen_hits", "codegen-hits"),
    ("ubench.kernels", "kernels"),
    ("validate.fuzz_cases", "fuzz"),
    ("validate.divergences", "DIVERGED"),
    ("parallel.tasks", "pool-tasks"),
)


def heartbeat_line(snapshot: dict, elapsed: float,
                   label: str = "run") -> str:
    """One liveness line: elapsed time plus whatever is moving."""
    parts = [f"[obs +{elapsed:.1f}s {label}]"]
    for name, short in _PULSE_COUNTERS:
        entry = snapshot.get(name)
        if entry and entry.get("value"):
            parts.append(f"{short}={entry['value']:,}")
    in_flight = sum(entry["value"] for name, entry in snapshot.items()
                    if name.startswith("run.")
                    and name.endswith(".instructions")
                    and entry.get("kind") == "gauge")
    if in_flight:
        parts.append(f"instr~{in_flight:,}")
    if len(parts) == 1:
        parts.append("warming up")
    return " ".join(parts)
