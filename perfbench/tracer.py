"""Layer spans recorded from outside the program.

The benchmark attributes host time to the simulator's layers without
touching the program: :func:`install` wraps the public entry point of
each layer in place (class attributes and the facade's table
references), and every wrapped call records a span — layer name,
start, end, parent span — in memory.  :meth:`Recorder.summary` turns
the spans into per-layer *self* time (a span's duration minus the part
its child spans cover), so nested layers are never counted twice.

:func:`trace_at_exit` traces a whole process and writes the summary
when it exits; ``pace.py --trace`` uses it to time the server of the
traced ``serve`` workload.
"""

from __future__ import annotations

import atexit
import functools
import json
import threading
import time

#: layer -> the calls whose time it owns (documentation; install() is
#: the single place the wrapping happens).
LAYERS = {
    "machines": "repro.cpu.machine.VAX780 construction "
                "(MachineSpec.build and the batch engine's cohorts)",
    "osim.executive": "repro.osim.executive.Executive.__init__ + boot "
                      "(kernelgen, workloads.codegen, asm, load)",
    "osim.run": "repro.osim.executive.Executive.run (the cpu run loop)",
    "batch.run": "repro.batch.engine.BatchRunner.run (lockstep lanes)",
    "analysis.capture": "repro.analysis.measurement.Measurement.capture",
    "analysis.reduce": "repro.analysis table1..9/section4 and "
                       "repro.analysis.reduction.Reduction",
    "report.render": "repro.report.format render_* via repro.api",
    "explore.store_get": "repro.explore.store.ResultStore.get",
    "explore.store_put": "repro.explore.store.ResultStore.put",
}


class Recorder:
    """Spans of one process, kept in memory until :meth:`summary`."""

    def __init__(self) -> None:
        self.spans = []               #: [layer, start, end, parent]
        self.counts = {}
        self.instructions = 0         #: measured by Executive.run
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def timed(self, layer: str, func, count: str = None):
        """``func`` wrapped so each call records one ``layer`` span."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = [layer, time.perf_counter(), None,
                    stack[-1] if stack else None]
            index = len(self.spans)
            self.spans.append(span)
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if count is not None:
                    self.count(count)

        return wrapper

    def summary(self) -> dict:
        """Per-layer self seconds, span counts and call counts."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent is not None and end is not None:
                child[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        for index, (layer, start, end, _parent) in enumerate(self.spans):
            if end is not None:
                self_s[layer] += end - start - child[index]
        return {"self_s": self_s, "counts": dict(self.counts),
                "instructions": self.instructions,
                "spans": len(self.spans)}


def install(recorder: Recorder) -> None:
    """Wrap every layer's entry points so calls land in ``recorder``."""
    from repro import api
    from repro.analysis import reduction
    from repro.analysis.measurement import Measurement
    from repro.batch.engine import BatchRunner
    from repro.cpu.machine import VAX780
    from repro.explore.store import ResultStore
    from repro.osim.executive import Executive

    VAX780.__init__ = recorder.timed("machines", VAX780.__init__)
    Executive.__init__ = recorder.timed(
        "osim.executive", Executive.__init__, count="constructions")
    Executive.boot = recorder.timed("osim.executive", Executive.boot)

    run = Executive.run

    def counted_run(self, *args, **kwargs):
        before = self.machine.tracer.instructions
        try:
            return run(self, *args, **kwargs)
        finally:
            recorder.instructions += \
                self.machine.tracer.instructions - before

    Executive.run = recorder.timed("osim.run", functools.wraps(run)(
        counted_run), count="runs")
    BatchRunner.run = recorder.timed("batch.run", BatchRunner.run)
    capture = Measurement.__dict__["capture"].__func__
    Measurement.capture = classmethod(recorder.timed(
        "analysis.capture", capture, count="captures"))
    reduction.Reduction.__init__ = recorder.timed(
        "analysis.reduce", reduction.Reduction.__init__)
    api.TABLES.update({
        key: (recorder.timed("analysis.reduce", compute),
              recorder.timed("report.render", render))
        for key, (compute, render) in api.TABLES.items()})
    api.table1 = recorder.timed("analysis.reduce", api.table1)
    api.table8 = recorder.timed("analysis.reduce", api.table8)
    api.render_table1 = recorder.timed("report.render", api.render_table1)
    ResultStore.get = recorder.timed("explore.store_get", ResultStore.get,
                                     count="store_gets")
    ResultStore.put = recorder.timed("explore.store_put", ResultStore.put,
                                     count="store_puts")


def registry_counts() -> dict:
    """Counts the program keeps itself (its ``repro.obs`` registry).

    The lockstep batch engine runs and captures without calling
    ``Executive.run``/``Measurement.capture``; its cohorts and captures
    are counted here, as are the store's hits.
    """
    from repro.obs import metrics

    registry = metrics.registry()
    return {name: registry.counter(name).value
            for name in ("batch.cohorts", "batch.captures",
                         "explore.store.hits")}


def trace_at_exit(out: str) -> None:
    """Trace this process from here on; write the summary to ``out``
    when it exits (``pace.py --trace`` uses this for the server)."""
    recorder = Recorder()
    install(recorder)

    def dump() -> None:
        doc = recorder.summary()
        doc["counts"].update(registry_counts())
        with open(out, "w") as handle:
            json.dump(doc, handle)

    atexit.register(dump)
