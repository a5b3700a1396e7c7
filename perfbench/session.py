"""One benchmark session: a fresh interpreter doing one user's work.

``python3 perfbench/session.py JOB.json OUT.json`` runs in a fresh
working directory (the orchestrator, ``run.py``, makes one per
session), so no in-process memo or on-disk store survives from one
session to the next — exactly what a command-line user pays.  The job
names what to do:

``composite``
    ``repro.api.characterize(table="all")`` once (cold), then the same
    call ``warm_repeats`` times (answered from the engine memo: tables
    only), then the checks: every conservation law on the composite
    and on each workload's measurement.
``sweep``
    ``repro.explore.run_sweep(jobs=1)`` into a fresh store (cold), then
    ``warm_repeats`` re-runs over that store (warm).
``verify``
    The direct ``repro.api`` call behind each served request, for the
    ``serve`` workload's byte-identity check.
``probe``
    Python calls per simulated instruction of the cpu run loop, from
    cProfile ``ncalls`` around ``Executive.run`` only.
``ready``
    Import the workload's entry layer and exit (set-up time).

The session writes its timings and outputs to OUT.json; the
orchestrator times the process from outside and does the checking.
``done_at`` is the wall-clock instant the user's work finished, before
the session's own checks run.  Every session but ``probe`` (whose
cProfile count must stay exact) runs the ``pace.py`` sampler from
before the program is imported; its operation times are read on the
sampler's work clock, and its samples go to OUT.json so the
orchestrator can scale every time to the nominal host.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pace  # noqa: E402  (the benchmark's own modules)
import tracer as _tracer  # noqa: E402

SAMPLER = pace.Sampler()
clock = SAMPLER.clock


def digest(doc) -> str:
    """sha256 of ``doc`` as sorted, compact JSON: the byte-identity test
    every output check uses (sessions and the orchestrator alike)."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _observed(job, label):
    """``repro.obs.observe`` around the cold operation when asked."""
    from contextlib import nullcontext

    if not job.get("observe"):
        return nullcontext()
    from repro import obs

    return obs.observe("obs", label=label)


def composite(job: dict, done) -> dict:
    from repro import api

    kwargs = {"instructions": job["instructions"], "seed": job["seed"],
              "machine": job["machine"], "table": "all"}
    started_at = time.time()
    started = clock()
    with _observed(job, "characterize"):
        result = api.characterize(**kwargs)
    cold = clock() - started
    doc = result.to_json()
    warm = []
    warm_ok = 0
    warm_from = time.time()
    for _ in range(job["warm_repeats"]):
        started = clock()
        again = api.characterize(**kwargs).to_json()
        warm.append(clock() - started)
        warm_ok += again == doc
    warm_window = [warm_from, time.time()]
    done_at = done()

    from repro.validate.invariants import check_measurement

    measurements = {"composite": result.measurement}
    for name in result.workloads:
        measurements[name] = api.run_workload(
            name, instructions=job["instructions"], seed=job["seed"],
            machine=job["machine"]).measurement
    laws = {}
    for name, measurement in measurements.items():
        report = check_measurement(measurement, machine=job["machine"])
        laws[name] = {"ok": report.ok, "laws": len(report.checks),
                      "failed": [c.name for c in report.failures()]}
    hist = result.measurement.histogram
    hist_digest = hashlib.sha256(hist.nonstalled.tobytes()
                                 + hist.stalled.tobytes()).hexdigest()
    return {"started_at": started_at, "done_at": done_at,
            "cold": [cold], "warm": warm, "warm_window": warm_window,
            "warm_ok": warm_ok, "doc_digest": digest(doc),
            "cycles": doc["cycles"],
            "workload_cycles": sum(measurements[name].cycles
                                   for name in result.workloads),
            "hist_digest": hist_digest,
            "instructions": doc["instructions_measured"],
            "cpi": doc["cycles_per_instruction"], "laws": laws}


def _sweep_spec(job: dict):
    from repro.explore import Axis, SweepSpec

    axes = tuple(Axis(name, tuple(values)) for name, values in job["axes"])
    return SweepSpec(name="perfbench", axes=axes, mode="cartesian",
                     instructions=job["axes"][0][1][0], seed=job["seed"],
                     machine="vax780", workloads=tuple(job["workloads"]))


def sweep(job: dict, done) -> dict:
    from repro.explore import ResultStore, run_sweep, runner

    spec = _sweep_spec(job)
    store = ResultStore("store")
    started_at = time.time()
    started = clock()
    with _observed(job, "explore"):
        cold = run_sweep(spec, store=store, jobs=1)
    cold_s = clock() - started
    simulated = runner.SIMULATIONS
    records = [point["records"] for point in cold.points]
    records_digest = digest(records)
    warm, warm_ok = [], 0
    warm_from = time.time()
    for _ in range(job["warm_repeats"]):
        before = runner.SIMULATIONS
        started = clock()
        again = run_sweep(spec, store=store, jobs=1)
        warm.append(clock() - started)
        warm_ok += (runner.SIMULATIONS == before
                    and again.stats["simulated"] == 0
                    and digest([p["records"] for p in again.points])
                    == records_digest)
    warm_window = [warm_from, time.time()]
    done_at = done()
    return {"started_at": started_at, "done_at": done_at,
            "cold": [cold_s], "warm": warm, "warm_window": warm_window,
            "warm_ok": warm_ok, "doc_digest": records_digest,
            "simulated": simulated, "tasks": cold.stats["tasks"],
            "instructions": sum(record["instructions_measured"]
                                for point in records
                                for record in point.values()),
            "cycles": sum(record["cycles"] for point in records
                          for record in point.values())}


def verify(job: dict, done) -> dict:
    from repro import api

    calls = {"characterize": api.characterize,
             "run-workload": api.run_workload}
    digests = []
    for request in job["requests"]:
        params = dict(request["params"])
        if request["command"] == "characterize":
            params.setdefault("engine", job["engine"])
        result = calls[request["command"]](**params)
        digests.append(digest(result.to_json()))
    return {"done_at": done(), "digests": digests}


def probe(job: dict, done) -> dict:
    import cProfile
    import pstats

    from repro import api
    from repro.osim.executive import Executive
    from repro.workloads.registry import paper_workload_names

    profiler = cProfile.Profile()
    run = Executive.run

    def profiled(self, *args, **kwargs):
        profiler.enable()
        try:
            return run(self, *args, **kwargs)
        finally:
            profiler.disable()

    Executive.run = profiled
    instructions = 0
    for name in paper_workload_names():
        result = api.run_workload(name, instructions=job["instructions"],
                                  seed=job["seed"], machine="vax780")
        instructions += result.measurement.tracer.instructions
    calls = pstats.Stats(profiler).total_calls
    return {"done_at": done(), "calls": calls,
            "instructions": instructions}


def ready(job: dict, done) -> dict:
    import importlib

    importlib.import_module(job["module"])
    return {"done_at": done()}


KINDS = {"composite": composite, "sweep": sweep, "verify": verify,
         "probe": probe, "ready": ready}


def main(argv) -> int:
    job = json.loads(Path(argv[0]).read_text())
    if job["kind"] != "probe":
        SAMPLER.start()
    recorder = None
    if job.get("trace"):
        recorder = _tracer.Recorder()
        _tracer.install(recorder)
    trace = {}

    def done() -> float:
        """Mark the end of the user's work; snapshot the spans there."""
        if recorder is not None:
            trace.update(recorder.summary())
            trace["counts"].update(_tracer.registry_counts())
        return time.time()

    out = KINDS[job["kind"]](job, done)
    out["pace"] = SAMPLER.stop()
    if trace:
        out["trace"] = trace
    Path(argv[1]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
