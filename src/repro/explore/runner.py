"""Sharded execution of design-space sweeps.

A sweep is a bag of independent (point × workload) simulations — the
same embarrassing parallelism as the composite experiments — so the
runner fans tasks out over :func:`repro.workloads.parallel.run_tasks`
(which brings bounded per-task retry and in-process fallback when the
pool dies) in shards, persisting each shard to the
:class:`~repro.explore.store.ResultStore` as it lands.  An interrupted
sweep therefore loses at most one shard, and a re-run simulates only
what the store has never seen.

The outstanding tasks are planned into cohorts
(:func:`repro.batch.plan_cohorts`): tasks that differ only in budget
share one machine run, captured at each budget as it goes by, so an
``instructions``-axis sweep costs one run of the longest point.  One
cohort is one pool task and one shard unit.  Each run goes through
:func:`repro.workloads.engine.simulate`, the same build-boot-run-capture
helper behind :func:`~repro.workloads.engine.run_workload` (without its
memo, whose key does not encode params overrides), so the
default-params point is bit-identical to the standard composite (a
contract the tests pin).  The ``engine`` argument is validated and
echoed, and selects nothing: every engine fuses.
"""

from __future__ import annotations

import time

from repro import obs
from repro.explore.space import SpaceError, SweepSpec
from repro.explore.store import ResultStore, code_version, result_key
from repro.obs import metrics
from repro.workloads.engine import simulate
from repro.workloads.parallel import run_tasks
from repro.workloads.registry import WorkloadError, get_workload

#: Records simulated by this process since import (tests use this to
#: assert that a warm store performs zero new simulations).  A fused
#: cohort counts one per record; ``explore.runs`` counts machine runs.
SIMULATIONS = 0


def _record(measurement, workload: str, instructions: int,
            seed: int, overrides: dict,
            machine: str = "vax780") -> dict:
    """Shape one run into the compact store record."""
    import hashlib

    from repro.analysis.reduction import Reduction
    from repro.explore.store import SCHEMA
    from repro.ucode.rows import COLUMN_ORDER, ROW_ORDER

    hist = measurement.histogram
    digest = hashlib.sha256()
    digest.update(hist.nonstalled.tobytes())
    digest.update(hist.stalled.tobytes())
    red = Reduction(hist)
    cells = {}
    for row in ROW_ORDER:
        for col in COLUMN_ORDER:
            cycles = red.cells[(row, col)]
            if cycles:
                cells.setdefault(row.name, {})[col.name] = cycles
    tracer = measurement.tracer
    mem = measurement.memory
    return {
        # The schema/code pair is already part of the key; repeating it
        # inside the record lets ResultStore.stats() break a store down
        # by version without re-deriving keys.
        "schema": SCHEMA,
        "code": code_version(),
        "workload": workload,
        "instructions": instructions,
        "seed": seed,
        "machine": machine,
        "overrides": dict(overrides),
        "cycles": measurement.cycles,
        "instructions_measured": red.instructions,
        "histogram": {
            "nonstalled_total": sum(hist.nonstalled),
            "stalled_total": sum(hist.stalled),
            "sha256": digest.hexdigest(),
        },
        "cells": cells,
        "decode": {
            "dispatches": tracer.decode_dispatches,
            "pc_change_dispatches": tracer.pc_change_dispatches,
            "overlapped_decodes": tracer.overlapped_decodes,
        },
        "memory": {
            "cache_read_misses_i": mem.cache_read_misses["i"],
            "cache_read_misses_d": mem.cache_read_misses["d"],
            "tb_misses": mem.tb_misses,
            "write_stall_cycles": mem.write_stall_cycles,
            "writes": mem.writes,
        },
    }


def _simulate_cohort(task) -> list:
    """Worker entry point (top-level, so it pickles): one cohort.

    One machine runs to the largest budget and is captured at each;
    returns one store record per budget.  A failed budget raises its
    independent run's RuntimeError, after the run, exactly as a serial
    loop over the budgets would have at that point.
    """
    global SIMULATIONS
    workload, budgets, seed, overrides, machine_name = task
    overrides = dict(overrides)
    outcomes = simulate(get_workload(workload).profile, budgets, seed,
                        machine=machine_name, overrides=overrides,
                        name=workload)
    metrics.counter("explore.runs").inc()
    records = []
    for budget, measurement in zip(budgets, outcomes):
        if isinstance(measurement, RuntimeError):
            raise measurement
        SIMULATIONS += 1
        metrics.counter("explore.simulations").inc()
        records.append(_record(measurement, workload, budget, seed,
                               overrides, machine=machine_name))
    return records


class SweepResult:
    """Everything one sweep run produced."""

    def __init__(self, spec: SweepSpec, points: list, stats: dict) -> None:
        self.spec = spec
        self.points = points
        self.stats = stats

    def point(self, **overrides) -> dict:
        """The point result matching exactly the given overrides.

        The special ``seed``/``instructions`` axes are matched against
        the point's own fields; everything else against its
        MachineParams overrides.  No arguments selects the baseline.
        """
        seed = overrides.pop("seed", self.spec.seed)
        instructions = overrides.pop("instructions",
                                     self.spec.instructions)
        wanted = tuple(sorted(overrides.items()))
        for entry in self.points:
            point = entry["point"]
            if point.overrides == wanted and point.seed == seed \
                    and point.instructions == instructions:
                return entry
        return None


def compose(records) -> dict:
    """Sum per-workload records into a point composite (like §2.2)."""
    records = list(records)
    out = {
        "cycles": 0, "instructions_measured": 0,
        "histogram": {"nonstalled_total": 0, "stalled_total": 0},
        "cells": {},
        "decode": {"dispatches": 0, "pc_change_dispatches": 0,
                   "overlapped_decodes": 0},
        "memory": {},
    }
    for record in records:
        out["cycles"] += record["cycles"]
        out["instructions_measured"] += record["instructions_measured"]
        for key in ("nonstalled_total", "stalled_total"):
            out["histogram"][key] += record["histogram"][key]
        for row, cols in record["cells"].items():
            target = out["cells"].setdefault(row, {})
            for col, cycles in cols.items():
                target[col] = target.get(col, 0) + cycles
        for key, value in record["decode"].items():
            out["decode"][key] += value
        for key, value in record["memory"].items():
            out["memory"][key] = out["memory"].get(key, 0) + value
    return out


def run_sweep(spec: SweepSpec, store: ResultStore = None, jobs: int = None,
              resume: bool = True, retries: int = 1,
              progress=None, engine: str = "scalar") -> SweepResult:
    """Run ``spec``, reusing stored results, and return every point.

    ``resume=False`` re-simulates every point (the store is still
    updated).  ``progress`` is an optional ``callable(str)`` fed
    shard-by-shard status lines with an ETA.  ``engine`` is validated
    and echoed in the stats; every engine plans budget-only tasks onto
    shared runs, with records bit-identical to independent runs.
    """
    from repro.batch import LaneSpec, plan_cohorts, validate_engine

    global SIMULATIONS
    engine = validate_engine(engine)
    code = code_version()
    tasks = []          # (point_index, workload, key)
    points = spec.points()
    # Eager support check across every (machine, workload) pair the
    # sweep will touch — a machine axis can put a workload on a backend
    # that refuses it, and that should fail before the first shard.
    for machine_name in {point.machine for point in points}:
        for workload in spec.workloads:
            try:
                get_workload(workload).check_machine(machine_name)
            except WorkloadError as exc:
                raise SpaceError(str(exc)) from exc
    for index, point in enumerate(points):
        params = point.params()
        for workload in spec.workloads:
            key = result_key(params, workload, point.instructions,
                             point.seed, code=code,
                             machine=point.machine)
            tasks.append((index, workload, key))

    records = {}        # key -> record
    todo = []
    seen = set()
    for index, workload, key in tasks:
        if key in seen:
            continue
        seen.add(key)
        record = store.get(key) if (store is not None and resume) else None
        if record is not None:
            records[key] = record
        else:
            todo.append((index, workload, key))
    cached = len(seen) - len(todo)
    metrics.counter("explore.resumed_points").inc(cached)
    cohorts = plan_cohorts(
        LaneSpec(workload, points[index].instructions, points[index].seed,
                 points[index].overrides, points[index].machine)
        for index, workload, _key in todo)
    started = time.monotonic()
    obs.emit("sweep_started", spec=spec.name, points=len(points),
             workloads=len(spec.workloads), simulations=len(todo),
             runs=len(cohorts), cached=cached, engine=engine)

    # Shard the outstanding cohorts so each shard's results are
    # persisted before the next starts: an interrupted sweep loses at
    # most one shard, and progress/ETA lines have something real to
    # report.
    from repro.workloads.parallel import default_jobs
    effective_jobs = jobs if jobs is not None else default_jobs()
    shard_size = max(1, 2 * effective_jobs)
    shards = [cohorts[i:i + shard_size]
              for i in range(0, len(cohorts), shard_size)]
    simulated = 0
    for number, shard in enumerate(shards, start=1):
        payloads = [(cohort.workload, cohort.targets, cohort.seed,
                     cohort.overrides, cohort.machine)
                    for cohort in shard]
        results = run_tasks(_simulate_cohort, payloads, jobs=jobs,
                            retries=retries)
        for cohort, cohort_records in zip(shard, results):
            for target, record in zip(cohort.targets, cohort_records):
                for lane in cohort.lanes_at(target):
                    index, workload, key = todo[lane]
                    records[key] = record
                    if store is not None:
                        store.put(key, record)
                    obs.emit("sweep_point_completed", spec=spec.name,
                             label=points[index].label(),
                             workload=workload, cycles=record["cycles"])
                    simulated += 1
        if effective_jobs > 1 and len(payloads) > 1:
            # The pool's workers simulated on our behalf (the
            # in-process path already counted itself inside
            # ``_simulate_cohort``).
            fresh = sum(len(cohort.targets) for cohort in shard)
            SIMULATIONS += fresh
        if progress is not None:
            elapsed = time.monotonic() - started
            remaining = len(todo) - simulated
            eta = elapsed / simulated * remaining if simulated else 0.0
            progress(f"shard {number}/{len(shards)}: "
                     f"{simulated}/{len(todo)} simulations "
                     f"({len(cohorts)} runs, {cached} cached) elapsed "
                     f"{elapsed:.1f}s eta {eta:.1f}s")

    out_points = []
    for index, point in enumerate(points):
        params = point.params()
        by_workload = {}
        for workload in spec.workloads:
            key = result_key(params, workload, point.instructions,
                             point.seed, code=code,
                             machine=point.machine)
            by_workload[workload] = records[key]
        out_points.append({
            "point": point,
            "label": point.label(),
            "records": by_workload,
            "composite": compose(by_workload.values()),
        })
    stats = {"points": len(points), "workloads": len(spec.workloads),
             "tasks": len(tasks), "simulated": len(todo),
             "runs": len(cohorts), "cached": cached, "engine": engine,
             "seconds": round(time.monotonic() - started, 3)}
    obs.emit("sweep_finished", spec=spec.name, **stats)
    return SweepResult(spec, out_points, stats)
