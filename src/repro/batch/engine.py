"""Run planned lanes: each cohort once, in sequence, many captures.

:class:`BatchRunner` executes a list of :class:`~repro.batch.lanes.LaneSpec`
requests by planning them into cohorts (budget-only variants fused)
and running each cohort as one multi-budget
:func:`repro.workloads.engine.simulate`, which captures every lane's
measurement as its boundary goes by.

Bit-identity contract: each lane's measurement equals, bit for bit,
what an independent run of the same (workload, params, machine,
instructions, seed) produces — including the two failure modes, which
carry the independent run's exact :class:`RuntimeError` message.  The
argument lives in :meth:`repro.osim.executive.Executive.run`; the
multi-capture differential fuzzer (:mod:`repro.validate.differential`)
enforces it on randomly perturbed profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.batch.lanes import LaneSpec, plan_cohorts
from repro.obs import metrics


@dataclass(frozen=True)
class LaneResult:
    """One lane's outcome: a measurement, or the run's error message."""

    spec: LaneSpec
    measurement: object = None
    error: str = None

    @property
    def ok(self) -> bool:
        return self.error is None


class BatchRunner:
    """Run many lanes, one run per cohort; results in input-lane order."""

    def __init__(self, lanes, profiles=None) -> None:
        self.lanes = [spec if isinstance(spec, LaneSpec)
                      else LaneSpec(*spec) for spec in lanes]
        if not self.lanes:
            raise ValueError("batch needs at least one lane")
        if profiles is None:
            # Every registered generator workload is a valid lane;
            # trace-backed workloads replay on their own machine and
            # cannot be fused.
            from repro.workloads.registry import WORKLOADS

            profiles = {name: spec.profile
                        for name, spec in WORKLOADS.items()
                        if spec.trace is None}
        if not isinstance(profiles, dict):
            profiles = {profile.name: profile for profile in profiles}
        self.profiles = profiles
        for spec in self.lanes:
            if spec.workload not in self.profiles:
                raise ValueError(
                    f"unknown workload {spec.workload!r}; valid "
                    f"workloads: {', '.join(sorted(self.profiles))}")
        self.cohorts = plan_cohorts(self.lanes)

    def run(self) -> list:
        """Execute every lane; returns LaneResults in input order."""
        from repro.workloads.engine import simulate

        fused = len(self.lanes) - len(self.cohorts)
        obs.emit("batch_started", lanes=len(self.lanes),
                 cohorts=len(self.cohorts), fused=fused)
        metrics.counter("batch.lanes").inc(len(self.lanes))
        if fused:
            metrics.counter("batch.fused_lanes").inc(fused)
        results = [None] * len(self.lanes)
        for cohort in self.cohorts:
            outcomes = simulate(
                self.profiles[cohort.workload], cohort.targets,
                cohort.seed, machine=cohort.machine,
                overrides=cohort.overrides, name=cohort.workload)
            for target, outcome in zip(cohort.targets, outcomes):
                failed = isinstance(outcome, RuntimeError)
                for index in cohort.lanes_at(target):
                    results[index] = LaneResult(
                        self.lanes[index],
                        None if failed else outcome,
                        str(outcome) if failed else None)
        obs.emit("batch_finished", lanes=len(self.lanes),
                 cohorts=len(self.cohorts))
        return results


def run_lanes(lanes, profiles=None, strict: bool = True) -> list:
    """Run lanes through one BatchRunner; optionally raise lane errors.

    With ``strict`` (the default) the first failed lane raises its
    independent run's :class:`RuntimeError` verbatim, matching what a
    serial loop over ``run_workload`` would have done.
    """
    results = BatchRunner(lanes, profiles=profiles).run()
    if strict:
        for result in results:
            if result.error is not None:
                raise RuntimeError(result.error)
    return results
