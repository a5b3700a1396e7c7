"""Budget fusion behind run_sweep: same records, fewer machine runs.

Every engine name takes the same path: outstanding tasks that differ
only in budget share one run, captured at each budget.  ``explore.runs``
counts those runs; ``SIMULATIONS`` and ``explore.simulations`` keep
counting records computed.
"""

import pytest

from repro.explore import Axis, ResultStore, SweepSpec, run_sweep
from repro.explore import runner as runner_module
from repro.obs import metrics
from repro.workloads.engine import simulate
from repro.workloads.registry import get_workload, paper_workload_names

#: Budget-axis sweep: every point shares (workload, seed, params), so
#: the whole thing fuses onto one machine per workload.
FUSING = SweepSpec(
    "fusing", (Axis("instructions", (300, 600, 900)),),
    instructions=300, workloads=("timesharing-research",))

#: Param-axis sweep: every point is its own cohort.
SPLITTING = SweepSpec(
    "splitting", (Axis("overlapped_decode", (False, True)),),
    instructions=300, workloads=("timesharing-research",))

#: The paper's five x two budgets x overlapped_decode x both machines.
CARTESIAN = SweepSpec(
    "cartesian", (Axis("instructions", (200, 400)),
                  Axis("overlapped_decode", (False, True)),
                  Axis("machine", ("vax780", "uvax78032"))),
    mode="cartesian", instructions=200, seed=1984,
    workloads=paper_workload_names())


def runs():
    return metrics.counter("explore.runs").value


def independent_records(sweep) -> list:
    """Each task's record from its own fresh ``simulate`` run."""
    out = []
    for entry in sweep.points:
        point = entry["point"]
        overrides = dict(point.overrides)
        out.append({
            workload: runner_module._record(
                simulate(get_workload(workload).profile,
                         point.instructions, point.seed,
                         machine=point.machine, overrides=overrides,
                         name=workload),
                workload, point.instructions, point.seed, overrides,
                machine=point.machine)
            for workload in sweep.spec.workloads})
    return out


class TestRecordEquality:
    def test_batch_records_equal_scalar_records(self):
        batch = run_sweep(FUSING, engine="batch")
        scalar = run_sweep(FUSING, jobs=1, engine="scalar")
        assert batch.stats["engine"] == "batch"
        assert scalar.stats["engine"] == "scalar"
        expected = independent_records(batch)
        for a, b, records in zip(scalar.points, batch.points, expected):
            assert a["label"] == b["label"]
            assert a["records"] == b["records"] == records
            assert a["composite"] == b["composite"]

    def test_batch_counts_simulations_and_fills_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        before, runs_before = runner_module.SIMULATIONS, runs()
        cold = run_sweep(FUSING, store=store, engine="batch")
        assert cold.stats["simulated"] == 3
        assert cold.stats["runs"] == 1
        assert runner_module.SIMULATIONS == before + 3
        assert runs() == runs_before + 1
        assert len(store) == 3
        # A rerun under another engine name is all cache hits.
        warm = run_sweep(FUSING, store=store, jobs=1, engine="scalar")
        assert warm.stats["simulated"] == 0
        for a, b in zip(cold.points, warm.points):
            assert a["records"] == b["records"]

    def test_cartesian_sweep_runs_once_per_cohort(self):
        before, runs_before = runner_module.SIMULATIONS, runs()
        sweep = run_sweep(CARTESIAN, jobs=1)
        assert runs() - runs_before == 20
        assert runner_module.SIMULATIONS - before == 40
        assert sweep.stats["simulated"] == 40
        assert sweep.stats["runs"] == 20
        expected = independent_records(sweep)
        for entry, records in zip(sweep.points, expected):
            assert entry["records"] == records


class TestAutoSelection:
    def test_auto_fuses_a_budget_axis(self):
        sweep = run_sweep(FUSING, engine="auto")
        assert sweep.stats["engine"] == "auto"
        assert sweep.stats["runs"] == 1

    def test_param_axis_runs_each_point(self):
        sweep = run_sweep(SPLITTING, jobs=1, engine="auto")
        assert sweep.stats["simulated"] == 2
        assert sweep.stats["runs"] == 2

    def test_auto_on_a_warm_store_runs_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_sweep(FUSING, store=store, engine="batch")
        before = runs()
        warm = run_sweep(FUSING, store=store, engine="auto")
        assert warm.stats["simulated"] == 0
        assert warm.stats["runs"] == 0
        assert runs() == before

    def test_unknown_engine_rejected_before_simulating(self):
        before = runner_module.SIMULATIONS
        with pytest.raises(ValueError, match="unknown engine 'warp'"):
            run_sweep(FUSING, engine="warp")
        assert runner_module.SIMULATIONS == before


class TestProgress:
    def test_progress_reports_fused_cohorts(self):
        lines = []
        run_sweep(FUSING, engine="batch", progress=lines.append)
        assert any("3/3 simulations (1 runs" in line for line in lines)
