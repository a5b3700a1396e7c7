"""Multi-capture <-> independent-run bit-identity: the load-bearing
contract behind every budget-only fusion.

Every observable a Measurement carries — cycle count, both histogram
count sets bucket by bucket, every tracer scalar and counter, every
memory-subsystem statistic — must be equal bit for bit between a
capture of one run at several budgets and an independent run of the
same (workload, budget, seed, machine).  That includes the failure
modes: a budget that hits the cycle limit or a halted machine must
reproduce the independent run's exact RuntimeError message.  Every
case runs on both machines.
"""

from dataclasses import replace

import pytest

from repro.analysis.measurement import composite
from repro.batch import LaneSpec, run_lanes
from repro.cpu.machine import VAX780
from repro.osim.executive import HALTED
from repro.validate.differential import _MEMORY_FIELDS
from repro.workloads.engine import simulate
from repro.workloads.profiles import STANDARD_PROFILES, \
    TIMESHARING_RESEARCH

PREFIX = 400
BUDGET = 800
MACHINES = ("vax780", "uvax78032")

#: Single blocked process + fast clock: the scheduler lands on the null
#: process and the measurement gate actually closes mid-run.
GATED = replace(TIMESHARING_RESEARCH, name="gated-mix",
                description="gating stress", processes=1,
                syscall_density=0.5, blocking_syscall_fraction=1.0,
                clock_period_cycles=1500, io_block_cycles=6000)

#: Same shape with a block so long the 400-cycles-per-instruction
#: budget cannot cover it: an independent run raises the cycle-limit
#: error at budget 1900 (seed 3) but completes 1600 clean.
LIMITED = replace(GATED, name="limited-mix",
                  description="cycle-limit stress",
                  clock_period_cycles=1000, io_block_cycles=1_000_000)

def assert_identical(fused, independent) -> None:
    """Field-for-field equality over everything a Measurement holds."""
    assert fused.name == independent.name
    assert fused.cycles == independent.cycles
    assert list(fused.histogram.nonstalled) == \
        list(independent.histogram.nonstalled)
    assert list(fused.histogram.stalled) == \
        list(independent.histogram.stalled)
    for name in independent.tracer._SCALARS + \
            independent.tracer._COUNTERS:
        assert getattr(fused.tracer, name) == \
            getattr(independent.tracer, name), f"tracer.{name}"
    for name in _MEMORY_FIELDS:
        assert getattr(fused.memory, name) == \
            getattr(independent.memory, name), f"memory.{name}"


def independent_error(profile, instructions, seed, machine) -> str:
    with pytest.raises(RuntimeError) as exc:
        simulate(profile, instructions, seed, machine=machine)
    return str(exc.value)


def fused_five(machine):
    """All five workloads, two fused budgets each, one run per workload."""
    lanes = []
    for profile in STANDARD_PROFILES:
        lanes.append(LaneSpec(profile.name, PREFIX, 1984, machine=machine))
        lanes.append(LaneSpec(profile.name, BUDGET, 1984, machine=machine))
    return {(r.spec.workload, r.spec.instructions): r.measurement
            for r in run_lanes(lanes)}


@pytest.fixture(scope="module")
def five_workload_batch():
    return fused_five("vax780")


@pytest.fixture(scope="module")
def five_workload_batch_uvax():
    return fused_five("uvax78032")


five = pytest.mark.parametrize("profile", STANDARD_PROFILES,
                               ids=lambda p: p.name)
targets = pytest.mark.parametrize("target", (PREFIX, BUDGET))


class TestFiveWorkloads:
    @five
    @targets
    def test_lane_matches_scalar_run(self, five_workload_batch,
                                     profile, target):
        assert_identical(five_workload_batch[(profile.name, target)],
                         simulate(profile, target, 1984))

    @five
    @targets
    def test_lane_matches_scalar_run_on_uvax(self,
                                             five_workload_batch_uvax,
                                             profile, target):
        assert_identical(five_workload_batch_uvax[(profile.name, target)],
                         simulate(profile, target, 1984,
                                  machine="uvax78032"))


class TestExecutiveRun:
    @pytest.mark.parametrize("machine", MACHINES)
    def test_tuple_budgets_return_one_capture_each(self, machine):
        fused = simulate(TIMESHARING_RESEARCH, (200, 500, 700), 9,
                         machine=machine)
        assert len(fused) == 3
        for budget, measurement in zip((200, 500, 700), fused):
            assert_identical(measurement,
                             simulate(TIMESHARING_RESEARCH, budget, 9,
                                      machine=machine))

    @pytest.mark.parametrize("budgets", [(), (300, 300), (500, 200),
                                         (0, 10)])
    def test_budgets_must_ascend_strictly(self, budgets):
        with pytest.raises(ValueError, match="ascending"):
            simulate(TIMESHARING_RESEARCH, budgets, 9)


class TestComposite:
    def test_batched_standard_runs_compose_identically(self,
                                                       machine="vax780"):
        lanes = [LaneSpec(p.name, n, 7, machine=machine)
                 for p in STANDARD_PROFILES for n in (300, 600)]
        fused = {(r.spec.workload, r.spec.instructions): r.measurement
                 for r in run_lanes(lanes)}
        ours = composite([fused[(p.name, 600)]
                          for p in STANDARD_PROFILES])
        theirs = composite([simulate(p, 600, 7, machine=machine)
                            for p in STANDARD_PROFILES])
        assert ours.cycles == theirs.cycles
        assert list(ours.histogram.nonstalled) == \
            list(theirs.histogram.nonstalled)
        assert list(ours.histogram.stalled) == \
            list(theirs.histogram.stalled)

    def test_batched_standard_runs_compose_identically_on_uvax(self):
        self.test_batched_standard_runs_compose_identically("uvax78032")

    def test_engine_facade_memoises_batch_results(self):
        from repro.workloads import engine

        batch = engine.run_standard_experiments(
            instructions=500, seed=11, engine="batch")
        for profile in STANDARD_PROFILES:
            assert engine._CACHE[(profile.name, 500, 11, "vax780")] is \
                batch[profile.name]
            assert_identical(batch[profile.name],
                             simulate(profile, 500, 11))


class TestGatedLane:
    def test_gated_run_is_bit_identical(self, machine="vax780"):
        independent = simulate(GATED, 3000, 3, machine=machine)
        # The profile earns its keep: the gate really closed.
        assert independent.tracer.gated_off_cycles > 0
        results = run_lanes([LaneSpec(GATED.name, 1500, 3,
                                      machine=machine),
                             LaneSpec(GATED.name, 3000, 3,
                                      machine=machine)],
                            profiles=[GATED])
        assert_identical(results[0].measurement,
                         simulate(GATED, 1500, 3, machine=machine))
        assert_identical(results[1].measurement, independent)

    def test_gated_run_is_bit_identical_on_uvax(self):
        self.test_gated_run_is_bit_identical("uvax78032")


class TestErrorIdentity:
    def test_cycle_limited_lane_reproduces_scalar_error(
            self, machine="vax780", budgets=(1600, 1900, 4000)):
        """The first budget captures, the second hits its limit, and the
        run goes on to 4000, which fails later (more instructions in)
        against its own limit — each exactly as its independent run
        does."""
        results = run_lanes([LaneSpec(LIMITED.name, n, 3,
                                      machine=machine)
                             for n in budgets],
                            profiles=[LIMITED], strict=False)
        assert results[0].ok
        assert_identical(results[0].measurement,
                         simulate(LIMITED, budgets[0], 3,
                                  machine=machine))
        for budget, result in zip(budgets[1:], results[1:]):
            expected = independent_error(LIMITED, budget, 3, machine)
            assert expected.startswith("cycle limit hit")
            assert result.error == expected
            assert result.measurement is None
            assert not result.ok
        assert results[1].error != results[2].error

    def test_cycle_limited_lane_reproduces_scalar_error_on_uvax(self):
        # The 78032 reaches the fatal block sooner (at 1166 measured).
        self.test_cycle_limited_lane_reproduces_scalar_error(
            "uvax78032", (1100, 1200, 4000))

    def test_strict_mode_raises_the_lane_error(self, machine="vax780"):
        lanes = [LaneSpec(LIMITED.name, 1900, 3, machine=machine)]
        with pytest.raises(RuntimeError, match="cycle limit hit"):
            run_lanes(lanes, profiles=[LIMITED])

    def test_strict_mode_raises_the_lane_error_on_uvax(self):
        self.test_strict_mode_raises_the_lane_error("uvax78032")

    def test_halted_machine_fails_all_remaining_lanes(self, monkeypatch,
                                                       machine="vax780"):
        from repro.machines.registry import get_machine

        real_step = VAX780.step

        def step(self):
            real_step(self)
            if self.tracer.instructions >= 150:
                self.halted = True

        cls = type(get_machine(machine).build())
        monkeypatch.setattr(cls, "step", step)
        name = TIMESHARING_RESEARCH.name
        lanes = [LaneSpec(name, 100, 1984, machine=machine),
                 LaneSpec(name, 300, 1984, machine=machine),
                 LaneSpec(name, 500, 1984, machine=machine)]
        results = run_lanes(lanes, strict=False)
        assert results[0].ok
        assert results[1].error == HALTED
        assert results[2].error == HALTED
        # An independent run says the same thing under the same halt.
        assert independent_error(TIMESHARING_RESEARCH, 300, 1984,
                                 machine) == HALTED

    def test_halted_machine_fails_all_remaining_lanes_on_uvax(
            self, monkeypatch):
        self.test_halted_machine_fails_all_remaining_lanes(monkeypatch,
                                                           "uvax78032")
