"""The generated-program memo: sharing, immutability, bit-identity.

:func:`repro.workloads.codegen.generated_programs` generates each
(profile, seed) program set once per process.  These tests pin that a
run from a warm memo is field-identical to a fresh one on every
supported (workload, machine) pair, that the shared programs cannot be
mutated, and — as exact, deterministic counts rather than wall time —
that a sweep generates only its distinct sets and that the bound holds
every pair the repository's sweeps keep in use without thrashing.
"""

import dataclasses
import hashlib

import pytest

from repro.explore import Axis, SweepSpec, run_sweep
from repro.machines.registry import MACHINES
from repro.obs import metrics
from repro.validate import check_measurement
from repro.workloads.codegen import (CODEGEN_CACHE_SETS, ProgramGenerator,
                                     generated_programs)
from repro.workloads.engine import simulate
from repro.workloads.profiles import TIMESHARING_RESEARCH
from repro.workloads.registry import WORKLOADS, paper_workload_names

INSTRUCTIONS = 300
SEED = 1984


def _supported_pairs():
    names = [name for name, spec in WORKLOADS.items()
             if spec.trace is None]
    return [(name, machine) for machine in MACHINES for name in names
            if WORKLOADS[name].supported_on(machine)]


def _fingerprint(measurement) -> dict:
    hist = measurement.histogram
    digest = hashlib.sha256()
    digest.update(hist.nonstalled.tobytes())
    digest.update(hist.stalled.tobytes())
    memory = measurement.memory
    return {"cycles": measurement.cycles,
            "histogram": digest.hexdigest(),
            "tracer": vars(measurement.tracer),
            "memory": {name: getattr(memory, name)
                       for name in memory.__slots__}}


@pytest.fixture(scope="module")
def two_passes():
    """Every supported pair simulated twice: cold memo, then warm."""
    pairs = _supported_pairs()
    generated_programs.cache_clear()
    passes = []
    for _ in range(2):
        before = generated_programs.cache_info()
        runs = {}
        for name, machine in pairs:
            runs[(name, machine)] = simulate(
                WORKLOADS[name].profile, INSTRUCTIONS, SEED,
                machine=machine)
        after = generated_programs.cache_info()
        passes.append((runs, after.hits - before.hits,
                       after.misses - before.misses))
    return pairs, passes


class TestSharedPrograms:
    def test_one_program_per_process_with_per_process_seed(self):
        programs = generated_programs(TIMESHARING_RESEARCH, 7)
        assert len(programs) == TIMESHARING_RESEARCH.processes
        for asid, program in enumerate(programs, start=1):
            fresh = ProgramGenerator(TIMESHARING_RESEARCH,
                                     seed=7 * 1000 + asid).generate()
            assert program == fresh

    def test_repeat_call_returns_the_same_objects(self):
        first = generated_programs(TIMESHARING_RESEARCH, 8)
        assert generated_programs(TIMESHARING_RESEARCH, 8) is first

    def test_bound_is_fixed(self):
        assert generated_programs.cache_info().maxsize \
            == CODEGEN_CACHE_SETS == 32

    def test_generated_program_is_frozen(self):
        program = generated_programs(TIMESHARING_RESEARCH, 9)[0]
        assert isinstance(program.subroutine_entries, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            program.code = b""
        with pytest.raises(dataclasses.FrozenInstanceError):
            program.subroutine_entries = ()

    def test_counters_report_hits_and_misses(self):
        generated_programs.cache_clear()
        hits = metrics.counter("osim.codegen_hits").value
        misses = metrics.counter("osim.codegen_misses").value
        simulate(TIMESHARING_RESEARCH, 50, 11)
        simulate(TIMESHARING_RESEARCH, 100, 11)
        assert metrics.counter("osim.codegen_misses").value == misses + 1
        assert metrics.counter("osim.codegen_hits").value == hits + 1


class TestCachedVersusFresh:
    def test_every_supported_pair_is_covered(self, two_passes):
        pairs, _ = two_passes
        assert len({name for name, _ in pairs}) == 13
        assert len(pairs) == 25 <= CODEGEN_CACHE_SETS

    def test_first_pass_generates_every_pair_fresh(self, two_passes):
        pairs, passes = two_passes
        _, hits, misses = passes[0]
        assert (hits, misses) == (0, len(pairs))

    def test_second_pass_has_no_misses(self, two_passes):
        pairs, passes = two_passes
        _, hits, misses = passes[1]
        assert (hits, misses) == (len(pairs), 0)

    def test_warm_runs_are_field_identical(self, two_passes):
        pairs, passes = two_passes
        (cold, _, _), (warm, _, _) = passes
        for pair in pairs:
            assert _fingerprint(warm[pair]) == _fingerprint(cold[pair]), \
                pair

    def test_warm_runs_keep_every_conservation_law(self, two_passes):
        pairs, passes = two_passes
        warm = passes[1][0]
        for name, machine in pairs:
            report = check_measurement(warm[(name, machine)],
                                       machine=machine)
            assert not report.failures(), (name, machine)


class TestSweepGeneratesDistinctSetsOnce:
    def test_budget_and_params_points_share_programs(self):
        spec = SweepSpec(
            name="codegen-cache", mode="cartesian",
            axes=(Axis("instructions", (200, 400)),
                  Axis("overlapped_decode", (True, False)),
                  Axis("machine", ("vax780", "uvax78032"))),
            instructions=200, seed=SEED,
            workloads=paper_workload_names())
        generated_programs.cache_clear()
        result = run_sweep(spec, store=None, jobs=1)
        assert result.stats["simulated"] == 40
        # Budgets fuse: 20 runs (so 20 constructions) over 10 sets.
        assert result.stats["runs"] == 20
        info = generated_programs.cache_info()
        assert (info.misses, info.hits) == (10, 10)

