"""The generated-program memo: sharing, immutability, bit-identity.

:func:`repro.workloads.codegen.generated_program` generates each
process's program once per (profile, seed, asid), and the executive
asks for it only when LDPCTX first switches to that process.  These
tests pin that a run from a warm memo is field-identical to a fresh
one on every supported (workload, machine) pair, that the shared
programs cannot be mutated, and — as exact, deterministic counts
rather than wall time — that a run generates only the programs it
dispatches, each once, and that the bound holds every program the
repository's sweeps keep in use without thrashing.
"""

import dataclasses
import hashlib
import importlib.util
from pathlib import Path

import pytest

from repro.explore import Axis, SweepSpec, run_sweep
from repro.machines.registry import MACHINES, get_machine
from repro.obs import metrics
from repro.osim.executive import Executive
from repro.validate import check_measurement
from repro.workloads.codegen import (CODEGEN_CACHE_PROGRAMS,
                                     ProgramGenerator, generated_program)
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


@pytest.fixture
def loads(monkeypatch):
    """Every program load, as (profile, seed, asid), in order."""
    seen = []
    load = Executive._load_program

    def recording(self, asid, p0_pa):
        seen.append((self.profile, self.seed, asid))
        return load(self, asid, p0_pa)

    monkeypatch.setattr(Executive, "_load_program", recording)
    return seen


@pytest.fixture(scope="module")
def two_passes():
    """Every supported pair simulated twice: cold memo, then warm.

    Each pass records its memo hits and misses and, per pair, the
    asids of the programs its run loaded.
    """
    pairs = _supported_pairs()
    generated_program.cache_clear()
    load = Executive._load_program
    loaded = []

    def recording(self, asid, p0_pa):
        loaded.append(asid)
        return load(self, asid, p0_pa)

    passes = []
    Executive._load_program = recording
    try:
        for _ in range(2):
            before = generated_program.cache_info()
            runs, asids = {}, {}
            for name, machine in pairs:
                loaded.clear()
                runs[(name, machine)] = simulate(
                    WORKLOADS[name].profile, INSTRUCTIONS, SEED,
                    machine=machine)
                asids[(name, machine)] = tuple(loaded)
            after = generated_program.cache_info()
            passes.append((runs, after.hits - before.hits,
                           after.misses - before.misses, asids))
    finally:
        Executive._load_program = load
    return pairs, passes


class TestSharedPrograms:
    def test_one_program_per_process_with_per_process_seed(self):
        for asid in range(1, TIMESHARING_RESEARCH.processes + 1):
            fresh = ProgramGenerator(TIMESHARING_RESEARCH,
                                     seed=7 * 1000 + asid).generate()
            assert generated_program(TIMESHARING_RESEARCH, 7, asid) \
                == fresh

    def test_repeat_call_returns_the_same_objects(self):
        first = generated_program(TIMESHARING_RESEARCH, 8, 1)
        assert generated_program(TIMESHARING_RESEARCH, 8, 1) is first

    def test_bound_is_fixed(self):
        assert generated_program.cache_info().maxsize \
            == CODEGEN_CACHE_PROGRAMS == 256

    def test_generated_program_is_frozen(self):
        program = generated_program(TIMESHARING_RESEARCH, 9, 1)
        assert isinstance(program.subroutine_entries, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            program.code = b""
        with pytest.raises(dataclasses.FrozenInstanceError):
            program.subroutine_entries = ()

    def test_counters_report_hits_and_misses(self, loads):
        generated_program.cache_clear()
        hits = metrics.counter("osim.codegen_hits").value
        misses = metrics.counter("osim.codegen_misses").value
        simulate(TIMESHARING_RESEARCH, 50, 11)
        first = len(loads)
        simulate(TIMESHARING_RESEARCH, 100, 11)
        # One count per program loaded: the first run generates what
        # it dispatches; the second, a longer run of the same system,
        # recalls those and generates the rest.
        assert first >= 1
        assert metrics.counter("osim.codegen_misses").value \
            == misses + len(set(loads))
        assert metrics.counter("osim.codegen_hits").value \
            == hits + first


class TestCachedVersusFresh:
    def test_every_supported_pair_is_covered(self, two_passes):
        pairs, _ = two_passes
        assert len({name for name, _ in pairs}) == 13
        assert len(pairs) == 25
        # At a budget where every process dispatches, all of them fit.
        programs = sum(get_machine(machine).adapt_profile(
            WORKLOADS[name].profile).processes for name, machine in pairs)
        assert programs == 192 <= CODEGEN_CACHE_PROGRAMS

    def test_first_pass_generates_every_pair_fresh(self, two_passes):
        pairs, passes = two_passes
        _, hits, misses, asids = passes[0]
        # Every pair dispatches at least one process and loads each
        # program once; every load is a miss.
        for pair in pairs:
            assert asids[pair], pair
            assert len(set(asids[pair])) == len(asids[pair]), pair
        assert (hits, misses) == (0, sum(map(len, asids.values())))

    def test_second_pass_has_no_misses(self, two_passes):
        pairs, passes = two_passes
        _, hits, misses, asids = passes[1]
        assert asids == passes[0][3]
        assert (hits, misses) == (sum(map(len, asids.values())), 0)

    def test_warm_runs_are_field_identical(self, two_passes):
        pairs, passes = two_passes
        cold, warm = passes[0][0], passes[1][0]
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
    def test_budget_and_params_points_share_programs(self, loads):
        spec = SweepSpec(
            name="codegen-cache", mode="cartesian",
            axes=(Axis("instructions", (200, 400)),
                  Axis("overlapped_decode", (True, False)),
                  Axis("machine", ("vax780", "uvax78032"))),
            instructions=200, seed=SEED,
            workloads=paper_workload_names())
        generated_program.cache_clear()
        result = run_sweep(spec, store=None, jobs=1)
        assert result.stats["simulated"] == 40
        # Budgets fuse: 20 runs (so 20 constructions) over 10
        # (profile, seed) pairs.  overlapped_decode is a machine param,
        # so both of a pair's runs load the same programs: the first
        # generates each, the second recalls it.
        assert result.stats["runs"] == 20
        distinct = set(loads)
        assert len({(profile, seed) for profile, seed, _ in distinct}) \
            == 10
        assert len(loads) == 2 * len(distinct)
        info = generated_program.cache_info()
        assert (info.misses, info.hits) == (len(distinct), len(distinct))


class TestColdBench:
    def test_perf_bench_cold_clears_the_program_memo(self):
        path = Path(__file__).parents[2] / "tools" / "perf_bench.py"
        spec = importlib.util.spec_from_file_location("perf_bench", path)
        perf_bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(perf_bench)
        generated_program(TIMESHARING_RESEARCH, 12, 1)
        assert generated_program.cache_info().currsize > 0
        perf_bench._cold()
        assert generated_program.cache_info().currsize == 0
