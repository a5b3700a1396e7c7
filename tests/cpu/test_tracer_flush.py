"""The tracer's bulk replay keeps every value and every key order.

:meth:`repro.cpu.tracer.Tracer._flush` sums pending executions per
distinct key before it touches the Counters keyed by enums.  These
tests replay the same pending log one execution at a time, straight
from the decoded instructions, and require identical ordered
``.items()`` for every Counter and identical scalars — on a first
flush into empty Counters and on a later one into populated Counters.
"""

import cProfile
import pstats
from collections import Counter

import pytest

from repro.analysis.measurement import Measurement
from repro.cpu.machine import VAX780
from repro.osim.executive import Executive
from repro.workloads.profiles import TIMESHARING_RESEARCH

_COUNTERS = ("_opcode_counts", "_family_counts", "_group_counts",
             "_specifier_modes")
_SCALARS = ("_instruction_bytes", "_specifiers", "_indexed_specifiers",
            "_branch_displacements", "_branch_disp_bytes")


def _replay(tracer) -> dict:
    """Per-execution replay of the pending log onto copies of the
    tracer's Counters and scalars."""
    out = {name: Counter(getattr(tracer, name)) for name in _COUNTERS}
    out.update({name: getattr(tracer, name) for name in _SCALARS})
    for inst, n in tracer._pending.items():
        info = inst.info
        for _ in range(n):
            out["_opcode_counts"][info.mnemonic] += 1
            out["_family_counts"][info.family] += 1
            out["_group_counts"][info.group] += 1
            out["_instruction_bytes"] += inst.length
            for position, spec in enumerate(inst.specifiers):
                out["_specifier_modes"][
                    ("spec1" if position == 0 else "spec26",
                     spec.mode)] += 1
                out["_specifiers"] += 1
                out["_indexed_specifiers"] += spec.indexed
            if inst.branch_displacement is not None:
                out["_branch_displacements"] += 1
                out["_branch_disp_bytes"] += \
                    1 if info.branch_operand.dtype == "b" else 2
    return out


def _state(tracer) -> dict:
    out = {name: list(getattr(tracer, name).items()) for name in _COUNTERS}
    out.update({name: getattr(tracer, name) for name in _SCALARS})
    return out


@pytest.fixture(scope="module")
def executive():
    executive = Executive(VAX780(), TIMESHARING_RESEARCH, seed=21)
    executive.boot()
    return executive


def test_flushes_keep_values_and_key_order(executive):
    tracer = executive.machine.tracer
    for budget in (1500, 6000):
        executive.run(budget)
        assert tracer._pending
        expected = _replay(tracer)
        expected = {name: list(value.items()) if name in _COUNTERS
                    else value for name, value in expected.items()}
        tracer._flush()
        assert not tracer._pending
        assert _state(tracer) == expected


def test_capture_call_count():
    """cProfile calls in one capture of a 2,000-instruction run."""
    machine = VAX780()
    executive = Executive(machine, TIMESHARING_RESEARCH, seed=1984)
    executive.boot()
    executive.run(2000)
    profiler = cProfile.Profile()
    profiler.enable()
    Measurement.capture("timesharing-research", machine)
    profiler.disable()
    # 4,881 before the replay summed under string proxies.
    assert pstats.Stats(profiler).total_calls < 1000
