"""Lazy program loading: each process's program arrives on first dispatch.

The executive builds frames, page tables and PCBs eagerly and copies a
process's program in on the first LDPCTX to it.  These tests pin that
this is invisible to every measurement (a run with every program forced
in before boot is field-identical, on every supported pair), that a
short run leaves the processes it never dispatched untouched, that the
layout the executive maps from agrees with the generator's, and that
the bulk page-table and image writes lay memory out byte for byte as a
page-at-a-time build does.
"""

import hashlib

import pytest

from repro.analysis.measurement import Measurement
from repro.cpu.machine import VAX780
from repro.machines.registry import MACHINES, get_machine
from repro.osim.executive import FRAMES_PA, PTBL_PA, Executive
from repro.vm.address import P0, P1, P1_BASE, PAGE_SHIFT, S0_BASE
from repro.vm.pagetable import PFN_MASK
from repro.workloads import codegen
from repro.workloads.codegen import (ProgramGenerator, generated_program,
                                     program_layout)
from repro.workloads.profiles import TIMESHARING_RESEARCH
from repro.workloads.registry import WORKLOADS

SEED = 1984
#: Lazy runs step in these increments until every process has loaded.
STEP = 2500


def _supported_pairs():
    return [(name, machine) for machine in MACHINES
            for name, spec in WORKLOADS.items()
            if spec.trace is None and spec.supported_on(machine)]


def _fingerprint(measurement) -> dict:
    """Every field of a Measurement, Counter key order included."""
    hist = measurement.histogram
    digest = hashlib.sha256()
    digest.update(hist.nonstalled.tobytes())
    digest.update(hist.stalled.tobytes())
    tracer = {name: list(value.items()) if hasattr(value, "items")
              else value for name, value in vars(measurement.tracer).items()}
    memory = measurement.memory
    return {"cycles": measurement.cycles,
            "histogram": digest.hexdigest(),
            "tracer": tracer,
            "memory": {name: getattr(memory, name)
                       for name in memory.__slots__}}


def _executive(name, machine, eager=False):
    spec = get_machine(machine)
    executive = Executive(spec.build(),
                          spec.adapt_profile(WORKLOADS[name].profile),
                          seed=SEED)
    if eager:
        executive.load_programs()
    executive.boot()
    return executive


@pytest.mark.parametrize("name,machine", _supported_pairs())
def test_forced_eager_run_is_field_identical(name, machine):
    lazy = _executive(name, machine)
    captures = lazy.run((300, 2000))
    budget = 2000
    while lazy._unloaded:
        budget += STEP
        lazy.run(budget)
    captures.append(Measurement.capture(name, lazy.machine))

    eager = _executive(name, machine, eager=True)
    assert not eager._unloaded
    expected = eager.run((300, 2000, budget))
    for got, want in zip(captures, expected):
        assert _fingerprint(got) == _fingerprint(want)


def _region_bytes(machine, table) -> bytes:
    """The physical bytes behind a region (its frames are contiguous)."""
    pte = machine.mem.debug_read(table.base_pa, 4)
    return machine.mem.memory.read_block(
        (pte & PFN_MASK) << PAGE_SHIFT, table.length << PAGE_SHIFT)


def test_undispatched_processes_stay_empty():
    generated_program.cache_clear()
    machine = VAX780()
    executive = Executive(machine, TIMESHARING_RESEARCH, seed=SEED)
    executive.boot()
    executive.run(500)
    assert generated_program.cache_info().misses == 1

    ran = [process for process in executive.processes
           if process.pcb_base not in executive._unloaded]
    assert len(ran) == 1
    for process in executive.processes:
        p0 = _region_bytes(machine, process.space.regions[P0])
        p1 = _region_bytes(machine, process.space.regions[P1])
        if process in ran:
            program = generated_program(TIMESHARING_RESEARCH, SEED,
                                        process.asid)
            start = program.code_base
            assert p0[start:start + len(program.code)] == program.code
        else:
            assert not any(p0) and not any(p1), process.name


@pytest.mark.parametrize("name,machine", _supported_pairs())
def test_layout_agrees_with_the_generator(name, machine):
    profile = get_machine(machine).adapt_profile(WORKLOADS[name].profile)
    layout = program_layout(profile)
    program = ProgramGenerator(profile, seed=SEED).generate()
    assert (layout.code_base, layout.data_base, layout.string_base,
            layout.entry) == (program.code_base, program.data_base,
                              program.string_base, program.entry)
    p0_bytes = layout.p0_pages << PAGE_SHIFT
    for base, image in ((program.code_base, program.code),
                        (program.data_base, program.data_init),
                        (program.string_base, program.string_init)):
        assert base + len(image) <= p0_bytes


def _per_page_rebuild(executive) -> bytes:
    """The executive's memory, its page tables and user frames rebuilt
    one page at a time through ``map_page``, programs copied in page by
    page through the translator."""
    machine = VAX780()
    memory = machine.mem.memory
    memory.load_image(0, executive.machine.mem.memory.read_block(
        0, PTBL_PA))
    translator = machine.translator
    for page in range(machine.s0_table.length):
        translator.map_page(S0_BASE + (page << PAGE_SHIFT), page)
    frame = FRAMES_PA >> PAGE_SHIFT
    for process in executive.processes:
        translator.set_space(process.space)
        for base, region in ((0, P0), (P1_BASE, P1)):
            for page in range(process.space.regions[region].length):
                translator.map_page(base + (page << PAGE_SHIFT), frame)
                frame += 1
        program = generated_program(executive.profile, executive.seed,
                                    process.asid)
        for va, image in ((program.code_base, program.code),
                          (program.data_base, program.data_init),
                          (program.string_base, program.string_init)):
            for offset in range(0, len(image), 1 << PAGE_SHIFT):
                memory.load_image(translator.translate(va + offset),
                                  image[offset:offset + (1 << PAGE_SHIFT)])
    return memory.read_block(0, memory.size)


@pytest.mark.parametrize("name", ["timesharing-research", "tb-thrash"])
def test_bulk_build_matches_a_per_page_build(name):
    machine = VAX780()
    executive = Executive(machine, WORKLOADS[name].profile, seed=SEED)
    executive.load_programs()
    memory = machine.mem.memory
    assert memory.read_block(0, memory.size) \
        == _per_page_rebuild(executive)


def test_generation_error_surfaces_from_the_run(monkeypatch):
    def broken(self):
        raise AssertionError("subroutine overflow: 2000 > 1792")

    generated_program.cache_clear()
    monkeypatch.setattr(codegen.ProgramGenerator, "generate", broken)
    executive = Executive(VAX780(), TIMESHARING_RESEARCH, seed=SEED)
    executive.boot()
    with pytest.raises(AssertionError, match="subroutine overflow"):
        executive.run(500)
    generated_program.cache_clear()


def test_all_loaded_restores_the_machine_hook():
    machine = VAX780()
    switch = machine.ebox.ldpctx_hook
    executive = Executive(machine, TIMESHARING_RESEARCH, seed=SEED)
    assert machine.ebox.ldpctx_hook != switch
    executive.load_programs()
    assert machine.ebox.ldpctx_hook == switch
