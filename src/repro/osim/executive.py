"""The executive: builds a bootable system around a workload profile.

An :class:`Executive` lays out physical memory (SCB, kernel code and data,
kernel stacks, PCBs, page tables, user frames), generates the kernel,
installs devices and scheduler hooks, boots through the kernel's own VAX
boot sequence, and runs a measurement window, read at one or more
instruction budgets.  Everything whose layout depends only on the
profile is built eagerly; each process's user program is generated
(:func:`~repro.workloads.codegen.generated_program`, memoised per
process) and copied in the first time LDPCTX switches to it, so a short
run builds only the programs it dispatches.

Physical layout (all below the S0 page table at the top of memory)::

    0x08000  kernel data (queues, scalars)          [identity S0]
    0x10000  kernel code                            [identity S0]
    0x20000  SCB (vector table)
    0x28000  kernel stacks, one page per process    [identity S0]
    0x38000  PCBs, 256 bytes each
    0x40000  process page tables (P0 + P1 per process)
    0x100000 user page frames (bump-allocated)
"""

from __future__ import annotations

import struct

from repro.analysis.measurement import Measurement
from repro.arch.registers import KERNEL, SP, USER
from repro.cpu.machine import (SCB_CHMK, SCB_CLOCK, SCB_PAGE_FAULT,
                               SCB_SOFTWARE_BASE, SCB_TERMINAL, VAX780)
from repro.cpu.executors.system import (PCB_AP, PCB_FP, PCB_KSP, PCB_PC,
                                        PCB_PSL, PCB_USP)
from repro.obs import metrics
from repro.osim import kernelgen
from repro.osim.devices import IntervalClock, TerminalMux
from repro.osim.kernelgen import (KDATA_VA, PR_BLOCK, PR_NEXTPCB,
                                  PR_QUANTUM, PR_TTYAST, SOFTINT_AST,
                                  SOFTINT_RESCHED, build_kernel,
                                  initial_kernel_data)
from repro.osim.process import Process
from repro.osim.scheduler import Scheduler
from repro.vm.address import P1_BASE, PAGE_SHIFT, S0_BASE
from repro.vm.pagetable import (AddressSpace, RegionTable,
                                TranslationNotMapped, pte_run)
from repro.workloads.codegen import generated_program, program_layout
from repro.workloads.profiles import MixProfile

_WORD = 0xFFFFFFFF

#: A halted machine's failure message, for every budget it leaves.
HALTED = "machine halted during workload run"

# physical layout constants
KDATA_PA = 0x8000
KCODE_PA = 0x10000
SCB_PA = 0x20000
KSTACK_PA = 0x28000
PCB_PA = 0x38000
PTBL_PA = 0x40000
FRAMES_PA = 0x100000

#: bytes reserved per process page-table slot (P0 then P1).
PTBL_SLOT = 0x4000
P1_TABLE_OFFSET = 0x3000
#: user stack: 32 pages at the bottom of P1.
USER_STACK_PAGES = 32


class Executive:
    """A booted VMS-like system running one workload profile."""

    def __init__(self, machine: VAX780, profile: MixProfile,
                 seed: int = 1984) -> None:
        self.machine = machine
        self.profile = profile
        self.seed = seed
        self.processes = []
        self._frame_cursor = FRAMES_PA >> PAGE_SHIFT
        #: PCB base -> (asid, P0 physical base) of processes whose
        #: program is not loaded yet.
        self._unloaded = {}

        machine.map_s0_identity()
        self._load_kernel()
        self._build_null_process()
        self.scheduler = Scheduler(
            machine, self.null_process,
            quantum_ticks=profile.quantum_ticks,
            io_block_cycles=profile.io_block_cycles,
            seed=seed + 17)
        self._install_hooks()
        self._build_processes()
        self._install_devices()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _load_kernel(self) -> None:
        m = self.machine
        self.kernel = build_kernel(scb_pa=SCB_PA, seed=self.seed)
        m.mem.load_image(KCODE_PA, self.kernel.code)
        m.mem.load_image(KDATA_PA, initial_kernel_data(self.seed + 1))
        # SCB vectors.
        handlers = self.kernel.handlers
        for offset, name in (
                (SCB_PAGE_FAULT, "page_fault"),
                (SCB_CHMK, "chmk"),
                (SCB_CLOCK, "clock"),
                (SCB_TERMINAL, "terminal"),
                (SCB_SOFTWARE_BASE + 4 * SOFTINT_AST, "ast"),
                (SCB_SOFTWARE_BASE + 4 * SOFTINT_RESCHED, "resched")):
            m.mem.debug_write(SCB_PA + offset, handlers[name], 4)

    def _build_null_process(self) -> None:
        m = self.machine
        pcb = PCB_PA  # slot 0
        kstack_top = S0_BASE + KSTACK_PA + 0xF00
        space = AddressSpace(asid=0, p0=RegionTable(PTBL_PA, 0),
                             p1=RegionTable(PTBL_PA + P1_TABLE_OFFSET, 0))
        self.null_process = Process("null", 0, space, pcb, kstack_top)
        self.null_process.is_null = True
        self._init_pcb(pcb, registers={}, pc=self.kernel.null_entry,
                       psl_mode=KERNEL, usp=0, ksp=kstack_top)
        m.register_address_space(pcb, space)

    def _build_processes(self) -> None:
        layout = program_layout(self.profile)
        for asid in range(1, self.profile.processes + 1):
            self._build_process(asid, layout)
        # Wrap LDPCTX: the first switch to a process loads its program.
        self._switch_space = self.machine.ebox.ldpctx_hook
        self.machine.ebox.ldpctx_hook = self._ldpctx

    def _map_region(self, table: RegionTable) -> int:
        """Map ``table`` onto fresh frames; the first frame's address.

        Frames are bump-allocated, so a region's are contiguous and one
        PTE image maps it.
        """
        first = self._frame_cursor
        self._frame_cursor += table.length
        if self._frame_cursor > self.machine.s0_table_pa >> PAGE_SHIFT:
            raise MemoryError("out of user page frames")
        self.machine.mem.load_image(table.base_pa,
                                    pte_run(first, table.length))
        return first << PAGE_SHIFT

    def _build_process(self, asid: int, layout) -> None:
        m = self.machine
        p0_table = RegionTable(PTBL_PA + asid * PTBL_SLOT, layout.p0_pages)
        p1_table = RegionTable(p0_table.base_pa + P1_TABLE_OFFSET,
                               USER_STACK_PAGES)
        space = AddressSpace(asid=asid, p0=p0_table, p1=p1_table)
        p0_pa = self._map_region(p0_table)
        self._map_region(p1_table)

        pcb = PCB_PA + 0x100 * asid
        kstack_top = S0_BASE + KSTACK_PA + 0x1000 * asid + 0xF00
        usp = P1_BASE + (USER_STACK_PAGES << PAGE_SHIFT) - 64
        self._init_pcb(
            pcb,
            registers={10: layout.string_base, 11: layout.data_base,
                       PCB_AP: usp, PCB_FP: usp},
            pc=layout.entry, psl_mode=USER, usp=usp, ksp=kstack_top)
        m.register_address_space(pcb, space)
        self._unloaded[pcb] = (asid, p0_pa)

        process = Process(f"{self.profile.name}-p{asid}", asid, space,
                          pcb, kstack_top)
        self.processes.append(process)
        self.scheduler.add_process(process)

    def _ldpctx(self, pcb_base: int) -> None:
        """LDPCTX's hook: load the program on the first switch to it."""
        pending = self._unloaded.pop(pcb_base, None)
        if pending is not None:
            self._load_program(*pending)
            if not self._unloaded:
                self.machine.ebox.ldpctx_hook = self._switch_space
        self._switch_space(pcb_base)

    def load_programs(self) -> None:
        """Load every process's program now (untimed), as LDPCTX would."""
        for asid, p0_pa in self._unloaded.values():
            self._load_program(asid, p0_pa)
        self._unloaded.clear()
        self.machine.ebox.ldpctx_hook = self._switch_space

    def _load_program(self, asid: int, p0_pa: int) -> None:
        """Generate (or recall) process ``asid``'s program; copy it in.

        Untimed: the images go straight to physical memory through the
        region's contiguous frames, touching no cache or counter.
        """
        misses = generated_program.cache_info().misses
        program = generated_program(self.profile, self.seed, asid)
        hit = generated_program.cache_info().misses == misses
        metrics.counter("osim.codegen_hits" if hit
                        else "osim.codegen_misses").inc()
        p0_end = program_layout(self.profile).p0_pages << PAGE_SHIFT
        for va, image in ((program.code_base, program.code),
                          (program.data_base, program.data_init),
                          (program.string_base, program.string_init)):
            if va + len(image) > p0_end:
                raise TranslationNotMapped(p0_end)
            self.machine.mem.load_image(p0_pa + va, image)

    def _init_pcb(self, pcb_pa: int, registers: dict, pc: int,
                  psl_mode: int, usp: int, ksp: int) -> None:
        m = self.machine
        image = [0] * 18
        for reg, value in registers.items():
            image[reg] = value
        image[PCB_USP] = usp
        image[PCB_PC] = pc
        image[PCB_PSL] = (psl_mode & 3) << 24
        image[PCB_KSP] = ksp
        for i, value in enumerate(image):
            m.mem.debug_write(pcb_pa + 4 * i, value & _WORD, 4)

    def _install_hooks(self) -> None:
        m = self.machine
        sched = self.scheduler
        m.pr_mfpr_hooks[PR_NEXTPCB] = sched.next_pcb
        m.pr_mfpr_hooks[PR_QUANTUM] = sched.quantum_expired
        m.pr_mfpr_hooks[PR_TTYAST] = sched.tty_ast_due
        m.pr_mtpr_hooks[PR_BLOCK] = sched.block_current

    def _install_devices(self) -> None:
        m = self.machine
        self.clock = IntervalClock(self.profile.clock_period_cycles,
                                   SCB_CLOCK)
        self.terminal = TerminalMux(self.profile.terminal_period_cycles,
                                    SCB_TERMINAL, seed=self.seed + 9)
        m.devices.append(self.clock)
        m.devices.append(self.terminal)

    # ------------------------------------------------------------------
    # boot and run
    # ------------------------------------------------------------------

    def boot(self) -> None:
        """Point the machine at the kernel's boot sequence."""
        m = self.machine
        e = m.ebox
        e.psl.current_mode = KERNEL
        e.psl.ipl = 31
        boot_stack = S0_BASE + KSTACK_PA + 0xFF0
        e.registers[SP] = boot_stack
        e.mode_sps[KERNEL] = boot_stack
        # The boot REI needs a PC/PSL pair; the LDPCTX before it pushes
        # the first process's.  Boot runs with interrupts masked.
        e.pc = self.kernel.boot_entry
        e.ib.flush(e.pc)

    def run(self, budgets, cycle_limit: int = None, name: str = None):
        """Run the measurement window to one budget, or capture at many.

        ``budgets`` is one measured-instruction budget, or an ascending
        tuple of them.  An int runs to that budget, raising the
        :class:`RuntimeError` of a failed run, and leaves the capture to
        the caller, as a single measurement always has.  A tuple reads
        the board passively as each boundary goes by
        (:meth:`~repro.analysis.measurement.Measurement.capture` only
        settles the gate and copies counts) and returns one entry per
        budget, labelled ``name`` (default: the profile's): bit for bit
        the Measurement an independent run at that budget would have
        captured, or the RuntimeError it would have raised.

        Each boundary fails exactly as its independent run would: the
        halted check precedes the cycle-limit check, and the limit is
        ``cycle_limit`` or 400 cycles per instruction of the budget
        being approached.  A halt fails every remaining budget (it
        persists); a cycle-limit failure fails only that budget, and
        the run goes on toward the next one.
        """
        if isinstance(budgets, int):
            error = self._run_to(budgets, budgets * 400
                                 if cycle_limit is None else cycle_limit)
            if error is not None:
                raise RuntimeError(error)
            return None
        targets = tuple(budgets)
        if not targets or targets[0] < 1 \
                or any(a >= b for a, b in zip(targets, targets[1:])):
            raise ValueError(f"budgets must be positive and strictly "
                             f"ascending, got {budgets!r}")
        label = self.profile.name if name is None else name
        last = len(targets) - 1
        results = []
        for index, budget in enumerate(targets):
            error = self._run_to(budget, budget * 400
                                 if cycle_limit is None else cycle_limit)
            if error is None:
                results.append(self._capture(label, index < last))
            elif error == HALTED:
                results += [RuntimeError(HALTED)
                            for _ in targets[index:]]
                break
            else:
                results.append(RuntimeError(error))
        return results

    def _run_to(self, budget: int, cycle_limit: int):
        """Step until the tracer has seen ``budget``; the error or None."""
        m = self.machine
        tracer = m.tracer
        ebox = m.ebox
        step = m.step
        while tracer.instructions < budget:
            if m.halted:
                return HALTED
            if ebox.now > cycle_limit:
                return (f"cycle limit hit: {tracer.instructions} of "
                        f"{budget} instructions measured")
            step()
        return None

    def _capture(self, name: str, midrun: bool) -> Measurement:
        """Read the board at a tuple run's boundary.

        ``midrun`` says more boundaries follow; the capture ignores it,
        and the refute self-check plants its mid-run-capture bug on it.
        """
        return Measurement.capture(name, self.machine)
