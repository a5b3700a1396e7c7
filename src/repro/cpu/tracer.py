"""Ground-truth architectural event tracer.

The µPC histogram is the *paper's* measurement path, and everything in the
Tables 1-9 benchmarks flows from it.  But the paper also leans on a second
instrument — its companion cache study — for events the histogram cannot
see (I-stream references, cache misses).  The tracer is this simulator's
equivalent second instrument: exact counts maintained by the simulation
itself, used for the §4 event benchmarks and to validate histogram-derived
numbers in tests.

The tracer honours the same measurement gate as the histogram board, so
Null-process activity is excluded from both instruments identically.
"""

from __future__ import annotations

from collections import Counter


class Tracer:
    """Exact event counters, gated alongside the histogram board.

    Per-instruction counts are *deferred*: :meth:`note_instruction` only
    bumps a pending-execution count keyed by the (cached, re-executed)
    Instruction object, and the dozen-odd Counter updates each execution
    implies are replayed in bulk the first time any derived counter is
    read.  ``instructions`` itself stays a live attribute because the
    executive's run loop polls it every step.
    """

    def __init__(self) -> None:
        self.enabled = True
        #: cycles spent with the gate closed (Null-process windows); see
        #: :meth:`gate`.  ``_gated_off_at`` is the cycle the open window
        #: started, or None while enabled.
        self.gated_off_cycles = 0
        self._gated_off_at = None
        self.instructions = 0
        #: pending executions awaiting the bulk replay: inst -> count.
        self._pending = {}
        self._opcode_counts = Counter()     # mnemonic -> executions
        self._family_counts = Counter()     # family -> executions
        self._group_counts = Counter()      # OpcodeGroup -> executions
        self.branches_executed = Counter()  # family -> count
        self.branches_taken = Counter()     # family -> count
        self._specifier_modes = Counter()   # (position, mode) -> count
        self._indexed_specifiers = 0
        self._specifiers = 0
        self._branch_displacements = 0
        self._branch_disp_bytes = 0
        self._instruction_bytes = 0
        #: IRD dispatches, split by whether the previous instruction (or
        #: an interrupt/exception) changed the PC.  §5: a machine with
        #: overlapped decode (the 11/750) saves one cycle on each
        #: non-PC-changing dispatch; ``overlapped_decodes`` counts the
        #: dispatches where this model actually skipped the cycle.
        self.decode_dispatches = 0
        self.pc_change_dispatches = 0
        self.overlapped_decodes = 0
        self.interrupts = 0
        self.software_interrupt_requests = 0
        self.exceptions = 0
        self.context_switches = 0
        self.tb_miss_services = Counter()  # "i"/"d" -> count
        self.tb_miss_cycles = 0
        self.tb_miss_stall_cycles = 0
        self.page_faults = 0
        #: TB-miss services that found an invalid PTE and faulted instead
        #: of completing (``tb_miss_services`` counts completions only).
        self.tb_miss_faults = 0
        #: instructions dispatched but unwound by a page fault; the
        #: restart re-dispatches, so ``decode_dispatches`` equals
        #: ``instructions + instruction_aborts``.
        self.instruction_aborts = 0

    def gate(self, enabled: bool, now: int) -> None:
        """Open or close the measurement gate at cycle ``now``.

        Closed-gate time accumulates in ``gated_off_cycles``, so the
        cycle-conservation law (histogram total == measured cycles)
        stays exact across Null-process windows.  Idempotent: repeated
        opens/closes at the same state are no-ops.
        """
        if enabled:
            if self._gated_off_at is not None:
                self.gated_off_cycles += now - self._gated_off_at
                self._gated_off_at = None
        elif self._gated_off_at is None:
            self._gated_off_at = now
        self.enabled = enabled

    def settle_gate(self, now: int) -> None:
        """Fold any open closed-gate window into the accumulator.

        Called at capture points so ``gated_off_cycles`` is complete
        through ``now`` even if the machine stopped inside a Null
        window; the gate state itself is unchanged.
        """
        if self._gated_off_at is not None:
            self.gated_off_cycles += now - self._gated_off_at
            self._gated_off_at = now

    def note_instruction(self, inst) -> None:
        """Record one completed instruction (deferred; see class docs)."""
        if not self.enabled:
            return
        self.instructions += 1
        pending = self._pending
        n = pending.get(inst)
        pending[inst] = 1 if n is None else n + 1

    def _flush(self) -> None:
        """Replay pending executions into the per-instruction counters.

        Counts keyed by enums (``OpcodeGroup``, and ``AddressingMode``
        in the specifier-mode pairs) are first summed under each
        record's string proxies: an enum hashes through a Python-level
        ``__hash__``, so each Counter then sees one update per distinct
        key, in first-seen order — the same values and key order a
        per-execution replay gives.
        """
        if not self._pending:
            return
        opcodes = self._opcode_counts
        families = self._family_counts
        group_sums = {}  # group name -> [OpcodeGroup, executions]
        mode_sums = {}   # position + mode value -> [(position, mode), n]
        for inst, n in self._pending.items():
            rec = inst.trace_rec
            if rec is None:
                rec = self._build_record(inst)
            (mnemonic, family, group, length, nspec, mode_keys, n_indexed,
             disp_bytes) = rec
            opcodes[mnemonic] += n
            families[family] += n
            gname = group._name_
            if gname in group_sums:
                group_sums[gname][1] += n
            else:
                group_sums[gname] = [group, n]
            self._instruction_bytes += length * n
            self._specifiers += nspec * n
            for proxy, key in mode_keys:
                if proxy in mode_sums:
                    mode_sums[proxy][1] += n
                else:
                    mode_sums[proxy] = [key, n]
            if n_indexed:
                self._indexed_specifiers += n_indexed * n
            if disp_bytes:
                self._branch_displacements += n
                self._branch_disp_bytes += disp_bytes * n
        self._pending.clear()
        groups = self._group_counts
        for group, n in group_sums.values():
            groups[group] += n
        modes = self._specifier_modes
        for key, n in mode_sums.values():
            modes[key] += n

    # Derived counters: reading any of them replays the pending log first.

    @property
    def opcode_counts(self):
        """mnemonic -> executions."""
        self._flush()
        return self._opcode_counts

    @property
    def family_counts(self):
        """family -> executions."""
        self._flush()
        return self._family_counts

    @property
    def group_counts(self):
        """OpcodeGroup -> executions."""
        self._flush()
        return self._group_counts

    @property
    def specifier_modes(self):
        """(position, mode) -> count."""
        self._flush()
        return self._specifier_modes

    @property
    def specifiers(self):
        """Total operand specifiers processed."""
        self._flush()
        return self._specifiers

    @property
    def indexed_specifiers(self):
        """Specifiers carrying an index prefix."""
        self._flush()
        return self._indexed_specifiers

    @property
    def branch_displacements(self):
        """Branch-displacement operands processed."""
        self._flush()
        return self._branch_displacements

    @property
    def branch_disp_bytes(self):
        """Total branch-displacement bytes."""
        self._flush()
        return self._branch_disp_bytes

    @property
    def instruction_bytes(self):
        """Total encoded instruction bytes executed."""
        self._flush()
        return self._instruction_bytes

    @staticmethod
    def _build_record(inst):
        """Precompute an instruction's tracer contribution (cached).

        Each specifier-mode key travels with a string proxy that
        :meth:`_flush` sums under; the loop makes no calls.
        """
        info = inst.info
        mode_keys = ()
        nspec = n_indexed = 0
        position = "spec1"
        for spec in inst.specifiers:
            mode = spec.mode
            mode_keys += ((position + mode._value_, (position, mode)),)
            nspec += 1
            if spec.index_register is not None:
                n_indexed += 1
            position = "spec26"
        disp_bytes = 0
        if inst.branch_displacement is not None:
            disp_bytes = 1 if info.branch_operand.dtype == "b" else 2
        rec = (info.mnemonic, info.family, info.group, inst.length,
               nspec, mode_keys, n_indexed, disp_bytes)
        inst.trace_rec = rec
        return rec

    def note_branch(self, family: str, taken: bool) -> None:
        """Record a PC-changing instruction outcome."""
        if not self.enabled:
            return
        self.branches_executed[family] += 1
        if taken:
            self.branches_taken[family] += 1

    def note_tb_miss(self, stream: str, cycles: int, stall: int) -> None:
        """Record one TB miss service (cycles include stall)."""
        if not self.enabled:
            return
        self.tb_miss_services[stream] += 1
        self.tb_miss_cycles += cycles
        self.tb_miss_stall_cycles += stall

    def per_instruction(self, count: int) -> float:
        """Convenience: ``count`` per traced instruction."""
        if self.instructions == 0:
            return 0.0
        return count / self.instructions
