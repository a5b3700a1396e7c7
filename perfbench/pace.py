"""Host pace: how fast the vCPU ran while the work ran.

The benchmark shares a 2-vCPU VM with other tenants, and the speed of a
vCPU drifts by up to 1.8x between spells lasting from seconds to
minutes, so a raw wall time measures the neighbours as much as the
program.  A sampler installed in the process that does the work runs a
fixed pure-Python reference kernel for about a millisecond every
``INTERVAL_S`` of wall time, from a ``SIGALRM`` handler, and records
when each slice started and how long it took.  Three kernels take
turns: a register machine interpreted inline (:func:`reference`), a
toy CPU that dispatches each instruction to a method through a decode
table and keeps a histogram (:func:`toy`), both the same kind of work
as the simulator's run loop, and a random walk over an 8 MB arena
(:func:`walk`), which slows when neighbours crowd the shared caches.
None alone slows down in a slow spell exactly as the simulator does;
their mean tracks it.  The arena is touched in full when sampling
starts, so it adds a constant ``ARENA_MB`` to the process's peak RSS,
which the benchmark subtracts.

The mean slice duration over a session is that session's pace; every
time the benchmark reports is the work's own time (wall time minus the
slices that ran inside it) scaled by ``NOMINAL_S / pace``: seconds on a
host whose mean slice takes ``NOMINAL_S``.  A speed-up of the program
shows in full; a slower host does not.

The kernels run in the worker's own process, interleaved with the
work, because the two vCPUs drift independently: a sampler running
beside the work on the other vCPU does not track it.  For the same
reason ``run.py`` pins itself and every process it starts to one vCPU,
so the server's worker thread, its sampling main thread and the
benchmark's client all run where the pace is sampled.

Run as a script, the module samples another program and writes the
samples when it exits::

    python3 perfbench/pace.py OUT.json [--trace TRACE.json] -m repro serve

which is how the ``serve`` workload paces (and traces) the server.
"""

from __future__ import annotations

import atexit
import json
import signal
import statistics
import sys
import time

#: Wall time between two reference slices.
INTERVAL_S = 0.05
#: Steps of each kernel per slice (about 1 ms each).
REFERENCE_STEPS = 3000
TOY_STEPS = 1400
WALK_STEPS = 2500
#: The walk's arena.
ARENA_BYTES = 8 << 20
ARENA_MB = ARENA_BYTES / (1 << 20)
#: About the mean slice inside a session in a fast spell of the host
#: these figures are quoted for (an Intel Xeon vCPU, Python 3.11): the
#: unit of every paced time.  Never change it: it makes paced times of
#: different trees comparable.
NOMINAL_S = 0.0008

#: The reference program: (opcode, a, b, constant) tuples.
_PROGRAM = [(i % 5, i % 16, (i * 7) % 16, i) for i in range(512)]
#: The toy CPU's program: (opcode, operand) pairs.
_TOY_PROGRAM = [((i * 7) % 5, (i * 131) & 0xFFFF) for i in range(512)]


def reference(steps: int) -> int:
    """Interpret ``steps`` instructions of a fixed register machine."""
    regs = [0] * 16
    mem = {}
    program = _PROGRAM
    pc = cycles = 0
    for _ in range(steps):
        op, a, b, k = program[pc]
        if op == 0:
            regs[a] = (regs[b] + k) & 0xFFFFFFFF
        elif op == 1:
            mem[(regs[a] + k) & 0xFFFF] = regs[b]
        elif op == 2:
            regs[a] = mem.get((regs[b] ^ k) & 0xFFFF, 0)
        elif op == 3:
            regs[a] ^= regs[b] << 1 & 0xFFFFFFFF
        else:
            cycles += 1 + (regs[a] & 3)
        pc = (pc + 1) & 511
    return cycles


class _ToyCPU:
    """An accumulator machine: decode table of bound methods, byte
    memory, a cycle count and an opcode histogram."""

    __slots__ = ("acc", "pc", "zero", "cycles", "mem", "hist", "ops")

    def __init__(self) -> None:
        self.acc = self.pc = self.cycles = 0
        self.zero = False
        self.mem = bytearray(65536)
        self.hist = {}
        self.ops = {0: self.load, 1: self.store, 2: self.add,
                    3: self.branch, 4: self.xor}

    def load(self, arg: int) -> None:
        self.acc = self.mem[arg]
        self.cycles += 2

    def store(self, arg: int) -> None:
        self.mem[arg] = self.acc & 0xFF
        self.cycles += 2

    def add(self, arg: int) -> None:
        self.acc = (self.acc + arg) & 0xFFFF
        self.zero = self.acc == 0
        self.cycles += 1

    def branch(self, arg: int) -> None:
        if self.zero:
            self.pc = arg & 511
        self.cycles += 3

    def xor(self, arg: int) -> None:
        self.acc ^= arg
        self.cycles += 1

    def step(self) -> None:
        op, arg = _TOY_PROGRAM[self.pc]
        self.pc = (self.pc + 1) & 511
        self.ops[op](arg)
        self.hist[op] = self.hist.get(op, 0) + 1


def toy(steps: int) -> int:
    """Run the toy CPU for ``steps`` instructions."""
    cpu = _ToyCPU()
    for _ in range(steps):
        cpu.step()
    return cpu.cycles


_ARENA = bytearray()


def walk(steps: int) -> int:
    """Read-modify-write ``steps`` pseudo-random bytes of the arena."""
    arena = _ARENA
    x = total = 0
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & (ARENA_BYTES - 1)
        total += arena[x]
        arena[x] = total & 0xFF
    return total


#: The kernels, in the order the slices take turns.
KERNELS = ((reference, REFERENCE_STEPS), (toy, TOY_STEPS),
           (walk, WALK_STEPS))


class Sampler:
    """Reference slices of this process: ``[[wall start, seconds], ...]``."""

    def __init__(self) -> None:
        self.samples = []
        self.total = 0.0          #: seconds spent in slices so far

    def _tick(self, _signum, _frame) -> None:
        at = time.time()
        kernel, steps = KERNELS[len(self.samples) % len(KERNELS)]
        started = time.perf_counter()
        kernel(steps)
        seconds = time.perf_counter() - started
        self.samples.append([at, seconds])
        self.total += seconds

    def clock(self) -> float:
        """A work clock: ``perf_counter`` that stands still in slices."""
        return time.perf_counter() - self.total

    def start(self) -> "Sampler":
        if not _ARENA:
            _ARENA.extend(bytes(ARENA_BYTES))
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> list:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.samples


# -- pacing (the orchestrator's side) ----------------------------------------


def factor(samples: list) -> float:
    """``NOMINAL_S`` over the mean slice: scales a session's times to
    the nominal host (1.0 without samples)."""
    if not samples:
        return 1.0
    return NOMINAL_S / statistics.fmean(seconds for _at, seconds in samples)


def local_factor(samples: list, start: float, end: float,
                 least: int = 8) -> float:
    """The factor of the slices in ``[start, end)`` (wall clock), or of
    the ``least`` slices nearest to it when fewer fell inside.

    The pace can change within a second, so a short stretch of work
    (a loop of warm operations) is paced by its own slices, not by the
    session's."""
    def distance(sample) -> float:
        return max(start - sample[0], sample[0] - end, 0.0)

    nearest = sorted(samples, key=distance)
    inside = [sample for sample in nearest if distance(sample) == 0.0]
    return factor(inside if len(inside) >= least else nearest[:least])


def spent(samples: list, start: float, end: float) -> float:
    """Seconds of reference slices that started in ``[start, end)``."""
    return sum(seconds for at, seconds in samples if start <= at < end)


def paced(samples: list, start: float, end: float,
          scale: float = None) -> float:
    """The work's own time in ``[start, end)`` (wall clock), on the
    nominal host; ``scale`` defaults to the factor of ``samples``."""
    if scale is None:
        scale = factor(samples)
    return (end - start - spent(samples, start, end)) * scale


def _main(argv) -> None:
    """``pace.py OUT.json [--trace TRACE.json] -m MODULE ARGS...``."""
    out = argv[0]
    rest = argv[1:]
    if rest[:1] == ["--trace"]:
        import tracer

        tracer.trace_at_exit(rest[1])
        rest = rest[2:]
    if len(rest) < 2 or rest[0] != "-m":
        raise SystemExit("usage: pace.py OUT.json [--trace TRACE.json] "
                         "-m MODULE [ARGS...]")
    sampler = Sampler()

    def dump() -> None:
        with open(out, "w") as handle:
            json.dump(sampler.stop(), handle)

    atexit.register(dump)
    sampler.start()
    import runpy

    sys.argv = [rest[1]] + rest[2:]
    runpy.run_module(rest[1], run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    _main(sys.argv[1:])
