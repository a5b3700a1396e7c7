"""repro.api: the stable, typed facade over the reproduction.

Every capability the command line exposes — the paper's measurement
campaign, single workloads, control-store hotspots, the assembler
listing, the block diagram, the microbenchmark sweep, design-space
exploration, validation — is one plain function here, returning a
frozen dataclass with a uniform :meth:`~_Result.to_json`.  The CLI
(:mod:`repro.cli`) is a thin argparse shell over these calls; scripts
and notebooks should import this module instead of reaching into the
engine packages::

    from repro import api

    result = api.characterize(smoke=True, table="8")
    print(result.cycles_per_instruction)
    json_doc = result.to_json()

Contract:

* invalid arguments raise :class:`ApiError` (a ``ValueError``) *before*
  any simulation runs; the CLI maps it to exit code 2;
* results are frozen — a result is a record of what happened, not a
  handle to mutate;
* heavyweight attachments (measurements, sweep objects, invariant
  reports) ride along for programmatic use but stay out of
  ``to_json()``;
* every call emits ``run_started``/``run_finished`` events and bumps an
  ``api.calls.<command>`` counter when an observation is active
  (:mod:`repro.obs`), and none of that changes any simulated count.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

from repro import obs
from repro.analysis import (section4, table1, table2, table3, table4,
                            table5, table6, table7, table8, table9)
from repro.obs import metrics
from repro.report.format import (render_figure1, render_section4,
                                 render_table1, render_table2,
                                 render_table3, render_table4,
                                 render_table5, render_table6,
                                 render_table7, render_table8,
                                 render_table9)
from repro.workloads import engine as _engines
from repro.workloads import registry as _registry

__all__ = ["ApiError", "DEFAULT_INSTRUCTIONS", "SMOKE_INSTRUCTIONS",
           "TABLES",
           "CharacterizeResult", "WorkloadResult", "HotspotsResult",
           "DisasmResult", "Figure1Result", "ProfilesResult",
           "WorkloadsResult", "TraceResult",
           "MachinesResult", "UbenchResult", "ExploreResult",
           "ExplorePointsResult", "ValidateResult", "RefuteResult",
           "characterize", "run_workload", "hotspots", "disasm",
           "figure1", "profiles", "workloads", "record_trace",
           "machines", "ubench", "explore",
           "explore_points", "explore_spec", "validate", "refute"]

#: The budget the CLI has always defaulted to for measurement commands.
DEFAULT_INSTRUCTIONS = 30_000
#: Re-exported: the fixed small budget behind every ``--smoke``.
SMOKE_INSTRUCTIONS = _engines.SMOKE_INSTRUCTIONS

#: table key -> (compute, render); the paper's tables plus §4's text.
TABLES = {
    "1": (table1, render_table1), "2": (table2, render_table2),
    "3": (table3, render_table3), "4": (table4, render_table4),
    "5": (table5, render_table5), "6": (table6, render_table6),
    "7": (table7, render_table7), "8": (table8, render_table8),
    "9": (table9, render_table9), "s4": (section4, render_section4),
}


class ApiError(ValueError):
    """A bad argument to a facade call (the CLI maps it to exit 2)."""


def _engine(value, choices=None):
    """Resolve an ``engine`` argument before anything simulates.

    ``None`` means scalar; anything outside ``choices`` (default: all
    of ``repro.batch.ENGINES``) raises :class:`ApiError` listing the
    valid engines — the same pre-validation contract as ``--table``
    and the sweep axes.
    """
    from repro.batch import ENGINES, validate_engine

    try:
        return validate_engine(value, choices or ENGINES)
    except ValueError as exc:
        raise ApiError(str(exc)) from exc


def _machine(value):
    """Resolve a ``machine`` argument before anything simulates.

    ``None`` means the default backend (the paper's 11/780); anything
    not in the registry raises :class:`ApiError` listing the registered
    machine names — the same pre-validation contract as ``--table``,
    engines and the sweep axes.
    """
    from repro.machines import MachineError, validate_machine

    try:
        return validate_machine(value)
    except MachineError as exc:
        raise ApiError(str(exc)) from exc


def _workload(value, machine_name: str = None):
    """Resolve one workload argument to its registered spec.

    Accepts a registered name, a unique name suffix, a ``trace:PATH``
    reference, a :class:`~repro.workloads.registry.WorkloadSpec`, or —
    deprecated — a raw :class:`~repro.workloads.profiles.MixProfile`.
    Unknown workloads and machine-refused workloads raise
    :class:`ApiError` before anything simulates, listing the registry.
    """
    from repro.workloads.profiles import MixProfile

    if isinstance(value, MixProfile):
        spec = _registry.WORKLOADS.get(value.name)
        if spec is None or spec.profile is not value:
            raise ApiError(
                f"profile {value.name!r} is not a registered workload; "
                "register it (repro.workloads.registry.register) or "
                "call the engine directly")
        warnings.warn(
            "passing a MixProfile to the facade is deprecated; pass "
            f"the workload name ({value.name!r}) instead",
            DeprecationWarning, stacklevel=3)
        return spec
    try:
        spec = _registry.find_workload(value)
    except _registry.WorkloadError as exc:
        raise ApiError(str(exc)) from exc
    except Exception as exc:
        # A trace:PATH reference that failed to load.
        raise ApiError(str(exc)) from exc
    if spec is None:
        raise ApiError(
            f"unknown workload {value!r}; choose from "
            f"{', '.join(_registry.workload_names())} "
            "(see 'repro workloads')")
    try:
        spec.check_machine(machine_name)
    except _registry.WorkloadError as exc:
        raise ApiError(str(exc)) from exc
    return spec


def _workload_names(value, machine_name: str = None):
    """Resolve a ``workloads`` argument to a tuple of registered names.

    ``None`` passes through (callers default to the paper's five);
    ``"all"`` selects every registered generator workload the machine
    supports; otherwise each entry resolves via :func:`_workload`.
    """
    if value is None:
        return None
    if value == "all":
        return tuple(
            name for name, spec in _registry.WORKLOADS.items()
            if spec.trace is None and spec.supported_on(machine_name))
    if isinstance(value, str):
        value = [value]
    names = []
    for item in value:
        name = _workload(item, machine_name).name
        if name not in names:
            names.append(name)
    return tuple(names)


def _attachment(**kwargs):
    """A dataclass field carried on the result but left out of JSON."""
    return field(repr=False, compare=False, metadata={"internal": True},
                 **kwargs)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


@dataclass(frozen=True)
class _Result:
    """Base for all facade results: frozen, uniformly serialisable."""

    def to_json(self) -> dict:
        """The result as a JSON-serialisable dict (attachments omitted)."""
        doc = {"kind": type(self).__name__}
        for spec in fields(self):
            if spec.metadata.get("internal"):
                continue
            doc[spec.name] = _jsonable(getattr(self, spec.name))
        return doc


@contextmanager
def _span(command: str, **fields_):
    """Observe one facade call: counter plus run start/finish events."""
    metrics.counter(f"api.calls.{command}").inc()
    obs.emit("run_started", command=command, **fields_)
    started = time.monotonic()
    try:
        yield
    except BaseException as exc:
        obs.emit("run_finished", command=command, ok=False,
                 error=type(exc).__name__,
                 seconds=round(time.monotonic() - started, 6))
        raise
    obs.emit("run_finished", command=command, ok=True,
             seconds=round(time.monotonic() - started, 6))


def _budget(instructions, smoke: bool) -> int:
    if instructions is not None:
        return instructions
    return SMOKE_INSTRUCTIONS if smoke else DEFAULT_INSTRUCTIONS


# -- characterize -------------------------------------------------------


@dataclass(frozen=True)
class CharacterizeResult(_Result):
    """A workload composite and its rendered tables."""

    instructions: int
    seed: int
    jobs: int
    paranoid: bool
    engine: str
    machine: str
    workloads: tuple         #: the composite's workload names, in order
    cycles: int
    instructions_measured: int
    cycles_per_instruction: float
    tables: tuple            #: ({"table": key, "text": rendered}, ...)
    measurement: object = _attachment(default=None)


def characterize(instructions: int = None, seed: int = 1984,
                 jobs: int = 1, paranoid: bool = False,
                 table="all", smoke: bool = False,
                 engine: str = None, machine: str = None,
                 workloads=None) -> CharacterizeResult:
    """Run a measurement campaign and compute the paper's tables.

    The default campaign is the paper's: the five-workload composite,
    bit-identical to what this call has always produced.  ``workloads``
    widens or narrows it — an iterable of registered names (or unique
    suffixes), or ``"all"`` for every generator workload the chosen
    machine supports (see ``repro workloads``).

    ``table`` selects what to compute: ``"all"``, one key (``"1"``
    ... ``"9"``, ``"s4"``), or an iterable of keys.  Unknown keys raise
    :class:`ApiError` before the (expensive) composite run, as do an
    unknown ``engine`` (scalar, batch, or auto — aliases, echoed in
    the result, see :mod:`repro.batch`), an unknown ``machine``
    (a registered backend, see :mod:`repro.machines`), and an unknown
    or machine-refused workload.
    """
    engine_name = _engine(engine)
    machine_name = _machine(machine)
    names = _workload_names(workloads, machine_name)
    if table in ("all", None):
        keys = list(TABLES)
    elif isinstance(table, str):
        keys = [table]
    else:
        keys = [str(key) for key in table]
    for key in keys:
        if key not in TABLES:
            raise ApiError(f"unknown table {key!r}; choose from "
                           f"{', '.join(TABLES)}")
    instructions = _budget(instructions, smoke)
    with _span("characterize", instructions=instructions, seed=seed,
               jobs=jobs, engine=engine_name, machine=machine_name):
        measurement = _engines.standard_composite(
            instructions=instructions, seed=seed, jobs=jobs,
            paranoid=paranoid, engine=engine_name,
            machine=machine_name, workloads=names)
        rendered = tuple(
            {"table": key,
             "text": TABLES[key][1](TABLES[key][0](measurement))}
            for key in keys)
        summary = table8(measurement)
    return CharacterizeResult(
        instructions=instructions, seed=seed, jobs=jobs,
        paranoid=paranoid, engine=engine_name, machine=machine_name,
        workloads=(names if names is not None
                   else _registry.paper_workload_names()),
        cycles=measurement.cycles,
        instructions_measured=summary.instructions,
        cycles_per_instruction=summary.cycles_per_instruction,
        tables=rendered, measurement=measurement)


# -- run_workload -------------------------------------------------------


@dataclass(frozen=True)
class WorkloadResult(_Result):
    """One workload environment's measurement summary."""

    profile: str             #: the resolved workload name (historical)
    description: str
    instructions: int
    seed: int
    paranoid: bool
    machine: str
    kind: str                #: paper | generator | trace
    cycles: int
    instructions_measured: int
    cycles_per_instruction: float
    table1_text: str
    measurement: object = _attachment(default=None)

    @property
    def workload(self) -> str:
        """The resolved workload name (alias of ``profile``)."""
        return self.profile


def _find_profile(profile):
    """Deprecated: resolve a loose spelling to a registered profile."""
    warnings.warn(
        "repro.api._find_profile is deprecated; use "
        "repro.workloads.registry.find_workload",
        DeprecationWarning, stacklevel=2)
    spec = _registry.find_workload(profile)
    return None if spec is None else spec.profile


def run_workload(workload=None, instructions: int = None,
                 seed: int = 1984, paranoid: bool = False,
                 smoke: bool = False, machine: str = None,
                 profile=None) -> WorkloadResult:
    """Run one registered workload (by name, suffix, or trace:PATH).

    ``profile`` is the parameter's deprecated former name.  For a
    trace-backed workload the recorded budget and seed are implied
    when not given explicitly (and enforced when they are — replay is
    pinned to its recording).
    """
    if profile is not None:
        warnings.warn(
            "run_workload(profile=...) is deprecated; use "
            "run_workload(workload=...)", DeprecationWarning,
            stacklevel=2)
        if workload is None:
            workload = profile
    machine_name = _machine(machine)
    resolved = _workload(workload, machine_name)
    if resolved.trace is not None:
        if instructions is None and not smoke:
            instructions = resolved.trace.instructions
        seed = resolved.trace.seed if seed == 1984 else seed
    instructions = _budget(instructions, smoke)
    with _span("run-workload", profile=resolved.name,
               instructions=instructions, seed=seed,
               machine=machine_name):
        try:
            measurement = _engines.run_workload(
                resolved.name, instructions, seed=seed,
                paranoid=paranoid, machine=machine_name)
        except _registry.WorkloadError as exc:
            raise ApiError(str(exc)) from exc
        summary = table8(measurement)
        table1_text = render_table1(table1(measurement))
    return WorkloadResult(
        profile=resolved.name, description=resolved.description,
        instructions=instructions, seed=seed, paranoid=paranoid,
        machine=machine_name, kind=resolved.kind,
        cycles=measurement.cycles,
        instructions_measured=summary.instructions,
        cycles_per_instruction=summary.cycles_per_instruction,
        table1_text=table1_text, measurement=measurement)


# -- hotspots -----------------------------------------------------------


@dataclass(frozen=True)
class HotspotsResult(_Result):
    """The hottest control-store locations of a reference run."""

    instructions: int
    seed: int
    top: int
    total_cycles: int
    rows: tuple  #: ({"address", "cycles", "percent", "row", ...}, ...)
    measurement: object = _attachment(default=None)


def hotspots(instructions: int = 20_000, top: int = 20,
             seed: int = 1984, smoke: bool = False) -> HotspotsResult:
    """Rank control-store locations by cycles on the reference workload."""
    from repro.analysis.reduction import reference_map

    if smoke:
        instructions = min(instructions, SMOKE_INSTRUCTIONS)
    with _span("hotspots", instructions=instructions, top=top):
        measurement = _engines.run_workload(
            _registry.DEFAULT_WORKLOAD, instructions, seed=seed)
        histogram = measurement.histogram
        store, _ = reference_map()
        ranked = []
        for ann in store.annotations():
            cycles = histogram.nonstalled[ann.address] \
                + histogram.stalled[ann.address]
            if cycles:
                ranked.append((cycles, ann))
        ranked.sort(key=lambda item: -item[0])
        total = histogram.total_cycles()
        rows = tuple(
            {"address": ann.address, "cycles": cycles,
             "percent": 100 * cycles / total, "row": ann.row.value,
             "routine": ann.routine, "slot": ann.slot}
            for cycles, ann in ranked[:top])
    return HotspotsResult(instructions=instructions, seed=seed, top=top,
                          total_cycles=total, rows=rows,
                          measurement=measurement)


# -- disasm / figure1 / profiles ---------------------------------------


@dataclass(frozen=True)
class DisasmResult(_Result):
    """An assembled program and its disassembly listing."""

    base: int
    lines: tuple


def disasm(source: str, base: int = 0x200) -> DisasmResult:
    """Assemble VAX MACRO source text and return its listing lines."""
    from repro.arch.disasm import disassemble_image
    from repro.asm import assemble_text

    with _span("disasm", base=base):
        image = assemble_text(source, base=base)
        lines = tuple(str(line) for line in disassemble_image(image))
    return DisasmResult(base=base, lines=lines)


@dataclass(frozen=True)
class Figure1Result(_Result):
    """The rendered 11/780 block diagram."""

    text: str


def figure1() -> Figure1Result:
    """Render the block diagram from the machine model."""
    from repro.cpu.machine import VAX780

    with _span("figure1"):
        text = render_figure1(VAX780())
    return Figure1Result(text=text)


@dataclass(frozen=True)
class ProfilesResult(_Result):
    """The five standard workload profiles."""

    profiles: tuple  #: ({"name", "description"}, ...)


def profiles() -> ProfilesResult:
    """List the paper's five workload profiles.

    Historical listing; :func:`workloads` lists the whole registry.
    """
    return ProfilesResult(profiles=tuple(
        {"name": spec.name, "description": spec.description}
        for spec in _registry.paper_workloads()))


@dataclass(frozen=True)
class WorkloadsResult(_Result):
    """The registered workloads and their per-machine support."""

    count: int
    default: str
    workloads: tuple  #: ({"name", "kind", ..., "supported": {...}}, ...)


def workloads() -> WorkloadsResult:
    """List the workload registry (see :mod:`repro.workloads.registry`).

    Each entry reports the workload's name, kind (paper / generator /
    trace), generator class, required executor families, and — per
    registered machine — whether that machine runs it.
    """
    from repro.machines import MACHINES

    listing = tuple(
        {"name": spec.name, "kind": spec.kind,
         "generator": spec.generator,
         "description": spec.description,
         "requires_families": tuple(spec.requires_families),
         "supported": {machine: spec.supported_on(machine)
                       for machine in MACHINES}}
        for spec in _registry.WORKLOADS.values())
    return WorkloadsResult(count=len(listing),
                           default=_registry.DEFAULT_WORKLOAD,
                           workloads=listing)


# -- record-trace -------------------------------------------------------


@dataclass(frozen=True)
class TraceResult(_Result):
    """One recorded instruction trace and its self-description."""

    workload: str            #: the name the trace registers under
    source: str              #: the workload that was recorded
    path: str
    machine: str
    seed: int
    instructions: int
    events: int
    cycles: int
    file_sha256: str
    registered: bool
    handle: object = _attachment(default=None)
    measurement: object = _attachment(default=None)


def record_trace(workload=None, path: str = None,
                 instructions: int = None, seed: int = 1984,
                 machine: str = None, name: str = None,
                 smoke: bool = False,
                 register: bool = True) -> TraceResult:
    """Record a workload run to a trace file (and register it).

    The recording run is bit-identical to an ordinary
    :func:`run_workload` of the source workload (the recorder is a
    passive boundary hook), so its measurement also primes the engine
    memo.  With ``register`` (the default) the trace immediately joins
    the registry under ``name`` (default ``trace-<source>``) and can
    be run like any other workload.
    """
    from repro.workloads.trace import TraceError
    from repro.workloads.trace import record_trace as _record

    if path is None:
        raise ApiError("record_trace needs a destination path")
    machine_name = _machine(machine)
    spec = _workload(workload, machine_name)
    instructions = _budget(instructions, smoke)
    with _span("record-trace", workload=spec.name,
               instructions=instructions, seed=seed,
               machine=machine_name):
        try:
            handle, measurement = _record(
                spec.name, path, instructions=instructions, seed=seed,
                machine=machine_name, name=name)
        except (TraceError, _registry.WorkloadError) as exc:
            raise ApiError(str(exc)) from exc
        _engines.prime_cache(spec.name, instructions, seed,
                             measurement, machine=machine_name)
        if register:
            from repro.workloads.trace import register_trace

            try:
                handle = register_trace(path, name=handle.name).trace
            except _registry.WorkloadError as exc:
                raise ApiError(str(exc)) from exc
    return TraceResult(
        workload=handle.name, source=handle.source, path=handle.path,
        machine=handle.machine, seed=handle.seed,
        instructions=handle.instructions, events=handle.events,
        cycles=handle.cycles, file_sha256=handle.file_sha256,
        registered=register, handle=handle, measurement=measurement)


@dataclass(frozen=True)
class MachinesResult(_Result):
    """The registered machine backends."""

    machines: tuple  #: ({"name", "description", "default", ...}, ...)


def machines() -> MachinesResult:
    """List the registered machine backends (see :mod:`repro.machines`)."""
    from repro.machines import DEFAULT_MACHINE, MACHINES

    return MachinesResult(machines=tuple(
        {"name": spec.name, "description": spec.description,
         "default": spec.name == DEFAULT_MACHINE, "subset": spec.subset,
         "cpi_nominal": spec.cpi_nominal}
        for spec in MACHINES.values()))


# -- ubench -------------------------------------------------------------


@dataclass(frozen=True)
class UbenchResult(_Result):
    """The microbenchmark sweep, measured vs. the analytical model."""

    suite: str
    kernel_count: int
    seed: int
    jobs: int
    machine: str
    failed: tuple            #: kernels not exact-and-reconciled
    check_ok: object         #: composite consistency verdict, or None
    ok: bool
    results: tuple = _attachment(default=())
    check: object = _attachment(default=None)


def ubench(group: str = None, mode: str = None, variant: str = None,
           smoke: bool = False, jobs: int = 1, check: bool = True,
           check_instructions: int = 20_000, seed: int = 1984,
           machine: str = None) -> UbenchResult:
    """Run the microbenchmark kernels and confront them with the model.

    ``machine`` selects the backend the kernels run on; the suite is
    filtered to the families that machine implements, and the model
    predicts with that machine's params (patch set, per-group extra
    cycles), so exactness holds on every backend.
    """
    from repro.ubench import runner, suite

    machine_name = _machine(machine)
    kernels = suite.select(group=group, mode=mode, variant=variant,
                           smoke=smoke, machine=machine_name)
    if not kernels:
        raise ApiError(
            f"no kernels match group={group!r} mode={mode!r} "
            f"variant={variant!r} on machine {machine_name!r}; groups: "
            f"{', '.join(suite.groups())}; modes: "
            f"{', '.join(suite.modes())}")
    with _span("ubench", kernels=len(kernels), jobs=jobs,
               machine=machine_name):
        results = runner.run_suite(kernels, jobs=jobs,
                                   machine=machine_name)
        check_doc = None
        if check:
            from repro.ubench.consistency import check_composite

            composite = _engines.standard_composite(
                instructions=check_instructions, seed=seed, jobs=jobs,
                machine=machine_name)
            check_doc = check_composite(composite, machine=machine_name)
    failed = tuple(r["kernel"] for r in results
                   if not (r["exact"] and r["reconciled"]))
    check_ok = None if check_doc is None else bool(check_doc["ok"])
    return UbenchResult(
        suite="smoke" if smoke else "standard",
        kernel_count=len(kernels), seed=seed, jobs=jobs,
        machine=machine_name, failed=failed,
        check_ok=check_ok, ok=not failed and check_ok is not False,
        results=tuple(results), check=check_doc)


# -- explore ------------------------------------------------------------


@dataclass(frozen=True)
class ExploreResult(_Result):
    """One design-space sweep run and its sensitivity report."""

    spec: str
    mode: str
    engine: str
    machine: str
    instructions: int
    seed: int
    stats: dict
    decode_claim_ok: object  #: True/False, or None when not checked
    ok: bool
    sweep: object = _attachment(default=None)
    report: object = _attachment(default=None)


@dataclass(frozen=True)
class ExplorePointsResult(_Result):
    """A sweep's enumerated points and their store status."""

    spec: str
    mode: str
    workloads: int
    points: tuple            #: ({"label", "cached"}, ...)


def explore_spec(spec: str = "paper-sensitivity", axes=(),
                 mode: str = None, instructions: int = None,
                 seed: int = None, smoke: bool = False,
                 machine: str = None):
    """Resolve facade arguments into a validated SweepSpec.

    ``axes`` entries may be ``"name=v1,v2"`` strings or Axis objects;
    any axis replaces the named spec's axes (the spec is then called
    ``custom``).  A ``workload=a,b,...`` axis is special: it replaces
    the sweep's workload *population* rather than varying a per-point
    override.  ``machine`` re-baselines the sweep on a registered
    backend (a ``machine=...`` axis still varies it point by point).
    Unknown specs, axes, values, workloads or machines raise
    :class:`ApiError` before anything simulates.
    """
    from dataclasses import replace

    from repro.explore import SPECS, SpaceError, parse_axis
    from repro.explore.space import WORKLOAD_AXIS

    machine_name = _machine(machine)
    parsed = []
    sweep_workloads = None
    for axis in axes:
        if isinstance(axis, str):
            try:
                axis = parse_axis(axis)
            except SpaceError as exc:
                raise ApiError(str(exc)) from exc
        if axis.name == WORKLOAD_AXIS:
            sweep_workloads = tuple(axis.values)
            continue
        parsed.append(axis)
    name = "smoke" if smoke else spec
    base = SPECS.get(name)
    if base is None:
        raise ApiError(f"unknown spec {name!r}; choose from "
                       f"{', '.join(sorted(SPECS))}")
    overrides = {}
    if parsed:
        overrides["axes"] = tuple(parsed)
        overrides["name"] = "custom"
    if sweep_workloads is not None:
        overrides["workloads"] = sweep_workloads
        overrides["name"] = "custom"
    if mode is not None:
        overrides["mode"] = mode
    if instructions is not None:
        overrides["instructions"] = instructions
    if seed is not None:
        overrides["seed"] = seed
    if machine is not None:
        overrides["machine"] = machine_name
    try:
        return replace(base, **overrides) if overrides else base
    except SpaceError as exc:
        raise ApiError(str(exc)) from exc


def explore_points(spec: str = "paper-sensitivity", axes=(),
                   mode: str = None, instructions: int = None,
                   seed: int = None, smoke: bool = False,
                   store=None, machine: str = None) -> ExplorePointsResult:
    """Enumerate a sweep's points (and store status) without simulating."""
    from repro.explore import ResultStore, code_version, result_key

    resolved = explore_spec(spec, axes, mode, instructions, seed, smoke,
                            machine=machine)
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    code = code_version()
    listing = []
    for point in resolved.points():
        params = point.params()
        cached = sum(
            1 for workload in resolved.workloads
            if store is not None and result_key(
                params, workload, point.instructions, point.seed,
                code=code, machine=point.machine) in store)
        listing.append({"label": point.label(), "cached": cached})
    return ExplorePointsResult(spec=resolved.name, mode=resolved.mode,
                               workloads=len(resolved.workloads),
                               points=tuple(listing))


def explore(spec: str = "paper-sensitivity", axes=(), mode: str = None,
            instructions: int = None, seed: int = None,
            smoke: bool = False, store=".explore/store",
            resume: bool = True, jobs: int = 1,
            progress=None, engine: str = None,
            machine: str = None) -> ExploreResult:
    """Run a design-space sweep and compute its sensitivity report.

    ``store`` is a directory path, a ResultStore, or None (no
    persistence).  ``progress`` is an optional ``callable(str)``.
    ``engine`` is scalar, batch, or auto — aliases echoed in the
    result: every sweep fuses budget-only point variants onto shared
    runs, with bit-identical records.  ``machine`` re-baselines the
    sweep on a registered backend.  An unknown engine or machine name raises
    :class:`ApiError` before anything simulates.
    """
    from repro.explore import ResultStore, run_sweep, sensitivity

    engine_name = _engine(engine)
    resolved = explore_spec(spec, axes, mode, instructions, seed, smoke,
                            machine=machine)
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    with _span("explore", spec=resolved.name, jobs=jobs,
               engine=engine_name, machine=resolved.machine):
        sweep = run_sweep(resolved, store=store, jobs=jobs,
                          resume=resume, progress=progress,
                          engine=engine_name)
        report = sensitivity(sweep)
    claim = report.get("decode_claim")
    claim_ok = None if claim is None else bool(claim["ok"])
    return ExploreResult(
        spec=resolved.name, mode=resolved.mode,
        engine=sweep.stats.get("engine", engine_name),
        machine=resolved.machine,
        instructions=resolved.instructions, seed=resolved.seed,
        stats=dict(sweep.stats), decode_claim_ok=claim_ok,
        ok=claim_ok is not False, sweep=sweep, report=report)


# -- validate -----------------------------------------------------------


@dataclass(frozen=True)
class ValidateResult(_Result):
    """Conservation invariants plus differential fuzzing verdicts."""

    instructions: int
    seed: int
    engine: str
    machine: str
    fuzz_cases: int
    fuzz_instructions: int
    smoke: bool
    invariants_ok: bool
    divergences: int
    ok: bool
    reports: tuple = _attachment(default=())
    fuzz_results: tuple = _attachment(default=())


def validate(instructions: int = None, fuzz_cases: int = 0,
             fuzz_instructions: int = 400, seed: int = 1984,
             smoke: bool = False, progress=None, jobs: int = 1,
             engine: str = None, machine: str = None,
             workloads=None) -> ValidateResult:
    """Check the conservation laws on registered workloads, then fuzz.

    ``workloads`` selects which (default: the paper's five; ``"all"``
    means every generator workload the machine supports).

    ``engine`` selects what the fuzzer differences against: ``scalar``
    (the default) runs the fast-path engine against the per-cycle
    reference spec; ``batch`` differences one run captured at several
    prefix boundaries against an independent run per boundary.  ``auto`` is rejected here — a validation run must name
    the engine it is validating.  ``machine`` selects the backend the
    workloads run on; the conservation laws are chosen to match its
    capabilities (no IB / overlapped-decode laws on a machine without
    them), and the fuzzer — which differences the 780's fast path
    against its reference spec — only runs on the default machine.
    ``jobs`` parallelises the fuzz cases; the results (and every shrunk
    reproducer) are byte-identical at any value.
    """
    from repro.machines import DEFAULT_MACHINE
    from repro.validate import check_measurement, fuzz, fuzz_batch

    engine_name = _engine(engine, choices=("scalar", "batch"))
    machine_name = _machine(machine)
    names = _workload_names(workloads, machine_name)
    if names is None:
        names = _registry.paper_workload_names()
    if machine_name != DEFAULT_MACHINE and fuzz_cases:
        raise ApiError(
            f"differential fuzzing validates the {DEFAULT_MACHINE} "
            f"engines; drop --fuzz to validate machine "
            f"{machine_name!r}")
    if instructions is None:
        instructions = SMOKE_INSTRUCTIONS if smoke else 20_000
    if smoke:
        fuzz_instructions = min(fuzz_instructions, 200)
    fuzzer = fuzz_batch if engine_name == "batch" else fuzz
    with _span("validate", instructions=instructions,
               fuzz_cases=fuzz_cases, engine=engine_name,
               machine=machine_name):
        reports = tuple(
            check_measurement(_engines.run_workload(
                name, instructions, seed=seed,
                machine=machine_name), machine=machine_name)
            for name in names)
        fuzz_results = tuple(
            fuzzer(fuzz_cases, seed=seed,
                   instructions=fuzz_instructions,
                   progress=progress, jobs=jobs)) if fuzz_cases else ()
    divergences = sum(1 for r in fuzz_results if not r["ok"])
    invariants_ok = all(report.ok for report in reports)
    return ValidateResult(
        instructions=instructions, seed=seed, engine=engine_name,
        machine=machine_name, fuzz_cases=fuzz_cases,
        fuzz_instructions=fuzz_instructions, smoke=smoke,
        invariants_ok=invariants_ok, divergences=divergences,
        ok=invariants_ok and divergences == 0,
        reports=reports, fuzz_results=fuzz_results)


# -- refute -------------------------------------------------------------


@dataclass(frozen=True)
class RefuteResult(_Result):
    """One refutation campaign plus the planted-bug self-check."""

    campaign: str
    seed: int
    jobs: int
    plant: str               #: perturbation installed, or None (clean)
    machines: tuple
    workloads: tuple
    probes: int
    refutations: int
    planted_total: object    #: self-check size, or None when skipped
    planted_detected: object
    ok: bool
    campaign_result: object = _attachment(default=None)
    planted: object = _attachment(default=None)


def refute(campaign: str = None, smoke: bool = False, seed: int = None,
           jobs: int = 1, store=".explore/store",
           self_check: bool = True, plant: str = None,
           progress=None) -> RefuteResult:
    """Run an assumption-refutation campaign (see :mod:`repro.refute`).

    ``campaign`` names a registered campaign (``standard`` or
    ``smoke``; ``smoke=True`` is shorthand for the latter).  A clean
    run also executes the planted-bug ``self_check`` — the smoke
    campaign once per registered perturbation, every one of which must
    be detected — so "zero refutations" is evidence, not silence.
    ``plant`` installs one named perturbation for the campaign itself
    (the self-check is then skipped, and ``ok`` means the plant *was*
    caught by the assumptions that must see it).  Probes, reproducers
    and the JSON document are byte-identical at any ``jobs``.
    """
    from repro.refute import (CAMPAIGNS, PERTURBATIONS, run_campaign,
                              run_self_check)

    name = "smoke" if smoke else (campaign or "standard")
    spec = CAMPAIGNS.get(name)
    if spec is None:
        raise ApiError(f"unknown campaign {name!r}; choose from "
                       f"{', '.join(CAMPAIGNS)}")
    if plant is not None and plant not in PERTURBATIONS:
        raise ApiError(f"unknown perturbation {plant!r}; choose from "
                       f"{', '.join(PERTURBATIONS)}")
    with _span("refute", campaign=spec.name, jobs=jobs, plant=plant):
        result = run_campaign(spec, seed=seed, jobs=jobs,
                              store=None if plant is not None else store,
                              plant=plant, progress=progress)
        checks = None
        if self_check and plant is None:
            checks = run_self_check(seed=seed, jobs=jobs,
                                    progress=progress)
    if plant is not None:
        expect = set(PERTURBATIONS[plant].expect)
        flagged = {item["assumption"] for item in result.refutations}
        ok = expect <= flagged
    else:
        ok = result.ok and (checks is None
                            or all(c["detected"] for c in checks))
    return RefuteResult(
        campaign=spec.name, seed=result.seed, jobs=jobs, plant=plant,
        machines=tuple(spec.machines), workloads=tuple(spec.workloads),
        probes=len(result.probes), refutations=len(result.refutations),
        planted_total=len(checks) if checks is not None else None,
        planted_detected=(sum(1 for c in checks if c["detected"])
                          if checks is not None else None),
        ok=ok, campaign_result=result, planted=checks)
