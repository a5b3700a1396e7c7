"""Request canonicalization: one content-address per distinct job.

Every submission is parsed into a frozen request dataclass mirroring
the corresponding :mod:`repro.api` function's signature (defaults
included), validated up front with :class:`~repro.api.ApiError`
messages, and *resolved*: ``smoke`` collapses into the budget it
implies, ``table``/``profile``/``spec`` shorthands expand to their full
forms, an omitted ``engine`` becomes ``"scalar"``.  Two payloads that
differ only in field order, default-vs-explicit values, or shorthand
spelling therefore canonicalize to the same dict — and the same
:func:`request_key`, the serve analogue of the explore store's
:func:`~repro.explore.store.result_key`: a sha256 over the canonical
params plus the command, a serve schema number, and the simulator's
code-version digest (so a simulator change invalidates every cached
service result exactly as it invalidates sweep records).

The key deliberately includes every field that shapes the *result
document* — ``jobs`` and ``engine`` are execution knobs with
bit-identical outcomes, but they appear in the result dataclasses, so
they stay in the key to keep cached documents indistinguishable from
fresh ones.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields

from repro import api
from repro.explore.store import code_version

#: Bump when canonicalization or the served record layout changes;
#: part of every request key.
#: 2: every request carries the machine backend name (default vax780),
#:    so results from different machines can never share a key.
#: 3: workloads resolve through the workload registry — run-workload
#:    canonicalizes to a ``workload`` name (``profile`` is a deprecated
#:    alias), and characterize/validate carry their resolved workload
#:    name lists — so requests over different workload sets can never
#:    share a key.
SERVE_SCHEMA = 3


def _expect(request, name, value, kinds, none_ok=False):
    if value is None and none_ok:
        return
    if isinstance(value, bool) and bool not in (
            kinds if isinstance(kinds, tuple) else (kinds,)):
        raise api.ApiError(
            f"{request.command}: field {name!r} must be "
            f"{_kind_names(kinds)}, got {value!r}")
    if not isinstance(value, kinds):
        raise api.ApiError(
            f"{request.command}: field {name!r} must be "
            f"{_kind_names(kinds)}, got {value!r}")


def _kind_names(kinds) -> str:
    if not isinstance(kinds, tuple):
        kinds = (kinds,)
    return "/".join(k.__name__ for k in kinds)


@dataclass(frozen=True)
class ServeRequest:
    """Base: payload parsing, canonical dict, execution kwargs."""

    @classmethod
    def from_payload(cls, payload) -> "ServeRequest":
        """Build a request from a JSON params dict, strictly.

        Unknown fields raise :class:`~repro.api.ApiError` listing the
        valid ones — the same up-front rejection contract as the
        facade's ``--table``/axis validation.
        """
        if payload is None:
            payload = {}
        if not isinstance(payload, dict):
            raise api.ApiError(
                f"{cls.command}: params must be a JSON object, got "
                f"{type(payload).__name__}")
        names = [spec.name for spec in fields(cls)]
        unknown = sorted(set(payload) - set(names))
        if unknown:
            raise api.ApiError(
                f"{cls.command}: unknown field(s) "
                f"{', '.join(unknown)}; valid fields: "
                f"{', '.join(names)}")
        try:
            request = cls(**payload)
        except TypeError as exc:
            raise api.ApiError(f"{cls.command}: {exc}") from exc
        request.canonical()     # validate eagerly, before any queueing
        return request

    def canonical(self) -> dict:
        raise NotImplementedError

    def exec_kwargs(self) -> dict:
        """Keyword arguments for the facade call this request maps to."""
        raise NotImplementedError

    def fusion_group(self):
        """A grouping label for co-queued jobs that may fuse, or None."""
        return None


@dataclass(frozen=True)
class CharacterizeRequest(ServeRequest):
    command = "characterize"
    instructions: object = None
    seed: int = 1984
    jobs: int = 1
    paranoid: bool = False
    table: object = "all"
    smoke: bool = False
    engine: object = None
    machine: object = None
    workloads: object = None

    def canonical(self) -> dict:
        _expect(self, "instructions", self.instructions, int,
                none_ok=True)
        _expect(self, "seed", self.seed, int)
        _expect(self, "jobs", self.jobs, int)
        _expect(self, "paranoid", self.paranoid, bool)
        _expect(self, "smoke", self.smoke, bool)
        _expect(self, "machine", self.machine, str, none_ok=True)
        engine = _engine(self.engine)
        machine = _machine(self.machine)
        names = _workload_names(self.workloads, machine)
        if self.table in ("all", None):
            keys = list(api.TABLES)
        elif isinstance(self.table, str):
            keys = [self.table]
        else:
            keys = [str(key) for key in self.table]
        for key in keys:
            if key not in api.TABLES:
                raise api.ApiError(
                    f"unknown table {key!r}; choose from "
                    f"{', '.join(api.TABLES)}")
        return {"instructions": _budget(self.instructions, self.smoke),
                "seed": self.seed, "jobs": self.jobs,
                "paranoid": self.paranoid, "table": keys,
                "engine": engine, "machine": machine,
                "workloads": list(names)}

    def exec_kwargs(self) -> dict:
        canonical = self.canonical()
        canonical["table"] = tuple(canonical["table"])
        canonical["workloads"] = tuple(canonical["workloads"])
        return canonical

    def fusion_group(self):
        """Jobs differing only in budget share a group.

        The dispatcher runs one group as a single worker task: each
        workload runs once and is captured at every budget (see
        :func:`repro.serve.workers.prefuse_characterize`), on any
        machine and behind any engine name.
        """
        canonical = self.canonical()
        del canonical["instructions"]
        return f"{self.command}:" + json.dumps(canonical, sort_keys=True)


@dataclass(frozen=True)
class RunWorkloadRequest(ServeRequest):
    command = "run-workload"
    workload: str = None
    instructions: object = None
    seed: int = 1984
    paranoid: bool = False
    smoke: bool = False
    machine: object = None
    #: Deprecated alias of ``workload`` (pre-registry payloads).
    profile: str = None

    def canonical(self) -> dict:
        _expect(self, "workload", self.workload, str, none_ok=True)
        _expect(self, "profile", self.profile, str, none_ok=True)
        _expect(self, "instructions", self.instructions, int,
                none_ok=True)
        _expect(self, "seed", self.seed, int)
        _expect(self, "paranoid", self.paranoid, bool)
        _expect(self, "smoke", self.smoke, bool)
        _expect(self, "machine", self.machine, str, none_ok=True)
        wanted = self.workload if self.workload is not None \
            else self.profile
        if wanted is None:
            raise api.ApiError(
                f"{self.command}: field 'workload' is required")
        if self.workload is not None and self.profile is not None \
                and self.workload != self.profile:
            raise api.ApiError(
                f"{self.command}: 'workload' and 'profile' (its "
                f"deprecated alias) disagree: {self.workload!r} vs "
                f"{self.profile!r}")
        machine = _machine(self.machine)
        resolved = _resolve_workload(wanted, machine)
        instructions = self.instructions
        seed = self.seed
        if resolved.trace is not None:
            # Replay is pinned to its recording: an omitted budget or
            # default seed canonicalizes to the recorded values.
            if instructions is None and not self.smoke:
                instructions = resolved.trace.instructions
            if seed == 1984:
                seed = resolved.trace.seed
        return {"workload": resolved.name,
                "instructions": _budget(instructions, self.smoke),
                "seed": seed, "paranoid": self.paranoid,
                "machine": machine}

    def exec_kwargs(self) -> dict:
        return self.canonical()


@dataclass(frozen=True)
class UbenchRequest(ServeRequest):
    command = "ubench"
    group: object = None
    mode: object = None
    variant: object = None
    smoke: bool = False
    jobs: int = 1
    check: bool = True
    check_instructions: int = 20_000
    seed: int = 1984
    machine: object = None

    def canonical(self) -> dict:
        from repro.ubench import suite

        for name in ("group", "mode", "variant"):
            _expect(self, name, getattr(self, name), str, none_ok=True)
        _expect(self, "smoke", self.smoke, bool)
        _expect(self, "jobs", self.jobs, int)
        _expect(self, "check", self.check, bool)
        _expect(self, "check_instructions", self.check_instructions, int)
        _expect(self, "seed", self.seed, int)
        _expect(self, "machine", self.machine, str, none_ok=True)
        machine = _machine(self.machine)
        kernels = suite.select(group=self.group, mode=self.mode,
                               variant=self.variant, smoke=self.smoke,
                               machine=machine)
        if not kernels:
            raise api.ApiError(
                f"no kernels match group={self.group!r} "
                f"mode={self.mode!r} variant={self.variant!r} on "
                f"machine {machine!r}; groups: "
                f"{', '.join(suite.groups())}; modes: "
                f"{', '.join(suite.modes())}")
        return {"group": self.group, "mode": self.mode,
                "variant": self.variant, "smoke": self.smoke,
                "jobs": self.jobs, "check": self.check,
                "check_instructions": self.check_instructions,
                "seed": self.seed, "machine": machine}

    def exec_kwargs(self) -> dict:
        return self.canonical()


@dataclass(frozen=True)
class ExploreRequest(ServeRequest):
    command = "explore"
    spec: str = "paper-sensitivity"
    axes: tuple = ()
    mode: object = None
    instructions: object = None
    seed: object = None
    smoke: bool = False
    jobs: int = 1
    engine: object = None
    machine: object = None

    def _spec(self):
        axes = self.axes
        if isinstance(axes, str):
            raise api.ApiError(
                f"{self.command}: field 'axes' must be a list of "
                f"NAME=V1,V2 strings, got {axes!r}")
        return api.explore_spec(self.spec, tuple(axes), self.mode,
                                self.instructions, self.seed, self.smoke,
                                machine=self.machine)

    def canonical(self) -> dict:
        _expect(self, "spec", self.spec, str)
        _expect(self, "mode", self.mode, str, none_ok=True)
        _expect(self, "instructions", self.instructions, int,
                none_ok=True)
        _expect(self, "seed", self.seed, int, none_ok=True)
        _expect(self, "smoke", self.smoke, bool)
        _expect(self, "jobs", self.jobs, int)
        _expect(self, "machine", self.machine, str, none_ok=True)
        resolved = self._spec()
        return {"spec": resolved.name,
                "axes": [[axis.name, list(axis.values)]
                         for axis in resolved.axes],
                "mode": resolved.mode,
                "workloads": list(resolved.workloads),
                "instructions": resolved.instructions,
                "seed": resolved.seed, "jobs": self.jobs,
                "engine": _engine(self.engine),
                "machine": resolved.machine}

    def exec_kwargs(self) -> dict:
        # The sweep spec re-resolves from the original arguments (the
        # canonical spec name may be the synthetic "custom"); the
        # server injects its own store at execution time.
        return {"spec": self.spec, "axes": tuple(self.axes),
                "mode": self.mode, "instructions": self.instructions,
                "seed": self.seed, "smoke": self.smoke,
                "jobs": self.jobs, "engine": _engine(self.engine),
                "machine": self.machine}


@dataclass(frozen=True)
class ValidateRequest(ServeRequest):
    command = "validate"
    instructions: object = None
    fuzz_cases: int = 0
    fuzz_instructions: int = 400
    seed: int = 1984
    smoke: bool = False
    engine: object = None
    machine: object = None
    workloads: object = None

    def canonical(self) -> dict:
        from repro.machines import DEFAULT_MACHINE

        _expect(self, "instructions", self.instructions, int,
                none_ok=True)
        _expect(self, "fuzz_cases", self.fuzz_cases, int)
        _expect(self, "fuzz_instructions", self.fuzz_instructions, int)
        _expect(self, "seed", self.seed, int)
        _expect(self, "smoke", self.smoke, bool)
        _expect(self, "machine", self.machine, str, none_ok=True)
        engine = _engine(self.engine, choices=("scalar", "batch"))
        machine = _machine(self.machine)
        names = _workload_names(self.workloads, machine)
        if machine != DEFAULT_MACHINE and self.fuzz_cases:
            raise api.ApiError(
                f"differential fuzzing validates the {DEFAULT_MACHINE} "
                f"engines; drop fuzz_cases to validate machine "
                f"{machine!r}")
        instructions = self.instructions
        if instructions is None:
            instructions = api.SMOKE_INSTRUCTIONS if self.smoke \
                else 20_000
        fuzz_instructions = self.fuzz_instructions
        if self.smoke:
            fuzz_instructions = min(fuzz_instructions, 200)
        return {"instructions": instructions,
                "fuzz_cases": self.fuzz_cases,
                "fuzz_instructions": fuzz_instructions,
                "seed": self.seed, "smoke": self.smoke,
                "engine": engine, "machine": machine,
                "workloads": list(names)}

    def exec_kwargs(self) -> dict:
        canonical = self.canonical()
        canonical["workloads"] = tuple(canonical["workloads"])
        return canonical


#: command name -> request class, the service's public command surface.
COMMANDS = {
    cls.command: cls
    for cls in (CharacterizeRequest, RunWorkloadRequest, UbenchRequest,
                ExploreRequest, ValidateRequest)
}


def _budget(instructions, smoke: bool) -> int:
    if instructions is not None:
        return instructions
    return api.SMOKE_INSTRUCTIONS if smoke else api.DEFAULT_INSTRUCTIONS


def _engine(value, choices=None) -> str:
    from repro.batch import ENGINES, validate_engine

    try:
        return validate_engine(value, choices or ENGINES)
    except ValueError as exc:
        raise api.ApiError(str(exc)) from exc


def _machine(value) -> str:
    from repro.machines import MachineError, validate_machine

    try:
        return validate_machine(value)
    except MachineError as exc:
        raise api.ApiError(str(exc)) from exc


def _resolve_workload(value, machine: str):
    """Resolve one workload spelling to its registered spec, strictly.

    ``trace:PATH`` references are rejected: they would read (and
    register) server-local files on behalf of a remote client.  A
    trace already registered in the server process resolves by name
    like any other workload.
    """
    if not isinstance(value, str):
        raise api.ApiError(
            f"workload names must be strings, got {value!r}")
    if value.startswith("trace:"):
        raise api.ApiError(
            "trace:PATH references are not accepted over the job "
            "server; register the trace in the server process and "
            "submit its workload name")
    return api._workload(value, machine)


def _workload_names(value, machine: str) -> tuple:
    """Resolve a composite's ``workloads`` field to registered names.

    ``None`` canonicalizes to the paper's five (so an explicit
    spelling of the default collapses to the same request key);
    ``"all"`` to every generator workload the machine supports.
    Trace-backed workloads are rejected — a replay is pinned to one
    budget and cannot join an arbitrary composite.
    """
    from repro.workloads.registry import paper_workload_names

    if value is None:
        return paper_workload_names()
    if value == "all":
        return api._workload_names("all", machine)
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, (list, tuple)):
        raise api.ApiError(
            "field 'workloads' must be a list of workload names, "
            f"a single name, or 'all'; got {value!r}")
    names = []
    for item in value:
        spec = _resolve_workload(item, machine)
        if spec.trace is not None:
            raise api.ApiError(
                f"trace workload {spec.name!r} cannot join a "
                "composite; run it via run-workload")
        if spec.name not in names:
            names.append(spec.name)
    if not names:
        raise api.ApiError("field 'workloads' selects no workloads")
    return tuple(names)


def parse_request(doc, default_engine: str = None,
                  default_machine: str = None) -> ServeRequest:
    """Parse a submission body into a validated request.

    ``doc`` is ``{"command": <name>, "params": {...}}``.
    ``default_engine`` (the server's ``--engine`` flag) fills in the
    ``engine`` field of requests that have one and did not set it —
    ``repro serve --engine auto`` is what turns co-queued budget-only
    characterize jobs into fused batch lanes.  ``default_machine``
    (the server's ``--machine`` flag) likewise fills in an unset
    ``machine`` field, turning the server into a dedicated backend for
    one machine.
    """
    if not isinstance(doc, dict):
        raise api.ApiError("request body must be a JSON object like "
                           '{"command": ..., "params": {...}}')
    extra = sorted(set(doc) - {"command", "params"})
    if extra:
        raise api.ApiError(f"unknown request key(s) {', '.join(extra)};"
                           " expected 'command' and 'params'")
    command = doc.get("command")
    if command not in COMMANDS:
        raise api.ApiError(
            f"unknown command {command!r}; choose from "
            f"{', '.join(sorted(COMMANDS))}")
    cls = COMMANDS[command]
    params = doc.get("params") or {}
    names = {spec.name for spec in fields(cls)}
    if default_engine is not None and isinstance(params, dict) \
            and "engine" in names and params.get("engine") is None:
        params = {**params, "engine": default_engine}
    if default_machine is not None and isinstance(params, dict) \
            and "machine" in names and params.get("machine") is None:
        params = {**params, "machine": default_machine}
    return cls.from_payload(params)


def request_key(request: ServeRequest, code: str = None) -> str:
    """The content address of one canonicalized service request."""
    payload = {
        "schema": SERVE_SCHEMA,
        "code": code_version() if code is None else code,
        "command": request.command,
        "params": request.canonical(),
    }
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
