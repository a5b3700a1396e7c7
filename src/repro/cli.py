"""Command-line interface: ``python -m repro <command>``.

A thin argparse shell over :mod:`repro.api` — every handler parses
flags, calls one facade function, and renders the result.  Validation
errors surface as :class:`repro.api.ApiError` and exit with code 2;
result failures (inexact kernels, a failed claim check, a divergence)
exit with code 1.

Commands:

* ``characterize`` — the paper's measurement campaign: run the five
  workloads, form the composite, print the requested tables.
* ``run-workload`` — run a single workload environment and summarise it.
* ``hotspots`` — rank the hottest control-store locations (raw-histogram
  view).
* ``disasm`` — assemble a VAX MACRO source file and print its listing.
* ``figure1`` — render the 11/780 block diagram from the machine model.
* ``profiles`` — list the paper's five workload profiles (the
  historical subset of ``workloads``).
* ``workloads`` — list the full workload registry
  (:mod:`repro.workloads.registry`): name, generator class, and
  per-machine support for every registered workload — the paper's
  five, the synthetic zoo, and any ingested traces.
* ``record-trace`` — record one workload run to a versioned
  instruction-trace file; replaying the file is bit-identical to the
  recording, and the trace registers as a first-class workload.
* ``machines`` — list the registered machine backends
  (:mod:`repro.machines`): the paper's 11/780 and the MicroVAX 78032
  subset machine, selectable everywhere via ``--machine``.
* ``ubench`` — run the microbenchmark kernel sweep (per-instruction
  cycle characterization, measured vs. analytical model).
* ``explore`` — design-space sweep: simulate MachineParams variations
  (§5's engineering what-ifs) with a persistent result store and print
  sensitivity tables.
* ``validate`` — conservation-invariant checks on the five workloads
  plus fastpath-vs-reference differential fuzzing.
* ``refute`` — assumption-refutation campaign: sweep the configuration
  space hunting for violations of every registered assumption, shrink
  each to a minimal reproducer, self-check with planted bugs, and emit
  ``REFUTATIONS.json`` (see :mod:`repro.refute`).
* ``serve`` — run the simulation service: an async HTTP job server
  with a shared result cache, bounded queue, and backpressure (see
  :mod:`repro.serve`).
* ``submit`` — submit one job to a running server and wait for the
  result.

Every command accepts the shared flags ``--jobs``, ``--seed``,
``--json``, ``--smoke``, ``--store``, ``--engine``, ``--machine``,
``--obs DIR`` and ``--heartbeat SECS``; the obs pair wraps the run in a
:class:`repro.obs.Observation` (live JSONL events, metrics snapshot,
Chrome trace, flamegraph, liveness lines on stderr) without changing a
single simulated count.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import api, obs

#: (flags, kwargs) for every shared option; the parent parser is built
#: from this table and the consistency test in ``tests/test_cli_flags``
#: checks each subcommand against it.
SHARED_FLAGS = (
    (("--jobs",), dict(
        type=int, default=None, metavar="N",
        help="worker processes for parallel fan-out (default 1 = "
             "serial; results are bit-identical either way)")),
    (("--seed",), dict(
        type=int, default=None, metavar="SEED",
        help="workload seed (default: 1984, or the sweep spec's)")),
    (("--json",), dict(
        default=None, metavar="PATH",
        help="also write a machine-readable JSON document to PATH")),
    (("--smoke",), dict(
        action="store_true",
        help="small fixed budgets / subsets (CI smoke run)")),
    (("--store",), dict(
        default=None, metavar="DIR",
        help="explore result store directory "
             "(default: .explore/store)")),
    (("--engine",), dict(
        default=None, metavar="ENGINE",
        help="engine name: scalar (default), batch or auto; aliases "
             "with bit-identical results (budget-only runs always "
             "fuse), validated before anything simulates; on "
             "validate, batch fuzzes multi-capture runs")),
    (("--machine",), dict(
        default=None, metavar="NAME",
        help="machine backend: vax780 (default, the paper's machine) "
             "or uvax78032 (MicroVAX subset VAX); see 'repro "
             "machines'; validated before anything simulates")),
    (("--obs",), dict(
        default=None, metavar="DIR",
        help="write observability artifacts (events.jsonl, "
             "metrics.json, trace.json, flamegraph.collapsed) to DIR")),
    (("--heartbeat",), dict(
        type=float, default=None, metavar="SECS",
        help="print a liveness line to stderr every SECS seconds")),
)


def _version() -> str:
    """Package version: installed metadata, else the source tree's."""
    try:
        from importlib.metadata import version
        return version("repro")
    except Exception:
        import repro
        return getattr(repro, "__version__", "unknown")


def _shared_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("shared options")
    for flags, kwargs in SHARED_FLAGS:
        group.add_argument(*flags, **kwargs)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VAX-11/780 characterization study reproduction "
                    "(Emer & Clark, ISCA 1984)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_version()}")
    parent = _shared_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    characterize = sub.add_parser(
        "characterize", parents=[parent],
        help="run the five-workload composite and print the paper's "
             "tables")
    characterize.add_argument("--instructions", type=int, default=None,
                              help="measured instructions per workload "
                                   "(default 30000; --smoke: 2000)")
    characterize.add_argument("--table", default="all",
                              help="which table: 1-9, s4, or 'all'")
    characterize.add_argument(
        "--paranoid", action="store_true",
        help="sample conservation-invariant checks during the runs "
             "(passive; forces --jobs 1)")
    characterize.add_argument(
        "--workloads", default=None, metavar="A,B,...",
        help="composite over these registered workloads instead of "
             "the paper's five ('all' = every generator workload the "
             "machine supports; see 'repro workloads')")

    one = sub.add_parser("run-workload", parents=[parent],
                         help="run one workload environment")
    one.add_argument("workload",
                     help="workload name (see 'repro workloads'), or "
                          "trace:PATH for a recorded trace file")
    one.add_argument("--instructions", type=int, default=None,
                     help="measured instructions "
                          "(default 30000; --smoke: 2000)")
    one.add_argument("--paranoid", action="store_true",
                     help="sample conservation-invariant checks "
                          "during the run (passive)")

    hotspots = sub.add_parser("hotspots", parents=[parent],
                              help="hottest control-store locations")
    hotspots.add_argument("--instructions", type=int, default=20_000)
    hotspots.add_argument("--top", type=int, default=20)

    disasm = sub.add_parser("disasm", parents=[parent],
                            help="assemble a source file and list it")
    disasm.add_argument("source", help="VAX MACRO source file")
    disasm.add_argument("--base", type=lambda v: int(v, 0),
                        default=0x200, help="assembly base address")

    sub.add_parser("figure1", parents=[parent],
                   help="render the block diagram")
    sub.add_parser("profiles", parents=[parent],
                   help="list the paper's five workload profiles")
    sub.add_parser("machines", parents=[parent],
                   help="list the registered machine backends")
    sub.add_parser("workloads", parents=[parent],
                   help="list the workload registry: name, class, and "
                        "per-machine support")

    record = sub.add_parser(
        "record-trace", parents=[parent],
        help="record one workload run to a replayable trace file and "
             "register it as a workload")
    record.add_argument("workload",
                        help="source workload to record "
                             "(see 'repro workloads')")
    record.add_argument("--out", default=None, metavar="PATH",
                        help="trace file to write "
                             "(default: <workload>.rprt)")
    record.add_argument("--instructions", type=int, default=None,
                        help="measured instructions to record "
                             "(default 30000; --smoke: 2000)")
    record.add_argument("--name", default=None, metavar="NAME",
                        help="registry name for the trace workload "
                             "(default: trace-<workload>)")
    record.add_argument("--no-register", dest="register",
                        action="store_false", default=True,
                        help="write the file without registering the "
                             "trace as a workload")

    ubench = sub.add_parser(
        "ubench", parents=[parent],
        help="microbenchmark sweep: per-instruction cycles, "
             "measured vs. analytical model")
    ubench.add_argument("--group", default=None,
                        help="only kernels of one opcode group "
                             "(simple, field, float, callret, system, "
                             "character, decimal)")
    ubench.add_argument("--mode", default=None,
                        help="only kernels of one operand-specifier "
                             "mode (e.g. register, immediate, "
                             "displacement-byte)")
    ubench.add_argument("--variant", default=None,
                        choices=("warm", "cold"),
                        help="only warm or cold cache/TB kernels")
    ubench.add_argument("--no-check", dest="check", action="store_false",
                        help="skip the composite consistency pass")
    ubench.add_argument("--check-instructions", type=int, default=20_000,
                        help="instructions per workload for the "
                             "consistency composite")

    explore = sub.add_parser(
        "explore", parents=[parent],
        help="design-space sweep over MachineParams axes with a "
             "persistent result store")
    explore.add_argument("--spec", default="paper-sensitivity",
                         help="named sweep spec (paper-sensitivity, "
                              "smoke)")
    explore.add_argument("--axis", action="append", default=[],
                         metavar="NAME=V1,V2,...",
                         help="sweep axis (repeatable); replaces the "
                              "spec's axes")
    explore.add_argument("--mode", default=None,
                         choices=("ofat", "cartesian"),
                         help="point enumeration: one-factor-at-a-time "
                              "or the full grid (default: the spec's)")
    explore.add_argument("--points", action="store_true",
                         help="list the enumerated points and their "
                              "store status without simulating")
    explore.add_argument("--instructions", type=int, default=None,
                         help="measured instructions per workload "
                              "(default: the spec's)")
    explore.add_argument("--resume", action="store_true", default=True,
                         help="reuse stored results (default)")
    explore.add_argument("--no-resume", dest="resume",
                         action="store_false",
                         help="re-simulate every point (the store is "
                              "still updated)")
    explore.add_argument("--no-store", dest="use_store",
                         action="store_false", default=True,
                         help="do not read or write the result store")

    validate = sub.add_parser(
        "validate", parents=[parent],
        help="conservation-invariant checks and fastpath-vs-reference "
             "differential fuzzing")
    validate.add_argument("--instructions", type=int, default=None,
                          help="measured instructions per workload for "
                               "the invariant pass "
                               "(default 20000; --smoke: 2000)")
    validate.add_argument("--fuzz", type=int, default=0, metavar="N",
                          help="differential fuzz cases to run "
                               "(0 = invariants only)")
    validate.add_argument("--fuzz-instructions", type=int, default=400,
                          help="measured instructions per fuzz case")
    validate.add_argument(
        "--workloads", default=None, metavar="A,B,...",
        help="run the invariant pass over these registered workloads "
             "instead of the paper's five ('all' = every generator "
             "workload the machine supports)")

    refute = sub.add_parser(
        "refute", parents=[parent],
        help="assumption-refutation campaign: hunt, shrink, and file "
             "model/simulator divergences (REFUTATIONS.json)")
    refute.add_argument("--campaign", default=None,
                        help="named campaign: standard (default) or "
                             "smoke (--smoke is shorthand)")
    refute.add_argument("--plant", default=None, metavar="NAME",
                        help="install one named perturbation for the "
                             "campaign (the run must then catch it); "
                             "see repro.refute.perturbation_names()")
    refute.add_argument("--no-self-check", dest="self_check",
                        action="store_false", default=True,
                        help="skip the planted-bug self-check that "
                             "normally follows a clean campaign")

    serve = sub.add_parser(
        "serve", parents=[parent],
        help="run the simulation service (async job server with a "
             "shared cache, queueing, and backpressure)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (0 = ephemeral; the actual port "
                            "is printed at startup)")
    serve.add_argument("--queue-size", type=int, default=64,
                       help="bounded job queue depth; a full queue "
                            "answers 429 + Retry-After")
    serve.add_argument("--rate", type=float, default=None,
                       metavar="PER_SEC",
                       help="per-client submission rate limit "
                            "(default: unlimited)")
    serve.add_argument("--burst", type=int, default=8,
                       help="per-client token-bucket capacity")
    serve.add_argument("--job-timeout", type=float, default=None,
                       metavar="SECS",
                       help="per-round execution timeout; timed-out "
                            "jobs retry once, then fail")
    serve.add_argument("--no-store", dest="use_store",
                       action="store_false", default=True,
                       help="serve without the persistent result cache "
                            "(in-flight coalescing still applies)")

    submit = sub.add_parser(
        "submit", parents=[parent],
        help="submit one job to a running server")
    submit.add_argument("job_command", metavar="COMMAND",
                        help="service command: characterize, "
                             "run-workload, ubench, explore, validate")
    submit.add_argument("--param", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="job parameter (repeatable); VALUE is "
                             "parsed as JSON, falling back to a string")
    submit.add_argument("--url", default="http://127.0.0.1:8080",
                        help="server address")
    submit.add_argument("--client-name", default=None, metavar="NAME",
                        help="client identity for rate limiting "
                             "(X-Repro-Client header)")
    submit.add_argument("--no-wait", dest="wait", action="store_false",
                        default=True,
                        help="return the queued job id immediately "
                             "instead of polling for the result")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="seconds to wait for the job to finish")
    return parser


def _seed(args) -> int:
    return 1984 if args.seed is None else args.seed


def _jobs(args) -> int:
    return 1 if args.jobs is None else args.jobs


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {path}")


def _workload_list(value):
    """Parse a ``--workloads`` flag: comma list, 'all', or None."""
    if value is None or value == "all":
        return value
    return tuple(name.strip() for name in value.split(",")
                 if name.strip())


def _cmd_characterize(args) -> int:
    result = api.characterize(instructions=args.instructions,
                              seed=_seed(args), jobs=_jobs(args),
                              paranoid=args.paranoid, table=args.table,
                              smoke=args.smoke, engine=args.engine,
                              machine=args.machine,
                              workloads=_workload_list(args.workloads))
    for entry in result.tables:
        print(entry["text"])
        print()
    if args.json:
        _write_json(args.json, result.to_json())
    return 0


def _cmd_run_workload(args) -> int:
    result = api.run_workload(args.workload,
                              instructions=args.instructions,
                              seed=_seed(args), paranoid=args.paranoid,
                              smoke=args.smoke, machine=args.machine)
    print(f"workload:  {result.profile}")
    print(f"machine:   {result.machine}")
    print(f"           {result.description}")
    print(f"instructions measured: {result.instructions_measured}")
    print(f"cycles per instruction: "
          f"{result.cycles_per_instruction:.2f}")
    print()
    print(result.table1_text)
    if args.json:
        _write_json(args.json, result.to_json())
    return 0


def _cmd_hotspots(args) -> int:
    result = api.hotspots(instructions=args.instructions, top=args.top,
                          seed=_seed(args), smoke=args.smoke)
    print(f"{'uPC':>5s} {'cycles':>10s} {'%':>6s}  {'row':12s} "
          f"routine.slot")
    for row in result.rows:
        print(f"{row['address']:5d} {row['cycles']:10d} "
              f"{row['percent']:6.2f}  {row['row']:12s} "
              f"{row['routine']}.{row['slot']}")
    if args.json:
        _write_json(args.json, result.to_json())
    return 0


def _cmd_disasm(args) -> int:
    with open(args.source) as handle:
        source = handle.read()
    result = api.disasm(source, base=args.base)
    for line in result.lines:
        print(line)
    if args.json:
        _write_json(args.json, result.to_json())
    return 0


def _cmd_figure1(args) -> int:
    result = api.figure1()
    print(result.text)
    if args.json:
        _write_json(args.json, result.to_json())
    return 0


def _cmd_profiles(args) -> int:
    result = api.profiles()
    for profile in result.profiles:
        print(f"{profile['name']:24s} {profile['description']}")
    if args.json:
        _write_json(args.json, result.to_json())
    return 0


def _cmd_workloads(args) -> int:
    result = api.workloads()
    machines = sorted({machine for entry in result.workloads
                       for machine in entry["supported"]})
    header = f"{'workload':24s} {'class':10s} {'kind':10s} " \
             + " ".join(f"{name:>10s}" for name in machines)
    print(header)
    for entry in result.workloads:
        marker = "*" if entry["name"] == result.default else " "
        support = " ".join(
            f"{'yes' if entry['supported'][name] else 'no':>10s}"
            for name in machines)
        print(f"{marker}{entry['name']:23s} {entry['generator']:10s} "
              f"{entry['kind']:10s} {support}")
    print(f"\n{result.count} workloads; * = default "
          "(select with 'run-workload NAME')")
    if args.json:
        _write_json(args.json, result.to_json())
    return 0


def _cmd_record_trace(args) -> int:
    out = args.out or f"{args.workload}.rprt"
    result = api.record_trace(args.workload, path=out,
                              instructions=args.instructions,
                              seed=_seed(args), machine=args.machine,
                              name=args.name, smoke=args.smoke,
                              register=args.register)
    print(f"recorded:  {result.source} -> {result.path}")
    print(f"machine:   {result.machine}  seed: {result.seed}  "
          f"instructions: {result.instructions}")
    print(f"events:    {result.events}  cycles: {result.cycles}")
    print(f"sha256:    {result.file_sha256}")
    if result.registered:
        print(f"registered as workload: {result.workload}")
    if args.json:
        _write_json(args.json, result.to_json())
    return 0


def _cmd_machines(args) -> int:
    result = api.machines()
    for machine in result.machines:
        marker = "*" if machine["default"] else " "
        print(f"{marker} {machine['name']:12s} "
              f"(nominal CPI ~{machine['cpi_nominal']:.1f}) "
              f"{machine['description']}")
    print("\n* = default backend; select with --machine NAME")
    if args.json:
        _write_json(args.json, result.to_json())
    return 0


def _cmd_ubench(args) -> int:
    from repro.report.ubench import render_ubench, ubench_json

    result = api.ubench(group=args.group, mode=args.mode,
                        variant=args.variant, smoke=args.smoke,
                        jobs=_jobs(args), check=args.check,
                        check_instructions=args.check_instructions,
                        seed=_seed(args), machine=args.machine)
    print(render_ubench(list(result.results), result.check))
    if args.json:
        _write_json(args.json, ubench_json(
            list(result.results), result.check, meta={
                "suite": result.suite,
                "kernel_count": result.kernel_count,
                "seed": result.seed,
                "machine": result.machine,
            }))
    if result.failed:
        print(f"inexact kernels: {', '.join(result.failed)}",
              file=sys.stderr)
        return 1
    if result.check_ok is False:
        print("consistency check failed (see table above)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_explore(args) -> int:
    from repro.report.explore import explore_json, render_sensitivity

    store = (args.store or ".explore/store") if args.use_store else None
    if args.points:
        listing = api.explore_points(
            spec=args.spec, axes=args.axis, mode=args.mode,
            instructions=args.instructions, seed=args.seed,
            smoke=args.smoke, store=store, machine=args.machine)
        print(f"spec '{listing.spec}' ({listing.mode}): "
              f"{len(listing.points)} points x "
              f"{listing.workloads} workloads")
        for point in listing.points:
            print(f"  {point['label']:40s} {point['cached']}/"
                  f"{listing.workloads} cached")
        if args.json:
            _write_json(args.json, listing.to_json())
        return 0

    result = api.explore(
        spec=args.spec, axes=args.axis, mode=args.mode,
        instructions=args.instructions, seed=args.seed,
        smoke=args.smoke, store=store, resume=args.resume,
        jobs=_jobs(args), engine=args.engine, machine=args.machine,
        progress=lambda line: print(line, file=sys.stderr))
    print(render_sensitivity(result.report, result.stats))
    if args.json:
        from repro.explore import code_version
        from repro.explore.store import ResultStore

        _write_json(args.json, explore_json(result.sweep, result.report,
                                            meta={
            "spec": result.spec,
            "store": store,
            "store_stats": ResultStore(store).stats()
            if store is not None else None,
            "engine": result.engine,
            "code_version": code_version(),
        }))
    if result.decode_claim_ok is False:
        print("overlapped-decode claim check failed (see above)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args) -> int:
    from repro.report.validate import render_validate, validate_json

    result = api.validate(instructions=args.instructions,
                          fuzz_cases=args.fuzz,
                          fuzz_instructions=args.fuzz_instructions,
                          seed=_seed(args), smoke=args.smoke,
                          jobs=_jobs(args),
                          engine=args.engine, machine=args.machine,
                          workloads=_workload_list(args.workloads),
                          progress=lambda line: print(line,
                                                      file=sys.stderr))
    print(render_validate(list(result.reports),
                          list(result.fuzz_results)))
    if args.json:
        _write_json(args.json, validate_json(
            list(result.reports), list(result.fuzz_results), meta={
                "instructions": result.instructions,
                "fuzz_cases": result.fuzz_cases,
                "fuzz_instructions": result.fuzz_instructions,
                "seed": result.seed,
                "smoke": result.smoke,
                "machine": result.machine,
            }))
    return 0 if result.ok else 1


def _cmd_refute(args) -> int:
    from repro.report.refute import refute_json, render_refute

    result = api.refute(campaign=args.campaign, smoke=args.smoke,
                        seed=args.seed, jobs=_jobs(args),
                        store=args.store or ".explore/store",
                        self_check=args.self_check, plant=args.plant,
                        progress=lambda line: print(line,
                                                    file=sys.stderr))
    print(render_refute(result.campaign_result, result.planted))
    if args.json:
        _write_json(args.json, refute_json(result.campaign_result,
                                           result.planted))
    return 0 if result.ok else 1


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.serve import JobServer, ServeConfig
    from repro.serve.canonical import _engine, _machine

    if args.engine is not None:
        _engine(args.engine)        # fail at startup, not per request
    if args.machine is not None:
        _machine(args.machine)      # likewise
    config = ServeConfig(
        host=args.host, port=args.port, queue_size=args.queue_size,
        workers=_jobs(args), rate=args.rate, burst=args.burst,
        store=(args.store or ".explore/store") if args.use_store
        else None,
        engine=args.engine, machine=args.machine,
        job_timeout=args.job_timeout)

    async def run() -> None:
        server = JobServer(config)
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, server.request_drain)
        print(f"repro.serve listening on "
              f"http://{config.host}:{server.port}", flush=True)
        await server.serve_forever()
        print("repro.serve drained and stopped", flush=True)

    asyncio.run(run())
    return 0


def _cmd_submit(args) -> int:
    from repro.serve.canonical import COMMANDS
    from repro.serve.client import ServeClient, ServeError

    cls = COMMANDS.get(args.job_command)
    if cls is None:
        raise api.ApiError(
            f"unknown command {args.job_command!r}; choose from "
            f"{', '.join(sorted(COMMANDS))}")
    params = {}
    for item in args.param:
        name, sep, value = item.partition("=")
        if not sep:
            raise api.ApiError(
                f"--param expects NAME=VALUE, got {item!r}")
        try:
            params[name] = json.loads(value)
        except json.JSONDecodeError:
            params[name] = value
    from dataclasses import fields

    names = {spec.name for spec in fields(cls)}
    for flag in ("seed", "jobs", "engine", "machine"):
        value = getattr(args, flag)
        if value is not None and flag in names and flag not in params:
            params[flag] = value
    if args.smoke and "smoke" in names and "smoke" not in params:
        params["smoke"] = True
    cls.from_payload(params)        # reject bad params before the wire
    client = ServeClient(url=args.url, name=args.client_name)
    try:
        job = client.submit(args.job_command, params, wait=args.wait,
                            timeout=args.timeout)
    except ServeError as exc:
        print(str(exc), file=sys.stderr)
        if exc.retry_after is not None:
            print(f"retry after {exc.retry_after}s", file=sys.stderr)
        return 1
    note = " (cache hit)" if job.get("cached") else ""
    print(f"job {job['id']}: {job['status']}{note}")
    if args.json:
        _write_json(args.json, job)
    return 0


_COMMANDS = {
    "characterize": _cmd_characterize,
    "run-workload": _cmd_run_workload,
    "hotspots": _cmd_hotspots,
    "disasm": _cmd_disasm,
    "figure1": _cmd_figure1,
    "profiles": _cmd_profiles,
    "workloads": _cmd_workloads,
    "record-trace": _cmd_record_trace,
    "machines": _cmd_machines,
    "ubench": _cmd_ubench,
    "explore": _cmd_explore,
    "validate": _cmd_validate,
    "refute": _cmd_refute,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
}


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        if args.obs is not None or args.heartbeat is not None:
            with obs.observe(args.obs, heartbeat=args.heartbeat,
                             label=args.command) as observation:
                code = handler(args)
            for name, path in sorted(observation.outputs.items()):
                print(f"obs: wrote {name}: {path}", file=sys.stderr)
            return code
        return handler(args)
    except api.ApiError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
