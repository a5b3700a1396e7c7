#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload composite --seed 1984 \\
        --seconds 30 --trace 0

runs one workload from the root of a checkout, checks every output,
prints each metric by name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones (tracing off); with ``--trace 1``
untraced and traced sessions alternate and the metrics are the
per-layer ones from the traced sessions, plus the tracing and ``obs``
overheads.  README.md beside this file defines every metric.

Workloads (why each exists is in BENCHMARK.json):

``composite``  the paper's campaign, ``repro.api.characterize`` at 60k
               instructions per workload — bound by the cpu run loop.
``sweep``      a cold ``repro.explore.run_sweep`` into a fresh store,
               then warm re-runs over it — bound by construction.
``serve``      ``python -m repro serve`` driven over HTTP by one
               closed-loop client with a seeded request stream.

Each session (one timed iteration) is a fresh interpreter in a fresh
working directory with a fresh store, like a command-line user's
invocation; nothing cached carries over between sessions.  Set-up time
(``setup_s``) is the median of five fresh starts of the workload's
entry point, taken before the timed window.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import pace  # noqa: E402  (this directory is sys.path[0])
from session import digest  # noqa: E402

#: The paper's composite CPI (Table 8), for ``cpi_rel_err``.
PAPER_CPI = 10.593
#: The composite's cycle count at 60k instructions, seed 1984 (vax780).
ANCHOR_CYCLES = {(60_000, 1984): 2_082_708}
#: No run may approach the 180 s limit: no session starts after this.
LAST_START_S = 120.0
#: Fresh starts timed for ``setup_s`` (its median is reported).
SETUP_REPEATS = 5
#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10
#: Client poll interval while a served job runs.  Latency is read from
#: the job document's ``finished`` stamp, so it never includes this.
POLL_S = 0.01
LATENCY_SOURCE = ("job document timestamps: finished - due; "
                  f"poll {POLL_S * 1000:g} ms only detects completion")
#: Per-layer self times reported by the traced sessions.
LAYER_METRICS = {
    "machines": "machines.build_s",
    "osim.executive": "osim.executive_s",
    "osim.run": "osim.run_s",
    "batch.run": "batch.run_s",
    "analysis.capture": "analysis.capture_s",
    "analysis.reduce": "analysis.reduce_s",
    "report.render": "report.render_s",
    "explore.store_get": "explore.store_get_s",
    "explore.store_put": "explore.store_put_s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, dead session)."""


# -- workload inputs -------------------------------------------------------


def paper_workloads() -> list:
    from repro.workloads.registry import paper_workload_names

    return list(paper_workload_names())


def make_spec(workload: str, seed: int, tiny: bool) -> dict:
    """The workload's inputs; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "composite":
        instructions = 400 if tiny else 60_000
        return {"kind": "composite", "instructions": instructions,
                "seed": seed, "machine": "vax780",
                "warm_repeats": 12 if tiny else 100,
                "expect_cycles": ANCHOR_CYCLES.get((instructions, seed))}
    if workload == "sweep":
        budgets = [200, 400] if tiny else [500, 1000]
        return {"kind": "sweep", "seed": seed,
                "workloads": paper_workloads()[:2 if tiny else 5],
                "axes": [["instructions", budgets],
                         ["overlapped_decode", [False, True]],
                         ["machine", ["vax780", "uvax78032"]]],
                "warm_repeats": 12 if tiny else 100}
    return serve_spec(rng, seed, tiny)


def serve_spec(rng: random.Random, seed: int, tiny: bool) -> dict:
    """A seeded closed-loop request stream built from the repository's
    own uses of the server.

    Steps run one after another; a step is one request, or a burst
    submitted before waiting.  A round replays, once each, the four
    request patterns the repository runs against ``repro serve``:

    ``smoke``     ``tools/serve_smoke.py`` and the README's curl and
                  ``repro submit`` session: ``characterize`` with
                  ``smoke`` and table 4.
    ``fusion``    ``tests/serve/test_fusion.py``: budget-only
                  ``characterize`` variants at 400, 600 and 800
                  instructions, table 4, submitted together (they fuse).
    ``coalesce``  ``tests/serve/test_server.py``: four identical
                  ``characterize`` requests at 500 instructions, table
                  4, submitted together (three coalesce onto the first).
    ``workload``  the README's ``run-workload ... --smoke`` and
                  ``tests/serve/test_machine_key.py``: one paper
                  workload on one machine.

    After each pattern every distinct request of it is submitted once
    more and must be a store hit, as in ``tools/serve_smoke.py`` and the
    README's session (hit rate 0.5).  The seed picks the order of the
    patterns, the workload and machine of ``workload``, and the
    simulation seeds (one per pattern, so patterns never share a store
    entry).  No request names an engine.
    """
    fusion = (100, 150, 200) if tiny else (400, 600, 800)
    coalesce = 150 if tiny else 500
    smoke = {"instructions": 200} if tiny else {"smoke": True}
    names = paper_workloads()
    patterns = []
    for _round in range(1 if tiny else 2):
        patterns += rng.sample(["smoke", "fusion", "coalesce", "workload"],
                               4)
    steps = []
    for index, pattern in enumerate(patterns):
        point = {"seed": seed + index, "table": "4"}
        if pattern == "smoke":
            burst = [{"command": "characterize",
                      "params": dict(point, **smoke)}]
        elif pattern == "fusion":
            burst = [{"command": "characterize",
                      "params": dict(point, instructions=budget)}
                     for budget in fusion]
        elif pattern == "coalesce":
            burst = [{"command": "characterize",
                      "params": dict(point, instructions=coalesce)}] * 4
        else:
            burst = [{"command": "run-workload", "params": dict(
                smoke, workload=rng.choice(names), seed=seed + index,
                machine=rng.choice(["vax780", "uvax78032"]))}]
        steps.append(burst)
        distinct = {digest(request): request for request in burst}
        steps.extend([request] for request in distinct.values())
    return {"kind": "serve", "seed": seed, "engine": "auto",
            "steps": steps}


# -- processes -------------------------------------------------------------


class Bench:
    """One benchmark run: its directory, environment and sessions."""

    def __init__(self, args) -> None:
        self.args = args
        self.started = time.monotonic()
        self.dir = ROOT / ".perfbench" / (
            f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "tmp").mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        PYTHONHASHSEED="0", TMPDIR=str(self.dir / "tmp"))
        self.counter = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def fresh_dir(self, label: str) -> Path:
        self.counter += 1
        path = self.dir / f"{self.counter:03d}-{label}"
        path.mkdir()
        return path

    def deadline(self) -> float:
        return max(10.0, 170.0 - self.elapsed())

    def spawn(self, argv, cwd: Path, **kwargs) -> subprocess.Popen:
        return subprocess.Popen([sys.executable] + argv, cwd=cwd,
                                env=self.env, **kwargs)

    def reap(self, proc: subprocess.Popen, timeout: float):
        """Wait for ``proc``; returns (exit code, peak RSS in MB).

        Times come from the process's own stamps, so a coarse poll
        costs no accuracy, and it leaves the shared vCPU to the work."""
        limit = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage.ru_maxrss / 1024.0
            if time.monotonic() > limit:
                os.kill(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                raise BenchError(f"{proc.args} timed out after "
                                 f"{timeout:.0f}s")
            time.sleep(0.05)

    def session(self, job: dict) -> dict:
        """Run perfbench/session.py on ``job`` in a fresh directory."""
        cwd = self.fresh_dir(job["kind"])
        (cwd / "job.json").write_text(json.dumps(job))
        with open(cwd / "stderr.txt", "w") as err:
            spawned = time.time()
            proc = self.spawn([str(HERE / "session.py"), "job.json",
                               "out.json"], cwd, stdout=err, stderr=err)
            code, rss = self.reap(proc, self.deadline())
        if code != 0:
            raise BenchError(f"{job['kind']} session exited {code}:\n"
                             + (cwd / "stderr.txt").read_text()[-2000:])
        out = json.loads((cwd / "out.json").read_text())
        samples = out.pop("pace")
        scale = out["pace_factor"] = pace.factor(samples)
        out["raw_wall"] = out["done_at"] - spawned
        out["wall"] = pace.paced(samples, spawned, out["done_at"], scale)
        if "started_at" in out:
            out["startup"] = pace.paced(samples, spawned,
                                        out["started_at"], scale)
        if "cold" in out:
            out["cold"] = [value * scale for value in out["cold"]]
            local = pace.local_factor(samples, *out.pop("warm_window"))
            out["warm"] = [value * local for value in out["warm"]]
        out["rss_mb"] = rss - (pace.ARENA_MB if samples else 0.0)
        return out

    def server(self, cwd: Path, traced: bool = False,
               observed: bool = False):
        """Start ``repro serve`` (paced; optionally traced/observed) in
        ``cwd``."""
        argv = [str(HERE / "pace.py"), "pace.json"]
        if traced:
            argv += ["--trace", "trace.json"]
        argv += ["-m", "repro", "serve", "--port", "0", "--store", "store",
                 "--jobs", "1", "--engine", "auto"]
        if observed:
            argv += ["--obs", "obs"]
        err = open(cwd / "stderr.txt", "w")
        spawned = time.time()
        proc = self.spawn(argv, cwd, stdout=subprocess.PIPE, stderr=err,
                          text=True)
        line = proc.stdout.readline()
        if "listening on " not in line:
            os.kill(proc.pid, signal.SIGKILL)
            self.reap(proc, 30)
            err.close()
            raise BenchError("server did not start:\n"
                             + (cwd / "stderr.txt").read_text()[-2000:])
        return proc, err, spawned, time.time(), \
            line.split("listening on ", 1)[1].strip()

    def stop_server(self, proc, err, cwd: Path):
        """Drain the server with SIGTERM; returns its peak RSS in MB and
        its pace samples."""
        os.kill(proc.pid, signal.SIGTERM)
        try:
            code, rss = self.reap(proc, 60)
        finally:
            proc.stdout.close()
            err.close()
        if code != 0:
            raise BenchError(f"server exited {code} after SIGTERM")
        return rss - pace.ARENA_MB, json.loads(
            (cwd / "pace.json").read_text())


# -- sessions per workload -------------------------------------------------


def setup_times(bench: Bench, spec: dict) -> list:
    """Fresh starts of the workload's entry point (set-up)."""
    times = []
    for _ in range(SETUP_REPEATS):
        if spec["kind"] == "serve":
            cwd = bench.fresh_dir("setup")
            proc, err, spawned, ready, _url = bench.server(cwd)
            _rss, samples = bench.stop_server(proc, err, cwd)
            times.append(pace.paced(samples, spawned, ready))
        else:
            module = {"composite": "repro.api",
                      "sweep": "repro.explore"}[spec["kind"]]
            out = bench.session({"kind": "ready", "module": module})
            times.append(out["wall"])
    return times


def serve_session(bench: Bench, spec: dict, traced: bool = False,
                  observed: bool = False) -> dict:
    """One server lifetime driven through the whole request stream."""
    from repro.serve.client import ServeClient, ServeError

    cwd = bench.fresh_dir("serve")
    proc, err, spawned, ready, url = bench.server(cwd, traced, observed)
    client = ServeClient(url=url, timeout=60.0)
    ops = []
    try:
        for step in spec["steps"]:
            due = time.time()
            submitted = []
            for request in step:
                op = {"request": digest(request), "due": due}
                try:
                    doc = client.submit(request["command"],
                                        request["params"], wait=False)
                except ServeError as exc:
                    op.update(ok=False, error=str(exc))
                    ops.append(op)
                    continue
                op.update(ok=True, id=doc["id"], answered=time.time())
                op["cached"] = doc.get("cached", False)
                op["coalesced"] = any(doc["id"] == prior["id"]
                                      for prior in submitted)
                submitted.append(op)
                ops.append(op)
                op["doc"] = doc
            for op in submitted:
                doc = op["doc"]
                while doc["status"] not in ("done", "failed"):
                    time.sleep(POLL_S)
                    doc = client.job(op["id"])
                op["doc"] = doc
        done_at = time.time()
        server_metrics = client.metrics()
    finally:
        rss, samples = bench.stop_server(proc, err, cwd)
    scale = pace.factor(samples)

    def paced(start, end):
        return pace.paced(samples, start, end, scale)

    out = {"wall": paced(spawned, done_at), "raw_wall": done_at - spawned,
           "pace_factor": scale, "startup": paced(spawned, ready),
           "rss_mb": rss, "metrics":
           server_metrics, "cold": [], "warm": [], "ops": [],
           "instructions": 0}
    for op in ops:
        doc = op.pop("doc", None)
        if not op["ok"]:
            out["ops"].append(op)
            continue
        op["ok"] = doc["status"] == "done"
        op["digest"] = digest(doc.get("result"))
        if op["cached"]:
            op["kind"] = "warm"
            op["latency"] = paced(op["due"], op["answered"])
            out["warm"].append(op["latency"])
        else:
            op["kind"] = "coalesced" if op["coalesced"] else "cold"
            op["latency"] = paced(op["due"], doc["finished"])
            op["queue_wait"] = doc["started"] - doc["created"]
            op["execute"] = doc.get("seconds") or 0.0
            out["cold"].append(op["latency"])
            if op["kind"] == "cold" and op["ok"]:
                out["instructions"] += doc["result"].get(
                    "instructions_measured", 0)
        out["ops"].append(op)
    if traced:
        out["trace"] = json.loads((cwd / "trace.json").read_text())
    return out


def run_session(bench: Bench, spec: dict, traced=False,
                observed=False) -> dict:
    if spec["kind"] == "serve":
        return serve_session(bench, spec, traced, observed)
    return bench.session(dict(spec, trace=traced, observe=observed))


def serve_requests(spec: dict) -> list:
    """The distinct requests of a serve stream, in first-seen order."""
    seen = {}
    for step in spec["steps"]:
        for request in step:
            seen.setdefault(digest(request), request)
    return list(seen.values())


# -- statistics ------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(value, percentile, n): the highest percentile with at least
    TAIL_BEYOND samples beyond it (nearest rank); the median when the
    samples are too few for any higher one."""
    n = len(values)
    if n == 0:
        return 0.0, 0, 0
    ordered = sorted(values)
    percentile = max(50, (100 * (n - TAIL_BEYOND)) // n)
    rank = max(1, -(-percentile * n // 100))
    return ordered[rank - 1], percentile, n


# -- checks ----------------------------------------------------------------


def check_sessions(spec: dict, sessions: list, verify: dict = None):
    """Every correctness check; returns (attempted, failed, problems).

    Each session's operations count as attempted; an operation fails
    when it errored or when a check on its output fails.
    """
    attempted = failed = 0
    problems = []
    kind = spec["kind"]
    if kind in ("composite", "sweep"):
        first = sessions[0]
        for index, out in enumerate(sessions):
            ops = 1 + len(out["warm"])
            bad_cold = []
            if out["doc_digest"] != first["doc_digest"] \
                    or out["cycles"] != first["cycles"]:
                bad_cold.append("output differs from the first session")
            if kind == "composite":
                if out["hist_digest"] != first["hist_digest"]:
                    bad_cold.append("histogram differs between repeats")
                if out["cycles"] != out["workload_cycles"]:
                    bad_cold.append(
                        f"composite cycles {out['cycles']} != sum of "
                        f"workload cycles {out['workload_cycles']}")
                if spec["expect_cycles"] is not None \
                        and out["cycles"] != spec["expect_cycles"]:
                    bad_cold.append(f"cycles {out['cycles']} != anchor "
                                    f"{spec['expect_cycles']}")
                for name, law in out["laws"].items():
                    if not law["ok"]:
                        bad_cold.append(f"{name}: laws failed "
                                        f"{law['failed']}")
            else:
                if out["simulated"] != out["tasks"]:
                    bad_cold.append(f"cold sweep simulated "
                                    f"{out['simulated']} of "
                                    f"{out['tasks']} tasks")
            attempted += ops
            failed += bool(bad_cold) + (len(out["warm"]) - out["warm_ok"])
            if out["warm_ok"] != len(out["warm"]):
                problems.append(f"session {index}: "
                                f"{len(out['warm']) - out['warm_ok']} "
                                "warm repeats differ from the cold "
                                "result or simulated")
            problems += [f"session {index}: {text}" for text in bad_cold]
        return attempted, failed, problems
    expected = dict(zip(verify["requests"], verify["digests"]))
    for index, out in enumerate(sessions):
        for op in out["ops"]:
            attempted += 1
            reason = None
            if not op["ok"]:
                reason = op.get("error", "job failed")
            elif op["digest"] != expected[op["request"]]:
                reason = "served document differs from the direct call"
            elif op.get("expect_warm") and op["kind"] != "warm":
                reason = "exact repeat was not a store hit"
            if reason:
                failed += 1
                problems.append(f"session {index}: request "
                                f"{op['request'][:12]}: {reason}")
    return attempted, failed, problems


def mark_expected_warm(spec: dict, sessions: list) -> None:
    """Flag each op the stream meant as an exact repeat (a store hit)."""
    expect = []
    seen = set()
    for step in spec["steps"]:
        for request in step:
            key = digest(request)
            expect.append(len(step) == 1 and key in seen)
            seen.add(key)
    for out in sessions:
        for op, warm in zip(out["ops"], expect):
            op["expect_warm"] = warm


def plant(spec: dict, out: dict) -> None:
    """Corrupt one output, as a wrong program would (self-test only)."""
    if spec["kind"] == "composite":
        out["cycles"] += 1
    elif spec["kind"] == "sweep":
        out["doc_digest"] = digest("planted")
    else:
        out["ops"][0]["digest"] = digest("planted")


# -- metrics ---------------------------------------------------------------


def end_to_end(spec: dict, setup: list, sessions: list, ok_frac: float,
               details: dict) -> dict:
    walls = [out["wall"] for out in sessions]
    cold = [value for out in sessions for value in out["cold"]]
    ops = [len(out.get("ops") or []) or 1 + len(out["warm"])
           for out in sessions]
    # Latencies are summarised per session, then the median session is
    # reported: one session that landed on a slow moment of the shared
    # host moves the figure less than it would move a pooled tail.
    warm_tails = [tail(out["warm"]) for out in sessions]
    cold_tail, cold_pct, cold_n = tail(cold)
    details["latency"] = {
        "warm_p50_ms": median([median(out["warm"])
                               for out in sessions]) * 1000,
        "warm_tail_ms": median([value for value, _pct, _n
                                in warm_tails]) * 1000,
        "warm_tail_percentile": warm_tails[0][1],
        "warm_samples_per_session": warm_tails[0][2],
        "cold_tail_s": cold_tail, "cold_tail_percentile": cold_pct,
        "cold_samples_pooled": cold_n}
    details["sessions"] = len(sessions)
    details["session_warm_ms"] = [
        sum(out["warm"]) / max(1, len(out["warm"])) * 1000
        for out in sessions]
    details["session_rss_mb"] = [out["rss_mb"] for out in sessions]
    if spec["kind"] == "composite":
        cpi = sessions[0]["cpi"]
        details.update(cycles=sessions[0]["cycles"], cpi=cpi,
                       cpi_rel_err=abs(cpi - PAPER_CPI) / PAPER_CPI)
    details["latency_source"] = LATENCY_SOURCE
    return {
        "setup_s": (median(setup), "s"),
        "wall_s": (median(walls), "s"),
        "sim_instr_per_s": (median([out["instructions"] / out["wall"]
                                    for out in sessions]), "1/s"),
        "peak_rss_mb": (median([out["rss_mb"] for out in sessions]), "MB"),
        "ok_frac": (ok_frac, "ratio"),
        "cold_p50_s": (median([median(out["cold"])
                               for out in sessions]), "s"),
        "warm_ms": (median([sum(out["warm"]) / max(1, len(out["warm"]))
                            for out in sessions]) * 1000, "ms"),
        "jobs_per_s": (median([count / wall for count, wall
                               in zip(ops, walls)]), "1/s"),
    }


def per_layer(spec: dict, plain: list, traced: list, observed: dict,
              probe: dict, bench_parse_us: float) -> dict:
    """Per-layer metrics: medians over the traced sessions."""
    def med(key):
        return median([key(out) for out in traced])

    def self_s(layer):
        return med(lambda out: out["trace"]["self_s"][layer])

    def count(out, *names):
        return sum(out["trace"]["counts"].get(name, 0) for name in names)

    # The overheads compare paced walls (steady across host spells);
    # shares and self times are raw seconds of the traced sessions.
    wall = median([out["wall"] for out in plain])
    traced_wall = med(lambda out: out["raw_wall"])
    metrics = {LAYER_METRICS[layer]: (self_s(layer), "s")
               for layer in LAYER_METRICS}
    run_s = metrics["osim.run_s"][0]
    instructions = med(lambda out: out["trace"]["instructions"])
    metrics["osim.run.instr_per_s"] = (
        instructions / run_s if run_s else 0.0, "1/s")
    metrics["cpu.pycalls_per_instr"] = (
        probe["calls"] / probe["instructions"], "calls/instr")
    metrics["count.constructions"] = (
        med(lambda out: count(out, "constructions")), "count")
    metrics["count.runs"] = (
        med(lambda out: count(out, "runs", "batch.cohorts")), "count")
    metrics["count.captures"] = (
        med(lambda out: count(out, "captures", "batch.captures")), "count")
    gets = med(lambda out: count(out, "store_gets"))
    hits = med(lambda out: count(out, "explore.store.hits"))
    metrics["explore.warm_hit_ratio"] = (hits / gets if gets else 0.0,
                                         "ratio")
    serve = {"serve.parse_us": (bench_parse_us, "us"),
             "serve.queue_wait_ms": (0.0, "ms"),
             "serve.execute_s": (0.0, "s"),
             "serve.cache_hit_ratio": (0.0, "ratio"),
             "serve.coalesced": (0.0, "count"),
             "serve.fused_lanes": (0.0, "count")}
    if spec["kind"] == "serve":
        cold_ops = [op for out in traced for op in out["ops"]
                    if op.get("kind") == "cold"]
        cache = [out["metrics"]["cache"] for out in traced]
        serve.update({
            "serve.queue_wait_ms": (median(
                [op["queue_wait"] for op in cold_ops]) * 1000, "ms"),
            "serve.execute_s": (median(
                [op["execute"] for op in cold_ops]), "s"),
            "serve.cache_hit_ratio": (median(
                [c["hits"] / max(1, c["hits"] + c["misses"])
                 for c in cache]), "ratio"),
            "serve.coalesced": (median(
                [c["coalesced"] for c in cache]), "count"),
            "serve.fused_lanes": (med(
                lambda out: out["metrics"]["workers"]["fused_lanes"]),
                "count"),
        })
    metrics.update(serve)
    metrics["trace.overhead_frac"] = (
        med(lambda out: out["wall"]) / wall - 1, "ratio")
    metrics["obs.overhead_frac"] = (observed["wall"] / wall - 1, "ratio")
    startup = med(lambda out: out.get("startup", 0.0)
                  / out["pace_factor"])
    accounted = startup
    for layer in LAYER_METRICS:
        share = self_s(layer) / traced_wall
        accounted += self_s(layer)
        metrics["share." + layer] = (share, "ratio")
    metrics["share.startup"] = (startup / traced_wall, "ratio")
    metrics["trace.accounted_frac"] = (accounted / traced_wall, "ratio")
    return metrics


def parse_us(spec: dict) -> float:
    """Median µs to canonicalize and key one of the workload's request
    documents, in the benchmark process; 0 without a server."""
    from repro.serve.canonical import parse_request, request_key

    if spec["kind"] != "serve":
        return 0.0
    samples = []
    for _ in range(20):
        for request in serve_requests(spec):
            started = time.perf_counter()
            request_key(parse_request(request, default_engine="auto"))
            samples.append((time.perf_counter() - started) * 1e6)
    return median(samples)


# -- provenance ------------------------------------------------------------


def provenance(args, spec: dict) -> dict:
    from repro.explore.store import code_version

    rev = dirty = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                capture_output=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                text=True, capture_output=True, check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            rev = dirty = None
    return {"git_rev": rev, "git_dirty": dirty,
            "code_version": code_version(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": args.seed,
            "workload": args.workload, "size": args.size,
            "spec_digest": digest(spec)}


# -- the command -----------------------------------------------------------


def measure(bench: Bench, spec: dict) -> dict:
    """Set up, run the timed sessions, check; returns the run record."""
    args = bench.args
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC),
                    str(HERE)], env=bench.env, check=True,
                   stdout=subprocess.DEVNULL)
    setup = setup_times(bench, spec)
    window = time.monotonic()
    plain, traced = [], []

    def more(sessions):
        # Checks compare repeats: two sessions at least, or one traced
        # pair (the observed session makes a third).  Past that, start
        # another only if at least half of a typical one fits, so a
        # run overshoots --seconds by half a session at most.
        spent = time.monotonic() - window
        if len(sessions) < 2 - args.trace:
            return True
        typical = median([out["raw_wall"] for out in sessions])
        return spent + typical / 2 * (1 + args.trace) < args.seconds \
            and bench.elapsed() < LAST_START_S

    if args.trace:
        while more(traced):
            plain.append(run_session(bench, spec))
            traced.append(run_session(bench, spec, traced=True))
        observed = run_session(bench, spec, observed=True)
    else:
        while more(plain):
            plain.append(run_session(bench, spec))
    verify = None
    if spec["kind"] == "serve":
        requests = serve_requests(spec)
        out = bench.session({"kind": "verify", "engine": spec["engine"],
                             "requests": requests})
        verify = {"requests": [digest(r) for r in requests],
                  "digests": out["digests"]}
        mark_expected_warm(spec, plain + traced
                           + ([observed] if args.trace else []))
    if args.plant:
        plant(spec, plain[0])
    checked = plain + traced + ([observed] if args.trace else [])
    attempted, failed, problems = check_sessions(spec, checked, verify)
    walls = {"untraced": [out["raw_wall"] for out in plain]}
    factors = {"untraced": [out["pace_factor"] for out in plain]}
    if args.trace:
        walls.update(traced=[out["raw_wall"] for out in traced],
                     observed=[observed["raw_wall"]])
        factors.update(traced=[out["pace_factor"] for out in traced],
                       observed=[observed["pace_factor"]])
    record = {"setup": setup, "attempted": attempted, "failed": failed,
              "problems": problems,
              "details": {"raw_session_walls": walls,
                          "pace_factors": factors}}
    ok_frac = (attempted - failed) / attempted
    if args.trace:
        probe = bench.session({"kind": "probe", "seed": args.seed,
                               "instructions": 300 if args.size == "tiny"
                               else 2000})
        record["metrics"] = per_layer(spec, plain, traced, observed, probe,
                                      parse_us(spec))
    else:
        record["metrics"] = end_to_end(spec, setup, plain, ok_frac,
                                       record["details"])
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["composite", "sweep", "serve"])
    parser.add_argument("--seed", type=int, default=1984)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: the self-test's input size")
    parser.add_argument("--plant", action="store_true",
                        help="corrupt one output before checking "
                             "(the self-test proves the checks fail)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure ({SRC / 'repro'} is "
              "missing); run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = make_spec(args.workload, args.seed, args.size == "tiny")
    # One vCPU for the benchmark and every process it starts: the work,
    # its pace sampler and the serve client then share the vCPU whose
    # pace is sampled (the two vCPUs of the host drift independently).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bench = Bench(args)
    try:
        record = measure(bench, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    correct = not record["problems"]
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in record["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    detail = {"provenance": provenance(args, spec),
              "setup_samples": record["setup"], **record["details"]}
    print(json.dumps(detail, sort_keys=True))
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json") \
        .write_text(json.dumps({**detail, "metrics": record["metrics"],
                                "problems": record["problems"]}, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
