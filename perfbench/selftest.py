#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about two minutes).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs ``run.py --size tiny``
with tracing off and on, and checks that the last line is the result
object with exactly the four keys, that every end-to-end (tracing off)
or per-layer (tracing on) metric is there with its declared unit and a
finite value, and that each metric was also printed as a
``name = value unit`` line.  Then it plants a wrong output (an altered
cycle count, sweep record or served document) and checks that the run
fails, and it checks that a directory holding only the benchmark, with
no program to measure, makes the command exit non-zero without a
result.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170


def bench(*extra, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--seconds", "1",
            "--size", "tiny", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_result(proc, metrics: list, label: str) -> list:
    problems = []
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-800:]}"
                f"{proc.stdout[-800:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 \
            or result["attempted"] < 1:
        problems.append(f"{label}: not a clean run: {lines[-1][:300]}")
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in metrics):
        problems.append(f"{label}: metrics {sorted(got)} != declared")
    for metric in metrics:
        entry = got.get(metric["name"])
        if entry is None:
            continue
        value = entry.get("value")
        if entry.get("unit") != metric["unit"] \
                or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{label}: {metric['name']} = {entry}")
        if not any(line.startswith(f"{metric['name']} = ")
                   and line.endswith(f" {metric['unit']}")
                   for line in lines):
            problems.append(f"{label}: {metric['name']} not printed "
                            "with its unit")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in ((0, spec["end_to_end"]),
                               (1, spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            proc = bench("--workload", workload, "--trace", str(trace))
            problems += check_result(proc, metrics, label)
            print(f"{label}: ran", flush=True)
        proc = bench("--workload", workload, "--trace", "0", "--plant")
        last = (proc.stdout.strip().splitlines() or ["{}"])[-1]
        if proc.returncode == 0 or json.loads(last).get("correct") \
                is not False:
            problems.append(f"{workload}: a planted wrong output "
                            "passed the checks")
        print(f"{workload} --plant: exit {proc.returncode}", flush=True)
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", spec["workloads"][0]["name"], cwd=bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("a directory without the program produced a "
                        "result")
    shutil.rmtree(bare, ignore_errors=True)
    for problem in problems:
        print("SELFTEST FAILED:", problem)
    print("selftest:", "ok" if not problems else
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
