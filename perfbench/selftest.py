"""Fast self-test of the benchmark at tiny input sizes (about ten seconds).

    python3 perfbench/selftest.py

For every workload it checks that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit, that a traced run prints every
per-layer metric, that both runs are correct, and that tracing leaves the
digest unchanged. It also checks that the benchmark fails, without printing
a result, when the program's sources are missing.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402

from run import HERE, ROOT, load_benchmark, run_worker  # noqa: E402

SEED = 3


def check_result(lines: list[str], expected: list[dict], label: str,
                 nonzero: bool) -> list[str]:
    problems = []
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys are {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: run was not correct")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        problems.append(f"{label}: metric names differ: {sorted(set(metrics) ^ set(want))}")
    for name, unit in want.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{label}: {name} has unit {entry.get('unit')!r}, not {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} is not a finite number")
        elif nonzero and value == 0:
            problems.append(f"{label}: {name} is 0")
    return problems


def digests(lines: list[str]) -> list[str]:
    return json.loads(next(line for line in lines if line.startswith("digests "))[8:])


def bare_copy_fails() -> list[str]:
    """A directory holding only BENCHMARK.json and perfbench/ must fail."""
    bare = os.path.join(ROOT, ".perfbench-tmp", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pairs-evolve",
             "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=60)
    finally:
        shutil.rmtree(os.path.dirname(bare), ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare copy: benchmark did not fail without the program's sources"]
    return []


def main() -> int:
    bench = load_benchmark()
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {}
        for trace in (0, 1):
            code, lines = run_worker(workload, SEED, 2, trace, tiny=True)
            label = f"{workload} --trace {trace}"
            if code != 0 or not lines:
                problems.append(f"{label}: exited {code}")
                continue
            expected = bench["per_layer"] if trace else bench["end_to_end"]
            problems += check_result(lines, expected, label, nonzero=not trace)
            runs[trace] = digests(lines)
        if len(runs) == 2 and runs[0][:1] != runs[1][:1]:
            problems.append(f"{workload}: traced digest {runs[1][:1]} != untraced {runs[0][:1]}")
        print(f"{workload}: checked", flush=True)
    problems += bare_copy_fails()
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
