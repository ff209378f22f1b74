"""evograft benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload pairs-evolve --seed 101 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a fresh interpreter with one BLAS/OpenMP thread and no
bytecode writes; its scratch data lives in a directory under the checkout
that is removed afterwards. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones. For a single workload the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs the three workloads in turn at their
default seeds and prints every metric by name with its unit.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER_TIMEOUT_S = 175
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(workload: str, seed: int | None, seconds: float, trace: int,
               tiny: bool = False) -> tuple[int, list[str]]:
    """Run one workload in a fresh interpreter; return its exit code and
    stdout lines. A worker that overruns the timeout is killed and reaped."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} ran past {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 124, []
    return proc.returncode, proc.stdout.splitlines()


def main(argv=None) -> int:
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    if args.workload != "all":
        code, lines = run_worker(args.workload, args.seed, seconds, args.trace)
        if lines:
            print("\n".join(lines))
        return code if lines else (code or 1)

    ok = True
    for workload in workloads:
        code, lines = run_worker(workload, args.seed, seconds, args.trace)
        print("\n".join(lines[:-1]))
        if code != 0 or not lines:
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{workload:>12}  correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"ops_failed_ratio={result['failed'] / result['attempted']:.4g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
