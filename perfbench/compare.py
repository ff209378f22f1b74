"""Compare two source trees with the same benchmark, pair by pair.

    python3 perfbench/compare.py --parent ../parent --change . [--pairs 10]

Both trees must hold byte-identical ``perfbench/`` and ``BENCHMARK.json``, so
the parent and the change are measured with the same benchmark code and
settings. Pair ``i`` runs both trees on seed ``--first-seed + i``, and the
side that runs first alternates from pair to pair. Every run measures for
``run_seconds`` of ``BENCHMARK.json``. For every workload and
end-to-end metric it prints each side's median and quartiles and a verdict:

- ``gain``: the change is better in at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile spread;
- ``regression``: the change's median is worse by more than the metric's
  bound;
- ``unresolved``: the parent's own quartile spread, as a share of its median,
  is wider than the bound, and not every change run beats every parent run;
- ``no regression`` otherwise.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import filecmp  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def same_benchmark(a: str, b: str) -> bool:
    if not filecmp.cmp(os.path.join(a, "BENCHMARK.json"),
                       os.path.join(b, "BENCHMARK.json"), shallow=False):
        return False
    cmp = filecmp.dircmp(os.path.join(a, "perfbench"), os.path.join(b, "perfbench"),
                         ignore=["__pycache__"])
    pending = [cmp]
    while pending:
        d = pending.pop()
        _, mismatch, errors = filecmp.cmpfiles(d.left, d.right, d.common_files,
                                               shallow=False)
        if d.left_only or d.right_only or mismatch or errors:
            return False
        pending.extend(d.subdirs.values())
    return True


def run_once(tree: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, timeout=200)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= 0.9 * len(parent) and gain > p3 - p1:
        return "gain", wins
    if -gain > bound * abs(pm):
        return "regression", wins
    if (p3 - p1) > bound * abs(pm) and not all_better:
        return "unresolved", wins
    return "no regression", wins


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="root of the parent tree")
    parser.add_argument("--change", required=True, help="root of the changed tree")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("at least 10 pairs are needed for a verdict")
    if not same_benchmark(args.parent, args.change):
        parser.error("the two trees do not hold the same benchmark")

    summary = {}
    for workload in names:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                tree = args.parent if side == "parent" else args.change
                runs[side].append(run_once(tree, workload, seed, bench["run_seconds"]))
                print(f"{workload} pair {i + 1}/{args.pairs} {side} done", file=sys.stderr)

        rows = {}
        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        print(f"\n{workload}: failed ops parent={failed['parent']} change={failed['change']}")
        print(f"{'metric':<30} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
              f" {'wins':>6}  verdict")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in runs["parent"]]
            change = [r["metrics"][name]["value"] for r in runs["change"]]
            result, wins = verdict(parent, change, metric["better"], metric["bound"])
            if result == "gain" and failed["change"] > failed["parent"]:
                result = "no gain: more failed ops"
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            print(f"{name:<30} {pm:>12.5g} [{p1:.5g}, {p3:.5g}]".ljust(65)
                  + f" {cm:>12.5g} [{c1:.5g}, {c3:.5g}]".ljust(35)
                  + f" {wins:>3}/{args.pairs}  {result}")
            rows[name] = {"parent": [p1, pm, p3], "change": [c1, cm, c3],
                          "wins": wins, "verdict": result, "unit": metric["unit"]}
        summary[workload] = {"failed": failed, "metrics": rows}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
