"""Run one workload in this process and print its result.

Started by ``run.py`` in a fresh interpreter with one BLAS thread. With
``--trace 0`` it sets up several times, then runs the passes that take about
``--seconds`` on the reference machine and reports the end-to-end metrics,
scaled to the reference machine's speed (see ``Calibration``). With
``--trace 1`` it runs a fixed amount of work twice, untraced and then traced,
and reports the per-layer metrics, the tracing overhead, and whether both
ended at the same digest. The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 4
# A run starts no pass after this many seconds, so that it ends in time even
# on a machine far slower than the reference one.
HARD_STOP_S = 90.0

# A traced run fails if more than this share of its wall time is covered by
# no span of a named layer.
MAX_UNCOVERED_SHARE = 0.05

# Mean time of the calibration kernel on the reference machine (2-vCPU Xeon
# VM, Python 3.11, numpy 2.4, one BLAS thread), and how often a run samples it.
REFERENCE_KERNEL_S = 0.010
CALIBRATION_INTERVAL_S = 0.25


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Calibration:
    """Samples the machine's current speed with a fixed kernel.

    On a shared machine the neighbours' load slows every part of a run alike,
    by up to 60% for minutes at a time, so the wall times of runs made a few
    minutes apart differ by more than any regression bound. A run therefore
    times this kernel, which is the benchmark's own code and never changes
    with the program, before each set-up and at least every
    ``CALIBRATION_INTERVAL_S`` between operations, and multiplies its times
    by ``REFERENCE_KERNEL_S`` over the kernel's mean time: they read as
    seconds on the reference machine. Like the program, the kernel mixes
    small matrix products, dictionary and list work in the interpreter, and
    small-array image operations. Over ten seeds on the reference machine,
    the scaling took the quartile spread of ``pairs-evolve``'s median
    operation time from 21% to 7%. The kernel's time is not part of any
    operation.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.random((64, 768))
        self.w = rng.random((768, 64))
        self.images = rng.random((32, 16, 16, 3)).astype(np.float32)
        self.samples: list[float] = []
        self.last = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        for _ in range(25):
            np.maximum(self.x @ self.w, 0.0).sum()
            sum(j * j for j in range(500))
        for _ in range(30):
            table = {i: [i, str(i)] for i in range(300)}
            ranked = sorted(table.items(), key=lambda kv: -kv[0])
            sum(1 for _, v in ranked if v[0] % 3 == 0)
        for _ in range(60):
            y = np.clip(self.images[:, ::2, ::2, :].astype(np.float64) * 1.1 - 0.05, 0.0, 1.0)
            np.take(y, [0, 2, 4], axis=0).mean(axis=(1, 2))
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def maybe_sample(self, system=None) -> None:
        if time.perf_counter() - self.last >= CALIBRATION_INTERVAL_S:
            self.sample()

    @property
    def scale(self) -> float:
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples)


def host_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


@contextlib.contextmanager
def working_dir(path: str):
    os.makedirs(path, exist_ok=True)
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


class Runner:
    """Runs passes of one workload, timing each operation and collecting
    failures from exceptions and correctness checks. The checks run after
    each pass inside ``pause`` and their time adds up in ``check_s``."""

    def __init__(self, workload, seed: int, pins: dict[str, str],
                 pause=contextlib.nullcontext):
        self.workload = workload
        self.seed = seed
        self.pin = pins.get(str(seed))
        self.pause = pause
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0
        self.op_times: list[float] = []
        self.results = []

    def run_pass(self, ctx, index: int, on_op=None):
        from workloads import check_pass

        last = time.perf_counter()
        ops_before = len(self.op_times)

        def op_done(system):
            nonlocal last
            self.op_times.append(time.perf_counter() - last)
            if on_op is not None:
                on_op(system)
            last = time.perf_counter()

        try:
            outcome = self.workload.run_pass(ctx, self.seed, index, op_done)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += len(self.op_times) - ops_before + 1
            self.failed += 1
            return None
        self.attempted += len(self.op_times) - ops_before
        start = time.perf_counter()
        with self.pause():
            result = check_pass(outcome)
        self.check_s += time.perf_counter() - start
        problems = list(result.problems)
        if self.pin is not None and index == 0 and result.digest != self.pin:
            problems.append(f"digest {result.digest[:16]} != pinned {self.pin[:16]}")
        if problems:
            print(f"pass {index}: " + "; ".join(problems), file=sys.stderr)
            self.failed += 1
        self.results.append(result)
        return result

    @property
    def digests(self) -> list[str]:
        return [r.digest for r in self.results]


def measure(workload, seed: int, seconds: float, tmp: str, pins) -> tuple[Runner, dict]:
    passes = max(1, round(seconds / workload.nominal_pass_s))
    calibration = Calibration()
    setup_times = []
    for i in range(SETUP_REPEATS):
        setup_dir = os.path.join(tmp, f"setup{i}")
        calibration.sample()
        with working_dir(setup_dir):
            start = time.perf_counter()
            ctx = workload.setup(seed, passes)
            setup_times.append(time.perf_counter() - start)
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(setup_dir)

    runner = Runner(workload, seed, pins)
    with working_dir(setup_dir):
        start = time.perf_counter()
        for index in range(passes):
            if time.perf_counter() - start > HARD_STOP_S:
                print(f"stopped after {index} of {passes} passes", file=sys.stderr)
                break
            runner.run_pass(ctx, index, calibration.maybe_sample)

    ops = runner.op_times or [0.0]
    wall = {
        "setup_s": statistics.median(setup_times),
        "op_s.p50": percentile(ops, 50),
        "op_s.p75": percentile(ops, 75),
        "ops_per_min": 60.0 * len(ops) / sum(ops) if sum(ops) else 0.0,
    }
    scale = calibration.scale
    values = {name: value / scale if name == "ops_per_min" else value * scale
              for name, value in wall.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {name: (values[name], unit) for name, unit in metric_units("end_to_end").items()}
    samples = {"setup_s": len(setup_times), "op_s": len(ops), "passes": len(runner.results),
               "calibration": len(calibration.samples)}
    return runner, {"metrics": metrics, "samples": samples,
                    "unscaled": dict(wall, scale=scale)}


def trace(workload, seed: int, tmp: str, pins, spans_path: str) -> tuple[Runner, dict]:
    from tracer import Tracer

    n_passes = workload.trace_passes
    untraced = Runner(workload, seed, pins)
    with working_dir(os.path.join(tmp, "untraced")):
        ctx = workload.setup(seed, n_passes)
        start = time.perf_counter()
        for i in range(n_passes):
            untraced.run_pass(ctx, i)
        untraced_wall = time.perf_counter() - start - untraced.check_s

    tracer = Tracer()
    traced = Runner(workload, seed, pins, tracer.paused)
    peaks = {"system.models.max": 0, "system.blocks.max": 0}

    def on_op(system):
        tracer.mark_op()
        peaks["system.models.max"] = max(peaks["system.models.max"], len(system.models))
        peaks["system.blocks.max"] = max(peaks["system.blocks.max"], len(system.blocks))

    tracer.install()
    try:
        with working_dir(os.path.join(tmp, "traced")):
            setup_start = time.perf_counter()
            ctx = workload.setup(seed, n_passes)
            start = tracer.begin_ops()
            for i in range(n_passes):
                traced.run_pass(ctx, i, on_op)
            end = time.perf_counter()
    finally:
        tracer.uninstall()
    tracer.dump(spans_path)

    values = tracer.summarize(start, end, traced.check_s)
    values["trace.setup_s"] = start - setup_start
    values["data.generate_synthetic_tasks.s"] = tracer.inclusive(
        "data.generate_synthetic_tasks", setup_start, start)
    values.update(peaks)
    values["rng.draws"] = sum(r.rng_draws for r in traced.results)
    for key in ("mean_test_accuracy", "mean_accounted_params", "mean_inference_flops"):
        finals = [getattr(r, key) for r in traced.results]
        values["evolution.final_" + key] = statistics.fmean(finals) if finals else 0.0
    spawned = values.get("evolution.children.spawned", 0)
    values["evolution.child_retained_ratio"] = (
        values.get("evolution.children.retained", 0) / spawned if spawned else 0.0)
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = values["trace.wall_s"] - untraced_wall

    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    if traced.digests != untraced.digests:
        print("traced digests differ from untraced ones", file=sys.stderr)
        traced.failed += 1
    if values["trace.uncovered_share"] > MAX_UNCOVERED_SHARE:
        print(f"no span covers {values['trace.uncovered_share']:.1%} of the traced wall time",
              file=sys.stderr)
        traced.failed += 1
    metrics = {name: (values.get(name, 0), unit)
               for name, unit in metric_units("per_layer").items()}
    samples = {"passes": n_passes, "spans": int(values["trace.spans"])}
    return traced, {"metrics": metrics, "samples": samples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "evograft", "__init__.py")):
        print(f"error: no evograft sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import evograft
    if os.path.dirname(os.path.dirname(os.path.abspath(evograft.__file__))) != SRC:
        print(f"error: evograft imported from {evograft.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, load_pins

    workload = WORKLOADS[args.workload](args.tiny)
    seed = workload.default_seed if args.seed is None else args.seed
    pins = {} if args.tiny else load_pins().get(args.workload, {})
    out_dir = os.path.join(ROOT, ".perfbench-out")
    tmp_root = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        if args.trace:
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"spans-{args.workload}-{seed}.jsonl")
            runner, report = trace(workload, seed, tmp, pins, spans)
        else:
            runner, report = measure(workload, seed, args.seconds, tmp, pins)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass

    print("host " + json.dumps(host_info()))
    print("digests " + json.dumps([d[:16] for d in dict.fromkeys(runner.digests)]))
    print("samples " + json.dumps(report["samples"]))
    if "unscaled" in report:
        print("unscaled " + json.dumps(report["unscaled"]))
    for name, (value, unit) in report["metrics"].items():
        print(f"{args.workload:>12}  {name:<40} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed if runner.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
