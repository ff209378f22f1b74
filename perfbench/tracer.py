"""Span recorder that times evograft's layers from outside the program.

The tracer replaces public functions with timing wrappers while it is
installed and puts the originals back on ``uninstall``. Each call becomes a
span (name, start, end, parent) kept in memory; nothing is written until the
run ends. A function is wrapped under the name its callers look it up by:
``evolution`` imports ``train_cycle``, ``evaluate`` and friends by name, so
those are patched on ``evograft.evolution``; ``SystemState`` methods are
patched on the class.

Two inner functions are called tens of thousands of times per run and would
add most of the tracing overhead as spans. They are measured apart from the
span tree: ``bilinear_resize`` with an inclusive time accumulator, and
``sharing_count`` with a call counter only. Their time stays inside the
enclosing spans' self time.

The tracer never draws from an rng, so a traced run must end at the same
``system_digest`` as an untraced one.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import os
import time
from collections import defaultdict

from evograft import checkpoint, data, evolution, reports, trainer
from evograft.system import SystemState
from evograft.trainer import TrainerError


def _tree_stats(path: str) -> dict[str, tuple[int, int]]:
    """Map every file under ``path`` to (mtime_ns, size)."""
    out = {}
    for dirpath, _, files in os.walk(path):
        for name in files:
            full = os.path.join(dirpath, name)
            st = os.stat(full)
            out[full] = (st.st_mtime_ns, st.st_size)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op_ends: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def begin_ops(self) -> float:
        """Mark the end of set-up: counters restart, and ``summarize`` from
        the returned time on covers only the measured passes."""
        self.counters.clear()
        return time.perf_counter()

    @contextlib.contextmanager
    def paused(self):
        """Run the harness's own work, such as correctness checks, against the
        original functions, so that it adds no spans or counts."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def mark_op(self) -> None:
        """Record the end of one closed-loop operation (for quarter splits)."""
        self.op_ends.append(time.perf_counter())

    def _span_wrapper(self, fn, name, after=None, counts_failures=False):
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            idx = self._enter(span_name)
            try:
                result = fn(*args, **kwargs)
            except TrainerError:
                # run_generation discards a child whose training raised.
                if counts_failures:
                    self.counters["evolution.children.failed"] += 1
                raise
            finally:
                self._exit(idx)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        c = self.counters

        def span(owner, attr, name, after=None, counts_failures=False):
            self._patch(owner, attr, lambda fn: self._span_wrapper(
                fn, name, after, counts_failures))

        def count(key, amount):
            def after(args, kwargs, result):
                c[key] += amount(args, kwargs, result)
            return after

        def preprocess_name(args, kwargs):
            train = kwargs["train_mode"] if "train_mode" in kwargs else args[3]
            return "trainer.preprocess_batch." + ("train" if train else "eval")

        def preprocess_after(args, kwargs, result):
            c[preprocess_name(args, kwargs) + ".images"] += len(result)

        span(trainer, "preprocess_batch", preprocess_name, preprocess_after)
        span(trainer, "loss_and_gradients", "trainer.loss_and_gradients")
        span(trainer, "sgd_step", "trainer.sgd_step")
        span(evolution, "train_cycle", "trainer.train_cycle",
             count("trainer.train_samples", lambda a, k, r: r.samples),
             counts_failures=True)
        span(evolution, "evaluate", "trainer.evaluate",
             count("trainer.evaluate.calls", lambda a, k, r: 1),
             counts_failures=True)
        span(evolution, "score_model", "scoring.score_model",
             count("scoring.score_model.calls", lambda a, k, r: 1))
        span(evolution, "calibrate", "scoring.calibrate")
        span(evolution, "sample_mutations", "mutations.sample_mutations")
        span(evolution, "apply_mutations", "mutations.apply_mutations",
             count("evolution.children.spawned", lambda a, k, r: 1))
        span(evolution, "sample_parent", "evolution.sample_parent")
        span(evolution, "run_generation", "evolution.run_generation",
             count("evolution.children.retained", lambda a, k, r: len(r)))
        span(evolution, "run_task_iteration", "evolution.run_task_iteration")
        span(evolution, "metrics_snapshot", "evolution.metrics_snapshot")
        span(SystemState, "accounted_params", "system.accounted_params",
             count("system.accounted_params.calls", lambda a, k, r: 1))
        span(SystemState, "inference_flops", "system.inference_flops")
        span(SystemState, "commit_model", "system.commit_model")
        span(SystemState, "discard_model", "system.discard_model")
        span(checkpoint, "system_digest", "checkpoint.system_digest")
        span(data, "generate_synthetic_tasks", "data.generate_synthetic_tasks")
        span(data, "load_task_dir", "data.load_task_dir")
        span(reports, "emit_reports", "reports.emit_reports")

        def save_factory(fn):
            timed = self._span_wrapper(fn, "checkpoint.save_checkpoint")

            def wrapper(system, path):
                before = _tree_stats(path)
                timed(system, path)
                after = _tree_stats(path)
                changed = [f for f, stat in after.items() if before.get(f) != stat]
                c["checkpoint.save_checkpoint.calls"] += 1
                c["checkpoint.save.bytes_written"] += sum(after[f][1] for f in changed)
                c["checkpoint.save.files_rewritten"] += sum(
                    1 for f in changed if os.sep + "blocks" + os.sep in f)
            return wrapper
        self._patch(checkpoint, "save_checkpoint", save_factory)

        def load_bytes(args, kwargs, result):
            c["checkpoint.load.bytes_read"] += sum(
                size for _, size in _tree_stats(args[0]).values())
        self._patch(checkpoint, "load_checkpoint",
                    lambda fn: self._span_wrapper(fn, "checkpoint.load_checkpoint",
                                                  load_bytes))

        def resize_factory(fn):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    c["trainer.bilinear_resize.s"] += time.perf_counter() - start
                    c["trainer.bilinear_resize.calls"] += 1
            return wrapper
        self._patch(trainer, "bilinear_resize", resize_factory)

        def sharing_factory(fn):
            def wrapper(*args, **kwargs):
                c["system.sharing_count.calls"] += 1
                return fn(*args, **kwargs)
            return wrapper
        self._patch(SystemState, "sharing_count", sharing_factory)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summary ---------------------------------------------------------------

    def inclusive(self, name: str, wall_start: float, wall_end: float) -> float:
        return sum(end - start for n, start, end, _ in self.spans
                   if n == name and wall_start <= start < wall_end)

    def summarize(self, wall_start: float, wall_end: float,
                  paused_s: float = 0.0) -> dict[str, float]:
        """Inclusive and self time per span name over the spans that start in
        the window, the quarter split of cost accounting over the marked
        operations, and the share of the window's wall time that no span
        covers. ``paused_s`` is the time spent paused in the window; it is
        harness work and leaves the wall time."""
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        top_level = 0.0
        n_spans = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            if not wall_start <= start < wall_end:
                continue
            n_spans += 1
            inclusive[name] += end - start
            self_time[name] += (end - start) - child_time[i]
            if parent < 0:
                top_level += end - start

        quarters = [0.0] * 4
        n_ops = len(self.op_ends)
        for name, start, end, _ in self.spans:
            if name == "system.accounted_params" and start >= wall_start:
                op = bisect.bisect_left(self.op_ends, start)
                if op < n_ops:
                    quarters[4 * op // n_ops] += end - start

        wall = wall_end - wall_start - paused_s
        uncovered = wall - top_level
        out = {f"{name}.s": v for name, v in inclusive.items()}
        out.update({f"{name}.self_s": v for name, v in self_time.items()})
        out.update(self.counters)
        for q, v in enumerate(quarters, start=1):
            out[f"system.accounted_params.s.q{q}"] = v
        out["trace.wall_s"] = wall
        out["trace.uncovered_s"] = uncovered
        out["trace.uncovered_share"] = uncovered / wall
        out["trace.spans"] = n_spans
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
