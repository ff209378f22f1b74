"""The benchmark's workloads: recipes, set-up, passes and correctness checks.

Every workload is a closed loop with one caller: the next operation starts
only when the previous one has finished. An operation is one task iteration.
A pass is the unit whose result can be checked: one evolution from a fresh
bootstrap. A run is a fixed number of passes, so the same
seed always does the same work; ``nominal_pass_s`` is a pass's time on the
reference machine (2-core Xeon, Python 3.11, numpy 2.4) and turns the
requested measuring time into a pass count, and ``trace_passes`` is the
fixed work of a traced run. Inputs come from
``generate_synthetic_tasks`` with the workload seed; only the public library
API is called, and always through its module attribute so that the tracer's
wrappers see every call. A pass returns a ``Pass``; ``check_pass`` then
checks it apart from the pass, so that a run can keep the checks out of its
timings and out of the trace.

Set-up and passes run with the working directory set to a scratch directory
and keep every path relative to it, as a user of ``evograft init --tasks
tasks/`` would: registered task paths go into the checkpoint manifest, so
absolute paths would make the digests depend on where the run happened.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field

from evograft import checkpoint, data, evolution, reports
from evograft.data import GenSpec, TaskGenSpec
from evograft.evolution import EvolutionConfig, SegmentSpec
from evograft.search_space import load_builtin_space
from evograft.trainer import TrainBudget

HERE = os.path.dirname(os.path.abspath(__file__))

# Pass seeds are spaced this far apart so that no two passes of one run, or
# of two neighbouring workload seeds, share a bootstrap stream.
PASS_SEED_STRIDE = 1000


def load_pins() -> dict[str, dict[str, str]]:
    with open(os.path.join(HERE, "pins.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def accounted_oracle(system, model) -> float:
    """Independent recount of a model's accounted parameters, following the
    acceptance-1 recipe: each block's sharers are counted by scanning the
    whole model registry rather than through ``sharing_count``, and the block
    sums accumulate in the model's layer order."""
    total = 0.0
    for lid in model.layer_ids():
        sharers = sum(1 for other in system.models.values()
                      if other.task != model.task and lid in other.layer_ids())
        total += system.blocks[lid].n_params / (sharers + 1)
    return total


def check_accounting(system) -> list[str]:
    return [f"model {m.id}: accounted {system.accounted_params(m)!r} != oracle"
            for m in system.models.values()
            if system.accounted_params(m) != accounted_oracle(system, m)]


@dataclass
class Pass:
    """What a pass leaves for its checks."""
    system: object
    rng_start: int
    reloaded_digest: str | None = None


@dataclass
class PassResult:
    digest: str
    mean_test_accuracy: float
    mean_accounted_params: float
    mean_inference_flops: float
    rng_draws: int
    problems: list[str] = field(default_factory=list)


def check_pass(p: Pass) -> PassResult:
    """Digest, accounting oracle and, where the pass reloaded its last
    checkpoint, that the reloaded system has the in-memory digest."""
    system = p.system
    digest = checkpoint.system_digest(system)
    problems = check_accounting(system)
    if p.reloaded_digest is not None and p.reloaded_digest != digest:
        problems.append("last checkpoint does not reload to the in-memory digest")
    snap = system.history[-1]
    return PassResult(digest, snap.mean_test_accuracy, snap.mean_accounted_params,
                      snap.mean_inference_flops, system.rng.counter - p.rng_start,
                      problems)


def _bootstrap(seed: int):
    return evolution.bootstrap_system(load_builtin_space("desk"), seed=seed, width=16,
                                      depth=4, patch=8, channels=3)


def _generate(spec: GenSpec, seed: int, out_dir: str) -> dict:
    paths = data.generate_synthetic_tasks(spec, seed, out_dir)
    return {os.path.basename(p): p for p in paths}


# -- pairs-evolve ----------------------------------------------------------------

class PairsEvolve:
    """Training-bound: one related pair per pass, three models at most.

    Each pass is the acceptance-7 shape cut to one round per segment and one
    generation per iteration: a ``base`` segment in munet mode (s=0.99,
    recalibrate 10), then a ``plus`` segment in munet_plus (recalibrate 10),
    so the resolution-change and layer-removal paths run too. Each pass
    evolves one related pair (t0/t1 or t2/t3, alternating) on its own data
    and bootstrap seed. The full recipe's cost hinges on whether its single
    trajectory drifts to cheaper hyperparameters (resolution 16, no jitter)
    or not, so one seed's run of it differs from the next seed's by over 25%;
    many short independent passes average the drift out within one run.
    """

    name = "pairs-evolve"
    default_seed = 101
    nominal_pass_s = 1.9
    trace_passes = 4

    def __init__(self, tiny: bool):
        n_train, n_eval = (32, 16) if tiny else (160, 64)
        self.spec = GenSpec(
            tasks=[TaskGenSpec(f"t{i}", classes=4, h=16, w=16, c=3, train=n_train,
                               val=n_eval, test=n_eval, noise=0.03) for i in range(4)],
            relations=[("t0", "t1", 0.5), ("t2", "t3", 0.5)])
        self.cfg = EvolutionConfig(generations=1,
                                   children_per_generation=2 if tiny else 3,
                                   train_cycles=1 if tiny else 3,
                                   budget=TrainBudget(batch_size=16))
        self.tasks = [t.name for t in self.spec.tasks]

    def setup(self, seed: int, passes: int):
        out = []
        for index in range(passes):
            pass_seed = seed + PASS_SEED_STRIDE * index
            paths = _generate(self.spec, pass_seed, f"tasks{index}")
            out.append({name: data.load_task_dir(paths[name]) for name in self.tasks})
        return out

    def run_pass(self, ctx, seed: int, index: int, on_op) -> Pass:
        system = _bootstrap(seed + 101 + PASS_SEED_STRIDE * index)
        start = system.rng.counter
        pair = self.tasks[2 * (index % 2):2 * (index % 2) + 2]
        segments = [SegmentSpec("base", pair, 1, "munet", 0.99, 10.0),
                    SegmentSpec("plus", pair, 1, "munet_plus", None, 10.0)]
        for segment in segments:
            evolution.run_segment(system, segment, ctx[index], self.cfg,
                                  on_iteration=lambda snap: on_op(system))
        return Pass(system, start)


# -- grow-many -------------------------------------------------------------------

def _grow_spec(n_tasks: int) -> GenSpec:
    names = [f"k{i:03d}" for i in range(n_tasks)]
    return GenSpec(
        tasks=[TaskGenSpec(n, classes=4, h=16, w=16, c=3, train=32, val=16, test=16,
                           noise=0.05) for n in names],
        relations=[(a, b, 0.5) for a, b in zip(names, names[1:])])


def _grow_segments(names: list[str]) -> list[SegmentSpec]:
    return [SegmentSpec(f"g{j:02d}", names[i:i + 8], iterations=1, mode="munet_plus",
                        s=0.99, recalibrate=10.0 if i == 0 else None, generations=1,
                        children=2, cycles=1)
            for j, i in enumerate(range(0, len(names), 8))]


GROW_CFG = EvolutionConfig(budget=TrainBudget(batch_size=16))


def _cold_report(ckpt_dir: str) -> str:
    """Load the checkpoint and every registered task from disk, take a
    metrics snapshot over all tasks, write the reports, and return the loaded
    system's digest."""
    system = checkpoint.load_checkpoint(ckpt_dir)
    datasets = {name: data.load_task_dir(path) for name, path in system.task_paths.items()}
    evolution.metrics_snapshot(system, datasets, sorted(datasets))
    reports.emit_reports(system, system.history, "report")
    return checkpoint.system_digest(system)


class GrowMany:
    """Bookkeeping-bound: one system grows over many tiny tasks and is
    checkpointed after every iteration, as ``evograft run`` does, so sharing
    counts and checkpoint rewrites grow with the number of models.

    After its last operation a pass reads the system back cold, as a report
    after a run would: loading, eval preprocessing of every task and report
    writing are checked and traced, but not timed as operations. A workload
    timing such cold reports alone was tried and dropped: its operations are
    identical, and on a shared 2-vCPU machine their median moved by 26-32%
    between runs with the machine's contention level, past any bound.
    """

    name = "grow-many"
    default_seed = 7
    nominal_pass_s = 12.5
    trace_passes = 1

    def __init__(self, tiny: bool):
        self.spec = _grow_spec(16 if tiny else 160)
        self.names = [t.name for t in self.spec.tasks]

    def setup(self, seed: int, passes: int):
        paths = _generate(self.spec, seed, "tasks")
        datasets = {name: data.load_task_dir(paths[name]) for name in self.names}
        return paths, datasets

    def run_pass(self, ctx, seed: int, index: int, on_op) -> Pass:
        paths, datasets = ctx
        ckpt_dir = "ckpt"
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        system = _bootstrap(seed + 1 + PASS_SEED_STRIDE * index)
        start = system.rng.counter
        system.task_paths = dict(paths)
        for segment in _grow_segments(self.names):
            done = 0

            def save_progress(snap, label=segment.label):
                nonlocal done
                done += 1
                system.run_position = (label, done)
                checkpoint.save_checkpoint(system, ckpt_dir)
                on_op(system)

            evolution.run_segment(system, segment, datasets, GROW_CFG,
                                  on_iteration=save_progress)
            checkpoint.save_checkpoint(system, ckpt_dir)
        return Pass(system, start, _cold_report(ckpt_dir))


WORKLOADS = {w.name: w for w in (PairsEvolve, GrowMany)}
