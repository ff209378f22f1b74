"""Bootstrap and the evolutionary loop: parent sampling, child training with
retention, segments.

One task iteration runs a fixed number of generations for a single active
task, the name of the dataset it is given; every draw it makes comes from
``system.rng``, the stream a checkpoint records. Each generation spawns
children by sampling a parent (best-scoring active models first, falling back
to a shuffled pass over the rest, each candidate accepted with probability
0.5^selections), sampling a mutation set from the parent's probability table,
and training the child for a number of capped cycles. The retention bar
starts at a same-task parent's score (-inf for a parent from another task) and
rises to each retained checkpoint's score. Finalization keeps the single
best-scoring model for the task and garbage-collects everything it orphaned.

The mode is ``system.score_params.compute_factor_enabled`` (``compute=`` in a
checkpoint), which the mutation functions read. A segment bundles overrides
(mode, scale factor, recalibration, counts) with a round-robin block of task
iterations, emitting a metrics snapshot after every iteration; one without
``mode`` keeps the system's mode. ``SegmentSpec`` is frozen and checks every
field when it is built. A plan is a list of uniquely labelled segments run in
order by ``run_plan``, which records ``(segment label, iterations done)`` in
``system.run_position`` after every iteration; rerunning the plan on a
checkpoint saved at any iteration continues exactly where it stopped.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

from .data import TaskDataset
from .mutations import apply_mutations, possible_mutations, sample_mutations
from .rng import Rng
from .scoring import ScoreParams, calibrate, mean_costs, score_model
from .search_space import MU_INIT, RESOLUTION_AXIS, SearchSpace
from .system import (EMBEDDING, HEAD, HIDDEN, MIN_HIDDEN_DEPTH, ROOT_TASK, MetricsSnapshot,
                     ModelSpec, SystemError_, SystemState, init_params, zero_params)
from . import trainer
from .trainer import TrainBudget, TrainerError, batch_accuracy, evaluate, train_cycle

log = logging.getLogger("evograft")

MODE_MUNET = "munet"
MODE_MUNET_PLUS = "munet_plus"
MODES = (MODE_MUNET, MODE_MUNET_PLUS)


class EvolutionError(ValueError):
    pass


@dataclass
class EvolutionConfig:
    generations: int = 4
    children_per_generation: int = 2
    train_cycles: int = 4
    budget: TrainBudget = field(default_factory=TrainBudget)

    def __post_init__(self):
        if min(self.generations, self.children_per_generation, self.train_cycles) <= 0:
            raise EvolutionError("generation, child and cycle counts must be positive")


@dataclass(frozen=True)
class SegmentSpec:
    label: str
    tasks: list[str] = field(default_factory=list)
    iterations: int = 1
    mode: str | None = None
    s: float | None = None
    recalibrate: float | None = None
    generations: int | None = None
    children: int | None = None
    cycles: int | None = None
    samples_cap: int | None = None

    def __post_init__(self):
        if not self.label or any(ch.isspace() for ch in self.label):
            raise EvolutionError(f"segment label {self.label!r} is not whitespace-free")
        if self.mode is not None and self.mode not in MODES:
            raise EvolutionError(f"unknown mode {self.mode!r}")
        if self.iterations < 0:
            raise EvolutionError("iterations must not be negative")
        if self.s is not None:
            ScoreParams(s=self.s)
        if self.recalibrate is not None:
            # calibrate sets P and F to the multiplier times positive cost means
            ScoreParams(P=self.recalibrate, F=self.recalibrate)
        self.config(EvolutionConfig())

    def config(self, base_cfg: EvolutionConfig) -> EvolutionConfig:
        """``base_cfg`` with this segment's count and budget overrides."""
        overrides = {key: value for key, value in (
            ("generations", self.generations),
            ("children_per_generation", self.children),
            ("train_cycles", self.cycles)) if value is not None}
        if self.samples_cap is not None:
            overrides["budget"] = replace(base_cfg.budget, samples_cap=self.samples_cap)
        return replace(base_cfg, **overrides)


def parent_acceptance_probability(selections: int) -> float:
    return 0.5 ** selections


def bootstrap_system(space: SearchSpace, seed: int, width: int = 32, depth: int = 4,
                     patch: int = 8, channels: int = 3) -> SystemState:
    """Create a fresh system holding one untrained root model whose mutation
    table lists every action at the initial probability.

    The root's embedding maps one (patch x patch x channels) tile to ``width``
    features, so its weights do not depend on the resolution hyperparameter;
    every resolution in the axis table must be divisible by ``patch``. The
    init stream draws the embedding, then each hidden block; the head starts
    at zero and draws nothing.
    """
    for name, value, least in (("width", width, 1), ("depth", depth, MIN_HIDDEN_DEPTH),
                               ("patch", patch, 1), ("channels", channels, 1)):
        if value < least:
            raise SystemError_(f"root {name} must be at least {least}, got {value}")
    for res in space.axis(RESOLUTION_AXIS).values:
        if res % patch != 0:
            raise SystemError_(f"resolution {res} is not divisible by patch {patch}")

    system = SystemState(space, ScoreParams(), Rng(seed, "run"))
    init_rng = system.rng.spawn("init")
    d_embed = patch * patch * channels
    layers = []
    for kind, d_in in [(EMBEDDING, d_embed)] + [(HIDDEN, width)] * depth:
        block = system.add_block(kind, d_in, width, init_params(init_rng, d_in, width),
                                 zero_params(d_in, width), ROOT_TASK)
        layers.append((block.id, False))
    head = system.add_block(HEAD, width, 1, zero_params(width, 1), zero_params(width, 1),
                            ROOT_TASK)
    layers.append((head.id, False))

    root = ModelSpec(id=system.new_model_id(), task=ROOT_TASK, layers=layers,
                     hparams=space.default_config(), mu={})
    root.mu = {action: MU_INIT for action in possible_mutations(system, root)}
    system.commit_model(root)
    return system


def _best_first(system: SystemState, models: list[ModelSpec]) -> list[ModelSpec]:
    """Models by descending score; the lower id first among equal scores."""
    return sorted(models, key=lambda m: (-score_model(system, m), m.id))


def sample_parent(system: SystemState, task: str, active: list[ModelSpec],
                  rng: Rng) -> ModelSpec:
    """Walk candidates (active by descending score, then the rest shuffled),
    accepting each with probability 0.5^selections; uniform fallback."""
    if not system.models:
        raise EvolutionError("cannot sample a parent from an empty system")
    scored = _best_first(system, active)
    active_ids = {m.id for m in active}
    others = [m for m in system.models.values() if m.id not in active_ids]
    rng.shuffle(others)

    chosen = None
    for candidate in scored + others:
        if parent_acceptance_probability(candidate.selections.get(task, 0)) > rng.uniform():
            chosen = candidate
            break
    if chosen is None:
        pool = list(system.models.values())
        chosen = pool[rng.randint(len(pool))]
    chosen.selections[task] = chosen.selections.get(task, 0) + 1
    return chosen


def _restore_payload(system: SystemState, payload: dict) -> None:
    for bid, (params, opt) in payload.items():
        block = system.block(bid)
        block.params[:] = params
        block.opt[:] = opt


def _train_child(system: SystemState, child: ModelSpec, parent: ModelSpec,
                 dataset: TaskDataset, cfg: EvolutionConfig, val_batches: dict):
    """Run the training cycles on ``system.rng``; return (quality, payload) of
    the best retained checkpoint or None if every cycle fell below the bar.
    ``val_batches`` maps a resolution to the preprocessed validation split; a
    missing one is preprocessed and added."""
    val_images, val_labels = dataset.split("val")
    # Eval preprocessing depends only on the resolution, which is fixed while a
    # child trains; it goes through the module so wrappers installed there see it.
    resolution = child.hparams[RESOLUTION_AXIS]
    if resolution not in val_batches:
        val_batches[resolution] = trainer.preprocess_batch(val_images, child.hparams, None,
                                                           train_mode=False)
    val_batch = val_batches[resolution]
    bar = score_model(system, parent) if parent.task == child.task else -math.inf
    best = None
    for cycle in range(cfg.train_cycles):
        train_cycle(system, child, dataset, cfg.budget, cycle, cfg.train_cycles, system.rng)
        quality = batch_accuracy(system, child, val_batch, val_labels)
        candidate = score_model(system, child, quality)
        if candidate >= bar:
            bar = candidate
            best = (quality, {bid: system.block(bid).clone_arrays()
                              for bid in child.trainable_ids()})
    return best


def run_generation(system: SystemState, dataset: TaskDataset, cfg: EvolutionConfig,
                   active: list[ModelSpec]) -> list[ModelSpec]:
    """Spawn, train and retain/discard one generation of children for
    ``dataset``'s task, drawing from ``system.rng``.

    Trainer failures are contained per child: the failing child is discarded
    and the generation moves on. The children share one preprocessed
    validation split per resolution."""
    task, rng = dataset.name, system.rng
    retained, val_batches = [], {}
    for _ in range(cfg.children_per_generation):
        parent = sample_parent(system, task, active, rng)
        actions = sample_mutations(system, parent, rng)
        child = apply_mutations(system, parent, actions, task, dataset.num_classes, rng)
        system.commit_model(child)
        try:
            best = _train_child(system, child, parent, dataset, cfg, val_batches)
        except TrainerError as exc:
            log.warning("child %d failed training on %s: %s", child.id, task, exc)
            system.discard_model(child)
            continue
        if best is None:
            system.discard_model(child)
            continue
        quality, payload = best
        _restore_payload(system, payload)
        child.quality = quality
        child.score_snapshot = score_model(system, child)
        active.append(child)
        retained.append(child)
    return retained


def run_task_iteration(system: SystemState, dataset: TaskDataset,
                       cfg: EvolutionConfig) -> None:
    """One iteration on ``dataset``'s task: generations of children, then
    keep-best. Every block the iteration created is settled (read-only) as it
    ends."""
    if dataset.name == ROOT_TASK:
        raise EvolutionError("the root pseudo-task cannot be iterated")
    active = system.models_for(dataset.name)
    for _ in range(cfg.generations):
        run_generation(system, dataset, cfg, active)

    if active:
        best, *rest = _best_first(system, active)
        for model in rest:
            system.discard_model(model)
        best.score_snapshot = score_model(system, best)
    system.iterations_done += 1
    system.settle_ended()


def metrics_snapshot(system: SystemState, datasets: dict[str, TaskDataset],
                     task_subset: list[str], segment: str = "-",
                     task: str = "-") -> MetricsSnapshot:
    """Mean test accuracy over the subset's modeled tasks; cost means over all
    models in the system.

    A model whose blocks are all settled cannot change, so its test accuracy
    is kept on the model with the dataset it was measured on and reused while
    the same dataset object is passed; after an iteration only the iterated
    task's best can be new and need an evaluation."""
    per_task = {}
    for name in task_subset:
        models = system.models_for(name)
        if not models:
            continue
        best = _best_first(system, models)[0]
        dataset = datasets[name]
        if best.test_accuracy is not None and best.test_accuracy[0] is dataset:
            acc = best.test_accuracy[1]
        else:
            acc = evaluate(system, best, *dataset.split("test"))
            if all(block.settled for block in system.model_blocks(best)):
                best.test_accuracy = (dataset, acc)
        per_task[name] = (acc, system.accounted_params(best),
                          float(system.inference_flops(best)))
    mean_acc = (sum(v[0] for v in per_task.values()) / len(per_task)) if per_task else 0.0
    mean_params, mean_flops = mean_costs(system)
    return MetricsSnapshot(index=system.iterations_done, segment=segment, task=task,
                           mean_test_accuracy=mean_acc,
                           mean_accounted_params=mean_params,
                           mean_inference_flops=mean_flops, per_task=per_task)


def _check_tasks(segment: SegmentSpec, datasets: dict[str, TaskDataset]) -> None:
    """Raise on a task the segment names that ``datasets`` lacks or maps to a
    dataset of another name, the task an iteration on it would run."""
    for name in segment.tasks:
        if name not in datasets:
            raise EvolutionError(f"segment {segment.label!r} names unknown task {name!r}")
        if datasets[name].name != name:
            raise EvolutionError(f"segment {segment.label!r} maps task {name!r} to dataset "
                                 f"{datasets[name].name!r}")


def run_segment(system: SystemState, segment: SegmentSpec,
                datasets: dict[str, TaskDataset], base_cfg: EvolutionConfig,
                on_iteration=None, start: int = 0) -> list[MetricsSnapshot]:
    """Apply the segment's overrides, then run its round-robin task iterations.

    ``start`` is the number of the segment's iterations a resumed checkpoint
    already holds; they are skipped. The score-parameter overrides apply only
    when ``start`` is 0: past that point they already happened, and
    recalibration is not idempotent. ``on_iteration`` is called with each
    fresh snapshot.
    """
    _check_tasks(segment, datasets)
    cfg = segment.config(base_cfg)
    if start == 0:
        if segment.mode is not None:
            system.score_params = replace(
                system.score_params,
                compute_factor_enabled=(segment.mode == MODE_MUNET_PLUS))
        if segment.s is not None:
            system.score_params = replace(system.score_params, s=segment.s)
        if segment.recalibrate is not None:
            system.score_params = calibrate(system, segment.recalibrate)

    snapshots = []
    order = [task for _ in range(segment.iterations) for task in segment.tasks]
    for task in order[start:]:
        run_task_iteration(system, datasets[task], cfg)
        snap = metrics_snapshot(system, datasets, segment.tasks, segment.label, task)
        system.history.append(snap)
        snapshots.append(snap)
        if on_iteration is not None:
            on_iteration(snap)
    return snapshots


def run_plan(system: SystemState, segments: list[SegmentSpec],
             datasets: dict[str, TaskDataset], base_cfg: EvolutionConfig,
             on_iteration=None) -> None:
    """Run a segment plan, continuing from ``system.run_position``.

    The position is ``(segment label, iterations done)``. Segments before it
    are skipped, and the named one resumes after its recorded iterations. The
    position advances before ``on_iteration(snap)`` is called, so a
    checkpoint saved there resumes after that iteration. Rerunning a finished
    plan does nothing. A segment checks its own fields when it is built; the
    tasks each segment names and the uniqueness of the labels the position
    names are checked before the first iteration, so a bad plan fails without
    changing the system.
    """
    labels = [s.label for s in segments]
    for segment in segments:
        _check_tasks(segment, datasets)
        if labels.count(segment.label) > 1:
            raise EvolutionError(f"segment label {segment.label!r} is repeated")
    first, done = 0, 0
    if system.run_position is not None:
        label, done = system.run_position
        if label not in labels:
            raise EvolutionError(f"checkpoint is positioned at unknown segment {label!r}")
        first = labels.index(label)
        if done >= segments[first].iterations * len(segments[first].tasks):
            first, done = first + 1, 0

    for segment in segments[first:]:
        def advance(snap):
            nonlocal done
            done += 1
            system.run_position = (segment.label, done)
            if on_iteration is not None:
                on_iteration(snap)

        run_segment(system, segment, datasets, base_cfg, on_iteration=advance,
                    start=done)
        system.run_position = (segment.label, done)
        done = 0


_SEGMENT_FIELDS = {
    "mode": str, "s": float, "recalibrate": float, "iterations": int,
    "generations": int, "children": int, "cycles": int, "samples_cap": int,
    "tasks": lambda value: [t.strip() for t in value.split(",") if t.strip()],
}


def parse_segments(text: str) -> list[SegmentSpec]:
    """Parse the line-oriented segment file format: a ``segment <label>`` line
    opens a segment and each ``<field> <value>`` line after it sets a field."""
    segments: list[SegmentSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        key = parts[0]
        value = parts[1].strip() if len(parts) > 1 else ""
        if key != "segment":
            if not segments:
                raise EvolutionError(f"line {lineno}: {key!r} before any segment")
            if key not in _SEGMENT_FIELDS:
                raise EvolutionError(f"line {lineno}: unknown directive {key!r}")
        try:
            if key == "segment":
                segments.append(SegmentSpec(label=value))
            else:
                segments[-1] = replace(segments[-1], **{key: _SEGMENT_FIELDS[key](value)})
        except ValueError as exc:
            raise EvolutionError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    if not segments:
        raise EvolutionError("segment file defines no segments")
    return segments


def load_segments(path: str) -> list[SegmentSpec]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_segments(fh.read())

