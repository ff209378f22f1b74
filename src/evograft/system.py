"""Layer-block store, model registry, sharing counts, and cost accounting.

The system holds every parameter block once; models are ordered lists of
(block id, trainable flag) references. A block's cost to one model is its
parameter count divided by one plus the number of models for *other* tasks
referencing it, so shared frozen blocks get cheaper as more tasks reuse them.
Each block keeps those counts, ``refs`` per task and ``users`` in all, and
``by_task`` indexes a task's models; only commit and discard change them, and
all are derived state, never persisted. A model keeps its own parent-selection
counts per task (``selections``, persisted), so they go away with it.
Inference flops are an analytic count over the model's own dense maps and do
not depend on sharing: ``commit_model`` counts them and the model keeps them.
``blocks`` and ``models`` iterate in ascending id order by construction:
``add_block`` numbers upward and ``commit_model`` accepts only an id above the
last committed one, so readers never re-sort.

A block is settled once the iteration that created it ends, that is once
its ``generation_tag`` is below ``iterations_done`` (``settle_ended``): its
parameter and optimizer arrays become read-only, so any later write raises
numpy's ``ValueError`` and a settled task can never be forgotten. Reads are
safe to run concurrently; commit, discard, and garbage collection assume a
single writer, and training writes only unsettled blocks, so child training
may overlap reads of settled ones. ``history`` holds one ``MetricsSnapshot``
per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .rng import Rng
from .search_space import RESOLUTION_AXIS, SearchSpace, on_mu_grid

if TYPE_CHECKING:
    from .checkpoint import PackPlacement
    from .data import TaskDataset
    from .scoring import ScoreParams

EMBEDDING = "embedding"
HIDDEN = "hidden"
HEAD = "head"

ROOT_TASK = "root"
MIN_HIDDEN_DEPTH = 1

# A mutation action is the key its model's mu table and manifest line store
REMOVE_TOP_LAYER = "remove"


def clone_action(depth: int) -> str:
    return f"clone:{depth}"


def hparam_action(axis: str) -> str:
    return f"hparam:{axis}"


class SystemError_(ValueError):
    """Structural violation in the multitask system."""


@dataclass
class LayerBlock:
    """A block of trainable parameters plus congruent optimizer state.

    ``params`` packs one dense map flat: the row-major weight (d_in*d_out
    values) followed by the bias (d_out values), both float32.
    """

    id: int
    kind: str
    d_in: int
    d_out: int
    params: np.ndarray
    opt: np.ndarray
    created_by_task: str
    generation_tag: int
    # Derived, never persisted, not compared: its manifest line's text and its referrer counts
    manifest_text: str | None = field(default=None, compare=False, repr=False)
    refs: dict[str, int] = field(default_factory=dict, compare=False, repr=False)
    users: int = field(default=0, compare=False, repr=False)

    def __post_init__(self):
        if self.params.dtype != np.float32 or self.opt.dtype != np.float32:
            raise SystemError_(f"block {self.id} arrays must be float32")
        if (self.params.size != self.d_in * self.d_out + self.d_out
                or self.opt.size != self.params.size):
            raise SystemError_(f"block {self.id} array sizes do not match its shape")

    @property
    def n_params(self) -> int:
        return self.params.size

    def weight(self, dtype=None) -> np.ndarray:
        w = self.params[: self.d_in * self.d_out].reshape(self.d_in, self.d_out)
        return w if dtype is None else w.astype(dtype, copy=False)

    def bias(self, dtype=None) -> np.ndarray:
        b = self.params[self.d_in * self.d_out :]
        return b if dtype is None else b.astype(dtype, copy=False)

    def clone_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.params.copy(), self.opt.copy()

    def settle(self) -> None:
        """Make both arrays read-only: the iteration that created the block
        has ended, and nothing may write it again."""
        self.params.flags.writeable = False
        self.opt.flags.writeable = False

    @property
    def settled(self) -> bool:
        return not (self.params.flags.writeable or self.opt.flags.writeable)


@dataclass
class ModelSpec:
    """One task's model: layer references, hyperparameters, mutation table."""

    id: int
    task: str
    layers: list[tuple[int, bool]]
    hparams: dict
    mu: dict
    parent_id: int | None = None
    quality: float | None = None
    score_snapshot: float | None = None
    selections: dict[str, int] = field(default_factory=dict)  # task -> times chosen as parent
    # Derived, never persisted, not compared: the text of its layers, hparams
    # and mu manifest lines, which assumes the model's own system (its axis
    # order); its (test dataset, accuracy) once its blocks are settled; and,
    # set at commit, its inference flops.
    manifest_text: str | None = field(default=None, compare=False, repr=False)
    test_accuracy: tuple["TaskDataset", float] | None = field(
        default=None, compare=False, repr=False)
    flops: int | None = field(default=None, compare=False, repr=False)

    def layer_ids(self) -> list[int]:
        return [lid for lid, _ in self.layers]

    def trainable_ids(self) -> list[int]:
        return [lid for lid, trainable in self.layers if trainable]

    def head_id(self) -> int:
        return self.layers[-1][0]

    def hidden_count(self) -> int:
        return len(self.layers) - 2


@dataclass
class MetricsSnapshot:
    index: int
    segment: str
    task: str
    mean_test_accuracy: float
    mean_accounted_params: float
    mean_inference_flops: float
    per_task: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    # the text of its manifest lines once a save or load has rendered it;
    # derived, never persisted, left out of comparisons
    manifest_text: str | None = field(default=None, compare=False, repr=False)


class SystemState:
    """The whole multitask system: blocks, models, counts, score parameters."""

    def __init__(self, space: SearchSpace, score_params: "ScoreParams", rng: Rng):
        self.space = space
        self.score_params = score_params
        self.rng = rng
        self.blocks: dict[int, LayerBlock] = {}
        self.models: dict[int, ModelSpec] = {}
        self.by_task: dict[str, dict[int, ModelSpec]] = {}  # task -> id -> model
        self.task_paths: dict[str, str] = {}
        self.ever_trainable: set[int] = set()
        self.history: list[MetricsSnapshot] = []
        self.run_position: tuple[str, int] | None = None
        self.next_block_id = 0
        self.next_model_id = 0
        self.iterations_done = 0
        # Derived state, never persisted: checkpoint path -> the pack placement
        # last saved or loaded there (cached text and accuracies are on their owners)
        self.packs: dict[str, "PackPlacement"] = {}

    # -- block and model lifecycle -------------------------------------------

    def add_block(self, kind: str, d_in: int, d_out: int, params: np.ndarray,
                  opt: np.ndarray, created_by_task: str) -> LayerBlock:
        block = LayerBlock(self.next_block_id, kind, d_in, d_out, params, opt,
                           created_by_task, self.iterations_done)
        self.blocks[block.id] = block
        self.next_block_id += 1
        return block

    def settle_ended(self) -> None:
        """Settle every block whose iteration has ended and that is not yet settled."""
        for block in self.blocks.values():
            if block.generation_tag < self.iterations_done and not block.settled:
                block.settle()

    def block(self, block_id: int) -> LayerBlock:
        try:
            return self.blocks[block_id]
        except KeyError:
            raise SystemError_(f"unknown layer block {block_id}") from None

    def new_model_id(self) -> int:
        mid = self.next_model_id
        self.next_model_id += 1
        return mid

    def model_blocks(self, model: ModelSpec) -> list[LayerBlock]:
        return [self.block(lid) for lid in model.layer_ids()]

    def models_for(self, task: str) -> list[ModelSpec]:
        return list(self.by_task.get(task, {}).values())

    def tasks_with_models(self) -> list[str]:
        return sorted(self.by_task)

    def validate_model(self, model: ModelSpec) -> None:
        ids = model.layer_ids()
        kinds = [self.block(lid).kind for lid in ids]
        if len(set(ids)) < len(ids):
            twice = next(lid for lid in ids if ids.count(lid) > 1)
            raise SystemError_(f"model {model.id} lists block {twice} more than once")
        if len(kinds) < 2 + MIN_HIDDEN_DEPTH:
            raise SystemError_(f"model {model.id} is too shallow")
        if kinds[0] != EMBEDDING or kinds[-1] != HEAD:
            raise SystemError_(f"model {model.id} layer order is invalid")
        if any(k != HIDDEN for k in kinds[1:-1]):
            raise SystemError_(f"model {model.id} has a non-hidden interior block")
        head = model.head_id()
        if any(task != model.task for task in self.block(head).refs):
            raise SystemError_(f"model {model.id} head block {head} is shared across tasks")
        self.space.validate_config(model.hparams)
        # the actions a model could ever take, whatever the mode and depth
        takes = {clone_action(i) for i in range(len(model.layers) - 1)}
        takes |= {REMOVE_TOP_LAYER} | {hparam_action(axis) for axis in self.space.axes}
        for action, value in model.mu.items():
            if action not in takes:
                raise SystemError_(f"model {model.id} mu table holds {action}, "
                                   "an action it can never take")
            if not on_mu_grid(value):
                raise SystemError_(f"model {model.id} mu value {value!r} for "
                                   f"{action} is off-grid")

    def commit_model(self, model: ModelSpec) -> None:
        if self.models and model.id <= next(reversed(self.models)):
            raise SystemError_(f"model {model.id} is not above the last committed id")
        self.validate_model(model)
        model.flops = self._inference_flops(model)
        self.models[model.id] = model
        self.by_task.setdefault(model.task, {})[model.id] = model
        for lid, trainable in model.layers:
            block = self.blocks[lid]
            block.refs[model.task] = block.refs.get(model.task, 0) + 1
            block.users += 1
            if trainable:
                self.ever_trainable.add(lid)

    def discard_model(self, model: ModelSpec) -> None:
        if model.id not in self.models:
            raise SystemError_(f"model {model.id} is not committed")
        del self.models[model.id]
        del self.by_task[model.task][model.id]
        if not self.by_task[model.task]:
            del self.by_task[model.task]
        for block in self.model_blocks(model):
            block.refs[model.task] -= 1
            block.users -= 1
            if not block.refs[model.task]:
                del block.refs[model.task]
        self.collect_garbage()

    def collect_garbage(self) -> None:
        self.blocks = {bid: b for bid, b in self.blocks.items() if b.users}

    # -- cost accounting -----------------------------------------------------

    def sharing_count(self, block_id: int, task: str) -> int:
        """Number of models for tasks other than ``task`` referencing the block."""
        block = self.block(block_id)
        return block.users - block.refs.get(task, 0)

    def accounted_params(self, model: ModelSpec) -> float:
        """Parameter cost of the model with shared blocks discounted.

        Each block contributes size / (sharing count + 1), where the sharing
        count looks only at models trained for other tasks.
        """
        total = 0.0
        for lid in model.layer_ids():
            block = self.block(lid)
            total += block.n_params / (self.sharing_count(lid, model.task) + 1)
        return total

    def inference_flops(self, model: ModelSpec) -> int:
        """Dense-map flop count for one input sample at the model's resolution:
        the one its commit kept, or counted now for a never-committed model."""
        return self._inference_flops(model) if model.flops is None else model.flops

    def _inference_flops(self, model: ModelSpec) -> int:
        resolution = model.hparams[RESOLUTION_AXIS]
        total = 0
        for lid in model.layer_ids():
            block = self.block(lid)
            if block.kind == EMBEDDING:
                total += embedding_flops(block, resolution)
            else:
                total += dense_flops(block.d_in, block.d_out)
        return total


def dense_flops(d_in: int, d_out: int) -> int:
    """Multiply-accumulate plus bias-add count of one dense map."""
    return 2 * d_in * d_out + d_out


def embedding_flops(block: LayerBlock, resolution: int) -> int:
    """Embedding applies its dense map once per patch of the input image."""
    return patch_count(block, resolution) * dense_flops(block.d_in, block.d_out)


def patch_count(block: LayerBlock, resolution: int) -> int:
    """Patches per image. The patch side is guessed from ``d_in``: that of the
    first of 3, 1, 4 and 2 channels that gives a square patch. So a 4-channel
    patch of side p is taken for a 1-channel patch of side 2p."""
    for channels in (3, 1, 4, 2):
        side = math.isqrt(block.d_in // channels)
        if side * side * channels == block.d_in:
            break
    else:
        raise SystemError_(f"cannot infer channel count from embedding d_in={block.d_in}")
    if resolution % side != 0:
        raise SystemError_(f"resolution {resolution} is not divisible by patch side {side}")
    return (resolution // side) ** 2


# -- construction ------------------------------------------------------------

def init_params(rng: Rng, d_in: int, d_out: int) -> np.ndarray:
    """Weight ~ U(-1/sqrt(d_in), 1/sqrt(d_in)), zero bias."""
    bound = 1.0 / (d_in ** 0.5)
    weight = (rng.uniforms(d_in * d_out) * 2.0 - 1.0) * bound
    return np.concatenate([weight, np.zeros(d_out)]).astype(np.float32)


def zero_params(d_in: int, d_out: int) -> np.ndarray:
    """All-zero flat array for one dense map: a fresh head or optimizer state."""
    return np.zeros(d_in * d_out + d_out, dtype=np.float32)


# -- DOT export ---------------------------------------------------------------

_PALETTE = ("#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4", "#46f0f0",
            "#f032e6", "#bcf60c", "#fabebe", "#008080", "#e6beff", "#9a6324",
            "#fffac8", "#800000", "#aaffc3", "#808000", "#ffd8b1", "#000075")


def _task_color(task: str, order: dict[str, int]) -> str:
    if task == ROOT_TASK:
        return "gray"
    return _PALETTE[order[task] % len(_PALETTE)]


def export_dot(system: SystemState) -> str:
    """DOT digraph: triangle inputs, round blocks colored by creating task,
    rectangular heads; edges follow each model's path bottom to top."""
    lines = ["digraph multitask {", "  rankdir=BT;"]
    tasks = system.tasks_with_models()
    order = {t: i for i, t in enumerate(t for t in tasks if t != ROOT_TASK)}
    models = system.models.values()

    for task in tasks:
        lines.append(f'  "in_{task}" [shape=triangle, label="{task}"];')
    seen_blocks = set()
    for model in models:
        for lid in model.layer_ids()[:-1]:
            if lid in seen_blocks:
                continue
            seen_blocks.add(lid)
            block = system.block(lid)
            color = _task_color(block.created_by_task, order)
            lines.append(
                f'  "b{lid}" [shape=ellipse, style=filled, fillcolor="{color}", '
                f'label="{block.kind}{lid}"];')
    for model in models:
        color = _task_color(model.task, order)
        lines.append(
            f'  "head_m{model.id}" [shape=box, style=filled, fillcolor="{color}", '
            f'label="{model.task}:m{model.id}"];')
    for model in models:
        color = _task_color(model.task, order)
        path = model.layer_ids()
        lines.append(f'  "in_{model.task}" -> "b{path[0]}" [color="{color}"];')
        for a, b in zip(path[:-2], path[1:-1]):
            lines.append(f'  "b{a}" -> "b{b}" [color="{color}"];')
        lines.append(f'  "b{path[-2]}" -> "head_m{model.id}" [color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
