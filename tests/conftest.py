from __future__ import annotations

import numpy as np
import pytest


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)

from evograft import trainer
from evograft.data import TaskDataset
from evograft.evolution import EvolutionError, bootstrap_system
from evograft.mutations import clone_action
from evograft.rng import Rng
from evograft.scoring import ScoreParams
from evograft.search_space import (HparamAxis, SearchSpace, format_axis_line,
                                   load_builtin_space, parse_space)
from evograft.system import EMBEDDING, HEAD, HIDDEN, ModelSpec, SystemState


@pytest.fixture(scope="session")
def desk_space() -> SearchSpace:
    return load_builtin_space("desk")


@pytest.fixture(scope="session")
def table1_space() -> SearchSpace:
    return load_builtin_space("table1")


@pytest.fixture()
def small_system(desk_space):
    # width 8 keeps gradients and training cheap; patch 8 divides both desk
    # resolutions (16, 32)
    return bootstrap_system(desk_space, seed=11, width=8, depth=3, patch=8, channels=3)


def make_dataset(name: str, classes: int = 4, h: int = 16, w: int = 16, c: int = 3,
                 n_train: int = 96, n_val: int = 48, n_test: int = 48,
                 noise: float = 0.05, seed: int = 5) -> TaskDataset:
    """In-memory prototype classification task, same recipe as the generator."""
    rng = Rng(seed, f"fixture/{name}")
    protos = []
    for _ in range(classes):
        coarse = 0.25 + 0.5 * rng.uniforms(4 * 4 * c).reshape(4, 4, c)
        from evograft.data import bilinear_resize
        protos.append(bilinear_resize(coarse, h, w))
    protos = np.stack(protos)
    ds = TaskDataset(name=name, num_classes=classes, h=h, w=w, c=c)
    for split, count in (("train", n_train), ("val", n_val), ("test", n_test)):
        labels = np.array([rng.randint(classes) for _ in range(count)], dtype=np.int64)
        noise_arr = rng.normals(count * h * w * c, 0.0, noise).reshape(count, h, w, c)
        images = np.clip(protos[labels] + noise_arr, 0.0, 1.0)
        ds.splits[split] = (np.round(images * 255.0).astype(np.uint8), labels)
    return ds


TINY_SPACE_TEXT = """\
learning_rate | 0.0001,0.0002,0.0005,0.001,0.002,0.005,0.01,0.02,0.05,0.1,0.2,0.5 | 6
warmup_ratio | 0.0,0.01,0.02,0.05,0.1,0.2,0.3 | 4
momentum | 0.5,0.6,0.7,0.75,0.8,0.85,0.9,0.95,0.98,0.99 | 6
nesterov | False,True | 0
crop_area_min | 0.05,0.5,0.95,1.0 | 3
crop_aspect_min | 0.5,0.75,1.0 | 2
flip | False,True | 0
brightness_delta | 0.0,0.01,0.02,0.05,0.1,0.2 | 0
contrast_delta | 0.0,0.01,0.02,0.05,0.1,0.2 | 0
saturation_delta | 0.0,0.01,0.02,0.05,0.1,0.2 | 0
hue_delta | 0.0,0.01,0.02,0.05,0.1,0.2 | 0
quality_delta | 0.0,0.01,0.02,0.05,0.1,0.2 | 0
resolution | 8,16 | 1
"""


def tiny_space() -> SearchSpace:
    """Desk axes with resolutions 8/16, pairs with patch=4 or patch=8 backbones."""
    return parse_space(TINY_SPACE_TEXT)


def pinned_space(space: SearchSpace, axis: str = "momentum") -> SearchSpace:
    """``space`` with ``axis`` pinned to its default: an axis of one value."""
    return SearchSpace([HparamAxis(a.name, (a.default,), 0) if a.name == axis else a
                        for a in space.axes.values()])


def empty_system(space: SearchSpace | None = None, seed: int = 3) -> SystemState:
    return SystemState(space or tiny_space(), ScoreParams(), Rng(seed, "test"))


def add_dense_block(system: SystemState, kind: str, d_in: int, d_out: int,
                    task: str = "root", fill: float | None = None):
    n = d_in * d_out + d_out
    if fill is None:
        params = (np.arange(n, dtype=np.float32) % 7) / 7.0
    else:
        params = np.full(n, fill, dtype=np.float32)
    return system.add_block(kind, d_in, d_out, params, np.zeros(n, dtype=np.float32), task)


def add_model(system: SystemState, task: str, trunk_ids: list[int],
              head_d_in: int, num_classes: int, quality: float | None = None,
              resolution: int | None = None) -> ModelSpec:
    """Commit a model over existing trunk blocks plus a fresh private head."""
    head = add_dense_block(system, HEAD, head_d_in, num_classes, task=task)
    hparams = system.space.default_config()
    if resolution is not None:
        hparams["resolution"] = resolution
    model = ModelSpec(id=system.new_model_id(), task=task,
                      layers=[(bid, False) for bid in trunk_ids] + [(head.id, True)],
                      hparams=hparams, mu={}, quality=quality)
    system.commit_model(model)
    return model


def simple_trunk(system: SystemState, width: int = 4, depth: int = 2,
                 patch: int = 4, channels: int = 3) -> list[int]:
    emb = add_dense_block(system, EMBEDDING, patch * patch * channels, width)
    ids = [emb.id]
    for _ in range(depth):
        ids.append(add_dense_block(system, HIDDEN, width, width).id)
    return ids


def finetune_top_actions(parent: ModelSpec, top_k: int) -> set:
    """Action set for the fine-tune-top-layers baseline: forced clones of the
    top ``top_k`` non-head layers, no other mutations (every child gets a new
    head)."""
    non_head = len(parent.layers) - 1
    if not 0 <= top_k <= non_head:
        raise EvolutionError(f"top_k must be in [0, {non_head}]")
    return {clone_action(pos) for pos in range(non_head - top_k, non_head)}


def space_text(space: SearchSpace) -> str:
    """The space as an axis-table file."""
    return "".join(format_axis_line(a) + "\n" for a in space.axes.values())


def loss(system: SystemState, model: ModelSpec, batch: np.ndarray,
         labels: np.ndarray, dtype=np.float32) -> float:
    """Mean cross-entropy of ``model`` on ``batch``: the finite-difference
    reference for ``trainer.loss_and_gradients``."""
    logits, _ = trainer._forward_cached(system, model, batch, dtype)
    logp = trainer._log_softmax(logits)
    return float(-logp[np.arange(len(labels)), labels].mean())
