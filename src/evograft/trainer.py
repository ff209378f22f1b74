"""Desk-scale differentiable backbone with hand-written gradients.

The forward pass is: cut the preprocessed image into patches, apply the
embedding's dense map to every patch and average the results into one feature
vector, pass it through residual hidden blocks (dense + tanh + skip), then a
dense head produces the logits. Keeping the embedding patch-wise makes its
weights independent of the input resolution, so one frozen embedding block can
be shared by models running at different resolutions while its flop cost still
scales with the pixel count.

Parameters are stored float32; gradient checking runs the same code in a
float64 shadow evaluation. Layer order is checked once, when a model is
committed (``SystemState.validate_model``); the forward pass trusts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import TaskDataset, bilinear_resample, bilinear_resize, bilinear_taps, blend
from .rng import Rng
from .search_space import RESOLUTION_AXIS
from .system import ModelSpec, SystemState


# Evaluation forwards at most this many images at once. Another chunk size
# can change the BLAS sums, so it is fixed.
EVAL_CHUNK = 256


class TrainerError(ValueError):
    pass


@dataclass
class TrainBudget:
    samples_cap: int = 51200
    batch_size: int = 32

    def __post_init__(self):
        if self.samples_cap <= 0 or self.batch_size <= 0:
            raise TrainerError("budget fields must be positive")


@dataclass
class CycleStats:
    samples: int
    steps: int
    mean_loss: float


# -- preprocessing -------------------------------------------------------------

def preprocess_batch(images: np.ndarray, hparams: dict, rng: Rng | None,
                     train_mode: bool) -> np.ndarray:
    """(n, h, w, c) uint8 images to a float32 (n, res, res, c) batch in [-1, 1].

    Train mode randomly crops, resizes, flips (if on), color-jitters within the
    per-axis deltas and quality-quantizes each image. Eval mode is one
    deterministic resize of the whole batch and never touches the rng.
    """
    if images.ndim != 4 or images.dtype != np.uint8:
        raise TrainerError(
            f"expected uint8 (n, h, w, c) images, got {images.shape} {images.dtype}")
    x = images.astype(np.float64) / 255.0
    res = hparams[RESOLUTION_AXIS]
    if train_mode:
        if rng is None:
            raise TrainerError("training preprocessing needs an rng")
        x = _augment(x, hparams, res, rng)
    else:
        x = bilinear_resize(x, res, res)
    return (x * 2.0 - 1.0).astype(np.float32)


def _augment(x: np.ndarray, hparams: dict, res: int, rng: Rng) -> np.ndarray:
    """Augment a float (n, h, w, c) batch exactly as one image at a time would
    be: the same draws in the same order, and each pixel's sums in its order."""
    n, h, w, c = x.shape
    bright, contrast, sat, hue, quality = (hparams[f"{name}_delta"] for name in (
        "brightness", "contrast", "saturation", "hue", "quality"))
    k = 4 + hparams["flip"] + sum(d > 0 for d in (bright, contrast, sat, hue, quality))
    # per image: crop area, aspect, y and x offset, flip, one per non-zero delta
    draws = iter(rng.uniforms(n * k).reshape(n, k).T[:, :, None, None, None])

    def uniform_in(lo, hi):
        return lo + (hi - lo) * next(draws)

    aspect_min, bounds = hparams["crop_aspect_min"], np.array([[h], [w]])
    target = uniform_in(hparams["crop_area_min"], 1.0) * h * w
    aspect = uniform_in(aspect_min, 1.0 / aspect_min)
    size = np.clip(np.round(np.sqrt([target / aspect, target * aspect])).reshape(2, n)
                   .astype(int), 1, bounds)
    oy, ox = (np.stack([next(draws), next(draws)]).reshape(2, n) * (bounds - size + 1)
              ).astype(int)[:, :, None]
    (y0, x0), (y1, x1), (wy, wx) = bilinear_taps(size, res)
    if hparams["flip"]:
        flip = next(draws) < 0.5
        x0, x1, wx = (np.where(flip.reshape(n, 1), t[:, ::-1], t) for t in (x0, x1, wx))
    x = bilinear_resample(x, (oy + y0, oy + y1, wy), (ox + x0, ox + x1, wx))

    if bright > 0:
        x += uniform_in(-bright, bright)
    if contrast > 0:
        mean = x.mean(axis=(1, 2, 3), keepdims=True)
        if hparams["flip"] and not bright > 0:
            # one image at a time, this is a reversed view, which numpy sums its own way
            mirrored = x[:, :, ::-1].copy()[:, :, ::-1].mean(axis=(1, 2, 3), keepdims=True)
            mean = np.where(flip, mirrored, mean)
        x = mean + (x - mean) * (1.0 + uniform_in(-contrast, contrast))
    if sat > 0:
        gray = x.mean(axis=3, keepdims=True)
        x = gray + (x - gray) * (1.0 + uniform_in(-sat, sat))
    if hue > 0:
        shift = uniform_in(-hue, hue)
        if c >= 3:
            rolled = np.where(shift > 0, np.roll(x, 1, axis=3), np.roll(x, -1, axis=3))
            x = blend(x, rolled, abs(shift))
    if max(bright, contrast, sat, hue) > 0:
        np.clip(x, 0.0, 1.0, out=x)
    if quality > 0:
        # Quantization grain in [5, 255] levels depending on delta and the draw.
        levels = np.round(1.0 / (quality * next(draws) + 1.0 / 255.0)).astype(int)
        steps = np.maximum(2, levels) - 1
        x = np.round(x * steps) / steps
    return x


# -- forward / backward --------------------------------------------------------

def _patchify(batch: np.ndarray, d_in: int):
    b, res_h, res_w, channels = batch.shape
    if res_h != res_w:
        raise TrainerError("expected square input")
    if d_in % channels != 0:
        raise TrainerError(f"embedding d_in={d_in} not divisible by channels={channels}")
    side = int(round(math.sqrt(d_in // channels)))
    if side * side * channels != d_in:
        raise TrainerError(f"embedding d_in={d_in} is not a square patch")
    if res_h % side != 0:
        raise TrainerError(f"resolution {res_h} not divisible by patch side {side}")
    n = res_h // side
    patches = batch.reshape(b, n, side, n, side, channels)
    patches = patches.transpose(0, 1, 3, 2, 4, 5).reshape(b, n * n, d_in)
    return patches


def _forward_cached(system: SystemState, model: ModelSpec, batch: np.ndarray, dtype):
    blocks = system.model_blocks(model)
    if batch.ndim != 4 or batch.shape[1] != model.hparams[RESOLUTION_AXIS]:
        raise TrainerError(
            f"batch shape {batch.shape} does not match the model's resolution "
            f"{model.hparams[RESOLUTION_AXIS]}")
    x = batch.astype(dtype)
    emb = blocks[0]
    patches = _patchify(x, emb.d_in)
    z = patches @ emb.weight(dtype) + emb.bias(dtype)
    z = z.mean(axis=1)
    inputs, tanhs = [], []
    for block in blocks[1:-1]:
        inputs.append(z)
        t = np.tanh(z @ block.weight(dtype) + block.bias(dtype))
        tanhs.append(t)
        z = z + t
    head = blocks[-1]
    logits = z @ head.weight(dtype) + head.bias(dtype)
    return logits, (blocks, patches, inputs, tanhs, z)


def forward(system: SystemState, model: ModelSpec, batch: np.ndarray) -> np.ndarray:
    logits, _ = _forward_cached(system, model, batch, np.float32)
    return logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def loss_and_gradients(system: SystemState, model: ModelSpec, batch: np.ndarray,
                       labels: np.ndarray, dtype=np.float32):
    """Mean cross-entropy and its exact gradients for the trainable blocks.

    Backpropagation stops at the lowest trainable block; frozen blocks above it
    get no gradient entry. Gradient arrays are flat, congruent with params.
    """
    logits, (blocks, patches, inputs, tanhs, z_top) = _forward_cached(
        system, model, batch, dtype)
    b = len(labels)
    logp = _log_softmax(logits)
    loss_value = float(-logp[np.arange(b), labels].mean())

    trainable = set(model.trainable_ids())
    # Nothing reads dz below the lowest trainable block, so it stops there.
    lowest = min((i for i, b in enumerate(blocks) if b.id in trainable), default=len(blocks))
    grads: dict[int, np.ndarray] = {}

    d_logits = np.exp(logp)
    d_logits[np.arange(b), labels] -= 1.0
    d_logits /= b

    head = blocks[-1]
    if head.id in trainable:
        grads[head.id] = np.concatenate(
            [(z_top.T @ d_logits).ravel(), d_logits.sum(axis=0)])
    dz = d_logits @ head.weight(dtype).T if lowest < len(blocks) - 1 else None

    for i in range(len(blocks) - 2, max(lowest, 1) - 1, -1):
        block, z_in, t = blocks[i], inputs[i - 1], tanhs[i - 1]
        da = dz * (1.0 - t * t)
        if block.id in trainable:
            grads[block.id] = np.concatenate(
                [(z_in.T @ da).ravel(), da.sum(axis=0)])
        if i > lowest:
            dz = dz + da @ block.weight(dtype).T

    emb = blocks[0]
    if lowest == 0:
        n_patches = patches.shape[1]
        d_patch = np.repeat(dz[:, None, :] / n_patches, n_patches, axis=1)
        flat_p = patches.reshape(-1, emb.d_in)
        flat_d = d_patch.reshape(-1, dz.shape[1])
        grads[emb.id] = np.concatenate(
            [(flat_p.T @ flat_d).ravel(), flat_d.sum(axis=0)])
    return loss_value, grads


# -- optimization ----------------------------------------------------------------

def lr_at(step: int, total_steps: int, peak_lr: float, warmup_ratio: float) -> float:
    """Linear warmup to the peak over ceil(ratio * total) steps, then cosine
    decay to zero at ``total_steps``."""
    if not 0 <= step <= total_steps:
        raise TrainerError(f"step {step} outside [0, {total_steps}]")
    if step >= total_steps:
        return 0.0
    warmup_steps = math.ceil(warmup_ratio * total_steps)
    if step < warmup_steps:
        return peak_lr * step / warmup_steps
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def sgd_step(params: np.ndarray, opt: np.ndarray, grad: np.ndarray, lr: float,
             momentum: float, nesterov: bool) -> None:
    """In-place momentum SGD: v <- m*v + g, then the plain or nesterov update."""
    g = grad.astype(np.float32)
    opt *= np.float32(momentum)
    opt += g
    if nesterov:
        params -= np.float32(lr) * (g * np.float32(momentum) + opt)
    else:
        params -= np.float32(lr) * opt


def train_cycle(system: SystemState, model: ModelSpec, dataset: TaskDataset,
                budget: TrainBudget, cycle_index: int, total_cycles: int,
                rng: Rng) -> CycleStats:
    """One capped pass over the shuffled training split.

    The learning-rate schedule spans total_cycles * steps_per_cycle updates so
    successive cycles continue a single warmup/decay curve. Only the model's
    trainable blocks are written.
    """
    images, labels = dataset.split("train")
    if len(images) == 0:
        raise TrainerError(f"dataset {dataset.name!r} has an empty training split")
    n = min(len(images), budget.samples_cap)
    order = list(range(len(images)))
    rng.shuffle(order)
    order = order[:n]

    steps_per_cycle = math.ceil(n / budget.batch_size)
    total_steps = total_cycles * steps_per_cycle
    hp = model.hparams
    losses = []
    for step_i, start in enumerate(range(0, n, budget.batch_size)):
        idx = order[start:start + budget.batch_size]
        batch = preprocess_batch(images[idx], hp, rng, train_mode=True)
        lr = lr_at(cycle_index * steps_per_cycle + step_i, total_steps,
                   hp["learning_rate"], hp["warmup_ratio"])
        loss_value, grads = loss_and_gradients(system, model, batch, labels[idx])
        for bid, grad in grads.items():
            block = system.block(bid)
            sgd_step(block.params, block.opt, grad, lr, hp["momentum"], hp["nesterov"])
        losses.append(loss_value)
    return CycleStats(samples=n, steps=steps_per_cycle,
                      mean_loss=float(np.mean(losses)))


def evaluate(system: SystemState, model: ModelSpec, images: np.ndarray,
             labels: np.ndarray) -> float:
    """Top-1 accuracy under deterministic eval preprocessing."""
    batch = preprocess_batch(images, model.hparams, None, train_mode=False)
    return batch_accuracy(system, model, batch, labels)


def batch_accuracy(system: SystemState, model: ModelSpec, batch: np.ndarray,
                   labels: np.ndarray) -> float:
    """Top-1 accuracy of an eval-mode batch, forwarded EVAL_CHUNK images at a time."""
    if len(batch) == 0:
        raise TrainerError("cannot evaluate on an empty split")
    correct = 0
    for start in range(0, len(batch), EVAL_CHUNK):
        logits = forward(system, model, batch[start:start + EVAL_CHUNK])
        correct += int((logits.argmax(axis=1) == labels[start:start + EVAL_CHUNK]).sum())
    return correct / len(batch)
