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

import atexit
import contextlib
import functools
import logging
import math
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from .data import TaskDataset, bilinear_resample, bilinear_resize, bilinear_taps
from .rng import Rng
from .search_space import RESOLUTION_AXIS
from .system import ModelSpec, SystemState


# Evaluation forwards at most this many images at once. Another chunk size
# can change the BLAS sums, so it is fixed.
EVAL_CHUNK = 256

# A cycle of at least this many steps makes its batches in the batch helper; a
# shorter one does not repay the round trips (break-even table in CHANGES.md).
MIN_PIPELINED_STEPS = 4

# The helper's stdout pipe holds this many bytes, so it can run batches ahead; with
# Linux's default 64 KiB, pairs-evolve ran 5% fewer ops a minute (ROADMAP.md)
HELPER_PIPE_BYTES = 1 << 20

# malloc thresholds that keep the helper's heap resident: with glibc's defaults
# it took ~160 minor page faults a 16-image batch at resolution 32, none with these
_HELPER_TUNABLES = "glibc.malloc.trim_threshold=268435456:glibc.malloc.mmap_threshold=33554432"

log = logging.getLogger(__name__)


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
    per-axis deltas and quality-quantizes each image. Eval mode is a
    deterministic resize, EVAL_CHUNK images at a time so its float64
    intermediates stay one chunk's size, and never touches the rng.
    """
    if images.ndim != 4 or images.dtype != np.uint8:
        raise TrainerError(
            f"expected uint8 (n, h, w, c) images, got {images.shape} {images.dtype}")
    if len(images) == 0:
        raise TrainerError("cannot preprocess an empty batch")
    res = hparams[RESOLUTION_AXIS]
    if train_mode:
        if rng is None:
            raise TrainerError("training preprocessing needs an rng")
        x = images / 255.0
        with np.errstate():  # leaving it restores numpy's ufunc buffer size
            # numpy copies a per-image operand through its 8192-value buffer when
            # an image is shorter than that; a 1024-value buffer spares the copy,
            # 3x faster a step at 32x32x3, and no result depends on it
            np.setbufsize(1024)
            x = _augment(x, hparams, res, rng)
        # x * 2 - 1 in float64, rounded once to float32 as astype would
        return np.subtract(x, 1.0, out=np.empty(x.shape, dtype=np.float32))
    out = np.empty((len(images), res, res, images.shape[3]), dtype=np.float32)
    for start in range(0, len(images), EVAL_CHUNK):
        x = bilinear_resize(images[start:start + EVAL_CHUNK] / 255.0, res, res)
        x *= 2.0
        np.subtract(x, 1.0, out=out[start:start + EVAL_CHUNK])
    return out


def draws_per_image(hparams: dict) -> int:
    """The uniforms ``_augment`` draws for each image: crop area, aspect, y and
    x offset, one for the flip if it is on, then one per non-zero delta. So a
    train batch of n images advances the rng counter by n times this."""
    deltas = ("brightness", "contrast", "saturation", "hue", "quality")
    return 4 + hparams["flip"] + sum(hparams[f"{name}_delta"] > 0 for name in deltas)


def _augment(x: np.ndarray, hparams: dict, res: int, rng: Rng) -> np.ndarray:
    """Augment a float (n, h, w, c) batch exactly as one image at a time would
    be: the same draws in the same order, and each pixel's sums in its order.
    Every jitter step works in the resampled batch's own memory. Returns the
    batch times 2, the first step of the unit range's x * 2 - 1."""
    n, h, w, c = x.shape
    bright, contrast, sat, hue, quality = (hparams[f"{name}_delta"] for name in (
        "brightness", "contrast", "saturation", "hue", "quality"))
    flip = hparams["flip"]
    k = draws_per_image(hparams)
    # one row per draw an image takes, in draws_per_image's order
    u = rng.uniforms(n * k).reshape(n, k).T
    draws = iter(u[4 + flip:, :, None, None, None])

    def uniform_in(lo, hi):
        return lo + (hi - lo) * next(draws)

    area_min, aspect_min = hparams["crop_area_min"], hparams["crop_aspect_min"]
    bounds = np.array([[h], [w]])
    target = (area_min + (1.0 - area_min) * u[0]) * h * w
    aspect = aspect_min + (1.0 / aspect_min - aspect_min) * u[1]
    size = np.minimum(np.maximum(np.rint(np.sqrt([target / aspect, target * aspect]))
                                 .astype(int), 1), bounds)
    # tap table rows: the crop height - 1, then h + its width - 1, w further on if flipped
    row = size + [[-1], [h - 1]]
    if flip:
        flipped = u[4] < 0.5
        row[1] += w * flipped
    index, upper = _crop_taps(h, w, res)
    taps = index[:, row] + (u[2:4] * (bounds - size + 1)).astype(int)[:, :, None]
    x = bilinear_resample(x, (taps[:, 0], upper[row[0]]), (taps[:, 1], upper[row[1]]))

    if bright > 0:
        x += uniform_in(-bright, bright)
    if contrast > 0:
        mean = x.mean(axis=(1, 2, 3), keepdims=True)
        if flip and not bright > 0 and flipped.any():
            # one image at a time, this is a reversed view, which numpy sums its own way
            mean[flipped] = x[flipped, :, ::-1][:, :, ::-1].mean(axis=(1, 2, 3), keepdims=True)
        _scale_about(x, mean, 1.0 + uniform_in(-contrast, contrast))
    if sat > 0:
        # the channel mean summed left to right, as numpy sums a short axis,
        # then laid out once over the channels so every pass below is flat
        gray = x[..., 0].copy()
        for i in range(1, c):
            gray += x[..., i]
        gray /= c
        _scale_about(x, np.stack([gray] * c, axis=-1), 1.0 + uniform_in(-sat, sat))
    if hue > 0:
        shift = uniform_in(-hue, hue)
        if c >= 3:
            weight = abs(shift)
            rolled = _weighted_roll(x, shift.reshape(n) > 0, weight.reshape(n))
            x *= 1 - weight
            x += rolled
    if max(bright, contrast, sat, hue) > 0:
        np.clip(x, 0.0, 1.0, out=x)
    if quality > 0:
        # Quantization grain in [5, 255] levels depending on delta and the draw.
        levels = np.round(1.0 / (quality * next(draws) + 1.0 / 255.0))
        steps = np.maximum(2.0, levels) - 1.0
        x *= steps
        np.rint(x, out=x)
        x /= steps / 2  # / steps, then the unit range's * 2: both round as this does
    else:
        x *= 2.0
    return x


@functools.cache
def _crop_taps(h: int, w: int, res: int) -> tuple[np.ndarray, np.ndarray]:
    """``bilinear_taps`` to ``res`` pixels for every crop height 1..h, every
    crop width 1..w, then every crop width 1..w mirrored, as two tables."""
    index, upper = bilinear_taps(np.r_[1:h + 1, 1:w + 1], res)
    return (np.concatenate([index, index[:, h:, ::-1]], axis=1),
            np.concatenate([upper, upper[h:, ::-1]]))


def _scale_about(x: np.ndarray, center: np.ndarray, factor: np.ndarray) -> None:
    """x = center + (x - center) * factor, in x's memory."""
    x -= center
    x *= factor
    x += center


def _weighted_roll(x: np.ndarray, up: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Per image, ``weight`` times ``np.roll`` by +1 (where ``up``) or -1 along
    the channel axis: a flat one-value shift, then the channel that wraps."""
    rolled = np.empty_like(x)
    flat, out = x.reshape(len(x), -1), rolled.reshape(len(x), -1)
    for i, (forward, w) in enumerate(zip(up, weight)):
        if forward:
            np.multiply(flat[i, :-1], w, out=out[i, 1:])
            np.multiply(x[i, ..., -1], w, out=rolled[i, ..., 0])
        else:
            np.multiply(flat[i, 1:], w, out=out[i, :-1])
            np.multiply(x[i, ..., 0], w, out=rolled[i, ..., -1])
    return rolled


# -- forward / backward --------------------------------------------------------

def _patchify(batch: np.ndarray, d_in: int):
    b, res_h, res_w, channels = batch.shape
    if res_h != res_w:
        raise TrainerError("expected square input")
    side = math.isqrt(d_in // channels)
    if side * side * channels != d_in:
        raise TrainerError(f"embedding d_in={d_in} is not a square patch of {channels} channels")
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
    x = batch.astype(dtype, copy=False)
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
    trainable blocks are written. A cycle of ``MIN_PIPELINED_STEPS`` steps or
    more has its batches made in the batch helper, with the same bytes and
    draws as in process.
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
    make = _pipelined_batches if steps_per_cycle >= MIN_PIPELINED_STEPS else _cycle_batches
    batches = make(images, hp, rng, order, budget.batch_size)
    losses = []
    try:
        for step_i, (idx, batch) in enumerate(batches):
            lr = lr_at(cycle_index * steps_per_cycle + step_i, total_steps,
                       hp["learning_rate"], hp["warmup_ratio"])
            loss_value, grads = loss_and_gradients(system, model, batch, labels[idx])
            for bid, grad in grads.items():
                block = system.block(bid)
                sgd_step(block.params, block.opt, grad, lr, hp["momentum"], hp["nesterov"])
            losses.append(loss_value)
    finally:
        batches.close()
    return CycleStats(samples=n, steps=steps_per_cycle,
                      mean_loss=float(np.mean(losses)))


def _cycle_batches(images: np.ndarray, hparams: dict, rng: Rng, order: list[int],
                   batch_size: int):
    """A cycle's train batches in order, each with its images' indices: the
    one definition of them, run in process or in the batch helper."""
    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        yield idx, preprocess_batch(images[idx], hparams, rng, train_mode=True)


# -- the batch helper --------------------------------------------------------------
# One per process: it holds nothing that affects a result, since each cycle's
# job carries all of its inputs.

_helper = None
_helper_failed = False  # once no helper could start, long cycles stay in process


def _pipelined_batches(images: np.ndarray, hparams: dict, rng: Rng, order: list[int],
                       batch_size: int):
    """``_cycle_batches`` made ahead in the batch helper. A yielded batch is
    valid only until the next batch is asked for. ``rng`` advances past a
    batch's draws once its bytes are read, so if no helper can start, or it stops, the
    rest of the cycle is made in process, where an error the helper met recurs."""
    global _helper, _helper_failed
    if _helper is None and not _helper_failed:
        try:
            _helper = _BatchHelper()
        except (OSError, AttributeError, ImportError) as exc:  # no F_SETPIPE_SZ or fcntl
            _helper_failed = True
            log.warning("cannot start the train batch helper (%s); "
                        "every cycle makes its batches in process", exc)
    made = 0
    if _helper is not None:
        try:
            for item in _helper.batches(images, hparams, rng, order, batch_size):
                yield item
                made += 1
            return
        except (OSError, EOFError) as exc:
            log.warning("the train batch helper died (%s); the cycle goes on in process", exc)
            _close_helper()
        except BaseException:  # the cycle was left mid-way
            _close_helper()
            raise
    yield from _cycle_batches(images, hparams, rng, order[made * batch_size:], batch_size)


def _close_helper() -> None:
    global _helper
    if _helper is not None:
        helper, _helper = _helper, None
        helper.close()


atexit.register(_close_helper)


class _BatchHelper:
    """A fresh interpreter running ``_serve``. Jobs go down its stdin, pickled;
    batches come up its stdout as bare float32 bytes, read into one buffer that
    every batch reuses. Batch j's indices and draws follow from j."""

    def __init__(self):
        import fcntl  # fcntl and F_SETPIPE_SZ are looked up before a process starts
        set_pipe_size = fcntl.F_SETPIPE_SZ
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        # the user's own tunables come last, so glibc keeps them
        env = dict(os.environ, GLIBC_TUNABLES=":".join(
            filter(None, (_HELPER_TUNABLES, os.environ.get("GLIBC_TUNABLES")))))
        code = (f"import sys; sys.path.insert(0, {root!r}); "
                f"from evograft.trainer import _serve; _serve()")
        self.proc = subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env, start_new_session=True)
        try:
            fcntl.fcntl(self.proc.stdout, set_pipe_size, HELPER_PIPE_BYTES)
        except OSError:
            self.close()
            raise
        self.buffer = np.empty(0, np.float32)

    def batches(self, images, hparams, rng, order, batch_size):
        res, channels = hparams[RESOLUTION_AXIS], images.shape[3]
        per_image, draws = res * res * channels, draws_per_image(hparams)
        if batch_size * per_image > self.buffer.size:
            self.buffer = np.empty(batch_size * per_image, np.float32)
        pickle.dump((images, hparams, rng.state(), order, batch_size), self.proc.stdin)
        self.proc.stdin.flush()
        for start in range(0, len(order), batch_size):
            idx = order[start:start + batch_size]
            batch = self.buffer[:len(idx) * per_image]
            if self.proc.stdout.readinto(batch) != batch.nbytes:
                raise EOFError("a batch was cut short")
            rng.counter += len(idx) * draws  # only now, so a cut batch is made again from its start
            yield idx, batch.reshape(len(idx), res, res, channels)

    def close(self) -> None:
        """Close both pipes, so the helper reads EOF or fails a write, then reap
        it; a wait before stdout is closed hangs on a helper blocked writing."""
        with contextlib.suppress(BrokenPipeError):  # a dead helper left bytes unsent
            self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def _serve() -> None:
    """The batch helper's loop: write each job's ``_cycle_batches`` to stdout,
    each batch's bytes and nothing else. Any exception ends it quietly: EOF or
    a broken pipe, which it also meets when the main process dies, or an error
    in a batch, which the main process meets again once the helper's stdout
    ends short."""
    jobs, replies = sys.stdin.buffer, sys.stdout.buffer
    with contextlib.suppress(Exception):
        while True:
            images, hparams, state, order, batch_size = pickle.load(jobs)
            for _, batch in _cycle_batches(images, hparams, Rng(*state), order, batch_size):
                replies.write(batch)
                replies.flush()


def evaluate(system: SystemState, model: ModelSpec, images: np.ndarray,
             labels: np.ndarray) -> float:
    """Top-1 accuracy under deterministic eval preprocessing. Each EVAL_CHUNK
    of images is preprocessed just before it is forwarded, so memory is
    bounded by the chunk, not by the split."""
    return _accuracy(system, model, labels, lambda chunk: preprocess_batch(
        images[chunk], model.hparams, None, train_mode=False))


def batch_accuracy(system: SystemState, model: ModelSpec, batch: np.ndarray,
                   labels: np.ndarray) -> float:
    """Top-1 accuracy of an eval-mode batch, forwarded EVAL_CHUNK images at a time."""
    return _accuracy(system, model, labels, lambda chunk: batch[chunk])


def _accuracy(system: SystemState, model: ModelSpec, labels: np.ndarray,
              batch_of) -> float:
    if len(labels) == 0:
        raise TrainerError("cannot evaluate on an empty split")
    correct = 0
    for start in range(0, len(labels), EVAL_CHUNK):
        chunk = slice(start, start + EVAL_CHUNK)
        logits = forward(system, model, batch_of(chunk))
        correct += int((logits.argmax(axis=1) == labels[chunk]).sum())
    return correct / len(labels)
