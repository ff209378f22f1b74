import io
import itertools
import math
import os
import pickle
import select
import signal
import subprocess
import sys
import time
import tracemalloc
import types

import numpy as np
import pytest

from evograft import trainer
from evograft.mutations import apply_mutations, clone_action
from evograft.rng import Rng
from evograft.system import EMBEDDING, HEAD, HIDDEN
from evograft.trainer import (TrainBudget, TrainerError, evaluate, forward,
                              loss_and_gradients, lr_at, preprocess_batch, sgd_step,
                              train_cycle)

from conftest import add_model, empty_system, loss, make_dataset, simple_trunk


def test_default_config_pipeline_is_plain_resize(desk_space):
    hp = desk_space.default_config()
    rng = Rng(1, "pre")
    image = (np.arange(8 * 8 * 3) % 256).astype(np.uint8).reshape(8, 8, 3)
    trained = preprocess_batch(image[None], hp, rng, train_mode=True)[0]
    evaled = preprocess_batch(image[None], hp, None, train_mode=False)[0]
    assert np.array_equal(trained, evaled)


def test_eval_mode_is_deterministic_and_rng_free():
    space_hp = {"resolution": 8}
    image = (np.arange(4 * 4 * 3) % 256).astype(np.uint8).reshape(4, 4, 3)
    a = preprocess_batch(image[None], space_hp, None, train_mode=False)[0]
    b = preprocess_batch(image[None], space_hp, None, train_mode=False)[0]
    assert np.array_equal(a, b)
    assert a.dtype == np.float32
    assert a.min() >= -1.0 and a.max() <= 1.0


def test_flip_frequency(desk_space):
    hp = desk_space.default_config()
    hp["flip"] = True
    hp["resolution"] = 16
    rng = Rng(2, "flip")
    image = np.zeros((16, 16, 3), dtype=np.uint8)
    image[:, 8:, :] = 255  # bright right half
    n, flipped = 10_000, 0
    for _ in range(n):
        out = preprocess_batch(image[None], hp, rng, train_mode=True)[0]
        flipped += out[0, 0, 0] > 0.0
    assert abs(flipped / n - 0.5) < 0.02


def test_quality_delta_quantizes(desk_space):
    hp = desk_space.default_config()
    hp["quality_delta"] = 0.2
    hp["resolution"] = 16
    rng = Rng(3, "qual")
    image = np.arange(16 * 16 * 3, dtype=np.int64).reshape(16, 16, 3)
    image = (image % 256).astype(np.uint8)
    out = preprocess_batch(image[None], hp, rng, train_mode=True)[0]
    plain = preprocess_batch(image[None], desk_space.default_config(), None,
                             train_mode=False)[0]
    assert len(np.unique(out)) < len(np.unique(plain))


def test_random_crop_changes_output(desk_space):
    hp = desk_space.default_config()
    hp["crop_area_min"] = 0.5
    hp["crop_aspect_min"] = 0.75
    hp["resolution"] = 16
    rng = Rng(4, "crop")
    image = (np.arange(16 * 16 * 3) % 256).astype(np.uint8).reshape(16, 16, 3)
    outs = {preprocess_batch(image[None], hp, rng, train_mode=True).tobytes()
            for _ in range(12)}
    assert len(outs) > 1


def test_preprocess_batch_is_independent_of_batch_size(desk_space, monkeypatch):
    images = np.random.default_rng(0).integers(0, 256, size=(5, 16, 16, 3),
                                               dtype=np.uint8)
    hp = desk_space.default_config()
    hp.update(crop_area_min=0.5, crop_aspect_min=0.75, flip=True,
              brightness_delta=0.1, contrast_delta=0.1, saturation_delta=0.1,
              hue_delta=0.1, quality_delta=0.1, resolution=32)
    batch_rng, single_rng = Rng(22, "size"), Rng(22, "size")
    batch = preprocess_batch(images, hp, batch_rng, train_mode=True)
    singles = [preprocess_batch(img[None], hp, single_rng, train_mode=True)[0]
               for img in images]
    assert batch.tobytes() == np.stack(singles).tobytes()
    assert batch_rng.state() == single_rng.state()
    for res in (16, 32):
        batch = preprocess_batch(images, {"resolution": res}, None, train_mode=False)
        singles = [preprocess_batch(img[None], {"resolution": res}, None,
                                    train_mode=False)[0] for img in images]
        assert batch.tobytes() == np.stack(singles).tobytes()
    monkeypatch.setattr(trainer, "EVAL_CHUNK", 2)  # 5 images in chunks of 2, 2 and 1
    for res in (16, 32):
        chunked = preprocess_batch(images, {"resolution": res}, None, train_mode=False)
        singles = [preprocess_batch(img[None], {"resolution": res}, None,
                                    train_mode=False)[0] for img in images]
        assert chunked.tobytes() == np.stack(singles).tobytes()


def test_preprocess_batch_rejects_an_empty_batch(desk_space):
    empty = np.zeros((0, 16, 16, 3), dtype=np.uint8)
    with pytest.raises(TrainerError, match="empty batch"):
        preprocess_batch(empty, desk_space.default_config(), Rng(1, "e"), train_mode=True)
    with pytest.raises(TrainerError, match="empty batch"):
        preprocess_batch(empty, desk_space.default_config(), None, train_mode=False)


def test_evaluate_memory_is_bounded_by_the_chunk(table1_space, monkeypatch):
    # A real 256-image chunk at resolution 384 takes hundreds of MB of float64,
    # so the chunk is shrunk to 2 images; the code path is the same.
    monkeypatch.setattr(trainer, "EVAL_CHUNK", 2)
    system = empty_system(table1_space)
    model = add_model(system, "t", simple_trunk(system, width=4, depth=1, patch=8,
                                                channels=1), 4, 3, resolution=384)
    chunk_bytes = trainer.EVAL_CHUNK * 384 * 384 * 8  # one chunk, resized, float64
    gen = np.random.default_rng(6)
    peaks = []
    for n in (4, 16):
        images = gen.integers(0, 256, size=(n, 8, 8, 1), dtype=np.uint8)
        labels = gen.integers(0, 3, size=n)
        tracemalloc.start()
        try:
            evaluate(system, model, images, labels)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < chunk_bytes, peaks


def planted_system():
    """2-class task solved exactly by planted weights: feature 0 carries the
    image mean, hiddens are identity, the head thresholds at zero."""
    system = empty_system()
    width, patch, c = 4, 4, 3
    d_in = patch * patch * c
    emb_params = np.zeros(d_in * width + width, dtype=np.float32)
    emb_params[0:d_in * width:width] = 1.0 / d_in  # column 0 of the weight
    emb = system.add_block(EMBEDDING, d_in, width, emb_params,
                           np.zeros_like(emb_params), "root")
    hidden_params = np.zeros(width * width + width, dtype=np.float32)
    hid = system.add_block(HIDDEN, width, width, hidden_params.copy(),
                           np.zeros_like(hidden_params), "root")
    head_params = np.zeros(width * 2 + 2, dtype=np.float32)
    head_params[0] = -1.0  # weight[0, 0]
    head_params[1] = 1.0   # weight[0, 1]
    head = system.add_block(HEAD, width, 2, head_params,
                            np.zeros_like(head_params), "root")
    from evograft.system import ModelSpec
    model = ModelSpec(id=system.new_model_id(), task="planted",
                      layers=[(emb.id, False), (hid.id, False), (head.id, True)],
                      hparams=system.space.default_config(), mu={})
    system.commit_model(model)
    return system, model


def separable_images(n, seed=0):
    rng = Rng(seed, "sep")
    labels = np.array([rng.randint(2) for _ in range(n)], dtype=np.int64)
    base = np.where(labels[:, None, None, None] == 0, 64, 192).astype(np.int64)
    jitter = (rng.uniforms(n * 8 * 8 * 3).reshape(n, 8, 8, 3) * 20 - 10).astype(np.int64)
    return np.clip(base + jitter, 0, 255).astype(np.uint8), labels


def test_planted_weights_reach_perfect_accuracy():
    system, model = planted_system()
    images, labels = separable_images(64, seed=5)
    assert evaluate(system, model, images, labels) == 1.0


def test_zero_head_gives_uniform_logits_and_chance_accuracy():
    system = empty_system()
    trunk = simple_trunk(system, width=4, depth=1, patch=4)
    model = add_model(system, "t", trunk, 4, 4)  # add_model heads are nonzero
    head = system.block(model.head_id())
    head.params[:] = 0.0
    images, labels = make_dataset("t", classes=4, h=8, w=8, n_train=8, n_val=8,
                                  n_test=600, seed=8).split("test")
    batch = preprocess_batch(images[:16], model.hparams, None, train_mode=False)
    logits = forward(system, model, batch)
    assert np.all(logits == 0.0)
    acc = evaluate(system, model, images, labels)
    p = 1 / 4
    sigma = math.sqrt(p * (1 - p) / len(labels))
    assert abs(acc - p) < 3 * sigma
    assert evaluate(system, model, images, labels) == acc  # eval is deterministic


def test_forward_is_pure():
    system, model = planted_system()
    images, _ = separable_images(8, seed=6)
    batch = preprocess_batch(images, model.hparams, None, train_mode=False)
    assert np.array_equal(forward(system, model, batch), forward(system, model, batch))


def test_removing_top_block_changes_logits(small_system):
    root = next(m for m in small_system.models.values() if m.task == "root")
    rng = Rng(7, "rm")
    full = apply_mutations(small_system, root, set(), "a", 3, rng)
    small_system.commit_model(full)
    from evograft.mutations import REMOVE_TOP_LAYER
    short = apply_mutations(small_system, full, {REMOVE_TOP_LAYER}, "a", 3, rng)
    small_system.commit_model(short)
    # same (zero) head weights, same inputs: only the dropped block can differ
    small_system.block(short.head_id()).params[:] = 1.0
    small_system.block(full.head_id()).params[:] = 1.0
    images, _ = separable_images(4, seed=9)
    batch = preprocess_batch(images, full.hparams, None, train_mode=False)
    assert not np.allclose(forward(small_system, full, batch),
                           forward(small_system, short, batch))


def finite_difference_grads(system, model, batch, labels, block, eps_scale=1e-4):
    grads = np.zeros(block.n_params, dtype=np.float64)
    for i in range(block.n_params):
        orig = float(block.params[i])
        eps = eps_scale * max(1.0, abs(orig))
        block.params[i] = orig + eps
        up = loss(system, model, batch, labels, dtype=np.float64)
        block.params[i] = orig - eps
        down = loss(system, model, batch, labels, dtype=np.float64)
        block.params[i] = orig
        grads[i] = (up - down) / (2 * eps)
    return grads


def test_gradients_match_finite_differences_quick():
    system = empty_system()
    rng = Rng(10, "fd")
    trunk = simple_trunk(system, width=3, depth=2, patch=4)
    model = add_model(system, "t", trunk, 3, 3)
    model.layers = [(lid, True) for lid, _ in model.layers]  # everything trainable
    images, labels = separable_images(6, seed=11)
    labels = labels % 3
    batch = preprocess_batch(images, model.hparams, None, train_mode=False)
    for block in (system.block(lid) for lid in model.layer_ids()):
        block.params = ((rng.uniforms(block.n_params) - 0.5) * 0.6)  # 64-bit shadow
        analytic = loss_and_gradients(system, model, batch, labels,
                                      dtype=np.float64)[1][block.id]
        fd = finite_difference_grads(system, model, batch, labels, block)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
        assert np.max(np.abs(analytic - fd) / denom) < 1e-4


def test_frozen_blocks_receive_no_gradient():
    system, model = planted_system()
    images, labels = separable_images(6, seed=12)
    batch = preprocess_batch(images, model.hparams, None, train_mode=False)
    _, grads = loss_and_gradients(system, model, batch, labels)
    assert set(grads) == {model.head_id()}


def test_gradients_do_not_depend_on_whether_lower_blocks_train():
    system = empty_system()
    trunk = simple_trunk(system, width=3, depth=3, patch=4)
    model = add_model(system, "t", trunk, 3, 3)
    images, labels = separable_images(6, seed=24)
    batch = preprocess_batch(images, model.hparams, None, train_mode=False)
    ids = model.layer_ids()
    grads = {}
    for lowest in range(len(ids)):
        model.layers = [(bid, pos >= lowest) for pos, bid in enumerate(ids)]
        _, grads[lowest] = loss_and_gradients(system, model, batch, labels % 3)
        assert set(grads[lowest]) == set(ids[lowest:])
    for lowest, upper in grads.items():
        for bid, grad in upper.items():
            assert grad.tobytes() == grads[0][bid].tobytes(), (lowest, bid)


def test_forward_rejects_wrong_resolution_batch():
    system, model = planted_system()
    bad = np.zeros((2, 4, 4, 3), dtype=np.float32)  # model expects 16x16
    with pytest.raises(TrainerError):
        forward(system, model, bad)


def test_duplicated_rows_leave_mean_gradient_unchanged():
    system, model = planted_system()
    images, labels = separable_images(5, seed=13)
    batch = preprocess_batch(images, model.hparams, None, train_mode=False)
    _, single = loss_and_gradients(system, model, batch, labels, dtype=np.float64)
    doubled = np.concatenate([batch, batch])
    _, double = loss_and_gradients(system, model, doubled,
                                   np.concatenate([labels, labels]), dtype=np.float64)
    for bid in single:
        assert np.allclose(single[bid], double[bid], rtol=1e-12, atol=1e-12)


def test_lr_schedule_shape():
    peak = 0.4
    assert lr_at(5, 100, peak, 0.1) == pytest.approx(0.5 * peak)
    assert lr_at(10, 100, peak, 0.1) == pytest.approx(peak)  # warmup joint
    assert lr_at(100, 100, peak, 0.1) == 0.0
    assert lr_at(0, 100, peak, 0.0) == peak  # no warmup starts at the peak
    assert lr_at(0, 100, peak, 0.1) == 0.0
    values = [lr_at(s, 200, peak, 0.2) for s in range(201)]
    deltas = [abs(b - a) for a, b in zip(values, values[1:])]
    assert max(deltas) < peak * 0.05  # no jumps: schedule is continuous


def test_sgd_plain_step():
    params = np.array([1.0, 2.0], dtype=np.float32)
    opt = np.zeros(2, dtype=np.float32)
    sgd_step(params, opt, np.array([0.5, -0.5]), lr=0.1, momentum=0.0, nesterov=False)
    assert np.allclose(params, [0.95, 2.05])


def test_sgd_momentum_unrolls_to_1_9x():
    params = np.zeros(1, dtype=np.float32)
    opt = np.zeros(1, dtype=np.float32)
    g = np.array([1.0])
    sgd_step(params, opt, g, lr=0.1, momentum=0.9, nesterov=False)
    first = float(params[0])
    sgd_step(params, opt, g, lr=0.1, momentum=0.9, nesterov=False)
    second = float(params[0]) - first
    assert first == pytest.approx(-0.1)
    assert second == pytest.approx(-0.19, rel=1e-6)


def test_sgd_zero_lr_still_accumulates_velocity():
    params = np.array([1.0], dtype=np.float32)
    opt = np.zeros(1, dtype=np.float32)
    sgd_step(params, opt, np.array([2.0]), lr=0.0, momentum=0.5, nesterov=True)
    assert params[0] == 1.0
    assert opt[0] == 2.0


def test_nesterov_update_rule():
    params = np.zeros(1, dtype=np.float32)
    opt = np.array([0.4], dtype=np.float32)
    sgd_step(params, opt, np.array([1.0]), lr=1.0, momentum=0.5, nesterov=True)
    # v = 0.5*0.4 + 1 = 1.2; step = g*m + v = 0.5 + 1.2 = 1.7
    assert params[0] == pytest.approx(-1.7)
    assert opt[0] == pytest.approx(1.2)


def test_samples_cap():
    assert TrainBudget().samples_cap == 51_200


def test_train_cycle_consumes_capped_epoch(small_system):
    root = next(m for m in small_system.models.values() if m.task == "root")
    rng = Rng(14, "cycle")
    child = apply_mutations(small_system, root, set(), "t", 4, rng)
    small_system.commit_model(child)
    ds = make_dataset("t", classes=4, n_train=50, seed=15)
    stats = train_cycle(small_system, child, ds, TrainBudget(samples_cap=32, batch_size=8),
                        0, 1, rng)
    assert stats.samples == 32 and stats.steps == 4
    stats = train_cycle(small_system, child, ds, TrainBudget(batch_size=16), 0, 1, rng)
    assert stats.samples == 50  # full epoch under a large cap


def test_training_touches_only_trainable_blocks(small_system):
    root = next(m for m in small_system.models.values() if m.task == "root")
    rng = Rng(16, "freeze")
    child = apply_mutations(small_system, root, {clone_action(1)}, "t", 4, rng)
    small_system.commit_model(child)
    ds = make_dataset("t", classes=4, n_train=40, seed=17)
    frozen_before = {lid: small_system.block(lid).params.tobytes()
                     for lid, trainable in child.layers if not trainable}
    trainable_before = {lid: small_system.block(lid).params.tobytes()
                        for lid in child.trainable_ids()}
    parent_block_before = small_system.block(root.layers[1][0]).params.tobytes()
    train_cycle(small_system, child, ds, TrainBudget(batch_size=8), 0, 1, rng)
    for lid, blob in frozen_before.items():
        assert small_system.block(lid).params.tobytes() == blob
    assert small_system.block(root.layers[1][0]).params.tobytes() == parent_block_before
    assert any(small_system.block(lid).params.tobytes() != trainable_before[lid]
               for lid in child.trainable_ids())


def test_training_reduces_loss_on_separable_task():
    system, model = planted_system()
    # fresh random head instead of the planted one, so there is room to learn
    head = system.block(model.head_id())
    head.params[:] = ((Rng(18, "h").uniforms(head.n_params) - 0.5) * 0.2).astype(np.float32)
    images, labels = separable_images(64, seed=19)
    from evograft.data import TaskDataset
    ds = TaskDataset(name="planted", num_classes=2, h=8, w=8, c=3,
                     splits={"train": (images, labels), "val": (images, labels),
                             "test": (images, labels)})
    batch = preprocess_batch(images, model.hparams, None, train_mode=False)
    before = loss(system, model, batch, labels)
    train_cycle(system, model, ds, TrainBudget(batch_size=16), 0, 1, Rng(20, "train"))
    after = loss(system, model, batch, labels)
    assert after < before


def test_empty_dataset_raises():
    system, model = planted_system()
    from evograft.data import TaskDataset
    empty = TaskDataset(name="planted", num_classes=2, h=8, w=8, c=3,
                        splits={"train": (np.zeros((0, 8, 8, 3), np.uint8),
                                          np.zeros(0, np.int64))})
    with pytest.raises(TrainerError):
        train_cycle(system, model, empty, TrainBudget(), 0, 1, Rng(21, "e"))
    with pytest.raises(TrainerError):
        evaluate(system, model, np.zeros((0, 8, 8, 3), np.uint8), np.zeros(0, np.int64))


# -- per-image reference for train preprocessing -------------------------------
# The chain preprocess_batch ran one image at a time before train augmentation
# became one batched pass, kept as the oracle for its bytes and rng draws.

def reference_resize(image, out_h, out_w):
    h, w = image.shape[-3:-1]
    if (h, w) == (out_h, out_w):
        return image.copy()
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.clip(y0 + 1, 0, h - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :, None]
    rows0, rows1 = image[..., y0, :, :], image[..., y1, :, :]
    top = rows0[..., x0, :] * (1 - wx) + rows0[..., x1, :] * wx
    bot = rows1[..., x0, :] * (1 - wx) + rows1[..., x1, :] * wx
    return top * (1 - wy) + bot * wy


def uniform_in(rng, lo, hi):
    return lo + (hi - lo) * rng.uniform()


def reference_augment(x, hparams, res, rng):
    h, w = x.shape[:2]
    area = uniform_in(rng, hparams["crop_area_min"], 1.0)
    aspect = uniform_in(rng, hparams["crop_aspect_min"], 1.0 / hparams["crop_aspect_min"])
    target = area * h * w
    ch = min(h, max(1, int(round(math.sqrt(target / aspect)))))
    cw = min(w, max(1, int(round(math.sqrt(target * aspect)))))
    oy = rng.randint(h - ch + 1)
    ox = rng.randint(w - cw + 1)
    x = reference_resize(x[oy:oy + ch, ox:ox + cw], res, res)
    if hparams["flip"] and rng.uniform() < 0.5:
        x = x[:, ::-1, :]
    d = hparams["brightness_delta"]
    if d > 0:
        x = x + uniform_in(rng, -d, d)
    d = hparams["contrast_delta"]
    if d > 0:
        mean = x.mean()
        x = mean + (x - mean) * (1.0 + uniform_in(rng, -d, d))
    d = hparams["saturation_delta"]
    if d > 0:
        gray = x.mean(axis=2, keepdims=True)
        x = gray + (x - gray) * (1.0 + uniform_in(rng, -d, d))
    d = hparams["hue_delta"]
    if d > 0:
        shift = uniform_in(rng, -d, d)
        if x.shape[2] >= 3:
            rolled = np.roll(x, 1 if shift > 0 else -1, axis=2)
            x = (1.0 - abs(shift)) * x + abs(shift) * rolled
    x = np.clip(x, 0.0, 1.0)
    delta = hparams["quality_delta"]
    if delta <= 0:
        return x
    levels = max(2, int(round(1.0 / (delta * rng.uniform() + 1.0 / 255.0))))
    return np.round(x * (levels - 1)) / (levels - 1)


def reference_train_batch(images, hparams, rng):
    x = images.astype(np.float64) / 255.0
    x = np.stack([reference_augment(img, hparams, hparams["resolution"], rng)
                  for img in x])
    return (x * 2.0 - 1.0).astype(np.float32)


def test_eval_preprocessing_matches_per_image_reference():
    gen = np.random.default_rng(2025)
    cases = [(c, h, w, res, n) for c in (1, 3, 4) for h, w in ((16, 16), (12, 20), (40, 9))
             for res in (8, 32) for n in (1, 17)]
    seen = set()
    for c, h, w, res, n in cases:
        images = gen.integers(0, 256, size=(n, h, w, c), dtype=np.uint8)
        batch = preprocess_batch(images, {"resolution": res}, None, train_mode=False)
        reference = np.stack([reference_resize(img, res, res)
                              for img in images.astype(np.float64) / 255.0])
        assert batch.tobytes() == (reference * 2.0 - 1.0).astype(np.float32).tobytes(), (
            c, h, w, res, n)
        seen.update({("c", c), ("n", n), ("square", h == w)})
        seen.update(("up" if res > side else "down") for side in (h, w))
    assert seen >= {("c", 1), ("c", 3), ("c", 4), ("n", 1), ("n", 17), ("square", True),
                    ("square", False), "up", "down"}


JITTER_AXES = ("brightness_delta", "contrast_delta", "saturation_delta", "hue_delta",
               "quality_delta")


def test_train_preprocessing_matches_per_image_reference(desk_space):
    gen = np.random.default_rng(2024)
    shapes = [(16, 16, 3)] * 6 + [(8, 8, 3), (12, 20, 3), (16, 16, 1), (16, 16, 4)]
    seen = set()
    for trial in range(200):
        hp = desk_space.default_config()
        for name in ("crop_area_min", "crop_aspect_min", "flip", "resolution"):
            values = desk_space.axis(name).values
            hp[name] = values[gen.integers(len(values))]
        for name in JITTER_AXES:
            values = desk_space.axis(name).values
            hp[name] = values[gen.integers(len(values))] if gen.random() < 0.5 else 0.0
        n = 1 + trial % 19
        images = gen.integers(0, 256, size=(n,) + shapes[trial % len(shapes)],
                              dtype=np.uint8)
        batch_rng, ref_rng = Rng(trial, "aug"), Rng(trial, "aug")
        batch = preprocess_batch(images, hp, batch_rng, train_mode=True)
        assert batch.tobytes() == reference_train_batch(images, hp, ref_rng).tobytes(), hp
        assert batch_rng.state() == ref_rng.state()
        seen.update(name for name in JITTER_AXES if hp[name] > 0)
        seen.update({("flip", hp["flip"]), ("res", hp["resolution"]),
                     ("area", hp["crop_area_min"]), ("aspect", hp["crop_aspect_min"]),
                     ("no jitter", not any(hp[name] > 0 for name in JITTER_AXES)),
                     ("mirrored mean", bool(hp["flip"]) and hp["contrast_delta"] > 0
                      and not hp["brightness_delta"] > 0),
                     ("4-channel hue", images.shape[3] == 4 and hp["hue_delta"] > 0),
                     ("n", n)})
    assert seen >= set(JITTER_AXES) | {("flip", True), ("res", 16), ("res", 32),
                                       ("area", 0.05), ("aspect", 0.5),
                                       ("no jitter", True), ("mirrored mean", True),
                                       ("4-channel hue", True), ("n", 1)}


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("on", itertools.product((False, True), repeat=len(JITTER_AXES)))
def test_a_train_batch_takes_draws_per_image_uniforms_an_image(desk_space, flip, on):
    # the batch helper's reader advances the rng by this count without drawing
    hp = dict(desk_space.default_config(), flip=flip,
              **{name: 0.1 if is_on else 0.0 for name, is_on in zip(JITTER_AXES, on)})
    images = np.random.default_rng(8).integers(0, 256, size=(5, 12, 12, 3), dtype=np.uint8)
    rng = Rng(9, "draws")
    preprocess_batch(images, hp, rng, train_mode=True)
    assert rng.counter == 5 * trainer.draws_per_image(hp) == 5 * (4 + flip + sum(on))


def test_train_preprocessing_matches_the_reference_at_crop_plan_edges(desk_space):
    # full crops at res == h and w (identity taps), 1-pixel crops (forced by a
    # 1-pixel side, or by an extreme aspect), 8x8 and 12x20 images, n = 1, and
    # batches with every image or no image flipped
    gen = np.random.default_rng(2026)
    cases = [((16, 16), 16, 1.0, 1.0), ((8, 8), 8, 1.0, 1.0), ((8, 8), 32, 0.05, 0.5),
             ((12, 20), 16, 0.5, 0.75), ((12, 20), 32, 1.0, 1.0), ((12, 20), 16, 0.05, 0.01),
             ((1, 20), 16, 0.5, 0.5), ((12, 1), 32, 0.5, 0.5), ((1, 1), 16, 1.0, 1.0)]
    seen = set()
    for (h, w), res, area, aspect in cases:
        hp = desk_space.default_config()
        hp.update(crop_area_min=area, crop_aspect_min=aspect, flip=True, resolution=res,
                  quality_delta=0.1 if h == 12 else 0.0)
        k = 5 + (hp["quality_delta"] > 0)  # draws per image; the fifth decides the flip
        for n in (1, 2, 3):
            for seed in range(6):
                images = gen.integers(0, 256, size=(n, h, w, 3), dtype=np.uint8)
                batch_rng, ref_rng = Rng(seed, "edge"), Rng(seed, "edge")
                flipped = Rng(seed, "edge").uniforms(n * k).reshape(n, k)[:, 4] < 0.5
                batch = preprocess_batch(images, hp, batch_rng, train_mode=True)
                assert batch.tobytes() == reference_train_batch(images, hp, ref_rng).tobytes(), (
                    h, w, res, area, aspect, n, seed)
                assert batch_rng.state() == ref_rng.state()
                if n > 1:
                    seen.add("all flipped" if flipped.all() else
                             "none flipped" if not flipped.any() else "some flipped")
    assert seen == {"all flipped", "none flipped", "some flipped"}


# -- the batch helper ------------------------------------------------------------
# A cycle of MIN_PIPELINED_STEPS steps or more has its batches made in a helper
# process. The in-process path is the reference: the same blocks, losses and
# rng draws, whichever path made the batches.

def train_cycles(monkeypatch, pipelined, hparam_sets, budget=TrainBudget(batch_size=16)):
    """A fresh child trained one cycle per entry of ``hparam_sets`` on 100
    images, pipelined or in process: its trainable blocks' bytes, the cycles'
    mean losses and the rng state, then the train batches made in this
    process."""
    from evograft.evolution import bootstrap_system
    from evograft.search_space import load_builtin_space
    monkeypatch.setattr(trainer, "MIN_PIPELINED_STEPS", 1 if pipelined else 10 ** 9)
    made_here, real_preprocess = [], trainer.preprocess_batch

    def counted(images, hparams, rng, train_mode):
        made_here.append(train_mode)
        return real_preprocess(images, hparams, rng, train_mode)

    monkeypatch.setattr(trainer, "preprocess_batch", counted)
    system = bootstrap_system(load_builtin_space("desk"), seed=11, width=8, depth=3,
                              patch=8, channels=3)
    root = next(m for m in system.models.values() if m.task == "root")
    rng = Rng(14, "pipe")
    child = apply_mutations(system, root, {clone_action(0)}, "t", 4, rng)
    system.commit_model(child)
    ds = make_dataset("t", classes=4, n_train=100, seed=15)
    losses = []
    for cycle, hparams in enumerate(hparam_sets):
        child.hparams.update(hparams)
        losses.append(train_cycle(system, child, ds, budget, cycle, len(hparam_sets),
                                  rng).mean_loss)
    blocks = [system.block(bid).params.tobytes() for bid in child.trainable_ids()]
    return (blocks, losses, rng.state()), sum(made_here)


@pytest.mark.parametrize("hparams, budget", [
    # 100 images in batches of 16: six full batches, then a short one of 4
    ({"flip": False}, TrainBudget(batch_size=16)),
    ({"flip": True}, TrainBudget(batch_size=16)),
    *(({"flip": True, "resolution": 32, axis: 0.1}, TrainBudget(batch_size=16))
      for axis in JITTER_AXES),
    # a cap below the split: 40 of the 100 images, the last batch of 8
    ({"flip": True, "contrast_delta": 0.05}, TrainBudget(samples_cap=40, batch_size=16)),
])
def test_pipelined_cycles_match_in_process_cycles(monkeypatch, hparams, budget):
    piped, made_here = train_cycles(monkeypatch, True, [hparams] * 2, budget)
    assert made_here == 0  # every train batch came from the helper
    in_process, made_here = train_cycles(monkeypatch, False, [hparams] * 2, budget)
    assert made_here == 2 * math.ceil(min(100, budget.samples_cap) / 16)
    assert piped == in_process


def test_a_resolution_rise_gives_the_same_cycles_piped_as_in_process(monkeypatch):
    trainer._close_helper()
    rise = [{"resolution": 16}, {"resolution": 32}]
    piped, made_here = train_cycles(monkeypatch, True, rise)
    assert made_here == 0
    assert piped == train_cycles(monkeypatch, False, rise)[0]


def test_a_preprocessing_error_in_the_helper_reaches_the_caller(small_system, monkeypatch):
    monkeypatch.setattr(trainer, "MIN_PIPELINED_STEPS", 1)
    root = next(m for m in small_system.models.values() if m.task == "root")
    ds = make_dataset("t", classes=4, n_train=40, seed=17)
    images, labels = ds.splits["train"]
    ds.splits["train"] = (images.astype(np.float64), labels)
    with pytest.raises(TrainerError) as in_process:
        preprocess_batch(ds.splits["train"][0][:8], root.hparams, Rng(1, "e"), train_mode=True)
    with pytest.raises(TrainerError) as piped:
        train_cycle(small_system, root, ds, TrainBudget(batch_size=8), 0, 1, Rng(1, "e"))
    assert str(piped.value) == str(in_process.value)
    assert trainer._helper is None


def test_a_helper_that_cannot_start_leaves_cycles_in_process(monkeypatch, caplog):
    trainer._close_helper()
    monkeypatch.setattr(trainer, "_helper_failed", False)

    def no_process(*args, **kwargs):
        raise OSError("no process for you")

    monkeypatch.setattr(trainer.subprocess, "Popen", no_process)
    piped, made_here = train_cycles(monkeypatch, True, [{"flip": True}] * 3)
    assert made_here == 3 * 7 and trainer._helper is None
    assert [r.message for r in caplog.records].count(
        "cannot start the train batch helper (no process for you); "
        "every cycle makes its batches in process") == 1
    monkeypatch.undo()
    assert piped == train_cycles(monkeypatch, False, [{"flip": True}] * 3)[0]


@pytest.mark.parametrize("refusal", ["no F_SETPIPE_SZ", "F_SETPIPE_SZ not permitted"])
def test_a_helper_pipe_that_cannot_be_sized_leaves_cycles_in_process(monkeypatch, caplog,
                                                                      refusal):
    import fcntl
    trainer._close_helper()
    monkeypatch.setattr(trainer, "_helper_failed", False)
    started, real_popen = [], subprocess.Popen

    def popen(*args, **kwargs):
        started.append(real_popen(*args, **kwargs))
        return started[-1]

    def not_permitted(fd, cmd, arg):
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(trainer.subprocess, "Popen", popen)
    if refusal == "no F_SETPIPE_SZ":
        monkeypatch.delattr(fcntl, "F_SETPIPE_SZ")
    else:
        monkeypatch.setattr(fcntl, "fcntl", not_permitted)
    piped, made_here = train_cycles(monkeypatch, True, [{"flip": True}] * 2)
    assert made_here == 2 * 7 and trainer._helper is None
    # a helper started before the refusal is reaped, and no second one starts
    assert len(started) == (refusal != "no F_SETPIPE_SZ")
    assert all(proc.returncode is not None for proc in started)
    assert [r.message.startswith("cannot start the train batch helper")
            for r in caplog.records].count(True) == 1
    monkeypatch.undo()
    assert piped == train_cycles(monkeypatch, False, [{"flip": True}] * 2)[0]


def test_a_cycle_left_mid_way_closes_the_helper_and_keeps_the_draws(desk_space):
    images = np.random.default_rng(3).integers(0, 256, size=(40, 16, 16, 3), dtype=np.uint8)
    hp = desk_space.default_config()
    hp["flip"] = True
    piped_rng, in_process_rng = Rng(5, "left"), Rng(5, "left")
    batches = trainer._pipelined_batches(images, hp, piped_rng, list(range(40)), 8)
    reference = trainer._cycle_batches(images, hp, in_process_rng, list(range(40)), 8)
    for _ in range(2):
        assert next(batches)[1].tobytes() == next(reference)[1].tobytes()
    proc = trainer._helper.proc
    batches.close()
    assert trainer._helper is None and proc.returncode is not None
    assert piped_rng.state() == in_process_rng.state()


def test_a_cycle_goes_on_in_process_when_the_helper_dies(desk_space, caplog):
    # 25 batches of 96 KiB: the 24 left unread at the kill are more than the helper's
    # pipe holds, so some were never made and the death is seen in this cycle
    images = np.random.default_rng(4).integers(0, 256, size=(200, 16, 16, 3), dtype=np.uint8)
    hp = dict(desk_space.default_config(), flip=True, resolution=32)
    assert 24 * 8 * 32 * 32 * 3 * 4 > trainer.HELPER_PIPE_BYTES
    piped_rng, in_process_rng = Rng(6, "died"), Rng(6, "died")
    batches = trainer._pipelined_batches(images, hp, piped_rng, list(range(200)), 8)
    made = [next(batches)[1].tobytes()]
    trainer._helper.proc.kill()
    trainer._helper.proc.wait(timeout=10)
    made += [batch.tobytes() for _, batch in batches]
    reference = trainer._cycle_batches(images, hp, in_process_rng, list(range(200)), 8)
    assert made == [batch.tobytes() for _, batch in reference]
    assert piped_rng.state() == in_process_rng.state() and trainer._helper is None
    assert any("the train batch helper died" in r.message for r in caplog.records)


def test_a_batch_cut_short_is_made_again_in_process(desk_space, monkeypatch, caplog):
    images = np.random.default_rng(5).integers(0, 256, size=(40, 16, 16, 3), dtype=np.uint8)
    hp = dict(desk_space.default_config(), flip=True)
    piped_rng, in_process_rng = Rng(7, "cut"), Rng(7, "cut")
    batches = trainer._pipelined_batches(images, hp, piped_rng, list(range(40)), 8)
    made = [next(batches)[1].tobytes()]
    stdout = trainer._helper.proc.stdout
    real_readinto = stdout.readinto
    monkeypatch.setattr(stdout, "readinto", lambda batch: real_readinto(
        memoryview(batch).cast("B")[:batch.nbytes // 2]))
    made += [batch.tobytes() for _, batch in batches]
    reference = trainer._cycle_batches(images, hp, in_process_rng, list(range(40)), 8)
    assert made == [batch.tobytes() for _, batch in reference]
    assert piped_rng.state() == in_process_rng.state() and trainer._helper is None
    assert any("a batch was cut short" in r.message for r in caplog.records)


def test_the_helper_writes_only_batch_bytes_and_stops_at_an_error(desk_space, monkeypatch):
    # three 20-image jobs in batches of 8; the second one's second batch fails
    images = np.random.default_rng(9).integers(0, 256, size=(20, 16, 16, 3), dtype=np.uint8)
    hp = dict(desk_space.default_config(), flip=True, contrast_delta=0.05)
    order = list(range(20))[::-1]
    job = (images, hp, Rng(10, "wire").state(), order, 8)
    jobs, replies = io.BytesIO(pickle.dumps(job) * 3), io.BytesIO()
    monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=jobs))
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(buffer=replies))
    calls, real_preprocess = [], trainer.preprocess_batch

    def fails_fifth(*args, **kwargs):
        calls.append(args)
        if len(calls) == 5:
            raise TrainerError("the fifth batch fails")
        return real_preprocess(*args, **kwargs)

    monkeypatch.setattr(trainer, "preprocess_batch", fails_fifth)
    trainer._serve()
    monkeypatch.undo()
    batches = [batch.tobytes() for _, batch in trainer._cycle_batches(
        images, hp, Rng(10, "wire"), order, 8)]
    assert len(batches) == 3 and len(calls) == 5
    assert replies.getvalue() == b"".join(batches + batches[:1])


LONG_CYCLE_SCRIPT = """
import sys, time
import numpy as np
from evograft import trainer
from evograft.rng import Rng
from evograft.search_space import load_builtin_space
hp = load_builtin_space("desk").default_config()
images = np.zeros((64, 16, 16, 3), np.uint8)
batches = trainer._pipelined_batches(images, hp, Rng(1, "s"), list(range(64)), 8)
for step, _ in enumerate(batches):
    if step == 0:
        print(trainer._helper.proc.pid, flush=True)
    if step == int(sys.argv[1]):
        time.sleep(60)
"""


def helper_running(pid: int) -> bool:
    # a helper whose parent was killed may stay a zombie until init reaps it
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def start_long_cycle(stop_at: int):
    src = os.path.dirname(os.path.dirname(os.path.abspath(trainer.__file__)))
    proc = subprocess.Popen([sys.executable, "-W", "error", "-c", LONG_CYCLE_SCRIPT,
                             str(stop_at)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=dict(os.environ, PYTHONPATH=src))
    ready, _, _ = select.select([proc.stdout], [], [], 30)
    assert ready, "the script printed no helper pid"
    return proc, int(proc.stdout.readline())


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
def test_a_script_with_a_long_cycle_exits_cleanly():
    proc, helper = start_long_cycle(-1)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0 and err == ""
    assert not helper_running(helper)


# res-32 batches of 64 images, 768 KiB each: more than the helper's pipe holds
LEFT_CYCLE_SCRIPT = """
import numpy as np
from evograft import trainer
from evograft.rng import Rng
from evograft.search_space import load_builtin_space
hp = dict(load_builtin_space("desk").default_config(), resolution=32)
batches = trainer._pipelined_batches(np.zeros((640, 16, 16, 3), np.uint8), hp, Rng(1, "s"),
                                     list(range(640)), 64)
next(batches)
helper = trainer._helper.proc
batches.close()
print(helper.pid, helper.returncode)
"""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
def test_leaving_a_long_cycle_mid_way_reaps_the_helper():
    # a helper blocked writing a batch exits only once its stdout is closed
    src = os.path.dirname(os.path.dirname(os.path.abspath(trainer.__file__)))
    done = subprocess.run([sys.executable, "-W", "error", "-c", LEFT_CYCLE_SCRIPT],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0 and done.stderr == ""
    helper, returncode = done.stdout.split()
    assert returncode != "None" and not helper_running(int(helper))


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
def test_the_helper_exits_when_its_parent_is_killed():
    proc, helper = start_long_cycle(1)
    assert helper_running(helper)
    proc.send_signal(signal.SIGKILL)
    proc.communicate(timeout=10)
    deadline = time.monotonic() + 5
    while helper_running(helper) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not helper_running(helper)
