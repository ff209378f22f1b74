import math

import numpy as np
import pytest

from evograft.mutations import MAKE_TRAINABLE_HEAD, apply_mutations, clone_action
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


def test_preprocess_batch_is_independent_of_batch_size(desk_space):
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
    full = apply_mutations(small_system, root, {MAKE_TRAINABLE_HEAD}, "a", 3, rng)
    small_system.commit_model(full)
    from evograft.mutations import REMOVE_TOP_LAYER
    short = apply_mutations(small_system, full, {MAKE_TRAINABLE_HEAD, REMOVE_TOP_LAYER},
                            "a", 3, rng)
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
    child = apply_mutations(small_system, root, {MAKE_TRAINABLE_HEAD}, "t", 4, rng)
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
    child = apply_mutations(small_system, root,
                            {MAKE_TRAINABLE_HEAD, clone_action(1)}, "t", 4, rng)
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
                     ("no jitter", not any(hp[name] > 0 for name in JITTER_AXES))})
    assert seen >= set(JITTER_AXES) | {("flip", True), ("res", 16), ("res", 32),
                                       ("area", 0.05), ("aspect", 0.5),
                                       ("no jitter", True)}
