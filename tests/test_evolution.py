import gc
import logging
import weakref
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from evograft import evolution, trainer
from evograft.evolution import (MODE_MUNET, MODE_MUNET_PLUS, EvolutionConfig,
                                EvolutionError, SegmentSpec, _restore_payload,
                                _train_child, bootstrap_system, metrics_snapshot,
                                parent_acceptance_probability, parse_segments,
                                run_generation, run_plan, run_segment,
                                run_task_iteration, sample_parent)
from evograft.mutations import (apply_mutations, clone_action, hparam_action,
                                possible_mutations)
from evograft.rng import Rng
from evograft.trainer import TrainBudget, evaluate

from conftest import finetune_top_actions, make_dataset, pinned_space


def quick_config(**kw):
    base = dict(generations=1, children_per_generation=1, train_cycles=1,
                budget=TrainBudget(batch_size=16))
    base.update(kw)
    return EvolutionConfig(**base)


def fresh_system(seed=11, desk_space=None):
    from evograft.search_space import load_builtin_space
    return bootstrap_system(load_builtin_space("desk"), seed=seed, width=8,
                            depth=3, patch=8, channels=3)


def constant_label_dataset(name, n=48):
    ds = make_dataset(name, classes=2, n_train=n, n_val=24, n_test=24, seed=31)
    for split, (images, labels) in ds.splits.items():
        ds.splits[split] = (images, np.zeros_like(labels))
    return ds


def random_label_dataset(name, n=48):
    rng = Rng(77, "scramble")
    ds = make_dataset(name, classes=4, n_train=n, n_val=24, n_test=24, seed=32)
    for split, (images, labels) in ds.splits.items():
        scrambled = np.array([rng.randint(4) for _ in labels], dtype=np.int64)
        ds.splits[split] = (images, scrambled)
    return ds


@pytest.mark.parametrize("space,width,depth,channels,expected", [
    ("desk", 16, 4, 3, "52ccfde6cc49e2524988d2b5a80364a5e31dfd9302509467f2dd6a4cb540fd3c"),
    ("table1", 8, 3, 1, "74aab0bfefee3fa9493bdd979b95b1d5001d83554fecc81c9e4892844451eb30"),
])
def test_bootstrap_digest_is_pinned(space, width, depth, channels, expected):
    # Bootstrap draws only uniforms and does no BLAS work, so these literals
    # hold on any machine; they pin the draw order embedding, hidden, head.
    from evograft.checkpoint import system_digest
    from evograft.search_space import load_builtin_space
    system = bootstrap_system(load_builtin_space(space), seed=5, width=width,
                              depth=depth, patch=8, channels=channels)
    assert system_digest(system) == expected


def test_bootstrap_rejects_a_size_below_one_and_names_it():
    # patch=-8 used to build a system that acted as patch 8, patch, width or
    # channels at 0 divided by zero, and width=-3 failed inside numpy
    from evograft.search_space import load_builtin_space
    from evograft.system import SystemError_
    good = dict(width=8, depth=3, patch=8, channels=3)
    for name, bad in (("width", 0), ("width", -3), ("depth", 0), ("patch", 0),
                      ("patch", -8), ("channels", 0), ("channels", -1)):
        with pytest.raises(SystemError_, match=rf"^root {name} must be at least 1, got {bad}$"):
            bootstrap_system(load_builtin_space("desk"), seed=5, **{**good, name: bad})


def test_three_task_trajectory_digest_is_pinned():
    # With s=0.99 every retention decision reads accounted parameters, so
    # this pins the sharing counts along the whole run. The run trains, so
    # the literal also pins that the digest does not depend on the BLAS
    # thread count: CI reruns this test with OPENBLAS_NUM_THREADS=2.
    from evograft.checkpoint import system_digest
    system = fresh_system(seed=9)
    datasets = {name: make_dataset(name, classes=2 + i, seed=40 + i)
                for i, name in enumerate(("a", "b", "c"))}
    plan = [SegmentSpec("grow", ["a", "b", "c"], iterations=2, s=0.99,
                        recalibrate=10.0, children=2)]
    run_plan(system, plan, datasets, quick_config())
    assert system_digest(system) == ("622650cfa0e7fb78c7888be3fe39db25"
                                     "3c1cbcbcd17cf42b18581661df07b99d"), (
        f"the pin was measured under OpenBLAS core SkylakeX; this run's core is "
        f"{openblas_core()}, and another core sums in another order")


def openblas_core() -> str:
    """The core numpy's bundled OpenBLAS picked, read as CI's kernels step reads it."""
    import ctypes
    import glob
    import os
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    except (IndexError, OSError, AttributeError):
        return "unknown"


def test_acceptance_probability_is_exact_powers_of_half():
    for k in range(11):
        assert parent_acceptance_probability(k) == 0.5 ** k


def set_selection_counts(system, counts):
    """Give each model exactly the counts ``counts`` holds for it under
    (model id, task) keys, and none other."""
    for model in system.models.values():
        model.selections = {task: n for (mid, task), n in counts.items() if mid == model.id}


def test_sample_parent_returns_best_active_when_counts_zero():
    system = fresh_system()
    ds = make_dataset("t", seed=40)
    rng = system.rng = Rng(1, "p")
    run_task_iteration(system, ds, quick_config())
    run_task_iteration(system, make_dataset("u", seed=41), quick_config())
    active = system.models_for("t")
    assert len(active) == 1
    set_selection_counts(system, {})
    for _ in range(20):
        chosen = sample_parent(system, "t", active, rng)
        assert chosen.id == active[0].id
        set_selection_counts(system, {})


def test_sample_parent_acceptance_frequency_for_count_two():
    system = fresh_system()
    ds = make_dataset("t", seed=42)
    rng = system.rng = Rng(2, "p")
    run_task_iteration(system, ds, quick_config())
    active = system.models_for("t")
    first = active[0]
    n, hits = 10_000, 0
    for _ in range(n):
        set_selection_counts(system, {(first.id, "t"): 2})
        hits += sample_parent(system, "t", active, rng).id == first.id
    assert abs(hits / n - 0.25) < 0.01


def test_sample_parent_empty_active_draws_from_other_tasks():
    system = fresh_system()
    rng = Rng(3, "p")
    root = next(iter(system.models.values()))
    chosen = sample_parent(system, "newtask", [], rng)
    assert chosen.id == root.id
    assert root.selections["newtask"] == 1


def test_sample_parent_fallback_is_uniform_and_counted():
    system = fresh_system()
    ds = make_dataset("t", seed=43)
    rng = system.rng = Rng(4, "p")
    run_task_iteration(system, ds, quick_config())
    models = sorted(system.models.values(), key=lambda m: m.id)
    counts = {m.id: 0 for m in models}
    n = 4000
    for _ in range(n):
        # huge selection counts force every candidate rejection
        set_selection_counts(system, {(m.id, "t"): 64 for m in models})
        chosen = sample_parent(system, "t", system.models_for("t"), rng)
        counts[chosen.id] += 1
        assert chosen.selections["t"] == 65
    for mid, hits in counts.items():
        assert abs(hits / n - 1 / len(models)) < 0.03


def test_child_tying_same_task_parent_is_retained():
    system = fresh_system()
    ds = constant_label_dataset("t")
    rng = system.rng = Rng(5, "tie")
    cfg = quick_config(train_cycles=2)
    run_task_iteration(system, ds, cfg)
    parent = system.models_for("t")[0]
    assert parent.quality == 1.0  # constant labels saturate
    child = apply_mutations(system, parent, set(), "t", 2, rng)
    system.commit_model(child)
    best = _train_child(system, child, parent, ds, cfg, {})
    assert best is not None and best[0] == 1.0  # exact tie, kept by >=


def test_child_below_same_task_parent_is_dropped():
    system = fresh_system()
    ds = random_label_dataset("t")
    rng = system.rng = Rng(6, "drop")
    cfg = quick_config()
    run_task_iteration(system, ds, cfg)
    parent = system.models_for("t")[0]
    parent.quality = 1.0  # unreachable bar on random labels
    child = apply_mutations(system, parent, set(), "t", 4, rng)
    system.commit_model(child)
    assert _train_child(system, child, parent, ds, cfg, {}) is None


def test_cross_task_parent_imposes_no_bar():
    system = fresh_system()
    ds = random_label_dataset("t")
    rng = system.rng = Rng(7, "inf")
    cfg = quick_config()
    root = next(iter(system.models.values()))
    child = apply_mutations(system, root, set(), "t", 4, rng)
    system.commit_model(child)
    best = _train_child(system, child, root, ds, cfg, {})
    assert best is not None  # threshold is -inf for parents from other tasks


def test_child_validation_split_is_preprocessed_once(monkeypatch):
    system = fresh_system()
    ds = make_dataset("t", seed=45)
    rng = system.rng = Rng(9, "val")
    root = next(iter(system.models.values()))
    child = apply_mutations(system, root, set(), "t", 4, rng)
    system.commit_model(child)
    eval_calls = []
    original = trainer.preprocess_batch

    def counting(images, hparams, rng, train_mode):
        if not train_mode:
            eval_calls.append(len(images))
        return original(images, hparams, rng, train_mode)

    monkeypatch.setattr(trainer, "preprocess_batch", counting)
    quality, payload = _train_child(system, child, root, ds,
                                    quick_config(train_cycles=3), {})
    monkeypatch.undo()
    val_images, val_labels = ds.split("val")
    assert eval_calls == [len(val_images)]
    _restore_payload(system, payload)
    assert quality == evaluate(system, child, val_images, val_labels)

    # a generation's children share one preprocessed split per resolution
    system, eval_calls, children = fresh_system(), [], []

    def spawn(*args):
        children.append(apply_mutations(*args))
        return children[-1]

    def counting_resolution(images, hparams, rng, train_mode):
        if not train_mode:
            eval_calls.append(hparams["resolution"])
        return original(images, hparams, rng, train_mode)

    monkeypatch.setattr(evolution, "apply_mutations", spawn)
    monkeypatch.setattr(trainer, "preprocess_batch", counting_resolution)
    system.rng = Rng(5, "gen")
    run_generation(system, ds, quick_config(children_per_generation=6), [])
    monkeypatch.undo()
    resolutions = list(dict.fromkeys(child.hparams["resolution"] for child in children))
    assert len(children) == 6 and len(resolutions) > 1
    assert eval_calls == resolutions


def test_empty_validation_split_fails_the_child_before_training(monkeypatch, caplog):
    system = fresh_system()
    ds = make_dataset("t", seed=44)
    images, labels = ds.split("val")
    ds.splits["val"] = (images[:0], labels[:0])
    cycles = []
    monkeypatch.setattr(evolution, "train_cycle", lambda *args: cycles.append(args))
    before = list(system.models)
    system.rng = Rng(8, "gen")
    with caplog.at_level(logging.WARNING, logger="evograft"):
        retained = run_generation(system, ds, quick_config(train_cycles=3), [])
    assert retained == [] and cycles == []
    assert list(system.models) == before
    assert "failed training" in caplog.text and "empty batch" in caplog.text


def test_generation_retains_children_into_active_population():
    system = fresh_system()
    ds = make_dataset("t", seed=44)
    system.rng = Rng(8, "gen")
    active = []
    retained = run_generation(system, ds, quick_config(children_per_generation=2), active)
    assert retained and active == retained
    assert all(m.id in system.models for m in retained)
    assert all(m.quality is not None and m.score_snapshot is not None for m in retained)


def test_task_iteration_keeps_exactly_one_model():
    system = fresh_system()
    ds = make_dataset("t", seed=45)
    other = make_dataset("u", seed=46)
    system.rng = Rng(9, "iter")
    cfg = quick_config(generations=2, children_per_generation=2)
    run_task_iteration(system, other, cfg)
    u_model = system.models_for("u")[0]
    u_blocks = {lid: system.block(lid).params.tobytes() for lid in u_model.layer_ids()}

    run_task_iteration(system, ds, cfg)
    assert len(system.models_for("t")) == 1
    assert len(system.models_for("u")) == 1
    assert system.models_for("u")[0].id == u_model.id
    for lid, blob in u_blocks.items():
        assert system.block(lid).params.tobytes() == blob

    # no dangling references, no unreferenced blocks
    referenced = set()
    for model in system.models.values():
        for lid in model.layer_ids():
            assert lid in system.blocks
            referenced.add(lid)
    assert referenced == set(system.blocks)


def test_fresh_task_single_child_adds_exactly_one_model():
    system = fresh_system()
    before = set(system.models)
    system.rng = Rng(10, "one")
    run_task_iteration(system, make_dataset("t", seed=47), quick_config())
    added = set(system.models) - before
    assert len(added) == 1
    assert system.models[added.pop()].task == "t"


def test_selection_counts_persist_across_iterations():
    system = fresh_system()
    ds = make_dataset("t", seed=48)
    system.rng = Rng(11, "persist")
    cfg = quick_config()
    run_task_iteration(system, ds, cfg)
    after_first = {m.id: dict(m.selections) for m in system.models.values()}
    assert any(after_first.values())
    run_task_iteration(system, ds, cfg)
    for mid, counts in after_first.items():
        if mid in system.models:
            for task, count in counts.items():
                assert system.models[mid].selections[task] >= count


def test_metrics_snapshot_single_model_and_oracle_mean():
    system = fresh_system()
    ds = make_dataset("t", seed=49)
    system.rng = Rng(12, "snap")
    run_task_iteration(system, ds, quick_config())
    snap = metrics_snapshot(system, {"t": ds}, ["t"])
    model = system.models_for("t")[0]
    acc, accounted, flops = snap.per_task["t"]
    assert accounted == system.accounted_params(model)
    assert flops == float(system.inference_flops(model))
    assert snap.mean_test_accuracy == acc
    # cost means cover every model in the system, the root included
    hand_mean = sum(system.accounted_params(m) for m in system.models.values()) \
        / len(system.models)
    assert snap.mean_accounted_params == pytest.approx(hand_mean, rel=1e-12)
    assert len(system.models) == 2  # root + task model


def test_snapshot_accuracy_restricted_to_subset_costs_over_all():
    system = fresh_system()
    ds_t = make_dataset("t", seed=50)
    ds_u = make_dataset("u", seed=51)
    system.rng = Rng(13, "subset")
    run_task_iteration(system, ds_t, quick_config())
    run_task_iteration(system, ds_u, quick_config())
    snap = metrics_snapshot(system, {"t": ds_t, "u": ds_u}, ["t"])
    assert set(snap.per_task) == {"t"}
    hand_mean = sum(system.accounted_params(m) for m in system.models.values()) \
        / len(system.models)
    assert snap.mean_accounted_params == pytest.approx(hand_mean, rel=1e-12)


def test_blocks_are_settled_when_their_iteration_ends():
    system = fresh_system()
    ds = make_dataset("t", seed=45)
    system.rng = Rng(9, "settle")
    run_task_iteration(system, ds, quick_config())
    assert all(block.settled for block in system.blocks.values())
    parent = system.models_for("t")[0]
    head = system.block(parent.head_id())
    with pytest.raises(ValueError, match="read-only"):
        trainer.sgd_step(head.params, head.opt, np.ones_like(head.params), 0.1, 0.9, False)

    # A child writes its fresh copies; its frozen references stay settled.
    child = apply_mutations(system, parent, finetune_top_actions(parent, 1), "t",
                            ds.num_classes, Rng(9, "child"))
    frozen = [lid for lid, trainable in child.layers if not trainable]
    assert frozen and child.trainable_ids()
    for lid in child.trainable_ids():
        system.block(lid).params[0] += 1.0
    with pytest.raises(ValueError, match="read-only"):
        system.block(frozen[-1]).params[0] += 1.0


def test_a_write_to_a_settled_block_leaves_run_generation(monkeypatch, caplog):
    system = fresh_system()
    ds = make_dataset("t", seed=44)
    system.rng = Rng(8, "first")
    run_task_iteration(system, ds, quick_config())

    def train_every_layer(system, model, dataset, budget, cycle, total, rng):
        for block in system.model_blocks(model):
            trainer.sgd_step(block.params, block.opt, np.ones_like(block.params),
                             0.1, 0.9, False)

    monkeypatch.setattr(evolution, "train_cycle", train_every_layer)
    system.rng = Rng(8, "gen")
    with caplog.at_level(logging.WARNING, logger="evograft"):
        with pytest.raises(ValueError, match="read-only"):
            run_generation(system, ds, quick_config(), system.models_for("t"))
    assert "failed training" not in caplog.text


def count_snapshot_evaluations(monkeypatch) -> list[int]:
    """Install counters; the list gets one entry per ``metrics_snapshot`` call:
    the number of ``evaluate`` calls made inside it."""
    counts, inside = [], False
    real_snapshot, real_evaluate = evolution.metrics_snapshot, evolution.evaluate

    def snapshot(*args, **kwargs):
        nonlocal inside
        counts.append(0)
        inside = True
        try:
            return real_snapshot(*args, **kwargs)
        finally:
            inside = False

    def counted(*args):
        if inside:
            counts[-1] += 1
        return real_evaluate(*args)

    monkeypatch.setattr(evolution, "metrics_snapshot", snapshot)
    monkeypatch.setattr(evolution, "evaluate", counted)
    return counts


@pytest.mark.parametrize("n", [4, 12])
def test_each_snapshot_evaluates_only_the_iterated_tasks_best(monkeypatch, n):
    names = [f"t{i}" for i in range(n)]

    def tasks():
        return {name: make_dataset(name, classes=2, n_train=16, n_val=8, n_test=8,
                                   seed=60 + i) for i, name in enumerate(names)}

    datasets = tasks()
    counts = count_snapshot_evaluations(monkeypatch)
    system = fresh_system()
    run_plan(system, [SegmentSpec("all", names, iterations=2)], datasets, quick_config())
    # each first iteration makes its task's first model; later ones may keep it
    assert counts[:n] == [1] * n
    assert len(counts) == 2 * n and all(count <= 1 for count in counts[n:])
    assert {m.id for m in system.models.values() if m.test_accuracy} == {
        m.id for m in system.models.values() if m.task in datasets}

    # a snapshot on other dataset objects measures again, and agrees
    counts.clear()
    fresh = evolution.metrics_snapshot(system, tasks(), names)
    assert counts == [n]
    assert fresh.per_task == system.history[-1].per_task


def test_discarded_models_leave_the_accuracy_memo():
    system = fresh_system()
    datasets = {"a": make_dataset("a", seed=52), "b": make_dataset("b", seed=53)}
    plan = [SegmentSpec("grow", ["a", "b"], iterations=2, children=2, generations=2)]
    run_plan(system, plan, datasets, quick_config())
    assert system.next_model_id > len(system.models) + 2, "iterations must discard"
    best = system.models_for("a")[0]
    assert best.test_accuracy[0] is datasets["a"]
    # the memo lives on the model, so nothing the system keeps holds it after a discard
    gone = weakref.ref(best)
    system.discard_model(best)
    del best
    gc.collect()
    assert gone() is None


def test_an_unscored_model_fails_the_iteration_at_its_score():
    system = fresh_system()
    dataset = make_dataset("a", seed=52)
    child = apply_mutations(system, system.models[0], set(), "a",
                            dataset.num_classes, system.rng)
    system.commit_model(child)
    with pytest.raises(ValueError, match=f"model {child.id} has no recorded quality"):
        run_task_iteration(system, dataset, quick_config())


def test_parse_segments_round_robin_and_overrides():
    segments = parse_segments("""
# two-phase run
segment warmup
mode munet
s 0.99
recalibrate 10
tasks a,b
iterations 2
generations 3
children 2
cycles 2
samples_cap 640

segment extend
mode munet_plus
tasks a,b,c
""")
    assert [s.label for s in segments] == ["warmup", "extend"]
    first = segments[0]
    assert first.mode == MODE_MUNET and first.s == 0.99 and first.recalibrate == 10.0
    assert first.tasks == ["a", "b"] and first.iterations == 2
    assert first.generations == 3 and first.children == 2 and first.cycles == 2
    assert first.samples_cap == 640
    assert segments[1].mode == MODE_MUNET_PLUS


def test_parse_segments_rejects_garbage():
    with pytest.raises(EvolutionError):
        parse_segments("mode munet\n")  # directive before any segment
    with pytest.raises(EvolutionError):
        parse_segments("segment a\nmode nosuch\n")
    with pytest.raises(EvolutionError):
        parse_segments("")
    for text, reason in (("segment\n", "line 1: .*label '' is not whitespace-free"),
                         ("segment a\n\nmode nosuch\n", "line 3: .*unknown mode 'nosuch'"),
                         ("segment a\niterations -1\n", "line 2: .*must not be negative"),
                         ("segment a\ncycles two\n", "line 2: bad value for 'cycles'"),
                         ("segment a\nspeed 3\n", "^line 2: unknown directive 'speed'$"),
                         ("segment a\ntasks b\ns 1.5\n", "line 3: .*scale factor s"),
                         ("segment a\nrecalibrate 0\n", "line 2: .*parameter scale P"),
                         ("segment a\ngenerations 0\n", "line 2: .*counts must be positive"),
                         ("segment a\nchildren -1\n", "line 2: .*counts must be positive"),
                         ("segment a\n\ncycles 0\n", "line 3: .*counts must be positive"),
                         ("segment a\nsamples_cap -5\n",
                          "line 2: .*budget fields must be positive")):
        with pytest.raises(EvolutionError, match=reason):
            parse_segments(text)


def test_segment_spec_checks_itself_and_is_frozen():
    with pytest.raises(EvolutionError, match="unknown mode 'bogus'"):
        SegmentSpec(label="x", mode="bogus")
    with pytest.raises(EvolutionError, match="must not be negative"):
        SegmentSpec(label="x", iterations=-1)
    with pytest.raises(EvolutionError, match="not whitespace-free"):
        SegmentSpec(label="a b")
    for overrides, reason in (({"s": 2.0}, "scale factor s"),
                              ({"s": 0}, "scale factor s"),
                              ({"recalibrate": -1.0}, "parameter scale P"),
                              ({"generations": 0}, "counts must be positive"),
                              ({"children": 0}, "counts must be positive"),
                              ({"cycles": -2}, "counts must be positive"),
                              ({"samples_cap": -5}, "budget fields must be positive")):
        with pytest.raises(ValueError, match=reason):
            SegmentSpec(label="x", **overrides)
    segment = SegmentSpec(label="x", mode=MODE_MUNET)
    with pytest.raises(FrozenInstanceError):
        segment.mode = "bogus"


def test_segment_without_mode_keeps_the_systems_mode(monkeypatch):
    seen = []
    real = evolution.sample_mutations

    def spy(system, parent, rng):
        seen.append(system.score_params.compute_factor_enabled)
        return real(system, parent, rng)

    monkeypatch.setattr(evolution, "sample_mutations", spy)
    system = fresh_system()
    datasets = {"a": make_dataset("a", seed=52)}
    run_plan(system, [SegmentSpec(label="base", tasks=["a"], mode=MODE_MUNET),
                      SegmentSpec(label="next", tasks=["a"])], datasets, quick_config())
    assert seen == [False, False]


def test_run_segment_recalibrate_only_changes_score_params():
    system = fresh_system()
    digest_models = set(system.models)
    segment = SegmentSpec(label="cal", tasks=[], recalibrate=10.0, s=0.97)
    snaps = run_segment(system, segment, {}, quick_config())
    assert snaps == []
    assert set(system.models) == digest_models
    assert system.score_params.s == 0.97
    root = next(iter(system.models.values()))
    assert system.score_params.P == pytest.approx(10.0 * system.accounted_params(root))


def test_run_segment_mode_toggles_compute_factor():
    system = fresh_system()
    run_segment(system, SegmentSpec(label="base", mode=MODE_MUNET), {}, quick_config())
    assert system.score_params.compute_factor_enabled is False
    run_segment(system, SegmentSpec(label="plus", mode=MODE_MUNET_PLUS), {},
                quick_config())
    assert system.score_params.compute_factor_enabled is True


def test_run_segment_round_robin_and_new_tasks():
    system = fresh_system()
    datasets = {"a": make_dataset("a", seed=52), "b": make_dataset("b", seed=53)}
    segment = SegmentSpec(label="s", tasks=["a", "b"], iterations=2)
    snaps = run_segment(system, segment, datasets, quick_config())
    assert [s.task for s in snaps] == ["a", "b", "a", "b"]
    assert len(system.models_for("a")) == 1
    assert len(system.models_for("b")) == 1
    assert [s.index for s in snaps] == [1, 2, 3, 4]
    assert system.history == snaps


def test_run_segment_unknown_task_errors():
    system = fresh_system()
    with pytest.raises(EvolutionError):
        run_segment(system, SegmentSpec(label="x", tasks=["ghost"]), {}, quick_config())
    models = list(system.models)
    with pytest.raises(EvolutionError, match="maps task 'ghost' to dataset 'other'"):
        run_segment(system, SegmentSpec(label="x", tasks=["ghost"]),
                    {"ghost": make_dataset("other")}, quick_config())
    assert list(system.models) == models and system.iterations_done == 0


def test_run_plan_rejects_unknown_position_label():
    system = fresh_system()
    system.run_position = ("gone", 1)
    before = system.score_params
    plan = [SegmentSpec(label="cal", recalibrate=10.0, s=0.97)]
    with pytest.raises(EvolutionError, match="unknown segment 'gone'"):
        run_plan(system, plan, {}, quick_config())
    assert system.score_params == before
    assert system.run_position == ("gone", 1)


def test_run_plan_rejects_repeated_labels_before_any_iteration():
    from evograft.checkpoint import system_digest
    system = fresh_system()
    before = system_digest(system)
    datasets = {"a": make_dataset("a", seed=52), "b": make_dataset("b", seed=53)}
    for plan in ([SegmentSpec("x", ["a"]), SegmentSpec("x", ["b"], iterations=2)],
                 parse_segments("segment a\nsegment a\n")):
        with pytest.raises(EvolutionError, match="label '[xa]' is repeated"):
            run_plan(system, plan, datasets, quick_config())
        assert system_digest(system) == before
        assert system.history == [] and system.run_position is None


def test_a_one_value_axis_pins_its_hparam_and_the_plan_runs(desk_space):
    system = bootstrap_system(pinned_space(desk_space), seed=11, width=8, depth=3,
                              patch=8, channels=3)
    datasets = {"a": make_dataset("a", seed=52), "b": make_dataset("b", seed=53)}
    run_plan(system, [SegmentSpec("grow", ["a", "b"], iterations=2, generations=2,
                                  children=2)], datasets, quick_config())
    assert system.iterations_done == 4
    pinned = hparam_action("momentum")
    for model in system.models.values():
        assert model.hparams["momentum"] == 0.9
        assert pinned not in model.mu
        assert pinned not in possible_mutations(system, model)


def test_finetune_top_actions_shape():
    system = fresh_system()
    root = next(iter(system.models.values()))
    actions = finetune_top_actions(root, 2)
    assert "head" not in actions
    non_head = len(root.layers) - 1
    assert clone_action(non_head - 1) in actions
    assert clone_action(non_head - 2) in actions
    assert len(actions) == 2
    with pytest.raises(EvolutionError):
        finetune_top_actions(root, 99)


def test_one_table1_iteration_at_the_papers_resolution_round_trips(tmp_path, table1_space):
    from evograft.checkpoint import load_checkpoint, save_checkpoint, system_digest
    from evograft.data import GenSpec, TaskGenSpec, generate_synthetic_tasks, load_task_dir
    spec = GenSpec([TaskGenSpec("paper", classes=3, h=64, w=64, c=3, train=16, val=8,
                                test=8)])
    (task_dir,) = generate_synthetic_tasks(spec, seed=3, out_dir=str(tmp_path / "tasks"))
    system = bootstrap_system(table1_space, seed=3, width=8, depth=2, patch=16, channels=3)
    root = next(iter(system.models.values()))
    assert root.hparams["resolution"] == 384
    system.task_paths = {"paper": task_dir}
    run_task_iteration(system, load_task_dir(task_dir), quick_config())
    assert system.iterations_done == 1 and len(system.models_for("paper")) == 1
    save_checkpoint(system, str(tmp_path / "ckpt"))
    assert system_digest(load_checkpoint(str(tmp_path / "ckpt"))) == system_digest(system)
