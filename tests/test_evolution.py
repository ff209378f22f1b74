from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from evograft import evolution, trainer
from evograft.evolution import (EvolutionConfig, EvolutionError, SegmentSpec,
                                _restore_payload, _train_child, bootstrap_system,
                                metrics_snapshot, parent_acceptance_probability,
                                parse_segments, run_generation, run_plan,
                                run_segment, run_task_iteration, sample_parent)
from evograft.mutations import (MAKE_TRAINABLE_HEAD, MODE_MUNET, MODE_MUNET_PLUS,
                                apply_mutations, clone_action)
from evograft.rng import Rng
from evograft.trainer import TrainBudget, evaluate

from conftest import finetune_top_actions, make_dataset


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
                                     "3c1cbcbcd17cf42b18581661df07b99d")


def test_acceptance_probability_is_exact_powers_of_half():
    for k in range(11):
        assert parent_acceptance_probability(k) == 0.5 ** k


def test_sample_parent_returns_best_active_when_counts_zero():
    system = fresh_system()
    ds = make_dataset("t", seed=40)
    rng = Rng(1, "p")
    run_task_iteration(system, "t", ds, quick_config(), rng)
    run_task_iteration(system, "u", make_dataset("u", seed=41), quick_config(), rng)
    active = system.models_for("t")
    assert len(active) == 1
    system.selection_counts = {}
    for _ in range(20):
        chosen = sample_parent(system, "t", active, rng)
        assert chosen.id == active[0].id
        system.selection_counts = {}


def test_sample_parent_acceptance_frequency_for_count_two():
    system = fresh_system()
    ds = make_dataset("t", seed=42)
    rng = Rng(2, "p")
    run_task_iteration(system, "t", ds, quick_config(), rng)
    active = system.models_for("t")
    first = active[0]
    n, hits = 10_000, 0
    for _ in range(n):
        system.selection_counts = {(first.id, "t"): 2}
        hits += sample_parent(system, "t", active, rng).id == first.id
    assert abs(hits / n - 0.25) < 0.01


def test_sample_parent_empty_active_draws_from_other_tasks():
    system = fresh_system()
    rng = Rng(3, "p")
    root = next(iter(system.models.values()))
    chosen = sample_parent(system, "newtask", [], rng)
    assert chosen.id == root.id
    assert system.selection_counts[(root.id, "newtask")] == 1


def test_sample_parent_fallback_is_uniform_and_counted():
    system = fresh_system()
    ds = make_dataset("t", seed=43)
    rng = Rng(4, "p")
    run_task_iteration(system, "t", ds, quick_config(), rng)
    models = sorted(system.models.values(), key=lambda m: m.id)
    counts = {m.id: 0 for m in models}
    n = 4000
    for _ in range(n):
        # huge selection counts force every candidate rejection
        system.selection_counts = {(m.id, "t"): 64 for m in models}
        chosen = sample_parent(system, "t", system.models_for("t"), rng)
        counts[chosen.id] += 1
        assert system.selection_counts[(chosen.id, "t")] == 65
    for mid, hits in counts.items():
        assert abs(hits / n - 1 / len(models)) < 0.03


def test_child_tying_same_task_parent_is_retained():
    system = fresh_system()
    ds = constant_label_dataset("t")
    rng = Rng(5, "tie")
    cfg = quick_config(train_cycles=2)
    run_task_iteration(system, "t", ds, cfg, rng)
    parent = system.models_for("t")[0]
    assert parent.quality == 1.0  # constant labels saturate
    child = apply_mutations(system, parent, {MAKE_TRAINABLE_HEAD}, "t", 2, rng)
    system.commit_model(child)
    best = _train_child(system, child, parent, "t", ds, cfg, rng)
    assert best is not None and best[0] == 1.0  # exact tie, kept by >=


def test_child_below_same_task_parent_is_dropped():
    system = fresh_system()
    ds = random_label_dataset("t")
    rng = Rng(6, "drop")
    cfg = quick_config()
    run_task_iteration(system, "t", ds, cfg, rng)
    parent = system.models_for("t")[0]
    parent.quality = 1.0  # unreachable bar on random labels
    child = apply_mutations(system, parent, {MAKE_TRAINABLE_HEAD}, "t", 4, rng)
    system.commit_model(child)
    assert _train_child(system, child, parent, "t", ds, cfg, rng) is None


def test_cross_task_parent_imposes_no_bar():
    system = fresh_system()
    ds = random_label_dataset("t")
    rng = Rng(7, "inf")
    cfg = quick_config()
    root = next(iter(system.models.values()))
    child = apply_mutations(system, root, {MAKE_TRAINABLE_HEAD}, "t", 4, rng)
    system.commit_model(child)
    best = _train_child(system, child, root, "t", ds, cfg, rng)
    assert best is not None  # threshold is -inf for parents from other tasks


def test_child_validation_split_is_preprocessed_once(monkeypatch):
    system = fresh_system()
    ds = make_dataset("t", seed=45)
    rng = Rng(9, "val")
    root = next(iter(system.models.values()))
    child = apply_mutations(system, root, {MAKE_TRAINABLE_HEAD}, "t", 4, rng)
    system.commit_model(child)
    eval_calls = []
    original = trainer.preprocess_batch

    def counting(images, hparams, rng, train_mode):
        if not train_mode:
            eval_calls.append(len(images))
        return original(images, hparams, rng, train_mode)

    monkeypatch.setattr(trainer, "preprocess_batch", counting)
    quality, payload = _train_child(system, child, root, "t", ds,
                                    quick_config(train_cycles=3), rng)
    monkeypatch.undo()
    val_images, val_labels = ds.split("val")
    assert eval_calls == [len(val_images)]
    _restore_payload(system, payload)
    assert quality == evaluate(system, child, val_images, val_labels)


def test_generation_retains_children_into_active_population():
    system = fresh_system()
    ds = make_dataset("t", seed=44)
    rng = Rng(8, "gen")
    active = []
    retained = run_generation(system, "t", ds, quick_config(children_per_generation=2),
                              active, rng)
    assert retained and active == retained
    assert all(m.id in system.models for m in retained)
    assert all(m.quality is not None and m.score_snapshot is not None for m in retained)


def test_task_iteration_keeps_exactly_one_model():
    system = fresh_system()
    ds = make_dataset("t", seed=45)
    other = make_dataset("u", seed=46)
    rng = Rng(9, "iter")
    cfg = quick_config(generations=2, children_per_generation=2)
    run_task_iteration(system, "u", other, cfg, rng)
    u_model = system.models_for("u")[0]
    u_blocks = {lid: system.block(lid).params.tobytes() for lid in u_model.layer_ids()}

    run_task_iteration(system, "t", ds, cfg, rng)
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
    run_task_iteration(system, "t", make_dataset("t", seed=47), quick_config(),
                       Rng(10, "one"))
    added = set(system.models) - before
    assert len(added) == 1
    assert system.models[added.pop()].task == "t"


def test_selection_counts_persist_across_iterations():
    system = fresh_system()
    ds = make_dataset("t", seed=48)
    rng = Rng(11, "persist")
    cfg = quick_config()
    run_task_iteration(system, "t", ds, cfg, rng)
    after_first = dict(system.selection_counts)
    run_task_iteration(system, "t", ds, cfg, rng)
    for key, count in after_first.items():
        if key[0] in system.models:
            assert system.selection_counts[key] >= count


def test_metrics_snapshot_single_model_and_oracle_mean():
    system = fresh_system()
    ds = make_dataset("t", seed=49)
    rng = Rng(12, "snap")
    run_task_iteration(system, "t", ds, quick_config(), rng)
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
    rng = Rng(13, "subset")
    run_task_iteration(system, "t", ds_t, quick_config(), rng)
    run_task_iteration(system, "u", ds_u, quick_config(), rng)
    snap = metrics_snapshot(system, {"t": ds_t, "u": ds_u}, ["t"])
    assert set(snap.per_task) == {"t"}
    hand_mean = sum(system.accounted_params(m) for m in system.models.values()) \
        / len(system.models)
    assert snap.mean_accounted_params == pytest.approx(hand_mean, rel=1e-12)


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
        parse_segments("segment a\nsegment a\n")
    with pytest.raises(EvolutionError):
        parse_segments("")
    for text, reason in (("segment\n", "line 1: .*label '' is not whitespace-free"),
                         ("segment a\n\nmode nosuch\n", "line 3: .*unknown mode 'nosuch'"),
                         ("segment a\niterations -1\n", "line 2: .*must not be negative"),
                         ("segment a\ncycles two\n", "line 2: bad value for 'cycles'"),
                         ("segment a\nspeed 3\n", "^line 2: unknown directive 'speed'$")):
        with pytest.raises(EvolutionError, match=reason):
            parse_segments(text)


def test_segment_spec_checks_itself_and_is_frozen():
    with pytest.raises(EvolutionError, match="unknown mode 'bogus'"):
        SegmentSpec(label="x", mode="bogus")
    with pytest.raises(EvolutionError, match="must not be negative"):
        SegmentSpec(label="x", iterations=-1)
    with pytest.raises(EvolutionError, match="not whitespace-free"):
        SegmentSpec(label="a b")
    segment = SegmentSpec(label="x", mode=MODE_MUNET)
    with pytest.raises(FrozenInstanceError):
        segment.mode = "bogus"


def test_segment_without_mode_keeps_the_systems_mode(monkeypatch):
    seen = []
    real = evolution.sample_mutations

    def spy(system, parent, mode, rng):
        seen.append((mode, system.score_params.compute_factor_enabled))
        return real(system, parent, mode, rng)

    monkeypatch.setattr(evolution, "sample_mutations", spy)
    system = fresh_system()
    datasets = {"a": make_dataset("a", seed=52)}
    run_plan(system, [SegmentSpec(label="base", tasks=["a"], mode=MODE_MUNET),
                      SegmentSpec(label="next", tasks=["a"])], datasets, quick_config())
    assert seen == [(MODE_MUNET, False), (MODE_MUNET, False)]


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


def test_run_plan_rejects_unknown_position_label():
    system = fresh_system()
    system.run_position = ("gone", 1)
    before = system.score_params
    plan = [SegmentSpec(label="cal", recalibrate=10.0, s=0.97)]
    with pytest.raises(EvolutionError, match="unknown segment 'gone'"):
        run_plan(system, plan, {}, quick_config())
    assert system.score_params == before
    assert system.run_position == ("gone", 1)


def test_finetune_top_actions_shape():
    system = fresh_system()
    root = next(iter(system.models.values()))
    actions = finetune_top_actions(root, 2)
    assert MAKE_TRAINABLE_HEAD in actions
    non_head = len(root.layers) - 1
    assert clone_action(non_head - 1) in actions
    assert clone_action(non_head - 2) in actions
    assert len(actions) == 3
    with pytest.raises(EvolutionError):
        finetune_top_actions(root, 99)
