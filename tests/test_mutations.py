import math
from dataclasses import replace

import numpy as np
import pytest

from evograft.mutations import (REMOVE_TOP_LAYER, MutationError, apply_mutations,
                                clone_action, hparam_action, inherit_mu,
                                possible_mutations, sample_mutations)
from evograft.rng import Rng
from evograft.search_space import MU_GRID, MU_INIT, on_mu_grid
from evograft.system import ROOT_TASK

from conftest import pinned_space

def root_of(system):
    return next(m for m in system.models.values() if m.task == ROOT_TASK)


def switch_compute_off(system):
    system.score_params = replace(system.score_params, compute_factor_enabled=False)


def test_possible_mutation_counts(small_system):
    root = root_of(small_system)  # embedding + 3 hidden blocks
    plus = possible_mutations(small_system, root)
    assert len(plus) == 4 + 1 + 13
    switch_compute_off(small_system)
    base = possible_mutations(small_system, root)
    assert len(base) == 4 + 12
    assert REMOVE_TOP_LAYER not in base
    assert hparam_action("resolution") not in base
    assert hparam_action("resolution") in plus


def test_remove_absent_at_min_depth(small_system):
    root = root_of(small_system)
    rng = Rng(1, "apply")
    child = apply_mutations(small_system, root, {REMOVE_TOP_LAYER}, "a", 3, rng)
    child = apply_mutations(small_system, child, {REMOVE_TOP_LAYER}, "a", 3, rng)
    assert child.hidden_count() == 1
    assert REMOVE_TOP_LAYER not in possible_mutations(small_system, child)


def test_sample_holds_no_head_action_and_replays(small_system):
    root = root_of(small_system)
    first = sample_mutations(small_system, root, Rng(4, "s"))
    second = sample_mutations(small_system, root, Rng(4, "s"))
    assert "head" not in first
    assert first == second


def test_sample_matches_a_per_action_uniform_loop(small_system):
    root = root_of(small_system)
    grid = Rng(2, "grid")
    for seed in range(20):
        # the first action has no entry, so it is drawn at the initial value
        parent = replace(root, mu={action: grid.choice(MU_GRID) for action in
                                   list(root.mu)[1:]})
        bulk, scalar = Rng(seed, "sample"), Rng(seed, "sample")
        expected = set()
        for action in possible_mutations(small_system, parent):
            if parent.mu.get(action, MU_INIT) > scalar.uniform():
                expected.add(action)
        assert sample_mutations(small_system, parent, bulk) == expected
        assert bulk.counter == scalar.counter


def test_sample_inclusion_frequency_at_init_value(small_system):
    root = root_of(small_system)
    assert all(v == MU_INIT for v in root.mu.values())
    rng = Rng(123, "freq")
    probe = clone_action(0)
    n = 10_000
    hits = sum(probe in sample_mutations(small_system, root, rng)
               for _ in range(n))
    assert abs(hits / n - MU_INIT) < 0.01


def test_sample_expected_set_size_at_grid_minimum(small_system):
    root = root_of(small_system)
    actions = possible_mutations(small_system, root)
    root.mu = {a: 0.02 for a in actions}
    rng = Rng(321, "size")
    n = 100_000
    total = sum(len(sample_mutations(small_system, root, rng))
                for _ in range(n))
    expected = 0.02 * len(actions)
    sigma_mean = math.sqrt(len(actions) * 0.02 * 0.98 / n)
    assert abs(total / n - expected) < 3 * sigma_mean


def test_inherit_step_frequency_from_left_edge():
    rng = Rng(9, "inherit")
    action = clone_action(0)
    n = 100_000
    stepped = 0
    for _ in range(n):
        table = inherit_mu({action: 0.02}, [action], rng)
        assert table[action] in (0.02, 0.04)
        stepped += table[action] == 0.04
    assert abs(stepped / n - 0.02) < 0.005


def test_inherit_initializes_absent_actions():
    rng = Rng(10, "absent")
    n = 20_000
    values = [inherit_mu({}, [REMOVE_TOP_LAYER], rng)[REMOVE_TOP_LAYER]
              for _ in range(n)]
    assert set(values) <= {0.18, MU_INIT, 0.22}
    moved = sum(v != MU_INIT for v in values)
    assert abs(moved / n - MU_INIT) < 0.01


def test_inherit_is_deterministic_under_fixed_stream():
    actions = [clone_action(i) for i in range(5)]
    parent = {a: MU_INIT for a in actions}
    t1 = inherit_mu(parent, actions, Rng(11, "det"))
    t2 = inherit_mu(parent, actions, Rng(11, "det"))
    assert t1 == t2


def test_mu_stays_on_grid_over_thousand_generations():
    rng = Rng(12, "chain")
    action = hparam_action("momentum")
    table = {action: MU_INIT}
    for _ in range(1000):
        table = inherit_mu(table, [action], rng)
        assert on_mu_grid(table[action])


def test_apply_share_all_when_only_head(small_system):
    root = root_of(small_system)
    rng = Rng(13, "share")
    child = apply_mutations(small_system, root, set(), "a", 4, rng)
    assert [lid for lid, _ in child.layers[:-1]] == [lid for lid, _ in root.layers[:-1]]
    assert all(not trainable for _, trainable in child.layers[:-1])
    assert child.layers[-1][1] is True
    small_system.commit_model(child)
    head = small_system.block(child.head_id())
    shared = sum(small_system.block(lid).n_params / 2.0 for lid, _ in child.layers[:-1])
    assert small_system.accounted_params(child) == pytest.approx(
        head.n_params + shared, rel=1e-12)
    assert np.all(head.params == 0.0)  # cross-task head starts at zero


def test_apply_clone_copies_params_into_fresh_block(small_system):
    root = root_of(small_system)
    rng = Rng(14, "clone")
    child = apply_mutations(small_system, root, {clone_action(1)}, "a", 4, rng)
    parent_lid = root.layers[1][0]
    child_lid, trainable = child.layers[1]
    assert trainable is True
    assert child_lid != parent_lid
    assert np.array_equal(small_system.block(child_lid).params,
                          small_system.block(parent_lid).params)
    assert np.array_equal(small_system.block(child_lid).opt,
                          small_system.block(parent_lid).opt)
    assert small_system.block(child_lid).created_by_task == "a"


def test_apply_same_task_parent_clones_head(small_system):
    root = root_of(small_system)
    rng = Rng(15, "head")
    first = apply_mutations(small_system, root, set(), "a", 4, rng)
    small_system.commit_model(first)
    head = small_system.block(first.head_id())
    head.params[:] = 7.0  # pretend training happened
    second = apply_mutations(small_system, first, set(), "a", 4, rng)
    assert second.head_id() != first.head_id()
    assert np.all(small_system.block(second.head_id()).params == 7.0)


def test_apply_remove_drops_flops_by_exactly_that_block(small_system):
    root = root_of(small_system)
    rng = Rng(16, "remove")
    full = apply_mutations(small_system, root, set(), "a", 4, rng)
    small_system.commit_model(full)
    removed = apply_mutations(small_system, full, {REMOVE_TOP_LAYER}, "a", 4, rng)
    assert removed.hidden_count() == full.hidden_count() - 1
    dropped = small_system.block(full.layers[-2][0])
    from evograft.system import dense_flops
    assert (small_system.inference_flops(full) - small_system.inference_flops(removed)
            == dense_flops(dropped.d_in, dropped.d_out))


def test_apply_hparam_changes_only_named_axes(small_system):
    root = root_of(small_system)
    rng = Rng(17, "hp")
    child = apply_mutations(small_system, root,
                            {hparam_action("learning_rate"), hparam_action("flip")},
                            "a", 4, rng)
    for axis, value in child.hparams.items():
        if axis in ("learning_rate", "flip"):
            assert value != root.hparams[axis]
            assert value in small_system.space.neighbor_values(axis, root.hparams[axis])
        else:
            assert value == root.hparams[axis]


def test_child_layer_count_within_one_of_parent(small_system):
    root = root_of(small_system)
    rng = Rng(18, "count")
    for trial in range(20):
        actions = sample_mutations(small_system, root, rng)
        child = apply_mutations(small_system, root, actions, "a", 4, rng)
        assert len(child.layers) in (len(root.layers) - 1, len(root.layers))


def test_child_mu_covers_child_actions(small_system):
    root = root_of(small_system)
    rng = Rng(19, "cover")
    child = apply_mutations(small_system, root, {REMOVE_TOP_LAYER}, "a", 4, rng)
    assert set(child.mu) == set(possible_mutations(small_system, child))
    assert all(on_mu_grid(v) for v in child.mu.values())


def test_illegal_actions_rejected(small_system, desk_space):
    from evograft.checkpoint import system_digest
    from evograft.evolution import bootstrap_system
    pinned = bootstrap_system(pinned_space(desk_space), seed=11, width=8, depth=3,
                              patch=8, channels=3)
    rng = Rng(20, "bad")
    for system, action in ((small_system, clone_action(99)),
                           (small_system, hparam_action("nope")),
                           (pinned, hparam_action("momentum"))):
        before = (system_digest(system), system.next_block_id, system.next_model_id)
        with pytest.raises(MutationError, match=action):
            apply_mutations(system, root_of(system), {clone_action(0), action}, "a", 4, rng)
        assert (system_digest(system), system.next_block_id, system.next_model_id) == before


def test_rejected_head_adds_no_block():
    from evograft.checkpoint import system_digest
    from evograft.evolution import bootstrap_system
    from evograft.search_space import load_builtin_space
    system = bootstrap_system(load_builtin_space("desk"), seed=11, width=8, depth=2,
                              patch=8, channels=3)
    rng = Rng(22, "head")
    child = apply_mutations(system, root_of(system), set(), "t", 4, rng)
    system.commit_model(child)
    before = system_digest(system)
    with pytest.raises(MutationError, match="4 classes, task needs 3"):
        apply_mutations(system, child, {clone_action(0), clone_action(1)}, "t", 3, rng)
    assert system_digest(system) == before


def test_compute_factor_off_withholds_compute_actions(small_system):
    root = root_of(small_system)
    switch_compute_off(small_system)
    rng = Rng(21, "off")
    withheld = {REMOVE_TOP_LAYER, hparam_action("resolution")}
    for action in withheld:
        with pytest.raises(MutationError, match=action):
            apply_mutations(small_system, root, {action}, "a", 4, rng)
    child = apply_mutations(small_system, root, {clone_action(1)}, "a", 4, rng)
    assert set(child.mu) == set(possible_mutations(small_system, child))
    assert not withheld & set(child.mu)
