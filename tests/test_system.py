from collections import Counter

import pytest

from evograft.checkpoint import load_checkpoint, save_checkpoint
from evograft.rng import Rng
from evograft.system import (EMBEDDING, HEAD, HIDDEN, ModelSpec, SystemError_,
                             SystemState, dense_flops, embedding_flops, export_dot)

from conftest import add_dense_block, add_model, empty_system, simple_trunk


def accounted_oracle(system, model):
    """Independent per-parameter recount: every parameter's sharing count is
    derived by scanning the full model registry, then block sums accumulate in
    the model's layer order (the documented block-wise formula)."""
    total = 0.0
    for lid in model.layer_ids():
        block = system.block(lid)
        counts = set()
        for _ in range(block.n_params):
            k = sum(1 for other in system.models.values()
                    if other.task != model.task and lid in other.layer_ids())
            counts.add(k)
        assert len(counts) == 1, "block-level sharing must be uniform"
        total += block.n_params / (counts.pop() + 1)
    return total


def build_random_system(seed: int, finalized: bool):
    rng = Rng(seed, "randomsys")
    system = empty_system(seed=seed)
    n_tasks = 1 + rng.randint(6)
    n_emb = 1 + rng.randint(2)
    n_hidden = 2 + rng.randint(5)
    width = 2
    embeddings = [add_dense_block(system, EMBEDDING, 12, width) for _ in range(n_emb)]
    hiddens = [add_dense_block(system, HIDDEN, width, width) for _ in range(n_hidden)]
    for t in range(n_tasks):
        task = f"task{t}"
        for _ in range(1 if finalized else 1 + rng.randint(2)):
            trunk = [rng.choice(embeddings).id]
            order = list(hiddens)
            rng.shuffle(order)
            take = 1 + rng.randint(len(hiddens))
            trunk += [b.id for b in order[:take]]
            add_model(system, task, trunk, width, 1 + rng.randint(4))
    system.collect_garbage()  # keep the no-unreferenced-blocks invariant
    return system


def test_sharing_count_same_task_only(small_system):
    root = next(iter(small_system.models.values()))
    for lid in root.layer_ids():
        assert small_system.sharing_count(lid, "root") == 0


def test_sharing_count_two_other_tasks():
    system = empty_system()
    trunk = simple_trunk(system)
    add_model(system, "a", trunk, 4, 2)
    add_model(system, "b", trunk, 4, 2)
    add_model(system, "c", trunk, 4, 2)
    assert system.sharing_count(trunk[0], "a") == 2
    assert system.sharing_count(trunk[0], "zzz") == 3


def test_sharing_count_root_inherited_block_five_tasks():
    system = empty_system()
    trunk = simple_trunk(system)
    for t in range(5):
        add_model(system, f"t{t}", trunk, 4, 2)
    assert system.sharing_count(trunk[0], "t0") == 4


def test_sharing_count_unknown_block(small_system):
    with pytest.raises(SystemError_):
        small_system.sharing_count(10_000, "root")


def test_accounted_params_no_sharing_is_raw_count(small_system):
    root = next(iter(small_system.models.values()))
    raw = sum(small_system.block(lid).n_params for lid in root.layer_ids())
    assert small_system.accounted_params(root) == float(raw)


def test_accounted_params_block_shared_by_two_tasks_halves():
    system = empty_system()
    trunk = simple_trunk(system, width=4, depth=1)
    m_a = add_model(system, "a", trunk, 4, 1)
    before = system.accounted_params(m_a)
    add_model(system, "b", trunk, 4, 1)
    after = system.accounted_params(m_a)
    shared = sum(system.block(lid).n_params for lid in trunk)
    assert before - after == pytest.approx(shared / 2.0, rel=1e-12)


def test_accounted_params_matches_per_parameter_oracle():
    for seed in range(25):
        system = build_random_system(seed, finalized=False)
        for model in system.models.values():
            assert system.accounted_params(model) == accounted_oracle(system, model)


def test_conservation_on_finalized_systems():
    for seed in range(25):
        system = build_random_system(seed, finalized=True)
        total = sum(system.accounted_params(m) for m in system.models.values())
        distinct = sum(b.n_params for b in system.blocks.values())
        assert total == pytest.approx(distinct, rel=1e-12)


def test_accounted_strictly_decreases_with_more_sharing():
    system = empty_system()
    trunk = simple_trunk(system)
    m = add_model(system, "a", trunk, 4, 2)
    values = [system.accounted_params(m)]
    for t in range(3):
        add_model(system, f"other{t}", trunk, 4, 2)
        values.append(system.accounted_params(m))
    assert all(x > y for x, y in zip(values, values[1:]))


def test_dense_flops_example():
    assert dense_flops(8, 4) == 68


def test_inference_flops_is_additive_in_layers():
    system = empty_system()
    trunk = simple_trunk(system, width=4, depth=2)
    full = add_model(system, "a", trunk, 4, 3)
    shorter = add_model(system, "b", trunk[:-1], 4, 3)
    diff = system.inference_flops(full) - system.inference_flops(shorter)
    assert diff == dense_flops(4, 4)


def test_inference_flops_independent_of_sharing():
    system = empty_system()
    trunk = simple_trunk(system)
    m = add_model(system, "a", trunk, 4, 2)
    before = system.inference_flops(m)
    add_model(system, "b", trunk, 4, 2)
    assert system.inference_flops(m) == before


def test_halving_resolution_quarters_embedding_term():
    system = empty_system()
    trunk = simple_trunk(system, width=4, depth=2, patch=4)
    hi = add_model(system, "a", trunk, 4, 3, resolution=16)
    lo = add_model(system, "b", trunk, 4, 3, resolution=8)
    emb = system.block(trunk[0])
    assert embedding_flops(emb, 16) == 4 * embedding_flops(emb, 8)
    non_embedding_hi = system.inference_flops(hi) - embedding_flops(emb, 16)
    non_embedding_lo = system.inference_flops(lo) - embedding_flops(emb, 8)
    assert non_embedding_hi == non_embedding_lo


def test_commit_discard_is_identity_for_other_models():
    system = empty_system()
    trunk = simple_trunk(system)
    keep = add_model(system, "a", trunk, 4, 2)
    others_before = system.accounted_params(keep)
    victim = add_model(system, "b", trunk, 4, 2)
    assert system.accounted_params(keep) != others_before
    system.discard_model(victim)
    assert system.accounted_params(keep) == others_before
    assert victim.head_id() not in system.blocks  # private head collected
    assert all(lid in system.blocks for lid in trunk)  # shared trunk survives


def test_double_commit_rejected():
    system = empty_system()
    trunk = simple_trunk(system)
    model = add_model(system, "a", trunk, 4, 2)
    with pytest.raises(SystemError_):
        system.commit_model(model)


def test_second_same_task_model_does_not_change_first():
    system = empty_system()
    trunk = simple_trunk(system)
    first = add_model(system, "a", trunk, 4, 2)
    before = system.accounted_params(first)
    add_model(system, "a", trunk, 4, 2)
    assert system.accounted_params(first) == before


def test_head_sharing_across_tasks_rejected():
    system = empty_system()
    trunk = simple_trunk(system)
    donor = add_model(system, "a", trunk, 4, 2)
    thief = ModelSpec(id=system.new_model_id(), task="b",
                      layers=list(donor.layers), hparams=system.space.default_config(),
                      mu={})
    with pytest.raises(SystemError_):
        system.commit_model(thief)


def test_export_dot_empty_system():
    text = export_dot(empty_system())
    assert text.startswith("digraph multitask {")
    assert "->" not in text


def test_export_dot_single_model_node_count():
    system = empty_system()
    trunk = simple_trunk(system, depth=2)  # 3 non-head layers
    add_model(system, "a", trunk, 4, 2)
    text = export_dot(system)
    nodes = [line for line in text.splitlines() if "shape=" in line]
    assert len(nodes) == len(trunk) + 2  # input triangle + blocks + head box


def test_export_dot_shared_hiddens_have_out_degree_two():
    system = empty_system()
    trunk = simple_trunk(system, depth=2)
    add_model(system, "a", trunk, 4, 2)
    add_model(system, "b", trunk, 4, 2)
    text = export_dot(system)
    for hidden in trunk[1:]:
        out_edges = [line for line in text.splitlines()
                     if line.strip().startswith(f'"b{hidden}" ->')]
        assert len(out_edges) == 2


def test_validate_model_rejects_bad_layer_order():
    system = empty_system()
    trunk = simple_trunk(system)
    bad = ModelSpec(id=system.new_model_id(), task="a",
                    layers=[(trunk[1], False), (trunk[0], False), (trunk[2], True)],
                    hparams=system.space.default_config(), mu={})
    with pytest.raises(SystemError_):
        system.commit_model(bad)


def test_commit_rejects_a_mu_value_off_the_grid():
    from evograft.mutations import clone_action
    system = empty_system()
    trunk = simple_trunk(system)
    head = add_dense_block(system, HEAD, 4, 2, task="a")
    layers = [(bid, False) for bid in trunk] + [(head.id, True)]
    for value in (0.21, 0.0, 0.32):
        model = ModelSpec(id=system.new_model_id(), task="a", layers=layers,
                          hparams=system.space.default_config(),
                          mu={clone_action(0): 0.2, clone_action(1): value})
        with pytest.raises(SystemError_, match=f"mu value {value} for clone:1 is off-grid"):
            system.commit_model(model)
    assert not system.models


def test_commit_rejects_a_mu_key_the_model_can_never_take():
    from evograft.mutations import REMOVE_TOP_LAYER, clone_action, hparam_action
    system = empty_system()
    trunk = simple_trunk(system)
    head = add_dense_block(system, HEAD, 4, 2, task="a")
    layers = [(bid, False) for bid in trunk] + [(head.id, True)]
    # every action the model could ever take, whatever the mode and depth
    legal = {clone_action(i): 0.2 for i in range(len(layers) - 1)}
    legal[REMOVE_TOP_LAYER] = 0.2
    legal.update((hparam_action(axis), 0.2) for axis in system.space.axes)

    def model(mu):
        return ModelSpec(id=system.new_model_id(), task="a", layers=layers,
                         hparams=system.space.default_config(), mu=mu)

    for bad in (clone_action(len(layers) - 1), hparam_action("nope"), "head"):
        with pytest.raises(SystemError_, match=f"mu table holds {bad}, an action"):
            system.commit_model(model({**legal, bad: 0.2}))
    assert not system.models
    system.commit_model(model(legal))


def test_commit_rejects_an_id_not_above_the_last_committed():
    system = empty_system()
    trunk = simple_trunk(system)
    first = add_model(system, "a", trunk, 4, 2)
    last = add_model(system, "a", trunk, 4, 2)
    for mid in (last.id, first.id):
        stale = ModelSpec(id=mid, task="a", layers=list(last.layers),
                          hparams=system.space.default_config(), mu={})
        with pytest.raises(SystemError_, match="not above"):
            system.commit_model(stale)
    assert list(system.models) == sorted(system.models)


def test_commit_rejects_a_model_that_lists_a_block_twice():
    system = empty_system()
    trunk = simple_trunk(system)
    head = add_dense_block(system, HEAD, 4, 2, task="a")
    for layers in ([trunk[0], trunk[1], trunk[1], head.id],
                   [trunk[0], trunk[1], trunk[2], trunk[1], head.id]):
        twice = ModelSpec(id=system.new_model_id(), task="a",
                          layers=[(bid, False) for bid in layers],
                          hparams=system.space.default_config(), mu={})
        with pytest.raises(SystemError_, match=f"model {twice.id} lists block {trunk[1]} "
                           "more than once"):
            system.commit_model(twice)
    assert not system.models
    assert not any(b.refs or b.users for b in system.blocks.values())


def test_flops_are_computed_once_per_committed_model(monkeypatch):
    computed = []

    def spy(self, model, original=SystemState._inference_flops):
        computed.append(model.id)
        return original(self, model)
    monkeypatch.setattr(SystemState, "_inference_flops", spy)
    system = empty_system()
    trunk = simple_trunk(system)
    models, committed = [], []
    for task in ("a", "b", "a", "c", "-", "b", "-"):
        if task == "-":
            system.discard_model(models.pop(0))
        else:
            models.append(add_model(system, task, trunk, 4, 2))
            committed.append(models[-1].id)
            # the commit counts them, before any read
            assert models[-1].flops is not None
        for _ in range(3):
            for model in system.models.values():
                system.inference_flops(model)
    # each model's flops once in its lifetime, however often it was read
    assert computed == committed


def test_a_model_whose_flops_cannot_be_counted_is_rejected_at_commit():
    system = empty_system()
    trunk = simple_trunk(system)
    add_model(system, "a", trunk, 4, 2)
    # no channel count gives a square patch of 5 values
    emb = add_dense_block(system, EMBEDDING, 5, 4)
    head = add_dense_block(system, HEAD, 4, 2, task="b")
    model = ModelSpec(id=system.new_model_id(), task="b",
                      layers=[(emb.id, False), (trunk[1], False), (trunk[2], False),
                              (head.id, True)],
                      hparams=system.space.default_config(), mu={})
    models, by_task = dict(system.models), {t: dict(m) for t, m in system.by_task.items()}
    counts = {bid: (dict(refs), users) for bid, (refs, users) in referrers(system).items()}
    trainable = set(system.ever_trainable)
    with pytest.raises(SystemError_, match="cannot infer channel count from embedding d_in=5"):
        system.commit_model(model)
    assert system.models == models and system.by_task == by_task
    assert referrers(system) == counts and system.ever_trainable == trainable


def referrers(system):
    """Each block's referrer counts: per task, and in all."""
    return {bid: (b.refs, b.users) for bid, b in system.blocks.items()}


def check_against_brute_force(system, tasks):
    assert list(system.models) == sorted(system.models)
    assert list(system.blocks) == sorted(system.blocks)
    scan = [(m.task, set(m.layer_ids())) for m in system.models.values()]
    live = set().union(*(ids for _, ids in scan))
    assert set(system.blocks) == live
    # each block's counts are a recount over the committed models alone, so
    # no surviving block counts a discarded model
    for bid, block in system.blocks.items():
        tally = Counter(task for task, ids in scan if bid in ids)
        assert block.refs == dict(tally)
        assert block.users == tally.total()
    for bid in live:
        for task in tasks:
            brute = sum(1 for other, ids in scan if other != task and bid in ids)
            assert system.sharing_count(bid, task) == brute
    for bid in set(range(system.next_block_id)) - live:
        with pytest.raises(SystemError_):
            system.sharing_count(bid, tasks[0])
    for model in system.models.values():
        assert system.accounted_params(model) == accounted_oracle(system, model)


def random_commit(system, rng, tasks, models):
    """Commit a model of a random task over live blocks: a live or fresh
    embedding, an ordered subset of the live hiddens, sometimes a fresh
    hidden, and a fresh head or the head of a same-task model."""
    task = rng.choice(tasks)
    embeddings = sorted(b.id for b in system.blocks.values() if b.kind == EMBEDDING)
    hiddens = sorted(b.id for b in system.blocks.values() if b.kind == HIDDEN)
    if rng.uniform() < 0.2:
        trunk = [add_dense_block(system, EMBEDDING, 3, 1, task=task).id]
    else:
        trunk = [rng.choice(embeddings)]
    trunk += [bid for bid in hiddens if rng.uniform() < 0.5] or [rng.choice(hiddens)]
    if rng.uniform() < 0.3:
        trunk.append(add_dense_block(system, HIDDEN, 1, 1, task=task).id)
    peers = [m for m in models if m.task == task]
    if peers and rng.uniform() < 0.3:
        head = rng.choice(peers).head_id()
    else:
        head = add_dense_block(system, HEAD, 1, 1 + rng.randint(3), task=task).id
    model = ModelSpec(id=system.new_model_id(), task=task,
                      layers=[(bid, False) for bid in trunk] + [(head, True)],
                      hparams=system.space.default_config(), mu={})
    system.commit_model(model)
    models.append(model)


def test_sharing_index_matches_brute_force_under_commits_and_discards(tmp_path):
    for seed in range(50):
        rng = Rng(seed, "sharing-index")
        system = empty_system(seed=seed)
        tasks = [f"task{t}" for t in range(3 + rng.randint(3))]
        checked = tasks + ["root", "unregistered"]
        trunk = [add_dense_block(system, EMBEDDING, 3, 1).id]
        trunk += [add_dense_block(system, HIDDEN, 1, 1).id for _ in range(3)]
        root = add_model(system, "root", trunk, 1, 2)
        models = []
        for _ in range(12):
            if models and rng.uniform() < 0.3:
                system.discard_model(models.pop(rng.randint(len(models))))
            else:
                random_commit(system, rng, tasks, models)
            check_against_brute_force(system, checked)

        foreign = [m for m in models if m.task != models[-1].task]
        if foreign:
            thief = ModelSpec(id=system.new_model_id(), task=models[-1].task,
                              layers=[(trunk[0], False), (trunk[1], False),
                                      (foreign[0].head_id(), True)],
                              hparams=system.space.default_config(), mu={})
            with pytest.raises(SystemError_, match="shared across tasks"):
                system.commit_model(thief)

        path = tmp_path / f"seed{seed}"
        save_checkpoint(system, str(path))
        loaded = load_checkpoint(str(path))
        check_against_brute_force(loaded, checked)
        assert referrers(loaded) == referrers(system)

        rng.shuffle(models)
        for victim in models:
            system.discard_model(victim)
            check_against_brute_force(system, checked)
        assert set(system.blocks) == set(root.layer_ids())
        assert referrers(system) == {bid: ({"root": 1}, 1) for bid in root.layer_ids()}


def check_task_index(system):
    """``by_task`` equals a scan of the registry, per task and in id order."""
    scan = {}
    for model in system.models.values():
        scan.setdefault(model.task, []).append(model)
    assert {task: list(models.items()) for task, models in system.by_task.items()} == {
        task: [(m.id, m) for m in models] for task, models in scan.items()}
    assert system.tasks_with_models() == sorted(scan)
    for task in list(scan) + ["unregistered"]:
        assert system.models_for(task) == scan.get(task, [])


def test_task_index_matches_a_scan_under_commits_discards_and_loads(tmp_path):
    for seed in range(20):
        rng = Rng(seed, "task-index")
        system = empty_system(seed=seed)
        tasks = [f"task{t}" for t in range(2 + rng.randint(3))]
        trunk = [add_dense_block(system, EMBEDDING, 3, 1).id]
        trunk += [add_dense_block(system, HIDDEN, 1, 1).id for _ in range(3)]
        add_model(system, "root", trunk, 1, 2)
        check_task_index(system)
        models = []
        for _ in range(12):
            if models and rng.uniform() < 0.4:
                system.discard_model(models.pop(rng.randint(len(models))))
            else:
                random_commit(system, rng, tasks, models)
            check_task_index(system)
        path = tmp_path / f"seed{seed}"
        save_checkpoint(system, str(path))
        loaded = load_checkpoint(str(path))
        check_task_index(loaded)
        assert {t: list(m) for t, m in loaded.by_task.items()} == {
            t: list(m) for t, m in system.by_task.items()}
        for victim in [m for m in loaded.models.values() if m.task != "root"]:
            loaded.discard_model(victim)
            check_task_index(loaded)
        assert list(loaded.by_task) == ["root"]
