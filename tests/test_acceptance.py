"""Acceptance suite: every gating criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in captured
output). The numbered criteria:

  1  accounted-parameter oracle equivalence + conservation
  2  score function anchors and monotonicity
  3  gradient correctness vs central finite differences (64-bit shadow)
  4  forgetting immunity across task iterations
  5  task-iteration structure (one model per visited task, no dangling refs,
     retention edge cases, exact acceptance-probability law)
  6  mutation-probability mechanics (grid closure, initialization, frequency)
  7  directional reproduction: mode switch shrinks accounted params at no
     quality cost
  8  Pareto direction: cost means non-increasing as the scale factor drops
  9  determinism and persistence (digests, resume, round-trip)
"""

import functools
import time

import numpy as np
import pytest

from evograft.checkpoint import (block_digest, load_checkpoint, save_checkpoint,
                                 system_digest)
from evograft.data import GenSpec, TaskGenSpec, generate_synthetic_tasks, load_task_dir
from evograft.evolution import (EvolutionConfig, SegmentSpec, _train_child,
                                bootstrap_system, metrics_snapshot,
                                parent_acceptance_probability, run_segment,
                                run_task_iteration)
from evograft.mutations import apply_mutations, clone_action, inherit_mu, sample_mutations
from evograft.rng import Rng
from evograft.scoring import ScoreParams, score
from evograft.search_space import MU_GRID, MU_INIT, load_builtin_space, on_mu_grid
from evograft.trainer import TrainBudget, evaluate, loss_and_gradients

from conftest import add_model, empty_system, loss, simple_trunk
from test_system import accounted_oracle, build_random_system


RESULTS: list[str] = []  # echoed by the terminal-summary hook in conftest


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                line = f"ACCEPTANCE {number}: FAIL - {title}"
                RESULTS.append(line)
                print(line)
                raise
            line = f"ACCEPTANCE {number}: PASS - {title}"
            RESULTS.append(line)
            print(line)
        return wrapper
    return decorate


# -- shared fixtures -----------------------------------------------------------

RELATED_PAIRS = GenSpec(
    tasks=[TaskGenSpec(f"t{i}", classes=4, h=16, w=16, c=3, train=160, val=64,
                       test=64, noise=0.03) for i in range(4)],
    relations=[("t0", "t1", 0.5), ("t2", "t3", 0.5)])
PAIR_TASKS = ["t0", "t1", "t2", "t3"]


@pytest.fixture(scope="module")
def pair_datasets(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("pairs"))
    generate_synthetic_tasks(RELATED_PAIRS, seed=101, out_dir=root)
    return {name: load_task_dir(f"{root}/{name}") for name in PAIR_TASKS}


def desk_config(**kw):
    base = dict(generations=2, children_per_generation=3, train_cycles=3,
                budget=TrainBudget(batch_size=16))
    base.update(kw)
    return EvolutionConfig(**base)


def mean_val_accuracy(system, datasets, tasks):
    return sum(evaluate(system, system.models_for(t)[0], *datasets[t].split("val"))
               for t in tasks) / len(tasks)


# -- criterion 1 ----------------------------------------------------------------

@criterion(1, "accounted params match the per-parameter oracle; conservation holds")
def test_accounted_params_oracle_equivalence():
    start = time.perf_counter()
    for seed in range(100):
        system = build_random_system(seed, finalized=False)
        for model in system.models.values():
            assert system.accounted_params(model) == accounted_oracle(system, model)
    for seed in range(100, 200):
        system = build_random_system(seed, finalized=True)
        total = sum(system.accounted_params(m) for m in system.models.values())
        distinct = float(sum(b.n_params for b in system.blocks.values()))
        assert abs(total - distinct) <= 1e-12 * distinct
    assert time.perf_counter() - start < 5.0


# -- criterion 2 ----------------------------------------------------------------

@criterion(2, "score: s=1 identity, 1% anchor to 1e-12, strict monotonicity")
def test_score_function_checks():
    rng = Rng(20, "score")
    sp1 = ScoreParams(s=1.0, P=3.0, F=7.0)
    for _ in range(200):
        q = rng.uniform()
        assert score(q, rng.uniform() * 1e8, rng.uniform() * 1e11, sp1) == q

    anchor = ScoreParams(s=0.99, P=1234.5, F=6789.0)
    assert abs(score(0.9, 1234.5, 6789.0, anchor) - 0.882090) <= 1e-12

    sp = ScoreParams(s=0.97, P=50.0, F=75.0)
    for _ in range(200):
        a, f = rng.uniform() * 400, rng.uniform() * 400
        base = score(0.8, a, f, sp)
        assert score(0.8, a + rng.uniform() + 1e-9, f, sp) < base
        assert score(0.8, a, f + rng.uniform() + 1e-9, sp) < base


# -- criterion 3 ----------------------------------------------------------------

@criterion(3, "analytic gradients match central differences on every layer kind")
def test_gradient_correctness():
    start = time.perf_counter()
    for trial in range(10):
        rng = Rng(900 + trial, "fd")
        width = 3 + rng.randint(4)
        depth = 1 + rng.randint(3)
        classes = 2 + rng.randint(4)
        system = empty_system(seed=trial)
        trunk = simple_trunk(system, width=width, depth=depth, patch=4)
        model = add_model(system, "t", trunk, width, classes)
        model.layers = [(lid, True) for lid, _ in model.layers]
        res = model.hparams["resolution"]
        batch = (rng.uniforms(4 * res * res * 3).reshape(4, res, res, 3)
                 .astype(np.float64) * 2.0 - 1.0)
        labels = np.array([rng.randint(classes) for _ in range(4)])
        kinds = set()
        for lid in model.layer_ids():
            block = system.block(lid)
            kinds.add(block.kind)
            block.params = (rng.uniforms(block.n_params) - 0.5) * 0.6  # 64-bit shadow
        _, grads = loss_and_gradients(system, model, batch, labels, dtype=np.float64)
        assert kinds == {"embedding", "hidden", "head"}
        for lid in model.layer_ids():
            block = system.block(lid)
            analytic = grads[lid]
            for _ in range(3):
                i = rng.randint(block.n_params)
                orig = float(block.params[i])
                eps = 1e-4 * max(1.0, abs(orig))
                block.params[i] = orig + eps
                up = loss(system, model, batch, labels, dtype=np.float64)
                block.params[i] = orig - eps
                down = loss(system, model, batch, labels, dtype=np.float64)
                block.params[i] = orig
                fd = (up - down) / (2.0 * eps)
                denom = max(abs(analytic[i]), abs(fd), 1e-6)
                assert abs(analytic[i] - fd) / denom < 1e-4
    assert time.perf_counter() - start < 10.0


# -- criterion 4 ----------------------------------------------------------------

@criterion(4, "blocks never marked trainable in a committed model are bit-identical")
def test_forgetting_immunity(tmp_path_factory):
    root_dir = str(tmp_path_factory.mktemp("immunity"))
    spec = GenSpec(tasks=[TaskGenSpec(f"f{i}", classes=3, h=16, w=16, c=3, train=96,
                                      val=48, test=48, noise=0.04) for i in range(3)])
    generate_synthetic_tasks(spec, seed=55, out_dir=root_dir)
    datasets = {f"f{i}": load_task_dir(f"{root_dir}/f{i}") for i in range(3)}

    system = bootstrap_system(load_builtin_space("desk"), seed=66, width=8,
                              depth=3, patch=8, channels=3)
    before = {bid: block_digest(b) for bid, b in system.blocks.items()}

    segment = SegmentSpec(label="im", tasks=list(datasets), iterations=2, s=0.99,
                          recalibrate=10.0)
    run_segment(system, segment, datasets, desk_config(generations=1,
                                                       children_per_generation=2,
                                                       train_cycles=2))
    checked = 0
    for bid, digest in before.items():
        if bid in system.blocks and bid not in system.ever_trainable:
            assert block_digest(system.blocks[bid]) == digest
            checked += 1
    assert checked >= 4  # the root trunk persisted frozen


# -- criterion 5 ----------------------------------------------------------------

@criterion(5, "task-iteration structure, retention edges, exact 0.5^k acceptance")
def test_algorithm_structure(pair_datasets):
    for k in range(11):
        assert parent_acceptance_probability(k) == 0.5 ** k

    system = bootstrap_system(load_builtin_space("desk"), seed=77, width=8,
                              depth=3, patch=8, channels=3)
    cfg = desk_config(generations=1, children_per_generation=2, train_cycles=2)
    visited = []
    for round_ in range(2):
        for task in ("t0", "t1"):
            run_task_iteration(system, task, pair_datasets[task], cfg, system.rng)
            visited.append(task)
            for seen in set(visited):
                assert len(system.models_for(seen)) == 1
            referenced = set()
            for model in system.models.values():
                for lid in model.layer_ids():
                    assert lid in system.blocks
                    referenced.add(lid)
            assert referenced == set(system.blocks)

    # retention >=: a child that exactly ties its same-task parent is kept
    parent = system.models_for("t0")[0]
    rng = system.rng
    child = apply_mutations(system, parent, set(), "t0", 4, rng)
    system.commit_model(child)
    parent.quality = 0.0  # any finite child quality ties or beats this
    kept = _train_child(system, child, parent, "t0", pair_datasets["t0"], cfg, rng)
    assert kept is not None
    system.discard_model(child)

    # -inf threshold: a cross-task parent imposes no bar
    root = next(m for m in system.models.values() if m.task == "root")
    child = apply_mutations(system, root, set(), "t1", 4, rng)
    system.commit_model(child)
    kept = _train_child(system, child, root, "t1", pair_datasets["t1"], cfg, rng)
    assert kept is not None
    system.discard_model(child)


# -- criterion 6 ----------------------------------------------------------------

@criterion(6, "mutation probabilities: grid closure, 0.2 init, inclusion frequency")
def test_mu_mechanics():
    rng = Rng(60, "mu")
    action = clone_action(0)
    table = {action: MU_INIT}
    for _ in range(1000):
        table = inherit_mu(table, [action], rng)
        assert on_mu_grid(table[action])
        assert round(table[action], 2) in MU_GRID

    fresh = inherit_mu({}, [clone_action(5)], Rng(61, "fresh"))
    assert fresh[clone_action(5)] in (0.18, MU_INIT, 0.22)
    zero_step = [inherit_mu({}, [clone_action(5)], Rng(s, "f2"))[clone_action(5)]
                 for s in range(200)]
    assert MU_INIT in zero_step  # initialization at 0.2 is observable

    system = bootstrap_system(load_builtin_space("desk"), seed=88, width=8,
                              depth=3, patch=8, channels=3)
    root = next(iter(system.models.values()))
    assert all(v == MU_INIT for v in root.mu.values())
    probe = clone_action(1)
    n, hits = 10_000, 0
    sample_rng = Rng(62, "incl")
    for _ in range(n):
        hits += probe in sample_mutations(system, root, sample_rng)
    assert abs(hits / n - 0.2) < 0.01


# -- criterion 7 ----------------------------------------------------------------

@criterion(7, "mode switch strictly shrinks mean accounted params at <1pt quality cost")
def test_directional_size_reduction(pair_datasets):
    start = time.perf_counter()
    system = bootstrap_system(load_builtin_space("desk"), seed=202, width=16,
                              depth=4, patch=8, channels=3)
    cfg = desk_config()

    base = SegmentSpec(label="base", tasks=PAIR_TASKS, iterations=2, mode="munet",
                       s=0.99, recalibrate=10.0)
    snaps = run_segment(system, base, pair_datasets, cfg)
    mid_params = snaps[-1].mean_accounted_params
    mid_acc = mean_val_accuracy(system, pair_datasets, PAIR_TASKS)

    extend = SegmentSpec(label="plus", tasks=PAIR_TASKS, iterations=2,
                         mode="munet_plus", recalibrate=10.0)
    snaps = run_segment(system, extend, pair_datasets, cfg)
    end_params = snaps[-1].mean_accounted_params
    end_acc = mean_val_accuracy(system, pair_datasets, PAIR_TASKS)

    assert end_params < mid_params
    assert mid_acc - end_acc < 0.01
    assert time.perf_counter() - start < 600.0


# -- criterion 8 ----------------------------------------------------------------

@criterion(8, "cost means non-increasing as the scale factor decreases")
def test_pareto_direction(pair_datasets):
    start = time.perf_counter()
    finals = {}
    for s in (1.0, 0.9, 0.3):
        system = bootstrap_system(load_builtin_space("desk"), seed=303, width=16,
                                  depth=4, patch=8, channels=3)
        segment = SegmentSpec(label="sweep", tasks=PAIR_TASKS, iterations=2,
                              mode="munet_plus", s=s, recalibrate=10.0)
        snaps = run_segment(system, segment, pair_datasets, desk_config())
        finals[s] = (snaps[-1].mean_accounted_params, snaps[-1].mean_inference_flops)
    assert finals[1.0][0] >= finals[0.9][0] >= finals[0.3][0]
    assert finals[1.0][1] >= finals[0.9][1] >= finals[0.3][1]
    assert time.perf_counter() - start < 1200.0


# -- criterion 9 ----------------------------------------------------------------

@criterion(9, "determinism: equal digests, resume equivalence, byte-exact round trip")
def test_determinism_and_persistence(pair_datasets, tmp_path):
    def evolved(iterations):
        system = bootstrap_system(load_builtin_space("desk"), seed=99, width=8,
                                  depth=3, patch=8, channels=3)
        cfg = desk_config(generations=1, children_per_generation=2, train_cycles=2)
        for _ in range(iterations):
            run_task_iteration(system, "t0", pair_datasets["t0"], cfg, system.rng)
            system.history.append(
                metrics_snapshot(system, pair_datasets, ["t0"], "det", "t0"))
        return system

    a, b = evolved(2), evolved(2)
    pa, pb = tmp_path / "a", tmp_path / "b"
    save_checkpoint(a, str(pa))
    save_checkpoint(b, str(pb))
    assert system_digest(load_checkpoint(str(pa))) == system_digest(load_checkpoint(str(pb)))

    half = evolved(1)
    ph = tmp_path / "half"
    save_checkpoint(half, str(ph))
    resumed = load_checkpoint(str(ph))
    cfg = desk_config(generations=1, children_per_generation=2, train_cycles=2)
    run_task_iteration(resumed, "t0", pair_datasets["t0"], cfg, resumed.rng)
    resumed.history.append(
        metrics_snapshot(resumed, pair_datasets, ["t0"], "det", "t0"))
    assert system_digest(resumed) == system_digest(a)

    pr = tmp_path / "resumed"
    save_checkpoint(resumed, str(pr))
    assert system_digest(load_checkpoint(str(pr))) == system_digest(load_checkpoint(str(pa)))

    # byte-exact round trip of the resumed checkpoint
    again = tmp_path / "again"
    save_checkpoint(load_checkpoint(str(pr)), str(again))
    from test_data import tree_sha
    assert tree_sha(pr) == tree_sha(again)
