"""One task iteration from scratch: spawn, train, retain, keep-best.

A fresh system holds only the untrained root model. The first iteration for a
task samples parents (the root, at first), mutates children, trains each for a
few capped cycles, and finally keeps exactly one model for the task. The
iteration's task is its dataset's name, and its draws come from ``system.rng``.
"""

import tempfile

from evograft import EvolutionConfig, TrainBudget, bootstrap_system, load_builtin_space
from evograft.data import GenSpec, TaskGenSpec, generate_synthetic_tasks, load_task_dir
from evograft.evolution import run_task_iteration
from evograft.trainer import evaluate

with tempfile.TemporaryDirectory() as tmp:
    spec = GenSpec(tasks=[TaskGenSpec("digits", classes=4, train=160, val=64,
                                      test=64, noise=0.03)])
    generate_synthetic_tasks(spec, seed=5, out_dir=tmp)
    dataset = load_task_dir(f"{tmp}/digits")

    system = bootstrap_system(load_builtin_space("desk"), seed=11, width=16,
                              depth=4, patch=8, channels=3)
    print(f"fresh system: {len(system.models)} model (the root), "
          f"{len(system.blocks)} blocks")

    cfg = EvolutionConfig(generations=2, children_per_generation=3, train_cycles=3,
                          budget=TrainBudget(batch_size=16))
    run_task_iteration(system, dataset, cfg)

    winner = system.models_for("digits")[0]
    test_acc = evaluate(system, winner, *dataset.split("test"))
    print(f"\nafter one task iteration: {len(system.models)} models "
          f"(root + one per visited task)")
    print(f"winner: model {winner.id}, parent {winner.parent_id}, "
          f"depth {winner.hidden_count()}, quality {winner.quality:.3f}")
    print(f"test accuracy {test_acc:.3f}")
    print(f"accounted params {system.accounted_params(winner):.1f}, "
          f"inference flops {system.inference_flops(winner)}")
    trainable = [lid for lid, t in winner.layers if t]
    shared = [lid for lid, t in winner.layers if not t]
    print(f"trainable blocks {trainable}, frozen shared blocks {shared}")
    print("\nthe frozen blocks still carry the root's exact bytes; only the")
    print("winner's private clones and head were ever written during training")
