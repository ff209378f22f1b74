"""Cost accounting on a hand-built system: sharing discounts and the score.

A block's parameter count is divided by one plus the number of other-task
models referencing it, so every new task that reuses a frozen block makes that
block cheaper for everyone. The score multiplies validation quality by
exponential penalties on accounted parameters and inference flops.
"""

import numpy as np

from evograft import Rng, ScoreParams, score
from evograft.scoring import calibrate
from evograft.search_space import load_builtin_space
from evograft.system import EMBEDDING, HEAD, HIDDEN, ModelSpec, SystemState

space = load_builtin_space("desk")
system = SystemState(space, ScoreParams(), Rng(1, "demo"))


def block(kind, d_in, d_out):
    n = d_in * d_out + d_out
    return system.add_block(kind, d_in, d_out,
                            np.zeros(n, dtype=np.float32),
                            np.zeros(n, dtype=np.float32), "root")


def model(task, trunk):
    head = block(HEAD, 8, 4)
    spec = ModelSpec(id=system.new_model_id(), task=task,
                     layers=[(b.id, False) for b in trunk] + [(head.id, True)],
                     hparams=space.default_config(), mu={})
    system.commit_model(spec)
    return spec

trunk = [block(EMBEDDING, 192, 8), block(HIDDEN, 8, 8), block(HIDDEN, 8, 8)]
first = model("task_a", trunk)
print(f"one model alone: accounted params = {system.accounted_params(first):.1f} "
      f"(every block fully charged)")

for task in ("task_b", "task_c", "task_d"):
    model(task, trunk)
    print(f"after {task} joins the trunk: task_a accounted = "
          f"{system.accounted_params(first):.1f}")

print(f"\ninference flops for task_a: {system.inference_flops(first)} "
      "(independent of sharing)")

print("\n=== score sensitivity to the scale factor ===")
sp = calibrate(system, 10.0)
accounted = system.accounted_params(first)
flops = system.inference_flops(first)
for s in (1.0, 0.99, 0.9, 0.5):
    sp_s = ScoreParams(s=s, P=sp.P, F=sp.F)
    print(f"s={s:<5} quality 0.95 scores {score(0.95, accounted, flops, sp_s):.6f}")
print("at s=1 the penalties vanish; below 1 they bite harder as costs grow")
