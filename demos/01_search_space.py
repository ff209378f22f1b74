"""Walk the hyperparameter search space: axes, defaults, neighbor stepping.

Every tunable knob is an ordered sequence of valid values loaded from a text
table. Mutations only ever step to an adjacent value, so repeated mutation can
never leave the space. The same stepping rule drives the per-action mutation
probabilities, which live on their own fixed grid.
"""

from evograft import Rng, load_builtin_space, mu_neighbors
from evograft.search_space import MU_GRID, MU_INIT

space = load_builtin_space("table1")

print("=== axes and defaults ===")
for name in space.axis_names():
    axis = space.axis(name)
    print(f"{name:18s} default={axis.default!r:8} values={list(axis.values)}")

print("\n=== neighbor stepping ===")
for name, value in (("learning_rate", 0.01), ("warmup_ratio", 0.0), ("resolution", 384)):
    print(f"neighbors of {name}={value}: {space.axis(name).neighbors(value)}")

rng = Rng(7, "demo")
value = space.axis("momentum").default
walk = [value]
for _ in range(8):
    value = space.step_value("momentum", value, rng)
    walk.append(value)
print(f"\nmomentum random walk from the default: {walk}")
print("every visited value is a member of the axis:",
      all(v in space.axis("momentum").values for v in walk))

print("\n=== mutation-probability grid ===")
print(f"grid: {MU_GRID}")
print(f"fresh entries start at {MU_INIT}; neighbors of 0.20: {mu_neighbors(0.20)}")
print(f"edges step inward only: 0.02 -> {mu_neighbors(0.02)}, 0.30 -> {mu_neighbors(0.30)}")
