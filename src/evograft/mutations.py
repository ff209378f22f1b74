"""Mutation actions, per-model mutation-probability tables, child materialization.

Three structural knobs exist: cloning any non-head layer into a private
trainable copy (parameters and optimizer state travel with it), removing the
topmost hidden block, and stepping one hyperparameter to a neighboring value.
A child always receives its own trainable head. The legal actions are that
new head plus what ``possible_mutations`` lists for the parent in the run's
mode; ``apply_mutations`` rejects any other. Each model carries a lookup table
mapping every action it could take to a probability on a fixed grid; the
table is inherited by children and drifts by the same neighbor-stepping rule
the hyperparameters use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rng import Rng
from .search_space import MU_INIT, RESOLUTION_AXIS, mu_neighbors, on_mu_grid
from .system import HEAD, MIN_HIDDEN_DEPTH, ModelSpec, SystemState, zero_params

MODE_MUNET = "munet"
MODE_MUNET_PLUS = "munet_plus"
MODES = (MODE_MUNET, MODE_MUNET_PLUS)

CLONE = "clone"
REMOVE = "remove"
HPARAM = "hparam"
HEAD_ACTION = "head"


class MutationError(ValueError):
    pass


@dataclass(frozen=True)
class MutationAction:
    kind: str
    arg: int | str | None = None

    def key(self) -> str:
        return self.kind if self.arg is None else f"{self.kind}:{self.arg}"

    @classmethod
    def parse(cls, key: str) -> "MutationAction":
        if ":" not in key:
            if key not in (REMOVE, HEAD_ACTION):
                raise MutationError(f"bad action key {key!r}")
            return cls(key)
        kind, arg = key.split(":", 1)
        if kind == CLONE:
            return cls(CLONE, int(arg))
        if kind == HPARAM:
            return cls(HPARAM, arg)
        raise MutationError(f"bad action key {key!r}")


MAKE_TRAINABLE_HEAD = MutationAction(HEAD_ACTION)
REMOVE_TOP_LAYER = MutationAction(REMOVE)


def clone_action(depth: int) -> MutationAction:
    return MutationAction(CLONE, depth)


def hparam_action(axis: str) -> MutationAction:
    return MutationAction(HPARAM, axis)


def possible_mutations(system: SystemState, model: ModelSpec,
                       mode: str = MODE_MUNET_PLUS) -> list[MutationAction]:
    """Enumerate the optional actions for spawning a child of ``model``.

    The unconditional new-head action is not listed. In the baseline mode the
    compute-affecting actions (top-layer removal, resolution change) are
    withheld.
    """
    if mode not in MODES:
        raise MutationError(f"unknown mode {mode!r}")
    actions = [clone_action(i) for i in range(len(model.layers) - 1)]
    if mode == MODE_MUNET_PLUS and model.hidden_count() > MIN_HIDDEN_DEPTH:
        actions.append(REMOVE_TOP_LAYER)
    for axis in system.space.axis_names():
        if axis == RESOLUTION_AXIS and mode != MODE_MUNET_PLUS:
            continue
        actions.append(hparam_action(axis))
    return actions


def fresh_mu_table(system: SystemState, model: ModelSpec,
                   mode: str = MODE_MUNET_PLUS) -> dict[MutationAction, float]:
    return {action: MU_INIT for action in possible_mutations(system, model, mode)}


def sample_mutations(system: SystemState, parent: ModelSpec, mode: str,
                     rng: Rng) -> set[MutationAction]:
    """Draw a mutation set: the head action always, others by their table entry."""
    chosen = {MAKE_TRAINABLE_HEAD}
    for action in possible_mutations(system, parent, mode):
        mu = parent.mu.get(action, MU_INIT)
        if mu > rng.uniform():
            chosen.add(action)
    return chosen


def inherit_mu(parent_mu: dict, child_actions: list[MutationAction],
               rng: Rng) -> dict[MutationAction, float]:
    """Copy the parent's entries for the child's actions, each stepping to a
    neighboring grid value with probability equal to its own current value.
    Actions the parent had no entry for start at the grid's initial value."""
    table = {}
    for action in child_actions:
        value = parent_mu.get(action, MU_INIT)
        if not on_mu_grid(value):
            raise MutationError(f"mu value {value!r} for {action.key()} is off-grid")
        if rng.uniform() < value:
            value = rng.choice(mu_neighbors(value))
        table[action] = value
    return table


def apply_mutations(system: SystemState, parent: ModelSpec,
                    actions: set[MutationAction], task: str, num_classes: int,
                    rng: Rng, mode: str = MODE_MUNET_PLUS) -> ModelSpec:
    """Materialize a child model from a parent and a sampled action set.

    Cloned layers become fresh trainable blocks copying the parent's
    parameters and optimizer state; everything else is shared frozen. Clone
    indices refer to the parent's ordering; top-layer removal applies after
    they are resolved. The child is registered in the block store but not
    committed as a model.
    """
    illegal = actions - {MAKE_TRAINABLE_HEAD} - set(possible_mutations(system, parent, mode))
    if illegal:
        keys = ", ".join(sorted(a.key() for a in illegal))
        raise MutationError(f"actions not legal for model {parent.id} in {mode} mode: {keys}")

    non_head = len(parent.layers) - 1
    keep = list(range(non_head))
    if REMOVE_TOP_LAYER in actions:
        keep = keep[:-1]
    clone_positions = {a.arg for a in actions if a.kind == CLONE}

    layers: list[tuple[int, bool]] = []
    for pos in keep:
        lid, _ = parent.layers[pos]
        if pos in clone_positions:
            src = system.block(lid)
            params, opt = src.clone_arrays()
            block = system.add_block(src.kind, src.d_in, src.d_out, params, opt, task)
            layers.append((block.id, True))
        else:
            layers.append((lid, False))

    parent_head = system.block(parent.head_id())
    width = parent_head.d_in
    if parent.task == task:
        if parent_head.d_out != num_classes:
            raise MutationError(
                f"parent head has {parent_head.d_out} classes, task needs {num_classes}")
        params, opt = parent_head.clone_arrays()
    else:
        params = zero_params(width, num_classes)
        opt = zero_params(width, num_classes)
    head = system.add_block(HEAD, width, num_classes, params, opt, task)
    layers.append((head.id, True))

    hparams = dict(parent.hparams)
    for axis in system.space.axis_names():
        if hparam_action(axis) in actions:
            hparams[axis] = system.space.step_value(axis, hparams[axis], rng)

    child = ModelSpec(id=system.new_model_id(), task=task, layers=layers,
                      hparams=hparams, mu={}, parent_id=parent.id)
    child.mu = inherit_mu(parent.mu, possible_mutations(system, child, mode), rng)
    return child

