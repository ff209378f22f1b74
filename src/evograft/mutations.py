"""Mutation actions, per-model mutation-probability tables, child materialization.

Three structural knobs exist: cloning any non-head layer into a private
trainable copy (parameters and optimizer state travel with it), removing the
topmost hidden block, and stepping one hyperparameter to a neighboring value.
An action is the string key that the model's mu table and its manifest line
store; ``clone_action``, ``hparam_action`` and ``REMOVE_TOP_LAYER`` in
``system`` spell the format out. A child always receives its own trainable
head, and no action stands for it. The legal actions are those
``possible_mutations`` lists for the parent, which follows the system's
``compute=`` flag; no function takes a mode, and ``apply_mutations`` rejects
any other action. Each model maps every action it could take to a probability
on a fixed grid; children inherit the table, and it drifts by the
hyperparameters' neighbor-stepping rule.
"""

from __future__ import annotations

from .rng import Rng
from .search_space import MU_INIT, RESOLUTION_AXIS, mu_neighbors
from .system import (HEAD, MIN_HIDDEN_DEPTH, REMOVE_TOP_LAYER, ModelSpec, SystemState,
                     clone_action, hparam_action, zero_params)


class MutationError(ValueError):
    pass


def possible_mutations(system: SystemState, model: ModelSpec) -> list[str]:
    """Enumerate the actions for spawning a child of ``model``.

    A step on an axis with one value is not listed. Top-layer removal and
    resolution steps change compute and are listed only while
    ``system.score_params.compute_factor_enabled`` is on.
    """
    compute = system.score_params.compute_factor_enabled
    actions = [clone_action(i) for i in range(len(model.layers) - 1)]
    if compute and model.hidden_count() > MIN_HIDDEN_DEPTH:
        actions.append(REMOVE_TOP_LAYER)
    for name, axis in system.space.axes.items():
        if len(axis.values) > 1 and (compute or name != RESOLUTION_AXIS):
            actions.append(hparam_action(name))
    return actions


def sample_mutations(system: SystemState, parent: ModelSpec, rng: Rng) -> set[str]:
    """Draw a mutation set: each legal action by its table entry."""
    chosen = set()
    actions = possible_mutations(system, parent)
    for action, draw in zip(actions, rng.uniforms(len(actions)).tolist()):
        if parent.mu.get(action, MU_INIT) > draw:
            chosen.add(action)
    return chosen


def inherit_mu(parent_mu: dict, child_actions: list[str], rng: Rng) -> dict[str, float]:
    """Copy the parent's entries for the child's actions, each stepping to a
    neighboring grid value with probability equal to its own current value.
    Actions the parent had no entry for start at the grid's initial value."""
    table = {}
    for action in child_actions:
        value = parent_mu.get(action, MU_INIT)
        if rng.uniform() < value:
            value = rng.choice(mu_neighbors(value))
        table[action] = value
    return table


def apply_mutations(system: SystemState, parent: ModelSpec, actions: set[str], task: str,
                    num_classes: int, rng: Rng) -> ModelSpec:
    """Materialize a child model from a parent and a sampled action set.

    Cloned layers become fresh trainable blocks copying the parent's
    parameters and optimizer state; everything else is shared frozen. Clone
    indices refer to the parent's ordering; top-layer removal applies after
    they are resolved. The child is registered in the block store but not
    committed as a model. Every check runs before the first block is added,
    so a rejected call leaves the system as it was.
    """
    illegal = actions - set(possible_mutations(system, parent))
    if illegal:
        keys = ", ".join(sorted(illegal))
        raise MutationError(f"actions not legal for model {parent.id}: {keys}")

    non_head = len(parent.layers) - 1
    keep = list(range(non_head))
    if REMOVE_TOP_LAYER in actions:
        keep = keep[:-1]
    parent_head = system.block(parent.head_id())
    if parent.task == task and parent_head.d_out != num_classes:
        raise MutationError(
            f"parent head has {parent_head.d_out} classes, task needs {num_classes}")

    layers: list[tuple[int, bool]] = []
    for pos in keep:
        lid, _ = parent.layers[pos]
        if clone_action(pos) in actions:
            src = system.block(lid)
            params, opt = src.clone_arrays()
            block = system.add_block(src.kind, src.d_in, src.d_out, params, opt, task)
            layers.append((block.id, True))
        else:
            layers.append((lid, False))

    width = parent_head.d_in
    if parent.task == task:
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
    child.mu = inherit_mu(parent.mu, possible_mutations(system, child), rng)
    return child

