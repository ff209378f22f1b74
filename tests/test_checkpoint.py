import os
import shutil

import pytest

from evograft import checkpoint
from evograft.checkpoint import (CheckpointError, checkpoint_digest, load_checkpoint,
                                 save_checkpoint, system_digest)
from evograft.evolution import bootstrap_system, run_task_iteration
from evograft.mutations import apply_mutations
from evograft.rng import Rng
from evograft.search_space import load_builtin_space

from conftest import finetune_top_actions, make_dataset
from test_data import tree_sha
from test_evolution import quick_config


def evolved_system(seed=21, iterations=1):
    from evograft.evolution import metrics_snapshot
    system = bootstrap_system(load_builtin_space("desk"), seed=seed, width=8,
                              depth=3, patch=8, channels=3)
    system.task_paths = {"t": "datasets/t"}
    ds = make_dataset("t", seed=60)
    for _ in range(iterations):
        run_task_iteration(system, "t", ds, quick_config(), system.rng)
        system.history.append(metrics_snapshot(system, {"t": ds}, ["t"], "seg", "t"))
    return system


def test_save_load_save_is_byte_identical(tmp_path):
    system = evolved_system()
    system.run_position = ("seg", 1)
    first = tmp_path / "one"
    second = tmp_path / "two"
    save_checkpoint(system, str(first))
    reloaded = load_checkpoint(str(first))
    save_checkpoint(reloaded, str(second))
    assert tree_sha(first) == tree_sha(second)
    assert checkpoint_digest(str(first)) == checkpoint_digest(str(second))


def test_load_reproduces_every_field(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    other = load_checkpoint(str(tmp_path))
    assert system_digest(other) == system_digest(system)
    assert other.rng.state() == system.rng.state()
    assert other.task_paths == system.task_paths
    assert other.selection_counts == system.selection_counts
    assert other.ever_trainable == system.ever_trainable
    assert other.iterations_done == system.iterations_done
    assert len(other.history) == len(system.history)
    assert other.history[0].per_task == system.history[0].per_task
    for mid, model in system.models.items():
        twin = other.models[mid]
        assert twin.layers == model.layers
        assert twin.hparams == model.hparams
        assert twin.mu == model.mu
        assert twin.quality == model.quality


def test_rng_resumes_mid_stream(tmp_path):
    system = evolved_system()
    continuation = Rng(*system.rng.state())
    upcoming = [continuation.uniform() for _ in range(3)]
    save_checkpoint(system, str(tmp_path))
    other = load_checkpoint(str(tmp_path))
    assert [other.rng.uniform() for _ in range(3)] == upcoming


def test_truncated_block_file_names_the_block(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    victim = sorted(system.blocks)[0]
    path = tmp_path / "blocks" / f"{victim}.bin"
    blob = path.read_bytes()
    for corrupt in (blob[:10], blob + b"\0\0\0\0"):
        path.write_bytes(corrupt)
        with pytest.raises(CheckpointError, match=f"block {victim}\\b"):
            load_checkpoint(str(tmp_path))
    path.write_bytes(blob)
    manifest = tmp_path / "manifest"
    b = system.blocks[victim]
    line = f"block {victim} {b.kind} {b.d_in} {b.d_out} "
    assert manifest.read_text().count(line) == 1
    manifest.write_text(manifest.read_text().replace(
        line, f"block {victim} {b.kind} {b.d_in} {b.d_out + 1} "))
    with pytest.raises(CheckpointError, match=f"block {victim}\\b"):
        load_checkpoint(str(tmp_path))


def test_missing_block_file_names_the_block(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    victim = sorted(system.blocks)[-1]
    os.remove(tmp_path / "blocks" / f"{victim}.bin")
    with pytest.raises(CheckpointError, match=str(victim)):
        load_checkpoint(str(tmp_path))


def test_version_mismatch_rejected(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    manifest = tmp_path / "manifest"
    text = manifest.read_text().replace("evograft-checkpoint 1", "evograft-checkpoint 999")
    manifest.write_text(text)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(str(tmp_path))


def test_corrupt_manifest_line_rejected(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    manifest = tmp_path / "manifest"
    manifest.write_text(manifest.read_text() + "blurb nonsense\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(tmp_path))
    with pytest.raises(CheckpointError):
        load_checkpoint(str(tmp_path / "missing"))


def test_creation_index_that_differs_from_the_id_is_rejected(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    manifest = tmp_path / "manifest"
    text = manifest.read_text()
    model_line = next(line for line in text.splitlines() if line.startswith("model "))
    parts = model_line.split()  # model <id> <task> <parent> <created> ...
    assert parts[4] == parts[1]
    wrong_model = " ".join(parts[:4] + [str(int(parts[1]) + 1)] + parts[5:])
    n = system.next_model_id
    for old, new, reason in (
            (model_line, wrong_model, "creation index"),
            (f"models={n} created={n} ", f"models={n} created={n + 1} ", "created=")):
        assert text.count(old) == 1
        manifest.write_text(text.replace(old, new))
        with pytest.raises(CheckpointError, match=reason):
            load_checkpoint(str(tmp_path))


def test_manifest_ids_must_ascend_and_stay_below_their_counters(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    manifest = tmp_path / "manifest"
    text = manifest.read_text()
    nb, nm = system.next_block_id, system.next_model_id
    top_block, top_model = max(system.blocks), max(system.models)
    counters = f"blocks={nb} models={nm} created={nm} "
    lines = text.splitlines()
    b = next(i for i, line in enumerate(lines) if line.startswith("block "))
    m = next(i for i, line in enumerate(lines) if line.startswith("model "))
    two_blocks, two_models = lines[b:b + 2], lines[m:m + 8]  # model, layers, hparams, mu
    for old, new, reason in (
            (counters, f"blocks={top_block} models={nm} created={nm} ", "blocks="),
            (counters, f"blocks={nb} models={top_model} created={top_model} ", "models="),
            ("\n".join(two_blocks), "\n".join(two_blocks[::-1]), "out of id order"),
            ("\n".join(two_models), "\n".join(two_models[4:] + two_models[:4]),
             "not above"),
            ("\n".join(two_models), "\n".join(two_models[:4] + two_models),
             "listed twice")):
        assert text.count(old) == 1
        manifest.write_text(text.replace(old, new))
        with pytest.raises(CheckpointError, match=reason):
            load_checkpoint(str(tmp_path))


def test_size_factor_that_is_switched_off_is_rejected(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    manifest = tmp_path / "manifest"
    text = manifest.read_text()
    assert text.count(" size=1 ") == 1
    manifest.write_text(text.replace(" size=1 ", " size=0 "))
    with pytest.raises(CheckpointError, match="size="):
        load_checkpoint(str(tmp_path))


def test_manifest_values_outside_their_domain_are_rejected(tmp_path):
    system = evolved_system()
    system.run_position = ("seg", 1)
    save_checkpoint(system, str(tmp_path))
    manifest = tmp_path / "manifest"
    text = manifest.read_text()
    for old, new, reason in (
            ("evograft-checkpoint 1\n", "evograft-checkpoint one\n",
             "header 'evograft-checkpoint one'"),
            (" compute=1\n", " compute=2\n", "compute="),
            ("position seg 1\n", "position seg -2\n", "negative")):
        assert text.count(old) == 1
        manifest.write_text(text.replace(old, new))
        with pytest.raises(CheckpointError, match=reason):
            load_checkpoint(str(tmp_path))


def test_load_rejects_a_model_that_does_not_validate(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    manifest = tmp_path / "manifest"
    text = manifest.read_text()
    root, child = sorted(system.models.values(), key=lambda m: m.id)[:2]
    assert root.task != child.task

    def layers_line(model, layers):
        return f"layers {model.id} " + ",".join(f"{lid}:{int(tr)}" for lid, tr in layers)

    stolen_head = child.layers[:-1] + [(root.head_id(), True)]
    unlisted_block = [(9999, False)] + child.layers[1:]
    for model, layers in ((root, root.layers[::-1]), (child, stolen_head),
                          (child, unlisted_block)):
        old = layers_line(model, model.layers)
        assert text.count(old + "\n") == 1
        manifest.write_text(text.replace(old + "\n", layers_line(model, layers) + "\n"))
        with pytest.raises(CheckpointError, match=f"model {model.id} "):
            load_checkpoint(str(tmp_path))


def test_interrupted_and_resumed_run_matches_straight_run(tmp_path):
    from evograft.evolution import metrics_snapshot
    straight = evolved_system(iterations=2)

    broken = evolved_system(iterations=1)
    save_checkpoint(broken, str(tmp_path))
    resumed = load_checkpoint(str(tmp_path))
    ds = make_dataset("t", seed=60)
    run_task_iteration(resumed, "t", ds, quick_config(), resumed.rng)
    resumed.history.append(metrics_snapshot(resumed, {"t": ds}, ["t"], "seg", "t"))

    assert system_digest(resumed) == system_digest(straight)


def test_identical_seeds_give_identical_digests():
    assert system_digest(evolved_system(seed=5)) == system_digest(evolved_system(seed=5))
    assert system_digest(evolved_system(seed=5)) != system_digest(evolved_system(seed=6))


def test_stale_block_payloads_are_removed(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    junk = tmp_path / "blocks" / "9999.bin"
    junk.write_bytes(b"junk")
    save_checkpoint(system, str(tmp_path))
    assert not junk.exists()


class Killed(Exception):
    pass


def save_killed_at(system, path, monkeypatch, step):
    """Save, but stop in place of the ``step``-th block write, manifest
    rename or file removal; return whether the save was stopped."""
    calls = 0

    def tripwire(fn):
        def wrapper(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == step:
                raise Killed
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as m:
        m.setattr(checkpoint, "_write_block_file", tripwire(checkpoint._write_block_file))
        m.setattr(checkpoint.os, "replace", tripwire(os.replace))
        m.setattr(checkpoint.os, "remove", tripwire(os.remove))
        try:
            save_checkpoint(system, path)
        except Killed:
            return True
    return False


def test_save_stopped_at_any_step_still_loads(tmp_path, monkeypatch):
    system = evolved_system()
    parent = system.models_for("t")[0]
    child = apply_mutations(system, parent, finetune_top_actions(parent, 1), "t",
                            make_dataset("t", seed=60).num_classes, system.rng)
    system.commit_model(child)
    old_digest, old_blocks = system_digest(system), set(system.blocks)
    template = str(tmp_path / "old")
    save_checkpoint(system, template)
    system.discard_model(child)
    new_digest = system_digest(system)
    assert old_blocks - set(system.blocks), "the discard must leave stale block files"

    step = 1
    while True:
        path = str(tmp_path / f"step{step}")
        shutil.copytree(template, path)
        stopped = save_killed_at(system, path, monkeypatch, step)
        loaded = system_digest(load_checkpoint(path))
        if not stopped:
            assert loaded == new_digest
            break
        assert loaded in (old_digest, new_digest), f"save stopped at step {step}"
        step += 1
    assert step > len(system.blocks) + 1
