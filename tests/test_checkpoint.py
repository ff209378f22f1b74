import ast
import os
import pathlib
import random
import re
import shutil
import struct
from types import SimpleNamespace

import pytest

from evograft import checkpoint
from evograft.checkpoint import CheckpointError, load_checkpoint, save_checkpoint, system_digest
from evograft.evolution import MetricsSnapshot, bootstrap_system, run_task_iteration
from evograft.mutations import apply_mutations
from evograft.rng import Rng
from evograft.search_space import format_axis_line, load_builtin_space

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
        run_task_iteration(system, ds, quick_config())
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
    assert (system_digest(load_checkpoint(str(first)))
            == system_digest(load_checkpoint(str(second))))


def test_load_reproduces_every_field(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    other = load_checkpoint(str(tmp_path))
    assert system_digest(other) == system_digest(system)
    assert other.rng.state() == system.rng.state()
    assert other.task_paths == system.task_paths
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
        assert twin.selections == model.selections


def test_rng_resumes_mid_stream(tmp_path):
    system = evolved_system()
    continuation = Rng(*system.rng.state())
    upcoming = [continuation.uniform() for _ in range(3)]
    save_checkpoint(system, str(tmp_path))
    other = load_checkpoint(str(tmp_path))
    assert [other.rng.uniform() for _ in range(3)] == upcoming


def placement(path):
    """The pack a checkpoint's manifest names, and the length it gives."""
    key, name, length = (path / "manifest").read_text().splitlines()[-1].split()
    assert key == "pack"
    return path / "blocks" / name, int(length)


def record(block):
    """A block's record in the pack: u64 id, parameter count and optimizer
    count, then both float32 payloads."""
    return (struct.pack("<QQQ", block.id, block.params.size, block.opt.size)
            + block.params.astype("<f4").tobytes() + block.opt.astype("<f4").tobytes())


def test_truncated_pack_names_the_block(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    digest = system_digest(load_checkpoint(str(tmp_path)))
    pack, length = placement(tmp_path)
    blob = pack.read_bytes()
    assert blob == b"".join(record(b) for b in system.blocks.values())
    assert len(blob) == length
    pack.write_bytes(blob + b"bytes past the placement length")
    assert system_digest(load_checkpoint(str(tmp_path))) == system_digest(system)
    assert system_digest(load_checkpoint(str(tmp_path))) == digest
    victim = max(system.blocks)  # a fresh pack holds its records in id order
    pack.write_bytes(blob[:-4])
    with pytest.raises(CheckpointError, match=f"block {victim}\\b"):
        load_checkpoint(str(tmp_path))
    pack.write_bytes(blob)
    manifest = tmp_path / "manifest"
    b = system.blocks[victim]
    line = f"block {victim} {b.kind} {b.d_in} {b.d_out} "
    assert manifest.read_text().count(line) == 1
    manifest.write_text(manifest.read_text().replace(
        line, f"block {victim} {b.kind} {b.d_in} {b.d_out + 1} "))
    with pytest.raises(CheckpointError, match=f"block {victim}\\b"):
        load_checkpoint(str(tmp_path))


def test_a_cut_last_record_does_not_fall_back_to_an_earlier_whole_one(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    pack, length = placement(tmp_path)
    block = system.blocks[max(system.blocks)]
    # a later record of the same block, with different parameters
    newer = record(SimpleNamespace(id=block.id, params=block.params + 1.0, opt=block.opt))
    with open(pack, "ab") as fh:
        fh.write(newer)
    manifest = tmp_path / "manifest"
    text, placed = manifest.read_text(), f"pack {pack.name} {length}\n"
    assert text.endswith(placed)
    body = text[:-len(placed)]

    def place(end):
        manifest.write_text(body + f"pack {pack.name} {end}\n")

    place(length + len(newer))
    loaded = load_checkpoint(str(tmp_path))
    assert (loaded.blocks[block.id].params == block.params + 1.0).all()
    place(length + len(newer) - 4)
    with pytest.raises(CheckpointError, match=f"^pack {pack.name} has {length} of its "
                                              f"{length + len(newer) - 4} bytes in whole"):
        load_checkpoint(str(tmp_path))


def test_missing_block_record_names_the_block(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    pack, _ = placement(tmp_path)
    blob = pack.read_bytes()
    victim = sorted(system.blocks)[1]
    offset = blob.index(record(system.blocks[victim]))
    pack.write_bytes(blob[:offset] + struct.pack("<Q", 10 ** 9) + blob[offset + 8:])
    with pytest.raises(CheckpointError, match=f"block {victim}\\b"):
        load_checkpoint(str(tmp_path))
    os.remove(pack)
    with pytest.raises(CheckpointError, match=pack.name):
        load_checkpoint(str(tmp_path))


def test_old_layout_is_rejected_in_one_line(tmp_path):
    system = evolved_system()
    (tmp_path / "blocks").mkdir()
    for bid in system.blocks:
        (tmp_path / "blocks" / f"{bid}.bin").write_bytes(b"\0" * 16)
    (tmp_path / "manifest").write_text(checkpoint.write_manifest(system))
    assert checkpoint.FORMAT_VERSION == 1
    with pytest.raises(CheckpointError, match="pack") as err:
        load_checkpoint(str(tmp_path))
    assert "\n" not in str(err.value)


def test_a_blank_line_after_the_placement_line_is_named(tmp_path):
    save_checkpoint(evolved_system(), str(tmp_path))
    manifest = tmp_path / "manifest"
    manifest.write_text(manifest.read_text() + "\n")
    with pytest.raises(CheckpointError, match=re.escape(
            r"last line '\n' is not a 'pack <name> <length>' line")) as err:
        load_checkpoint(str(tmp_path))
    assert "older" not in str(err.value)


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
    *body, pack = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(body) + "blurb nonsense\n" + pack)
    with pytest.raises(CheckpointError, match="blurb"):
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
            (model_line, wrong_model, re.escape(wrong_model)),
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
             "not above")):
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


def test_negative_counts_are_rejected(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    manifest = tmp_path / "manifest"
    text = manifest.read_text()
    selection = next(line for line in text.splitlines() if line.startswith("selection "))
    for old, new, reason in (
            (f" iterations={system.iterations_done}\n", " iterations=-5\n", "iterations="),
            (selection + "\n", " ".join(selection.split()[:3] + ["-3"]) + "\n", "selection")):
        assert text.count(old) == 1
        manifest.write_text(text.replace(old, new))
        with pytest.raises(CheckpointError, match=f"{reason}.*negative"):
            load_checkpoint(str(tmp_path))


def test_a_zero_selection_count_is_rejected(tmp_path):
    # no save writes a 0 (a count exists once a model was selected), and a
    # model holding one compares unequal to the same model without it
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    manifest = tmp_path / "manifest"
    lines = manifest.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("selection "))
    mid, task = lines[at].split()[1:3]
    lines[at] = f"selection {mid} {task} 0\n"
    manifest.write_text("".join(lines))
    with pytest.raises(CheckpointError, match=f"manifest line {at + 1}: selection {mid} {task} "
                                              "has a zero or negative count 0"):
        load_checkpoint(str(tmp_path))


def test_a_selection_line_naming_an_unlisted_model_is_rejected(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    manifest = tmp_path / "manifest"
    text = manifest.read_text()
    lines = text.splitlines(keepends=True)
    last = max(i for i, line in enumerate(lines) if line.startswith("selection "))
    assert 999 not in system.models and 999 >= system.next_model_id
    lines.insert(last + 1, "selection 999 t 3\n")
    manifest.write_text("".join(lines))
    with pytest.raises(CheckpointError,
                       match=f"manifest line {last + 2}: selection 999 names no listed model"):
        load_checkpoint(str(tmp_path))


def test_an_evertrain_id_outside_the_blocks_counter_is_rejected(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    manifest = tmp_path / "manifest"
    text = manifest.read_text()
    lines = text.splitlines(keepends=True)
    rows = [i for i, line in enumerate(lines) if line.startswith("evertrain ")]
    nb = system.next_block_id
    # each id goes where the writer would sort it
    for bid, at in ((nb, rows[-1] + 1), (99999, rows[-1] + 1), (-1, rows[0])):
        manifest.write_text("".join(lines[:at] + [f"evertrain {bid}\n"] + lines[at:]))
        with pytest.raises(CheckpointError, match=f"manifest line {at + 1}: "
                           f"evertrain {bid} names no id below blocks={nb}"):
            load_checkpoint(str(tmp_path))


def test_manifest_that_is_not_utf8_is_rejected(tmp_path):
    save_checkpoint(evolved_system(), str(tmp_path))
    manifest = tmp_path / "manifest"
    raw = manifest.read_bytes()
    assert raw.count(b"datasets/t") == 1
    manifest.write_bytes(raw.replace(b"datasets/t", b"datasets/\xff"))
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_checkpoint(str(tmp_path))


def test_repeated_or_incomplete_lines_are_rejected(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    manifest = tmp_path / "manifest"
    text = manifest.read_text()
    lines = text.splitlines(keepends=True)
    rng, axis, counters = (next(line for line in lines if line.startswith(key + " "))
                           for key in ("rng", "axis", "counters"))
    seed, label, _ = rng.split()[1:]
    edits = [(rng, rng + f"rng {seed} {label} 0\n"), (axis, axis * 2)]
    edits += [(counters, counters.replace(f" {field}={value}", ""))
              for field, value in (("blocks", system.next_block_id),
                                   ("models", system.next_model_id),
                                   ("iterations", system.iterations_done))]
    for old, new in edits:
        assert text.count(old) == 1
        manifest.write_text(text.replace(old, new))
        with pytest.raises(CheckpointError, match="manifest line"):
            load_checkpoint(str(tmp_path))


def test_one_line_edits_load_or_raise_a_checkpoint_error(tmp_path):
    system = evolved_system(iterations=2)
    system.run_position = ("seg", 2)
    save_checkpoint(system, str(tmp_path))
    manifest = tmp_path / "manifest"
    lines = manifest.read_text().splitlines(keepends=True)
    assert any(line.startswith("position ") for line in lines)
    edits = []
    for i, line in enumerate(lines):
        edits.append(("delete", i, lines[:i] + lines[i + 1:]))
        edits.append(("repeat", i, lines[:i + 1] + lines[i:]))
        if i + 1 < len(lines) and lines[i + 1] != line:
            edits.append(("swap", i, lines[:i] + [lines[i + 1], line] + lines[i + 2:]))
    deleted = []
    for kind, i, edited in edits:
        manifest.write_text("".join(edited))
        try:
            loaded = load_checkpoint(str(tmp_path))
        except CheckpointError:
            continue
        # only a deletion loads, and only as a system the writer writes as the edited text
        assert kind == "delete", f"{kind} at line {i + 1} loads"
        assert checkpoint.write_manifest(loaded) == "".join(edited[:-1]), f"line {i + 1}"
        deleted.append(lines[i].split()[0])
    assert sorted(deleted) == ["evertrain", "historytask", "historytask", "position",
                               "selection", "selection", "task"]


def test_moves_two_line_deletions_and_token_edits_load_as_written_or_raise(tmp_path):
    system = evolved_system(iterations=2)
    system.run_position = ("seg", 2)
    save_checkpoint(system, str(tmp_path))
    manifest = tmp_path / "manifest"
    lines = manifest.read_text().splitlines(keepends=True)
    edits = []
    for i, line in enumerate(lines):
        rest = lines[:i] + lines[i + 1:]
        # a move by an odd number of places, to keep the test short; then each
        # deletion of this line with a later one
        edits += [rest[:j] + [line] + rest[j:] for j in range(1 - i % 2, len(lines), 2)]
        edits += [rest[:j] + rest[j + 1:] for j in range(i, len(rest))]
    moved_or_deleted = len(edits)
    rng = random.Random(20)
    words = sorted({word for line in lines for word in line.split()})
    words += ["-", "0", "-1", "1.5", "x", ""]
    for _ in range(300):
        i = rng.randrange(len(lines))
        tokens = lines[i].rstrip("\n").split(" ")
        tokens[rng.randrange(len(tokens))] = rng.choice(words)
        edits.append(lines[:i] + [" ".join(tokens) + "\n"] + lines[i + 1:])
    loaded = []
    for n, edited in enumerate(edits):
        manifest.write_text("".join(edited))
        try:
            system = load_checkpoint(str(tmp_path))
        except CheckpointError:
            continue
        assert checkpoint.write_manifest(system) == "".join(edited[:-1]), f"edit {n}"
        loaded.append(n)
    assert len(edits) == moved_or_deleted + 300 and 0 < len(loaded) < len(edits)


def edit_and_load(tmp_path, old, new):
    """Save ``evolved_system()``, replace the one ``old`` in its manifest with
    ``new`` and load it."""
    save_checkpoint(evolved_system(), str(tmp_path))
    manifest = tmp_path / "manifest"
    text = manifest.read_text()
    assert text.count(old) == 1
    manifest.write_text(text.replace(old, new))
    return load_checkpoint(str(tmp_path))


def test_a_mu_value_off_the_grid_is_rejected_at_its_model_line(tmp_path):
    save_checkpoint(evolved_system(), str(tmp_path))
    lines = (tmp_path / "manifest").read_text().splitlines()
    number = lines.index("model 0 root - 0 - -") + 1
    with pytest.raises(CheckpointError, match=f"manifest line {number}: model 0 does not "
                       "validate: .*mu value 0.21 for clone:0 is off-grid"):
        edit_and_load(tmp_path, "mu 0 clone:0=0.2;", "mu 0 clone:0=0.21;")


def test_a_mu_key_the_model_can_never_take_is_rejected_at_its_model_line(tmp_path):
    save_checkpoint(evolved_system(), str(tmp_path))
    manifest = tmp_path / "manifest"
    text = manifest.read_text()
    lines = text.splitlines()
    number = lines.index("model 0 root - 0 - -") + 1
    old = next(line for line in lines if line.startswith("mu 0 "))
    entries = old.split()[2].split(";")
    # a malformed key fails at its model line like a well-formed one
    for extra, key in ((["clone:17=0.3"], "clone:17"), (["hparam:nope=0.2"], "hparam:nope"),
                       (["clone:17=0.3", "hparam:nope=0.2"], "clone:17"),
                       (["bogus=0.2"], "bogus"), (["clone:x=0.2"], "clone:x"),
                       (["head=0.2"], "head")):
        new = "mu 0 " + ";".join(sorted(entries + extra, key=lambda e: e.split("=")[0]))
        manifest.write_text(text.replace(old + "\n", new + "\n"))
        with pytest.raises(CheckpointError, match=f"manifest line {number}: model 0 does not "
                           f"validate: model 0 mu table holds {key}, an action it can never"):
            load_checkpoint(str(tmp_path))


def test_a_malformed_layers_hparams_or_mu_entry_is_named(tmp_path):
    system = bootstrap_system(load_builtin_space("desk"), seed=21, width=8, depth=2,
                              patch=8, channels=3)
    save_checkpoint(system, str(tmp_path))
    manifest = tmp_path / "manifest"
    text = manifest.read_text()
    lines = text.splitlines()
    for kind, extra, message in (("layers", ",7", "layers entry '7' has no ':'"),
                                 ("hparams", ";flip", "hparams entry 'flip' has no '='"),
                                 ("mu", ";bogus", "mu entry 'bogus' has no '='")):
        number, old = next((n, line) for n, line in enumerate(lines, 1)
                           if line.startswith(f"{kind} 0 "))
        manifest.write_text(text.replace(old + "\n", old + extra + "\n"))
        with pytest.raises(CheckpointError, match=re.escape(f"manifest line {number}: {message}")):
            load_checkpoint(str(tmp_path))


def test_checkpoint_imports_nothing_from_evolution():
    tree = ast.parse(pathlib.Path(checkpoint.__file__).read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [f"{node.module or ''}.{alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names and not [name for name in names if "evolution" in name.split(".")]


def test_a_model_that_lists_a_block_twice_is_rejected_at_its_model_line(tmp_path):
    system = bootstrap_system(load_builtin_space("desk"), seed=21, width=8, depth=3,
                              patch=8, channels=3)
    save_checkpoint(system, str(tmp_path))
    manifest = tmp_path / "manifest"
    text = manifest.read_text()
    number = text.splitlines().index("model 0 root - 0 - -") + 1
    old = "layers 0 0:0,1:0,2:0,3:0,4:0\n"
    assert old in text
    manifest.write_text(text.replace(old, "layers 0 0:0,1:0,1:0,2:0,3:0,4:0\n"))
    with pytest.raises(CheckpointError, match=f"manifest line {number}: model 0 does not "
                       "validate: model 0 lists block 1 more than once"):
        load_checkpoint(str(tmp_path))


def test_a_second_path_for_a_task_is_rejected(tmp_path):
    line = "task t datasets/t\n"
    with pytest.raises(CheckpointError, match=re.escape(
            "expected 'task t elsewhere/t', found 'task t datasets/t'")):
        edit_and_load(tmp_path, line, line + "task t elsewhere/t\n")


def test_swapped_axis_lines_are_rejected(tmp_path):
    system = evolved_system()
    first, second = (f"axis {format_axis_line(axis)}\n"
                     for axis in list(system.space.axes.values())[:2])
    # the axes load in the swapped order, so the hparams lines come out in it too
    with pytest.raises(CheckpointError, match=r"expected 'hparams \d+ " + second.split()[1]):
        edit_and_load(tmp_path, first + second, second + first)


def test_a_float_the_writer_writes_otherwise_is_rejected(tmp_path):
    with pytest.raises(CheckpointError, match=re.escape("found 'score s=1.00 ")):
        edit_and_load(tmp_path, "score s=1.0 ", "score s=1.00 ")


def test_an_integer_scale_factor_reloads_to_the_same_digest(tmp_path):
    from evograft.evolution import SegmentSpec, run_plan
    system = evolved_system()
    run_plan(system, [SegmentSpec("seg", ["t"], s=1)], {"t": make_dataset("t", seed=60)},
             quick_config())
    assert type(system.score_params.s) is float
    save_checkpoint(system, str(tmp_path))
    assert system_digest(load_checkpoint(str(tmp_path))) == system_digest(system)


def test_history_and_selection_lines_must_strictly_ascend(tmp_path):
    system = evolved_system(iterations=2)
    save_checkpoint(system, str(tmp_path))
    manifest = tmp_path / "manifest"
    text = manifest.read_text()
    lines = text.splitlines(keepends=True)
    history = [i for i, line in enumerate(lines) if line.startswith("history ")]
    selection = next(line for line in lines if line.startswith("selection "))
    first, second = lines[history[0]:history[1]], lines[history[1]:history[1] + 2]
    mid, task, count = selection.split()[1:]
    selection_again = f"selection {mid} {task} {int(count) + 5}"
    out_of_order = "out of .*order"
    edits = [
        (first[0], first[0] * 2, out_of_order),  # a snapshot with no rows, then the real one
        ("".join(second), "".join(second) * 2, out_of_order),
        ("".join(first) + "".join(second), "".join(second) + "".join(first), out_of_order),
        # the later count is the one loaded, so the first line is not what is written
        (selection, selection + selection_again + "\n", re.escape(repr(selection_again))),
    ]
    for old, new, reason in edits:
        assert text.count(old) == 1
        manifest.write_text(text.replace(old, new))
        with pytest.raises(CheckpointError, match=reason):
            load_checkpoint(str(tmp_path))


def test_blocks_of_ended_iterations_load_settled(tmp_path):
    system = evolved_system()
    child = grow(system)  # mid-iteration: its new blocks may still train
    save_checkpoint(system, str(tmp_path))
    loaded = load_checkpoint(str(tmp_path))
    for block in loaded.blocks.values():
        ended = block.generation_tag < loaded.iterations_done
        assert block.params.flags.writeable == block.opt.flags.writeable == (not ended)
    frozen = [lid for lid, trainable in child.layers if not trainable]
    with pytest.raises(ValueError, match="read-only"):
        loaded.blocks[frozen[0]].params[0] = 0.0
    loaded.blocks[child.trainable_ids()[0]].params[0] = 0.0


def test_a_segment_and_task_named_dash_reload_as_themselves(tmp_path):
    from evograft.evolution import SegmentSpec, run_plan
    from evograft.reports import emit_reports
    system = bootstrap_system(load_builtin_space("desk"), seed=21, width=8, depth=3,
                              patch=8, channels=3)
    run_plan(system, [SegmentSpec("-", ["-"])], {"-": make_dataset("-", seed=60)},
             quick_config())
    save_checkpoint(system, str(tmp_path / "ckpt"))
    loaded = load_checkpoint(str(tmp_path / "ckpt"))
    assert (loaded.history[0].segment, loaded.history[0].task) == ("-", "-")
    timelines = []
    for name, which in (("memory", system), ("loaded", loaded)):
        emit_reports(which, which.history, str(tmp_path / name))
        timelines.append((tmp_path / name / "timeline.csv").read_text())
    assert timelines[0] == timelines[1]


def test_a_snapshot_whose_segment_or_task_is_not_one_word_is_not_saved(tmp_path):
    for segment, task in (("", "t"), ("seg", ""), ("a b", "t")):
        system = evolved_system()
        system.history[0].segment, system.history[0].task = segment, task
        with pytest.raises(CheckpointError, match="history 1 has a segment or task"):
            save_checkpoint(system, str(tmp_path))
        assert not (tmp_path / "manifest").exists()


def test_a_snapshot_made_with_the_defaults_is_saved_and_loaded_back(tmp_path):
    from evograft.evolution import metrics_snapshot
    system = bootstrap_system(load_builtin_space("desk"), seed=21, width=8, depth=3,
                              patch=8, channels=3)
    system.history.append(metrics_snapshot(system, {}, []))
    save_checkpoint(system, str(tmp_path))
    assert load_checkpoint(str(tmp_path)).history == system.history


def test_kept_text_is_rendered_once_per_object_and_again_only_after_a_load(
        tmp_path, monkeypatch):
    from evograft.evolution import SegmentSpec, run_plan
    renders = {}  # id -> [owner, renders]; holding the owner keeps its id unique

    def counted(render):
        def wrapper(owner, *args):
            renders.setdefault(id(owner), [owner, 0])[1] += 1
            return render(owner, *args)
        return wrapper

    monkeypatch.setattr(checkpoint, "_history_lines", counted(checkpoint._history_lines))
    monkeypatch.setattr(checkpoint, "_model_lines", counted(checkpoint._model_lines))
    datasets = {name: make_dataset(name, classes=2 + i, seed=40 + i)
                for i, name in enumerate(("a", "b"))}
    plan = [SegmentSpec("base", ["a", "b"], iterations=2, mode="munet", s=0.99),
            SegmentSpec("plus", ["a", "b"], mode="munet_plus", recalibrate=10.0)]
    saved = []  # the models and snapshots each save wrote

    def save(system):
        save_checkpoint(system, str(tmp_path))
        saved.append([*system.models.values(), *system.history])

    class Stop(Exception):
        pass

    def save_then_stop_at_three(snap):
        save(system)
        if len(saved) == 3:
            raise Stop

    system = evolved_system()
    with pytest.raises(Stop):
        run_plan(system, plan, datasets, quick_config(), save_then_stop_at_three)
    resumed = load_checkpoint(str(tmp_path))
    loaded = [*resumed.models.values(), *resumed.history]
    run_plan(resumed, plan, datasets, quick_config(), lambda snap: save(resumed))
    save(resumed)
    assert len(saved) == 7

    def key(owner):
        return type(owner).__name__, getattr(owner, "id", getattr(owner, "index", None))

    # the load renders its own copies of what the third save wrote, once each
    assert list(map(key, loaded)) == list(map(key, saved[2]))
    assert not {id(owner) for owner in loaded} & {id(owner) for owner in saved[2]}
    owners = {id(owner) for owner in [*loaded, *(o for each in saved for o in each)]}
    assert set(renders) == owners
    assert all(count == 1 for _, count in renders.values())
    # evolved_system's snapshot, one per iteration of the plan, the load's four copies
    assert sum(isinstance(owner, MetricsSnapshot) for owner, _ in renders.values()) == 1 + 6 + 4


def test_every_save_matches_a_fresh_manifest(tmp_path):
    from evograft.checkpoint import _split_placement, write_manifest
    from evograft.evolution import SegmentSpec, run_plan
    datasets = {name: make_dataset(name, classes=2 + i, seed=40 + i)
                for i, name in enumerate(("a", "b"))}
    datasets["t"] = make_dataset("t", seed=60)
    plan = [SegmentSpec("base", ["t", "a", "b"], iterations=2, mode="munet", s=0.99),
            SegmentSpec("plus", ["t", "a"], mode="munet_plus", recalibrate=10.0,
                        children=2)]
    saves, model_lines, changed = 0, {}, 0

    def save(system):
        nonlocal saves, changed
        save_checkpoint(system, str(tmp_path))
        saves += 1
        saved = _split_placement((tmp_path / "manifest").read_text())[0]
        assert saved == write_manifest(system), f"save {saves}"
        for line in saved.splitlines():
            if line.startswith("model "):
                mid = line.split()[1]
                changed += model_lines.get(mid, line) != line
                model_lines[mid] = line

    class Stop(Exception):
        pass

    def save_then_stop_at_three(snap):
        save(system)
        if saves == 3:
            raise Stop

    system = evolved_system()
    with pytest.raises(Stop):
        run_plan(system, plan, datasets, quick_config(), save_then_stop_at_three)
    resumed = load_checkpoint(str(tmp_path))
    run_plan(resumed, plan, datasets, quick_config(), lambda snap: save(resumed))
    save(resumed)
    assert saves == 9
    assert changed, "some live model's score must change between saves"


def test_block_trained_after_a_load_mid_iteration_is_saved_again(tmp_path):
    system = evolved_system()
    grow(system)
    save_checkpoint(system, str(tmp_path))
    loaded = load_checkpoint(str(tmp_path))
    child = loaded.models[max(loaded.models)]
    loaded.blocks[child.trainable_ids()[0]].params += 1.0
    loaded.iterations_done += 1
    save_checkpoint(loaded, str(tmp_path))
    assert system_digest(load_checkpoint(str(tmp_path))) == system_digest(loaded)


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
    run_task_iteration(resumed, ds, quick_config())
    resumed.history.append(metrics_snapshot(resumed, {"t": ds}, ["t"], "seg", "t"))

    assert system_digest(resumed) == system_digest(straight)


def test_identical_seeds_give_identical_digests():
    assert system_digest(evolved_system(seed=5)) == system_digest(evolved_system(seed=5))
    assert system_digest(evolved_system(seed=5)) != system_digest(evolved_system(seed=6))


def test_stale_block_payloads_are_removed(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    pack, _ = placement(tmp_path)
    stray = [tmp_path / "blocks" / "9999.bin", tmp_path / "blocks" / "b.pack"]
    for junk in stray:
        junk.write_bytes(b"junk")
    save_checkpoint(system, str(tmp_path))
    assert os.listdir(tmp_path / "blocks") == [pack.name]


def grow(system, top_k=1):
    """Commit one child of the first ``t`` model that clones its ``top_k``
    top layers and gets a new head."""
    parent = system.models_for("t")[0]
    child = apply_mutations(system, parent, finetune_top_actions(parent, top_k), "t",
                            make_dataset("t", seed=60).num_classes, system.rng)
    system.commit_model(child)
    return child


def test_save_after_load_and_run_matches_a_fresh_save(tmp_path):
    ckpt, fresh = tmp_path / "ckpt", tmp_path / "fresh"
    save_checkpoint(evolved_system(), str(ckpt))
    before = placement(ckpt)[0].read_bytes()
    resumed = load_checkpoint(str(ckpt))
    ds = make_dataset("t", seed=60)
    run_task_iteration(resumed, ds, quick_config())
    save_checkpoint(resumed, str(ckpt))
    save_checkpoint(resumed, str(fresh))
    pack, _ = placement(ckpt)
    assert os.listdir(ckpt / "blocks") == [pack.name]
    assert pack.read_bytes().startswith(before)
    assert (system_digest(load_checkpoint(str(ckpt)))
            == system_digest(load_checkpoint(str(fresh))))
    assert system_digest(load_checkpoint(str(ckpt))) == system_digest(resumed)


def test_save_appends_only_what_may_have_changed(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    pack, length = placement(tmp_path)
    blob = pack.read_bytes()
    save_checkpoint(system, str(tmp_path))
    assert placement(tmp_path) == (pack, length) and pack.read_bytes() == blob

    appended = 0
    for _ in range(4):
        known, blob = set(system.blocks), pack.read_bytes()
        run_task_iteration(system, make_dataset("t", seed=60), quick_config())
        save_checkpoint(system, str(tmp_path))
        new = [b for bid, b in system.blocks.items() if bid not in known]
        assert pack.read_bytes() == blob + b"".join(record(b) for b in new)
        assert placement(tmp_path) == (pack, len(pack.read_bytes()))
        appended += len(new)
    assert appended, "some iteration must retain a child"

    # A block saved before its iteration ends is saved again once the
    # iteration has trained it.
    child = grow(system)
    save_checkpoint(system, str(tmp_path))
    trained = system.blocks[child.trainable_ids()[0]]
    trained.params += 1.0
    system.iterations_done += 1
    save_checkpoint(system, str(tmp_path))
    assert system_digest(load_checkpoint(str(tmp_path))) == system_digest(system)


def test_pack_is_rewritten_once_dead_bytes_outweigh_live_ones(tmp_path):
    system = evolved_system()
    save_checkpoint(system, str(tmp_path))
    first, _ = placement(tmp_path)
    for _ in range(10):
        child = grow(system, top_k=3)
        save_checkpoint(system, str(tmp_path))
        system.discard_model(child)
        save_checkpoint(system, str(tmp_path))
        pack, length = placement(tmp_path)
        live = sum(len(record(b)) for b in system.blocks.values())
        if pack != first:
            break
        assert length - live <= live
    assert pack != first and length == live
    assert os.listdir(tmp_path / "blocks") == [pack.name]
    assert system_digest(load_checkpoint(str(tmp_path))) == system_digest(system)


def test_systems_saving_alternately_to_one_path_stay_loadable(tmp_path):
    def root_only(seed):
        system = bootstrap_system(load_builtin_space("desk"), seed=seed, width=8,
                                  depth=3, patch=8, channels=3)
        system.iterations_done = 1  # as after an iteration that kept no child
        return system

    a, b, c = root_only(1), evolved_system(), root_only(2)
    path = str(tmp_path)

    def save_and_check(system):
        save_checkpoint(system, path)
        assert system_digest(load_checkpoint(path)) == system_digest(system)
        pack, _ = placement(tmp_path)
        assert os.listdir(tmp_path / "blocks") == [pack.name]
        return placement(tmp_path)

    first = save_and_check(a)
    assert save_and_check(b)[0] != first[0]
    # c lands in the pack a saved to, at the same length, so the placement
    # line alone cannot tell a that its record is stale.
    assert save_and_check(c) == first
    save_and_check(a)
    save_and_check(b)
    grow(b)
    save_and_check(b)
    save_and_check(c)


class Killed(Exception):
    pass


TRIPWIRES = ((checkpoint, "_record"), (checkpoint.os, "truncate"),
             (checkpoint.os, "replace"), (checkpoint.os, "remove"))


def save_killed_at(system, path, monkeypatch, step):
    """Save, but stop in place of the ``step``-th record write, pack
    truncation, manifest rename or file removal; return the name of the call
    stopped, or None if the save finished."""
    calls = 0

    def tripwire(name, fn):
        def wrapper(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == step:
                raise Killed(name)
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as m:
        for owner, name in TRIPWIRES:
            m.setattr(owner, name, tripwire(name, getattr(owner, name)))
        try:
            save_checkpoint(system, path)
        except Killed as stop:
            return stop.args[0]
    return None


def test_save_stopped_at_any_step_still_loads(tmp_path, monkeypatch):
    template = tmp_path / "old"
    save_checkpoint(evolved_system(), str(template))
    old_digest = system_digest(load_checkpoint(str(template)))
    grown = load_checkpoint(str(template))
    grow(grown)
    new_digest = system_digest(grown)

    # A system loaded from the directory appends to its pack; one loaded from
    # elsewhere writes a fresh pack and then removes the old one.
    for source, calls in (("own", {"truncate", "_record", "replace"}),
                          ("other", {"_record", "replace", "remove"})):
        stopped_at = set()
        step = 1
        while True:
            path = str(tmp_path / f"{source}{step}")
            shutil.copytree(template, path)
            system = load_checkpoint(path if source == "own" else str(template))
            grow(system)
            stopped = save_killed_at(system, path, monkeypatch, step)
            loaded = system_digest(load_checkpoint(path))
            if stopped is None:
                assert loaded == new_digest
                break
            assert loaded in (old_digest, new_digest), f"{source} save stopped at step {step}"
            save_checkpoint(system, path)
            assert system_digest(load_checkpoint(path)) == new_digest
            assert len(os.listdir(os.path.join(path, "blocks"))) == 1
            stopped_at.add(stopped)
            step += 1
        assert stopped_at == calls, source
