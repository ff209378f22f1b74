"""Checkpointing: the whole system round-trips through a directory bit-exactly.

Layout: a UTF-8 ``manifest`` text file (versioned, floats written with
shortest round-trip repr) plus one append-only block pack, ``blocks/a.pack``
or ``blocks/b.pack``, a run of block records: little-endian u64 block id,
parameter count and optimizer count, then the float32 parameters and the
float32 optimizer state. The manifest's last line, ``pack <name> <length>``,
names the pack and how many of its bytes belong to this manifest; a later
record of an id supersedes an earlier one, and bytes past the length are
ignored. Random streams serialize as (seed, label, counter), so a resumed run
continues the exact stream of the unbroken one. ``write_manifest`` is the one
definition of the manifest: a load takes the lines in the order it writes
them, builds the system as it reads, and accepts the manifest only if that
system renders back to exactly the text read, less the placement line. So
``system_digest`` of a loaded system hashes what the load read.

A system remembers, per checkpoint path, the placement it last saved or
loaded there (``SystemState.packs``: derived state, never persisted). While
the manifest on disk is still that one, a save appends every block whose
iteration had not ended at that save or load, which covers every block the
pack lacks, as ids and generation tags only grow. Otherwise, or once
superseded records outweigh live ones, it writes a fresh pack under the
other name. Either way the manifest is replaced in one rename after the pack
is written, so a save stopped at any point leaves a checkpoint that loads as
the old or the new system, plus at most bytes past the placement length or a
stray pack, which the next save cuts or removes.

A save re-renders only the manifest lines that can change. A committed
model's ``layers``, ``hparams`` and ``mu`` lines and each history snapshot's
lines never change, so their text is kept in ``SystemState.rendered`` (derived
state, never persisted, pruned to the live models and snapshots on each save).
A load's check fills that memo. ``write_manifest`` and ``system_digest``
render every line fresh, so a reload that equals the system in memory also
checks that memo. Blocks whose iteration had ended when the checkpoint was
saved load read-only (settled).
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .evolution import MetricsSnapshot
from .mutations import MutationAction
from .rng import Rng
from .scoring import ScoreParams
from .search_space import (SearchSpace, SpaceError, format_axis_line, format_value,
                           parse_axis_line, parse_value)
from .system import LayerBlock, ModelSpec, SystemError_, SystemState

FORMAT_VERSION = 1
PACK_NAMES = ("a.pack", "b.pack")
_RECORD_HEAD = struct.Struct("<QQQ")  # block id, parameter count, optimizer count


class CheckpointError(ValueError):
    pass


@dataclass
class PackPlacement:
    """What a system last saved to or loaded from one checkpoint path: the
    pack, the length belonging to the manifest, the iterations done then, and
    the manifest bytes. The pack holds every block the system had then, so
    each block it lacks has a generation tag at or above ``iterations``."""

    name: str
    length: int
    iterations: int
    manifest: bytes = b""


def write_manifest(system: SystemState) -> str:
    """The manifest without its placement line, every line rendered fresh."""
    return _render(system, {})


def _render(system: SystemState, memo: dict) -> str:
    """The manifest without its placement line. A committed model's
    ``layers``, ``hparams`` and ``mu`` lines and a history snapshot's lines
    never change, so they come from ``memo`` where it holds them for the same
    object; ``memo`` is left holding exactly those of the live models and
    snapshots."""
    kept = {}

    def memoized(key, owner, render) -> str:
        hit = memo.get(key)
        if hit is None or hit[0] is not owner:
            hit = (owner, render(owner))
        kept[key] = hit
        return hit[1]

    lines = [f"evograft-checkpoint {FORMAT_VERSION}"]
    seed, label, counter = system.rng.state()
    lines.append(f"rng {seed} {label} {counter}")
    sp = system.score_params
    lines.append(f"score s={sp.s!r} P={sp.P!r} F={sp.F!r} "
                 f"size=1 compute={int(sp.compute_factor_enabled)}")
    lines.append(f"counters blocks={system.next_block_id} models={system.next_model_id} "
                 f"created={system.next_model_id} iterations={system.iterations_done}")
    for axis in system.space.axes.values():
        lines.append(f"axis {format_axis_line(axis)}")
    for name, task_path in sorted(system.task_paths.items()):
        if task_path.splitlines() != [task_path]:
            raise CheckpointError(f"task {name!r} has a path that is not one line: {task_path!r}")
        lines.append(f"task {name} {task_path}")
    for b in system.blocks.values():
        lines.append(f"block {b.id} {b.kind} {b.d_in} {b.d_out} "
                     f"{b.created_by_task} {b.generation_tag}")
    axis_names = system.space.axis_names()

    def model_lines(m: ModelSpec) -> str:
        layers = ",".join(f"{lid}:{int(tr)}" for lid, tr in m.layers)
        hparams = ";".join(f"{axis}={format_value(m.hparams[axis])}" for axis in axis_names)
        mu = ";".join(f"{a.key()}={v!r}" for a, v in
                      sorted(m.mu.items(), key=lambda kv: kv[0].key()))
        return "\n".join((f"layers {m.id} {layers}", f"hparams {m.id} {hparams}",
                          f"mu {m.id} {mu}"))

    for m in system.models.values():
        parent = "-" if m.parent_id is None else str(m.parent_id)
        quality, snap = ("-" if v is None else repr(v) for v in (m.quality, m.score_snapshot))
        lines.append(f"model {m.id} {m.task} {parent} {m.id} {quality} {snap}")
        lines.append(memoized(("model", m.id), m, model_lines))
    for (mid, task) in sorted(system.selection_counts):
        lines.append(f"selection {mid} {task} {system.selection_counts[(mid, task)]}")
    for bid in sorted(system.ever_trainable):
        lines.append(f"evertrain {bid}")
    if system.run_position is not None:
        seg, done = system.run_position
        lines.append(f"position {seg} {done}")
    for snap in system.history:
        lines.append(memoized(("history", id(snap)), snap, _history_lines))
    memo.clear()
    memo.update(kept)
    return "\n".join(lines) + "\n"


def _history_lines(snap: MetricsSnapshot) -> str:
    lines = [f"history {snap.index} {snap.segment or '-'} {snap.task or '-'} "
             f"{snap.mean_test_accuracy!r} {snap.mean_accounted_params!r} "
             f"{snap.mean_inference_flops!r}"]
    for task, (acc, params, flops) in sorted(snap.per_task.items()):
        lines.append(f"historytask {snap.index} {task} {acc!r} {params!r} {flops!r}")
    return "\n".join(lines)


def _record_size(block: LayerBlock) -> int:
    return _RECORD_HEAD.size + 4 * (block.params.size + block.opt.size)


def _record(block: LayerBlock) -> bytes:
    return b"".join((_RECORD_HEAD.pack(block.id, block.params.size, block.opt.size),
                     block.params.astype("<f4", copy=False).tobytes(),
                     block.opt.astype("<f4", copy=False).tobytes()))


def _extend(placement: PackPlacement,
            system: SystemState) -> tuple[PackPlacement, list[LayerBlock]]:
    """The placement after appending every live block whose iteration had not
    ended when ``placement`` was made, and those blocks in id order. That
    includes every block made since, as ids and generation tags only grow."""
    added = [block for block in system.blocks.values()
             if block.generation_tag >= placement.iterations]
    length = placement.length + sum(_record_size(block) for block in added)
    return PackPlacement(placement.name, length, system.iterations_done), added


def _split_placement(text: str) -> tuple[str, str, int]:
    """The manifest as ``write_manifest`` made it, and the pack name and
    length that its last line gives."""
    body, _, last = text.rstrip("\n").rpartition("\n")
    fields = last.split()
    if (len(fields) != 3 or fields[0] != "pack" or fields[1] not in PACK_NAMES
            or not fields[2].isdecimal()):
        raise CheckpointError("manifest does not end with a 'pack <name> <length>' line; "
                              "one file per block is an older layout this reader rejects")
    return body + "\n", fields[1], int(fields[2])


def save_checkpoint(system: SystemState, path: str) -> None:
    """Write the system to ``path``. When the manifest on disk is the one this
    system last saved or loaded there, cut the pack back to that manifest's
    length and append every block whose iteration had not ended at that save
    or load; otherwise write a fresh pack under the other name. Then replace
    the manifest in one rename, and only then remove every other file under
    ``blocks/``. A task path that is not one line fails before any write.
    The manifest lines that cannot change are rendered once and then reused
    from ``system.rendered``."""
    text = _render(system, system.rendered)
    blocks_dir = os.path.join(path, "blocks")
    os.makedirs(blocks_dir, exist_ok=True)
    manifest_path = os.path.join(path, "manifest")
    try:
        with open(manifest_path, "rb") as fh:
            on_disk = fh.read()
    except FileNotFoundError:
        on_disk = b""
    old = system.packs.get(os.path.abspath(path))
    append = old is not None and old.manifest == on_disk
    if append:
        placement, added = _extend(old, system)
        # a fresh pack once superseded records would outweigh live ones
        append = placement.length <= 2 * sum(map(_record_size, system.blocks.values()))
    if not append:
        try:
            in_use = _split_placement(on_disk.decode("utf-8"))[1]
        except ValueError:  # no manifest yet, or not one this reader takes
            in_use = None
        fresh = PackPlacement(PACK_NAMES[in_use == PACK_NAMES[0]], 0, 0)
        placement, added = _extend(fresh, system)

    pack_path = os.path.join(blocks_dir, placement.name)
    if append:
        os.truncate(pack_path, old.length)
    with open(pack_path, "ab" if append else "wb") as fh:
        for block in added:
            fh.write(_record(block))
    placement.manifest = (text + f"pack {placement.name} {placement.length}\n").encode("utf-8")
    manifest_tmp = os.path.join(path, "manifest.tmp")
    with open(manifest_tmp, "wb") as fh:
        fh.write(placement.manifest)
    os.replace(manifest_tmp, manifest_path)
    system.packs[os.path.abspath(path)] = placement
    for entry in os.listdir(blocks_dir):
        if entry != placement.name:
            os.remove(os.path.join(blocks_dir, entry))


def _read_pack(path: str, name: str, length: int) -> tuple[dict, int]:
    """Read the pack's first ``length`` bytes once; return each id's last
    whole record in them as (parameters, optimizer state) views, and how many
    of the bytes whole records fill."""
    try:
        with open(os.path.join(path, "blocks", name), "rb") as fh:
            blob = fh.read(length)
    except FileNotFoundError:
        raise CheckpointError(f"missing block pack {name} under {path}") from None
    records, offset = {}, 0
    while offset + _RECORD_HEAD.size <= len(blob):
        bid, n, m = _RECORD_HEAD.unpack_from(blob, offset)
        start = offset + _RECORD_HEAD.size
        if start + 4 * (n + m) > len(blob):
            break
        records[bid] = (np.frombuffer(blob, "<f4", n, start),
                        np.frombuffer(blob, "<f4", m, start + 4 * n))
        offset = start + 4 * (n + m)
    return records, offset


class _Lines:
    """The manifest's lines, taken one at a time in the order
    ``write_manifest`` writes them; ``number`` is the last one looked at."""

    def __init__(self, text: str):
        self.lines = [line.partition(" ")[::2] for line in text.splitlines()]
        self.number = 1  # the header, checked before the pack is read

    def key(self) -> str:
        return self.lines[self.number][0]

    def take(self, key: str, owner: str | None = None) -> str:
        """The rest of the next line, which must be a ``key`` line; given an
        ``owner``, the rest after its next word, which must be ``owner``."""
        found, rest = self.lines[self.number]
        self.number += 1
        if found != key:
            raise CheckpointError(f"expected a {key!r} line, found {found!r}")
        if owner is not None:
            named, _, rest = rest.partition(" ")
            if named != owner:
                raise CheckpointError(f"{key} {named} is out of place: expected {key} {owner}")
        return rest

    def each(self, key: str, owner: str | None = None):
        """The rest of each next line while it is a ``key`` line."""
        while self.key() == key:
            yield self.take(key, owner)


def _fields(rest: str, names: tuple[str, ...]) -> list[str]:
    """The values of a line's ``name=value`` words, which must be ``names``
    in that order."""
    pairs = [word.partition("=") for word in rest.split()]
    if [name for name, _, _ in pairs] != list(names):
        raise CheckpointError("expected the fields " + " ".join(f"{n}=" for n in names))
    return [value for _, _, value in pairs]


def _build(lines: _Lines, records: dict, pack: str) -> SystemState:
    """The system the manifest lines describe, built as they are read."""
    seed, label, counter = lines.take("rng").split()
    rng = Rng(int(seed), label, int(counter))
    s, P, F, _, compute = _fields(lines.take("score"), ("s", "P", "F", "size", "compute"))
    score = ScoreParams(float(s), float(P), float(F), compute == "1")
    names = ("blocks", "models", "created", "iterations")
    counters = dict(zip(names, map(int, _fields(lines.take("counters"), names))))
    for name, value in counters.items():
        if value < 0:
            raise CheckpointError(f"counter {name}= is negative: {value}")
    system = SystemState(SearchSpace([parse_axis_line(rest) for rest in lines.each("axis")]),
                         score, rng)
    system.next_block_id, system.next_model_id, _, system.iterations_done = counters.values()
    for rest in lines.each("task"):
        name, task_path = rest.split(" ", 1)
        system.task_paths[name] = task_path
    for rest in lines.each("block"):
        bid, kind, d_in, d_out, created_by, gen = rest.split()
        if system.blocks and int(bid) <= next(reversed(system.blocks)):
            raise CheckpointError(f"block {bid} is listed out of id order")
        if int(bid) >= system.next_block_id:
            raise CheckpointError(f"blocks={system.next_block_id} is not above listed id {bid}")
        if int(bid) not in records:
            raise CheckpointError(f"block {bid} has no whole record in pack {pack}")
        params, opt = (array.astype(np.float32) for array in records[int(bid)])
        block = LayerBlock(int(bid), kind, int(d_in), int(d_out), params, opt, created_by,
                           int(gen))
        if block.generation_tag < system.iterations_done:
            block.settle()
        system.blocks[block.id] = block
    for rest in lines.each("model"):
        mid, task, parent, _, quality, snap = rest.split()
        if int(mid) >= system.next_model_id:
            raise CheckpointError(f"models={system.next_model_id} is not above listed id {mid}")
        layers = [(int(lid), bool(int(flag))) for lid, flag in
                  (word.split(":") for word in lines.take("layers", mid).split(","))]
        hparams = {axis: parse_value(value) for axis, value in
                   (word.split("=", 1) for word in lines.take("hparams", mid).split(";"))}
        mu = lines.take("mu", mid)
        mu = {MutationAction.parse(action): float(value) for action, value in
              (word.split("=", 1) for word in mu.split(";"))} if mu else {}
        quality, snap = (None if word == "-" else float(word) for word in (quality, snap))
        try:
            system.commit_model(ModelSpec(int(mid), task, layers, hparams, mu,
                                          None if parent == "-" else int(parent), quality, snap))
        except (SystemError_, SpaceError) as exc:
            raise CheckpointError(f"model {mid} does not validate: {exc}") from None
    for rest in lines.each("selection"):
        mid, task, count = rest.split()
        if int(count) < 0:
            raise CheckpointError(f"selection {mid} {task} has a negative count {count}")
        system.selection_counts[(int(mid), task)] = int(count)
    system.ever_trainable.update(int(rest) for rest in lines.each("evertrain"))
    if lines.key() == "position":
        seg, done = lines.take("position").split()
        if int(done) < 0:
            raise CheckpointError(f"position {seg} has a negative count {done}")
        system.run_position = (seg, int(done))
    for rest in lines.each("history"):
        idx, seg, task, acc, params, flops = rest.split()
        if system.history and int(idx) <= system.history[-1].index:
            raise CheckpointError(f"history {idx} is listed out of index order")
        snap = MetricsSnapshot(int(idx), "" if seg == "-" else seg, "" if task == "-" else task,
                               float(acc), float(params), float(flops))
        for rest in lines.each("historytask", idx):
            task, acc, params, flops = rest.split()
            snap.per_task[task] = (float(acc), float(params), float(flops))
        system.history.append(snap)
    lines.take("pack")  # the placement line, read before the pack
    if lines.number < len(lines.lines):
        raise CheckpointError("the placement line is not the last line")
    return system


def load_checkpoint(path: str) -> SystemState:
    """The system saved at ``path``. The manifest is read once, a line at a
    time in the order ``write_manifest`` writes it, and the system is built
    as it is read; a line out of that order, a repeated singleton line or a
    missing one is an error naming the manifest line. The system must then
    render to exactly the manifest less its placement line; an error names
    the first line that differs and quotes what the writer writes there."""
    try:
        with open(os.path.join(path, "manifest"), "rb") as fh:
            raw = fh.read()
        text = raw.decode("utf-8")
    except FileNotFoundError:
        raise CheckpointError(f"no manifest under {path}") from None
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"manifest is not UTF-8: {exc}") from None
    header = text.partition("\n")[0]
    if header != f"evograft-checkpoint {FORMAT_VERSION}":
        raise CheckpointError(f"unsupported manifest header {header!r}: "
                              f"this reader takes version {FORMAT_VERSION}")
    body, pack_name, pack_length = _split_placement(text)
    records, whole = _read_pack(path, pack_name, pack_length)
    lines = _Lines(text)
    try:
        system = _build(lines, records, pack_name)
    except Exception as exc:
        raise CheckpointError(f"manifest line {lines.number}: {exc}") from None
    if whole != pack_length:
        raise CheckpointError(f"pack {pack_name} has {whole} of its {pack_length} bytes "
                              "in whole records")
    rendered = _render(system, system.rendered)
    if rendered != body:
        quoted = (map(repr, manifest.split("\n")[:-1]) for manifest in (rendered, body))
        n, written, read = next((n, *pair) for n, pair in enumerate(
            zip_longest(*quoted, fillvalue="no line"), 1) if pair[0] != pair[1])
        raise CheckpointError(f"manifest line {n} is not what the writer writes for the "
                              f"system it describes: expected {written}, found {read}")
    system.packs[os.path.abspath(path)] = PackPlacement(pack_name, pack_length,
                                                        system.iterations_done, raw)
    return system


def block_digest(block: LayerBlock) -> str:
    digest = hashlib.sha256()
    digest.update(block.params.astype("<f4", copy=False).tobytes())
    digest.update(block.opt.astype("<f4", copy=False).tobytes())
    return digest.hexdigest()


def system_digest(system: SystemState) -> str:
    """Digest of the full system without touching disk."""
    digest = hashlib.sha256()
    digest.update(write_manifest(system).encode("utf-8"))
    for block in system.blocks.values():
        digest.update(block_digest(block).encode())
    return digest.hexdigest()
