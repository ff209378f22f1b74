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
definition of the manifest and of the order of its lines: a load takes the
lines by kind, builds the system from them, and accepts the manifest only if
that system renders back to exactly the text read, less the placement line.
So ``system_digest`` of a loaded system hashes what the load read.

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

A save re-renders only the manifest lines that can change. A block's line, a
committed model's ``layers``, ``hparams`` and ``mu`` lines and each history
snapshot's lines never change, so their text is kept on the block, model or
snapshot itself (``manifest_text``: derived, never persisted, gone with its
owner); a model's ``model`` line, which shows its quality and score, is
rendered on every save. A load's check fills the kept text. ``write_manifest``
and ``system_digest`` render every line fresh, so a reload that equals the
system in memory also checks the kept text. Blocks whose iteration had ended
when the checkpoint was saved load read-only (settled).
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .rng import Rng
from .scoring import ScoreParams
from .search_space import (SearchSpace, SpaceError, format_axis_line, format_value,
                           parse_axis_line, parse_value)
from .system import LayerBlock, MetricsSnapshot, ModelSpec, SystemError_, SystemState

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
    return _render(system, reuse=False)


def _render(system: SystemState, reuse: bool) -> str:
    """The manifest without its placement line. A block's line, a committed
    model's ``layers``, ``hparams`` and ``mu`` lines and a history snapshot's
    lines never change; with ``reuse`` each owner's text is rendered once and
    then taken from its ``manifest_text``."""

    def text(owner, render, *args) -> str:
        if not reuse:
            return render(owner, *args)
        if owner.manifest_text is None:
            owner.manifest_text = render(owner, *args)
        return owner.manifest_text

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
        lines.append(text(b, _block_line))
    axis_names = system.space.axis_names()
    for m in system.models.values():
        parent = "-" if m.parent_id is None else str(m.parent_id)
        quality, snap = ("-" if v is None else repr(v) for v in (m.quality, m.score_snapshot))
        lines.append(f"model {m.id} {m.task} {parent} {m.id} {quality} {snap}")
        lines.append(text(m, _model_lines, axis_names))
    for m in system.models.values():
        for task, count in sorted(m.selections.items()):
            lines.append(f"selection {m.id} {task} {count}")
    for bid in sorted(system.ever_trainable):
        lines.append(f"evertrain {bid}")
    if system.run_position is not None:
        seg, done = system.run_position
        lines.append(f"position {seg} {done}")
    for snap in system.history:
        lines.append(text(snap, _history_lines))
    return "\n".join(lines) + "\n"


def _block_line(b: LayerBlock) -> str:
    return f"block {b.id} {b.kind} {b.d_in} {b.d_out} {b.created_by_task} {b.generation_tag}"


def _model_lines(m: ModelSpec, axis_names: list[str]) -> str:
    layers = ",".join(f"{lid}:{int(tr)}" for lid, tr in m.layers)
    hparams = ";".join(f"{axis}={format_value(m.hparams[axis])}" for axis in axis_names)
    mu = ";".join(f"{action}={v!r}" for action, v in sorted(m.mu.items()))
    return "\n".join((f"layers {m.id} {layers}", f"hparams {m.id} {hparams}",
                      f"mu {m.id} {mu}"))


def _history_lines(snap: MetricsSnapshot) -> str:
    if [snap.segment, snap.task] != f"{snap.segment} {snap.task}".split():
        raise CheckpointError(f"history {snap.index} has a segment or task that is not one "
                              f"word: {snap.segment!r} {snap.task!r}")
    lines = [f"history {snap.index} {snap.segment} {snap.task} "
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
    *lines, last = text.splitlines(keepends=True) or [""]
    fields = last.split()
    if (len(fields) != 3 or fields[0] != "pack" or fields[1] not in PACK_NAMES
            or not fields[2].isdecimal()):
        raise CheckpointError(f"the manifest's last line {last!r} is not a "
                              "'pack <name> <length>' line")
    return "".join(lines), fields[1], int(fields[2])


def save_checkpoint(system: SystemState, path: str) -> None:
    """Write the system to ``path``. When the manifest on disk is the one this
    system last saved or loaded there, cut the pack back to that manifest's
    length and append every block whose iteration had not ended at that save
    or load; otherwise write a fresh pack under the other name. Then replace
    the manifest in one rename, and only then remove every other file under
    ``blocks/``. A task path that is not one line, or a snapshot whose
    segment or task is not one word, fails before any write. The manifest
    lines that cannot change are rendered once and then reused from their
    block, model or snapshot."""
    text = _render(system, reuse=True)
    blocks_dir = os.path.join(path, "blocks")
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
        os.makedirs(blocks_dir, exist_ok=True)
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


def _build(body: str, records: dict, pack: str, at: list) -> SystemState:
    """The system the manifest body describes. Its lines are taken by kind,
    in file order within a kind, and built in the order their data needs;
    ``at[0]`` is the number of the line last taken. Where a line stands is
    left to the render check."""
    kinds = {}
    for number, line in enumerate(body.splitlines()[1:], 2):
        kind, _, rest = line.partition(" ")
        kinds.setdefault(kind, []).append((number, rest))

    def each(kind):
        for at[0], rest in kinds.get(kind, ()):
            yield rest

    def one(kind):
        for rest in each(kind):
            return rest
        raise CheckpointError(f"the manifest has no {kind!r} line")

    seed, label, counter = one("rng").split()
    rng = Rng(int(seed), label, int(counter))
    s, P, F, _, compute = (word.partition("=")[2] for word in one("score").split())
    score = ScoreParams(float(s), float(P), float(F), compute == "1")
    counters = [int(word.partition("=")[2]) for word in one("counters").split()]
    for name, value in zip(("blocks", "models", "created", "iterations"), counters):
        if value < 0:
            raise ValueError(f"counter {name}= is negative: {value}")
    system = SystemState(SearchSpace([parse_axis_line(rest) for rest in each("axis")]),
                         score, rng)
    system.next_block_id, system.next_model_id, _, system.iterations_done = counters
    for rest in each("task"):
        name, task_path = rest.split(" ", 1)
        system.task_paths[name] = task_path
    for rest in each("block"):
        bid, kind, d_in, d_out, created_by, gen = rest.split()
        if system.blocks and int(bid) <= next(reversed(system.blocks)):
            raise ValueError(f"block {bid} is listed out of id order")
        if int(bid) >= system.next_block_id:
            raise ValueError(f"blocks={system.next_block_id} is not above listed id {bid}")
        if int(bid) not in records:
            raise ValueError(f"block {bid} has no whole record in pack {pack}")
        params, opt = (array.astype(np.float32) for array in records[int(bid)])
        system.blocks[int(bid)] = LayerBlock(int(bid), kind, int(d_in), int(d_out), params,
                                             opt, created_by, int(gen))
    system.settle_ended()

    def entries(kind, sep, pair):
        """Each ``kind`` line's entries after its model id, split in two at ``pair``."""
        for rest in each(kind):
            words, split = rest.partition(" ")[2], []
            for word in words.split(sep) if words else ():
                key, found, value = word.partition(pair)
                if not found:
                    raise ValueError(f"{kind} entry {word!r} has no {pair!r}")
                split.append((key, value))
            yield split

    # a model's layers, hparams and mu lines are the next of their kinds
    layers = [[(int(lid), bool(int(flag))) for lid, flag in pairs]
              for pairs in entries("layers", ",", ":")]
    hparams = [{axis: parse_value(value) for axis, value in pairs}
               for pairs in entries("hparams", ";", "=")]
    mus = [{action: float(value) for action, value in pairs}
           for pairs in entries("mu", ";", "=")]
    for rest, *parts in zip(each("model"), layers, hparams, mus):
        mid, task, parent, _, quality, snap = rest.split()
        if int(mid) >= system.next_model_id:
            raise ValueError(f"models={system.next_model_id} is not above listed id {mid}")
        quality, snap = (None if word == "-" else float(word) for word in (quality, snap))
        try:
            system.commit_model(ModelSpec(int(mid), task, *parts,
                                          None if parent == "-" else int(parent), quality, snap))
        except (SystemError_, SpaceError) as exc:
            raise ValueError(f"model {mid} does not validate: {exc}") from None
    for rest in each("selection"):
        mid, task, count = rest.split()
        if int(count) < 1:
            raise ValueError(f"selection {mid} {task} has a zero or negative count {count}")
        if int(mid) not in system.models:
            raise ValueError(f"selection {mid} names no listed model")
        system.models[int(mid)].selections[task] = int(count)
    for rest in each("evertrain"):
        if not 0 <= int(rest) < system.next_block_id:
            raise ValueError(f"evertrain {rest} names no id below blocks={system.next_block_id}")
        system.ever_trainable.add(int(rest))
    for rest in each("position"):
        seg, done = rest.split()
        if int(done) < 0:
            raise ValueError(f"position {seg} has a negative count {done}")
        system.run_position = (seg, int(done))
    rows = {}
    for rest in each("historytask"):
        idx, task, acc, params, flops = rest.split()
        rows.setdefault(idx, {})[task] = (float(acc), float(params), float(flops))
    for rest in each("history"):
        idx, seg, task, acc, params, flops = rest.split()
        if system.history and int(idx) <= system.history[-1].index:
            raise ValueError(f"history {idx} is listed out of index order")
        system.history.append(MetricsSnapshot(int(idx), seg, task, float(acc), float(params),
                                              float(flops), rows.get(idx, {})))
    return system


def load_checkpoint(path: str) -> SystemState:
    """The system saved at ``path``. The manifest is read once, its lines
    taken by kind, and it loads only if the system they describe renders to
    exactly its text less the placement line; an error names the manifest
    line it comes from, and for a line that is not what the writer writes
    quotes what it writes there. A missing singleton line is named by kind."""
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
    at = [1]
    try:
        system = _build(body, records, pack_name, at)
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"manifest line {at[0]}: {exc}") from None
    if whole != pack_length:
        raise CheckpointError(f"pack {pack_name} has {whole} of its {pack_length} bytes "
                              "in whole records")
    rendered = _render(system, reuse=True)
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
