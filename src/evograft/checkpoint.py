"""Checkpointing: the whole system round-trips through a directory bit-exactly.

Layout: a UTF-8 ``manifest`` text file (versioned, fixed line order, floats
written with shortest round-trip repr) plus one append-only block pack,
``blocks/a.pack`` or ``blocks/b.pack``. The pack is a run of block records:
little-endian u64 block id, parameter count and optimizer count, then the
float32 parameters and the float32 optimizer state. The manifest ends with a
placement line, ``pack <name> <length>``, naming the pack and how many of its
bytes belong to this manifest; a later record of an id supersedes an earlier
one, and bytes past the length are ignored. Random streams serialize as
(seed, label, counter), so a resumed run continues the exact stream of the
unbroken one.

A system remembers, per checkpoint path, the placement it last saved or
loaded there (``SystemState.packs``: derived state, never persisted). While
the manifest on disk is still the one that placement belongs to, a save
appends only the blocks the pack lacks and those whose iteration had not
ended at that save or load; a block is only ever written during the
iteration that created it. Otherwise, or once superseded records outweigh
live ones, the save writes every live block into a fresh pack under the
other name. Either way the manifest is replaced in one rename after the pack
is written, so a save stopped at any point leaves a checkpoint that loads as
the old or the new system; what else it leaves, bytes past the placement
length or a stray pack, the next save cuts or removes. ``checkpoint_digest``
hashes what a load reads, so it depends on the system state only.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

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
    pack, the length belonging to the manifest, the blocks whose records in
    it are current, the iterations done then, and the manifest bytes."""

    name: str
    length: int
    blocks: set[int]
    iterations: int
    manifest: bytes = b""


def _opt(value) -> str:
    return "-" if value is None else repr(value)


def _parse_opt(token: str):
    return None if token == "-" else float(token)


def write_manifest(system: SystemState) -> str:
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
    for name in sorted(system.task_paths):
        lines.append(f"task {name} {system.task_paths[name]}")
    for b in system.blocks.values():
        lines.append(f"block {b.id} {b.kind} {b.d_in} {b.d_out} "
                     f"{b.created_by_task} {b.generation_tag}")
    for m in system.models.values():
        parent = "-" if m.parent_id is None else str(m.parent_id)
        lines.append(f"model {m.id} {m.task} {parent} {m.id} "
                     f"{_opt(m.quality)} {_opt(m.score_snapshot)}")
        layers = ",".join(f"{lid}:{int(tr)}" for lid, tr in m.layers)
        lines.append(f"layers {m.id} {layers}")
        hparams = ";".join(f"{axis}={format_value(m.hparams[axis])}"
                           for axis in system.space.axis_names())
        lines.append(f"hparams {m.id} {hparams}")
        mu = ";".join(f"{a.key()}={v!r}" for a, v in
                      sorted(m.mu.items(), key=lambda kv: kv[0].key()))
        lines.append(f"mu {m.id} {mu}")
    for (mid, task) in sorted(system.selection_counts):
        lines.append(f"selection {mid} {task} {system.selection_counts[(mid, task)]}")
    for bid in sorted(system.ever_trainable):
        lines.append(f"evertrain {bid}")
    if system.run_position is not None:
        seg, done = system.run_position
        lines.append(f"position {seg} {done}")
    for snap in system.history:
        lines.append(f"history {snap.index} {snap.segment or '-'} {snap.task or '-'} "
                     f"{snap.mean_test_accuracy!r} {snap.mean_accounted_params!r} "
                     f"{snap.mean_inference_flops!r}")
        for task in sorted(snap.per_task):
            acc, params, flops = snap.per_task[task]
            lines.append(f"historytask {snap.index} {task} {acc!r} {params!r} {flops!r}")
    return "\n".join(lines) + "\n"


def _record_size(block: LayerBlock) -> int:
    return _RECORD_HEAD.size + 4 * (block.params.size + block.opt.size)


def _record(block: LayerBlock) -> bytes:
    return b"".join((_RECORD_HEAD.pack(block.id, block.params.size, block.opt.size),
                     block.params.astype("<f4", copy=False).tobytes(),
                     block.opt.astype("<f4", copy=False).tobytes()))


def _extend(placement: PackPlacement,
            system: SystemState) -> tuple[PackPlacement, list[LayerBlock]]:
    """The placement after appending every live block that the pack lacks or
    whose iteration had not ended when ``placement`` was made, and those
    blocks in id order."""
    added = [block for bid, block in system.blocks.items()
             if bid not in placement.blocks or block.generation_tag >= placement.iterations]
    length = placement.length + sum(_record_size(block) for block in added)
    return PackPlacement(placement.name, length, set(system.blocks),
                         system.iterations_done), added


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
    """Write the system to ``path``, appending to its block pack when it can.

    The pack is appended to when the manifest on disk is the one this system
    last saved or loaded at ``path``. The pack is first cut back to the
    length that manifest's placement line gives, which drops whatever a
    stopped save appended. Otherwise, or when superseded records would
    outweigh live ones, every live block goes into a fresh pack under the
    name the manifest on disk does not use. The new manifest, ending in the
    new placement line, replaces the old one in a single rename after the
    pack is written, and only then is every other file under ``blocks/``
    removed. A save stopped at any point therefore leaves a checkpoint that
    loads as either the old or the new system, plus at most bytes past the
    placement length or a stray pack, which the next save cuts or removes.
    What a load reads, and so ``checkpoint_digest``, depends on the system
    state only, not on the saves that made the directory."""
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
        fresh = PackPlacement(PACK_NAMES[in_use == PACK_NAMES[0]], 0, set(), 0)
        placement, added = _extend(fresh, system)

    pack_path = os.path.join(blocks_dir, placement.name)
    if append:
        os.truncate(pack_path, old.length)
    with open(pack_path, "ab" if append else "wb") as fh:
        for block in added:
            fh.write(_record(block))
    placement.manifest = (write_manifest(system)
                          + f"pack {placement.name} {placement.length}\n").encode("utf-8")
    manifest_tmp = os.path.join(path, "manifest.tmp")
    with open(manifest_tmp, "wb") as fh:
        fh.write(placement.manifest)
    os.replace(manifest_tmp, manifest_path)
    system.packs[os.path.abspath(path)] = placement
    for entry in os.listdir(blocks_dir):
        if entry != placement.name:
            os.remove(os.path.join(blocks_dir, entry))


def _read_pack(path: str, name: str, length: int,
               listed: list[int]) -> tuple[bytes, dict[int, tuple[int, int]]]:
    """Read the pack's first ``length`` bytes once; return them and each
    listed block's last record in them as (offset, size)."""
    try:
        with open(os.path.join(path, "blocks", name), "rb") as fh:
            blob = fh.read(length)
    except FileNotFoundError:
        raise CheckpointError(f"missing block pack {name} under {path}") from None
    found, offset = {}, 0
    while offset + _RECORD_HEAD.size <= len(blob):
        bid, n, m = _RECORD_HEAD.unpack_from(blob, offset)
        size = _RECORD_HEAD.size + 4 * (n + m)
        if offset + size > len(blob):
            break
        found[bid] = (offset, size)
        offset += size
    for bid in listed:
        if bid not in found:
            raise CheckpointError(f"block {bid} has no complete record in pack {name} "
                                  f"({len(blob)} of its {length} bytes read)")
    if offset != length:
        raise CheckpointError(f"pack {name} has {len(blob)} of its {length} bytes, "
                              f"{offset} of them in whole records")
    return blob, {bid: found[bid] for bid in listed}


def _read_manifest(path: str) -> bytes:
    try:
        with open(os.path.join(path, "manifest"), "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise CheckpointError(f"no manifest under {path}") from None


def load_checkpoint(path: str) -> SystemState:
    raw = _read_manifest(path)
    text = raw.decode("utf-8")
    header = (text.splitlines() or [""])[0]
    if header != f"evograft-checkpoint {FORMAT_VERSION}":
        raise CheckpointError(f"unsupported manifest header {header!r}: "
                              f"this reader takes version {FORMAT_VERSION}")
    body, pack_name, pack_length = _split_placement(text)
    lines = body.splitlines()

    rng = None
    score = None
    counters = {}
    axes = []
    task_paths = {}
    block_meta = []
    models: dict[int, dict] = {}
    selection = {}
    ever_trainable = set()
    position = None
    history: dict[int, MetricsSnapshot] = {}

    def model_entry(mid: int) -> dict:
        if mid not in models:
            raise CheckpointError(f"manifest references undeclared model {mid}")
        return models[mid]

    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        key, _, rest = line.partition(" ")
        try:
            if key == "rng":
                seed, label, counter = rest.split()
                rng = Rng(int(seed), label, int(counter))
            elif key == "score":
                fields = dict(tok.split("=", 1) for tok in rest.split())
                if fields["size"] != "1":
                    raise CheckpointError("size= must be 1: the size factor is always on")
                if fields["compute"] not in ("0", "1"):
                    raise CheckpointError(f"compute= must be 0 or 1, not {fields['compute']!r}")
                score = ScoreParams(s=float(fields["s"]), P=float(fields["P"]),
                                    F=float(fields["F"]),
                                    compute_factor_enabled=fields["compute"] == "1")
            elif key == "counters":
                counters = {k: int(v) for k, v in
                            (tok.split("=", 1) for tok in rest.split())}
                for name, value in counters.items():
                    if value < 0:
                        raise CheckpointError(f"counter {name}= is negative: {value}")
            elif key == "axis":
                axes.append(parse_axis_line(rest))
            elif key == "task":
                name, task_path = rest.split(None, 1)
                task_paths[name] = task_path
            elif key == "block":
                bid, kind, d_in, d_out, created_by, gen = rest.split()
                if block_meta and int(bid) <= block_meta[-1][0]:
                    raise CheckpointError(f"block {bid} is listed out of id order")
                block_meta.append((int(bid), kind, int(d_in), int(d_out),
                                   created_by, int(gen)))
            elif key == "model":
                mid, task, parent, created, quality, snap = rest.split()
                if int(mid) in models:
                    raise CheckpointError(f"model {mid} is listed twice")
                if int(created) != int(mid):
                    raise CheckpointError(
                        f"model {mid} has creation index {created}, not its id")
                models[int(mid)] = {
                    "task": task,
                    "parent": None if parent == "-" else int(parent),
                    "quality": _parse_opt(quality),
                    "score": _parse_opt(snap),
                }
            elif key == "layers":
                mid, refs = rest.split(None, 1)
                layers = []
                for tok in refs.split(","):
                    lid, flag = tok.split(":")
                    layers.append((int(lid), bool(int(flag))))
                model_entry(int(mid))["layers"] = layers
            elif key == "hparams":
                mid, body = rest.split(None, 1)
                hp = {}
                for tok in body.split(";"):
                    axis, value = tok.split("=", 1)
                    hp[axis] = parse_value(value)
                model_entry(int(mid))["hparams"] = hp
            elif key == "mu":
                mid, _, body = rest.partition(" ")
                mu = {}
                if body:
                    for tok in body.split(";"):
                        action, value = tok.split("=", 1)
                        mu[MutationAction.parse(action)] = float(value)
                model_entry(int(mid))["mu"] = mu
            elif key == "selection":
                mid, task, count = rest.split()
                if int(count) < 0:
                    raise CheckpointError(f"selection {mid} {task} has a negative count {count}")
                selection[(int(mid), task)] = int(count)
            elif key == "evertrain":
                ever_trainable.add(int(rest))
            elif key == "position":
                seg, done = rest.split()
                if int(done) < 0:
                    raise CheckpointError(f"position {seg} has a negative count {done}")
                position = (seg, int(done))
            elif key == "history":
                idx, seg, task, acc, params, flops = rest.split()
                history[int(idx)] = MetricsSnapshot(
                    index=int(idx), segment="" if seg == "-" else seg,
                    task="" if task == "-" else task,
                    mean_test_accuracy=float(acc),
                    mean_accounted_params=float(params),
                    mean_inference_flops=float(flops))
            elif key == "historytask":
                idx, task, acc, params, flops = rest.split()
                history[int(idx)].per_task[task] = (float(acc), float(params),
                                                    float(flops))
            else:
                raise CheckpointError(f"unknown manifest directive {key!r}")
        except CheckpointError:
            raise
        except Exception as exc:
            raise CheckpointError(f"manifest line {lineno} is corrupt: {exc}") from None

    if rng is None or score is None or not axes:
        raise CheckpointError("manifest is missing rng, score or axis sections")

    system = SystemState(SearchSpace(axes), score, rng)
    system.task_paths = task_paths
    system.selection_counts = selection
    system.ever_trainable = ever_trainable
    system.run_position = position
    system.history = [history[idx] for idx in sorted(history)]
    system.next_block_id = counters.get("blocks", 0)
    system.next_model_id = counters.get("models", 0)
    if counters.get("created", 0) != system.next_model_id:
        raise CheckpointError("created= counter disagrees with models= counter")
    system.iterations_done = counters.get("iterations", 0)

    blob, spans = _read_pack(path, pack_name, pack_length, [meta[0] for meta in block_meta])
    for bid, kind, d_in, d_out, created_by, gen in block_meta:
        offset, _ = spans[bid]
        _, n, m = _RECORD_HEAD.unpack_from(blob, offset)
        offset += _RECORD_HEAD.size
        params = np.frombuffer(blob, "<f4", n, offset).astype(np.float32)
        opt = np.frombuffer(blob, "<f4", m, offset + 4 * n).astype(np.float32)
        try:
            system.blocks[bid] = LayerBlock(bid, kind, d_in, d_out, params, opt,
                                            created_by, gen)
        except SystemError_ as exc:
            raise CheckpointError(f"block {bid} disagrees with the manifest: {exc}") from None

    for mid, entry in models.items():
        for field in ("layers", "hparams", "mu"):
            if field not in entry:
                raise CheckpointError(f"model {mid} is missing its {field} line")
        spec = ModelSpec(id=mid, task=entry["task"], layers=entry["layers"],
                         hparams=entry["hparams"], mu=entry["mu"],
                         parent_id=entry["parent"],
                         quality=entry["quality"], score_snapshot=entry["score"])
        try:
            system.commit_model(spec)
        except (SystemError_, SpaceError) as exc:
            raise CheckpointError(f"model {mid} does not validate: {exc}") from None
    for name, counter, registry in (("blocks", system.next_block_id, system.blocks),
                                    ("models", system.next_model_id, system.models)):
        if registry and counter <= max(registry):
            raise CheckpointError(f"{name}={counter} is not above listed id {max(registry)}")
    system.packs[os.path.abspath(path)] = PackPlacement(
        pack_name, pack_length, set(system.blocks), system.iterations_done, raw)
    return system


def checkpoint_digest(path: str) -> str:
    """SHA-256 over what a load reads: the manifest without its placement
    line, then each listed block's record in id order. It depends on the
    system state only, not on the saves that made the directory."""
    body, name, length = _split_placement(_read_manifest(path).decode("utf-8"))
    listed = [int(line.split()[1]) for line in body.splitlines()
              if line.startswith("block ")]
    blob, spans = _read_pack(path, name, length, listed)
    digest = hashlib.sha256(body.encode("utf-8"))
    for bid in listed:
        offset, size = spans[bid]
        digest.update(blob[offset:offset + size])
    return digest.hexdigest()


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
