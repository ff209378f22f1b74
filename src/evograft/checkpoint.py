"""Checkpointing: the whole system round-trips through a directory bit-exactly.

Layout: a UTF-8 ``manifest`` text file (versioned, fixed line order, floats
written with shortest round-trip repr) plus one ``blocks/<id>.bin`` per layer
block. A block file is a little-endian u64 value count, the float32 parameter
payload, another u64 count and the float32 optimizer payload. Random streams
serialize as (seed, label, counter), so a resumed run continues the exact
stream of the unbroken one.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from .evolution import MetricsSnapshot
from .mutations import MutationAction
from .rng import Rng
from .scoring import ScoreParams
from .search_space import (SearchSpace, SpaceError, format_axis_line, format_value,
                           parse_axis_line, parse_value)
from .system import LayerBlock, ModelSpec, SystemError_, SystemState

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


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


def _write_block_file(path: str, block: LayerBlock) -> None:
    with open(path, "wb") as fh:
        fh.write(np.array([block.params.size], dtype="<u8").tobytes())
        fh.write(block.params.astype("<f4", copy=False).tobytes())
        fh.write(np.array([block.opt.size], dtype="<u8").tobytes())
        fh.write(block.opt.astype("<f4", copy=False).tobytes())


def _read_block_file(path: str, block_id: int) -> tuple[np.ndarray, np.ndarray]:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise CheckpointError(f"missing payload file for block {block_id}") from None
    try:
        n = int(np.frombuffer(blob[:8], dtype="<u8")[0])
        m = int(np.frombuffer(blob[8 + 4 * n:16 + 4 * n], dtype="<u8")[0])
    except (ValueError, IndexError):
        raise CheckpointError(f"truncated payload file for block {block_id}") from None
    if len(blob) != 16 + 4 * (n + m):
        raise CheckpointError(f"payload file for block {block_id} has {len(blob)} bytes, "
                              f"its counts need {16 + 4 * (n + m)}")
    params = np.frombuffer(blob, "<f4", n, 8).astype(np.float32)
    opt = np.frombuffer(blob, "<f4", m, 16 + 4 * n).astype(np.float32)
    return params, opt


def save_checkpoint(system: SystemState, path: str) -> None:
    """Write the system to ``path``; stale block payloads are removed so the
    directory is a pure function of the system state.

    The new manifest replaces the old one in a single rename, after every
    block file it references is written and before any block file the old
    one references is removed, so a save stopped at any point leaves a
    checkpoint that loads as either the old or the new system."""
    blocks_dir = os.path.join(path, "blocks")
    os.makedirs(blocks_dir, exist_ok=True)
    for bid, block in system.blocks.items():
        _write_block_file(os.path.join(blocks_dir, f"{bid}.bin"), block)
    manifest_tmp = os.path.join(path, "manifest.tmp")
    with open(manifest_tmp, "w", encoding="utf-8") as fh:
        fh.write(write_manifest(system))
    os.replace(manifest_tmp, os.path.join(path, "manifest"))
    wanted = {f"{bid}.bin" for bid in system.blocks}
    for entry in os.listdir(blocks_dir):
        if entry not in wanted:
            os.remove(os.path.join(blocks_dir, entry))


def load_checkpoint(path: str) -> SystemState:
    manifest_path = os.path.join(path, "manifest")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise CheckpointError(f"no manifest under {path}") from None
    lines = text.splitlines() or [""]
    if lines[0] != f"evograft-checkpoint {FORMAT_VERSION}":
        raise CheckpointError(f"unsupported manifest header {lines[0]!r}: "
                              f"this reader takes version {FORMAT_VERSION}")

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

    blocks_dir = os.path.join(path, "blocks")
    for bid, kind, d_in, d_out, created_by, gen in block_meta:
        params, opt = _read_block_file(os.path.join(blocks_dir, f"{bid}.bin"), bid)
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
    return system


def checkpoint_digest(path: str) -> str:
    """SHA-256 over the manifest and every block payload, in sorted order."""
    digest = hashlib.sha256()
    with open(os.path.join(path, "manifest"), "rb") as fh:
        digest.update(fh.read())
    blocks_dir = os.path.join(path, "blocks")
    if os.path.isdir(blocks_dir):
        for entry in sorted(os.listdir(blocks_dir)):
            digest.update(entry.encode())
            with open(os.path.join(blocks_dir, entry), "rb") as fh:
                digest.update(fh.read())
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
