"""Command-line front end over the library.

Subcommands: init, run, add-tasks, set-scoring, report, gen-tasks.
Exits 0 on success; on failure prints a one-line diagnostic to stderr and
exits nonzero. ``run`` saves the checkpoint after every task iteration and,
rerun against the same segments file, continues from the recorded position.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import checkpoint as ckpt
from .data import (DatasetError, generate_synthetic_tasks, load_gen_spec, load_task_dir,
                   read_task_meta, scan_task_dirs)
from .evolution import EvolutionConfig, bootstrap_system, load_segments, run_plan
from .scoring import calibrate
from .search_space import load_space
from .reports import emit_reports


def _channel_count(datasets) -> int:
    channels = {ds.c for ds in datasets}
    if len(channels) != 1:
        raise DatasetError(f"tasks disagree on channel count: {sorted(channels)}")
    return channels.pop()


def cmd_init(args) -> None:
    space = load_space(args.space)
    paths = scan_task_dirs(args.tasks)
    channels = _channel_count(load_task_dir(path) for path in paths.values())
    system = bootstrap_system(space, args.seed, width=args.width, depth=args.depth,
                              patch=args.patch, channels=channels)
    system.task_paths = paths
    ckpt.save_checkpoint(system, args.out)
    print(f"initialized checkpoint at {args.out} with {len(paths)} task(s)")


def cmd_run(args) -> None:
    system = ckpt.load_checkpoint(args.checkpoint)
    segments = load_segments(args.segments)

    def save_progress(snap):
        ckpt.save_checkpoint(system, args.checkpoint)
        print(f"[{snap.index}] {snap.segment}/{snap.task} "
              f"acc={snap.mean_test_accuracy:.4f} "
              f"params={snap.mean_accounted_params:.1f} "
              f"flops={snap.mean_inference_flops:.0f}")

    # A task the plan names but the checkpoint lacks fails in run_plan's check.
    named = {name for segment in segments for name in segment.tasks}
    datasets = {name: load_task_dir(system.task_paths[name])
                for name in sorted(named) if name in system.task_paths}
    run_plan(system, segments, datasets, EvolutionConfig(), on_iteration=save_progress)
    ckpt.save_checkpoint(system, args.checkpoint)
    print(f"run complete: {system.iterations_done} task iteration(s) total")


def cmd_add_tasks(args) -> None:
    system = ckpt.load_checkpoint(args.checkpoint)
    added = {}
    for name, path in scan_task_dirs(args.tasks).items():
        if name in system.task_paths:
            if os.path.abspath(system.task_paths[name]) != os.path.abspath(path):
                raise DatasetError(f"task {name!r} already registered elsewhere")
            continue
        added[name] = path
    _channel_count([read_task_meta(path) for path in system.task_paths.values()]
                   + [load_task_dir(path) for path in added.values()])
    system.task_paths.update(added)
    ckpt.save_checkpoint(system, args.checkpoint)
    print(f"registered {len(added)} new task(s)")


def cmd_set_scoring(args) -> None:
    system = ckpt.load_checkpoint(args.checkpoint)
    system.score_params = replace(system.score_params, s=args.s)
    if args.recalibrate is not None:
        system.score_params = calibrate(system, args.recalibrate)
    ckpt.save_checkpoint(system, args.checkpoint)
    sp = system.score_params
    print(f"scoring set: s={sp.s} P={sp.P:.6g} F={sp.F:.6g}")


def cmd_report(args) -> None:
    system = ckpt.load_checkpoint(args.checkpoint)
    written = emit_reports(system, system.history, args.out)
    print(f"wrote {len(written)} report file(s) to {args.out}")


def cmd_gen_tasks(args) -> None:
    spec = load_gen_spec(args.spec)
    paths = generate_synthetic_tasks(spec, args.seed, args.out)
    print(f"generated {len(paths)} task(s) under {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evograft")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a fresh system checkpoint")
    p.add_argument("--space", required=True, help="axis table file")
    p.add_argument("--tasks", required=True, help="directory of task datasets")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--patch", type=int, default=8)
    p.add_argument("out", help="checkpoint directory to create")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("run", help="run a segment file against a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--segments", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("add-tasks", help="register additional task datasets")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tasks", required=True)
    p.set_defaults(func=cmd_add_tasks)

    p = sub.add_parser("set-scoring", help="set the scale factor, optionally recalibrate P/F")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--recalibrate", type=float, default=None)
    p.set_defaults(func=cmd_set_scoring)

    p = sub.add_parser("report", help="emit CSV reports and the DOT graph")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gen-tasks", help="generate synthetic task datasets")
    p.add_argument("--spec", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_tasks)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
