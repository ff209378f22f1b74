"""Report emission: metric timelines, hyperparameter and mutation-probability
distributions, clone-probability-by-depth with a fitted line, and the DOT graph.

All CSV schemas are fixed:
  timeline.csv        index,segment,task,mean_test_accuracy,mean_accounted_params,mean_inference_flops
  timeline_tasks.csv  index,task,test_accuracy,accounted_params,inference_flops
  hparam_hist.csv     axis,value,count
  clone_mu_depth.csv  depth,mean_mu,count
  clone_mu_fit.csv    slope,intercept
  mu_hist.csv         family,value,count

Distributions cover the models evolved for real tasks; the untrained root
model is excluded.
"""

from __future__ import annotations

import csv
import os
from collections import Counter, defaultdict

from .search_space import format_value
from .system import ROOT_TASK, SystemState, clone_action


def least_squares_line(xs, ys) -> tuple[float, float]:
    """Slope and intercept minimizing squared distance to the points.

    Degenerate inputs (fewer than two points, or zero x-variance) fit a flat
    line through the mean."""
    n = len(xs)
    if n == 0:
        return 0.0, 0.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        return 0.0, mean_y
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, mean_y - slope * mean_x


def _task_models(system: SystemState):
    return [m for m in system.models.values() if m.task != ROOT_TASK]


def emit_reports(system: SystemState, history, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def csv_file(name, header, rows):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        written.append(path)

    csv_file("timeline.csv",
             ["index", "segment", "task", "mean_test_accuracy",
              "mean_accounted_params", "mean_inference_flops"],
             [[s.index, s.segment, s.task, repr(s.mean_test_accuracy),
               repr(s.mean_accounted_params), repr(s.mean_inference_flops)]
              for s in history])
    csv_file("timeline_tasks.csv",
             ["index", "task", "test_accuracy", "accounted_params",
              "inference_flops"],
             [[s.index, task, repr(acc), repr(params), repr(flops)]
              for s in history
              for task, (acc, params, flops) in sorted(s.per_task.items())])

    models = _task_models(system)

    hparam_rows = []
    for axis in system.space.axis_names():
        counts = Counter(format_value(m.hparams[axis]) for m in models)
        for value in sorted(counts):
            hparam_rows.append([axis, value, counts[value]])
    csv_file("hparam_hist.csv", ["axis", "value", "count"], hparam_rows)

    # every clone action is one family in mu_hist.csv; any other action is its own
    by_depth, mu_counts = defaultdict(list), Counter()
    for model in models:
        clones = [clone_action(depth) for depth in range(len(model.layers) - 1)]
        for depth, action in enumerate(clones):
            if action in model.mu:
                by_depth[depth].append(model.mu[action])
        for action, mu in model.mu.items():
            mu_counts[("clone" if action in clones else action, f"{mu:.2f}")] += 1
    depths = sorted(by_depth)
    means = [sum(by_depth[d]) / len(by_depth[d]) for d in depths]
    csv_file("clone_mu_depth.csv", ["depth", "mean_mu", "count"],
             [[d, repr(mean), len(by_depth[d])] for d, mean in zip(depths, means)])
    slope, intercept = least_squares_line(depths, means)
    csv_file("clone_mu_fit.csv", ["slope", "intercept"],
             [[repr(slope), repr(intercept)]])

    csv_file("mu_hist.csv", ["family", "value", "count"],
             [[family, value, count]
              for (family, value), count in sorted(mu_counts.items())])

    dot_path = os.path.join(out_dir, "system.dot")
    with open(dot_path, "w", encoding="utf-8") as fh:
        fh.write(export_dot(system))
    written.append(dot_path)
    return written


# -- DOT export ---------------------------------------------------------------

_PALETTE = ("#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4", "#46f0f0",
            "#f032e6", "#bcf60c", "#fabebe", "#008080", "#e6beff", "#9a6324",
            "#fffac8", "#800000", "#aaffc3", "#808000", "#ffd8b1", "#000075")


def _task_color(task: str, order: dict[str, int]) -> str:
    if task == ROOT_TASK:
        return "gray"
    return _PALETTE[order[task] % len(_PALETTE)]


def export_dot(system: SystemState) -> str:
    """DOT digraph: triangle inputs, round blocks colored by creating task,
    rectangular heads; edges follow each model's path bottom to top."""
    lines = ["digraph multitask {", "  rankdir=BT;"]
    tasks = system.tasks_with_models()
    order = {t: i for i, t in enumerate(t for t in tasks if t != ROOT_TASK)}
    models = system.models.values()

    for task in tasks:
        lines.append(f'  "in_{task}" [shape=triangle, label="{task}"];')
    seen_blocks = set()
    for model in models:
        for lid in model.layer_ids()[:-1]:
            if lid in seen_blocks:
                continue
            seen_blocks.add(lid)
            block = system.block(lid)
            color = _task_color(block.created_by_task, order)
            lines.append(
                f'  "b{lid}" [shape=ellipse, style=filled, fillcolor="{color}", '
                f'label="{block.kind}{lid}"];')
    for model in models:
        color = _task_color(model.task, order)
        lines.append(
            f'  "head_m{model.id}" [shape=box, style=filled, fillcolor="{color}", '
            f'label="{model.task}:m{model.id}"];')
    for model in models:
        color = _task_color(model.task, order)
        path = model.layer_ids()
        lines.append(f'  "in_{model.task}" -> "b{path[0]}" [color="{color}"];')
        for a, b in zip(path[:-2], path[1:-1]):
            lines.append(f'  "b{a}" -> "b{b}" [color="{color}"];')
        lines.append(f'  "b{path[-2]}" -> "head_m{model.id}" [color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
