"""Emit the reporting surfaces: metric timeline, distributions, system graph.

After a short run this writes the CSV reports and the DOT graph, then prints a
few of them. The DOT text renders with any graphviz install
(``dot -Tpng system.dot -o system.png``); triangles are task inputs, ellipses
are layer blocks colored by the task that created them (gray = the untouched
root), boxes are per-task heads.
"""

import os
import tempfile

from evograft import EvolutionConfig, TrainBudget, bootstrap_system, load_builtin_space
from evograft.data import GenSpec, TaskGenSpec, generate_synthetic_tasks, load_task_dir
from evograft.evolution import SegmentSpec, run_segment
from evograft.reports import emit_reports

TASKS = ["ink", "wash"]

with tempfile.TemporaryDirectory() as tmp:
    spec = GenSpec(tasks=[TaskGenSpec(t, classes=3, train=96, val=48, test=48,
                                      noise=0.04) for t in TASKS],
                   relations=[("ink", "wash", 0.34)])
    generate_synthetic_tasks(spec, seed=9, out_dir=f"{tmp}/tasks")
    datasets = {t: load_task_dir(f"{tmp}/tasks/{t}") for t in TASKS}

    system = bootstrap_system(load_builtin_space("desk"), seed=40, width=8,
                              depth=3, patch=8, channels=3)
    cfg = EvolutionConfig(generations=1, children_per_generation=2, train_cycles=2,
                          budget=TrainBudget(batch_size=16))
    run_segment(system, SegmentSpec(label="demo", tasks=TASKS, iterations=2,
                                    s=0.99, recalibrate=10.0),
                datasets, cfg)

    out = f"{tmp}/reports"
    for path in emit_reports(system, system.history, out):
        print("wrote", os.path.basename(path))

    def show(name, heading, lines=None):
        with open(f"{out}/{name}") as fh:
            text = fh.read().strip()
        print(f"\n--- {heading} ---")
        print("\n".join(text.splitlines()[:lines]))

    show("timeline.csv", "timeline.csv")
    show("hparam_hist.csv", "hparam_hist.csv (first lines)", 6)
    show("clone_mu_fit.csv", "clone_mu_fit.csv")
    show("system.dot", "system.dot (head)", 10)
