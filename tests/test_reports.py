import csv

import numpy as np
import pytest

from evograft.evolution import run_task_iteration
from evograft.reports import emit_reports, least_squares_line

from conftest import make_dataset
from test_evolution import fresh_system, quick_config


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def reported_system(tmp_path):
    system = fresh_system(seed=23)
    ds = make_dataset("t", seed=70)
    run_task_iteration(system, "t", ds, quick_config(), system.rng)
    from evograft.evolution import metrics_snapshot
    system.history.append(metrics_snapshot(system, {"t": ds}, ["t"], "seg", "t"))
    out = tmp_path / "reports"
    emit_reports(system, system.history, str(out))
    return system, out


def test_report_files_and_headers(tmp_path):
    _, out = reported_system(tmp_path)
    expected = {
        "timeline.csv": ["index", "segment", "task", "mean_test_accuracy",
                         "mean_accounted_params", "mean_inference_flops"],
        "timeline_tasks.csv": ["index", "task", "test_accuracy",
                               "accounted_params", "inference_flops"],
        "hparam_hist.csv": ["axis", "value", "count"],
        "clone_mu_depth.csv": ["depth", "mean_mu", "count"],
        "clone_mu_fit.csv": ["slope", "intercept"],
        "mu_hist.csv": ["family", "value", "count"],
    }
    for name, header in expected.items():
        got, _ = read_csv(out / name)
        assert got == header
    assert (out / "system.dot").read_text().startswith("digraph multitask {")


def test_single_model_hparam_histogram_is_a_unit_bin(tmp_path):
    system, out = reported_system(tmp_path)
    model = system.models_for("t")[0]
    _, rows = read_csv(out / "hparam_hist.csv")
    lr_rows = [r for r in rows if r[0] == "learning_rate"]
    assert len(lr_rows) == 1
    assert float(lr_rows[0][1]) == model.hparams["learning_rate"]
    assert lr_rows[0][2] == "1"
    # the untrained root is not part of the distributions
    total = sum(int(r[2]) for r in lr_rows)
    assert total == 1


def test_constant_clone_mu_fits_flat_line(tmp_path):
    system = fresh_system(seed=24)
    ds = make_dataset("t", seed=71)
    run_task_iteration(system, "t", ds, quick_config(), system.rng)
    model = system.models_for("t")[0]
    for action in list(model.mu):
        if action.startswith("clone:"):
            model.mu[action] = 0.24
    out = tmp_path / "flat"
    emit_reports(system, [], str(out))
    _, rows = read_csv(out / "clone_mu_fit.csv")
    slope, intercept = float(rows[0][0]), float(rows[0][1])
    assert slope == 0.0
    assert intercept == pytest.approx(0.24, abs=1e-12)


def test_fit_matches_normal_equations_oracle(tmp_path):
    xs = [0.0, 1.0, 2.0, 3.0, 5.0]
    ys = [0.22, 0.18, 0.2, 0.12, 0.08]
    slope, intercept = least_squares_line(xs, ys)
    design = np.array([[len(xs), sum(xs)], [sum(xs), sum(x * x for x in xs)]])
    rhs = np.array([sum(ys), sum(x * y for x, y in zip(xs, ys))])
    oracle_intercept, oracle_slope = np.linalg.solve(design, rhs)
    assert slope == pytest.approx(oracle_slope, abs=1e-9)
    assert intercept == pytest.approx(oracle_intercept, abs=1e-9)


def test_fit_degenerate_cases():
    assert least_squares_line([], []) == (0.0, 0.0)
    assert least_squares_line([2.0], [0.3]) == (0.0, 0.3)


def test_timeline_matches_history(tmp_path):
    system, out = reported_system(tmp_path)
    header, rows = read_csv(out / "timeline.csv")
    assert len(rows) == len(system.history)
    snap = system.history[0]
    assert rows[0][0] == str(snap.index)
    assert float(rows[0][3]) == snap.mean_test_accuracy
    _, task_rows = read_csv(out / "timeline_tasks.csv")
    assert task_rows[0][1] == "t"


def test_mu_hist_values_are_grid_labels(tmp_path):
    _, out = reported_system(tmp_path)
    _, rows = read_csv(out / "mu_hist.csv")
    families = {r[0] for r in rows}
    assert "clone" in families
    assert any(f.startswith("hparam:") for f in families)
    for r in rows:
        assert float(r[1]) in [round(0.02 * i, 2) for i in range(1, 16)]
