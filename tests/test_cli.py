import os
import shutil
import subprocess
import sys

from evograft import checkpoint, data
from evograft.checkpoint import load_checkpoint, system_digest
from evograft.cli import main
from evograft.search_space import load_builtin_space

from conftest import pinned_space, space_text

GEN_SPEC = """\
task alpha classes=3 h=16 w=16 c=3 train=48 val=24 test=24 noise=0.05
task beta classes=3 h=16 w=16 c=3 train=48 val=24 test=24 noise=0.05
relate alpha beta share=0.5
"""

SEGMENTS = """\
segment tiny
mode munet_plus
s 0.99
recalibrate 10
tasks alpha,beta
iterations 1
generations 1
children 1
cycles 1
"""

# A munet segment, a zero-iteration segment that only switches to munet_plus
# and recalibrates, then a second task segment. That one recalibrates too and
# begins with a task new to the system, so a resume after its first iteration
# that recalibrated again would record a different P.
PLAN = """\
segment base
mode munet
s 0.99
recalibrate 10
tasks alpha
generations 1
children 1
cycles 1

segment switch
mode munet_plus
recalibrate 10
iterations 0

segment extend
recalibrate 10
tasks beta,alpha
generations 1
children 1
cycles 1
"""


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


def setup_workspace(tmp_path, seed=7, tasks=None, space=None):
    os.makedirs(tmp_path, exist_ok=True)
    spec = write(tmp_path / "gen.spec", GEN_SPEC)
    space = write(tmp_path / "space.axes", space_text(space or load_builtin_space("desk")))
    if tasks is None:
        tasks = str(tmp_path / "tasks")
        assert main(["gen-tasks", "--spec", spec, "--seed", "5", "--out", tasks]) == 0
    ckpt = str(tmp_path / "ckpt")
    assert main(["init", "--space", space, "--tasks", tasks, "--seed", str(seed),
                 "--width", "8", "--depth", "2", "--patch", "8", ckpt]) == 0
    return ckpt, tasks, tmp_path


def test_full_cli_flow(tmp_path, capsys):
    ckpt, tasks, root = setup_workspace(tmp_path)
    segments = write(root / "segments.txt", SEGMENTS)

    assert main(["run", "--checkpoint", ckpt, "--segments", segments]) == 0
    system = load_checkpoint(ckpt)
    assert len(system.models_for("alpha")) == 1
    assert len(system.models_for("beta")) == 1
    assert system.run_position == ("tiny", 2)
    assert len(system.history) == 2

    # a second run against the same file is a no-op
    digest = system_digest(load_checkpoint(ckpt))
    assert main(["run", "--checkpoint", ckpt, "--segments", segments]) == 0
    assert system_digest(load_checkpoint(ckpt)) == digest

    out = str(root / "reports")
    assert main(["report", "--checkpoint", ckpt, "--out", out]) == 0
    for name in ("timeline.csv", "hparam_hist.csv", "mu_hist.csv", "system.dot"):
        assert os.path.exists(os.path.join(out, name))
    with open(os.path.join(out, "system.dot")) as fh:
        assert fh.read().startswith("digraph multitask {")

    assert main(["set-scoring", "--checkpoint", ckpt, "--s", "0.9",
                 "--recalibrate", "5"]) == 0
    system = load_checkpoint(ckpt)
    assert system.score_params.s == 0.9
    capsys.readouterr()


def test_cli_resume_matches_straight_run(tmp_path, capsys):
    two_pass = SEGMENTS.replace("iterations 1", "iterations 2")

    ckpt_a, tasks, root_a = setup_workspace(tmp_path / "a")
    seg_full = write(root_a / "full.txt", two_pass)
    assert main(["run", "--checkpoint", ckpt_a, "--segments", seg_full]) == 0

    ckpt_b, _, root_b = setup_workspace(tmp_path / "b", tasks=tasks)
    seg_half = write(root_b / "half.txt", SEGMENTS)
    seg_full_b = write(root_b / "full.txt", two_pass)
    assert main(["run", "--checkpoint", ckpt_b, "--segments", seg_half]) == 0
    assert main(["run", "--checkpoint", ckpt_b, "--segments", seg_full_b]) == 0

    assert system_digest(load_checkpoint(ckpt_a)) == system_digest(load_checkpoint(ckpt_b))
    capsys.readouterr()


class Killed(BaseException):
    """Stands in for a kill: ``main`` does not catch it."""


def run_killed_after(ckpt, segments, monkeypatch, kill_after=None):
    """Run the plan, stopping right after the ``kill_after``-th checkpoint save;
    return the number of saves made."""
    saves = 0
    original = checkpoint.save_checkpoint

    def save(system, path):
        nonlocal saves
        original(system, path)
        saves += 1
        if saves == kill_after:
            raise Killed

    with monkeypatch.context() as m:
        m.setattr(checkpoint, "save_checkpoint", save)
        try:
            assert main(["run", "--checkpoint", ckpt, "--segments", segments]) == 0
        except Killed:
            pass
    return saves


def test_cli_resume_after_kill_at_every_save(tmp_path, monkeypatch, capsys):
    ckpt, tasks, root = setup_workspace(tmp_path / "straight")
    plan = write(root / "plan.txt", PLAN)
    total_saves = run_killed_after(ckpt, plan, monkeypatch)
    assert total_saves == 4  # one per task iteration, then the final save
    assert load_checkpoint(ckpt).run_position == ("extend", 2)
    straight = system_digest(load_checkpoint(ckpt))

    for k in range(1, total_saves + 1):
        ckpt_k, _, _ = setup_workspace(tmp_path / f"kill{k}", tasks=tasks)
        assert run_killed_after(ckpt_k, plan, monkeypatch, kill_after=k) == k
        run_killed_after(ckpt_k, plan, monkeypatch)
        assert system_digest(load_checkpoint(ckpt_k)) == straight, f"killed after save {k}"
    capsys.readouterr()


def test_init_rejects_duplicate_task_names_and_empty_roots(tmp_path, capsys):
    spec = write(tmp_path / "gen.spec", GEN_SPEC)
    space = write(tmp_path / "desk.axes", space_text(load_builtin_space("desk")))
    tasks = str(tmp_path / "tasks")
    assert main(["gen-tasks", "--spec", spec, "--seed", "5", "--out", tasks]) == 0
    shutil.copytree(os.path.join(tasks, "alpha"), os.path.join(tasks, "alpha_again"))
    empty = str(tmp_path / "empty")
    os.makedirs(empty)
    capsys.readouterr()

    for root, reason in ((tasks, "duplicate task name 'alpha'"),
                         (empty, "no task directories")):
        assert main(["init", "--space", space, "--tasks", root, "--seed", "7",
                     str(tmp_path / "ckpt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and reason in err
        assert len(err.strip().splitlines()) == 1


def test_init_rejects_a_task_path_with_a_line_break(tmp_path, capsys):
    spec = write(tmp_path / "gen.spec", GEN_SPEC)
    space = write(tmp_path / "desk.axes", space_text(load_builtin_space("desk")))
    tasks = str(tmp_path / "tasks")
    assert main(["gen-tasks", "--spec", spec, "--seed", "5", "--out", tasks]) == 0
    os.rename(os.path.join(tasks, "alpha"), os.path.join(tasks, "al\npha"))
    capsys.readouterr()
    ckpt = tmp_path / "ckpt"
    assert main(["init", "--space", space, "--tasks", tasks, "--seed", "7",
                 str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "task 'alpha'" in err
    assert len(err.strip().splitlines()) == 1
    assert not ckpt.exists()


def test_add_tasks_registers_new_datasets(tmp_path, capsys):
    ckpt, tasks, root = setup_workspace(tmp_path)
    more = write(root / "more.spec",
                 "task gamma classes=3 h=16 w=16 c=3 train=32 val=16 test=16\n")
    extra = str(root / "extra_tasks")
    assert main(["gen-tasks", "--spec", more, "--seed", "6", "--out", extra]) == 0
    assert main(["add-tasks", "--checkpoint", ckpt, "--tasks", extra]) == 0
    system = load_checkpoint(ckpt)
    assert set(system.task_paths) == {"alpha", "beta", "gamma"}
    capsys.readouterr()

    # the same task name under another directory is not registered twice
    moved = str(root / "moved_tasks")
    assert main(["gen-tasks", "--spec", more, "--seed", "6", "--out", moved]) == 0
    digest = system_digest(load_checkpoint(ckpt))
    capsys.readouterr()
    assert main(["add-tasks", "--checkpoint", ckpt, "--tasks", moved]) == 1
    assert capsys.readouterr().err == "error: task 'gamma' already registered elsewhere\n"
    assert system_digest(load_checkpoint(ckpt)) == digest


def test_add_tasks_rejects_a_different_channel_count(tmp_path, capsys):
    ckpt, _, root = setup_workspace(tmp_path)
    gray = write(root / "gray.spec",
                 "task gray classes=3 h=16 w=16 c=1 train=32 val=16 test=16\n")
    extra = str(root / "gray_tasks")
    assert main(["gen-tasks", "--spec", gray, "--seed", "6", "--out", extra]) == 0
    before = system_digest(load_checkpoint(ckpt))
    capsys.readouterr()
    assert main(["add-tasks", "--checkpoint", ckpt, "--tasks", extra]) == 1
    assert "tasks disagree on channel count: [1, 3]" in capsys.readouterr().err
    assert system_digest(load_checkpoint(ckpt)) == before


def test_init_and_add_tasks_read_each_needed_split_once(tmp_path, monkeypatch, capsys):
    reads = []
    read_split = data.read_split
    monkeypatch.setattr(data, "read_split",
                        lambda path: reads.append(path) or read_split(path))
    ckpt, tasks, root = setup_workspace(tmp_path)
    assert len(reads) == 6 and len(set(reads)) == 6  # 2 tasks x 3 splits

    reads.clear()
    assert main(["add-tasks", "--checkpoint", ckpt, "--tasks", tasks]) == 0
    assert reads == []

    more = write(root / "more.spec",
                 "task gamma classes=3 h=16 w=16 c=3 train=32 val=16 test=16\n")
    assert main(["gen-tasks", "--spec", more, "--seed", "6", "--out", tasks]) == 0
    assert main(["add-tasks", "--checkpoint", ckpt, "--tasks", tasks]) == 0
    assert sorted(os.path.basename(os.path.dirname(p)) for p in reads) == ["gamma"] * 3
    capsys.readouterr()


def test_run_reads_only_the_tasks_its_plan_names(tmp_path, monkeypatch, capsys):
    ckpt, _, root = setup_workspace(tmp_path)
    reads = []
    read_split = data.read_split
    monkeypatch.setattr(data, "read_split",
                        lambda path: reads.append(path) or read_split(path))
    alpha_only = write(root / "alpha.txt", SEGMENTS.replace("alpha,beta", "alpha"))
    assert main(["run", "--checkpoint", ckpt, "--segments", alpha_only]) == 0
    assert sorted(os.path.basename(os.path.dirname(p)) for p in reads) == ["alpha"] * 3

    before = system_digest(load_checkpoint(ckpt))
    capsys.readouterr()
    ghost = write(root / "ghost.txt", SEGMENTS.replace("alpha,beta", "alpha,ghost"))
    assert main(["run", "--checkpoint", ckpt, "--segments", ghost]) == 1
    err = capsys.readouterr().err
    assert "names unknown task 'ghost'" in err and len(err.strip().splitlines()) == 1
    assert system_digest(load_checkpoint(ckpt)) == before


def test_run_rejects_a_bad_plan_before_its_first_iteration(tmp_path, capsys):
    ckpt, _, root = setup_workspace(tmp_path)
    before = system_digest(load_checkpoint(ckpt))
    capsys.readouterr()
    for bad, reason in (
            (SEGMENTS.replace("iterations 1", "iterations -3"), "line 6"),
            (SEGMENTS + "\nsegment more\ntasks alpha\ngenerations 0\n",
             "counts must be positive"),
            (SEGMENTS + "\nsegment more\ntasks alpha\nsamples_cap 0\n",
             "budget fields must be positive"),
            (SEGMENTS + "\nsegment more\ns 1.5\n", "scale factor s"),
            (SEGMENTS + "\nsegment more\nrecalibrate -1\n", "parameter scale P"),
            (SEGMENTS + "\nsegment tiny\ntasks beta\n", "label 'tiny' is repeated")):
        plan = write(root / "bad.txt", bad)
        assert main(["run", "--checkpoint", ckpt, "--segments", plan]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and reason in err, bad
        assert system_digest(load_checkpoint(ckpt)) == before


def test_a_one_value_axis_passes_init_and_run(tmp_path, capsys):
    ckpt, _, root = setup_workspace(tmp_path, space=pinned_space(load_builtin_space("desk")))
    plan = write(root / "plan.txt", SEGMENTS.replace("iterations 1", "iterations 2")
                 .replace("children 1", "children 3"))
    assert main(["run", "--checkpoint", ckpt, "--segments", plan]) == 0
    system = load_checkpoint(ckpt)
    assert system.iterations_done == 4
    assert {model.hparams["momentum"] for model in system.models.values()} == {0.9}
    capsys.readouterr()


def test_failures_exit_nonzero_with_one_line_diagnostic(tmp_path, capsys):
    assert main(["report", "--checkpoint", str(tmp_path / "ghost"), "--out",
                 str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1

    assert main(["gen-tasks", "--spec", str(tmp_path / "none.spec"), "--seed", "1",
                 "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_module_entry_point(tmp_path):
    spec = write(tmp_path / "gen.spec", GEN_SPEC)
    proc = subprocess.run(
        [sys.executable, "-m", "evograft", "gen-tasks", "--spec", spec,
         "--seed", "3", "--out", str(tmp_path / "t")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert data.scan_task_dirs(str(tmp_path / "t")) == {
        name: str(tmp_path / "t" / name) for name in ("alpha", "beta")}
    proc = subprocess.run([sys.executable, "-m", "evograft", "run",
                           "--checkpoint", str(tmp_path / "nope"),
                           "--segments", str(tmp_path / "nope.txt")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.strip().splitlines()) == 1
