import importlib.util
import pathlib
import shutil
import subprocess
import sys

import pytest

from sipm import cli

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "report_identity.py"
spec = importlib.util.spec_from_file_location("report_identity", TOOL)
report_identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_identity)


@pytest.mark.parametrize("shape", sorted(report_identity.SHAPES))
@pytest.mark.parametrize("seed", report_identity.SEEDS)
def test_every_shape_parses(shape, seed):
    """Each listed bench argument list is one the CLI accepts, so the list
    cannot drift from the parser."""
    args = cli.build_parser().parse_args(report_identity.bench_argv(shape, seed))
    assert args.command == "bench"
    assert (args.init_seed, args.data_seed) == (seed, seed)


def test_source_lines_count_like_wc(tmp_path):
    """Each tree's sipm/*.py newline total, as ``wc -l`` sums it: a last line
    without a newline does not count, and files outside sipm/*.py are not read."""
    package = tmp_path / "sipm"
    package.mkdir()
    (package / "a.py").write_text("one\ntwo\n")
    (package / "b.py").write_text("three\nfour")
    (package / "notes.txt").write_text("x\n" * 50)
    (tmp_path / "other.py").write_text("y\n" * 50)
    assert report_identity.source_lines(str(tmp_path)) == 3


def _report(objective=0.5, r_p=-0.2, kappa=1.5, extra=None):
    report = {"config": {"bounds": [-1.0, 1.0]},
              "constants": {"lr": {"kappa_inf_bar": kappa, "bootstrap": {"iterations": 500}}},
              "runs": [{"solver": "sipm", "seed": 0, "final_objective_train": objective,
                        "stalls": 0},
                       {"solver": "psgm", "seed": 0, "final_objective_train": 0.6}],
              "comparisons": [{"problem": "lr", "baseline": "psgm", "metric": "m",
                               "seed": 0, "r_p": r_p},
                              {"problem": "lr", "baseline": "psgm", "metric": "n",
                               "seed": 0, "r_p": 0.1}]}
    if extra:
        report["runs"][0].update(extra)
    return report


def test_explain_names_the_largest_drift_and_the_sign_flips():
    """Two reports built in memory: the largest relative change under runs
    and constants, matched by path, and the r_p entries that changed sign."""
    parent = _report()
    change = _report(objective=0.5 * (1 + 1e-9), r_p=0.05, kappa=1.5 * (1 + 4e-12))
    path, drift = report_identity.largest_relative_change(parent, change)
    assert path == "runs[0].final_objective_train"
    assert drift == pytest.approx(1e-9, rel=1e-6)
    assert report_identity.sign_flips(parent, change) == 1
    assert report_identity.explain(parent, change) == (
        "largest relative change 1e-09 at runs[0].final_objective_train; 1 r_p sign flips")


def test_explain_notes_a_structure_change_and_ignores_config():
    """A path on one side only is a structure note, not a drift; numbers
    outside runs and constants, and bools, never count as drift."""
    parent = _report()
    change = _report(extra={"trace": [1.0, 2.0]})
    change["config"]["bounds"] = [-2.0, 1.0]
    assert report_identity.largest_relative_change(parent, change) == (None, 0.0)
    assert report_identity.sign_flips(parent, change) == 0
    assert report_identity.explain(parent, change) == (
        "largest relative change 0 (no number under runs or constants moved); "
        "0 r_p sign flips; structure differs: 0 paths only in parent, "
        "2 only in change (runs[0].trace)")


def test_explain_names_the_keys_on_one_side_only():
    """Up to three of the outermost keys that one side lacks are named, each
    standing for its leaves, so a moved key can be told from a moved value."""
    parent = _report()
    parent["config"]["baselines"] = {"psgm": {"kind": "psgm", "step_schedule": []}}
    for row in parent["runs"]:
        row["schedule_degenerate"] = False
    change = _report(extra={"error": "InvalidExponents: x"})
    assert report_identity.one_sided(parent, change) == [
        "config.baselines", "runs[0].schedule_degenerate", "runs[1].schedule_degenerate"]
    assert report_identity.one_sided(change, parent) == ["runs[0].error"]
    assert report_identity.explain(parent, change).endswith(
        "structure differs: 4 paths only in parent (config.baselines, "
        "runs[0].schedule_degenerate, runs[1].schedule_degenerate), "
        "1 only in change (runs[0].error)")
    parent["runs"].append({"solver": "proj-ipm"})
    assert report_identity.explain(parent, change).endswith(
        "structure differs: 5 paths only in parent (config.baselines, "
        "runs[0].schedule_degenerate, runs[1].schedule_degenerate, ...), "
        "1 only in change (runs[0].error)")


def test_leaves_and_relative_change():
    assert report_identity.leaves({"a": [1, {"b": None}], "c": {}}) == \
        {"a[0]": 1, "a[1].b": None, "c": {}}
    assert report_identity.relative_change(2.0, 1.0) == 0.5
    assert report_identity.relative_change(0.0, -3.0) == 1.0
    assert report_identity.relative_change(float("nan"), float("nan")) == 0.0
    assert report_identity.relative_change(float("inf"), 1.0) == float("inf")
    # a sign flip needs both signs: zero against a sign counts, equal signs do not
    assert report_identity.sign_flips(_report(r_p=0.0), _report(r_p=-1e-3)) == 1
    assert report_identity.sign_flips(_report(r_p=-0.3), _report(r_p=-1e-3)) == 0


TOY_SHAPES = {
    "bad-budget": ["--model", "quadratic", "--maxiter", "0"],
    "tiny": ["--model", "quadratic", "--dim", "2", "--maxiter", "5",
             "--solver", "sipm,psgm,proj-ipm"],
}
SRC = str(TOOL.parents[1] / "src")


def _lines(monkeypatch, capsys, shapes, parent=SRC, change=SRC):
    monkeypatch.setattr(report_identity, "SEEDS", (0,))
    monkeypatch.setattr(report_identity, "SHAPES", {name: TOY_SHAPES[name] for name in shapes})
    status = report_identity.main([parent, change])
    return status, capsys.readouterr().out.splitlines()


def test_failed_bench_is_a_difference_and_the_rest_still_runs(monkeypatch, capsys):
    """A bench that exits non-zero shows each side's exit status in place of
    its report hash and counts as a differing report, and the next shape is
    still compared; the line totals come last."""
    status, lines = _lines(monkeypatch, capsys, ["bad-budget", "tiny"])
    assert status == 1
    assert lines[0].startswith("bad-budget") and lines[0].endswith(
        "report         parent exit 1  change exit 1  DIFFERENT")
    assert lines[1].startswith("tiny") and " report " in lines[1] and lines[1].endswith("same")
    assert lines[-3:-1] == ["1 of 2 reports differ", "0 of 4 calls differ"]
    total = report_identity.source_lines(SRC)
    assert lines[-1] == f"sipm/*.py lines  parent {total}  change {total}  (+0)"


def test_failed_bench_after_a_passing_one_is_not_read_as_its_report(monkeypatch, capsys):
    """Each bench's report file is deleted before it runs, so a bench that
    fails right after one that wrote a report shows its exit status, not
    the report before it."""
    status, lines = _lines(monkeypatch, capsys, ["tiny", "bad-budget"])
    assert status == 1
    reports = [line for line in lines if " report " in line]
    assert reports[0].startswith("tiny") and reports[0].endswith("same")
    assert reports[1].startswith("bad-budget") and reports[1].endswith(
        "parent exit 1  change exit 1  DIFFERENT")
    assert lines[-3] == "1 of 2 reports differ"


def test_every_solver_call_is_hashed_bootstrap_included(monkeypatch, capsys):
    """Every call of harness.run, run_psgm and run_simplified prints the
    sha256 of its final_x, after the shape's report line: the bootstrap's run
    first, then the seed's three solvers."""
    status, lines = _lines(monkeypatch, capsys, ["tiny"])
    assert status == 0
    words = lines[0].split()
    assert words[3] == "report" and words[5] == words[7] and len(words[5]) == 64
    assert [line.split()[4:6] for line in lines[1:5]] == [
        ["1", "run"], ["2", "run"], ["3", "run_psgm"], ["4", "run_simplified"]]
    for line in lines[1:5]:
        words = line.split()
        assert words[7] == words[9] and len(words[7]) == 64 and words[-1] == "same"
    assert lines[5:7] == ["0 of 1 reports differ", "0 of 4 calls differ"]


def test_a_changed_tree_moves_its_report_and_its_calls(monkeypatch, capsys, tmp_path):
    """A copy of the tree that draws the quadratic's center from a smaller
    range moves the report hash, with an explain line under it, and every
    call's final iterate, the bootstrap's first."""
    shutil.copytree(TOOL.parents[1] / "src" / "sipm", tmp_path / "sipm",
                    ignore=shutil.ignore_patterns("__pycache__"))
    harness_py = tmp_path / "sipm" / "harness.py"
    text = harness_py.read_text()
    center = "rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo)"
    assert text.count(center) == 1
    harness_py.write_text(text.replace(center, center.replace("0.2", "0.3")))
    status, lines = _lines(monkeypatch, capsys, ["tiny"], change=str(tmp_path))
    assert status == 1
    assert " report " in lines[0] and lines[0].endswith("DIFFERENT")
    assert lines[1].startswith("    largest relative change ")
    assert len(lines) == 9 and all(line.endswith("DIFFERENT") for line in lines[2:6])
    assert lines[6:8] == ["1 of 1 reports differ", "4 of 4 calls differ"]


def test_a_tree_without_sipm_is_refused(monkeypatch, capsys, tmp_path):
    """A tree path with no sipm/__init__.py exits non-zero before any bench
    runs, even with PYTHONPATH pointing at another tree, whose sipm the
    tree's process would otherwise have imported and compared with itself."""
    monkeypatch.setenv("PYTHONPATH", SRC)
    monkeypatch.setattr(report_identity, "SHAPES", {"tiny": TOY_SHAPES["tiny"]})
    for trees in ([str(tmp_path), SRC], [SRC, str(tmp_path)]):
        with pytest.raises(SystemExit) as err:
            report_identity.main(trees)
        assert err.value.code == 2
        assert f"{tmp_path} has no sipm/__init__.py" in capsys.readouterr().err


def test_the_runner_stops_on_a_sipm_from_another_tree(tmp_path):
    """The runner exits non-zero, running no bench, when the sipm it imports
    does not lie under the tree it was given."""
    tree, work = tmp_path / "tree", tmp_path / "work"
    (tree / "sipm").mkdir(parents=True)
    (tree / "sipm" / "__init__.py").write_text("")
    work.mkdir()
    runner = subprocess.run([sys.executable, "-c", report_identity.RUNNER, "[]", "out.json",
                             str(tree)], env=report_identity._env(SRC), cwd=work,
                            capture_output=True, text=True)
    assert runner.returncode == 1
    assert runner.stderr.endswith(f"not from {tree}\n")
    assert not (work / "out.json").exists()
