import argparse
import dataclasses
import json
import tracemalloc

import pytest

from sipm import cli, harness
from sipm.cli import main


def test_solve_quadratic_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["solve", "--model", "quadratic", "--dim", "2", "--maxiter", "30",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["runs"][0]["solver"] == "sipm"
    assert "error" not in report["runs"][0]


def test_bench_csv_to_stdout(capsys):
    code = main(["bench", "--model", "quadratic", "--dim", "2", "--maxiter", "25",
                 "--solver", "sipm,psgm", "--seeds", "0,1", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("problem,solver,seed")
    assert len(lines) == 5  # header + 2 solvers x 2 seeds


def test_estimate_subcommand(capsys):
    code = main(["estimate", "--model", "quadratic", "--dim", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["constants"]["sigma_inf_bar"] == 0.0
    assert payload["constants"]["ell_f_bar"] > 0.0


def test_estimate_reads_and_writes_the_cache(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    argv = ["estimate", "--model", "quadratic", "--dim", "3", "--cache-dir", str(cache)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert len(list(cache.iterdir())) == 1

    def no_estimate(*args, **kwargs):
        raise AssertionError("the cached constants were estimated again")

    monkeypatch.setattr(harness, "estimate_constants", no_estimate)
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_estimate_failure_is_an_error_line(tmp_path, capsys):
    # the problem's cached constants are cut short, so it has none to print
    argv = ["estimate", "--model", "quadratic", "--dim", "3", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    (cached,) = tmp_path.iterdir()
    cached.write_text('{"ell_f_bar": 1.0,\n')
    capsys.readouterr()
    code = main(argv)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: InvalidConstants: cached constants ")


@pytest.mark.parametrize("argv", [
    ["--model", "quadratic", "--dim", "3", "--maxiter", "20", "--bounds", "0", "1"],
    ["--model", "logistic", "--dim", "3", "--samples", "20", "--maxiter", "20",
     "--bounds", "0.5", "2"],
    ["--model", "logistic", "--dim", "3", "--samples", "20", "--maxiter", "20",
     "--bounds", "-inf", "0.01"],
], ids=["quadratic-0-1", "logistic-0.5-2", "logistic-touching"])
def test_a_box_without_the_start_cube_names_bounds(argv, capsys):
    """x1 is drawn from [-0.01, 0.01]^n; a box that does not hold that cube
    used to exit 0 with a NotInterior row that named no flag."""
    assert main(["bench", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: InvalidSpec: bounds=")
    assert "start cube [-0.01, 0.01]^n" in captured.err


def test_stochastic_epochs_budget(tmp_path):
    out = tmp_path / "r.json"
    code = main(["solve", "--model", "logistic", "--mode", "stoch", "--epochs", "1",
                 "--batch-frac", "0.05", "--dim", "4", "--samples", "40",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["resolved_maxiter"] == 20


def test_parse_check_ok(tmp_path, capsys):
    data = tmp_path / "ok.libsvm"
    data.write_text("+1 1:0.5 3:-1.2\n-1 2:1.0\n")
    assert main(["parse-check", "--train", str(data)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["train"]["m"] == 2
    assert summary["train"]["n_f"] == 3


def test_parse_check_bad_line(tmp_path, capsys):
    data = tmp_path / "bad.libsvm"
    data.write_text("+1 1:0.5\nabc 1:2\n")
    assert main(["parse-check", "--train", str(data)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_parse_check_rejects_non_finite_values(tmp_path, capsys):
    data = tmp_path / "nan.libsvm"
    data.write_text("-1 1:1\n1 1:nan 2:inf\n")
    assert main(["parse-check", "--train", str(data)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "not finite" in err


def test_deterministic_power_schedule_gate(tmp_path):
    # t_theta != t_mu is inadmissible in both settings; the cell records the
    # typed gate error instead of a later neighborhood failure
    out = tmp_path / "r.json"
    assert main(["solve", "--model", "quadratic", "--dim", "2", "--maxiter", "20",
                 "--schedule", "power", "--t-theta", "0.5", "--out", str(out)]) == 0
    (entry,) = json.loads(out.read_text())["runs"]
    assert entry["error"].startswith("InvalidExponents: exponents invalid for the "
                                     "deterministic setting")


@pytest.mark.parametrize("budget", [
    ["--mode", "stoch", "--epochs", "1", "--batch-frac", "0"],
    ["--mode", "stoch", "--epochs", "1", "--batch-frac", "-0.5"],
    ["--mode", "stoch", "--epochs", "0.001"],
    ["--maxiter", "0"],
    ["--schedule", "power", "--maxiter", "0"],
    ["--mode", "det", "--epochs", "3", "--maxiter", "7"],
    ["--mode", "stoch", "--epochs", "nan"],
    ["--mode", "stoch", "--epochs", "inf"],
], ids=["batch-frac-0", "batch-frac-negative", "tiny-epochs", "maxiter-0",
        "power-maxiter-0", "deterministic-epochs", "epochs-nan", "epochs-inf"])
def test_bad_budget_is_a_typed_error(budget, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["bench", "--model", "logistic", "--dim", "3", "--samples", "20",
                 "--out", str(out)] + budget) == 1
    assert capsys.readouterr().err.startswith("error: InvalidBudget: ")
    assert not out.exists()


def test_deterministic_batch_fraction_is_checked(tmp_path, capsys):
    """A deterministic run reads no batch fraction, yet its report and cache
    key keep it; --batch-frac 7 used to exit 0 with batch_fraction: 7."""
    out = tmp_path / "r.json"
    assert main(["bench", "--model", "quadratic", "--dim", "3", "--maxiter", "5",
                 "--batch-frac", "7", "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: InvalidBudget: batch_fraction=7.0 must lie in (0, 1]\n"
    assert not out.exists()


def test_empty_solver_list_is_a_typed_error(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["bench", "--model", "quadratic", "--solver", ",", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: InvalidChoice: solver=")
    assert not out.exists()


SPEC_ERRORS = {  # estimate takes no --seeds; its spec error here is a size
    "solve": (["--dim", "2", "--seeds", "0,0"], "seeds=(0, 0) repeats an entry"),
    "estimate": (["--dim", "0"], "problem 'quadratic': dim=0 must be at least 1"),
    "bench": (["--dim", "2", "--seeds", "0,0"], "seeds=(0, 0) repeats an entry")}


@pytest.mark.parametrize("command", list(SPEC_ERRORS))
def test_spec_error_is_an_error_line(command, tmp_path, capsys):
    out = tmp_path / "r.json"
    flags, message = SPEC_ERRORS[command]
    assert main([command, "--model", "quadratic", *flags, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: InvalidSpec: {message}")
    assert not out.exists()


def test_bad_hidden_width_is_a_typed_error(tmp_path, capsys):
    """The spec rejects the width before the network is built, so the run
    exits 1 instead of writing a report whose only row is the error."""
    out = tmp_path / "r.json"
    assert main(["bench", "--model", "nn", "--hidden", "0", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: InvalidSpec: problem 'nn': hidden=0 must be at least 1\n"
    assert not out.exists()


@pytest.mark.parametrize("model", ["logistic", "quadratic"])
def test_hidden_on_a_model_without_a_hidden_layer_is_a_typed_error(model, tmp_path, capsys):
    """--hidden used to be ignored in silence on these models: the run exited
    0 and the report's config kept a width that no run read."""
    out = tmp_path / "r.json"
    assert main(["bench", "--model", model, "--hidden", "5", "--dim", "3", "--samples", "20",
                 "--maxiter", "5", "--solver", "sipm", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: InvalidSpec: problem '{model}': hidden=5 is a network "
                            f"width, and a {model} model has no hidden layer\n")
    assert not out.exists()


@pytest.mark.parametrize("bounds, message", [
    (["--bounds", "1", "-1"], "bounds=(1.0, -1.0) must be two numbers lo < hi"),
    (["--model", "quadratic", "--bounds", "-1", "inf"],
     "problem 'quadratic': a quadratic's center is drawn inside the box"),
    (["--model", "quadratic", "--bounds", "-inf", "1"],
     "problem 'quadratic': a quadratic's center is drawn inside the box, "
     "so bounds=(-inf, 1.0)"),
], ids=["reversed", "open-quadratic", "open-below-quadratic"])
def test_bad_bounds_are_a_typed_error(bounds, message, tmp_path, capsys):
    """A bad box fails before any problem is built, with exit status 1,
    instead of a report whose rows are untyped numpy errors."""
    out = tmp_path / "r.json"
    assert main(["bench", *bounds, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: InvalidSpec: {message}")
    assert not out.exists()


def test_lower_open_box_runs(tmp_path):
    """argparse reads -inf as an option, so a box open below used to exit 2
    with "expected 2 arguments"; it now reaches the spec as a number."""
    out = tmp_path / "r.json"
    assert main(["bench", "--model", "logistic", "--bounds", "-inf", "1", "--dim", "3",
                 "--samples", "20", "--maxiter", "10", "--solver", "sipm,psgm,proj-ipm",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["bounds"] == ["-inf", 1.0]
    assert len(report["runs"]) == 3 and not any("error" in r for r in report["runs"])


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("bounds, written", [
    (["-inf", "1"], ["-inf", 1.0]), (["-1", "inf"], [-1.0, "inf"])],
    ids=["open-below", "open-above"])
def test_open_box_report_is_strict_json(bounds, written, tmp_path):
    """An open side used to be written as -Infinity or Infinity, which a
    strict JSON parser rejects; it is the string that --bounds reads."""
    out = tmp_path / "r.json"
    assert main(["bench", "--model", "logistic", "--bounds", *bounds, "--dim", "3",
                 "--samples", "20", "--maxiter", "10", "--solver", "sipm,psgm,proj-ipm",
                 "--audit", "full", "--trace", "--out", str(out)]) == 0
    report = json.loads(out.read_text(), parse_constant=_refuse)
    assert report["config"]["bounds"] == written
    assert not any("error" in r for r in report["runs"])


def test_seeds_must_be_integers(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--model", "quadratic", "--seeds", "0,x"])
    assert exit_info.value.code == 2
    assert "--seeds" in capsys.readouterr().err


def test_parse_check_reports_each_files_own_width(tmp_path, capsys):
    train, test = tmp_path / "train.libsvm", tmp_path / "test.libsvm"
    train.write_text("+1 1:0.5 3:-1.2\n-1 2:1.0\n")
    test.write_text("-1 1:2.0\n-1\n")
    assert main(["parse-check", "--train", str(train), "--test", str(test)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"train": {"m": 2, "n_f": 3, "nnz": 3, "labels": [-1.0, 1.0]},
                       "test": {"m": 2, "n_f": 1, "nnz": 1, "labels": [-1.0]},
                       "aligned_n_f": 3}


def test_parse_check_stray_test_label(tmp_path, capsys):
    train, test = tmp_path / "train.libsvm", tmp_path / "test.libsvm"
    train.write_text("+1 1:0.5\n-1 2:1.0\n")
    test.write_text("0 1:2.0\n")
    assert main(["parse-check", "--train", str(train), "--test", str(test)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: LabelMismatch: ")


def test_parse_check_error_names_its_type(tmp_path, capsys):
    data = tmp_path / "bad.libsvm"
    data.write_text("+1 1:0.5\nabc 1:2\n")
    assert main(["parse-check", "--train", str(data)]) == 1
    assert capsys.readouterr().err == "error: MalformedLine: line 2: label 'abc' is not numeric\n"


@pytest.mark.parametrize("args, message", [
    (["--model", "logistic", "--samples", "0"], "problem 'logistic': samples=0"),
    (["--model", "quadratic", "--mode", "stoch", "--samples", "0"],
     "problem 'quadratic': samples=0"),
    (["--model", "quadratic", "--dim", "0"], "problem 'quadratic': dim=0"),
    (["--model", "logistic", "--dim", "0"], "problem 'logistic': dim=0"),
    (["--mode", "stoch", "--seeds", "-1"], "seeds=(-1,): seed=-1"),
    (["--seeds", "0,-1"], "seeds=(0, -1): seed=-1"),
    (["--init-seed", "-1"], "init_seed=-1"),
    (["--data-seed", "-1"], "problem 'quadratic': data_seed=-1"),
], ids=["logistic-samples-0", "stoch-quadratic-samples-0", "quadratic-dim-0",
        "logistic-dim-0", "stoch-seed-negative", "det-seed-negative",
        "init-seed-negative", "data-seed-negative"])
def test_bad_size_or_seed_is_a_typed_error(args, message, tmp_path, capsys):
    """A zero size or a negative seed fails before any problem is built,
    instead of a report whose rows are IndexError, BatchTooLarge or numpy's
    "expected non-negative integer"."""
    out = tmp_path / "r.json"
    assert main(["bench", "--maxiter", "5", *args, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: InvalidSpec: {message} must be at least ")
    assert not out.exists()


def test_nan_theory_exponent_is_a_typed_error(tmp_path, capsys):
    """--t-mu nan used to exit 0 with a report that said param_mode theory
    while the NaN buffers dropped out of min() and the step went unclipped."""
    out = tmp_path / "r.json"
    assert main(["bench", "--model", "quadratic", "--dim", "3", "--maxiter", "30",
                 "--param-mode", "theory", "--t-mu", "nan", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: InvalidSpec: exponents=(nan, -1.0, 0.0) must be ")
    assert not out.exists()


def test_parse_check_names_the_line_of_a_non_ascii_byte(tmp_path, capsys):
    data = tmp_path / "bad.libsvm"
    data.write_bytes(b"+1 1:0.5\n-1 2:1\xff\n")
    assert main(["parse-check", "--train", str(data)]) == 1
    assert capsys.readouterr().err == (
        "error: MalformedLine: line 2: non-ASCII character at column 7\n")


@pytest.mark.parametrize("args", [
    ["parse-check", "--train", "missing.libsvm"],
    ["bench", "--maxiter", "5", "--out", "no/such/dir/r.json"],
], ids=["unreadable-train", "unwritable-out"])
def test_os_error_is_an_error_line(args, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: FileNotFoundError: ")
    assert captured.err.count("\n") == 1


def test_bench_with_missing_train_still_writes_its_error_row(tmp_path):
    out = tmp_path / "r.json"
    assert main(["bench", "--model", "logistic", "--train", str(tmp_path / "missing.libsvm"),
                 "--maxiter", "5", "--out", str(out)]) == 0
    (entry,) = json.loads(out.read_text())["runs"]
    assert entry["error"].startswith("FileNotFoundError: ")


@pytest.mark.parametrize("model, paths, message", [
    ("logistic", ["--test", "t.libsvm"], "'logistic': test_path needs a train_path"),
    ("quadratic", ["--train", "t.libsvm"], "'quadratic': a quadratic reads no data file"),
], ids=["test-without-train", "quadratic-with-train"])
def test_unread_data_path_is_an_error_line(model, paths, message, tmp_path, capsys,
                                           monkeypatch):
    """Both commands used to exit 0, training on synthetic data or running the
    random quadratic, and ignore the file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.libsvm").write_text("1 1:0.5\n-1 2:1.0\n")
    assert main(["bench", "--model", model, *paths, "--maxiter", "5",
                 "--out", "r.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: InvalidSpec: problem {message}") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("cached", ['{"ell_f_bar": 1.0,\n', '{"ell_f_bar": 1.0}'],
                         ids=["truncated", "missing-keys"])
def test_bad_cache_file_is_an_error_line(cached, tmp_path, capsys):
    """JSONDecodeError and TypeError lines that named no file are now one
    InvalidConstants line naming the cache file."""
    cache = tmp_path / "cache"
    argv = ["estimate", "--model", "quadratic", "--dim", "3", "--cache-dir", str(cache)]
    assert main(argv) == 0
    (path,) = cache.iterdir()
    path.write_text(cached)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: InvalidConstants: cached constants {path}: ")
    assert captured.err.count("\n") == 1


def test_overflowing_schedule_is_a_typed_error_row(tmp_path):
    """Every cell of the seed used to read OverflowError: (34, 'Numerical
    result out of range')."""
    out = tmp_path / "r.json"
    assert main(["bench", "--model", "quadratic", "--dim", "3", "--maxiter", "50",
                 "--schedule", "power", "--t-mu", "1000", "--t-theta", "1000",
                 "--solver", "sipm,psgm,proj-ipm", "--out", str(out)]) == 0
    runs = json.loads(out.read_text())["runs"]
    assert [entry["solver"] for entry in runs] == ["sipm", "psgm", "proj-ipm"]
    assert all(entry["error"].startswith("InvalidExponents: mu_k overflows a float at k=3")
               for entry in runs)


@pytest.mark.parametrize("flag", [
    ["--format", "csv"], ["--trace"], ["--audit", "full"], ["--solver", "sipm"],
    ["--schedule", "power"], ["--param-mode", "theory"], ["--t-mu", "-0.5"],
    ["--t-theta", "-0.5"], ["--t-alpha", "-0.1"], ["--seeds", "4,5"]], ids=lambda flag: flag[0])
def test_estimate_rejects_the_flags_it_does_not_read(flag, capsys):
    """estimate used to accept these and ignore them (``--format csv`` still
    printed JSON, ``--seeds 4,5`` was only validated); solve and bench keep them."""
    with pytest.raises(SystemExit) as exit_info:
        main(["estimate", "--model", "quadratic", "--dim", "3", *flag])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    for command in ("solve", "bench"):
        assert cli.build_parser().parse_args([command, *flag]).command == command


def test_estimate_spec_takes_the_spec_defaults(capsys, monkeypatch):
    """Without optional flags, solve, bench and estimate build the spec of
    every ProblemSpec and ExperimentSpec default, but for the flags that carry
    their own: --model (quadratic) and bench's --solver (sipm,psgm); an
    estimate runs no solver."""
    specs = []
    original = cli.run_experiment
    monkeypatch.setattr(cli, "run_experiment",
                        lambda spec, cache_dir: specs.append(spec) or original(spec, cache_dir))
    own = {"solve": {}, "bench": {"solvers": ("sipm", "psgm")}, "estimate": {"solvers": ()}}
    for command, own_defaults in own.items():
        assert main([command]) == 0
        spec = specs.pop()
        (problem,) = spec.problems
        assert (problem.name, problem.model) == ("quadratic", "quadratic")
        for value, expected in ((spec, own_defaults), (problem, {})):
            for field in dataclasses.fields(value):
                if field.default is not dataclasses.MISSING:
                    assert getattr(value, field.name) == expected.get(field.name, field.default), \
                        (command, field.name)


def test_every_spec_field_is_reachable_from_the_cli(tmp_path, monkeypatch):
    """Each spec field with a default has a bench flag that moves it, so the
    spec holds no library-only option; the cache directory is passed beside
    the spec, not in it."""
    calls = []
    monkeypatch.setattr(cli, "run_experiment",
                        lambda spec, cache_dir: calls.append((spec, cache_dir)) or {"runs": []})
    assert main(["bench", "--model", "nn", "--train", "a", "--test", "b", "--dim", "7",
                 "--samples", "9", "--data-seed", "3", "--hidden", "4", "--mode", "stoch",
                 "--epochs", "2", "--maxiter", "7", "--batch-frac", "0.5",
                 "--bounds", "-2", "2", "--init-seed", "5", "--cache-dir", "c",
                 "--solver", "psgm,proj-ipm", "--seeds", "3,4", "--t-mu", "-0.5",
                 "--t-theta", "-0.5", "--t-alpha", "-0.1", "--schedule", "power",
                 "--param-mode", "theory", "--audit", "full", "--trace",
                 "--out", str(tmp_path / "r.json")]) == 0
    ((spec, cache_dir),) = calls
    assert cache_dir == "c"
    (problem,) = spec.problems
    assert (problem.name, problem.model) == ("nn", "nn")
    for value in (spec, problem):
        for field in dataclasses.fields(value):
            if field.default is not dataclasses.MISSING:
                assert getattr(value, field.name) != field.default, field.name


@pytest.fixture(scope="module")
def traced_report(tmp_path_factory):
    """A traced sipm,psgm,proj-ipm report with one error row, from a problem
    whose data file is missing."""
    missing = str(tmp_path_factory.mktemp("data") / "missing.libsvm")
    problems = (harness.ProblemSpec(name="q", model="quadratic", dim=2),
                harness.ProblemSpec(name="gone", model="logistic", train_path=missing))
    report = harness.run_experiment(harness.ExperimentSpec(
        problems=problems, solvers=("sipm", "psgm", "proj-ipm"), maxiter=20, seeds=(0, 1),
        trace=True))
    assert sum("error" in row for row in report["runs"]) == 1
    assert sum("trace" in row for row in report["runs"]) == 2
    return report


@pytest.mark.parametrize("batch", [7, None], ids=["batch-7", "batch-default"])
@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_streamed_report_bytes(fmt, to_file, batch, traced_report, tmp_path, capsys,
                               monkeypatch):
    """A file holds report_to_json's (or report_to_csv's) text; stdout gets
    the same text, ending in one newline; the output opens after the run."""
    out = tmp_path / f"report.{fmt}"

    def finished_run(spec, cache_dir):
        assert spec.trace and spec.solvers == ("sipm", "psgm", "proj-ipm")
        assert not out.exists()
        return traced_report

    monkeypatch.setattr(cli, "run_experiment", finished_run)
    if batch is not None:
        monkeypatch.setattr(cli, "EMIT_BATCH", batch)
    argv = ["bench", "--solver", "sipm,psgm,proj-ipm", "--trace", "--format", fmt]
    assert main(argv + (["--out", str(out)] if to_file else [])) == 0
    text = harness.report_to_json(traced_report) if fmt == "json" \
        else harness.report_to_csv(traced_report)
    written = capsys.readouterr().out
    if to_file:
        assert written == "" and out.read_bytes() == text.encode("ascii")
    else:
        assert written == (text + "\n" if fmt == "json" else text)


def test_estimate_and_parse_check_output_is_unchanged(tmp_path, capsys):
    data = tmp_path / "ok.libsvm"
    data.write_text("+1 1:0.5 3:-1.2\n-1 2:1.0\n")
    out = tmp_path / "out.json"
    for argv in (["estimate", "--model", "quadratic", "--dim", "3"],
                 ["parse-check", "--train", str(data)]):
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert printed == json.dumps(json.loads(printed), sort_keys=True, indent=2) + "\n"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == printed[:-1]


def test_writing_a_report_holds_no_copy_of_its_text(tmp_path):
    """The report used to be rendered into one string before the write; the
    streamed write holds a few thousand chunks at a time."""
    rows = [dict(k=k, mu_k=1.0 / k, theta_k=0.5 / k, alpha_k=0.25, gamma_k=1.0, ell_k=2.0,
                 q_norm=0.1 * k, phi_tilde=-3.0 + k, stalled=False) for k in range(1, 20_001)]
    report = {"config": {}, "constants": {}, "comparisons": [], "timing": {},
              "runs": [{"problem": "q", "solver": "sipm", "seed": 0, "trace": rows}]}
    length = len(harness.report_to_json(report))
    args = argparse.Namespace(format="json", out=str(tmp_path / "report.json"))
    tracemalloc.start()
    try:
        cli._write_report(report, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < length / 4


# every flag of each subcommand, as a full build_parser() registers it
FLAGS = {
    "solve": {"--audit", "--batch-frac", "--bounds", "--cache-dir", "--data-seed", "--dim",
              "--epochs", "--format", "--help", "--hidden", "--init-seed", "--maxiter",
              "--mode", "--model", "--out", "--param-mode", "--samples", "--schedule",
              "--seeds", "--solver", "--t-alpha", "--t-mu", "--t-theta", "--test", "--trace",
              "--train", "-h"},
    "estimate": {"--batch-frac", "--bounds", "--cache-dir", "--data-seed", "--dim", "--epochs",
                 "--help", "--hidden", "--init-seed", "--maxiter", "--mode", "--model",
                 "--out", "--samples", "--test", "--train", "-h"},
    "parse-check": {"--help", "--out", "--test", "--train", "-h"},
}
FLAGS["bench"] = FLAGS["solve"]


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _action_fields(subparser):
    return [(a.option_strings, a.dest, a.default, a.choices, a.nargs, a.type, a.required,
             a.help, a.metavar) for a in subparser._actions]


def test_a_full_parser_registers_every_flag_and_one_command_its_own():
    full = _subparsers(cli.build_parser())
    assert list(full) == ["solve", "estimate", "bench", "parse-check"]
    for name, subparser in full.items():
        assert {o for a in subparser._actions for o in a.option_strings} == FLAGS[name]
        alone = _subparsers(cli.build_parser(name))
        assert list(alone) == list(full)
        assert _action_fields(alone[name]) == _action_fields(subparser)
        assert alone[name].get_default("handler") is subparser.get_default("handler")


def _outcome(call, capsys):
    with pytest.raises(SystemExit) as exit_info:
        call()
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["--help"], ["solve", "--help"], ["estimate", "--help"], ["bench", "--help"],
    ["parse-check", "--help"], ["bench", "--bogus"], ["estimate", "--maxiter", "x"],
    ["parse-check"], ["frobnicate"], []], ids=" ".join)
def test_help_and_parse_errors_match_a_fully_built_parser(argv, capsys):
    """main builds only its command's flags; what it prints and its exit status
    are those of the parser with all four commands."""
    seen = _outcome(lambda: main(argv), capsys)
    assert seen == _outcome(lambda: cli.build_parser().parse_args(argv), capsys)
    assert seen[0] == (0 if "--help" in argv else 2)
    if argv == ["frobnicate"]:
        assert "invalid choice: 'frobnicate'" in seen[2]
