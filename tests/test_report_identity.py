import importlib.util
import pathlib

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


def test_failed_bench_is_a_difference_and_the_rest_still_runs(monkeypatch, capsys):
    """A bench that exits non-zero used to abort the whole comparison with a
    CalledProcessError; its line now shows each side's exit status, it counts
    as a difference, and the next shape is still compared."""
    monkeypatch.setattr(report_identity, "SEEDS", (0,))
    monkeypatch.setattr(report_identity, "SHAPES", {
        "bad-budget": ["--model", "quadratic", "--maxiter", "0"],
        "tiny": ["--model", "quadratic", "--dim", "2", "--maxiter", "5"]})
    src = str(TOOL.parents[1] / "src")
    assert report_identity.main([src, src]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("bad-budget") and "parent exit 1  change exit 1" in lines[0]
    assert lines[0].endswith("DIFFERENT")
    assert lines[1].startswith("tiny") and lines[1].endswith("same")
    assert lines[2] == "1 of 2 reports differ"
    total = report_identity.source_lines(src)
    assert lines[3] == f"sipm/*.py lines  parent {total}  change {total}  (+0)"


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
