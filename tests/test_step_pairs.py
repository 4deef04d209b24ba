import json
import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))   # step_pairs imports bench_pairs from beside it
import step_pairs  # noqa: E402


def test_the_summary_adds_the_median_per_round_change_to_the_judged_rounds():
    rounds = [{"parent": {"s": p}, "change": {"s": c}}
              for p, c in ((30.0, 28.0), (31.0, 31.0), (32.0, 33.0), (30.5, 29.0))]
    s = step_pairs.summarize(rounds)["s"]
    assert s["pairs_change_better"] == "2 of 4"   # the tie counts for neither
    assert s["parent_runs"] == [30.0, 31.0, 32.0, 30.5]
    assert s["change_q1_median_q3"][1] == 30.0
    assert s["change_pct"] == pytest.approx((30.0 / 30.75 - 1.0) * 100.0)
    assert s["bound"] == step_pairs.BOUND and not s["claim_met"]
    # per round -6.67 %, 0 %, +3.13 % and -4.92 %: the median is halfway from -4.92 % to 0
    assert s["per_round_change_pct_median"] == pytest.approx(50.0 * (29.0 / 30.5 - 1.0))


def test_a_tree_without_sipm_is_refused(tmp_path):
    with pytest.raises(SystemExit) as err:
        step_pairs.main([str(tmp_path), str(ROOT / "src")])
    assert err.value.code == 2


def test_head_against_head_on_small_shapes(tmp_path, monkeypatch, capsys):
    """The whole tool, one fresh process per tree and round."""
    monkeypatch.setattr(step_pairs, "SHAPES", {
        "quad": ["--model", "quadratic", "--dim", "5", "--maxiter", "20"],
        "stoch": ["--model", "logistic", "--mode", "stoch", "--dim", "5", "--samples", "200",
                  "--epochs", "0.2"],
        "csr-stoch": [*step_pairs.SHAPES["csr-stoch"], "--batch-frac", "0.05"]})
    monkeypatch.setattr(step_pairs, "LIBSVM_SHAPE", (120, 9, 3))
    monkeypatch.setattr(step_pairs, "REPEATS", 1)
    monkeypatch.chdir(tmp_path)
    src = str(ROOT / "src")
    assert step_pairs.main([src, src, "--rounds", "2", "--out", "pairs.json"]) == 0
    summary = json.loads((tmp_path / "pairs.json").read_text())
    assert summary["command"].endswith("--rounds 2")
    assert summary["rounds"] == 2 and summary["repeats"] == 1
    assert list(summary["shapes"]) == ["quad", "stoch", "csr-stoch"]
    printed = capsys.readouterr().out
    for shape, s in summary["shapes"].items():
        assert len(s["parent_runs"]) == len(s["change_runs"]) == 2
        assert all(us > 0.0 for us in s["parent_runs"] + s["change_runs"])
        assert s["pairs_change_better"].endswith("of 2")
        assert shape in printed
    assert not list(tmp_path.glob("report.json"))   # reports stay in the tool's directory


def test_the_csr_shapes_read_an_a1a_like_file(tmp_path):
    """1605 rows of 14 nonzeros over 123 features, both labels present, the
    same text on every write."""
    from sipm import parse_libsvm_file

    src = str(ROOT / "src")
    for name in ("first.libsvm", "second.libsvm"):
        step_pairs._python(src, tmp_path, step_pairs.WRITER, name,
                           json.dumps(step_pairs.LIBSVM_SHAPE))
    text = (tmp_path / "first.libsvm").read_bytes()
    assert text == (tmp_path / "second.libsvm").read_bytes()
    ds = parse_libsvm_file(str(tmp_path / "first.libsvm"))
    assert (len(ds.labels), ds.n_features) == step_pairs.LIBSVM_SHAPE[:2] == (1605, 123)
    assert np.array_equal(np.diff(ds.rows.indptr), np.full(1605, 14))
    assert set(ds.labels) == {-1.0, 1.0}
    for shape in ("csr-det", "csr-stoch"):
        assert step_pairs.LIBSVM_FILE in step_pairs.SHAPES[shape]
