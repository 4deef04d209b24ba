import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [0.070, 0.072, 0.071, 0.074, 0.069, 0.073, 0.075, 0.070, 0.072, 0.071]
LOWER = {"bench_s": {"better": "lower", "bound": 0.25}}
HIGHER = {"bench_s": {"better": "higher", "bound": 0.25}}


def runs(parent, change, name="bench_s"):
    """Canned pairs in the shape run_once returns."""
    return [{side: {"metrics": {name: {"value": value, "unit": "s"}}}
             for side, value in (("parent", p), ("change", c))}
            for p, c in zip(parent, change)]


def test_a_change_lower_in_every_pair_by_more_than_the_iqr_meets_the_claim():
    change = [p - 0.006 for p in PARENT]
    s = bench_pairs.summarize(runs(PARENT, change), LOWER)["bench_s"]
    assert s["pairs_change_better"] == "10 of 10"
    assert s["parent_q1_median_q3"] == pytest.approx([0.07, 0.0715, 0.07325])
    assert s["parent_iqr"] == pytest.approx(0.00325)
    assert s["gap"] == pytest.approx(0.006)
    assert s["change_pct"] == pytest.approx(-0.6 / 7.15 * 100)
    assert s["parent_runs"] == PARENT and s["change_runs"] == change
    assert s["claim_met"]


@pytest.mark.parametrize("change, wins", [
    # lower in 8 of 10 pairs by a wide margin: too few pairs
    ([p - 0.01 for p in PARENT[:8]] + [p + 0.001 for p in PARENT[8:]], "8 of 10"),
    # lower in every pair, but the medians differ by less than the parent's IQR
    ([p - 0.001 for p in PARENT], "10 of 10"),
    # nine wins and a tie: the tie counts for neither, and 9 of 10 is enough
    # only with a gap past the IQR, which a 0.0005 s fall does not make
    ([p - 0.0005 for p in PARENT[:9]] + [PARENT[9]], "9 of 10"),
], ids=["eight-wins", "inside-iqr", "tie"])
def test_the_claim_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_iqr(change, wins):
    s = bench_pairs.summarize(runs(PARENT, change), LOWER)["bench_s"]
    assert s["pairs_change_better"] == wins
    assert not s["claim_met"]


def test_nine_wins_and_a_tie_meet_the_claim_with_a_wide_gap():
    change = [p - 0.01 for p in PARENT[:9]] + [PARENT[9]]
    s = bench_pairs.summarize(runs(PARENT, change), LOWER)["bench_s"]
    assert s["pairs_change_better"] == "9 of 10" and s["claim_met"]


def test_a_higher_is_better_metric_is_judged_the_other_way():
    higher = [p + 0.01 for p in PARENT]
    up = bench_pairs.summarize(runs(PARENT, higher), HIGHER)["bench_s"]
    down = bench_pairs.summarize(runs(PARENT, higher), LOWER)["bench_s"]
    assert up["claim_met"] and up["pairs_change_better"] == "10 of 10"
    assert not down["claim_met"] and down["pairs_change_better"] == "0 of 10"


def test_pairs_alternate_which_side_runs_first():
    assert [bench_pairs.pair_order(i) for i in range(4)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent")]


def test_bytecode_is_cleared_in_the_whole_tree(tmp_path):
    for part in ("src/sipm/__pycache__", "perfbench/__pycache__", "tests/__pycache__"):
        (tmp_path / part).mkdir(parents=True)
        (tmp_path / part / "m.cpython-311.pyc").write_bytes(b"\0")
    (tmp_path / "src/sipm/geometry.py").write_text("x = 1\n")
    assert bench_pairs.clear_bytecode(str(tmp_path)) == 3
    assert not list(tmp_path.rglob("__pycache__"))
    assert (tmp_path / "src/sipm/geometry.py").read_text() == "x = 1\n"



# parent median 0.0715 and IQR 0.00325 (4.5 % of it); bound 0.02 of the median is 0.00143
@pytest.mark.parametrize("change, bound, verdict", [
    # 10 % slower in every pair: past a 2 % bound, and past no 25 % one
    ([p * 1.1 for p in PARENT], 0.02, "worse"),
    ([p * 1.1 for p in PARENT], 0.25, "not worse"),
    # 1 % slower: inside the 2 % bound, but the parent's 4.5 % spread is wider
    ([p * 1.01 for p in PARENT], 0.02, "unresolved"),
    ([p * 1.01 for p in PARENT], 0.05, "not worse"),
    # every change run below every parent run settles a wide spread
    ([p - 0.007 for p in PARENT], 0.02, "not worse"),
    # lower in every pair, but its slowest run is above the parent's fastest
    ([p - 0.003 for p in PARENT], 0.02, "unresolved"),
], ids=["worse", "inside-a-wide-bound", "spread-past-the-bound", "spread-inside-the-bound",
        "every-run-better", "pairs-better-runs-overlap"])
def test_each_metric_gets_a_no_regression_verdict(change, bound, verdict):
    metric = {"bench_s": {"better": "lower", "bound": bound}}
    s = bench_pairs.summarize(runs(PARENT, change), metric)["bench_s"]
    assert s["verdict"] == verdict and s["bound"] == bound


def test_the_no_regression_verdict_of_a_higher_is_better_metric():
    metric = {"bench_s": {"better": "higher", "bound": 0.02}}
    down = bench_pairs.summarize(runs(PARENT, [p * 0.9 for p in PARENT]), metric)["bench_s"]
    up = bench_pairs.summarize(runs(PARENT, [p + 0.007 for p in PARENT]), metric)["bench_s"]
    assert down["verdict"] == "worse"
    assert up["verdict"] == "not worse"


def test_a_workload_list_writes_one_block_per_workload(tmp_path, monkeypatch):
    """No perfbench runs: run_once is replaced by canned results."""
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "bench_s", "better": "lower", "bound": 0.25}]}')
    calls = []

    def canned(tree, workload, seed, seconds):
        calls.append((tree, workload, seed))
        value = 0.07 if tree == "parent" else 0.06
        return {"metrics": {"bench_s": {"value": value + 0.001 * seed, "unit": "s"}},
                "correct": True, "failed": 0, "attempted": 5}

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    out = tmp_path / "pairs.json"
    bench_pairs.main(["parent", str(tmp_path), "--workload", "quad-det,nn-audit",
                      "--pairs", "2", "--seconds", "1", "--seed0", "5", "--out", str(out)])
    report = json.loads(out.read_text())
    assert sorted(report["workloads"]) == ["nn-audit", "quad-det"]
    assert calls[:4] == [("parent", "quad-det", 5), (str(tmp_path), "quad-det", 5),
                         (str(tmp_path), "quad-det", 6), ("parent", "quad-det", 6)]
    assert [c[1] for c in calls[4:]] == ["nn-audit"] * 4
    for block in report["workloads"].values():
        assert block["seeds"] == [5, 6] and block["attempted_cells"] == 20
        assert block["metrics"]["bench_s"]["verdict"] == "not worse"
