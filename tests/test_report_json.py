"""report_to_json and report_json_chunks against the stdlib encoder, byte for byte.

``json.JSONEncoder(sort_keys=True, indent=2)`` is the oracle: the reports'
format is its text.  The fast path writes each container of scalars with one
call of json's C encoder; everything else must come out as the oracle writes
it, or fail with the oracle's error.
"""

import json
import math

import numpy as np
import pytest

from sipm import cli, harness, report_to_json
from sipm.harness import report_json_chunks

ORACLE = json.JSONEncoder(sort_keys=True, indent=2)
SCALARS = (0, 1, -7, 2 ** 70, True, False, None, 0.0, -0.0, 1.5, -1e-300, 5e-324, 1e308,
           math.nan, math.inf, -math.inf, np.float64(0.1), np.float64(-0.0),
           np.float64(math.nan), np.float64(-math.inf), "", "plain", 'quote " and \\ slash',
           "tab\t newline\n nul\x00 unit\x1f", "naïve ∑ \U0001f600", " ")
KEYS = ("a", "b", "k", "mu_k", "", "Z", "été", 'q"uote', "new\nline", "\U0001f600")


def _random_report(rng, depth=0):
    """A nested container of SCALARS under KEYS: lists, tuples and dicts, some
    empty, some of scalars only, at least four levels deep on its first path."""
    if depth >= 4 and (depth >= 6 or rng.random() < 0.4):
        return SCALARS[rng.integers(len(SCALARS))]
    size = int(rng.integers(1 if depth < 4 else 0, 5))
    items = [_random_report(rng, depth + 1) if i == 0 or rng.random() < 0.5
             else SCALARS[rng.integers(len(SCALARS))] for i in range(size)]
    kind = rng.integers(3)
    if kind == 0:
        return items
    if kind == 1:
        return tuple(items)
    return dict(zip(rng.permutation(KEYS)[:size].tolist(), items))


def _depth(o):
    if isinstance(o, dict):
        o = list(o.values())
    if isinstance(o, (list, tuple)):
        return 1 + max(map(_depth, o), default=0)
    return 0


def _both(report):
    """(report_to_json's text, the joined chunks), after checking they agree."""
    text = report_to_json(report)
    assert "".join(report_json_chunks(report)) == text
    return text


@pytest.mark.parametrize("seed", range(60))
def test_random_nested_reports_are_the_stdlib_bytes(seed):
    report = _random_report(np.random.default_rng(seed))
    assert _depth(report) >= 4
    assert _both(report) == ORACLE.encode(report)


def test_every_scalar_and_empty_container_at_every_level():
    report = {"flat": list(SCALARS), "keys": dict(zip(KEYS, SCALARS)), "empty": [{}, [], ()],
              "deep": [[[[{"x": [[], {}], "y": SCALARS[-3:]}]]]], "tuple": tuple(SCALARS[:4])}
    assert _both(report) == ORACLE.encode(report)
    for scalar in SCALARS + ({}, [], ()):
        assert _both(scalar) == ORACLE.encode(scalar)


@pytest.mark.parametrize("report", [
    {1: "int key", 2.5: [1, {"x": 2}]},
    {"outer": [{True: 1, False: [2, 3]}, {None: {"a": {"b": math.nan}}}, {-0.0: [], 1e300: 1}]},
    {"deep": [[{"a": {3: [{"b": 1}]}}]]},
], ids=["int-float", "bool-none-float", "nested"])
def test_other_keys_are_the_stdlib_bytes(report):
    assert _both(report) == ORACLE.encode(report)


def _fails_the_same_way(report):
    with pytest.raises(Exception) as expected:
        ORACLE.encode(report)
    for encode in (report_to_json, lambda r: "".join(report_json_chunks(r))):
        with pytest.raises(type(expected.value)) as got:
            encode(report)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("value", [np.int64(3), np.float32(0.5), np.bool_(True), {1, 2},
                                   object(), np.zeros(2)], ids=lambda v: type(v).__name__)
def test_unknown_types_fail_with_the_stdlib_error(value):
    _fails_the_same_way({"a": [1, {"b": value}]})
    _fails_the_same_way({"flat": value})
    _fails_the_same_way([value])
    _fails_the_same_way(value)


def test_mixed_keys_and_cycles_fail_with_the_stdlib_error():
    _fails_the_same_way({"runs": [{1: "a", "b": 2}]})
    loop = {"a": []}
    loop["a"].append(loop)
    _fails_the_same_way({"top": loop})
    inner = []
    inner.append([inner])
    _fails_the_same_way(inner)


def test_a_traced_cli_report_is_the_stdlib_bytes(tmp_path, monkeypatch):
    """A traced bench of all three solvers, written by the CLI, is the
    oracle's text of the report it wrote."""
    kept = []
    run_experiment = cli.run_experiment

    def keep(spec, cache_dir):
        kept.append(run_experiment(spec, cache_dir))
        return kept[-1]

    monkeypatch.setattr(cli, "run_experiment", keep)
    out = tmp_path / "report.json"
    assert cli.main(["bench", "--model", "logistic", "--dim", "4", "--samples", "40",
                     "--maxiter", "30", "--seeds", "0,1", "--solver", "sipm,psgm,proj-ipm",
                     "--trace", "--audit", "full", "--out", str(out)]) == 0
    (report,) = kept
    assert report["runs"][0]["trace"] and isinstance(report["runs"][0]["trace"][0], dict)
    assert out.read_text(encoding="ascii") == ORACLE.encode(report)
    assert harness.canonical_report_bytes(report) == ORACLE.encode(
        {k: v for k, v in report.items() if k != "timing"}).encode("ascii")
