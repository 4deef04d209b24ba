"""The CSR data path: LIBSVM rows stay sparse from the parser to the oracles.

Dense and CSR feature matrices of the same data must give the same values
and gradients up to round-off, and a dense run must never import
scipy.sparse.  ``import sipm``, quadratic runs and dense data models import
no scipy at all; only sparse input loads scipy.sparse, and no module of the
package imports scipy.special.
"""

import ast
import json
import os
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse
from numpy.testing import assert_allclose

from sipm import (LogisticObjective, OneHiddenLayerObjective, align_feature_space,
                  logistic_objective, nn_objective, parse_libsvm)
from sipm.cli import main
from sipm.problems import _labeled_data

# row 3 has no features; the test split's index 9 widens the training width 7
TRAIN = ("+1 1:0.5 3:-1.2 7:0.25\n-1 2:1.0 5:-0.75\n-1\n+1 1:-0.3 4:2.0 6:0.1\n"
         "-1 3:0.9 7:-1.1\n+1 2:-0.4 4:0.6 5:1.3\n")
TEST = "-1 1:0.2 9:1.5\n+1\n+1 4:-0.7 8:0.05\n"

MODELS = {"logistic": lambda a, y: LogisticObjective(a, y),
          "nn": lambda a, y: OneHiddenLayerObjective(a, y, 3)}


def aligned():
    return align_feature_space(parse_libsvm(TRAIN), parse_libsvm(TEST))


def densify(ds):
    """The rows of a SparseDataset written into a dense (m, n_features) array."""
    out = np.zeros((ds.m, ds.n_features))
    for r, row in enumerate(ds.rows):
        for index, value in row:
            out[r, index - 1] = value
    return out


def test_to_arrays_is_csr_with_the_parsed_nonzeros():
    train, test = aligned()
    for ds in (train, test):
        features, _ = ds.to_arrays()
        assert scipy.sparse.issparse(features) and features.format == "csr"
        assert features.shape == (ds.m, 9)
        assert features.nnz == sum(len(row) for row in ds.rows)
        assert np.array_equal(features.toarray(), densify(ds))
    assert train.to_arrays()[0][2].nnz == 0


@pytest.mark.parametrize("model", sorted(MODELS))
def test_dense_and_csr_oracles_agree(model):
    rng = np.random.default_rng(3)
    for ds in aligned():
        csr, labels = ds.to_arrays()
        sparse_obj = MODELS[model](csr, labels)
        dense_obj = MODELS[model](densify(ds), labels)
        assert scipy.sparse.issparse(sparse_obj.features)
        assert isinstance(dense_obj.features, np.ndarray)
        for _ in range(3):
            x = rng.uniform(-0.5, 0.5, size=dense_obj.n)
            assert abs(sparse_obj.value(x) - dense_obj.value(x)) <= 1e-12
            assert_allclose(sparse_obj.gradient(x), dense_obj.gradient(x),
                            rtol=0.0, atol=1e-12)
            # the empty row of the training split sits in this batch
            batch = np.array([0, 2]) if ds.m > 3 else np.array([1, 2])
            assert_allclose(sparse_obj.stochastic_gradient(x, batch),
                            dense_obj.stochastic_gradient(x, batch), rtol=0.0, atol=1e-12)


def test_csr_logistic_batch_mean_is_the_full_gradient():
    train, _ = aligned()
    objective = logistic_objective(train)
    assert scipy.sparse.issparse(objective.features)
    x = np.random.default_rng(5).uniform(-0.5, 0.5, size=objective.n)
    batches = list(combinations(range(train.m), 4))
    mean = sum(objective.stochastic_gradient(x, np.array(b)) for b in batches) / len(batches)
    assert np.max(np.abs(mean - objective.gradient(x))) <= 1e-12


@pytest.mark.parametrize("to_sparse", [scipy.sparse.csr_matrix, scipy.sparse.coo_array],
                         ids=["csr_matrix", "coo_array"])
def test_as_arrays_accepts_a_sparse_pair(to_sparse):
    dense = np.array([[0.0, 1.5], [2.0, 0.0], [0.0, 0.0]])
    features, labels = _labeled_data(to_sparse(dense), [0, 1, 1])
    assert features.format == "csr" and features.dtype == float
    assert_allclose(features.toarray(), dense)
    assert_allclose(labels, [-1.0, 1.0, 1.0])
    x = np.array([0.3, -0.2, 0.1])
    assert logistic_objective((to_sparse(dense), [0, 1, 1])).value(x) \
        == logistic_objective((dense, [0, 1, 1])).value(x)


@pytest.mark.parametrize("model", ["logistic", "nn"])
def test_cli_bench_on_libsvm_files(model, tmp_path):
    train, test, out = (tmp_path / "train.libsvm", tmp_path / "test.libsvm",
                        tmp_path / "report.json")
    train.write_text(TRAIN)
    test.write_text(TEST)
    assert main(["bench", "--model", model, "--train", str(train), "--test", str(test),
                 "--solver", "sipm,psgm", "--seeds", "0,1", "--maxiter", "30",
                 "--out", str(out)]) == 0
    runs = json.loads(out.read_text())["runs"]
    assert len(runs) == 4
    for entry in runs:
        assert "error" not in entry
        assert np.isfinite(entry["final_objective_test"])


def _run_python(code, cwd):
    """Run ``code`` in a fresh interpreter on this checkout's sources; its
    last line of output, read as JSON."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, cwd=cwd)
    return json.loads(done.stdout.strip().splitlines()[-1])


SCIPY_MODULES = ("import json, sys\n"
                 "def scipy_modules():\n"
                 "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n")


def test_dense_path_does_not_import_scipy_sparse(tmp_path):
    quadratic = (SCIPY_MODULES +
                 "import sipm, sipm.cli\n"
                 "seen = [scipy_modules()]\n"
                 "seen.append(sipm.cli.main(['bench', '--model', 'quadratic', '--dim', '3',\n"
                 "    '--maxiter', '20', '--solver', 'sipm,psgm,proj-ipm', '--out', 'r.json']))\n"
                 "seen.append(scipy_modules())\n"
                 "print(json.dumps(seen))\n")
    assert _run_python(quadratic, tmp_path) == [[], 0, []]
    assert (tmp_path / "r.json").exists()
    # a dense data model loads no scipy module, neither when it is built nor
    # at its gradients: the sigmoid is numpy's
    for build in ("sipm.logistic_objective(data)", "sipm.nn_objective(data, hidden=2)"):
        data_model = (SCIPY_MODULES +
                      "import sipm\n"
                      "data = sipm.synthetic_classification(20, 3)\n"
                      f"model = {build}\n"
                      "seen = [scipy_modules()]\n"
                      "model.value([0.0] * model.n)\n"
                      "model.gradient([0.0] * model.n)\n"
                      "model.stochastic_gradient([0.0] * model.n, [0, 3])\n"
                      "seen.append(scipy_modules())\n"
                      "print(json.dumps(seen))\n")
        assert _run_python(data_model, tmp_path) == [[], []], build


def test_the_package_runs_without_scipy(tmp_path):
    """scipy is the optional ``sparse`` extra: with it blocked, ``import sipm``,
    a dense logistic bench and parse-check work, a LIBSVM bench records the
    ModuleNotFoundError in its error row, and estimate on LIBSVM exits 1."""
    (tmp_path / "train.libsvm").write_text(TRAIN)
    (tmp_path / "test.libsvm").write_text(TEST)
    libsvm = "'--train', 'train.libsvm', '--test', 'test.libsvm'"
    blocked = ("import json, sys\n"
               "sys.modules['scipy'] = None   # any scipy import now fails\n"
               "import sipm.cli\n"
               "print(json.dumps([sipm.cli.main(argv) for argv in (\n"
               "    ['bench', '--model', 'logistic', '--dim', '3', '--samples', '30',\n"
               "     '--maxiter', '20', '--out', 'dense.json'],\n"
               f"    ['parse-check', {libsvm}, '--out', 'check.json'],\n"
               f"    ['bench', '--model', 'logistic', {libsvm}, '--maxiter', '20',\n"
               "     '--out', 'sparse.json'],\n"
               "    ['estimate', '--model', 'logistic', '--train', 'train.libsvm'])]))\n")
    assert _run_python(blocked, tmp_path) == [0, 0, 0, 1]
    dense = json.loads((tmp_path / "dense.json").read_text())["runs"]
    assert dense and all("error" not in entry for entry in dense)
    assert json.loads((tmp_path / "check.json").read_text())["train"]["m"] == 6
    sparse = json.loads((tmp_path / "sparse.json").read_text())["runs"]
    assert sparse and all(entry["error"].startswith("ModuleNotFoundError")
                          for entry in sparse)


def _imports_scipy_at_import_time(tree):
    """The scipy imports a module runs when it is imported: every import
    statement outside a function body (module level, under an if or try,
    or in a class body)."""
    found = []
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] == "scipy":
                found.append(node.module)
        pending.extend(ast.iter_child_nodes(node))
    return found


def test_import_loads_neither_hashlib_nor_csv(tmp_path):
    """hashlib, which loads OpenSSL, served only the --cache-dir key and csv
    only report_to_csv, yet every CLI process imported both; each is now
    imported where it is used."""
    code = ("import json, sys\n"
            "import sipm, sipm.cli\n"
            "print(json.dumps(sorted({'hashlib', '_hashlib', 'csv'} & set(sys.modules))))\n")
    assert _run_python(code, tmp_path) == []


def _package_trees():
    """{file name: parsed module} of every src/sipm/*.py."""
    package = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src", "sipm")
    trees = {}
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            trees[name] = ast.parse(handle.read(), name)
    assert "problems.py" in trees and "libsvm.py" in trees
    return trees


def _imports_scipy_special(tree):
    """Line numbers of every import of scipy.special or of a name from it,
    in any scope, function bodies included."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(name == "scipy.special" or name.startswith("scipy.special.")
               for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_sipm_module_imports_scipy_special():
    """The sigmoid is numpy's, so no module needs scipy.special, not even
    inside a function."""
    offenders = {name: lines for name, tree in _package_trees().items()
                 if (lines := _imports_scipy_special(tree))}
    assert offenders == {}


def test_scipy_special_scan_sees_every_form():
    code = ("import numpy\n"
            "def f():\n    from scipy.special import expit\n"
            "def g():\n    import scipy.special as sp\n"
            "from scipy import special\n"
            "import scipy.special._ufuncs\n"
            "from scipy.sparse import csr_matrix\n"
            "import scipy.specialty\n")
    assert _imports_scipy_special(ast.parse(code)) == [3, 5, 6, 7]


def test_no_sipm_module_imports_scipy_at_import_time():
    offenders = {name: found for name, tree in _package_trees().items()
                 if (found := _imports_scipy_at_import_time(tree))}
    assert offenders == {}


UNTYPED = ("ValueError", "TypeError")


def _untyped_raises(tree):
    """Line numbers of ``raise ValueError(...)`` and ``raise TypeError(...)``,
    called or bare, anywhere in a module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in UNTYPED:
                lines.append(node.lineno)
    return lines


def test_every_raise_in_the_package_is_a_typed_error():
    """Each error the package raises is a SipmError; input errors are also
    ValueErrors through their class, never a bare ValueError or TypeError."""
    offenders = {name: lines for name, tree in _package_trees().items()
                 if (lines := _untyped_raises(tree))}
    assert offenders == {}


def test_raise_scan_sees_untyped_raises():
    code = ("def f(x):\n"
            "    if x:\n        raise ValueError('x')\n"
            "    try:\n        pass\n    except KeyError:\n        raise TypeError\n"
            "    raise errors.DomainError('x')\n")
    assert _untyped_raises(ast.parse(code)) == [3, 7]


def test_import_scan_sees_nested_scipy_imports():
    code = ("import numpy\n"
            "try:\n    from scipy.special import expit\nexcept ImportError:\n    pass\n"
            "class A:\n    import scipy.sparse as sp\n"
            "def f():\n    import scipy.linalg\n")
    assert sorted(_imports_scipy_at_import_time(ast.parse(code))) == \
        ["scipy.sparse", "scipy.special"]
