"""The data models' oracles against their plain numpy formulas, bit for bit.

The models evaluate each formula in place, with the ufunc reductions called
directly.  The references below write the same formulas the plain way, with
``np.mean``, ``np.sum`` and one new array per operation.  Each model call
must equal its reference exactly, on dense and CSR data and at hidden widths
1 and the default; the finite-difference tests in test_problems.py check the
same oracles only approximately.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse import csr_matrix

from sipm import (OneHiddenLayerObjective, batch_sampler, default_hidden_width, gradient_oracle,
                  synthetic_classification)
from sipm.problems import (CSR, LogisticObjective, _csr_matmat, _csr_product, _csr_rows,
                           _sigmoid_of_minus, _transpose)

M, N_FEATURES = 60, 7
BATCHES = (np.array([0]), np.array([2, 5, 11, 40]), np.arange(M))


def _data(sparse):
    """Features with about half the entries zero, dense or CSR, and -1/+1 labels."""
    features, labels = synthetic_classification(M, N_FEATURES, seed=3)
    features[np.abs(features) < 0.5] = 0.0
    return (csr_matrix(features) if sparse else features), labels


def _rows(obj):
    """The model's feature matrix: dense, or scipy's CSR matrix of its CSR arrays."""
    if not obj._sparse:
        return obj.features
    a = obj.features
    return csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def _logistic_reference(obj, x, batch=None):
    """(value, gradient) of the logistic model over ``batch`` (all rows if None)."""
    w, b = x[:-1], x[-1]
    if batch is None:
        y = obj.labels
        t = y * (_rows(obj) @ w + b)
        rmatvec = _rows(obj).T.__matmul__
    else:   # scipy's own row slicing and products for CSR rows
        y = obj.labels[batch]
        a = _rows(obj)[batch]
        t = y * (a @ w + b)
        rmatvec = a.T.__matmul__
    value = float(np.mean(np.logaddexp(0.0, -t)))
    coef = _sigmoid_of_minus(t)
    coef *= -y
    g = np.empty(obj.n)
    g[:-1] = rmatvec(coef) / coef.size
    g[-1] = coef.mean()
    return value, g


def _network_reference(obj, x, batch=None):
    """(value, gradient) of the network over ``batch`` (all rows if None)."""
    w1, b1, w2, b2 = obj._unpack(x)
    if batch is None:
        a, y01 = _rows(obj), obj.y01
    else:
        y01 = obj.y01[batch]
        a = _rows(obj)[batch].toarray() if obj._sparse else obj.features[batch]
    z = np.tanh(a @ w1.T + b1)
    s = z @ w2 + b2
    value = float(np.mean(np.logaddexp(0.0, s) - y01 * s))
    ds = np.negative(s)
    _sigmoid_of_minus(ds, out=ds)
    ds -= y01
    ds /= y01.size
    g_w2 = z.T @ ds
    g_b2 = float(np.sum(ds))
    d_pre = np.outer(ds, w2) * (1.0 - z ** 2)
    g_w1 = d_pre.T @ a
    g_b1 = d_pre.sum(axis=0)
    return value, np.concatenate([g_w1.ravel(), g_b1, g_w2, [g_b2]])


MODELS = {
    "logistic": (lambda data: LogisticObjective(*data), _logistic_reference),
    "nn-h1": (lambda data: OneHiddenLayerObjective(*data, 1), _network_reference),
    "nn-default": (lambda data: OneHiddenLayerObjective(*data, None), _network_reference),
}


def _points(n):
    """A few points of every scale, a margin or output large enough to
    saturate the sigmoid among them."""
    rng = np.random.default_rng(8)
    return [np.zeros(n), rng.uniform(-0.1, 0.1, n), rng.normal(size=n),
            rng.normal(scale=40.0, size=n)]


def _same_bits(a, b):
    return np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(a, b)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_full_data_oracles_are_the_plain_formulas_bit_for_bit(model, sparse):
    make, reference = MODELS[model]
    obj = make(_data(sparse))
    if model == "nn-default":
        assert obj.hidden == default_hidden_width(N_FEATURES) > 1
    for x in _points(obj.n):
        value, gradient = reference(obj, x)
        assert obj.value(x) == value
        assert _same_bits(obj.gradient(x), gradient)
        assert obj.value(x) == value   # again, from the kept pass the gradient used


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_mini_batch_gradients_are_the_plain_formulas_bit_for_bit(model, sparse):
    make, reference = MODELS[model]
    obj = make(_data(sparse))
    for x in _points(obj.n):
        for batch in BATCHES:
            _, gradient = reference(obj, x, batch)
            assert _same_bits(obj.stochastic_gradient(x, batch), gradient)


@pytest.mark.parametrize("fraction, size", [(1e-9, 1), (1.0, M)], ids=["size-1", "all-rows"])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_oracle_batches_on_the_dense_take_path_are_the_plain_formulas(model, fraction, size):
    """The dense mini-batch gathers its rows with take: a one-row batch and
    batch_fraction=1, through the stochastic oracle and its shared stream."""
    make, reference = MODELS[model]
    obj = make(_data(False))
    oracles = [gradient_oracle(obj, "stochastic", fraction, 4) for _ in range(2)]
    draws = batch_sampler(M, size, 4)
    for x in _points(obj.n):
        _, gradient = reference(obj, x, next(draws))
        for oracle in oracles:   # the second replays the first one's batch
            assert _same_bits(oracle(x), gradient)


def _kernel_data(index_dtype):
    """Seeded CSR rows with label-only rows, stored -0.0 values, rows of 9 to
    20 nonzeros and indices of ``index_dtype``."""
    rng = np.random.default_rng(21)
    dense = rng.normal(size=(M, N_FEATURES * 3)) * (rng.uniform(size=(M, N_FEATURES * 3)) < 0.2)
    dense[[3, 17, 40]] = 0.0          # label-only rows
    dense[5, :20] = rng.normal(size=20)
    dense[8, 1::2] = rng.normal(size=dense.shape[1] // 2)
    a = csr_matrix(dense)
    a.data[::7] = -0.0                # stored, not dropped
    assert np.signbit(a.data[0]) and np.diff(a.indptr).max() > 8
    a.indptr, a.indices = a.indptr.astype(index_dtype), a.indices.astype(index_dtype)
    return a


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_csr_kernels_are_scipys_operators_bit_for_bit(index_dtype):
    """_csr_product against features @ w, features[rows] @ w and
    features[rows].T @ c, with a strided w and a one-row batch among them."""
    a = _kernel_data(index_dtype)
    m, n_f = a.shape
    rng = np.random.default_rng(22)
    for w in (rng.normal(size=2 * n_f)[::2], rng.normal(scale=30.0, size=n_f)):
        assert _same_bits(_csr_product(a.indptr, a.indices, a.data, a.shape)(w), a @ w)
        for rows in (np.array([5]), np.array([17]), np.array([0, 3, 5, 8, 40, M - 1]),
                     np.sort(rng.choice(m, 25, replace=False)), np.arange(m)):
            batch = _csr_rows(a, rows)
            assert batch[0].dtype == index_dtype and batch[0][-1] == batch[1].size
            c = rng.normal(size=2 * rows.size)[1::2]
            assert _same_bits(_csr_product(*batch, (rows.size, n_f))(w), a[rows] @ w)
            assert _same_bits(_csr_product(*batch, (n_f, rows.size), "csc")(c), a[rows].T @ c)


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_csr_logistic_oracles_on_kernel_data_are_the_plain_formulas(index_dtype):
    obj = LogisticObjective(_kernel_data(index_dtype), _data(True)[1])
    for x in _points(obj.n) + [np.random.default_rng(23).normal(size=2 * obj.n)[::2]]:
        value, gradient = _logistic_reference(obj, x)
        assert obj.value(x) == value and _same_bits(obj.gradient(x), gradient)
        for batch in BATCHES + (np.array([3]), np.array([3, 5, 17])):
            assert _same_bits(obj.stochastic_gradient(x, batch),
                              _logistic_reference(obj, x, batch)[1])


def test_csr_logistic_oracles_skip_scipys_operator_dispatch(monkeypatch):
    """With scipy.sparse's matmul dispatch refusing every call, the CSR
    logistic model's oracles still run, to the same bits."""
    obj = LogisticObjective(*_data(True))
    x = _points(obj.n)[2]
    expected = obj.value(x), obj.gradient(x), obj.stochastic_gradient(x, BATCHES[1])
    obj._pass_key = None   # no kept pass: value computes its margins again

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.sparse's operator dispatch ran")

    for cls in scipy.sparse.csr_matrix.__mro__ + scipy.sparse.csc_matrix.__mro__:
        for name in ("__matmul__", "__rmatmul__", "_matmul_dispatch"):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, refuse)
    with pytest.raises(AssertionError, match="dispatch ran"):
        _rows(obj) @ x[:-1]
    assert obj.value(x) == expected[0]
    assert _same_bits(obj.gradient(x), expected[1])
    assert _same_bits(obj.stochastic_gradient(x, BATCHES[1]), expected[2])


def test_a_batch_of_label_only_rows_gets_the_bias_gradient_alone():
    """A CSR mini-batch with no nonzero: its margins are the bias alone.  When
    the batch products were np.bincount sums, their integer zeros made this
    batch fail with a UFuncTypeError."""
    obj = LogisticObjective(csr_matrix([[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]]), [1.0, -1.0, 1.0])
    x = np.array([0.3, -0.2, 0.1])
    for batch in (np.array([1]), np.array([1, 2])):
        t = obj.labels[batch] * x[-1]
        coef = _sigmoid_of_minus(t) * -obj.labels[batch]
        assert _same_bits(obj.stochastic_gradient(x, batch),
                          np.array([0.0, 0.0, np.add.reduce(coef) / coef.size]))


def _csr(a):
    """The CSR arrays of the scipy matrix ``a``."""
    return CSR(a.indptr, a.indices, a.data, a.shape)


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_network_kernel_products_are_scipys_operators_bit_for_bit(index_dtype):
    """_csr_matmat against a @ w1.T (the forward pass) and d_pre.T @ a (the
    backprop), at hidden widths 1, 2 and 7, with w1.T a transposed view as
    the network passes it."""
    a = _kernel_data(index_dtype)
    m, n_f = a.shape
    rng = np.random.default_rng(24)
    for h in (1, 2, 7):
        for scale in (1.0, 30.0):
            w1 = rng.normal(scale=scale, size=(h, n_f))
            d_pre = rng.normal(scale=scale, size=(m, h))
            assert _same_bits(_csr_matmat(_csr(a), w1.T), a @ w1.T)
            assert _same_bits(_csr_matmat(_csr(a), d_pre, "csc").T, d_pre.T @ a)


@pytest.mark.parametrize("hidden", [1, None], ids=["h1", "default"])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_csr_network_oracles_on_kernel_data_are_the_plain_formulas(index_dtype, hidden):
    obj = OneHiddenLayerObjective(_kernel_data(index_dtype), _data(True)[1], hidden)
    assert obj.features.indices.dtype == index_dtype
    for x in _points(obj.n):
        value, gradient = _network_reference(obj, x)
        assert obj.value(x) == value and _same_bits(obj.gradient(x), gradient)
        for batch in BATCHES + (np.array([3]), np.array([3, 5, 17])):
            assert _same_bits(obj.stochastic_gradient(x, batch),
                              _network_reference(obj, x, batch)[1])


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_the_csr_transpose_is_scipys_byte_for_byte(index_dtype):
    """_transpose (csr_tocsc) against scipy's features.T.tocsr(): the same
    dtypes and bytes in all three arrays, label-only rows and -0.0 included.
    The model's own transpose keeps its index dtype."""
    a = _kernel_data(index_dtype)
    # a csr_array keeps int64 indices, where a csr_matrix's .T casts them to int32
    ours, theirs = _transpose(_csr(a)), scipy.sparse.csr_array(a).T.tocsr()
    assert ours.shape == theirs.shape == a.shape[::-1]
    for name in ("indptr", "indices", "data"):
        mine, scipys = getattr(ours, name), getattr(theirs, name)
        assert mine.dtype == scipys.dtype and mine.tobytes() == scipys.tobytes(), name


LOADER = """
import json, sys
import numpy as np
from sipm.problems import _sparsetools
a = np.array([[0.0, 1.5, -0.0], [2.0, 0.0, 0.5]])
w = np.array([0.25, -3.0, 7.0])
def ours():
    import scipy.sparse
    s = scipy.sparse.csr_matrix(a)
    out = np.zeros(2)
    _sparsetools().csr_matvec(2, 3, s.indptr, s.indices, s.data, w, out)
    return out.tolist(), (s @ w).tolist()
if sys.argv[1] == "kernels-first":
    kernels = _sparsetools()
    alone = sorted(m for m in sys.modules if m.startswith("scipy"))
    import scipy.sparse
else:
    import scipy.sparse
    alone = None
    kernels = _sparsetools()
mine, scipys = ours()
print(json.dumps([alone, kernels.csr_matvec is scipy.sparse._sparsetools.csr_matvec,
                  mine == scipys]))
"""


@pytest.mark.parametrize("order", ["kernels-first", "scipy-first"])
def test_the_kernel_loader_works_with_scipy_sparse_in_either_order(order, tmp_path):
    """_sparsetools loads the extension module alone, leaving no scipy module
    in sys.modules, and scipy.sparse then imports it as usual; or, with
    scipy.sparse imported first, it takes scipy's.  Either way both reach the
    same kernels, and scipy's products keep working, to the same bits."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", LOADER, order], env=env, cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    alone = [] if order == "kernels-first" else None
    assert json.loads(done.stdout) == [alone, True, True]
