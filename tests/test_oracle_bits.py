"""The data models' oracles against their plain numpy formulas, bit for bit.

The models evaluate each formula in place, with the ufunc reductions called
directly.  The references below write the same formulas the plain way, with
``np.mean``, ``np.sum`` and one new array per operation.  Each model call
must equal its reference exactly, on dense and CSR data and at hidden widths
1 and the default; the finite-difference tests in test_problems.py check the
same oracles only approximately.
"""

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from sipm import (OneHiddenLayerObjective, batch_sampler, default_hidden_width, gradient_oracle,
                  synthetic_classification)
from sipm.problems import LogisticObjective, _csr_rows, _sigmoid_of_minus

M, N_FEATURES = 60, 7
BATCHES = (np.array([0]), np.array([2, 5, 11, 40]), np.arange(M))


def _data(sparse):
    """Features with about half the entries zero, dense or CSR, and -1/+1 labels."""
    features, labels = synthetic_classification(M, N_FEATURES, seed=3)
    features[np.abs(features) < 0.5] = 0.0
    return (csr_matrix(features) if sparse else features), labels


def _logistic_reference(obj, x, batch=None):
    """(value, gradient) of the logistic model over ``batch`` (all rows if None)."""
    w, b = x[:-1], x[-1]
    if batch is None:
        y = obj.labels
        t = y * (obj.features @ w + b)
        rmatvec = obj._features_t.__matmul__
    elif obj._sparse:
        y = obj.labels[batch]
        pos, cols, vals = _csr_rows(obj.features, batch)
        t = y * (np.bincount(pos, weights=vals * w[cols], minlength=batch.size) + b)

        def rmatvec(c):
            return np.bincount(cols, weights=vals * c[pos], minlength=obj.n_features)
    else:
        y = obj.labels[batch]
        a = obj.features[batch]
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
        a, y01 = obj.features, obj.y01
    else:
        y01 = obj.y01[batch]
        if obj._sparse:
            pos, cols, vals = _csr_rows(obj.features, batch)
            a = np.zeros((batch.size, obj.n_features))
            a[pos, cols] = vals
        else:
            a = obj.features[batch]
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
