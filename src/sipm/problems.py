"""Objectives with exact gradients and mini-batch stochastic gradient oracles.

Three models: a synthetic separable quadratic, binary logistic regression,
and a one-hidden-layer tanh network with a sigmoid output trained under
cross-entropy.  Every model exposes ``value``, ``gradient``, and
``stochastic_gradient(x, batch)`` where the batch is an index set into the
samples; averaging the stochastic gradient over all batches of a fixed size
reproduces the full gradient exactly because batches are uniform subsets
drawn without replacement.  The two data models take their feature matrix
dense or as a scipy.sparse matrix, which they keep in CSR form; the data
type picks the path.  Both take any two label values and share one intake,
``_DataModel.__init__``, which runs ``_labeled_data``.  Each keeps its last
full-data pass, keyed on the bytes of x: the network's hidden activations
and outputs, the logistic model's margins, shared by ``value`` and
``gradient`` at one point; mini-batch passes are never kept, and dense ones
gather their rows with ``ndarray.take``.  A stochastic ``gradient_oracle``
keeps its seed's batch draws on the objective (``_shared_batches``).  Both
sigmoids are numpy's, through ``_sigmoid_of_minus``, so only sparse input
loads scipy, and then only scipy.sparse: ``import sipm``, quadratic runs and
dense data models load no scipy at all.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

from .errors import (BatchTooLarge, DimensionMismatch, DomainError, InvalidBudget,
                     InvalidChoice, LabelMismatch, NonFiniteGradient, NotBinary)

MODES = ("deterministic", "stochastic")


class Objective:
    """Interface shared by all models: dimension n, sample count, oracles."""

    n = 0
    sample_count = 1

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    def stochastic_gradient(self, x, batch):
        raise NotImplementedError


def _check_dim(x, n):
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatch(f"expected a vector of length {n}, got shape {x.shape}")
    return x


def map_labels(labels, order=None):
    """Map finite labels to -1/+1, ``order[0]`` to -1 and ``order[1]`` to +1; the order
    defaults to the sorted distinct labels, and a label outside it raises LabelMismatch.
    A given order that is not two distinct finite values raises NotBinary naming it."""
    labels = np.asarray(labels, dtype=float)
    if not np.isfinite(labels).all():
        raise NotBinary("labels must be finite")
    if order is None:
        order = np.unique(labels)
        if order.size != 2:
            raise NotBinary(f"need exactly two distinct label values, got {order.size}")
    else:
        order = np.asarray(order, dtype=float)
        if order.shape != (2,) or not np.isfinite(order).all() or order[0] == order[1]:
            raise NotBinary(f"label order {order.tolist()} must be two distinct finite values")
    stray = np.setdiff1d(labels, order)
    if stray.size:
        raise LabelMismatch(f"labels {stray.tolist()} are not in the order {order.tolist()}")
    return np.where(labels == order[0], -1.0, 1.0)


def _labeled_data(features, labels):
    """The one intake of both data models: a finite float feature matrix (CSR
    for any scipy.sparse input, dense otherwise) of shape (m, n_f) with m >= 1,
    and one label per row, mapped to -1/+1 by map_labels unless it is -1/+1
    already.  Only sparse input loads scipy (scipy.sparse).  A NaN or infinite
    feature raises DomainError naming its 0-based row."""
    sparse = hasattr(features, "tocsr")   # any scipy.sparse matrix or array
    if sparse:
        from scipy.sparse import csr_matrix

        features = csr_matrix(features, dtype=float)
    else:
        features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if features.ndim != 2 or labels.shape != (features.shape[0],):
        raise DimensionMismatch("features must be (m, n_f) with one label per row")
    if features.shape[0] == 0:
        raise DimensionMismatch("features have no rows")
    finite = np.isfinite(features.data if sparse else features)
    if not finite.all():
        rows = features.tocoo().row[~finite] if sparse else np.argwhere(~finite)[:, 0]
        raise DomainError(f"feature row {rows[0]} holds a non-finite value")
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        labels = map_labels(labels)
    return features, labels


@np.errstate(over="ignore")   # exp(u) is inf past u = 709.78..., and 1 / (1 + inf) is 0
def _sigmoid_of_minus(u, out=None):
    """The logistic sigmoid of -u, 1 / (1 + exp(u)), in one array (``out`` if
    given, which may be u itself).  Its limits are exact: 0 as u -> +inf, 1 as
    u -> -inf.  At 50 rows on a 2-core Xeon the decorator adds about 0.7 us to
    the sigmoid's 1.4 us; a ``with np.errstate`` block per call adds 1.4 us."""
    e = np.exp(u, out=out)
    e += 1.0
    return np.reciprocal(e, out=e)


class _DataModel(Objective):
    """A model over ``_labeled_data``'s rows that keeps its last full-data pass.

    ``_full_pass(x)`` returns ``_pass(x)`` over every row, computed once per
    point: the entry is keyed on ``x.tobytes()``, so -0.0, a NaN or an array
    changed in place since the last call is a new point.  The old entry is
    dropped before a new pass is computed, so at most one pass is held.  The
    rows are fixed once the model is built, as the CSR transpose assumes too.
    """

    _pass_key = _pass_value = None

    def __init__(self, features, labels):
        self.features, self.labels = _labeled_data(features, labels)
        self.sample_count, self.n_features = self.features.shape
        self._sparse = hasattr(self.features, "tocsr")

    def _full_pass(self, x):
        key = x.tobytes()
        if key != self._pass_key:
            self._pass_key = self._pass_value = None
            self._pass_value = self._pass(x)
            self._pass_key = key
        return self._pass_value


def _as_arrays(dataset):
    """A dataset's (features, labels), or the (features, labels) pair itself."""
    return dataset.to_arrays() if hasattr(dataset, "to_arrays") else dataset


class QuadraticObjective(Objective):
    """f(x) = 0.5 * sum_i curvature_i * (x_i - center_i)**2.

    The stochastic oracle perturbs the exact gradient with per-sample noise
    vectors that are bounded by ``noise_level`` and sum to zero, so uniform
    without-replacement batches stay exactly unbiased.
    """

    def __init__(self, center, curvature, noise_level=0.0, sample_count=1, seed=0):
        self.center = np.asarray(center, dtype=float)
        self.curvature = np.asarray(curvature, dtype=float)
        if self.center.shape != self.curvature.shape or self.center.ndim != 1:
            raise DimensionMismatch("center and curvature must be equal-length vectors")
        if not (np.isfinite(self.center).all() and np.isfinite(self.curvature).all()
                and np.all(self.curvature > 0.0)):
            raise DomainError("center entries must be finite, curvature entries finite "
                              "and positive")
        if not (_number(noise_level) and 0.0 <= noise_level < math.inf):
            raise DomainError(f"noise_level={noise_level!r} must be finite and nonnegative")
        _require_integer(DomainError, "sample_count", sample_count, 1)
        self.n = self.center.size
        self.sample_count = int(sample_count)
        noise = np.zeros((self.sample_count, self.n))
        rng = _rng(seed)
        if noise_level > 0.0 and self.sample_count > 1:
            noise = rng.uniform(-1.0, 1.0, size=(self.sample_count, self.n))
            noise -= noise.mean(axis=0)
            peak = np.max(np.abs(noise))
            if peak > 0.0:
                noise *= noise_level / peak
        self._noise = noise

    def value(self, x):
        x = _check_dim(x, self.n)
        return 0.5 * float(np.sum(self.curvature * (x - self.center) ** 2))

    def gradient(self, x):
        x = _check_dim(x, self.n)
        return self.curvature * (x - self.center)

    def stochastic_gradient(self, x, batch):
        batch = np.asarray(batch, dtype=int)
        return self.gradient(x) + self._noise[batch].mean(axis=0)


def _csr_rows(a, rows):
    """The nonzeros of CSR rows ``rows``: their row within the batch, their
    column and their value, in row order.  A few numpy calls gather them;
    scipy's row slicing costs several times more at mini-batch sizes."""
    starts = a.indptr[rows]
    counts = a.indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    # position in a.indices/a.data: each row's start plus the offset within it
    take = np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + counts, counts)
    return np.repeat(np.arange(rows.size), counts), a.indices[take], a.data[take]


class LogisticObjective(_DataModel):
    """Mean logistic loss over labeled rows, parameterized as [weights, bias].

    A CSR feature matrix gets its transpose built once, in CSR form too, so
    the full gradient's product with the transpose runs row by row.  The
    full-data pass is the margins ``labels * (features @ w + b)``.
    """

    def __init__(self, features, labels):
        super().__init__(features, labels)
        self.n = logistic_dimension(self.n_features)
        self._features_t = self.features.T.tocsr() if self._sparse else self.features.T
        self._neg_labels = -self.labels   # the gradient's coefficient factor

    @staticmethod
    def _margins(x, y, matvec):
        """Margins of the rows that ``matvec`` (rows times weights) multiplies with."""
        t = matvec(x[:-1])
        t += x[-1]
        t *= y
        return t

    def _pass(self, x):
        return self._margins(x, self.labels, self.features.__matmul__)

    def value(self, x):
        x = _check_dim(x, self.n)
        loss = np.logaddexp(0.0, -self._full_pass(x))
        return float(np.add.reduce(loss) / loss.size)   # np.mean's bits, without its wrapper

    def _batch_gradient(self, t, neg_y, rmatvec):
        """Gradient over the rows with margins ``t`` and negated labels ``neg_y``
        that ``rmatvec`` (transposed rows times coefficients) multiplies with.
        c * -y has the bits of -(c * y): rounding is symmetric in sign."""
        coef = _sigmoid_of_minus(t)   # a new array: t may be the kept pass
        coef *= neg_y
        g = np.empty(self.n)
        np.divide(rmatvec(coef), coef.size, out=g[:-1])
        g[-1] = np.add.reduce(coef) / coef.size
        return g

    def gradient(self, x):
        x = _check_dim(x, self.n)
        return self._batch_gradient(self._full_pass(x), self._neg_labels,
                                    self._features_t.__matmul__)

    def stochastic_gradient(self, x, batch):
        x = _check_dim(x, self.n)
        rows = np.asarray(batch, dtype=int)
        # a 1-D gather is faster by fancy indexing, a block of rows by take
        y, neg_y = self.labels[rows], self._neg_labels[rows]
        if self._sparse:
            pos, cols, vals = _csr_rows(self.features, rows)
            t = self._margins(
                x, y, lambda w: np.bincount(pos, weights=vals * w[cols], minlength=rows.size))
            return self._batch_gradient(
                t, neg_y, lambda c: np.bincount(cols, weights=vals * c[pos],
                                                minlength=self.n_features))
        a = self.features.take(rows, axis=0)
        # c @ a is a.T @ c bit for bit, without the transposed view
        return self._batch_gradient(self._margins(x, y, a.__matmul__), neg_y, a.__rmatmul__)


class OneHiddenLayerObjective(_DataModel):
    """tanh hidden layer of width h, sigmoid output, mean cross-entropy loss.

    The flat parameter vector packs [W1.ravel(), b1, w2, b2] for W1 of shape
    (h, n_f), giving dimension (n_f + 2) * h + 1; ``hidden=None`` takes
    ``default_hidden_width(n_f)``.  Gradients come from exact
    backpropagation through the stabilized softplus form of the loss.  The
    full-data pass is ``_forward``'s hidden activations and outputs (z, s).
    """

    def __init__(self, features, labels, hidden):
        super().__init__(features, labels)
        if hidden is None:
            hidden = default_hidden_width(self.n_features)
        _require_integer(DomainError, "hidden", hidden, 1)
        self.hidden = int(hidden)
        self.y01 = 0.5 * (self.labels + 1.0)  # {-1,+1} -> {0,1}
        self.n = nn_dimension(self.n_features, self.hidden)

    def _unpack(self, x):
        h, nf = self.hidden, self.n_features
        w1 = x[: h * nf].reshape(h, nf)
        b1 = x[h * nf: h * nf + h]
        w2 = x[h * nf + h: h * nf + 2 * h]
        b2 = x[-1]
        return w1, b1, w2, b2

    def _forward(self, x, a):
        w1, b1, w2, b2 = self._unpack(x)
        z = a @ w1.T
        z += b1
        np.tanh(z, out=z)
        s = z @ w2
        s += b2
        return z, s

    def _pass(self, x):
        return self._forward(x, self.features)

    def value(self, x):
        x = _check_dim(x, self.n)
        _, s = self._full_pass(x)
        # -[y log p + (1-y) log(1-p)] with p = sigmoid(s) is softplus(s) - y*s
        loss = np.logaddexp(0.0, s)
        loss -= self.y01 * s
        return float(np.add.reduce(loss) / loss.size)

    def _batch_gradient(self, x, a, y01, z, s):
        """Backpropagation over the rows ``a`` with labels ``y01``, from
        their forward pass (z, s) at x."""
        w2 = self._unpack(x)[2]
        ds = np.negative(s)
        _sigmoid_of_minus(ds, out=ds)
        ds -= y01
        ds /= y01.size
        g_w2 = z.T @ ds
        g_b2 = float(np.add.reduce(ds))
        d_pre = np.square(z)   # (1 - z**2) times the outer product of ds and w2
        np.subtract(1.0, d_pre, out=d_pre)
        d_pre *= np.multiply.outer(ds, w2)
        # for CSR rows this runs as their transpose's product with d_pre,
        # as fast as with a stored CSR transpose
        g_w1 = d_pre.T @ a
        # reduce's bits (rows added in order) without a call per row; width 1 is summed pairwise
        g_b1 = np.einsum("ij->j", d_pre) if w2.size > 1 else np.add.reduce(d_pre, axis=0)
        return np.concatenate([g_w1.ravel(), g_b1, g_w2, [g_b2]])

    def gradient(self, x):
        x = _check_dim(x, self.n)
        return self._batch_gradient(x, self.features, self.y01, *self._full_pass(x))

    def stochastic_gradient(self, x, batch):
        x = _check_dim(x, self.n)
        rows = np.asarray(batch, dtype=int)
        if self._sparse:
            # a dense block of the batch's rows: the products below are dense
            # in the hidden width anyway, and faster on it at batch sizes
            pos, cols, vals = _csr_rows(self.features, rows)
            a = np.zeros((rows.size, self.n_features))
            a[pos, cols] = vals
        else:
            a = self.features.take(rows, axis=0)
        return self._batch_gradient(x, a, self.y01[rows], *self._forward(x, a))


def quadratic_objective(center, curvature, noise_level=0.0, sample_count=1, seed=0):
    return QuadraticObjective(center, curvature, noise_level=noise_level,
                              sample_count=sample_count, seed=seed)


def logistic_objective(dataset):
    return LogisticObjective(*_as_arrays(dataset))


def nn_objective(dataset, hidden=None):
    return OneHiddenLayerObjective(*_as_arrays(dataset), hidden)


def default_hidden_width(n_features):
    """Hidden width max(2, min(ceil(n_f / 2), 100))."""
    return max(2, min(math.ceil(n_features / 2), 100))


def logistic_dimension(n_features):
    """Number of logistic parameters: features plus one bias."""
    return n_features + 1


def nn_dimension(n_features, hidden=None):
    """Number of network parameters (n_f + 2) * h + 1."""
    if hidden is None:
        hidden = default_hidden_width(n_features)
    return (n_features + 2) * hidden + 1


def batch_sampler(m, batch_size, seed):
    """Endless stream of uniform random index subsets drawn without replacement.

    Reproducible under the seed; every draw is an independent subset of size
    ``batch_size`` from range(m), sorted in place.  Each call starts a new
    stream; ``gradient_oracle`` calls it once per objective and seed, and its
    oracles with that seed share the draws rather than redraw them.
    """
    if not (_number(batch_size, numbers.Integral) and 1 <= batch_size <= m):
        raise BatchTooLarge(f"batch_size={batch_size!r} must be an integer in [1, {m}]")
    rng = _rng(seed)

    def draws():
        while True:
            batch = rng.choice(m, size=batch_size, replace=False)
            batch.sort()
            yield batch

    return draws()


def _number(value, kind=numbers.Real):
    """True iff ``value`` is a ``kind`` number other than a bool (True is 1 to numbers)."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _require_integer(error, name, value, least):
    """Raise ``error`` unless ``value`` is an integer of at least ``least`` (not a bool)."""
    if not (_number(value, numbers.Integral) and value >= least):
        raise error(f"{name}={value!r} must be an integer of at least {least}")


def _seed_entries(seed):
    """A seed that is an integer >= 0 or a nonempty list or tuple of them, as a
    tuple of ints; DomainError naming the seed otherwise, None (a fresh,
    irreproducible stream) and bools included."""
    entries = seed if isinstance(seed, (list, tuple)) else [seed]
    if not (entries and all(_number(e, numbers.Integral) and e >= 0 for e in entries)):
        raise DomainError(f"seed={seed!r} must be an integer of at least 0, "
                          "or a list of them")
    return tuple(map(int, entries))


def _rng(seed):
    """``np.random.default_rng(seed)`` for a seed that ``_seed_entries`` admits."""
    _seed_entries(seed)
    return np.random.default_rng(seed)


def _require_batch_fraction(batch_fraction):
    """InvalidBudget unless ``batch_fraction`` is a real number in (0, 1]."""
    if not (_number(batch_fraction) and 0.0 < batch_fraction <= 1.0):
        raise InvalidBudget(f"batch_fraction={batch_fraction!r} must lie in (0, 1]")


def _shared_batches(objective, batch_size, seed):
    """An endless iterator over ``batch_sampler(m, batch_size, seed)``'s stream
    that replays the draws the objective holds for that key.

    The objective holds one stream at a time, as ``_batch_stream``: its key,
    the draws made so far, read-only, and the sampler that makes the next.
    An iterator replays the held draws from the first and draws from the
    sampler past their end, for every iterator of the stream.  A new key
    replaces the held stream; its iterators go on with their own stream,
    whose draws are released with the last of them.
    """
    key = (batch_size, _seed_entries(seed))
    stream = getattr(objective, "_batch_stream", None)
    if stream is None or stream[0] != key:
        stream = key, [], batch_sampler(objective.sample_count, batch_size, seed)
        objective._batch_stream = stream
    _, draws, sampler = stream

    def batches():
        for i in itertools.count():
            if i == len(draws):
                batch = next(sampler)
                batch.flags.writeable = False   # an objective cannot change a replay
                draws.append(batch)
            yield draws[i]

    return batches()


def gradient_oracle(objective, mode, batch_fraction, seed):
    """The gradient every solver iteration reads, as a function ``x -> g``.

    Deterministic mode gives the exact gradient.  Stochastic mode gives the
    mean over a fresh batch of ``ceil(batch_fraction * m)`` samples (at least
    one) per call, from ``batch_sampler``'s stream under ``seed``.  Oracles
    built on one objective with the same seed and batch size share that
    stream (``_shared_batches``): the first draws each batch and the others
    replay it, so all see the same batches and a seed's batches are drawn
    once for all three solvers.  A gradient
    with a NaN or infinite entry raises NonFiniteGradient, and one whose shape
    differs from x's raises DimensionMismatch, each naming the 1-based call
    count, which is the iteration number in every solver loop.  A mode
    outside MODES raises InvalidChoice, and in stochastic mode a batch
    fraction outside (0, 1] raises InvalidBudget and a seed that
    ``_seed_entries`` refuses DomainError.
    """
    if mode not in MODES:
        raise InvalidChoice("mode", mode, MODES)
    if mode == "deterministic":
        draw = objective.gradient
    else:
        _require_batch_fraction(batch_fraction)
        m = objective.sample_count
        batches = _shared_batches(objective, max(1, math.ceil(batch_fraction * m)), seed)

        def draw(x):
            return objective.stochastic_gradient(x, next(batches))

    calls = itertools.count(1)

    def gradient(x):   # np.shape and .all() would cost more than the checks themselves
        g = draw(x)
        k = next(calls)
        shape = g.shape if isinstance(g, np.ndarray) else np.shape(g)
        if shape != (x.shape if isinstance(x, np.ndarray) else np.shape(x)):
            raise DimensionMismatch(f"iteration {k}: the gradient oracle returned shape "
                                    f"{shape} for x of shape {np.shape(x)}")
        finite = np.isfinite(g)
        if np.count_nonzero(finite) < finite.size:
            raise NonFiniteGradient(k, "the gradient oracle returned a non-finite entry")
        return g

    return gradient


def synthetic_classification(m, n_features, seed=0):
    """A small labeled dataset with a noisy linear decision boundary.

    Features are uniform in [-1, 1]; labels are the signs of a random linear
    score plus Gaussian noise, with one label flipped if a class is missing.
    Returns (features, labels in {-1, +1}).
    """
    _require_integer(DimensionMismatch, "m", m, 1)
    _require_integer(DimensionMismatch, "n_features", n_features, 0)
    rng = _rng(seed)
    features = rng.uniform(-1.0, 1.0, size=(m, n_features))
    w = rng.normal(size=n_features)
    scores = features @ w + 0.3 * rng.normal(size=m)
    labels = np.where(scores >= 0.0, 1.0, -1.0)
    if np.all(labels == labels[0]):
        labels[0] = -labels[0]
    return features, labels
