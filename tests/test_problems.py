import re
import warnings
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sipm import (Bounds, BufferSequences, Constants, ExperimentSpec, LogisticObjective,
                  OneHiddenLayerObjective, SolverConfig, batch_sampler, build_staircase,
                  default_hidden_width, estimate_constants, gradient_oracle, harness,
                  initial_point, logistic_dimension, logistic_objective, nn_dimension,
                  nn_objective, quadratic_objective, run, run_psgm, synthetic_classification)
from sipm.errors import (BatchTooLarge, DimensionMismatch, DomainError, LabelMismatch,
                         NonFiniteGradient, NotBinary)
from sipm.libsvm import SparseDataset
from sipm.problems import _rng, _sigmoid_of_minus, map_labels


def finite_difference_gradient(objective, x, step):
    """Central differences (f(x + h e_i) - f(x - h e_i)) / (2 h) per coordinate."""
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (objective.value(x + e) - objective.value(x - e)) / (2.0 * step)
    return g


def test_quadratic_examples():
    obj = quadratic_objective([1.5], [1.0])
    assert obj.value(np.array([1.5])) == 0.0
    assert_allclose(obj.gradient(np.array([1.5])), [0.0])
    assert_allclose(obj.value(np.array([1.0])), 0.125)
    assert_allclose(obj.gradient(np.array([1.0])), [-0.5])


def test_quadratic_stochastic_noise():
    clean = quadratic_objective([0.0, 0.0], [1.0, 2.0], noise_level=0.0, sample_count=8)
    x = np.array([0.3, -0.4])
    assert_allclose(clean.stochastic_gradient(x, [0, 3, 5]), clean.gradient(x))

    noisy = quadratic_objective([0.0, 0.0], [1.0, 2.0], noise_level=0.2,
                                sample_count=8, seed=4)
    deviations = [np.max(np.abs(noisy.stochastic_gradient(x, [i]) - noisy.gradient(x)))
                  for i in range(8)]
    assert max(deviations) <= 0.2 + 1e-15
    assert max(deviations) > 0.0
    # full-population batch recovers the exact gradient (noise sums to zero)
    assert_allclose(noisy.stochastic_gradient(x, np.arange(8)), noisy.gradient(x),
                    atol=1e-16)


def test_logistic_examples():
    obj = logistic_objective((np.array([[1.0]]), np.array([1.0])))
    assert_allclose(obj.value(np.zeros(2)), np.log(2.0))
    assert_allclose(obj.gradient(np.zeros(2)), [-0.5, -0.5])
    with pytest.raises(DimensionMismatch):
        obj.value(np.zeros(3))


def test_logistic_gradient_matches_finite_differences():
    A, y = synthetic_classification(30, 6, seed=1)
    obj = logistic_objective((A, y))
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, size=obj.n)
        fd = finite_difference_gradient(obj, x, 1e-6)
        assert_allclose(obj.gradient(x), fd, rtol=1e-6, atol=1e-9)


def test_nn_dimensions_and_width():
    assert default_hidden_width(123) == 62
    assert logistic_dimension(123) == 124
    assert nn_dimension(123) == 7751
    assert default_hidden_width(2) == 2
    assert nn_dimension(2) == 9
    assert default_hidden_width(1000) == 100


def test_nn_gradient_matches_finite_differences():
    A, y = synthetic_classification(12, 4, seed=5)
    obj = nn_objective((A, y), hidden=3)
    assert obj.n == (4 + 2) * 3 + 1
    rng = np.random.default_rng(6)
    for _ in range(3):
        x = rng.uniform(-0.5, 0.5, size=obj.n)
        fd = finite_difference_gradient(obj, x, 1e-6)
        assert_allclose(obj.gradient(x), fd, rtol=1e-5, atol=1e-8)


def test_finite_difference_exact_on_quadratic():
    obj = quadratic_objective([0.5, -0.25], [2.0, 3.0])
    x = np.array([1.0, 1.0])
    # no third derivative: central differences are exact up to rounding
    assert_allclose(finite_difference_gradient(obj, x, 1e-3), obj.gradient(x),
                    rtol=1e-10)


def enumeration_mean(objective, x, m, batch_size):
    total = np.zeros(objective.n)
    count = 0
    for batch in combinations(range(m), batch_size):
        total += objective.stochastic_gradient(x, np.array(batch))
        count += 1
    return total / count


def test_unbiasedness_small_enumeration():
    A, y = synthetic_classification(4, 3, seed=7)
    rng = np.random.default_rng(8)
    for make in (logistic_objective, lambda d: nn_objective(d, hidden=2)):
        obj = make((A, y))
        x = rng.uniform(-0.3, 0.3, size=obj.n)
        mean = enumeration_mean(obj, x, 4, 2)
        assert_allclose(mean, obj.gradient(x), atol=1e-14)


def test_batch_sampler():
    draws = batch_sampler(10, 3, seed=42)
    first = [next(draws) for _ in range(5)]
    again = batch_sampler(10, 3, seed=42)
    for batch in first:
        assert batch.shape == (3,)
        assert len(set(batch.tolist())) == 3
        assert_allclose(batch, next(again))
    full = next(batch_sampler(6, 6, seed=0))
    assert sorted(full.tolist()) == list(range(6))
    with pytest.raises(BatchTooLarge):
        batch_sampler(5, 6, seed=0)
    with pytest.raises(BatchTooLarge):
        batch_sampler(5, 0, seed=0)


def test_label_mapping():
    assert_allclose(map_labels([0.0, 1.0, 0.0]), [-1.0, 1.0, -1.0])
    assert_allclose(map_labels([3.0, 7.0]), [-1.0, 1.0])
    with pytest.raises(NotBinary):
        map_labels([1.0, 2.0, 3.0])
    with pytest.raises(NotBinary):
        map_labels([1.0, 1.0])


def test_label_mapping_in_a_pinned_order():
    assert_allclose(map_labels([5.0, 2.0, 5.0], order=(5.0, 2.0)), [-1.0, 1.0, -1.0])
    # a split may hold one of the two ordered values only
    assert_allclose(map_labels([2.0, 2.0], order=(2.0, 5.0)), [-1.0, -1.0])
    with pytest.raises(LabelMismatch, match=r"\[3\.0\]"):
        map_labels([2.0, 3.0], order=(2.0, 5.0))
    with pytest.raises(NotBinary):
        map_labels([2.0], order=(2.0,))


@pytest.mark.parametrize("order", [(1.0, 1.0), (0.0, -0.0), (1.0, np.nan), (1.0, np.inf),
                                   (1.0,), (1.0, 2.0, 3.0)])
def test_label_order_must_be_two_distinct_finite_values(order):
    """A one-value order used to map every label to -1: a one-class model."""
    with pytest.raises(NotBinary, match=r"label order \["):
        map_labels([1.0, 1.0, 1.0], order=order)


def test_a_dataset_with_a_one_value_order_builds_no_model():
    ds = SparseDataset(rows=(((1, 0.5),), ((1, -0.5),)), labels=(1.0, 1.0), n_features=1,
                       label_order=(1.0, 1.0))
    with pytest.raises(NotBinary, match=r"label order \[1\.0, 1\.0\]"):
        logistic_objective(ds)


CONSTRUCTORS = {"logistic": LogisticObjective,
                "nn": lambda a, y: OneHiddenLayerObjective(a, y, 3)}


@pytest.mark.parametrize("model", sorted(CONSTRUCTORS))
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("raw", [(0.0, 1.0), (2.0, 5.0)], ids=["01", "25"])
def test_constructors_map_any_two_labels(model, sparse, raw):
    """The constructors take any two label values, the smaller one as -1,
    and give the values and gradients of the -1/+1 labels bit for bit."""
    features, labels = synthetic_classification(30, 4, seed=6)
    if sparse:
        import scipy.sparse

        features = scipy.sparse.csr_matrix(np.where(np.abs(features) > 0.5, features, 0.0))
    make = CONSTRUCTORS[model]
    plain = make(features, labels)
    mapped = make(features, np.where(labels < 0.0, raw[0], raw[1]))
    x = np.random.default_rng(7).uniform(-0.5, 0.5, size=plain.n)
    assert mapped.value(x) == plain.value(x)
    assert np.array_equal(mapped.gradient(x), plain.gradient(x))
    batch = np.array([1, 4, 9])
    assert np.array_equal(mapped.stochastic_gradient(x, batch),
                          plain.stochastic_gradient(x, batch))


@pytest.mark.parametrize("model", sorted(CONSTRUCTORS))
def test_constructors_check_the_data_shape(model):
    features, labels = synthetic_classification(10, 3, seed=1)
    make = CONSTRUCTORS[model]
    with pytest.raises(DimensionMismatch):
        make(features[:, 0], labels)
    with pytest.raises(DimensionMismatch):
        make(features, labels[:-1])
    with pytest.raises(NotBinary):
        make(features, np.arange(10.0))
    # a NaN would otherwise pass as the second label value
    for bad in (np.nan, np.inf):
        with pytest.raises(NotBinary, match="finite"):
            make(features, np.where(labels < 0.0, bad, 1.0))


def _features(dense, sparse):
    if not sparse:
        return dense
    import scipy.sparse

    return scipy.sparse.csr_matrix(dense)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("model", sorted(CONSTRUCTORS))
def test_constructors_reject_data_without_rows(model, sparse):
    """Zero rows would build, and the value would be a mean of nothing."""
    with pytest.raises(DimensionMismatch, match="no rows"):
        CONSTRUCTORS[model](_features(np.zeros((0, 3)), sparse), np.zeros(0))


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("model", sorted(CONSTRUCTORS))
def test_constructors_name_the_first_non_finite_feature_row(model, sparse):
    """A NaN or infinite feature fails at the intake, naming its row, not in
    the oracle as a non-finite gradient."""
    features, labels = synthetic_classification(20, 3, seed=1)
    for bad in (np.nan, np.inf, -np.inf):
        spoiled = features.copy()
        spoiled[12, 0] = spoiled[7, 2] = bad
        with pytest.raises(DomainError, match="row 7 "):
            CONSTRUCTORS[model](_features(spoiled, sparse), labels)


@pytest.mark.parametrize("make", [
    lambda: OneHiddenLayerObjective(*synthetic_classification(10, 3, seed=1), 0),
    lambda: quadratic_objective([0.1, 0.2], [1.0, 0.0]),
    lambda: quadratic_objective([0.1, 0.2], [-1.0, 2.0]),
    lambda: nn_objective(synthetic_classification(5, 2), hidden=2.5),
    lambda: nn_objective(synthetic_classification(5, 2), hidden=True),
    lambda: quadratic_objective([0, 0], [1, 1], noise_level=-1.0, sample_count=5),
    lambda: quadratic_objective([0, 0], [1, 1], noise_level=np.nan, sample_count=5),
    lambda: quadratic_objective([0], [1], noise_level=0.1, sample_count=2.5),
    lambda: quadratic_objective([0], [1], noise_level=0.1, sample_count=True),
    lambda: quadratic_objective([0], [1], noise_level=0.1, sample_count=0),
    lambda: quadratic_objective([0], [1], noise_level=0.1, sample_count=-3),
    lambda: quadratic_objective([np.nan], [1.0]),
    lambda: quadratic_objective([0.0], [np.nan]),
    lambda: quadratic_objective([0.0], [np.inf]),
], ids=["hidden-0", "zero-curvature", "negative-curvature", "hidden-float", "hidden-bool",
        "noise-negative", "noise-nan", "samples-float", "samples-bool", "samples-0",
        "samples-negative", "center-nan", "curvature-nan", "curvature-inf"])
def test_model_sizes_outside_the_domain_are_typed_errors(make):
    """A width of 2.5 used to build a network of width 2 and True one of
    width 1; a negative or NaN noise level gave noiseless gradients.  A
    quadratic's sample_count of 2.5 built 2 samples and True 1; 0 failed at
    the first draw as BatchTooLarge and -3 as numpy's bare ValueError.  A NaN
    center or a NaN or infinite curvature built a quadratic whose gradient
    failed run() only at iteration 1, as NonFiniteGradient."""
    with pytest.raises(DomainError, match="hidden|curvature|noise_level|sample_count"):
        make()


@pytest.mark.parametrize("make, error", [
    (lambda: quadratic_objective([0.1, 0.2], [1.0, 2.0, 3.0]), DimensionMismatch),
    (lambda: synthetic_classification(0, 3), DimensionMismatch),
    (lambda: next(batch_sampler(10, 2.5, 0)), BatchTooLarge),
    (lambda: next(batch_sampler(10, True, 0)), BatchTooLarge),
    (lambda: synthetic_classification(5, -1), DimensionMismatch),
    (lambda: synthetic_classification(5, 2.5), DimensionMismatch),
    (lambda: synthetic_classification(5, True), DimensionMismatch),
], ids=["quadratic-unequal-shapes", "no-samples", "batch-float", "batch-bool",
        "features-negative", "features-float", "features-bool"])
def test_shapes_and_batch_sizes_are_typed_errors(make, error):
    """synthetic_classification(0, 3) used to fail as a bare IndexError and a
    batch size of 2.5 or True as a bare TypeError at the first draw; a
    feature count of -1 failed as numpy's bare ValueError and 2.5 or True as
    a bare TypeError."""
    with pytest.raises(error):
        make()


def test_objectives_bounded_on_box():
    A, y = synthetic_classification(25, 4, seed=9)
    rng = np.random.default_rng(10)
    for make in (logistic_objective, lambda d: nn_objective(d, hidden=3)):
        obj = make((A, y))
        values = [obj.value(rng.uniform(-1.0, 1.0, size=obj.n)) for _ in range(50)]
        assert np.all(np.isfinite(values))
        assert min(values) >= 0.0


def test_synthetic_classification_shape():
    A, y = synthetic_classification(40, 5, seed=11)
    assert A.shape == (40, 5)
    assert set(np.unique(y)) == {-1.0, 1.0}
    A2, y2 = synthetic_classification(40, 5, seed=11)
    assert_allclose(A, A2)
    assert_allclose(y, y2)


def _tail_point(obj, reach):
    """A point where every logistic margin or network output is +-reach:
    logistic margins labels * b with w = 0, network outputs b2 with every
    other parameter 0."""
    x = np.zeros(obj.n)
    x[-1] = reach
    return x


def _oracles(obj, x, batches):
    """value, gradient and each batch's stochastic gradient at x, with every
    warning an error (the tests' RuntimeWarning filter, made explicit)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return (obj.value(x), obj.gradient(x),
                [obj.stochastic_gradient(x, batch) for batch in batches])


@pytest.mark.parametrize("reach", [1000.0, 1e6])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_logistic_sigmoid_tails_give_the_limits(sparse, reach):
    """Margins +reach (row 0) and -reach (row 1): exp overflows on row 1,
    and the sigmoid still gives its limits 0 and 1, with no warning."""
    obj = LogisticObjective(_features(np.array([[1.0], [1.0]]), sparse), [1.0, -1.0])
    x = _tail_point(obj, reach)
    assert_allclose(obj._pass(x), [reach, -reach], rtol=0.0, atol=0.0)
    value, gradient, (first, second) = _oracles(obj, x, ([0], [1]))
    # log(1 + exp(-reach)) = 0 and log(1 + exp(reach)) = reach
    assert value == reach / 2.0
    # coefficients -y * sigmoid(-t): 0 on row 0, +1 on row 1
    assert gradient.tolist() == [0.5, 0.5]
    assert first.tolist() == [0.0, 0.0]
    assert second.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("reach", [1000.0, -1000.0, 1e6, -1e6])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_network_sigmoid_tails_give_the_limits(sparse, reach):
    """Every output is reach; labels 1, 0, 1.  The sigmoid of the outputs is
    exactly 1 or 0, so each gradient is the limit's, with no warning."""
    features = np.array([[0.5, -1.0], [2.0, 0.0], [-1.0, 1.0]])
    obj = OneHiddenLayerObjective(_features(features, sparse), [1.0, -1.0, 1.0], 2)
    x = _tail_point(obj, reach)
    value, gradient, (batch,) = _oracles(obj, x, ([0, 1],))
    y01 = np.array([1.0, 0.0, 1.0])
    p = 1.0 if reach > 0 else 0.0
    # softplus(s) - y * s at s = +-reach: reach or 0 per row
    assert value == float(np.mean(np.logaddexp(0.0, reach) - y01 * reach))
    assert np.all(np.isfinite(gradient)) and np.all(np.isfinite(batch))
    # only b2 moves: the sum of (sigmoid(s) - y) / m; w2 sees z = 0, W1 and b1 see w2 = 0
    assert gradient[:-1].tolist() == [0.0] * (obj.n - 1)
    assert gradient[-1] == np.sum(p - y01) / 3.0
    assert batch[:-1].tolist() == [0.0] * (obj.n - 1)
    assert batch[-1] == np.sum(p - y01[:2]) / 2.0


def test_sigmoid_stays_within_4_ulp_of_scipy_expit():
    """The numpy sigmoid against scipy.special.expit, both signs, on 200,000
    seeded normal(0, 5) arguments: numpy's and glibc's exp may differ in
    their last bits, so a few ulp is the bound, not equality."""
    from scipy.special import expit

    t = np.random.default_rng(20).normal(0.0, 5.0, size=200_000)
    np.testing.assert_array_max_ulp(_sigmoid_of_minus(-t), expit(t), maxulp=4)
    np.testing.assert_array_max_ulp(_sigmoid_of_minus(t), expit(-t), maxulp=4)
    # the in-place form the network uses gives the same bits
    u = -t
    assert _sigmoid_of_minus(u, out=u) is u
    assert np.array_equal(u, _sigmoid_of_minus(-t))


def _memo_pair(model, sparse, seed=3):
    """Two objectives over the same data: one to call repeatedly, and a maker
    of fresh ones, whose first call at a point computes its pass anew."""
    features, labels = synthetic_classification(30, 4, seed=6)
    if sparse:
        features = np.where(np.abs(features) > 0.5, features, 0.0)
    make = CONSTRUCTORS[model]
    obj = make(_features(features, sparse), labels)
    xs = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(2, obj.n))
    return obj, lambda: make(_features(features, sparse), labels), xs


def _same(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


def _counting_passes(monkeypatch, obj):
    """The points of the objective's full-data passes, one per pass."""
    calls = []
    real = obj._pass

    def counted(x):
        calls.append(x.copy())
        return real(x)

    monkeypatch.setattr(obj, "_pass", counted)
    return calls


ORDERS = {"value-gradient": [("value", 0), ("gradient", 0)],
          "gradient-value": [("gradient", 0), ("value", 0)],
          "interleaved": [("value", 0), ("gradient", 1), ("gradient", 0), ("value", 1),
                          ("value", 0), ("gradient", 0), ("gradient", 1)]}


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("model", sorted(CONSTRUCTORS))
def test_kept_pass_gives_a_fresh_objectives_bits(model, sparse, order):
    """Each call equals, bit for bit, the same call on a fresh objective, in
    whatever order ``value`` and ``gradient`` visit the points."""
    obj, fresh, xs = _memo_pair(model, sparse)
    for name, i in ORDERS[order]:
        assert _same(getattr(obj, name)(xs[i]), getattr(fresh(), name)(xs[i]))


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("model", sorted(CONSTRUCTORS))
def test_value_and_gradient_at_one_point_share_one_pass(model, sparse, monkeypatch):
    obj, _, xs = _memo_pair(model, sparse)
    calls = _counting_passes(monkeypatch, obj)
    obj.value(xs[0])
    obj.gradient(xs[0])
    obj.value(xs[0].copy())   # the key is the bytes, not the array
    assert len(calls) == 1
    obj.gradient(xs[1])
    obj.value(xs[0])          # one entry only: x0's pass was dropped for x1's
    assert len(calls) == 3
    obj.stochastic_gradient(xs[0], np.array([1, 4, 9]))   # batches are never kept
    obj.value(xs[0])
    assert len(calls) == 3


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("model", sorted(CONSTRUCTORS))
def test_a_point_changed_in_place_is_a_new_point(model, sparse):
    obj, fresh, xs = _memo_pair(model, sparse)
    x = xs[0].copy()
    obj.value(x)
    obj.gradient(x)
    x[0] += 0.25
    assert _same(obj.value(x), fresh().value(x))
    x[-1] -= 0.5
    assert _same(obj.gradient(x), fresh().gradient(x))


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("model", sorted(CONSTRUCTORS))
def test_signed_zeros_are_separate_points(model, sparse, monkeypatch):
    obj, fresh, xs = _memo_pair(model, sparse)
    plus, minus = xs[0].copy(), xs[0].copy()
    plus[[0, -1]], minus[[0, -1]] = 0.0, -0.0
    calls = _counting_passes(monkeypatch, obj)
    for x in (plus, minus, plus):
        assert _same(obj.gradient(x), fresh().gradient(x))
        assert _same(obj.value(x), fresh().value(x))
    assert [np.signbit(x[[0, -1]]).tolist() for x in calls] == [[False, False], [True, True],
                                                                [False, False]]


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("model", sorted(CONSTRUCTORS))
def test_a_nan_point_never_takes_another_points_pass(model, sparse, monkeypatch):
    """NaN != NaN, yet a key on the bytes still tells NaN points apart: one
    in another coordinate, or with another payload, gets its own pass, and
    none is served the finite point's."""
    obj, fresh, xs = _memo_pair(model, sparse)
    quiet, payload = xs[0].copy(), xs[0].copy()
    quiet[0] = np.nan
    payload[0] = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]
    assert quiet.tobytes() != payload.tobytes()
    moved = xs[0].copy()
    moved[1] = np.nan
    calls = _counting_passes(monkeypatch, obj)
    obj.value(xs[0])
    for x in (quiet, payload, moved):
        with np.errstate(invalid="ignore"):
            assert np.isnan(obj.value(x))
            assert _same(obj.gradient(x), fresh().gradient(x))
    assert len(calls) == 4
    assert obj.value(xs[0]) == fresh().value(xs[0])


def test_an_audited_network_run_makes_one_full_pass_per_point(monkeypatch):
    """The decrease check takes f at every new iterate, and the next
    iteration the gradient there: K iterations visit K + 1 points, and each
    point's forward pass over the data is computed once."""
    data = synthetic_classification(30, 4, seed=6)
    obj, probe = nn_objective(data, hidden=3), nn_objective(data, hidden=3)
    bounds = Bounds.cube(obj.n, -1.0, 1.0)
    x1 = initial_point(obj.n, 2)
    est = estimate_constants(probe, x1, bounds)
    constants = Constants(ell_f=est.ell_f_bar, kappa_inf=est.kappa_inf_bar, sigma_inf=0.0)
    K = 40
    config = harness._solver_config(ExperimentSpec(problems=()), probe.gradient(x1), x1,
                                    bounds, constants, K, audit_level="full_trace")
    full = []
    forward = obj._forward

    def spy(x, a):
        full.append(a is obj.features)
        return forward(x, a)

    monkeypatch.setattr(obj, "_forward", spy)
    result = run(obj, config, x1)
    assert len(full) == K + 1 and all(full)
    assert result.final_objective == probe.value(result.final_x)


def _stochastic_config(seed):
    bounds = Bounds.cube(2, -1.0, 1.0)
    return SolverConfig(mode="stochastic", bounds=bounds,
                        schedule=build_staircase(0.01, 10, theta0=0.05),
                        buffers=BufferSequences(mode="practical", maxiter=10),
                        constants=Constants(ell_f=1.0, kappa_inf=1.0, sigma_inf=0.1),
                        maxiter=10, rng_seed=seed, batch_fraction=0.5)


NOISY = quadratic_objective([0.1, -0.2], [1.0, 2.0], noise_level=0.1, sample_count=4)
SEED_USES = {
    "oracle": lambda seed: gradient_oracle(NOISY, "stochastic", 0.5, seed),
    "psgm": lambda seed: run_psgm(NOISY, Bounds.cube(2, -1.0, 1.0), [0.1] * 5, np.zeros(2), 5,
                                  mode="stochastic", batch_fraction=0.5, seed=seed),
    "quadratic": lambda seed: quadratic_objective([0.0], [1.0], noise_level=0.1,
                                                  sample_count=3, seed=seed),
    "synthetic": lambda seed: synthetic_classification(5, 2, seed=seed),
    "initial-point": lambda seed: initial_point(3, seed),
    "solver-config": lambda seed: run(NOISY, _stochastic_config(seed), np.zeros(2)),
}


@pytest.mark.parametrize("seed", [-1, 1.5, None, True, [3, -1], []],
                         ids=["negative", "float", "none", "bool", "negative-entry", "empty"])
@pytest.mark.parametrize("use", sorted(SEED_USES))
def test_seeds_outside_the_domain_are_typed_errors(use, seed):
    """A negative seed used to fail as numpy's bare ValueError and 1.5 as a
    bare TypeError; a stochastic run with rng_seed=None drew a fresh,
    irreproducible stream and rng_seed=True ran as seed 1."""
    with pytest.raises(DomainError, match=re.escape(f"seed={seed!r} must be an integer")):
        SEED_USES[use](seed)


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), [7, 1], (7, 2)])
def test_a_valid_seed_builds_numpys_generator(seed):
    assert _rng(seed).random(4).tolist() == np.random.default_rng(seed).random(4).tolist()


def _oracle_returning(*gradients):
    """A deterministic oracle whose objective returns the given gradients in turn."""
    objective = quadratic_objective([0.0, 0.0], [1.0, 1.0])
    returned = iter(gradients)
    objective.gradient = lambda x: next(returned)
    return gradient_oracle(objective, "deterministic", 0.1, 0)


@pytest.mark.parametrize("x", [np.zeros(2), [0.0, 0.0]], ids=["x-array", "x-list"])
@pytest.mark.parametrize("g", [np.array([0.5, -1.0]), [0.5, -1.0]], ids=["array", "list"])
def test_the_oracle_returns_a_well_shaped_finite_gradient_itself(g, x):
    assert _oracle_returning(g)(x) is g


@pytest.mark.parametrize("g, shape", [
    (np.zeros(3), (3,)), ([0.0, 0.0, 0.0], (3,)), (np.zeros((1, 2)), (1, 2)),
    ([[0.0, 0.0]], (1, 2)), (0.5, ()), (np.float64(0.5), ()), (np.zeros(()), ()),
], ids=["array", "list", "2-D-array", "2-D-list", "float", "numpy-scalar", "0-D-array"])
@pytest.mark.parametrize("x", [np.zeros(2), [0.0, 0.0]], ids=["x-array", "x-list"])
def test_a_misshapen_gradient_is_a_dimension_mismatch_naming_the_call(g, shape, x):
    """The oracle reads an ndarray's shape directly and any other gradient's
    through np.shape; both give the same error and message."""
    oracle = _oracle_returning(np.zeros(2), g)
    oracle(x)
    with pytest.raises(DimensionMismatch) as err:
        oracle(x)
    assert str(err.value) == (f"iteration 2: the gradient oracle returned shape {shape} "
                              "for x of shape (2,)")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("kind", [np.array, list], ids=["array", "list"])
def test_a_non_finite_gradient_names_the_call(bad, kind):
    oracle = _oracle_returning(np.zeros(2), np.zeros(2), kind([0.0, bad]))
    oracle(np.zeros(2))
    oracle(np.zeros(2))
    with pytest.raises(NonFiniteGradient) as err:
        oracle(np.zeros(2))
    assert err.value.k == 3
    assert str(err.value) == "iteration 3: the gradient oracle returned a non-finite entry"
