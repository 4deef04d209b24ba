"""One batch stream per objective and seed: stochastic oracles share their draws.

``gradient_oracle`` keeps the draws of a stochastic seed's stream on the
objective, so the solvers of one seed draw its batches once and replay them.
Every oracle must still see exactly ``batch_sampler(m, size, seed)``'s stream,
whatever the order of its calls and whatever other oracles did meanwhile.
"""

import gc
import weakref

import numpy as np
import pytest

from sipm import (ExperimentSpec, LogisticObjective, Objective, ProblemSpec, batch_sampler,
                  gradient_oracle, problems, run_experiment)
from sipm.harness import SIGMA_DRAWS

M, SIZE = 40, 4   # SIZE = ceil(FRACTION * M)
FRACTION = 0.1
MAXITER = 30


class Recorder(Objective):
    """A two-parameter objective whose stochastic gradient records each batch."""

    n, sample_count = 2, M

    def __init__(self):
        self.seen = []

    def stochastic_gradient(self, x, batch):
        self.seen.append(batch)
        return np.zeros(2)


def _stream(seed, count):
    draws = batch_sampler(M, SIZE, seed)
    return [next(draws).tolist() for _ in range(count)]


def _listed(batches):
    return [batch.tolist() for batch in batches]


@pytest.fixture
def draws_per_seed(monkeypatch):
    """{seed as a tuple: fresh draws from batch_sampler} for the test's oracles."""
    counts = {}
    sampler = problems.batch_sampler

    def counting(m, batch_size, seed):
        key = tuple(seed) if isinstance(seed, (list, tuple)) else (seed,)
        counts.setdefault(key, 0)
        for batch in sampler(m, batch_size, seed):
            counts[key] += 1
            yield batch

    monkeypatch.setattr(problems, "batch_sampler", counting)
    return counts


def _three_solver_spec(seeds):
    return ExperimentSpec(problems=(ProblemSpec(name="lr", model="logistic", dim=3, samples=M),),
                          solvers=("sipm", "psgm", "proj-ipm"), mode="stochastic",
                          maxiter=MAXITER, batch_fraction=FRACTION, seeds=seeds)


def test_a_three_solver_seed_draws_its_batches_once(draws_per_seed):
    """Each of the three solvers used to draw the seed's stream from scratch,
    3 * maxiter draws per seed; now sipm draws them and the baselines replay
    them.  Fails at the parent tree, which drew 90 per seed here."""
    report = run_experiment(_three_solver_spec((0, 1)))
    assert not any("error" in row for row in report["runs"])
    assert draws_per_seed == {(0, 2): SIGMA_DRAWS, (0, 1): 1, (0,): MAXITER,
                              (1, 1): 1, (1,): MAXITER}


def test_the_three_solvers_read_the_same_batches_in_order(monkeypatch):
    """The common random numbers: sipm, psgm and proj-ipm of one seed each
    pass the seed's first maxiter batches to stochastic_gradient, in the
    sampler's order.  Passes at the parent tree too, which redrew them."""
    seen = []
    gradient = LogisticObjective.stochastic_gradient

    def recording(self, x, batch):
        seen.append(batch.tolist())
        return gradient(self, x, batch)

    monkeypatch.setattr(LogisticObjective, "stochastic_gradient", recording)
    run_experiment(_three_solver_spec((3,)))
    expected = _stream(3, MAXITER)
    # the noise estimate's draws (under init_seed 0), the start probe's one,
    # then one run per solver
    assert seen[:SIGMA_DRAWS] == _stream([0, 2], SIGMA_DRAWS)
    assert seen[SIGMA_DRAWS] == _stream([3, 1], 1)[0]
    assert seen[SIGMA_DRAWS + 1:] == expected * 3


def test_oracles_of_one_key_each_see_the_samplers_stream(draws_per_seed):
    """Two oracles called alternately, and one that runs past the end of the
    other's table, each see exactly batch_sampler's stream, and every batch
    is drawn once.  The call order fails at no tree; the draw count fails at
    the parent, which drew each oracle's stream anew."""
    objective = Recorder()
    first, second = (gradient_oracle(objective, "stochastic", FRACTION, 5) for _ in range(2))
    for _ in range(4):
        first(np.zeros(2))
        second(np.zeros(2))
    expected = _stream(5, 12)
    assert _listed(objective.seen[0::2]) == _listed(objective.seen[1::2]) == expected[:4]
    objective.seen.clear()
    late = gradient_oracle(objective, "stochastic", FRACTION, 5)
    for _ in range(10):   # past the 4 draws held, then on from the same generator
        late(np.zeros(2))
    for _ in range(6):    # first replays what late drew
        first(np.zeros(2))
    assert _listed(objective.seen) == expected[:10] + expected[4:10]
    assert draws_per_seed == {(5,): 10}


def test_a_replaced_stream_goes_on_and_its_draws_are_released():
    """A later key replaces the objective's stream; an oracle of the old key
    keeps its own stream, and the old draws go with the last such oracle.
    The draws' release fails at the parent tree, which held no table."""
    objective = Recorder()
    old = gradient_oracle(objective, "stochastic", FRACTION, 1)
    old(np.zeros(2))
    old(np.zeros(2))
    held = weakref.ref(objective.seen[0])
    gradient_oracle(objective, "stochastic", FRACTION, 2)(np.zeros(2))
    old(np.zeros(2))
    # a third oracle of the old key draws that stream afresh: the table holds seed 2's
    again = gradient_oracle(objective, "stochastic", FRACTION, 1)
    again(np.zeros(2))
    assert _listed(objective.seen) == [*_stream(1, 2), _stream(2, 1)[0], _stream(1, 3)[2],
                                       _stream(1, 1)[0]]
    assert objective._batch_stream[0] == (SIZE, (1,))
    objective.seen.clear()
    del old, again
    gc.collect()
    assert held() is None


def test_a_handed_out_batch_is_read_only():
    """An objective that writes into its batch cannot change what a later
    oracle replays.  Fails at the parent tree, whose batches were writable."""
    objective = Recorder()
    oracle = gradient_oracle(objective, "stochastic", FRACTION, 9)
    oracle(np.zeros(2))
    batch = objective.seen[0]
    with pytest.raises(ValueError, match="read-only"):
        batch[0] = M - 1
    gradient_oracle(objective, "stochastic", FRACTION, 9)(np.zeros(2))
    assert _listed(objective.seen) == _stream(9, 1) * 2
