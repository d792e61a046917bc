"""Batched variation operators versus the scalar oracles, bit for bit.

The batched SBX, polynomial mutation and tournament of
:mod:`repro.moo.operators` draw fixed-shape blocks of random numbers.  Fed
the same draws, the per-pair loops in :mod:`tests.moo.operator_oracles`
must produce the same children down to the last bit, over the whole range
of distribution indices and on the degenerate inputs (genes pinned at a
bound, equal parents, zero-width bounds, probability 0 and 1).  The two
exact vectorizations (differential-variation repair, Latin-hypercube
denormalization) keep their random draws and must match their old loops at
the same seed.
"""

import warnings

import numpy as np
import pytest

from repro.moo.dominance import assign_ranks_and_crowding
from repro.moo.individual import Population
from repro.moo.operators import (
    binary_tournament,
    differential_variation,
    latin_hypercube,
    polynomial_mutation,
    sbx_crossover,
)
from repro.moo.testproblems import Schaffer
from repro.problems.registry import build_problem
from tests.moo.operator_oracles import (
    ScriptedRNG,
    oracle_binary_tournament,
    oracle_differential_variation,
    oracle_latin_hypercube,
    oracle_polynomial_mutation,
    oracle_sbx,
)

ETAS = [1.0, 2.0, 5.0, 15.0, 20.0, 50.0, 100.0, 200.0]
LOWER = np.array([0.0, -1.0, 2.0, 0.0, -5.0, 10.0])
UPPER = np.array([1.0, 1.0, 3.0, 100.0, 5.0, 10.5])


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _parents(rng, k, lower=LOWER, upper=UPPER):
    """Parent matrices inside the box, with pinned genes and equal parents."""
    span = upper - lower
    A = lower + rng.random((k, lower.size)) * span
    B = lower + rng.random((k, lower.size)) * span
    pinned = rng.random(A.shape) < 0.15
    A[pinned] = np.where(rng.random(A.shape) < 0.5, lower, upper)[pinned]
    B[rng.random(B.shape) < 0.1] = lower[0]
    B = np.minimum(np.maximum(B, lower), upper)
    equal = rng.random(A.shape) < 0.15
    B[equal] = A[equal]
    B[0] = A[0]  # one pair of identical parents
    return A, B


def _sbx_draws(rng, k, n):
    return rng.random(k), rng.random((k, n)), rng.random((k, n)), rng.random((k, n))


def _sbx_pairs_via_oracle(A, B, lower, upper, eta, probability, draws):
    apply_coin, gene_coin, rand, swap_coin = draws
    children = [
        oracle_sbx(A[p], B[p], lower, upper, eta, probability, apply_coin[p], gene_coin[p],
                   rand[p], swap_coin[p])
        for p in range(A.shape[0])
    ]
    return np.array([c[0] for c in children]), np.array([c[1] for c in children])


class TestSBXOracle:
    @pytest.mark.parametrize("eta", ETAS)
    @pytest.mark.parametrize("probability", [0.0, 0.9, 1.0])
    def test_children_match_oracle_bitwise(self, eta, probability):
        rng = np.random.default_rng(int(eta * 10) + int(probability * 100))
        A, B = _parents(rng, 25)
        draws = _sbx_draws(rng, *A.shape)
        children_a, children_b = sbx_crossover(
            A, B, LOWER, UPPER, ScriptedRNG(*draws), eta=eta, probability=probability
        )
        expected_a, expected_b = _sbx_pairs_via_oracle(A, B, LOWER, UPPER, eta, probability, draws)
        assert _same_bits(children_a, expected_a)
        assert _same_bits(children_b, expected_b)

    def test_boundary_coins_follow_deb_comparisons(self):
        """Coins exactly at their thresholds: apply at ``r == probability``,
        cross at ``u == 0.5``, keep the order at ``swap == 0.5``."""
        A = np.array([[0.2, 0.4, 0.6], [0.1, 0.5, 0.9]])
        B = np.array([[0.7, 0.1, 0.3], [0.8, 0.2, 0.4]])
        lower, upper = np.zeros(3), np.ones(3)
        draws = (
            np.array([0.9, 0.9000000001]),
            np.array([[0.5, 0.5000001, 0.0], [0.5, 0.5, 0.5]]),
            np.array([[0.5, 0.25, 0.999], [0.5, 0.5, 0.5]]),
            np.array([[0.5, 0.9, 0.5000001], [0.5, 0.5, 0.5]]),
        )
        children = sbx_crossover(A, B, lower, upper, ScriptedRNG(*draws), probability=0.9)
        expected = _sbx_pairs_via_oracle(A, B, lower, upper, 15.0, 0.9, draws)
        assert _same_bits(children[0], expected[0]) and _same_bits(children[1], expected[1])
        assert not np.array_equal(children[0][0], A[0])  # the pair at r == p crossed
        assert _same_bits(children[0][1], A[1])  # the pair just above p did not

    def test_draw_order_and_shape_from_a_real_generator(self):
        A, B = _parents(np.random.default_rng(5), 7)
        rng = np.random.default_rng(11)
        children_a, children_b = sbx_crossover(A, B, LOWER, UPPER, rng, probability=0.9)
        twin = np.random.default_rng(11)
        draws = _sbx_draws(twin, *A.shape)
        expected_a, expected_b = _sbx_pairs_via_oracle(A, B, LOWER, UPPER, 15.0, 0.9, draws)
        assert _same_bits(children_a, expected_a) and _same_bits(children_b, expected_b)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_one_dimensional_input_is_one_pair(self):
        A, B = _parents(np.random.default_rng(6), 1)
        child_a, child_b = sbx_crossover(A[0], B[0], LOWER, UPPER, np.random.default_rng(3))
        batch_a, batch_b = sbx_crossover(A, B, LOWER, UPPER, np.random.default_rng(3))
        assert child_a.shape == (LOWER.size,)
        assert _same_bits(child_a, batch_a[0]) and _same_bits(child_b, batch_b[0])

    def test_inputs_are_not_modified(self):
        A, B = _parents(np.random.default_rng(7), 4)
        before = A.copy(), B.copy()
        sbx_crossover(A, B, LOWER, UPPER, np.random.default_rng(0), probability=1.0)
        assert _same_bits(A, before[0]) and _same_bits(B, before[1])


class TestMutationOracle:
    @pytest.mark.parametrize("eta", ETAS)
    @pytest.mark.parametrize("probability", [0.0, None, 0.5, 1.0])
    def test_rows_match_oracle_bitwise(self, eta, probability):
        rng = np.random.default_rng(int(eta * 7) + int(10 * (probability or 0.3)))
        lower, upper = LOWER.copy(), UPPER.copy()
        upper[2] = lower[2]  # a zero-width gene is never mutated
        X, _ = _parents(rng, 30, lower, upper)
        hit_coin, rand = rng.random(X.shape), rng.random(X.shape)
        mutated = polynomial_mutation(
            X, lower, upper, ScriptedRNG(hit_coin, rand), eta=eta, probability=probability
        )
        expected = np.array([
            oracle_polynomial_mutation(X[r], lower, upper, eta, probability, hit_coin[r], rand[r])
            for r in range(X.shape[0])
        ])
        assert _same_bits(mutated, expected)
        assert _same_bits(mutated[:, 2], X[:, 2])

    def test_draw_order_and_shape_from_a_real_generator(self):
        X, _ = _parents(np.random.default_rng(8), 9)
        rng = np.random.default_rng(12)
        mutated = polynomial_mutation(X, LOWER, UPPER, rng, probability=0.4)
        twin = np.random.default_rng(12)
        hit_coin, rand = twin.random(X.shape), twin.random(X.shape)
        expected = np.array([
            oracle_polynomial_mutation(X[r], LOWER, UPPER, 20.0, 0.4, hit_coin[r], rand[r])
            for r in range(X.shape[0])
        ])
        assert _same_bits(mutated, expected)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_boundary_coins(self):
        """A hit-coin equal to ``p`` mutates, one just above it does not."""
        x = np.array([[0.3, 0.6, 0.9]])
        hit_coin = np.array([[0.25, 0.2500001, 0.25]])
        rand = np.array([[0.7, 0.1, 0.5]])
        lower, upper = np.zeros(3), np.ones(3)
        mutated = polynomial_mutation(
            x, lower, upper, ScriptedRNG(hit_coin, rand), probability=0.25
        )
        expected = oracle_polynomial_mutation(x[0], lower, upper, 20.0, 0.25, hit_coin[0], rand[0])
        assert _same_bits(mutated[0], expected)
        assert mutated[0, 0] != x[0, 0] and mutated[0, 1] == x[0, 1]

    def test_default_probability_is_one_over_n_var(self):
        X = np.full((2, 4), 0.5)
        hit_coin = np.array([[0.25, 0.2500001, 0.9, 0.0], [1.0, 1.0, 1.0, 0.25]])
        rand = np.full((2, 4), 0.3)
        mutated = polynomial_mutation(X, np.zeros(4), np.ones(4), ScriptedRNG(hit_coin, rand))
        assert (mutated != X).tolist() == (hit_coin <= 0.25).tolist()

    def test_one_dimensional_input_is_one_row(self):
        x = np.linspace(0.1, 0.9, LOWER.size) * (UPPER - LOWER) + LOWER
        single = polynomial_mutation(x, LOWER, UPPER, np.random.default_rng(4), probability=1.0)
        batch = polynomial_mutation(
            x[None, :], LOWER, UPPER, np.random.default_rng(4), probability=1.0
        )
        assert single.shape == x.shape and _same_bits(single, batch[0])


class TestTournamentOracle:
    def _population(self, seed, size=16):
        problem = Schaffer()
        rng = np.random.default_rng(seed)
        population = Population.random(problem, size, rng)
        population.evaluate(problem)
        assign_ranks_and_crowding(population)
        rank, crowding = population.rank.copy(), population.crowding.copy()
        rank[::3], crowding[::3] = 0, 1.0  # force full ties
        population.rank, population.crowding = rank, crowding
        return population

    @pytest.mark.parametrize("seed", range(4))
    def test_winners_match_oracle(self, seed):
        population = self._population(seed)
        rng = np.random.default_rng(100 + seed)
        pairs = rng.integers(0, len(population), (60, 2))
        tie_coin = rng.random(60)
        tie_coin[::7] = 0.5  # a coin of exactly 0.5 hands the tie to the second contestant
        winners = binary_tournament(population, ScriptedRNG(pairs, tie_coin), 60)
        expected = [oracle_binary_tournament(population, p, c) for p, c in zip(pairs, tie_coin)]
        assert winners.tolist() == expected

    def test_draw_order_from_a_real_generator(self):
        population = self._population(9)
        rng = np.random.default_rng(21)
        winners = binary_tournament(population, rng, 10)
        twin = np.random.default_rng(21)
        pairs, tie_coin = twin.integers(0, len(population), (10, 2)), twin.random(10)
        assert winners.tolist() == [
            oracle_binary_tournament(population, p, c) for p, c in zip(pairs, tie_coin)
        ]
        assert rng.bit_generator.state == twin.bit_generator.state


class TestNoRuntimeWarnings:
    def test_degenerate_inputs_stay_silent(self):
        lower = np.array([0.0, 1.0, -1.0, 0.0])
        upper = np.array([1.0, 1.0, 1.0, 1e-300])
        A = np.array([[0.0, 1.0, 1.0, 0.0], [1.0, 1.0, -1.0, 1e-300], [0.5, 1.0, 0.0, 0.0]])
        B = np.array([[1.0, 1.0, 1.0, 1e-300], [1.0, 1.0, 1.0, 0.0], [0.5, 1.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for eta in ETAS:
                rng = np.random.default_rng(int(eta))
                children = sbx_crossover(A, B, lower, upper, rng, eta=eta, probability=1.0)
                for child in children:
                    assert np.all(np.isfinite(child))
                    polynomial_mutation(child, lower, upper, rng, eta=eta, probability=1.0)


SCIENCE_PROBLEMS = ["zdt1", "photosynthesis", "geobacter"]


@pytest.fixture(scope="module", params=SCIENCE_PROBLEMS)
def problem(request):
    return build_problem(request.param)


class TestExactVectorizations:
    def test_differential_variation_matches_loop_at_same_seed(self, problem):
        lower, upper = problem.lower_bounds, problem.upper_bounds
        span = np.where(upper > lower, upper - lower, 1.0)
        for seed in range(5):
            draw = np.random.default_rng(seed)
            base, a, b = (lower + draw.random((3, lower.size)) * span).clip(lower, upper)
            # A large scale pushes trial genes past both bounds, so the
            # reflection (and the clip after it) does real work.
            for scale in (0.5, 3.0):
                child = differential_variation(
                    base, a, b, lower, upper, np.random.default_rng(seed), scale=scale,
                    crossover_rate=0.7,
                )
                expected = oracle_differential_variation(
                    base, a, b, lower, upper, np.random.default_rng(seed), scale=scale,
                    crossover_rate=0.7,
                )
                assert _same_bits(child, expected)

    def test_latin_hypercube_matches_loop_at_same_seed(self, problem):
        for seed in range(3):
            population = latin_hypercube(problem, 12, np.random.default_rng(seed))
            expected = oracle_latin_hypercube(problem, 12, np.random.default_rng(seed))
            assert _same_bits(population.X, expected.X)
