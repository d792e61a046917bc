"""Tests for the NSGA-II optimizer."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo import kernels
from repro.moo.dominance import assign_ranks_and_crowding
from repro.moo.individual import Individual, Population
from repro.moo.metrics import inverted_generational_distance
from repro.moo.nsga2 import NSGA2, NSGA2Config
from repro.moo.testproblems import ConstrainedBNH, Schaffer, ZDT1
from repro.solve import CallbackObserver, solve
from tests.stepping import stepped


def _run(problem, config, seed, generations, **kwargs):
    return solve(problem, "nsga2", config=config, seed=seed,
                 termination=generations, **kwargs)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        NSGA2Config().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 3},
            {"population_size": 7},
            {"crossover_probability": 1.5},
            {"mutation_probability": -0.1},
            {"initialization": "bogus"},
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            NSGA2Config(**kwargs).validate()

    @pytest.mark.parametrize(
        "kwargs", [{"crossover_eta": 0.0}, {"crossover_eta": -2.0}, {"mutation_eta": -1.0},
                   {"mutation_eta": 0.0}],
    )
    def test_non_positive_distribution_index_rejected_before_any_evaluation(self, kwargs):
        problem = ZDT1(n_var=4)
        evaluated = []
        problem.evaluate_matrix = lambda X: evaluated.append(X)
        with pytest.raises(ConfigurationError, match="eta must be positive"):
            NSGA2Config(**kwargs).validate()
        with pytest.raises(ConfigurationError, match="eta must be positive"):
            _run(problem, NSGA2Config(population_size=8, **kwargs), 0, 2)
        assert evaluated == []


class TestNSGA2Run:
    def test_population_size_is_preserved(self):
        result = _run(Schaffer(), NSGA2Config(population_size=20), 0, 5)
        assert len(result.population) == 20
        assert result.generations == 5

    def test_evaluation_count_matches_budget(self):
        result = _run(Schaffer(), NSGA2Config(population_size=20), 0, 5)
        # Initial population + one offspring population per generation.
        assert result.evaluations == 20 * (5 + 1)

    def test_negative_generations_rejected(self):
        with pytest.raises(ConfigurationError):
            _run(Schaffer(), None, 0, -1)

    def test_archive_members_are_non_dominated(self):
        from repro.moo.dominance import dominates

        result = _run(Schaffer(), NSGA2Config(population_size=16), 1, 10)
        matrix = result.archive.objective_matrix()
        for i in range(matrix.shape[0]):
            for j in range(matrix.shape[0]):
                if i != j:
                    assert not dominates(matrix[i], matrix[j])

    def test_converges_towards_schaffer_front(self):
        problem = Schaffer()
        result = _run(problem, NSGA2Config(population_size=40), 2, 40)
        front = result.archive.objective_matrix()
        igd = inverted_generational_distance(front, problem.true_front())
        assert igd < 0.2

    def test_seed_reproducibility(self):
        results = []
        for _ in range(2):
            result = _run(Schaffer(), NSGA2Config(population_size=16), 42, 8)
            results.append(result.archive.objective_matrix())
        assert np.allclose(results[0], results[1])

    def test_different_seeds_differ(self):
        a = _run(ZDT1(n_var=6), NSGA2Config(population_size=16), 1, 5)
        b = _run(ZDT1(n_var=6), NSGA2Config(population_size=16), 2, 5)
        assert not np.allclose(
            a.population.decision_matrix(), b.population.decision_matrix()
        )

    def test_history_records_every_generation(self):
        result = _run(Schaffer(), NSGA2Config(population_size=16), 3, 7)
        assert len(result.history) == 7
        assert result.history[-1]["generation"] == 7

    def test_callback_invoked_each_generation(self):
        calls = []
        observer = CallbackObserver(on_generation=lambda event: calls.append(event.generation))
        _run(Schaffer(), NSGA2Config(population_size=16), 3, 4, observers=[observer])
        assert calls == [1, 2, 3, 4]

    def test_zero_generations_returns_initial_population(self):
        result = _run(Schaffer(), NSGA2Config(population_size=16), 3, 0)
        assert result.generations == 0
        assert len(result.population) == 16


class TestConstrainedOptimization:
    def test_population_becomes_mostly_feasible(self):
        result = _run(ConstrainedBNH(), NSGA2Config(population_size=30), 4, 20)
        feasible_fraction = len(result.population.feasible()) / len(result.population)
        assert feasible_fraction > 0.8


class TestMigrationHooks:
    def test_emigrants_are_copies_of_best(self):
        optimizer = stepped(NSGA2(Schaffer(), NSGA2Config(population_size=16), seed=5), 3)
        migrants = optimizer.emigrants(3)
        assert len(migrants) == 3
        for migrant in migrants:
            assert migrant.rank == 0

    def test_immigrate_keeps_population_size_and_absorbs_migrants(self):
        donor = NSGA2(Schaffer(), NSGA2Config(population_size=16), seed=6)
        receiver = NSGA2(Schaffer(), NSGA2Config(population_size=16), seed=7)
        stepped(donor, 5)
        stepped(receiver, 1)
        migrants = donor.emigrants(4)
        receiver.immigrate(migrants)
        assert len(receiver.population) == 16

    def test_immigrate_with_empty_list_is_noop(self):
        optimizer = stepped(NSGA2(Schaffer(), NSGA2Config(population_size=16), seed=8), 1)
        before = optimizer.population.decision_matrix().copy()
        optimizer.immigrate([])
        assert np.allclose(before, optimizer.population.decision_matrix())


def _tied_union(seed):
    """A parent+offspring union with ties, duplicate rows and mixed
    feasibility, and the population size to cut it to."""
    rng = np.random.default_rng(seed)
    n_obj = 2 + seed % 2
    size = 2 * int(rng.integers(2, 10))
    n = 2 * size
    F = rng.integers(0, rng.integers(2, 8), (n, n_obj)).astype(float)  # ties per column
    if seed % 3 == 0:
        F[:, -1] = 7.0 - F[:, 0]  # a trade-off: a first front larger than the cut
    copies = rng.integers(0, n, (n // 4, 2))
    F[copies[:, 0]] = F[copies[:, 1]]  # duplicate rows
    CV = np.where(rng.random(n) < 0.2, rng.integers(1, 3, n).astype(float), 0.0)
    rows = []
    for objectives, violation in zip(F, CV):
        row = Individual(rng.random(3))
        row.objectives, row.constraint_violation = objectives, float(violation)
        rows.append(row)
    return Population(rows), size


def _reference_survivors(union, size):
    """Row indices the pre-columnar selection kept: whole fronts, then the
    overflowing front in descending-crowding order."""
    fronts = assign_ranks_and_crowding(union)
    kept = []
    for front in fronts:
        if len(kept) + len(front) <= size:
            kept.extend(front)
            continue
        order = kernels.crowding_truncation_order(union.crowding[front])
        return kept + [front[k] for k in order[: size - len(kept)]]
    return kept


class TestEnvironmentalSelection:
    @pytest.mark.parametrize("seed", range(80))
    def test_carried_rank_and_crowding_equal_a_fresh_ranking(self, seed):
        union, size = _tied_union(seed)
        optimizer = NSGA2(ZDT1(n_var=3), NSGA2Config(population_size=size))
        survivors = optimizer._environmental_selection(union.copy())
        expected = _reference_survivors(union.copy(), size)
        np.testing.assert_array_equal(survivors.X, union.X[expected])
        fresh = survivors.copy()
        assign_ranks_and_crowding(fresh)
        assert survivors.rank.tolist() == fresh.rank.tolist()
        assert survivors.crowding.tobytes() == fresh.crowding.tobytes()

    def test_cases_cut_the_first_front_and_a_later_one(self):
        """The cases above cut front 0, and cut later fronts of three
        objectives, where rows tied in one column need not be duplicates and
        the order of the cut rows decides their crowding."""
        cuts = set()
        for seed in range(80):
            union, size = _tied_union(seed)
            fronts = assign_ranks_and_crowding(union)
            filled = 0
            for number, front in enumerate(fronts):
                if filled + len(front) > size:
                    if filled < size:
                        cuts.add((union.F.shape[1], number > 0))
                    break
                filled += len(front)
        assert {(2, False), (3, True)} <= cuts
