"""Tests for individuals and populations."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo.individual import Individual, Population
from repro.problems import BatchEvaluation, EvaluationResult, build_problem
from repro.moo.testproblems import Schaffer


class TestIndividual:
    def test_starts_unevaluated(self):
        individual = Individual(np.array([1.0]))
        assert not individual.is_evaluated
        assert individual.is_feasible

    def test_set_evaluation_stores_objectives_and_violation(self):
        individual = Individual(np.array([1.0]))
        individual.set_evaluation(
            EvaluationResult(
                objectives=np.array([1.0, 2.0]),
                constraint_violations=np.array([0.3]),
                info={"note": "x"},
            )
        )
        assert individual.is_evaluated
        assert individual.objectives == pytest.approx([1.0, 2.0])
        assert individual.constraint_violation == pytest.approx(0.3)
        assert not individual.is_feasible
        assert individual.info == {"note": "x"}

    def test_copy_is_deep(self):
        individual = Individual(np.array([1.0, 2.0]))
        individual.set_evaluation(EvaluationResult(objectives=np.array([3.0])))
        clone = individual.copy()
        clone.x[0] = 99.0
        clone.objectives[0] = 99.0
        assert individual.x[0] == 1.0
        assert individual.objectives[0] == 3.0

    def test_decision_vector_is_copied_on_construction(self):
        source = np.array([1.0, 2.0])
        individual = Individual(source)
        source[0] = 50.0
        assert individual.x[0] == 1.0


class TestPopulation:
    def test_random_population_respects_bounds_and_size(self):
        problem = Schaffer()
        population = Population.random(problem, 16, np.random.default_rng(0))
        assert len(population) == 16
        for individual in population:
            assert problem.lower_bounds[0] <= individual.x[0] <= problem.upper_bounds[0]

    def test_random_population_requires_positive_size(self):
        with pytest.raises(ConfigurationError):
            Population.random(Schaffer(), 0, np.random.default_rng(0))

    def test_evaluate_only_touches_unevaluated(self):
        problem = Schaffer()
        population = Population.random(problem, 4, np.random.default_rng(0))
        assert population.evaluate(problem) == 4
        assert population.evaluate(problem) == 0

    def test_objective_matrix_requires_evaluation(self):
        population = Population.from_vectors([np.array([0.5])])
        with pytest.raises(ConfigurationError):
            population.objective_matrix()

    def test_matrices_have_expected_shapes(self):
        problem = Schaffer()
        population = Population.random(problem, 6, np.random.default_rng(1))
        population.evaluate(problem)
        assert population.objective_matrix().shape == (6, 2)
        assert population.decision_matrix().shape == (6, 1)
        assert population.violations().shape == (6,)

    def test_slicing_returns_population(self):
        problem = Schaffer()
        population = Population.random(problem, 6, np.random.default_rng(1))
        subset = population[:3]
        assert isinstance(subset, Population)
        assert len(subset) == 3

    def test_feasible_filters_by_violation(self):
        a = Individual(np.array([0.0]))
        a.set_evaluation(EvaluationResult(objectives=np.array([1.0])))
        b = Individual(np.array([0.0]))
        b.set_evaluation(
            EvaluationResult(
                objectives=np.array([1.0]), constraint_violations=np.array([1.0])
            )
        )
        population = Population([a, b])
        assert len(population.feasible()) == 1

    def test_best_by_objective(self):
        problem = Schaffer()
        population = Population.random(problem, 12, np.random.default_rng(2))
        population.evaluate(problem)
        best = population.best_by_objective(0)
        values = population.objective_matrix()[:, 0]
        assert best.objectives[0] == pytest.approx(values.min())

    def test_best_by_objective_empty_population(self):
        with pytest.raises(ConfigurationError):
            Population().best_by_objective(0)

    def test_copy_is_deep(self):
        problem = Schaffer()
        population = Population.random(problem, 3, np.random.default_rng(3))
        clone = population.copy()
        clone[0].x[0] = 123.0
        assert population[0].x[0] != 123.0


class _ColumnMajorConstraints:
    """Stub problem whose batches carry a Fortran-ordered ``G`` of 300 columns."""

    def evaluate_matrix(self, X):
        rng = np.random.default_rng(len(X))
        G = np.asfortranarray(rng.normal(size=(len(X), 300)))
        return BatchEvaluation(F=X[:, :2].copy(), G=G)


class TestEvaluateWritesColumns:
    @pytest.mark.parametrize("name", ["geobacter", "zdt1", "bnh"])
    def test_cv_column_equals_per_row_total_violation(self, name):
        problem = build_problem(name)
        population = Population.random(problem, 8, np.random.default_rng(3))
        population.evaluate(problem)
        batch = problem.evaluate_matrix(population.X)
        expected = np.array([batch.result(i).total_violation for i in range(len(batch))])
        assert population.CV.tobytes() == expected.tobytes()
        assert population.F.tobytes() == batch.F.tobytes()

    def test_cv_of_a_column_major_constraint_matrix_is_summed_per_row(self):
        # numpy sums the rows of a Fortran-ordered matrix in another order
        # than each row alone; the CV column must still match the per-row sum.
        population = Population.from_vectors(np.random.default_rng(5).random((40, 3)))
        stub = _ColumnMajorConstraints()
        population.evaluate(stub)
        batch = stub.evaluate_matrix(population.X)
        expected = np.array([batch.result(i).total_violation for i in range(len(batch))])
        assert population.CV.tobytes() == expected.tobytes()

    def test_only_pending_rows_are_evaluated(self):
        problem = Schaffer()
        done = Population.random(problem, 3, np.random.default_rng(0))
        done.evaluate(problem)
        population = Population.concat([done, Population.random(problem, 2, np.random.default_rng(1))])
        seen = []
        population.evaluate(_Recording(problem, seen))
        assert [len(X) for X in seen] == [2]
        np.testing.assert_array_equal(population.F[:3], done.F)
        assert population.is_evaluated


class _Recording:
    def __init__(self, problem, seen):
        self.problem, self.seen = problem, seen

    def evaluate_matrix(self, X):
        self.seen.append(X)
        return self.problem.evaluate_matrix(X)


class TestColumnsAndSnapshots:
    def _evaluated(self, size=6):
        problem = Schaffer()
        population = Population.random(problem, size, np.random.default_rng(4))
        population.evaluate(problem)
        return population

    def test_rows_are_snapshots(self):
        population = self._evaluated()
        row = population[0]
        row.x[0] = 123.0
        row.objectives[0] = 123.0
        assert population.X[0, 0] != 123.0 and population.F[0, 0] != 123.0

    def test_columns_are_read_only_and_survive_pickling_read_only(self):
        import pickle

        population = pickle.loads(pickle.dumps(self._evaluated()))
        for column in (population.X, population.F, population.CV,
                       population.rank, population.crowding):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_held_columns_do_not_change_when_rows_are_replaced(self):
        population = self._evaluated()
        held = population.F
        before = held.copy()
        population.replace_rows([0, 1], population.take([5, 4]))
        np.testing.assert_array_equal(held, before)
        np.testing.assert_array_equal(population.F[[0, 1]], before[[5, 4]])

    def test_replace_rows_needs_one_row_per_slot(self):
        population = self._evaluated()
        with pytest.raises(ConfigurationError):
            population.replace_rows([0, 1], population.take([5]))

    def test_unranked_rows_snapshot_rank_none(self):
        population = self._evaluated()
        assert population[0].rank is None
        population.rank = np.arange(len(population))
        assert population[2].rank == 2
        with pytest.raises(ConfigurationError):
            population.rank = [0]
