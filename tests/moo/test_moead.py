"""Tests for the MOEA/D optimizer."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo.metrics import inverted_generational_distance
from repro.moo.moead import MOEAD, MOEADConfig, uniform_weight_vectors
from repro.moo.testproblems import DTLZ2, Schaffer, ZDT1
from repro.solve import CallbackObserver, solve
from tests.stepping import stepped


def _run(problem, config, seed, generations, **kwargs):
    return solve(problem, "moead", config=config, seed=seed,
                 termination=generations, **kwargs)


class TestWeightVectors:
    def test_two_objective_weights_sum_to_one(self):
        weights = uniform_weight_vectors(2, 11)
        assert weights.shape == (11, 2)
        assert np.allclose(weights.sum(axis=1), 1.0)
        assert weights[0] == pytest.approx([0.0, 1.0])
        assert weights[-1] == pytest.approx([1.0, 0.0])

    def test_three_objective_weights_on_simplex(self):
        weights = uniform_weight_vectors(3, 15)
        assert weights.shape[0] == 15
        assert np.allclose(weights.sum(axis=1), 1.0)
        assert np.all(weights >= 0.0)

    def test_rejects_single_objective(self):
        with pytest.raises(ConfigurationError):
            uniform_weight_vectors(1, 10)

    def test_rejects_population_smaller_than_objectives(self):
        with pytest.raises(ConfigurationError):
            uniform_weight_vectors(3, 2)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 2},
            {"neighborhood_size": 1},
            {"neighborhood_size": 200, "population_size": 20},
            {"variation": "bogus"},
            {"neighborhood_selection_probability": 2.0},
            {"max_replacements": 0},
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            MOEADConfig(**kwargs).validate()

    @pytest.mark.parametrize("kwargs", [{"crossover_eta": 0.0}, {"mutation_eta": 0.0},
                                        {"mutation_eta": -1.0}])
    def test_non_positive_distribution_index_rejected(self, kwargs):
        with pytest.raises(ConfigurationError, match="eta must be positive"):
            MOEADConfig(**kwargs).validate()


class TestMOEADRun:
    def test_population_size_and_generations(self):
        result = _run(Schaffer(), MOEADConfig(population_size=20, neighborhood_size=5), 0, 5)
        assert len(result.population) == 20
        assert result.generations == 5

    def test_evaluation_budget(self):
        result = _run(Schaffer(), MOEADConfig(population_size=20, neighborhood_size=5), 0, 5)
        # Initialization + one offspring per sub-problem per generation.
        assert result.evaluations == 20 + 20 * 5

    def test_negative_generations_rejected(self):
        with pytest.raises(ConfigurationError):
            _run(Schaffer(), None, 0, -2)

    def test_ideal_point_tracks_minimum(self):
        optimizer = MOEAD(Schaffer(), MOEADConfig(population_size=16, neighborhood_size=4), seed=1)
        stepped(optimizer, 5)
        matrix = optimizer.archive.objective_matrix()
        assert optimizer.ideal[0] <= matrix[:, 0].min() + 1e-9
        assert optimizer.ideal[1] <= matrix[:, 1].min() + 1e-9

    def test_converges_on_schaffer(self):
        problem = Schaffer()
        result = _run(problem, MOEADConfig(population_size=30, neighborhood_size=8), 2, 40)
        igd = inverted_generational_distance(
            result.archive.objective_matrix(), problem.true_front()
        )
        assert igd < 0.3

    def test_sbx_variation_mode_runs(self):
        config = MOEADConfig(population_size=12, neighborhood_size=4, variation="sbx")
        result = _run(ZDT1(n_var=6), config, 3, 3)
        assert len(result.front) > 0

    def test_three_objective_problem_runs(self):
        result = _run(
            DTLZ2(n_obj=3, n_var=7),
            MOEADConfig(population_size=21, neighborhood_size=5),
            4,
            5,
        )
        assert result.archive.objective_matrix().shape[1] == 3

    def test_seed_reproducibility(self):
        fronts = []
        for _ in range(2):
            result = _run(
                Schaffer(), MOEADConfig(population_size=12, neighborhood_size=4), 11, 5
            )
            fronts.append(result.archive.objective_matrix())
        assert np.allclose(fronts[0], fronts[1])


class TestMOEADCheckpointParity:
    """MOEA/D now has the checkpoint/resume support the other engines had."""

    def test_run_accepts_checkpoint_and_saves_on_interval(self, tmp_path):
        from repro.runtime.checkpoint import CheckpointManager

        manager = CheckpointManager(tmp_path, interval=2)
        config = MOEADConfig(population_size=12, neighborhood_size=4)
        _run(Schaffer(), config, 5, 6, checkpoint=manager)
        assert [path.name for path in manager.checkpoints()] == [
            "checkpoint-00000002.pkl",
            "checkpoint-00000004.pkl",
            "checkpoint-00000006.pkl",
        ]

    def test_resume_is_bitwise_identical(self, tmp_path):
        from repro.runtime.checkpoint import CheckpointManager

        def config():
            return MOEADConfig(population_size=12, neighborhood_size=4)

        uninterrupted = _run(Schaffer(), config(), 5, 8)

        manager = CheckpointManager(tmp_path, interval=3)
        _run(Schaffer(), config(), 5, 5, checkpoint=manager)
        resumed = _run(Schaffer(), config(), 5, 8, checkpoint=manager)

        assert resumed.generations == 8
        assert resumed.evaluations == uninterrupted.evaluations
        assert np.array_equal(
            uninterrupted.archive.objective_matrix(),
            resumed.archive.objective_matrix(),
        )
        assert np.array_equal(
            uninterrupted.population.decision_matrix(),
            resumed.population.decision_matrix(),
        )

    def test_callback_runs_every_generation(self):
        generations = []
        config = MOEADConfig(population_size=12, neighborhood_size=4)
        observer = CallbackObserver(
            on_generation=lambda event: generations.append(event.generation)
        )
        _run(Schaffer(), config, 5, 4, observers=[observer])
        assert generations == [1, 2, 3, 4]


class TestAdaptiveNeighborhoodDefault:
    def test_default_resolves_to_twenty_for_large_populations(self):
        assert MOEADConfig(population_size=100).resolved_neighborhood_size() == 20

    def test_default_shrinks_with_small_populations(self):
        assert MOEADConfig(population_size=8).resolved_neighborhood_size() == 4
        # The programmatic API works at small populations without an explicit
        # neighborhood_size, exactly like the CLI.
        result = _run(Schaffer(), MOEADConfig(population_size=8), 0, 2)
        assert result.generations == 2

    def test_explicit_oversized_neighborhood_still_rejected(self):
        with pytest.raises(ConfigurationError):
            MOEADConfig(population_size=8, neighborhood_size=20).validate()
