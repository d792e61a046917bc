"""Tests for the PMO2 framework."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.moo.metrics import inverted_generational_distance
from repro.moo.pmo2 import PMO2, PMO2Config
from repro.moo.testproblems import Schaffer, ZDT1
from repro.solve import MaxEvaluations, solve
from tests.stepping import stepped


def _run(problem, config, seed, termination):
    return solve(problem, "pmo2", config=config, seed=seed, termination=termination)


class TestConfig:
    def test_defaults_follow_paper(self):
        config = PMO2Config()
        assert config.n_islands == 2
        assert config.migration_interval == 200
        assert config.migration_rate == pytest.approx(0.5)
        assert config.topology == "all-to-all"
        config.validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_islands": 0},
            {"island_population_size": 3},
            {"island_population_size": 13},
            {"migration_rate": 1.2},
            {"migration_interval": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PMO2Config(**kwargs).validate()


class TestPaperConfiguration:
    def test_builds_two_nsga2_islands_with_broadcast(self):
        pmo2 = PMO2.paper_configuration(Schaffer(), seed=0, population_size=12)
        assert len(pmo2.archipelago.islands) == 2
        assert type(pmo2.archipelago.topology).__name__ == "AllToAllTopology"
        assert pmo2.archipelago.policy.interval == 200
        assert pmo2.archipelago.policy.rate == pytest.approx(0.5)


class TestRun:
    def test_run_returns_merged_front(self):
        config = PMO2Config(island_population_size=12, migration_interval=5)
        result = _run(Schaffer(), config, 1, 10)
        assert len(result.front) > 0
        assert result.generations == 10
        assert result.evaluations == 2 * 12 * 11  # two islands, init + 10 offspring rounds
        assert len(result.island_fronts) == 2

    def test_front_matrices_are_consistent(self):
        config = PMO2Config(island_population_size=12, migration_interval=5)
        result = _run(Schaffer(), config, 1, 5)
        objectives = result.front_objectives()
        decisions = result.front_decisions()
        assert objectives.shape[0] == decisions.shape[0]
        assert objectives.shape[1] == 2

    def test_run_evaluations_budget(self):
        config = PMO2Config(island_population_size=12, migration_interval=5)
        result = _run(Schaffer(), config, 2, MaxEvaluations(500))
        assert result.evaluations >= 500
        # The overshoot is bounded by one generation of both islands.
        assert result.evaluations <= 500 + 2 * 2 * 12

    def test_run_evaluations_requires_positive_budget(self):
        with pytest.raises(ConfigurationError):
            _run(Schaffer(), PMO2Config(island_population_size=12), 0, MaxEvaluations(0))

    def test_migrations_are_counted(self):
        config = PMO2Config(island_population_size=12, migration_interval=4)
        pmo2 = PMO2(Schaffer(), config, seed=3)
        stepped(pmo2, 12)
        assert pmo2.archipelago.migrations == 3

    def test_seed_reproducibility(self):
        config = PMO2Config(island_population_size=12, migration_interval=4)
        a = _run(Schaffer(), config, 7, 6).front_objectives()
        b = _run(Schaffer(), config, 7, 6).front_objectives()
        assert np.allclose(np.sort(a, axis=0), np.sort(b, axis=0))

    def test_converges_on_zdt1(self):
        problem = ZDT1(n_var=8)
        config = PMO2Config(island_population_size=20, migration_interval=10)
        result = _run(problem, config, 4, 40)
        igd = inverted_generational_distance(result.front_objectives(), problem.true_front())
        assert igd < 0.25

    def test_more_islands_supported(self):
        config = PMO2Config(n_islands=3, island_population_size=10, migration_interval=5)
        result = _run(Schaffer(), config, 5, 5)
        assert len(result.island_fronts) == 3
