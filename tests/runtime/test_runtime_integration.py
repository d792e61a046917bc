"""End-to-end runtime tests: pooled determinism, engines, designer knobs."""

import numpy as np
import pytest

from repro.core.designer import RobustPathwayDesigner
from repro.moo.moead import MOEAD, MOEADConfig
from repro.moo.nsga2 import NSGA2, NSGA2Config
from repro.moo.pmo2 import PMO2, PMO2Config
from repro.moo.robustness import (
    RobustnessSettings,
    front_yields,
    local_yields,
    uptake_yield,
)
from repro.moo.testproblems import ZDT1, Schaffer
from repro.runtime import ProcessPoolEvaluator, build_evaluator
from repro.solve import solve
from tests.stepping import stepped


def _zdt1_f1(x):
    return float(np.asarray(x)[0])


def test_runtime_imports_standalone():
    """`import repro.runtime` must work as the first repro import of a process.

    The runtime layer sits below repro.moo; a module-level runtime -> moo
    import would create a cycle that only bites when repro.runtime is
    imported first, which in-process tests can never observe — hence the
    subprocess.
    """
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for entry in (
        "from repro.runtime import build_evaluator",
        "from repro.runtime.ledger import EvaluationLedger",
        "from repro.runtime.checkpoint import CheckpointManager",
    ):
        completed = subprocess.run(
            [sys.executable, "-c", entry], capture_output=True, text=True, env=env
        )
        assert completed.returncode == 0, completed.stderr


class TestPooledDeterminism:
    """Pooled and cached solve() runs against the serial stepping loop."""

    def test_pmo2_pool_matches_serial_bitwise(self):
        problem = ZDT1(n_var=6)
        config = dict(island_population_size=8, migration_interval=3)
        serial = stepped(PMO2(problem, PMO2Config(**config), seed=11), 6).result()
        pooled = solve(problem, "pmo2", config=PMO2Config(**config, n_workers=2),
                       seed=11, termination=6)
        assert np.array_equal(serial.front_objectives(), pooled.front_objectives())
        assert np.array_equal(serial.front_decisions(), pooled.front_decisions())
        assert serial.evaluations == pooled.evaluations

    def test_pmo2_cache_matches_serial_bitwise(self):
        problem = ZDT1(n_var=6)
        config = dict(island_population_size=8, migration_interval=3)
        serial = stepped(PMO2(problem, PMO2Config(**config), seed=11), 6).result()
        cached = solve(problem, "pmo2", config=PMO2Config(**config, cache_evaluations=True),
                       seed=11, termination=6)
        assert np.array_equal(serial.front_objectives(), cached.front_objectives())
        assert cached.ledger.total_cache_hits > 0

    def test_nsga2_pool_matches_serial_bitwise(self):
        problem = ZDT1(n_var=6)
        config = NSGA2Config(population_size=8)
        serial = stepped(NSGA2(problem, config, seed=5), 6).result()
        with build_evaluator(n_workers=2) as evaluator:
            pooled = solve(problem, "nsga2", config=config, seed=5, termination=6,
                           evaluator=evaluator)
        assert np.array_equal(
            serial.archive.objective_matrix(), pooled.archive.objective_matrix()
        )

    def test_moead_pool_matches_serial_bitwise(self):
        problem = ZDT1(n_var=6)
        config = MOEADConfig(population_size=8, neighborhood_size=4)
        serial = stepped(MOEAD(problem, config, seed=5), 4).result()
        with ProcessPoolEvaluator(n_workers=2) as evaluator:
            pooled = solve(problem, "moead", config=config, seed=5, termination=4,
                           evaluator=evaluator)
        assert np.array_equal(
            serial.archive.objective_matrix(), pooled.archive.objective_matrix()
        )

    def test_pmo2_result_carries_ledger(self):
        result = solve(
            Schaffer(), "pmo2", config=PMO2Config(island_population_size=8, migration_interval=3),
            seed=1, termination=4,
        )
        assert result.ledger is not None
        assert result.ledger.total_evaluations == result.evaluations
        assert result.ledger.phases["optimize"].wall_clock > 0.0


class TestRobustnessParallel:
    def test_uptake_yield_parallel_matches_serial(self):
        settings = RobustnessSettings(epsilon=0.1, global_trials=40, seed=0)
        x = np.array([0.4, 0.5, 0.6])
        serial = uptake_yield(x, _zdt1_f1, settings=settings)
        parallel = uptake_yield(x, _zdt1_f1, settings=settings, n_workers=2)
        assert np.array_equal(serial.perturbed_values, parallel.perturbed_values)
        assert serial.yield_fraction == parallel.yield_fraction

    def test_front_yields_flattened_matches_per_design(self):
        settings = RobustnessSettings(epsilon=0.1, global_trials=30, seed=0)
        decisions = np.array([[0.2, 0.3, 0.4], [0.5, 0.6, 0.7], [0.8, 0.1, 0.9]])
        flattened = front_yields(decisions, _zdt1_f1, settings=settings, n_workers=2)
        per_design = [uptake_yield(row, _zdt1_f1, settings=settings) for row in decisions]
        assert len(flattened) == len(per_design)
        for flat, single in zip(flattened, per_design):
            assert flat.nominal_value == single.nominal_value
            assert np.array_equal(flat.perturbed_values, single.perturbed_values)
            assert flat.yield_fraction == single.yield_fraction

    def test_local_yields_parallel_matches_serial(self):
        settings = RobustnessSettings(epsilon=0.1, local_trials=15, seed=0)
        x = np.array([0.4, 0.5, 0.6])
        serial = local_yields(x, _zdt1_f1, settings=settings)
        parallel = local_yields(x, _zdt1_f1, settings=settings, n_workers=2)
        assert serial.keys() == parallel.keys()
        for name in serial:
            assert np.array_equal(
                serial[name].perturbed_values, parallel[name].perturbed_values
            )


class TestDesignerKnobs:
    def _designer(self, **kwargs):
        return RobustPathwayDesigner(
            Schaffer(),
            PMO2Config(island_population_size=8, migration_interval=3),
            seed=4,
            **kwargs,
        )

    def test_design_report_carries_phased_ledger(self, tmp_path):
        designer = self._designer(checkpoint_dir=str(tmp_path), checkpoint_interval=2)
        report = designer.design(
            generations=4,
            property_function=_zdt1_f1,
            robustness_settings=RobustnessSettings(epsilon=0.1, global_trials=20, seed=0),
        )
        assert report.ledger is not None
        assert report.ledger.phases["optimize"].evaluations > 0
        assert report.ledger.phases["robustness"].evaluations > 0
        assert any(path.name.startswith("checkpoint-") for path in tmp_path.iterdir())

    def test_parallel_designer_matches_serial(self):
        settings = RobustnessSettings(epsilon=0.1, global_trials=20, seed=0)
        serial = self._designer().design(generations=4, property_function=_zdt1_f1,
                                         robustness_settings=settings)
        parallel = self._designer(n_workers=2).design(
            generations=4, property_function=_zdt1_f1, robustness_settings=settings
        )
        assert np.array_equal(serial.front_objectives, parallel.front_objectives)
        for a, b in zip(serial.selections, parallel.selections):
            assert a.criterion == b.criterion
            assert a.yield_percentage == pytest.approx(b.yield_percentage)

    def test_designer_resumes_from_checkpoint(self, tmp_path):
        settings = RobustnessSettings(epsilon=0.1, global_trials=20, seed=0)
        baseline = self._designer().design(
            generations=6, property_function=_zdt1_f1, robustness_settings=settings
        )
        interrupted = self._designer(
            checkpoint_dir=str(tmp_path), checkpoint_interval=2
        )
        interrupted.optimize(generations=3)  # "killed" after 3 generations
        resumed = self._designer(
            checkpoint_dir=str(tmp_path), checkpoint_interval=2
        ).design(generations=6, property_function=_zdt1_f1, robustness_settings=settings)
        assert np.array_equal(baseline.front_objectives, resumed.front_objectives)
        for a, b in zip(baseline.selections, resumed.selections):
            assert a.yield_percentage == pytest.approx(b.yield_percentage)
