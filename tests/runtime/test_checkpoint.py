"""Tests for checkpoint/resume: manager mechanics and optimizer equivalence.

Resumed ``solve()`` runs are checked against an uninterrupted reference
built by the plain ``initialize(); step() x N`` loop on a hand-built engine.
"""

import pickle
import sys
import types

import numpy as np
import pytest

from repro.exceptions import CheckpointError, ConfigurationError
from repro.moo.nsga2 import NSGA2, NSGA2Config
from repro.moo.pmo2 import PMO2, PMO2Config
from repro.moo.testproblems import ZDT1
from repro.runtime import CheckpointManager
from repro.solve import solve
from tests.stepping import stepped


class TestManager:
    def test_save_load_roundtrip(self, tmp_path):
        manager = CheckpointManager(tmp_path, interval=5)
        manager.save({"answer": 42}, generation=5)
        state, generation = manager.load()
        assert state == {"answer": 42} and generation == 5

    def test_latest_picks_highest_generation(self, tmp_path):
        manager = CheckpointManager(tmp_path, interval=1, keep=10)
        for generation in (1, 3, 2):
            manager.save(generation, generation=generation)
        _, generation = manager.load()
        assert generation == 3

    def test_maybe_save_follows_interval(self, tmp_path):
        manager = CheckpointManager(tmp_path, interval=4)
        assert manager.maybe_save("state", 3) is None
        assert manager.maybe_save("state", 4) is not None
        assert manager.maybe_save("state", 0) is None

    def test_prune_keeps_most_recent(self, tmp_path):
        manager = CheckpointManager(tmp_path, interval=1, keep=2)
        for generation in range(1, 6):
            manager.save(generation, generation=generation)
        names = [path.name for path in manager.checkpoints()]
        assert names == ["checkpoint-00000004.pkl", "checkpoint-00000005.pkl"]

    def test_load_without_checkpoints_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        assert manager.load_latest() is None
        with pytest.raises(CheckpointError):
            manager.load()

    def test_truncated_checkpoint_raises_checkpoint_error(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = manager.save("state", generation=10)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(CheckpointError):
            manager.load()

    def test_foreign_optimizer_state_is_rejected(self, tmp_path):
        # An NSGA-II checkpoint directory resumed by MOEA/D must fail loudly
        # instead of grafting NSGA-II state onto the MOEA/D engine.
        problem = ZDT1(n_var=6)
        solve(problem, "nsga2", population_size=8, seed=0, termination=4,
              checkpoint_dir=str(tmp_path), checkpoint_interval=2)
        with pytest.raises(CheckpointError, match="NSGA2.*MOEAD"):
            solve(problem, "moead", population_size=8, seed=0, termination=6,
                  checkpoint_dir=str(tmp_path))

    @pytest.mark.parametrize("old_version", [1, 2])
    def test_checkpoint_of_the_previous_format_version_is_refused(
        self, tmp_path, old_version
    ):
        # Version-1 checkpoints hold states of the per-pair variation
        # operators; resuming one under the batched operators would finish a
        # run that matches neither random stream.  Version-2 checkpoints
        # pickle populations of individuals, not columns.
        problem = ZDT1(n_var=6)
        solve(problem, "nsga2", population_size=8, seed=0, termination=4,
              checkpoint_dir=str(tmp_path), checkpoint_interval=2)
        manager = CheckpointManager(tmp_path)
        state, generation = manager.load()
        payload = {"format_version": old_version, "generation": generation, "state": state}
        manager.latest().write_bytes(pickle.dumps(payload))
        with pytest.raises(
            CheckpointError, match="format version %d.*version 3" % old_version
        ):
            manager.load()
        with pytest.raises(CheckpointError, match="format version %d" % old_version):
            solve(problem, "nsga2", population_size=8, seed=0, termination=6,
                  checkpoint_dir=str(tmp_path))

    def test_state_of_a_removed_class_is_a_checkpoint_error(self, tmp_path, monkeypatch):
        # A checkpoint written by a version that had a module this one
        # deleted must be refused like any other unreadable checkpoint.
        module = types.ModuleType("repro_removed_module")

        class Ghost:
            generation = 3

        Ghost.__module__, Ghost.__qualname__ = module.__name__, "Ghost"
        module.Ghost = Ghost
        monkeypatch.setitem(sys.modules, module.__name__, module)
        manager = CheckpointManager(tmp_path)
        manager.save(Ghost(), generation=3)
        monkeypatch.delitem(sys.modules, module.__name__)
        with pytest.raises(CheckpointError, match="cannot read checkpoint") as excinfo:
            manager.load()
        assert isinstance(excinfo.value.__cause__, ModuleNotFoundError)

    def test_rejects_bad_configuration(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointManager(tmp_path, interval=0)
        with pytest.raises(ConfigurationError):
            CheckpointManager(tmp_path, keep=0)


def _config():
    return PMO2Config(island_population_size=8, migration_interval=3)


def _pmo2(generations, **checkpointing):
    return solve(ZDT1(n_var=6), "pmo2", config=_config(), seed=7,
                 termination=generations, **checkpointing)


class TestPMO2Resume:
    def test_killed_run_resumes_to_identical_archive(self, tmp_path):
        baseline = stepped(PMO2(ZDT1(n_var=6), _config(), seed=7), 12).result()

        # Simulate a run killed at generation 7 (checkpoints land at 4).
        manager = CheckpointManager(tmp_path, interval=4)
        _pmo2(7, checkpoint=manager)
        assert manager.latest() is not None

        resumed = _pmo2(12, checkpoint=manager)
        assert resumed.generations == 12
        assert np.array_equal(
            baseline.front_objectives(), resumed.front_objectives()
        )
        assert np.array_equal(baseline.front_decisions(), resumed.front_decisions())
        assert resumed.evaluations == baseline.evaluations

    def test_completed_run_does_not_rerun(self, tmp_path):
        manager = CheckpointManager(tmp_path, interval=4)
        first = _pmo2(8, checkpoint=manager)
        again = _pmo2(8, checkpoint=manager)
        assert again.generations == 8
        assert np.array_equal(first.front_objectives(), again.front_objectives())

    def test_checkpoint_dir_convenience_knob(self, tmp_path):
        result = _pmo2(6, checkpoint_dir=str(tmp_path), checkpoint_interval=3)
        assert result.generations == 6
        assert any(path.name.startswith("checkpoint-") for path in tmp_path.iterdir())

    def test_resumed_ledger_keeps_counting(self, tmp_path):
        manager = CheckpointManager(tmp_path, interval=3)
        partial = _pmo2(3, checkpoint=manager)
        resumed = _pmo2(6, checkpoint=manager)
        assert resumed.ledger is not None
        assert resumed.ledger.total_evaluations > partial.ledger.total_evaluations


class TestNSGA2Resume:
    def test_killed_run_resumes_to_identical_archive(self, tmp_path):
        problem = ZDT1(n_var=6)
        config = NSGA2Config(population_size=8)
        baseline = stepped(NSGA2(problem, config, seed=3), 10).result()

        manager = CheckpointManager(tmp_path, interval=4)
        solve(problem, "nsga2", config=config, seed=3, termination=6, checkpoint=manager)
        resumed = solve(
            problem, "nsga2", config=config, seed=3, termination=10, checkpoint=manager
        )

        assert resumed.generations == 10
        assert np.array_equal(
            baseline.archive.objective_matrix(), resumed.archive.objective_matrix()
        )
