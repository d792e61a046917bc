"""Tests of the benchmark itself: probes, layer arithmetic, checks, exit codes.

Run from the root of a checkout::

    python -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import paper_runs
import run
import serve_jobs
from layers import LAYERS, LayerProbe, installed_wrappers, layer_times

ROOT = Path(__file__).resolve().parent.parent
TOY = ("--population", "8", "--generations", "4")


def _artifacts(out_dir: Path) -> dict[str, bytes]:
    # The manifest and the ledger also carry timestamps and wall-clock times.
    return {
        path.name: path.read_bytes()
        for path in sorted(out_dir.rglob("*"))
        if path.name in ("front.json", "front.csv", "result.json")
    }


def _traced(name: str, out_dir: Path):
    with LayerProbe() as probe:
        wall, problems, spans = paper_runs._traced_unit(
            lambda: paper_runs.run_unit(name, 3, out_dir, TOY)
        )
    return wall, problems, spans, probe.counts


@pytest.mark.parametrize("name", ["photosynthesis-table2", "geobacter-figure4"])
def test_wrapped_run_gives_bitwise_equal_artifacts(name, tmp_path):
    _, problems = paper_runs.run_unit(name, 3, tmp_path / "plain", TOY)
    assert problems == []
    _, problems, _, _ = _traced(name, tmp_path / "traced")
    assert problems == []
    plain, traced = _artifacts(tmp_path / "plain"), _artifacts(tmp_path / "traced")
    assert "front.json" in plain
    assert plain == traced


def test_probe_restores_every_entry_point(tmp_path):
    import repro.moo.nsga2 as nsga2
    from repro.moo import operators
    from repro.moo.archive import ParetoArchive

    originals = (nsga2.sbx_crossover, ParetoArchive.extend)
    with LayerProbe():
        assert nsga2.sbx_crossover is not originals[0]
        assert operators.sbx_crossover is nsga2.sbx_crossover
        assert installed_wrappers()
    assert installed_wrappers() == []
    assert (nsga2.sbx_crossover, ParetoArchive.extend) == originals


def test_layer_self_times_and_other_add_up_to_wall(tmp_path):
    wall, problems, spans, counts = _traced("photosynthesis-table2", tmp_path)
    assert problems == []
    totals = layer_times(spans, wall)
    assert all(values["self_s"] >= -1e-9 for values in totals.values())
    assert sum(values["self_s"] for values in totals.values()) == pytest.approx(wall, rel=1e-9)
    for layer in ("variation", "selection", "archive", "migration", "evaluation",
                  "robustness", "artifacts", "solve"):
        assert totals[layer]["calls"] > 0, layer
    assert counts["robustness.trials"] > 0
    assert 0 < counts["archive.accepted"] <= counts["archive.offered"]
    assert counts["evaluation.rows"] > 0


def test_geobacter_reaches_the_fba_and_evaluation_layers(tmp_path):
    # NSGA-II runs without an Evaluator here, so evaluation goes straight
    # through Problem.evaluate_matrix.
    _, problems, spans, counts = _traced("geobacter-figure4", tmp_path)
    assert problems == []
    totals = layer_times(spans, 1.0)
    assert totals["fba"]["calls"] > 0
    assert totals["evaluation"]["calls"] > 0
    assert counts["fba.lp_solves"] > 0


def test_layer_times_on_a_synthetic_tree():
    spans = [
        {"span_id": "1", "parent_id": None, "name": "solve.run", "duration": 1.0},
        {"span_id": "2", "parent_id": "1", "name": "bench.archive", "duration": 0.4},
        {"span_id": "3", "parent_id": "2", "name": "archive.future_span", "duration": 0.1},
        {"span_id": "4", "parent_id": "1", "name": "bench.selection", "duration": 0.2},
        {"span_id": "5", "parent_id": "4", "name": "kernels.nondominated_sort", "duration": 0.15},
    ]
    totals = layer_times(spans, wall=1.5)
    assert totals["solve"] == {"calls": 1, "self_s": pytest.approx(0.4)}
    # An unmapped span counts towards its parent's layer, not as a new entry.
    assert totals["archive"] == {"calls": 1, "self_s": pytest.approx(0.4)}
    assert totals["selection"] == {"calls": 1, "self_s": pytest.approx(0.2)}
    assert totals["other"]["self_s"] == pytest.approx(0.5)
    assert set(totals) == set(LAYERS) | {"other"}


@pytest.mark.parametrize(
    "samples, expected",
    [([3.0], (3.0, "max")), (list(range(1, 21)), (20, "max")), (list(range(1, 101)), (90, "p90"))],
)
def test_tail_needs_ten_samples_beyond(samples, expected):
    assert run.tail(samples) == expected


def test_checks_reject_broken_claims():
    assert paper_runs._check_figure4({"reduction_factor": 0.5})
    payload = {
        "natural_points": {"present/low": [15.0, 2e5]},
        "candidates": {"B": {"uptake": 14.0, "nitrogen_fraction_of_natural": 0.9}},
    }
    assert len(paper_runs._check_figure1(payload)) == 2


def test_broken_runner_environment_fails_every_job(tmp_path):
    outcome = serve_jobs.run(seed=1, seconds=1.0, traced=False, work_dir=tmp_path,
                             pythonpath=None)
    assert outcome["attempted"] >= 1
    assert outcome["failed"] == outcome["attempted"]
    assert outcome["walls"] == []


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        [sys.executable] + command[1:] + ["--workload", "serve-mixed", "--seed", "1",
                                          "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
