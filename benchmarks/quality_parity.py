"""Quality-parity gate for NSGA-II's variation operators.

The batched tournament/SBX/polynomial-mutation operators draw their random
numbers in fixed-shape blocks, so they cannot reproduce the random stream of
the per-pair operators they replaced.  Instead of bitwise equality, this gate
checks that they are statistically as good: the mean hypervolume of the
final front over many seeds must stay within ``TOLERANCE`` of the mean the
per-pair operators reached on the same settings (``BASELINE``, recorded
once with those operators).

Run from the repository root::

    PYTHONPATH=src python benchmarks/quality_parity.py

Settings: NSGA-II, population 40, 60 generations, seeds 0-39, on
``zdt1?n_var=30`` (reference point [1.1, 6]) and ``dtlz2`` (three objectives,
reference point [2, 2, 2]).  Exits non-zero when a mean leaves the band.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.moo.metrics import hypervolume  # noqa: E402
from repro.moo.nsga2 import NSGA2Config  # noqa: E402
from repro.problems.registry import build_problem  # noqa: E402
from repro.solve import solve  # noqa: E402

POPULATION = 40
GENERATIONS = 60
SEEDS = range(40)
#: Problem spec -> hypervolume reference point.
PROBLEMS = {
    "zdt1?n_var=30": (1.1, 6.0),
    "dtlz2": (2.0, 2.0, 2.0),
}
#: Mean hypervolume over ``SEEDS`` reached by the per-pair operators.
BASELINE = {
    "zdt1?n_var=30": 5.8406,
    "dtlz2": 7.3592,
}
#: Largest allowed relative distance of a mean from its baseline.
TOLERANCE = 0.01


def hypervolumes(spec: str) -> list[float]:
    """Final-front hypervolume of one NSGA-II run per seed."""
    reference = np.asarray(PROBLEMS[spec])
    values = []
    for seed in SEEDS:
        result = solve(
            build_problem(spec),
            "nsga2",
            config=NSGA2Config(population_size=POPULATION),
            seed=seed,
            termination=GENERATIONS,
        )
        values.append(hypervolume(result.front_objectives(), reference))
    return values


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    failures = []
    for spec in PROBLEMS:
        mean = float(np.mean(hypervolumes(spec)))
        baseline = BASELINE[spec]
        drift = (mean - baseline) / baseline
        print(
            "%-14s mean HV %.4f  baseline %.4f  drift %+.2f%%"
            % (spec, mean, baseline, 100 * drift)
        )
        if abs(drift) > TOLERANCE:
            failures.append(
                "%s mean hypervolume %.4f is more than %.0f%% from %.4f"
                % (spec, mean, 100 * TOLERANCE, baseline)
            )
    for failure in failures:
        print("FAIL: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
