"""Benchmark the vectorized dominance kernels against the naive references.

Sweeps population sizes and objective counts, times each kernel of
:mod:`repro.moo.kernels` against its pure-Python reference from
``tests/moo/kernel_oracles.py`` (asserting element-for-element agreement on the
way), times the batched SBX and polynomial mutation of
:mod:`repro.moo.operators` against the per-pair loops kept as oracles in
``tests/moo/operator_oracles.py`` (fed the same draws, children must agree
bit for bit), and writes a machine-readable ``BENCH_kernels.json`` so the
perf trajectory accumulates data points across commits.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke    # CI-sized

The full sweep covers n in {100, 500, 1000, 2000} x m in {2, 3, 5}; the
smoke sweep trims that to one small grid so CI can assert the kernels still
agree with (and beat) the references without burning minutes.  Both modes
gate ``nondominated_sort`` on a speedup floor, ``archive_prune`` on being at
least as fast as its reference at every grid point, and the ``tracemalloc``
peak of one n=2000, m=5 archive prune from an empty archive.  The variation
rows (pairs in {20, 50} x n_var in {23, 608}: one NSGA-II generation at the
photosynthesis and Geobacter sizes) run in both modes and are gated on a
speedup floor.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.moo import kernels, operators  # noqa: E402
from tests.moo.kernel_oracles import (  # noqa: E402
    reference_archive_prune,
    reference_crowding_distance,
    reference_fast_non_dominated_sort,
    reference_non_dominated_front_indices,
)
from tests.moo.operator_oracles import oracle_polynomial_mutation, oracle_sbx  # noqa: E402

FULL_SWEEP = {"n": (100, 500, 1000, 2000), "m": (2, 3, 5)}
SMOKE_SWEEP = {"n": (100, 300), "m": (2, 3)}
#: Variation grid, in both modes: SBX pairs (mutation rows are twice as
#: many) by decision variables (photosynthesis 23, Geobacter 608).
VARIATION_GRID = {"pairs": (20, 50), "n_var": (23, 608)}

#: Reference timings above this n are extrapolation-expensive; cap the
#: repeats so the full sweep stays in minutes, not hours.
_REPEATS = {"kernel": 5, "reference": 1}

#: Floors, as kernel speedup over the reference at every grid point.
SORT_SPEEDUP_FLOOR = 10.0
ARCHIVE_SPEEDUP_FLOOR = 1.0
VARIATION_SPEEDUP_FLOOR = 3.0

#: Bound on the tracemalloc peak of an n=2000, m=5 prune into an empty
#: archive: one 2000 x 2000 boolean block, which a prune whose blocks grow
#: with the square of the batch would already exceed.
ARCHIVE_PEAK_BOUND_MB = 4.0


def _population(n: int, m: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded mixed-feasibility population with some duplicated rows."""
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(n, m))
    CV = np.where(rng.random(n) < 0.7, 0.0, rng.uniform(0.1, 2.0, size=n))
    X = rng.uniform(size=(n, max(m, 2)))
    duplicates = rng.integers(0, n, size=n // 10)
    F[duplicates] = F[rng.integers(0, n, size=duplicates.size)]
    return F, CV, X


def _best_of(function, repeats: int) -> tuple[float, object]:
    """Minimum wall-clock of ``repeats`` calls, plus the last return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = function()
        best = min(best, time.perf_counter() - start)
    return best, value


def _bench_case(n: int, m: int) -> list[dict]:
    F, CV, X = _population(n, m, seed=n * 31 + m)
    records = []

    t_kernel, fronts_kernel = _best_of(
        lambda: kernels.nondominated_sort(F, CV), _REPEATS["kernel"]
    )
    t_reference, fronts_reference = _best_of(
        lambda: reference_fast_non_dominated_sort(F, CV), _REPEATS["reference"]
    )
    assert fronts_kernel == fronts_reference, "sort kernel/reference disagreement"
    records.append(_record("nondominated_sort", n, m, t_kernel, t_reference))

    t_kernel, mask = _best_of(lambda: kernels.non_dominated_mask(F), _REPEATS["kernel"])
    t_reference, indices = _best_of(
        lambda: reference_non_dominated_front_indices(F), _REPEATS["reference"]
    )
    assert np.flatnonzero(mask).tolist() == indices, "front-mask disagreement"
    records.append(_record("non_dominated_mask", n, m, t_kernel, t_reference))

    t_kernel, crowd_kernel = _best_of(
        lambda: kernels.crowding_distances(F), _REPEATS["kernel"]
    )
    t_reference, crowd_reference = _best_of(
        lambda: reference_crowding_distance(F), _REPEATS["reference"]
    )
    assert np.array_equal(crowd_kernel, crowd_reference), "crowding disagreement"
    records.append(_record("crowding_distances", n, m, t_kernel, t_reference))

    capacity = max(16, n // 4)
    t_kernel, pruned_kernel = _best_of(
        lambda: kernels.archive_prune(F, CV, X, 0, capacity=capacity),
        _REPEATS["kernel"],
    )
    t_reference, pruned_reference = _best_of(
        lambda: reference_archive_prune(F, CV, X, 0, capacity=capacity),
        _REPEATS["reference"],
    )
    assert pruned_kernel == pruned_reference, "archive-prune disagreement"
    records.append(_record("archive_prune", n, m, t_kernel, t_reference))
    return records


def _bench_variation(pairs: int, n_var: int) -> list[dict]:
    """Batched SBX and mutation versus the per-pair oracles, same draws."""
    rng = np.random.default_rng(pairs * 1000 + n_var)
    lower = -rng.uniform(0.0, 10.0, n_var)
    upper = rng.uniform(0.0, 10.0, n_var)
    A = lower + rng.random((pairs, n_var)) * (upper - lower)
    B = lower + rng.random((pairs, n_var)) * (upper - lower)
    seed = int(rng.integers(2**32))

    def batched_sbx():
        return operators.sbx_crossover(A, B, lower, upper, np.random.default_rng(seed))

    def oracle_sbx_pairs():
        draws = np.random.default_rng(seed)
        apply_coin = draws.random(pairs)
        gene_coin, rand, swap_coin = (draws.random((pairs, n_var)) for _ in range(3))
        children = [
            oracle_sbx(A[p], B[p], lower, upper, 15.0, 0.9, apply_coin[p], gene_coin[p],
                       rand[p], swap_coin[p])
            for p in range(pairs)
        ]
        return np.array([c[0] for c in children]), np.array([c[1] for c in children])

    t_batched, children = _best_of(batched_sbx, _REPEATS["kernel"])
    # Sub-millisecond timings: best of several oracle runs too, so the
    # speedup floor does not trip on one noisy sample.
    t_oracle, expected = _best_of(oracle_sbx_pairs, _REPEATS["kernel"])
    for got, want in zip(children, expected):
        assert got.tobytes() == want.tobytes(), "SBX batched/oracle disagreement"
    records = [_variation_record("sbx_crossover", pairs, n_var, t_batched, t_oracle)]

    X = np.vstack(children)

    def batched_mutation():
        return operators.polynomial_mutation(X, lower, upper, np.random.default_rng(seed))

    def oracle_mutation_rows():
        draws = np.random.default_rng(seed)
        hit_coin, rand = draws.random(X.shape), draws.random(X.shape)
        return np.array([
            oracle_polynomial_mutation(X[r], lower, upper, 20.0, None, hit_coin[r], rand[r])
            for r in range(X.shape[0])
        ])

    t_batched, mutated = _best_of(batched_mutation, _REPEATS["kernel"])
    t_oracle, expected = _best_of(oracle_mutation_rows, _REPEATS["kernel"])
    assert mutated.tobytes() == expected.tobytes(), "mutation batched/oracle disagreement"
    records.append(_variation_record("polynomial_mutation", pairs, n_var, t_batched, t_oracle))
    return records


def _variation_record(
    kernel: str, pairs: int, n_var: int, t_kernel: float, t_reference: float
) -> dict:
    speedup = t_reference / t_kernel if t_kernel > 0 else float("inf")
    return {
        "kernel": kernel,
        "pairs": pairs,
        "n_var": n_var,
        "t_kernel_s": round(t_kernel, 6),
        "t_reference_s": round(t_reference, 6),
        "speedup": round(speedup, 2),
    }


def run_variation_grid(grid: dict = VARIATION_GRID) -> list[dict]:
    """Benchmark batched SBX and mutation at every (pairs, n_var) point."""
    records = []
    for pairs in grid["pairs"]:
        for n_var in grid["n_var"]:
            for record in _bench_variation(pairs, n_var):
                records.append(record)
                print(
                    "pairs=%3d n_var=%3d  %-19s batched %7.2f ms  oracle %8.2f ms  (%.0fx)"
                    % (
                        pairs,
                        n_var,
                        record["kernel"],
                        record["t_kernel_s"] * 1e3,
                        record["t_reference_s"] * 1e3,
                        record["speedup"],
                    )
                )
    return records


def archive_prune_peak_mb(n: int = 2000, m: int = 5) -> float:
    """``tracemalloc`` peak (MB) of one ``archive_prune`` with ``n_members=0``."""
    F, CV, X = _population(n, m, seed=n * 31 + m)
    tracemalloc.start()
    try:
        kernels.archive_prune(F, CV, X, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _record(kernel: str, n: int, m: int, t_kernel: float, t_reference: float) -> dict:
    speedup = t_reference / t_kernel if t_kernel > 0 else float("inf")
    return {
        "kernel": kernel,
        "n": n,
        "m": m,
        "t_kernel_s": round(t_kernel, 6),
        "t_reference_s": round(t_reference, 6),
        "speedup": round(speedup, 2),
    }


def run_sweep(sweep: dict) -> list[dict]:
    """Benchmark every (kernel, n, m) combination of the sweep."""
    records = []
    for n in sweep["n"]:
        for m in sweep["m"]:
            case = _bench_case(n, m)
            records.extend(case)
            slowest = max(case, key=lambda r: r["t_reference_s"])
            print(
                "n=%4d m=%d  %-18s kernel %8.2f ms  reference %9.2f ms  (%.0fx)"
                % (
                    n,
                    m,
                    slowest["kernel"],
                    slowest["t_kernel_s"] * 1e3,
                    slowest["t_reference_s"] * 1e3,
                    slowest["speedup"],
                )
            )
    return records


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sweep for CI (agreement + speedup sanity, seconds not minutes)",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parents[1] / "BENCH_kernels.json"),
        help="where to write the machine-readable results (default: repo root)",
    )
    args = parser.parse_args(argv)
    sweep = SMOKE_SWEEP if args.smoke else FULL_SWEEP
    records = run_sweep(sweep) + run_variation_grid()
    peak_mb = archive_prune_peak_mb()
    print("archive_prune n=2000 m=5 tracemalloc peak %.2f MB" % peak_mb)
    payload = {
        "benchmark": "kernels-vs-reference",
        "mode": "smoke" if args.smoke else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "results": records,
        "archive_prune_peak_mb": round(peak_mb, 3),
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print("wrote %s (%d measurements)" % (output, len(records)))
    failures = []
    for kernel, floor in (
        ("nondominated_sort", SORT_SPEEDUP_FLOOR),
        ("archive_prune", ARCHIVE_SPEEDUP_FLOOR),
        ("sbx_crossover", VARIATION_SPEEDUP_FLOOR),
        ("polynomial_mutation", VARIATION_SPEEDUP_FLOOR),
    ):
        slowest = min((r for r in records if r["kernel"] == kernel), key=lambda r: r["speedup"])
        if slowest["speedup"] < floor:
            where = ", ".join(
                "%s=%d" % (key, slowest[key]) for key in ("n", "m", "pairs", "n_var")
                if key in slowest
            )
            failures.append(
                "%s speedup %.2fx below the %.0fx floor at %s"
                % (kernel, slowest["speedup"], floor, where)
            )
    if peak_mb > ARCHIVE_PEAK_BOUND_MB:
        failures.append(
            "archive_prune n=2000 m=5 peak %.2f MB above the %.0f MB bound"
            % (peak_mb, ARCHIVE_PEAK_BOUND_MB)
        )
    for failure in failures:
        print("FAIL: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
