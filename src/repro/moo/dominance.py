"""Pareto dominance, non-dominated sorting and crowding distance.

These routines are the algorithmic heart of NSGA-II and of the Pareto-front
metrics used throughout the paper reproduction.  Dominance is always defined
for *minimization* and is constraint-aware following Deb's feasibility rules:

1. a feasible solution dominates any infeasible one,
2. between two infeasible solutions the one with the smaller aggregate
   violation dominates,
3. between two feasible solutions ordinary Pareto dominance applies.

The public functions here are thin wrappers over the vectorized matrix
kernels of :mod:`repro.moo.kernels`.  They read a population's ``F`` and
``CV`` columns and, for :func:`assign_ranks_and_crowding`, write its
``rank`` and ``crowding`` columns; the O(n^2) pairwise work runs as NumPy
boolean algebra.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.moo import kernels
from repro.moo.individual import Individual, Population, as_population

__all__ = [
    "dominates",
    "constrained_dominates",
    "non_dominated_front_indices",
    "fast_non_dominated_sort",
    "crowding_distance",
    "assign_ranks_and_crowding",
    "filter_non_dominated",
]


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Return ``True`` when objective vector ``a`` Pareto-dominates ``b``.

    ``a`` dominates ``b`` when it is no worse in every objective and strictly
    better in at least one (all objectives minimized).  This is the scalar
    (one-pair) case of :func:`repro.moo.kernels.domination_matrix`.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a <= b) and np.any(a < b))


def constrained_dominates(a: Individual, b: Individual) -> bool:
    """Constraint-aware dominance between two evaluated individuals.

    The scalar case of :func:`repro.moo.kernels.constrained_domination_blocks`.
    """
    if a.is_feasible and not b.is_feasible:
        return True
    if not a.is_feasible and b.is_feasible:
        return False
    if not a.is_feasible and not b.is_feasible:
        return a.constraint_violation < b.constraint_violation
    return dominates(a.objectives, b.objectives)


def non_dominated_front_indices(objectives: np.ndarray) -> list[int]:
    """Indices of the non-dominated rows of an ``(n, m)`` objective matrix."""
    objectives = np.asarray(objectives, dtype=float)
    if objectives.shape[0] == 0:
        return []
    return np.flatnonzero(kernels.non_dominated_mask(objectives)).tolist()


def fast_non_dominated_sort(population: Population | Sequence[Individual]) -> list[list[int]]:
    """Deb's fast non-dominated sorting.

    Returns a list of fronts, each front being a list of indices into the
    population, ordered from the best (rank 0) to the worst.  Runs on the
    vectorized :func:`repro.moo.kernels.nondominated_sort` kernel; the
    fronts (including within-front order) are identical to the classic
    pairwise implementation.
    """
    population = as_population(population)
    if len(population) == 0:
        return []
    return kernels.nondominated_sort(population.F, population.CV)


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """Crowding distance of each row of an ``(n, m)`` objective matrix.

    Boundary solutions of every objective receive an infinite distance so that
    they are always preserved by the truncation step of NSGA-II.  Delegates to
    :func:`repro.moo.kernels.crowding_distances`.
    """
    return kernels.crowding_distances(objectives)


def assign_ranks_and_crowding(population: Population) -> list[list[int]]:
    """Sort the population and write its ``rank`` and ``crowding`` columns.

    Returns the fronts so callers can reuse them without re-sorting.
    """
    if len(population) == 0:
        return []
    objectives = population.F
    fronts = kernels.nondominated_sort(objectives, population.CV)
    rank = np.empty(len(population), dtype=np.int64)
    crowding = np.empty(len(population))
    for number, front in enumerate(fronts):
        rank[front] = number
        crowding[front] = kernels.crowding_distances(objectives[front])
    population.rank, population.crowding = rank, crowding
    return fronts


def filter_non_dominated(population: Population) -> Population:
    """Return the feasible-first non-dominated subset of a population."""
    if len(population) == 0:
        return Population()
    return population.take(fast_non_dominated_sort(population)[0])
