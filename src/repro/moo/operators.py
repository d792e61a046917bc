"""Variation and selection operators for the evolutionary optimizers.

The operators implemented here are the classical real-coded machinery used by
NSGA-II and MOEA/D:

* simulated binary crossover (SBX),
* polynomial mutation,
* binary tournament selection (rank + crowding, constraint aware),
* differential-evolution variation (used by MOEA/D-DE style reproduction),
* uniform and Latin-hypercube initialization.

All operators are pure functions of a ``numpy`` random generator, which makes
every optimizer in the library fully reproducible from a single seed.

SBX, polynomial mutation and the tournament are batched: they take a whole
mating pool as ``(pairs, n_var)`` matrices (NSGA-II calls each once per
generation) and draw their random numbers in blocks of a fixed shape, then
apply Deb's formulas only to the (row, gene) entries the draws select.
Their random stream therefore differs from the earlier one-pair-at-a-time
operators, which drew only on some branches: fronts are bitwise reproducible
within a version, but a seed gives a different front than it did before the
batched operators.  MOEA/D calls the same functions on single rows.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.exceptions import ConfigurationError
from repro.moo import kernels
from repro.moo.individual import UNRANKED, Population
from repro.problems.base import Problem

__all__ = [
    "sbx_crossover",
    "polynomial_mutation",
    "binary_tournament",
    "differential_variation",
    "latin_hypercube",
    "uniform_initialization",
]


def _pow(base: np.ndarray, exponent: float) -> np.ndarray:
    """``base ** exponent`` per element, through the C library's ``pow``.

    numpy's array ``power`` dispatches to a SIMD approximation on some CPUs
    (AVX-512), whose last bit differs from ``pow`` for a few percent of the
    inputs.  Calling ``pow`` per element keeps the children identical to the
    scalar formulas, and identical across machines.  Bases are positive for
    parents inside the bounds.
    """
    return np.fromiter(map(pow, base.tolist(), repeat(exponent)), dtype=float, count=base.size)


def _sbx_spread(beta: np.ndarray, rand: np.ndarray, eta: float) -> np.ndarray:
    """Deb's spread factor ``beta_q`` for the bound-aware ``beta`` of each gene."""
    alpha = 2.0 - _pow(beta, -(eta + 1.0))
    base = np.where(rand <= 1.0 / alpha, rand * alpha, 1.0 / (2.0 - rand * alpha))
    return _pow(base, 1.0 / (eta + 1.0))


def sbx_crossover(
    parent_a: np.ndarray,
    parent_b: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
    eta: float = 15.0,
    probability: float = 0.9,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover of Deb & Agrawal, over many pairs at once.

    Parameters
    ----------
    parent_a, parent_b:
        ``(k, n_var)`` matrices whose rows pair up; 1-D vectors are one pair
        and give 1-D children.
    lower, upper:
        Box bounds used to repair offspring.
    eta:
        Distribution index; larger values create offspring closer to the
        parents.
    probability:
        Probability of applying the crossover to a pair at all (otherwise
        the parents are copied unchanged).

    The draws have a fixed shape, in this order: one apply-coin per pair,
    then per (pair, gene) a gene-coin, a ``rand`` and a swap-coin.  A pair
    crosses when its apply-coin is ``<= probability``; a gene of it crosses
    when its gene-coin is ``<= 0.5`` and the parents differ by at least
    ``1e-14`` there.  The children of a crossed gene are clipped to the
    bounds and exchanged when the swap-coin is ``> 0.5``.
    """
    if eta <= 0:
        raise ConfigurationError("SBX distribution index eta must be positive")
    a = np.array(parent_a, dtype=float, ndmin=2)
    b = np.array(parent_b, dtype=float, ndmin=2)
    k, n = a.shape
    applied = rng.random(k) <= probability
    gene_coin = rng.random((k, n))
    rand = rng.random((k, n))
    swap_coin = rng.random((k, n))
    crossed = applied[:, None] & (gene_coin <= 0.5) & (np.abs(a - b) >= 1e-14)
    rows, genes = np.nonzero(crossed)
    if rows.size:
        x1, x2 = a[rows, genes], b[rows, genes]
        x_min, x_max = np.minimum(x1, x2), np.maximum(x1, x2)
        x_low = np.asarray(lower, dtype=float)[genes]
        x_high = np.asarray(upper, dtype=float)[genes]
        r = rand[rows, genes]

        beta = 1.0 + (2.0 * (x_min - x_low) / (x_max - x_min))
        child1 = 0.5 * ((x_min + x_max) - _sbx_spread(beta, r, eta) * (x_max - x_min))
        beta = 1.0 + (2.0 * (x_high - x_max) / (x_max - x_min))
        child2 = 0.5 * ((x_min + x_max) + _sbx_spread(beta, r, eta) * (x_max - x_min))

        child1 = np.minimum(np.maximum(child1, x_low), x_high)
        child2 = np.minimum(np.maximum(child2, x_low), x_high)
        swap = swap_coin[rows, genes] > 0.5
        a[rows, genes] = np.where(swap, child2, child1)
        b[rows, genes] = np.where(swap, child1, child2)
    if np.ndim(parent_a) == 1:
        return a[0], b[0]
    return a, b


def polynomial_mutation(
    x: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
    eta: float = 20.0,
    probability: float | None = None,
) -> np.ndarray:
    """Polynomial mutation of Deb, over a ``(k, n_var)`` matrix of rows.

    A 1-D ``x`` is one row and gives a 1-D result.  ``probability`` is the
    per-gene mutation probability; it defaults to ``1 / n_var`` so that on
    average one variable per row is mutated, the standard NSGA-II setting.

    The draws have a fixed shape, in this order: per (row, gene) a hit-coin,
    then per (row, gene) a ``rand``.  A gene mutates when its hit-coin is
    ``<= probability`` and its bounds span a positive width; the result is
    clipped to the bounds.
    """
    if eta <= 0:
        raise ConfigurationError("mutation distribution index eta must be positive")
    y = np.array(x, dtype=float, ndmin=2)
    k, n = y.shape
    p = probability if probability is not None else 1.0 / n
    hit_coin = rng.random((k, n))
    rand = rng.random((k, n))
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    span = upper - lower
    rows, genes = np.nonzero((hit_coin <= p) & (span > 0))
    if rows.size:
        x_low, x_high, width = lower[genes], upper[genes], span[genes]
        value = y[rows, genes]
        r = rand[rows, genes]
        delta1 = (value - x_low) / width
        delta2 = (x_high - value) / width
        below = r < 0.5
        xy = _pow(np.where(below, 1.0 - delta1, 1.0 - delta2), eta + 1.0)
        val = np.where(
            below,
            2.0 * r + (1.0 - 2.0 * r) * xy,
            2.0 * (1.0 - r) + 2.0 * (r - 0.5) * xy,
        )
        root = _pow(val, 1.0 / (eta + 1.0))
        delta_q = np.where(below, root - 1.0, 1.0 - root)
        value = value + delta_q * width
        y[rows, genes] = np.minimum(np.maximum(value, x_low), x_high)
    if np.ndim(x) == 1:
        return y[0]
    return y


def binary_tournament(
    population: Population, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Constraint-aware binary tournaments; returns ``size`` winner indices.

    Selection order: lower rank wins, then larger crowding distance, then a
    coin.  The population's ``rank`` and ``crowding`` columns must be
    assigned (i.e. it has been through :func:`assign_ranks_and_crowding`).

    The draws have a fixed shape, in this order: ``size`` pairs of indices,
    then one tie coin per pair (the first contestant wins a full tie when
    its coin is ``< 0.5``).  The (rank, crowding) decision is
    :func:`repro.moo.kernels.tournament_winners`.
    """
    if len(population) == 0:
        raise ConfigurationError("cannot select from an empty population")
    if (population.rank == UNRANKED).any():
        raise ConfigurationError("tournament requires ranked individuals")
    pairs = rng.integers(0, len(population), (size, 2))
    tie_coin = rng.random(size)
    winners, ties = kernels.tournament_winners(population.rank, population.crowding, pairs)
    return np.where(ties & (tie_coin >= 0.5), pairs[:, 1], winners)


def differential_variation(
    base: np.ndarray,
    donor_a: np.ndarray,
    donor_b: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
    scale: float = 0.5,
    crossover_rate: float = 1.0,
) -> np.ndarray:
    """DE/rand/1 style variation used in decomposition-based reproduction.

    The trial vector is ``base + scale * (donor_a - donor_b)`` with binomial
    crossover against ``base`` and reflection repair at the bounds.
    """
    base = np.asarray(base, dtype=float)
    trial = base + scale * (np.asarray(donor_a, float) - np.asarray(donor_b, float))
    mask = rng.random(base.size) < crossover_rate
    mask[rng.integers(0, base.size)] = True
    child = np.where(mask, trial, base)
    # Reflection repair keeps the child inside the box without clustering on
    # the bounds the way plain clipping does.
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    reflected = np.where(
        child < lower,
        lower + (lower - child),
        np.where(child > upper, upper - (child - upper), child),
    )
    return np.minimum(np.maximum(reflected, lower), upper)


def latin_hypercube(
    problem: Problem, size: int, rng: np.random.Generator
) -> Population:
    """Latin-hypercube initialization of ``size`` individuals."""
    if size <= 0:
        raise ConfigurationError("population size must be positive")
    samples = np.empty((size, problem.n_var))
    for j in range(problem.n_var):
        perm = rng.permutation(size)
        samples[:, j] = (perm + rng.random(size)) / size
    return Population.from_vectors(problem.denormalize(samples))


def uniform_initialization(
    problem: Problem, size: int, rng: np.random.Generator
) -> Population:
    """Uniform random initialization (thin wrapper over ``Population.random``)."""
    return Population.random(problem, size, rng)
