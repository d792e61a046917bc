"""Scalar oracles of the variation operators in :mod:`repro.moo.operators`.

These are the one-pair-at-a-time, one-gene-at-a-time loops the batched
operators replaced, kept only to check them.  The SBX, mutation and
tournament oracles take their random draws as arguments instead of a
generator, laid out like the batched operators draw them (one value per pair
or per (pair, gene), whether or not a branch uses it), so both can be fed the
same draws and must then agree bit for bit.  The differential-variation and
Latin-hypercube oracles draw from a generator exactly as the operators do.
"""

from __future__ import annotations

import numpy as np

from repro.moo.individual import Population


def oracle_sbx(parent_a, parent_b, lower, upper, eta, probability, apply_coin, gene_coin, rand,
               swap_coin):
    """Deb & Agrawal's SBX on one pair, with injected draws."""
    a = np.array(parent_a, dtype=float, copy=True)
    b = np.array(parent_b, dtype=float, copy=True)
    if apply_coin > probability:
        return a, b
    for i in range(a.size):
        if gene_coin[i] > 0.5:
            continue
        x1, x2 = a[i], b[i]
        if abs(x1 - x2) < 1e-14:
            continue
        x_low, x_high = lower[i], upper[i]
        x_min, x_max = (x1, x2) if x1 < x2 else (x2, x1)

        beta = 1.0 + (2.0 * (x_min - x_low) / (x_max - x_min))
        alpha = 2.0 - beta ** (-(eta + 1.0))
        if rand[i] <= 1.0 / alpha:
            beta_q = (rand[i] * alpha) ** (1.0 / (eta + 1.0))
        else:
            beta_q = (1.0 / (2.0 - rand[i] * alpha)) ** (1.0 / (eta + 1.0))
        child1 = 0.5 * ((x_min + x_max) - beta_q * (x_max - x_min))

        beta = 1.0 + (2.0 * (x_high - x_max) / (x_max - x_min))
        alpha = 2.0 - beta ** (-(eta + 1.0))
        if rand[i] <= 1.0 / alpha:
            beta_q = (rand[i] * alpha) ** (1.0 / (eta + 1.0))
        else:
            beta_q = (1.0 / (2.0 - rand[i] * alpha)) ** (1.0 / (eta + 1.0))
        child2 = 0.5 * ((x_min + x_max) + beta_q * (x_max - x_min))

        child1 = min(max(child1, x_low), x_high)
        child2 = min(max(child2, x_low), x_high)
        if swap_coin[i] > 0.5:
            child1, child2 = child2, child1
        a[i], b[i] = child1, child2
    return a, b


def oracle_polynomial_mutation(x, lower, upper, eta, probability, hit_coin, rand):
    """Deb's polynomial mutation of one vector, with injected draws."""
    y = np.array(x, dtype=float, copy=True)
    n = y.size
    p = probability if probability is not None else 1.0 / n
    for i in range(n):
        if hit_coin[i] > p:
            continue
        x_low, x_high = lower[i], upper[i]
        span = x_high - x_low
        if span <= 0:
            continue
        value = y[i]
        delta1 = (value - x_low) / span
        delta2 = (x_high - value) / span
        mut_pow = 1.0 / (eta + 1.0)
        if rand[i] < 0.5:
            xy = 1.0 - delta1
            val = 2.0 * rand[i] + (1.0 - 2.0 * rand[i]) * xy ** (eta + 1.0)
            delta_q = val ** mut_pow - 1.0
        else:
            xy = 1.0 - delta2
            val = 2.0 * (1.0 - rand[i]) + 2.0 * (rand[i] - 0.5) * xy ** (eta + 1.0)
            delta_q = 1.0 - val ** mut_pow
        value = value + delta_q * span
        y[i] = min(max(value, x_low), x_high)
    return y


def oracle_tournament_winner(rank_a, crowding_a, rank_b, crowding_b):
    """Scalar (rank, crowding) decision: 0, 1, or ``None`` on a full tie."""
    if rank_a != rank_b:
        return 0 if rank_a < rank_b else 1
    if crowding_a != crowding_b:
        return 0 if crowding_a > crowding_b else 1
    return None


def oracle_binary_tournament(population, pair, tie_coin):
    """Index of the winner of one tournament, with injected draws."""
    i, j = int(pair[0]), int(pair[1])
    a, b = population[i], population[j]
    winner = oracle_tournament_winner(a.rank, a.crowding, b.rank, b.crowding)
    if winner is None:
        return i if tie_coin < 0.5 else j
    return i if winner == 0 else j


def oracle_differential_variation(base, donor_a, donor_b, lower, upper, rng, scale=0.5,
                                  crossover_rate=1.0):
    """DE/rand/1 trial with the per-gene reflection-repair loop."""
    base = np.asarray(base, dtype=float)
    trial = base + scale * (np.asarray(donor_a, float) - np.asarray(donor_b, float))
    mask = rng.random(base.size) < crossover_rate
    mask[rng.integers(0, base.size)] = True
    child = np.where(mask, trial, base)
    for i in range(child.size):
        low, high = lower[i], upper[i]
        if child[i] < low:
            child[i] = low + (low - child[i])
        elif child[i] > high:
            child[i] = high - (child[i] - high)
        child[i] = min(max(child[i], low), high)
    return child


def oracle_latin_hypercube(problem, size, rng):
    """Latin-hypercube sample denormalized one row at a time."""
    samples = np.empty((size, problem.n_var))
    for j in range(problem.n_var):
        perm = rng.permutation(size)
        samples[:, j] = (perm + rng.random(size)) / size
    vectors = [problem.denormalize(samples[i]) for i in range(size)]
    return Population.from_vectors(vectors)


class ScriptedRNG:
    """Stand-in generator that hands out prescribed arrays in order.

    Each ``random``/``integers`` call returns the next scripted array and
    checks that its shape is the one requested, so a test both injects the
    draws and pins their order and shapes.
    """

    def __init__(self, *draws):
        self._draws = [np.asarray(draw) for draw in draws]

    def _next(self, size):
        draw = self._draws.pop(0)
        expected = () if size is None else tuple(np.atleast_1d(size))
        assert draw.shape == expected, "scripted draw %s, requested %s" % (draw.shape, expected)
        return draw

    def random(self, size=None):
        return self._next(size)

    def integers(self, low, high=None, size=None):
        draw = self._next(size)
        assert np.all((draw >= low) & (draw < high))
        return draw

    @property
    def exhausted(self):
        return not self._draws
