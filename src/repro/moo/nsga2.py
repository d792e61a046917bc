"""NSGA-II: the Non-dominated Sorting Genetic Algorithm II.

This is the island engine used by PMO2 (Sec. 2.1 of the paper).  The
implementation follows Deb et al. 2002: binary tournament selection on
(rank, crowding), SBX crossover, polynomial mutation and elitist environmental
selection by non-dominated sorting with crowding-distance truncation, extended
with Deb's constraint-domination rules so that constrained problems such as
the Geobacter flux design are handled natively.

Variation is batched: one generation of offspring is one tournament call,
one SBX call over the ``(population_size / 2, n_var)`` parent matrices and
one mutation call over the children (see :mod:`repro.moo.operators`).  The
operators are called through this module's globals, so wrappers installed
on ``repro.moo.nsga2`` (profilers, say) see every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.evaluator import Evaluator
    from repro.solve.result import SolveResult
from repro.moo import kernels
from repro.moo.archive import ParetoArchive
from repro.moo.dominance import assign_ranks_and_crowding
from repro.moo.individual import UNRANKED, Individual, Population, as_population
from repro.moo.operators import (
    binary_tournament,
    latin_hypercube,
    polynomial_mutation,
    sbx_crossover,
    uniform_initialization,
)
from repro.moo.validation import (
    check_at_least,
    check_choice,
    check_even,
    check_positive,
    check_probability,
)
from repro.problems.base import Problem

__all__ = ["NSGA2Config", "NSGA2"]


@dataclass
class NSGA2Config:
    """Hyper-parameters of one NSGA-II instance.

    Attributes
    ----------
    population_size:
        Number of individuals (must be even so that crossover pairs align).
    crossover_probability, crossover_eta:
        SBX per-pair probability and (positive) distribution index.
    mutation_probability, mutation_eta:
        Polynomial-mutation per-variable probability (``None`` = ``1/n_var``)
        and (positive) distribution index.
    initialization:
        ``"latin"`` (default) or ``"uniform"``.
    archive_capacity:
        Capacity of the external non-dominated archive (``None`` = unbounded).
    """

    population_size: int = 100
    crossover_probability: float = 0.9
    crossover_eta: float = 15.0
    mutation_probability: float | None = None
    mutation_eta: float = 20.0
    initialization: str = "latin"
    archive_capacity: int | None = None

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        check_at_least("population_size", self.population_size, 4)
        check_even("population_size", self.population_size)
        check_probability("crossover_probability", self.crossover_probability)
        check_positive("crossover_eta", self.crossover_eta)
        check_probability("mutation_probability", self.mutation_probability, allow_none=True)
        check_positive("mutation_eta", self.mutation_eta)
        check_choice("initialization", self.initialization, ("latin", "uniform"))


class NSGA2:
    """Single-population NSGA-II optimizer.

    Parameters
    ----------
    problem:
        The :class:`~repro.problems.base.Problem` to minimize.
    config:
        Hyper-parameters; defaults reproduce the standard NSGA-II settings.
    seed:
        Seed of the private random generator.
    evaluator:
        Optional :class:`~repro.runtime.evaluator.Evaluator` executing the
        per-generation evaluation batches (process pool, cache, ...);
        ``None`` evaluates in-process.  Results are identical either way.
    """

    def __init__(
        self,
        problem: Problem,
        config: NSGA2Config | None = None,
        seed: int | None = None,
        evaluator: "Evaluator | None" = None,
    ) -> None:
        self.problem = problem
        self.config = config or NSGA2Config()
        self.config.validate()
        self.evaluator = evaluator
        self.rng = np.random.default_rng(seed)
        self.population: Population | None = None
        self.archive = ParetoArchive(capacity=self.config.archive_capacity)
        self.evaluations = 0
        self.generation = 0
        self.history: list[dict] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def initialize(self, population: Population | None = None) -> None:
        """Create (or adopt) and evaluate the initial population.

        An adopted population smaller than ``config.population_size`` (a
        warm-start front, say) is topped up with the configured initializer
        drawn from the run's seeded generator, so partially seeded runs stay
        deterministic in the seed.
        """
        if population is not None:
            self.population = population.copy()
            deficit = self.config.population_size - len(self.population)
            if deficit > 0:
                sampler = (
                    latin_hypercube
                    if self.config.initialization == "latin"
                    else uniform_initialization
                )
                self.population.extend(sampler(self.problem, deficit, self.rng))
        elif self.config.initialization == "latin":
            self.population = latin_hypercube(
                self.problem, self.config.population_size, self.rng
            )
        else:
            self.population = uniform_initialization(
                self.problem, self.config.population_size, self.rng
            )
        self.evaluations += self.population.evaluate(self.problem, self.evaluator)
        assign_ranks_and_crowding(self.population)
        self.archive.extend(self.population)
        self.generation = 0

    def _make_offspring(self) -> Population:
        """Create one generation of offspring: tournament, SBX, mutation.

        Each operator runs once over the whole generation:
        ``population_size`` tournaments pick the mating pool, its rows
        ``0::2`` and ``1::2`` pair up for SBX, and the interleaved children
        ``a0, b0, a1, b1, ...`` are mutated as one matrix.
        """
        assert self.population is not None
        size = self.config.population_size
        lower, upper = self.problem.lower_bounds, self.problem.upper_bounds
        pool = self.population.X[binary_tournament(self.population, self.rng, size)]
        children_a, children_b = sbx_crossover(
            pool[0::2],
            pool[1::2],
            lower,
            upper,
            self.rng,
            eta=self.config.crossover_eta,
            probability=self.config.crossover_probability,
        )
        children = np.empty_like(pool)
        children[0::2], children[1::2] = children_a, children_b
        children = polynomial_mutation(
            children,
            lower,
            upper,
            self.rng,
            eta=self.config.mutation_eta,
            probability=self.config.mutation_probability,
        )
        return Population.from_vectors(children)

    def _environmental_selection(self, union: Population) -> Population:
        """Elitist truncation of the parent+offspring union.

        The union is ranked once.  Whole fronts keep the union's rank and
        crowding; the overflowing front is cut in stable descending-crowding
        order and only its crowding is recomputed, among the survivors.  The
        survivors are one index take, and their columns equal a fresh
        :func:`assign_ranks_and_crowding` of them bit for bit.
        """
        fronts = assign_ranks_and_crowding(union)
        size = self.config.population_size
        whole: list[int] = []
        for number, front in enumerate(fronts):
            if len(whole) + len(front) <= size:
                whole.extend(front)
                continue
            order = kernels.crowding_truncation_order(union.crowding[front])
            cut = [front[k] for k in order[: size - len(whole)]]
            survivors = union.take(whole + cut)
            if cut:
                previous = fronts[number - 1] if number else None
                crowding = survivors.crowding.copy()
                crowding[len(whole):] = _cut_front_crowding(union, previous, cut)
                survivors.crowding = crowding
            return survivors
        return union.take(whole)

    def step(self) -> None:
        """Advance the optimizer by one generation."""
        if self.population is None:
            self.initialize()
        assert self.population is not None
        offspring = self._make_offspring()
        self.evaluations += offspring.evaluate(self.problem, self.evaluator)
        union = Population.concat([self.population, offspring])
        self.population = self._environmental_selection(union)
        self.archive.extend(self.population)
        self.generation += 1

    # ------------------------------------------------------------------
    # Solver protocol (see repro.solve.api)
    # ------------------------------------------------------------------
    @property
    def is_initialized(self) -> bool:
        """Whether :meth:`initialize` has produced a population."""
        return self.population is not None

    def pareto_front(self) -> Population:
        """Snapshot of the non-dominated front accumulated so far."""
        return self.archive.to_population()

    def result(self) -> "SolveResult":
        """Package the optimizer's current state as a :class:`SolveResult`."""
        from repro.solve.result import SolveResult

        return SolveResult(
            algorithm="nsga2",
            problem=self.problem.name,
            population=self.population,
            archive=self.archive,
            generations=self.generation,
            evaluations=self.evaluations,
            history=self.history,
            ledger=self.evaluator.ledger if self.evaluator is not None else None,
        )

    # ------------------------------------------------------------------
    # Migration support (used by the archipelago)
    # ------------------------------------------------------------------
    def _best_first(self) -> np.ndarray:
        """Rows by rank (unranked = 0), then descending crowding, then row order."""
        assert self.population is not None
        rank = np.where(self.population.rank == UNRANKED, 0, self.population.rank)
        return np.lexsort((-self.population.crowding, rank))

    def emigrants(self, count: int) -> Population:
        """Select ``count`` migrants: the least crowded rank-0 individuals."""
        return self.population.take(self._best_first()[:count])

    def immigrate(self, immigrants: Population | list[Individual]) -> None:
        """Replace the worst individuals with incoming migrants."""
        immigrants = as_population(immigrants)
        if not len(immigrants) or self.population is None:
            return
        replacements = min(len(immigrants), len(self.population))
        worst_first = self._best_first()[::-1]
        self.population.replace_rows(worst_first[:replacements], immigrants[:replacements])
        assign_ranks_and_crowding(self.population)
        self.archive.extend(self.population)


def _cut_front_crowding(
    union: Population, previous: list[int] | None, cut: list[int]
) -> np.ndarray:
    """Crowding of the ``cut`` rows among themselves, in survivor order.

    A fresh sort of the survivors lists a later front by the position of each
    row's last dominator in the ``previous`` front, ties in survivor order,
    and crowding breaks ties between equal values by that order; front 0 is
    simply in survivor order.
    """
    F = union.F
    if previous is None:
        return kernels.crowding_distances(F[cut])
    CV = union.CV
    released = kernels.constrained_domination_blocks(F[previous], CV[previous], F[cut], CV[cut])
    last_dominator = len(previous) - 1 - np.argmax(released[::-1], axis=0)
    order = np.argsort(last_dominator, kind="stable")
    distances = np.empty(len(cut))
    distances[order] = kernels.crowding_distances(F[cut][order])
    return distances
