"""Bounded non-dominated archive.

Islands and the PMO2 driver keep an external archive of the non-dominated
solutions discovered so far.  The archive is the object that the Pareto-front
mining (:mod:`repro.moo.mining`), the front-quality metrics
(:mod:`repro.moo.metrics`) and the robustness analysis
(:mod:`repro.moo.robustness`) all consume.

The members are one :class:`~repro.moo.individual.Population`, so the
archive's columns are the population's.  Insertion runs on the batched
:func:`repro.moo.kernels.archive_prune` kernel: the members and a whole
candidate population are stacked once, the pairwise dominance and
near-duplicate tests are computed once per batch as boolean blocks, and the
kept rows are taken with one index.  The result reproduces sequential
insertion (member order, duplicate rejection, per-insertion crowding
truncation) bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.exceptions import ConfigurationError
from repro.moo import kernels
from repro.moo.individual import Individual, Population, as_population

__all__ = ["ParetoArchive"]


class ParetoArchive:
    """Archive of mutually non-dominated, feasibility-preferred solutions.

    Parameters
    ----------
    capacity:
        Optional maximum number of archived solutions.  When the archive
        overflows, the most crowded members are discarded (crowding-distance
        truncation), which preserves the extremes of the front.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ConfigurationError("archive capacity must be positive or None")
        self.capacity = capacity
        #: The archived solutions, in archive order.
        self.members = Population()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Individual]:
        return iter(self.members)

    def __getitem__(self, index: int) -> Individual:
        return self.members[index]

    # ------------------------------------------------------------------
    def add(self, candidate: Individual) -> bool:
        """Insert one evaluated individual.

        Returns ``True`` when the candidate enters the archive (i.e. it is not
        dominated by any current member); dominated members are removed.
        """
        return self.extend([candidate]) == 1

    def add_population(self, population: Population | Iterable[Individual]) -> int:
        """Insert every individual of a population; returns how many entered."""
        return self.extend(population)

    def extend(self, candidates: Population | Iterable[Individual]) -> int:
        """Fold a population (or iterable of individuals) into the archive at once.

        One call to :func:`repro.moo.kernels.archive_prune` replaces the
        per-individual insertion loop; the membership (order included) and
        the returned count of accepted candidates are identical to inserting
        the candidates one by one.  The kernel's working memory is a few
        ``(members + 128) x 128`` boolean blocks per run of 128 candidates.
        """
        candidates = as_population(candidates)
        if not candidates.is_evaluated:
            raise ConfigurationError("cannot archive an unevaluated individual")
        if not len(candidates):
            return 0
        union = Population.concat([self.members, candidates])
        kept, accepted = kernels.archive_prune(
            union.F, union.CV, union.X, len(self.members), capacity=self.capacity
        )
        self.members = union.take(kept)
        return accepted

    # ------------------------------------------------------------------
    @classmethod
    def from_individuals(
        cls, individuals: Iterable[Individual], capacity: int | None = None
    ) -> "ParetoArchive":
        """Build an archive from evaluated individuals (e.g. a recorded run).

        Dominated members are filtered on insertion, so re-hydrated fronts
        from :func:`repro.core.artifacts.load_front` become well-formed
        archives again.

        Example
        -------
        >>> import numpy as np
        >>> from repro.moo.individual import Individual
        >>> member = Individual(np.array([0.5]))
        >>> member.objectives = np.array([1.0, 2.0])
        >>> len(ParetoArchive.from_individuals([member]))
        1
        """
        archive = cls(capacity=capacity)
        archive.add_population(individuals)
        return archive

    def to_population(self) -> Population:
        """Copy the archive into a :class:`Population`."""
        return self.members.copy()

    def objective_matrix(self) -> np.ndarray:
        """Return the archived objective vectors as an ``(n, m)`` matrix."""
        return self.members.objective_matrix()

    def decision_matrix(self) -> np.ndarray:
        """Return the archived decision vectors as an ``(n, n_var)`` matrix."""
        return self.members.decision_matrix()

    def clear(self) -> None:
        """Remove every member."""
        self.members = Population()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ParetoArchive(size=%d, capacity=%r)" % (len(self.members), self.capacity)
