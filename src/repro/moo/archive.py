"""Bounded non-dominated archive.

Islands and the PMO2 driver keep an external archive of the non-dominated
solutions discovered so far.  The archive is the object that the Pareto-front
mining (:mod:`repro.moo.mining`), the front-quality metrics
(:mod:`repro.moo.metrics`) and the robustness analysis
(:mod:`repro.moo.robustness`) all consume.

Insertion runs on the batched :func:`repro.moo.kernels.archive_prune`
kernel: a whole population is folded into the archive on columnar arrays,
with the pairwise dominance and near-duplicate tests computed once per batch
as boolean blocks and the sequential fold reduced to mask updates, while
reproducing the sequential insertion semantics (member order, duplicate
rejection, per-insertion crowding truncation) bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.exceptions import ConfigurationError
from repro.moo import kernels
from repro.moo.individual import (
    Individual,
    Population,
    decision_matrix_of,
    objective_matrix_of,
    violation_vector_of,
)

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
        self._members: list[Individual] = []
        self._columns_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[Individual]:
        return iter(self._members)

    def __getitem__(self, index: int) -> Individual:
        return self._members[index]

    # ------------------------------------------------------------------
    # Columnar views of the membership
    # ------------------------------------------------------------------
    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(F, CV, X)`` arrays of the current members."""
        cached = self._columns_cache
        if cached is None:
            cached = (
                objective_matrix_of(self._members),
                violation_vector_of(self._members),
                decision_matrix_of(self._members),
            )
            self._columns_cache = cached
        return cached

    # ------------------------------------------------------------------
    def add(self, candidate: Individual) -> bool:
        """Insert one evaluated individual.

        Returns ``True`` when the candidate enters the archive (i.e. it is not
        dominated by any current member); dominated members are removed.
        """
        return self.extend([candidate]) == 1

    def add_population(self, population: Iterable[Individual]) -> int:
        """Insert every individual of a population; returns how many entered."""
        return self.extend(population)

    def extend(self, candidates: Iterable[Individual]) -> int:
        """Fold a batch of evaluated individuals into the archive at once.

        One call to :func:`repro.moo.kernels.archive_prune` replaces the
        per-individual insertion loop; the resulting membership (order
        included) and the returned count of accepted candidates are
        identical to inserting the candidates one by one in order.  The
        kernel works on the members' cached columns stacked over the
        batch's, and the kept rows of those stacked arrays become the new
        cached columns, so the next call stacks no member again.  The
        kernel's working memory is a few ``(members + 128) x 128`` boolean
        blocks per run of 128 candidates, whatever the batch size.
        """
        batch = list(candidates)
        for candidate in batch:
            if not candidate.is_evaluated:
                raise ConfigurationError("cannot archive an unevaluated individual")
        if not batch:
            return 0
        n_members = len(self._members)
        batch_columns = (
            objective_matrix_of(batch),
            violation_vector_of(batch),
            decision_matrix_of(batch),
        )
        if n_members:
            member_columns = self._columns()
            objectives = np.vstack([member_columns[0], batch_columns[0]])
            violations = np.concatenate([member_columns[1], batch_columns[1]])
            decisions = np.vstack([member_columns[2], batch_columns[2]])
        else:
            objectives, violations, decisions = batch_columns
        kept, accepted = kernels.archive_prune(
            objectives, violations, decisions, n_members, capacity=self.capacity
        )
        self._members = [
            self._members[index]
            if index < n_members
            else batch[index - n_members].copy()
            for index in kept
        ]
        self._columns_cache = (objectives[kept], violations[kept], decisions[kept])
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
        return Population(member.copy() for member in self._members)

    def objective_matrix(self) -> np.ndarray:
        """Return the archived objective vectors as an ``(n, m)`` matrix."""
        return np.array(self._columns()[0])

    def decision_matrix(self) -> np.ndarray:
        """Return the archived decision vectors as an ``(n, n_var)`` matrix."""
        return np.array(self._columns()[2])

    def clear(self) -> None:
        """Remove every member."""
        self._members.clear()
        self._columns_cache = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ParetoArchive(size=%d, capacity=%r)" % (len(self._members), self.capacity)
