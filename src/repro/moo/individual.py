"""Individuals and populations used by the evolutionary optimizers.

A :class:`Population` holds one generation as read-only columns — ``X``,
``F``, ``CV``, ``rank``, ``crowding`` and a tuple ``info`` of per-row
dictionaries — which the kernels of :mod:`repro.moo.kernels` read directly.
Columns never change in place: every change installs new arrays, so there is
no second copy of the data to keep in sync.  An :class:`Individual` is the
standalone record of one row: what ``population[i]`` and iteration hand out
(a snapshot), what recorded fronts re-hydrate into and what
:meth:`Individual.to_dict` / :meth:`Individual.from_dict` serialize.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.problems.base import Problem
from repro.problems.batch import EvaluationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runtime.evaluator import Evaluator

__all__ = ["Individual", "Population", "as_population"]

#: ``rank`` of a row that no sort has ranked yet (``Individual.rank is None``).
UNRANKED = -1


def _plain(value):
    """Recursively convert numpy scalars/arrays to JSON-friendly Python."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


class Individual:
    """One candidate solution.

    Attributes
    ----------
    x:
        Decision vector (owned copy).
    objectives:
        Minimized objective vector, ``None`` until evaluated.
    constraint_violation:
        Aggregate constraint violation (0.0 when feasible or unconstrained).
    rank:
        Non-domination rank assigned by the sorting procedure (0 = best front).
    crowding:
        Crowding distance within its front.
    info:
        Evaluation by-products propagated from :class:`EvaluationResult`.
    """

    __slots__ = ("x", "objectives", "constraint_violation", "rank", "crowding", "info")

    def __init__(self, x: np.ndarray) -> None:
        self.x = np.array(x, dtype=float, copy=True)
        self.objectives: np.ndarray | None = None
        self.constraint_violation: float = 0.0
        self.rank: int | None = None
        self.crowding: float = 0.0
        self.info: dict = {}

    # ------------------------------------------------------------------
    @property
    def is_evaluated(self) -> bool:
        """``True`` once :meth:`set_evaluation` has been called."""
        return self.objectives is not None

    @property
    def is_feasible(self) -> bool:
        """``True`` when the aggregate constraint violation is zero."""
        return self.constraint_violation == 0.0

    def set_evaluation(self, result: EvaluationResult) -> None:
        """Attach the outcome of a problem evaluation to this individual."""
        self.objectives = np.asarray(result.objectives, dtype=float)
        self.constraint_violation = result.total_violation
        self.info = dict(result.info)

    def to_dict(self) -> dict:
        """JSON-serializable view of this individual (see :meth:`from_dict`).

        numpy containers are converted to plain lists/scalars, so the result
        round-trips through :mod:`json` unchanged.  Complements the columnar
        front format of :mod:`repro.core.artifacts` (which stores whole
        objective/decision matrices) when single individuals need to travel.
        """
        return {
            "x": self.x.tolist(),
            "objectives": None if self.objectives is None else self.objectives.tolist(),
            "constraint_violation": float(self.constraint_violation),
            "rank": self.rank,
            "crowding": float(self.crowding),
            "info": _plain(self.info),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Individual":
        """Rebuild an individual from a :meth:`to_dict` payload.

        Example
        -------
        >>> import numpy as np
        >>> original = Individual(np.array([1.0, 2.0]))
        >>> clone = Individual.from_dict(original.to_dict())
        >>> np.array_equal(clone.x, original.x)
        True
        """
        individual = cls(np.asarray(payload["x"], dtype=float))
        objectives = payload.get("objectives")
        if objectives is not None:
            individual.objectives = np.asarray(objectives, dtype=float)
        individual.constraint_violation = float(payload.get("constraint_violation", 0.0))
        individual.rank = payload.get("rank")
        individual.crowding = float(payload.get("crowding", 0.0))
        individual.info = dict(payload.get("info", {}))
        return individual

    def copy(self) -> "Individual":
        """Deep copy (decision vector and cached evaluation)."""
        clone = Individual(self.x)
        if self.objectives is not None:
            clone.objectives = self.objectives.copy()
        clone.constraint_violation = self.constraint_violation
        clone.rank = self.rank
        clone.crowding = self.crowding
        clone.info = dict(self.info)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        objectives = (
            np.array2string(self.objectives, precision=4)
            if self.objectives is not None
            else "unevaluated"
        )
        return "Individual(objectives=%s, cv=%.3g)" % (objectives, self.constraint_violation)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _widened(F: np.ndarray, n_obj: int) -> np.ndarray:
    """A zero-width (unevaluated) ``F`` as ``n_obj`` NaN columns, any other as is."""
    return np.full((F.shape[0], n_obj), np.nan) if F.shape[1] == 0 else F


class Population:
    """One generation of candidate solutions, stored as columns.

    ``X`` is the ``(n, n_var)`` decision matrix, ``F`` the ``(n, n_obj)``
    objective matrix (reading it raises :class:`ConfigurationError` while a
    row is unevaluated), ``CV`` the ``(n,)`` aggregate violations, ``rank``
    (``UNRANKED`` until sorted) and ``crowding`` the ``(n,)`` NSGA-II
    bookkeeping that :func:`repro.moo.dominance.assign_ranks_and_crowding`
    writes, and ``info`` a tuple of per-row dictionaries.  Indexing and
    iteration return :class:`Individual` snapshots; slices and :meth:`take`
    return new populations.
    """

    def __init__(self, individuals: Iterable[Individual] | None = None) -> None:
        rows = list(individuals or [])
        n_obj = max((row.objectives.size for row in rows if row.is_evaluated), default=0)
        F = np.full((len(rows), n_obj), np.nan)
        for index, row in enumerate(rows):
            if row.is_evaluated:
                F[index] = row.objectives
        self._store(
            np.array([row.x for row in rows], dtype=float) if rows else np.empty((0, 0)),
            F,
            np.array([row.constraint_violation for row in rows], dtype=float),
            np.array([row.is_evaluated for row in rows], dtype=bool),
            np.array([UNRANKED if row.rank is None else row.rank for row in rows], dtype=np.int64),
            np.array([row.crowding for row in rows], dtype=float),
            tuple(dict(row.info) for row in rows),
        )

    def _store(self, X, F, CV, evaluated, rank, crowding, info) -> "Population":
        """Install a full set of columns (taking ownership of the arrays)."""
        self._X = _frozen(X)
        self._F = _frozen(F)
        self._CV = _frozen(CV)
        self._evaluated = _frozen(evaluated)
        self._rank = _frozen(rank)
        self._crowding = _frozen(crowding)
        self.info: tuple[dict, ...] = info
        return self

    def _columns(self) -> tuple:
        return self._X, self._F, self._CV, self._evaluated, self._rank, self._crowding, self.info

    def __setstate__(self, state: dict) -> None:
        """Restore from a pickle; unpickled arrays are made read-only again."""
        self.__dict__.update(state)
        self._store(*self._columns())

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls, problem: Problem, size: int, rng: np.random.Generator
    ) -> "Population":
        """Create ``size`` individuals sampled uniformly in the decision box."""
        if size <= 0:
            raise ConfigurationError("population size must be positive")
        return cls.from_vectors([problem.random_solution(rng) for _ in range(size)])

    @classmethod
    def from_vectors(cls, vectors: Sequence[np.ndarray] | np.ndarray) -> "Population":
        """Unevaluated population over the given decision vectors (copied)."""
        if len(vectors) == 0:
            return cls()
        n = len(vectors)
        return _new(
            np.array(vectors, dtype=float),
            np.empty((n, 0)),
            np.zeros(n),
            np.zeros(n, dtype=bool),
            np.full(n, UNRANKED, dtype=np.int64),
            np.zeros(n),
            tuple({} for _ in range(n)),
        )

    @classmethod
    def concat(cls, populations: Iterable["Population"]) -> "Population":
        """Stack populations row-wise, in order, into a new population."""
        parts = [part for part in populations if len(part)]
        if not parts:
            return cls()
        n_obj = max(part._F.shape[1] for part in parts)
        return _new(
            np.concatenate([part._X for part in parts]),
            np.concatenate([_widened(part._F, n_obj) for part in parts]),
            *(
                np.concatenate([getattr(part, name) for part in parts])
                for name in ("_CV", "_evaluated", "_rank", "_crowding")
            ),
            sum((part.info for part in parts), ()),
        )

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._X.shape[0]

    def __iter__(self) -> Iterator[Individual]:
        return (self._row(index) for index in range(len(self)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        return self._row(index)

    def _row(self, index: int) -> Individual:
        """Snapshot of one row as a standalone :class:`Individual`."""
        individual = Individual(self._X[index])
        if self._evaluated[index]:
            individual.objectives = self._F[index].copy()
        individual.constraint_violation = float(self._CV[index])
        rank = int(self._rank[index])
        individual.rank = None if rank == UNRANKED else rank
        individual.crowding = float(self._crowding[index])
        individual.info = dict(self.info[index])
        return individual

    def take(self, indices: Sequence[int] | np.ndarray) -> "Population":
        """New population of the given rows, in the given order."""
        indices = np.asarray(indices, dtype=np.intp)
        info = self.info
        return _new(
            *(column[indices] for column in self._columns()[:-1]),
            tuple(info[index] for index in indices.tolist()),
        )

    def append(self, individual: Individual) -> None:
        """Add one individual at the end of the population."""
        self.extend([individual])

    def extend(self, individuals: "Population | Iterable[Individual]") -> None:
        """Add several individuals (or a population's rows) at the end."""
        self._store(*Population.concat([self, as_population(individuals)])._columns())

    def replace_rows(self, slots: Sequence[int] | np.ndarray, rows: "Population") -> None:
        """Overwrite row ``slots[k]`` with row ``k`` of ``rows``, for every ``k``."""
        slots = np.asarray(slots, dtype=np.intp)
        if len(rows) != slots.size:
            raise ConfigurationError(
                "replace_rows needs one row per slot, got %d rows for %d slots"
                % (len(rows), slots.size)
            )
        order = np.arange(len(self))
        order[slots] = len(self) + np.arange(len(rows))
        self._store(*Population.concat([self, rows]).take(order)._columns())

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    @property
    def X(self) -> np.ndarray:
        """Read-only ``(n, n_var)`` decision matrix."""
        return self._X

    @property
    def F(self) -> np.ndarray:
        """Read-only ``(n, n_obj)`` objective matrix.

        Raises
        ------
        ConfigurationError
            If any individual has not been evaluated yet.
        """
        if not self.is_evaluated:
            raise ConfigurationError("population contains unevaluated individuals")
        return self._F

    @property
    def CV(self) -> np.ndarray:
        """Read-only ``(n,)`` aggregate constraint-violation vector."""
        return self._CV

    @property
    def rank(self) -> np.ndarray:
        """Read-only ``(n,)`` non-domination ranks (``UNRANKED`` = not sorted)."""
        return self._rank

    @rank.setter
    def rank(self, values: Sequence[int] | np.ndarray) -> None:
        self._rank = self._vector(values, np.int64)

    @property
    def crowding(self) -> np.ndarray:
        """Read-only ``(n,)`` crowding distances within each row's front."""
        return self._crowding

    @crowding.setter
    def crowding(self, values: Sequence[float] | np.ndarray) -> None:
        self._crowding = self._vector(values, float)

    def _vector(self, values, dtype) -> np.ndarray:
        vector = np.array(values, dtype=dtype)
        if vector.shape != (len(self),):
            raise ConfigurationError("expected %d values, got shape %r" % (len(self), vector.shape))
        return _frozen(vector)

    @property
    def is_evaluated(self) -> bool:
        """``True`` when every row has been evaluated."""
        return bool(self._evaluated.all())

    def evaluate(self, problem: Problem, evaluator: "Evaluator | None" = None) -> int:
        """Evaluate every not-yet-evaluated row; returns how many were evaluated.

        The pending rows of ``X`` go as one matrix through the ``evaluator``
        (a process pool or a cache, say) or, without one, through
        :meth:`Problem.evaluate_matrix`; the columns of the returned
        :class:`~repro.problems.batch.BatchEvaluation` are written into
        ``F``, ``CV`` and ``info`` directly.
        """
        pending = np.flatnonzero(~self._evaluated)
        if pending.size == 0:
            return 0
        X = self._X[pending]
        if evaluator is None:
            batch = problem.evaluate_matrix(X)
        else:
            batch = evaluator.evaluate_matrix(problem, X)
        info = batch.info if batch.info is not None else ({},) * pending.size
        rows = _new(
            X,
            np.array(batch.F, dtype=float),
            batch.total_violations,
            np.ones(pending.size, dtype=bool),
            self._rank[pending],
            self._crowding[pending],
            tuple(dict(entry) for entry in info),
        )
        self.replace_rows(pending, rows)
        return int(pending.size)

    def objective_matrix(self) -> np.ndarray:
        """Return an ``(n, n_obj)`` matrix of objective vectors (a copy).

        Raises
        ------
        ConfigurationError
            If any individual has not been evaluated yet.
        """
        return np.array(self.F)

    def decision_matrix(self) -> np.ndarray:
        """Return an ``(n, n_var)`` matrix of decision vectors (a copy)."""
        return np.array(self.X)

    def violations(self) -> np.ndarray:
        """Return the vector of aggregate constraint violations (a copy)."""
        return np.array(self.CV)

    def feasible(self) -> "Population":
        """Sub-population of feasible individuals."""
        return self.take(np.flatnonzero(self._CV == 0.0))

    def copy(self) -> "Population":
        """Independent copy (the read-only arrays are shared, ``info`` is copied)."""
        return _new(*self._columns()[:-1], tuple(dict(entry) for entry in self.info))

    def best_by_objective(self, index: int) -> Individual:
        """Return the individual minimizing objective ``index``."""
        if len(self) == 0:
            raise ConfigurationError("cannot select from an empty population")
        return self[int(np.argmin(self.F[:, index]))]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Population(size=%d)" % len(self)


def _new(X, F, CV, evaluated, rank, crowding, info) -> Population:
    """A population over the given columns (which it takes ownership of)."""
    return Population.__new__(Population)._store(X, F, CV, evaluated, rank, crowding, info)


def as_population(rows: "Population | Iterable[Individual]") -> Population:
    """``rows`` itself when it is a :class:`Population`, else its individuals stacked."""
    return rows if isinstance(rows, Population) else Population(rows)
