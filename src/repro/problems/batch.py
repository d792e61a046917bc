"""Columnar evaluation containers: the batch-first side of the Problem contract.

:class:`BatchEvaluation` is what :meth:`repro.problems.Problem.evaluate_matrix`
returns: an ``(n, n_obj)`` objective matrix ``F``, an ``(n, n_con)``
constraint-violation matrix ``G`` (zero-width for unconstrained problems) and
an optional tuple of per-point ``info`` dictionaries.  The evaluators in
:mod:`repro.runtime` move these containers between processes, and
:class:`~repro.moo.individual.Population` consumes their columns directly, so
a batch of evaluations never gets shredded into per-row objects on the hot
path.

:class:`EvaluationResult` is the per-point container: what
:meth:`BatchEvaluation.result` hands out for one row and the natural return
type of problems whose physics is inherently per-design (one ODE solve per
candidate).

Example
-------
Columns in, columns out::

    >>> import numpy as np
    >>> batch = BatchEvaluation(F=np.array([[1.0, 2.0], [3.0, 4.0]]))
    >>> len(batch), batch.n_obj, batch.n_con
    (2, 2, 0)
    >>> batch.result(1).objectives
    array([3., 4.])
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, DimensionError

__all__ = ["EvaluationResult", "BatchEvaluation"]


@dataclass
class EvaluationResult:
    """Evaluation of one decision vector.

    Attributes
    ----------
    objectives:
        Objective vector, all entries to be minimized.
    constraint_violations:
        Vector of constraint violations (``> 0`` entries violate).  Empty for
        unconstrained problems.
    info:
        Free-form dictionary of evaluation by-products (e.g. the steady-state
        metabolite concentrations behind a CO2 uptake value).  Optimizers
        ignore it but reporting code can surface it.
    """

    objectives: np.ndarray
    constraint_violations: np.ndarray = field(default_factory=lambda: np.empty(0))
    info: dict = field(default_factory=dict)

    @property
    def total_violation(self) -> float:
        """Sum of positive constraint violations (0.0 when feasible)."""
        if self.constraint_violations.size == 0:
            return 0.0
        return float(np.sum(np.clip(self.constraint_violations, 0.0, None)))

    @property
    def is_feasible(self) -> bool:
        """``True`` when no constraint is violated."""
        return self.total_violation == 0.0


class BatchEvaluation:
    """Evaluation of a whole ``(n, n_var)`` decision matrix, kept columnar.

    Parameters
    ----------
    F:
        ``(n, n_obj)`` matrix of minimized objective vectors.
    G:
        Optional ``(n, n_con)`` matrix of constraint violations (``> 0``
        violates); ``None`` means unconstrained (a zero-width matrix).
    info:
        Optional sequence of ``n`` per-point dictionaries of evaluation
        by-products; ``None`` means no by-products.

    Example
    -------
    >>> import numpy as np
    >>> batch = BatchEvaluation(
    ...     F=np.array([[1.0], [2.0]]), G=np.array([[0.0], [0.5]]))
    >>> batch.total_violations
    array([0. , 0.5])
    >>> batch.feasible
    array([ True, False])
    """

    __slots__ = ("F", "G", "info")

    def __init__(
        self,
        F: np.ndarray,
        G: np.ndarray | None = None,
        info: Sequence[dict] | None = None,
    ) -> None:
        F = np.asarray(F, dtype=float)
        if F.ndim != 2:
            raise DimensionError("F must be an (n, n_obj) matrix, got %r" % (F.shape,))
        if G is None:
            G = np.empty((F.shape[0], 0))
        else:
            G = np.asarray(G, dtype=float)
            if G.ndim == 1:
                G = G.reshape(-1, 1)
            if G.ndim != 2 or G.shape[0] != F.shape[0]:
                raise DimensionError(
                    "G must be an (n, n_con) matrix matching F's %d rows, got %r"
                    % (F.shape[0], G.shape)
                )
        if info is not None:
            info = tuple(info)
            if len(info) != F.shape[0]:
                raise DimensionError(
                    "info must carry one dict per row (%d), got %d"
                    % (F.shape[0], len(info))
                )
        self.F = F
        self.G = G
        self.info = info

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.F.shape[0])

    @property
    def n_obj(self) -> int:
        """Number of objectives (columns of ``F``)."""
        return int(self.F.shape[1])

    @property
    def n_con(self) -> int:
        """Number of constraints (columns of ``G``; 0 when unconstrained)."""
        return int(self.G.shape[1])

    @property
    def total_violations(self) -> np.ndarray:
        """Per-row sum of positive constraint violations (``(n,)`` vector)."""
        if self.G.shape[1] == 0:
            return np.zeros(len(self))
        return np.sum(np.clip(self.G, 0.0, None), axis=1)

    @property
    def feasible(self) -> np.ndarray:
        """Boolean mask of rows with zero aggregate violation."""
        return self.total_violations == 0.0

    def info_at(self, index: int) -> dict:
        """Info dictionary of one row (empty when no info was recorded)."""
        if self.info is None:
            return {}
        return self.info[index]

    # ------------------------------------------------------------------
    # Conversions to and from the per-point form
    # ------------------------------------------------------------------
    def result(self, index: int) -> EvaluationResult:
        """One row as an :class:`EvaluationResult` (owned copies).

        Example
        -------
        >>> import numpy as np
        >>> BatchEvaluation(F=np.array([[1.0, 2.0]])).result(0).is_feasible
        True
        """
        return EvaluationResult(
            objectives=np.array(self.F[index], copy=True),
            constraint_violations=np.array(self.G[index], copy=True),
            info=dict(self.info_at(index)),
        )

    def results(self) -> list[EvaluationResult]:
        """Every row as an :class:`EvaluationResult` list (the legacy shape)."""
        return [self.result(index) for index in range(len(self))]

    @classmethod
    def from_results(cls, results: Sequence[EvaluationResult]) -> "BatchEvaluation":
        """Stack per-point results into one columnar batch.

        All results must agree on the number of objectives and constraints.

        Example
        -------
        >>> import numpy as np
        >>> batch = BatchEvaluation.from_results(
        ...     [EvaluationResult(objectives=np.array([1.0, 2.0]))])
        >>> batch.F
        array([[1., 2.]])
        """
        results = list(results)
        if not results:
            raise ConfigurationError(
                "cannot stack an empty result list (use BatchEvaluation.empty)"
            )
        F = np.vstack([np.asarray(r.objectives, dtype=float) for r in results])
        widths = {np.asarray(r.constraint_violations).size for r in results}
        if len(widths) > 1:
            raise DimensionError(
                "results disagree on the number of constraints: %s" % sorted(widths)
            )
        n_con = widths.pop()
        G = (
            np.vstack(
                [
                    np.asarray(r.constraint_violations, dtype=float).reshape(1, -1)
                    for r in results
                ]
            )
            if n_con
            else None
        )
        info = (
            tuple(dict(r.info) for r in results)
            if any(r.info for r in results)
            else None
        )
        return cls(F=F, G=G, info=info)

    @classmethod
    def empty(cls, n_obj: int, n_con: int = 0) -> "BatchEvaluation":
        """A zero-row batch with the given column widths."""
        return cls(F=np.empty((0, n_obj)), G=np.empty((0, n_con)))

    @classmethod
    def concat(cls, batches: Iterable["BatchEvaluation"]) -> "BatchEvaluation":
        """Concatenate batches row-wise (the pool evaluator's reduce step).

        Example
        -------
        >>> import numpy as np
        >>> a = BatchEvaluation(F=np.array([[1.0]]))
        >>> b = BatchEvaluation(F=np.array([[2.0]]))
        >>> len(BatchEvaluation.concat([a, b]))
        2
        """
        batches = list(batches)
        if not batches:
            raise ConfigurationError("cannot concatenate zero batches")
        # Zero-row batches carry no information but may disagree on the
        # constraint width (an empty evaluation cannot know it); drop them so
        # they never poison the stack.
        nonempty = [batch for batch in batches if len(batch)]
        if not nonempty:
            return batches[0]
        batches = nonempty
        if len(batches) == 1:
            return batches[0]
        F = np.vstack([batch.F for batch in batches])
        G = np.vstack([batch.G for batch in batches])
        if any(batch.info is not None for batch in batches):
            info: tuple[dict, ...] | None = tuple(
                batch.info_at(index) for batch in batches for index in range(len(batch))
            )
        else:
            info = None
        return cls(F=F, G=G, info=info)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "BatchEvaluation(n=%d, n_obj=%d, n_con=%d)" % (
            len(self),
            self.n_obj,
            self.n_con,
        )
