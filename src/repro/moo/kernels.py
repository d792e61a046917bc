"""Vectorized, constraint-aware dominance kernels on objective matrices.

Every routine in this module operates on columnar data — an ``(n, m)``
matrix ``F`` of minimized objective vectors, an ``(n,)`` vector ``CV`` of
aggregate constraint violations (0 = feasible) and, for the archive kernel,
an ``(n, n_var)`` matrix ``X`` of decision vectors — instead of on
:class:`~repro.moo.individual.Individual` objects.  They are the hot path
of the whole MOO stack: :mod:`repro.moo.dominance`,
:class:`~repro.moo.archive.ParetoArchive`, NSGA-II survivor selection,
MOEA/D neighbourhood replacement and the front metrics are all thin
wrappers around these kernels.

Dominance follows Deb's feasibility rules throughout (feasible beats
infeasible, smaller violation beats larger, Pareto dominance between
feasible solutions) and is always defined for *minimization*.

The kernels are drop-in equivalent to the naive loops they replaced —
bitwise-identical outputs, including tie-breaking order — which
``tests/moo/test_kernels.py`` asserts against the preserved reference
implementations in ``tests/moo/kernel_oracles.py``, and
``benchmarks/bench_kernels.py`` measures (the non-dominated sort is two to
three orders of magnitude faster at ``n = 1000``; see ``BENCH_kernels.json``
and ``docs/performance.md``).

Example
-------
Sort a small population and compute its crowding distances::

    >>> import numpy as np
    >>> from repro.moo.kernels import crowding_distances, nondominated_sort
    >>> F = np.array([[0.0, 2.0], [2.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    >>> nondominated_sort(F)
    [[0, 1, 2], [3]]
    >>> crowding_distances(F[:3])
    array([inf, inf,  2.])
"""

from __future__ import annotations

import numpy as np

from repro.obs.trace import get_tracer

__all__ = [
    "domination_matrix",
    "constrained_domination_blocks",
    "constrained_domination_matrix",
    "non_dominated_mask",
    "nondominated_sort",
    "crowding_distances",
    "crowding_truncation_order",
    "tournament_winners",
    "archive_prune",
]


def _as_objective_matrix(F: np.ndarray) -> np.ndarray:
    """Coerce input to a float ``(n, m)`` matrix (1-D becomes one column)."""
    F = np.asarray(F, dtype=float)
    if F.ndim == 1:
        F = F.reshape(-1, 1)
    return F


def _pareto_blocks(F_a: np.ndarray, F_b: np.ndarray) -> np.ndarray:
    """Plain Pareto domination of rows of ``F_a`` over rows of ``F_b``.

    Builds the block one objective column at a time (2-D comparisons run
    several times faster than reducing the short trailing axis of an
    ``(n_a, n_b, m)`` broadcast) and chunks over rows of ``a`` so the
    boolean temporaries stay bounded (~16 MB) regardless of population size.
    """
    n_a, m = F_a.shape
    n_b = F_b.shape[0]
    out = np.empty((n_a, n_b), dtype=bool)
    chunk = max(1, int(2**22 // max(1, n_b)))
    for start in range(0, n_a, chunk):
        stop = min(start + chunk, n_a)
        no_worse = np.ones((stop - start, n_b), dtype=bool)
        better = np.zeros((stop - start, n_b), dtype=bool)
        for k in range(m):
            a, b = F_a[start:stop, k, None], F_b[None, :, k]
            no_worse &= a <= b
            better |= a < b
        np.logical_and(no_worse, better, out=out[start:stop])
    return out


def domination_matrix(F: np.ndarray) -> np.ndarray:
    """Pairwise Pareto-domination matrix of an ``(n, m)`` objective matrix.

    Returns a boolean ``(n, n)`` matrix ``D`` with ``D[i, j]`` true when row
    ``i`` dominates row ``j``: no worse in every objective and strictly
    better in at least one (all objectives minimized).  Constraints are
    ignored; use :func:`constrained_domination_matrix` for Deb's rules.
    """
    F = _as_objective_matrix(F)
    return _pareto_blocks(F, F)


def constrained_domination_blocks(
    F_a: np.ndarray, CV_a: np.ndarray, F_b: np.ndarray, CV_b: np.ndarray
) -> np.ndarray:
    """Constraint-aware domination of rows of ``a`` over rows of ``b``.

    Returns a boolean ``(n_a, n_b)`` block with entry ``[i, j]`` true when
    ``a``'s row ``i`` constrained-dominates ``b``'s row ``j`` under Deb's
    feasibility rules.  Computing rectangular blocks (archive members
    against a candidate batch, say) avoids the wasted square work of a full
    matrix when one side is known to be mutually non-dominated.
    """
    F_a = _as_objective_matrix(F_a)
    F_b = _as_objective_matrix(F_b)
    CV_a = np.asarray(CV_a, dtype=float)
    CV_b = np.asarray(CV_b, dtype=float)
    feasible_a = CV_a == 0.0
    feasible_b = CV_b == 0.0
    dominates = feasible_a[:, None] & ~feasible_b[None, :]
    dominates |= (feasible_a[:, None] & feasible_b[None, :]) & _pareto_blocks(F_a, F_b)
    dominates |= (~feasible_a[:, None] & ~feasible_b[None, :]) & (
        CV_a[:, None] < CV_b[None, :]
    )
    return dominates


def constrained_domination_matrix(F: np.ndarray, CV: np.ndarray | None = None) -> np.ndarray:
    """Square constraint-aware domination matrix of one population.

    ``CV=None`` treats every row as feasible, reducing to plain Pareto
    dominance.  The diagonal is always false.
    """
    F = _as_objective_matrix(F)
    if CV is None:
        CV = np.zeros(F.shape[0])
    return constrained_domination_blocks(F, CV, F, CV)


def non_dominated_mask(F: np.ndarray) -> np.ndarray:
    """Boolean mask of the Pareto non-dominated rows of ``F``.

    Unconstrained, like the classic ``non_dominated_front_indices``; rows
    dominated by no other row are true.
    """
    F = _as_objective_matrix(F)
    if F.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    return ~domination_matrix(F).any(axis=0)


def nondominated_sort(F: np.ndarray, CV: np.ndarray | None = None) -> list[list[int]]:
    """Deb's fast non-dominated sort on columnar data.

    Returns the fronts as lists of row indices, rank 0 first.  The ordering
    *within* each front reproduces the classic bookkeeping implementation
    exactly: front 0 is in ascending index order, and a member of a later
    front appears at the position where its last dominator (in current-front
    order) released it, ties broken by ascending index — so populations
    ordered by these fronts evolve bitwise-identically to the original
    pure-Python sort.
    """
    F = _as_objective_matrix(F)
    n = F.shape[0]
    if n == 0:
        return []
    with get_tracer().span("kernels.nondominated_sort", rows=n) as span:
        CV = np.zeros(n) if CV is None else np.asarray(CV, dtype=float)
        dominates = constrained_domination_matrix(F, CV)
        counts = dominates.sum(axis=0).astype(np.int64)
        assigned = np.zeros(n, dtype=bool)
        current = np.flatnonzero(counts == 0)
        fronts: list[list[int]] = []
        while current.size:
            fronts.append(current.tolist())
            assigned[current] = True
            counts -= dominates[current].sum(axis=0)
            candidates = np.flatnonzero((counts == 0) & ~assigned)
            if candidates.size == 0:
                break
            # A candidate enters the next front at the moment its last
            # dominator (scanning the current front in order) releases it;
            # ties within one dominator's scan fall in ascending index order.
            released_by = dominates[np.ix_(current, candidates)]
            last_dominator = current.size - 1 - np.argmax(released_by[::-1, :], axis=0)
            current = candidates[np.lexsort((candidates, last_dominator))]
        span.set(fronts=len(fronts))
    return fronts


def crowding_distances(F: np.ndarray) -> np.ndarray:
    """Crowding distance of each row of an ``(n, m)`` objective matrix.

    Boundary rows of every objective receive an infinite distance; interior
    rows accumulate the span-normalized gap between their sorted
    neighbours.  Zero-range objectives (all rows equal in one column) and
    duplicated rows contribute nothing instead of dividing by zero, and
    infinite or NaN objectives propagate as IEEE values, so the kernel is
    warning-free under ``-W error::RuntimeWarning``.
    """
    F = _as_objective_matrix(F)
    n, m = F.shape
    if n == 0:
        return np.empty(0)
    if n <= 2:
        return np.full(n, np.inf)
    order = np.argsort(F, axis=0, kind="stable")
    sorted_F = np.take_along_axis(F, order, axis=0)
    # Non-finite objectives give the IEEE results of the reference loop
    # (inf - inf and inf / inf are NaN) without warning about them.
    with np.errstate(invalid="ignore", over="ignore"):
        spans = sorted_F[-1] - sorted_F[0]
        safe_spans = np.where(spans > 0, spans, 1.0)
        contributions = (sorted_F[2:] - sorted_F[:-2]) / safe_spans
    distance = np.zeros(n)
    # Accumulate per column, in column order, to match the reference
    # summation order bit for bit (m is small, the work per column is
    # already vectorized).
    for k in range(m):
        if spans[k] > 0:
            distance[order[1:-1, k]] += contributions[:, k]
    distance[order[[0, -1], :].ravel()] = np.inf
    return distance


def crowding_truncation_order(crowding: np.ndarray) -> np.ndarray:
    """Indices sorting crowding distances descending, ties in input order.

    This is the truncation order of NSGA-II environmental selection: the
    least crowded (most spread-out) members come first, and the stable tie
    break reproduces Python's ``sorted(..., reverse=True)`` exactly.
    """
    crowding = np.asarray(crowding, dtype=float)
    return np.argsort(-crowding, kind="stable")


def tournament_winners(
    ranks: np.ndarray, crowding: np.ndarray, pairs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decide binary tournaments on (rank, crowding) for index pairs.

    ``pairs`` is a ``(k, 2)`` array of population indices.  Returns
    ``(winners, ties)``: the winning index per pair (lower rank wins, then
    larger crowding) and a boolean mask of full ties, which the caller
    resolves with its own random draw (one coin per pair in
    :func:`repro.moo.operators.binary_tournament`).
    """
    ranks = np.asarray(ranks, dtype=float)
    crowding = np.asarray(crowding, dtype=float)
    pairs = np.asarray(pairs)
    first, second = pairs[:, 0], pairs[:, 1]
    rank_a, rank_b = ranks[first], ranks[second]
    crowd_a, crowd_b = crowding[first], crowding[second]
    second_wins = (rank_b < rank_a) | ((rank_b == rank_a) & (crowd_b > crowd_a))
    ties = (rank_a == rank_b) & (crowd_a == crowd_b)
    return np.where(second_wins, second, first), ties


#: Candidates folded per precomputed set of blocks in :func:`archive_prune`.
_CANDIDATE_CHUNK = 128

#: Float elements per chunk of the near-duplicate temporaries (~16 MB).
_CLOSE_CHUNK_ELEMENTS = 2**21


def _isclose(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.isclose(x, y)`` at the default tolerances, without its dispatch.

    The same formula numpy evaluates, so the booleans are identical; call it
    under ``np.errstate(invalid="ignore")`` as numpy does (``inf - inf``).
    """
    return (np.abs(x - y) <= 1e-8 + 1e-5 * np.abs(y)) & np.isfinite(y) | (x == y)


def _near_duplicate_block(F: np.ndarray, X: np.ndarray, n_members: int) -> np.ndarray:
    """Which earlier rows are near-duplicates of each candidate.

    Returns a boolean ``(n_candidates, n_rows)`` block whose entry
    ``[j, r]`` is ``np.allclose(F[r], F[c]) and np.allclose(X[r], X[c])``
    for candidate row ``c = n_members + j`` and every row ``r < c``.  Entries
    for rows at or after ``c`` are unspecified: those rows are not live yet
    when the fold reads row ``j``.  Closeness is :func:`_isclose` with ``x``
    the earlier row and ``y`` the candidate, as ``np.allclose`` orders them.
    Decision vectors are compared only for the pairs whose objectives are
    already close, and every float temporary is chunked to ~16 MB.
    """
    n_rows, m = F.shape
    F_cand = F[n_members:]
    n_cand = F_cand.shape[0]
    close = np.ones((n_cand, n_rows), dtype=bool)
    chunk = max(1, _CLOSE_CHUNK_ELEMENTS // max(1, n_cand))
    with np.errstate(invalid="ignore"):
        for k in range(m):
            for start in range(0, n_rows, chunk):
                block = slice(start, start + chunk)
                close[:, block] &= _isclose(F[None, block, k], F_cand[:, k, None])
        cand, rows = np.nonzero(close)
        earlier = rows < cand + n_members
        cand, rows = cand[earlier], rows[earlier]
        chunk = max(1, _CLOSE_CHUNK_ELEMENTS // max(1, X.shape[1]))
        for start in range(0, cand.size, chunk):
            j, r = cand[start : start + chunk], rows[start : start + chunk]
            close[j, r] = _isclose(X[r], X[n_members + j]).all(axis=1)
    return close


def _fold_block(
    F: np.ndarray, CV: np.ndarray, X: np.ndarray, n_members: int, capacity: int | None
) -> tuple[np.ndarray, int]:
    """Fold candidates ``n_members..`` into the live rows ``0..n_members-1``.

    The pairwise tests are precomputed as boolean blocks (every row over the
    candidates, the candidates over every row, near-duplicates), so the
    sequential fold only combines rows of them with an ``alive`` mask.  A
    mask can stand in for the ordered live list because the live set is
    always in ascending row order: members come first, survivors keep their
    order and an accepted candidate is the largest index so far.  Returns
    the kept row indices (ascending) and the number of candidates accepted.
    """
    F_cand, CV_cand = F[n_members:], CV[n_members:]
    dominated = np.ascontiguousarray(constrained_domination_blocks(F, CV, F_cand, CV_cand).T)
    survives = ~constrained_domination_blocks(F_cand, CV_cand, F, CV)
    duplicate = _near_duplicate_block(F, X, n_members)
    alive = np.zeros(F.shape[0], dtype=bool)
    alive[:n_members] = True
    accepted = 0
    # A boolean dot product is any(alive & row) in one cheap numpy call.
    for j in range(F_cand.shape[0]):
        if alive @ dominated[j]:
            continue
        alive &= survives[j]
        if alive @ duplicate[j]:
            continue
        alive[n_members + j] = True
        accepted += 1
        if capacity is None:
            continue
        kept = np.flatnonzero(alive)
        while kept.size > capacity:
            distances = crowding_distances(F[kept])
            finite = np.where(np.isfinite(distances), distances, np.inf)
            alive[kept[int(np.argmin(finite))]] = False
            kept = np.flatnonzero(alive)
    return np.flatnonzero(alive), accepted


def archive_prune(
    F: np.ndarray,
    CV: np.ndarray,
    X: np.ndarray,
    n_members: int,
    capacity: int | None = None,
) -> tuple[list[int], int]:
    """Batched, feasibility-preferred, crowding-truncated archive prune.

    Rows ``0..n_members-1`` are the current archive members (assumed
    mutually non-dominated, in archive order); the remaining rows are
    candidates, folded in *in order* with the exact semantics of sequential
    insertion: a candidate dominated by a live row is rejected, live rows
    dominated by it are dropped, near-duplicates (``np.allclose`` on both
    objectives and decisions) are rejected after their dominance side
    effects, and when ``capacity`` is exceeded the most crowded live row is
    discarded after every insertion.

    The pairwise work is precomputed, not done per candidate.  For each run
    of up to 128 candidates (a whole batch, in the paper workloads) the
    kernel builds two rectangular :func:`constrained_domination_blocks` —
    the live rows and the run over the run, and the run over them — plus
    one near-duplicate block; the sequential fold then only updates a
    boolean ``alive`` mask.  Only rows live before the run or inside it can
    be live during it, so each run's blocks are ``(live + 128) x 128``
    booleans: memory and work grow with the batch times the live set, not
    with the square of the batch, and the float temporaries behind the
    blocks are chunked to ~16 MB.

    Returns ``(kept, accepted)``: the surviving row indices in final archive
    order, and how many candidates entered (counting ones later evicted by
    truncation or a subsequent candidate, matching the return-value contract
    of per-individual insertion).
    """
    F = _as_objective_matrix(F)
    CV = np.asarray(CV, dtype=float)
    X = np.asarray(X, dtype=float)
    n_rows = F.shape[0]
    kept = np.arange(n_members)
    accepted = 0
    for start in range(n_members, n_rows, _CANDIDATE_CHUNK):
        rows = np.concatenate([kept, np.arange(start, min(start + _CANDIDATE_CHUNK, n_rows))])
        local, entered = _fold_block(F[rows], CV[rows], X[rows], kept.size, capacity)
        kept = rows[local]
        accepted += entered
    return kept.tolist(), accepted
