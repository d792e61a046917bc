"""Warm-starting solves from previously recorded fronts.

A recorded run's ``front.json`` carries the non-dominated decision vectors
that an earlier optimization already paid for; re-solving a similar task from
scratch throws that work away.  :func:`load_warm_population` re-hydrates such
a front into an (unevaluated) initial population for :func:`repro.solve.solve`
— the ``warm_start=`` parameter calls it — so a re-solve starts from the
previous Pareto set instead of from random samples.

Compatibility is validated, not assumed: the source must record decision
vectors of the target problem's width, and when a run manifest is present its
recorded design space must equal the target problem's.  A mismatch raises
:class:`~repro.exceptions.ConfigurationError` rather than silently seeding a
population from a different task.

Determinism: the seeded individuals are taken in recorded order and the
remainder of the population is sampled by the engine's usual initializer from
the run's seeded generator, so a warm-started run is bitwise deterministic in
``seed`` — re-running it reproduces the same front.

Example
-------
Re-solve seeded from a prior run's front::

    from repro.solve import solve

    first = solve(problem, "nsga2", seed=7, termination=30)
    # ... record_solve_run(run_dir, problem, first, {...}) ...
    second = solve(problem, "nsga2", seed=8, termination=30,
                   warm_start=run_dir)
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["load_warm_population"]

_FRONT_NAME = "front.json"
_MANIFEST_NAME = "manifest.json"


def _locate(source: "str | os.PathLike") -> tuple[Path, Path | None]:
    """Resolve a run dir or front.json path to (front path, manifest path)."""
    path = Path(source)
    if path.is_dir():
        front = path / _FRONT_NAME
        if not front.exists():
            raise ConfigurationError(
                "warm-start source %s has no %s — is it a recorded run "
                "directory?" % (path, _FRONT_NAME)
            )
        manifest = path / _MANIFEST_NAME
        return front, manifest if manifest.exists() else None
    if path.is_file():
        manifest = path.parent / _MANIFEST_NAME
        return path, manifest if manifest.exists() else None
    raise ConfigurationError(
        "warm-start source %s does not exist (expected a run directory or a "
        "front.json path)" % path
    )


def load_warm_population(
    source: "str | os.PathLike",
    problem,
    population_size: int | None = None,
):
    """Re-hydrate a recorded front into an initial population for ``problem``.

    Parameters
    ----------
    source:
        A recorded run directory (holding ``front.json`` and usually
        ``manifest.json``) or a direct path to a ``front.json`` file.
    problem:
        The target :class:`~repro.problems.base.Problem`; the recorded
        decisions must match its decision width, and a recorded design space
        (when the manifest carries one) must equal the problem's.
    population_size:
        Optional cap: at most this many individuals are taken (recorded
        order, front rows first).  The engine samples the remainder of its
        population as usual.

    Returns
    -------
    A :class:`~repro.moo.individual.Population` of *unevaluated* individuals
    whose decision vectors are the recorded front rows repaired onto the
    problem's design space.

    Example
    -------
    ::

        population = load_warm_population("runs/zdt1/20260807-seed7", problem,
                                          population_size=64)
        result = solve(problem, "nsga2", seed=8, termination=50,
                       initial_population=population)
    """
    from repro.core.artifacts import load_json
    from repro.moo.individual import Population

    front_path, manifest_path = _locate(source)
    payload = load_json(front_path)
    decisions = payload.get("decisions")
    if not decisions:
        raise ConfigurationError(
            "warm-start source %s records no decision vectors; only fronts "
            "saved with their decisions can seed a population" % front_path
        )
    matrix = np.asarray(decisions, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != problem.n_var:
        raise ConfigurationError(
            "warm-start decisions of %s have shape %r, but %s has %d decision "
            "variables" % (front_path, matrix.shape, problem.name, problem.n_var)
        )
    if manifest_path is not None:
        recorded = load_json(manifest_path).get("design_space")
        if recorded is not None and recorded != problem.space.as_dict():
            raise ConfigurationError(
                "warm-start source %s was produced on a different design "
                "space than %s; refusing to seed a population across "
                "incompatible problems" % (manifest_path.parent, problem.name)
            )
    if population_size is not None and matrix.shape[0] > population_size:
        matrix = matrix[:population_size]
    return Population.from_vectors([problem.repair(row) for row in matrix])
