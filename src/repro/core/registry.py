"""Experiment registry: the canned paper experiments as first-class objects.

Every experiment of the evaluation section (the Table 1/2 comparisons, the
Figure 1-4 reproductions, the migration ablation) registers itself here with
a name, a description, a parameter schema and an artifact specification.  The
registry is what turns the library into a drivable tool: the command-line
interface (:mod:`repro.cli`), the benchmark harness and the artifact layer
(:mod:`repro.core.artifacts`) all consume :class:`Experiment` entries instead
of hand-calling the ``run_*`` functions.

Example
-------
List and run an experiment through the registry::

    >>> from repro.core.registry import get_experiment, experiment_names
    >>> "photosynthesis-table1" in experiment_names()
    True
    >>> experiment = get_experiment("photosynthesis-table1")
    >>> result = experiment.run(population=8, generations=2, seed=0)
    >>> sorted(result.rows)
    ['MOEA-D', 'PMO2']
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.registry import Parameter, Registry, resolve

__all__ = [
    "Parameter",
    "Experiment",
    "REGISTRY",
    "get_experiment",
    "experiment_names",
]


@dataclass(frozen=True)
class Experiment:
    """A registered, runnable paper experiment with its artifact spec.

    Example
    -------
    >>> from repro.core.registry import get_experiment
    >>> experiment = get_experiment("migration-ablation")
    >>> experiment.reference
    'Sec. 2.1 ablation'
    >>> sorted(p.name for p in experiment.parameters)[:2]
    ['cache', 'generations']
    """

    #: Registry name (``photosynthesis-table1``, ``geobacter-figure4``, ...).
    name: str
    #: One-line title shown by ``repro list``.
    title: str
    #: Longer description shown by ``repro describe``.
    description: str
    #: Which table or figure of the paper the experiment regenerates.
    reference: str
    #: The underlying ``run_*`` function.
    function: Callable[..., Any]
    #: Parameter schema (name, type, default, help) accepted by :meth:`run`.
    parameters: tuple[Parameter, ...] = ()
    #: Extract the canonical front artifact from a result (``None`` = no front).
    front: Callable[[Any], dict | None] | None = None
    #: Extract the experiment-specific JSON payload from a result.
    payload: Callable[[Any], dict] | None = None
    #: Render a deterministic plain-text summary of a result.
    render: Callable[[Any], str] | None = None
    #: Whether the experiment honours ``checkpoint_dir`` (``repro resume``).
    supports_checkpoint: bool = False
    #: Artifact file names a recorded run of this experiment produces.
    artifact_names: tuple[str, ...] = field(
        default=("manifest.json", "front.json", "front.csv", "result.json")
    )

    def validate_parameters(self, overrides: dict[str, Any]) -> dict[str, Any]:
        """Merge ``overrides`` into the schema defaults, rejecting unknown names.

        Returns the full keyword-argument dictionary to call :attr:`function`
        with; values are coerced to their declared types.
        """
        return resolve(self.parameters, overrides, "experiment %r" % self.name)

    def run(self, **overrides: Any) -> Any:
        """Run the experiment with schema-validated parameters.

        Example
        -------
        >>> from repro.core.registry import get_experiment
        >>> result = get_experiment("migration-ablation").run(
        ...     population=8, generations=4, seed=0)
        >>> result.hypervolume_with_migration > 0.0
        True
        """
        return self.function(**self.validate_parameters(overrides))


#: The process-wide registry the canned experiments register into; the
#: first lookup imports :mod:`repro.core.experiments` to populate it.
REGISTRY: Registry[Experiment] = Registry("experiment", populate="repro.core.experiments")


def get_experiment(name: str) -> Experiment:
    """Return one registered experiment, importing the canned set first.

    Example
    -------
    >>> get_experiment("photosynthesis-table2").supports_checkpoint
    True
    """
    return REGISTRY.get(name)


def experiment_names() -> list[str]:
    """Sorted names of every canned experiment.

    Example
    -------
    >>> "geobacter-figure4" in experiment_names()
    True
    """
    return REGISTRY.names()
