"""Name registries and parameter schemas shared by every registered object.

Experiments (:mod:`repro.core.registry`), solvers
(:mod:`repro.solve.registry`) and problems (:mod:`repro.problems.registry`)
are all looked up by name through one :class:`Registry`, reject unknown names
with one :class:`UnknownNameError` carrying a :func:`did_you_mean` hint, and
validate their keyword arguments through one :func:`resolve` over a tuple of
:class:`Parameter` entries.  The module imports nothing but
:mod:`repro.exceptions`, so every registry can use it without pulling in
another subsystem's package.

Example
-------
>>> schema = (Parameter("n_var", int, 30, "number of variables"),
...           Parameter("normalized", bool, False, "unit box"))
>>> resolve(schema, {"normalized": "off", "n_var": "10"}, "problem 'zdt1'")
{'n_var': 10, 'normalized': False}
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Generic, Iterable, Mapping, TypeVar

from repro.exceptions import ConfigurationError

__all__ = ["Parameter", "Registry", "UnknownNameError", "did_you_mean", "resolve"]

_TRUE_STRINGS = frozenset({"1", "true", "yes", "on"})
_FALSE_STRINGS = frozenset({"0", "false", "no", "off"})

T = TypeVar("T")


def did_you_mean(name: str, known: Iterable[str]) -> str:
    """Suggestion suffix for an unknown-name error (empty when no match).

    Example
    -------
    >>> did_you_mean("table1", ["photosynthesis-table1", "geobacter-figure4"])
    ' — did you mean photosynthesis-table1?'
    >>> did_you_mean("bogus", ["photosynthesis-table1"])
    ''
    """
    close = [candidate for candidate in sorted(known) if name in candidate]
    if not close:
        return ""
    return " — did you mean %s?" % ", ".join(close)


class UnknownNameError(ConfigurationError, KeyError):
    """Raised on a lookup of a name that was never registered.

    A :class:`~repro.exceptions.ConfigurationError`, so the CLI and the
    service report it like any other bad input, and a :class:`KeyError`, so
    :meth:`Registry.get` keeps dictionary semantics.  Unlike a plain
    ``KeyError`` its ``str()`` is the unquoted message.

    Example
    -------
    >>> str(UnknownNameError("unknown solver 'nsga3'"))
    "unknown solver 'nsga3'"
    """

    def __str__(self) -> str:
        return str(self.args[0]) if self.args else ""


@dataclass(frozen=True)
class Parameter:
    """One knob of a registered object's parameter schema.

    The schema drives both validation and the command-line interface, which
    turns each parameter into a ``--flag`` (underscores become dashes,
    booleans become switches).

    Example
    -------
    >>> Parameter("n_var", int, 30, "number of variables").coerce("10")
    10
    >>> Parameter("cache", bool, False).coerce("false")
    False
    """

    #: Keyword-argument name of the underlying factory or function.
    name: str
    #: Python type of the value (``int``, ``float``, ``bool`` or ``str``).
    type: type
    #: Default used when the caller does not supply the parameter.
    default: Any
    #: One-line description shown by the describe commands.
    help: str = ""

    @property
    def cli_flag(self) -> str:
        """Command-line flag corresponding to this parameter."""
        return "--" + self.name.replace("_", "-")

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready ``{name, type, default, help}`` view of the parameter."""
        return {
            "name": self.name,
            "type": self.type.__name__,
            "default": self.default,
            "help": self.help,
        }

    def coerce(self, value: Any) -> Any:
        """Convert ``value`` to the parameter's type (``None`` passes through).

        Boolean strings parse as ``1/true/yes/on`` and ``0/false/no/off``
        (any case); anything that does not convert raises
        :class:`~repro.exceptions.ConfigurationError`.
        """
        if value is None:
            return None
        if self.type is bool and isinstance(value, str):
            lowered = value.lower()
            if lowered in _TRUE_STRINGS:
                return True
            if lowered in _FALSE_STRINGS:
                return False
        else:
            try:
                return self.type(value)
            except (TypeError, ValueError):
                pass
        raise ConfigurationError(
            "cannot parse %r as %s for parameter %r"
            % (value, self.type.__name__, self.name)
        )


def resolve(
    parameters: Iterable[Parameter], overrides: Mapping[str, Any], owner: str
) -> dict[str, Any]:
    """Merge ``overrides`` into the schema defaults, coercing every value.

    ``owner`` names the schema's owner in the error message (``"problem
    'zdt1'"``).  Unknown keys raise
    :class:`~repro.exceptions.ConfigurationError` listing the known ones.

    Example
    -------
    >>> resolve((Parameter("seed", int, 0),), {"sede": 1}, "experiment 'demo'")
    Traceback (most recent call last):
    ...
    repro.exceptions.ConfigurationError: unknown parameter(s) sede for experiment 'demo' (known: seed)
    """
    known = {parameter.name: parameter for parameter in parameters}
    unknown = sorted(set(overrides) - set(known))
    if unknown:
        hint = did_you_mean(unknown[0], known) if len(unknown) == 1 else ""
        raise ConfigurationError(
            "unknown parameter(s) %s for %s%s (known: %s)"
            % (", ".join(unknown), owner, hint, ", ".join(sorted(known)) or "none")
        )
    resolved = {name: parameter.default for name, parameter in known.items()}
    for name, value in overrides.items():
        resolved[name] = known[name].coerce(value)
    return resolved


class Registry(Generic[T]):
    """Name-indexed collection of registered entries (anything with ``.name``).

    ``kind`` names the entries in error messages (``"solver"``).  When
    ``populate`` names a module, the first lookup imports it, so entries
    that register themselves as an import side effect are loaded only when
    a caller asks for one.

    Example
    -------
    >>> from types import SimpleNamespace
    >>> solvers = Registry("solver")
    >>> _ = solvers.register(SimpleNamespace(name="nsga2"))
    >>> "nsga2" in solvers, solvers.names()
    (True, ['nsga2'])
    >>> solvers.get("nsga")
    Traceback (most recent call last):
    ...
    repro.registry.UnknownNameError: unknown solver 'nsga' — did you mean nsga2? (available: nsga2)
    """

    def __init__(self, kind: str, populate: str | None = None) -> None:
        self.kind = kind
        self._populate = populate
        self._entries: dict[str, T] = {}

    def _load(self) -> None:
        if self._populate is not None:
            importlib.import_module(self._populate)
            self._populate = None

    def register(self, entry: T) -> T:
        """Add one entry under ``entry.name``; duplicate names are errors."""
        name = entry.name  # type: ignore[attr-defined]
        if name in self._entries:
            raise ConfigurationError("%s %r is already registered" % (self.kind, name))
        self._entries[name] = entry
        return entry

    def get(self, name: str) -> T:
        """Look up one entry, with name suggestions on a miss."""
        self._load()
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownNameError(
                "unknown %s %r%s (available: %s)"
                % (
                    self.kind,
                    name,
                    did_you_mean(name, self._entries),
                    ", ".join(sorted(self._entries)),
                )
            ) from None

    def names(self) -> list[str]:
        """Sorted names of every registered entry."""
        self._load()
        return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        self._load()
        return name in self._entries
