"""Archipelago migration topologies.

The paper's PMO2 framework lets islands exchange candidate solutions according
to a chosen archipelago topology (Sec. 2.1).  The adopted configuration is the
all-to-all (broadcast) topology over two islands, but the framework "encloses
... many archipelago topologies"; this module provides the standard set so the
ablation benchmarks can compare them.

A topology is simply a mapping ``island index -> list of destination island
indices``; it is stored as the sorted tuple :attr:`Topology.edges` of directed
``(source, destination)`` pairs, which is enough to inspect and validate it.
"""

from __future__ import annotations

import abc
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "Topology",
    "AllToAllTopology",
    "RingTopology",
    "StarTopology",
    "RandomTopology",
    "IsolatedTopology",
    "topology_from_name",
]


class Topology(abc.ABC):
    """Abstract directed migration topology over ``n_islands`` islands."""

    def __init__(self, n_islands: int) -> None:
        if n_islands <= 0:
            raise ConfigurationError("a topology needs at least one island")
        self.n_islands = int(n_islands)
        #: Directed ``(source, destination)`` migration links, sorted, no self-loops.
        self.edges = tuple(sorted({(i, j) for i, j in self._build() if i != j}))

    @abc.abstractmethod
    def _build(self) -> Iterable[tuple[int, int]]:
        """Return the directed migration edges (self-loops are dropped)."""

    def _check_island(self, island: int) -> None:
        if island < 0 or island >= self.n_islands:
            raise ConfigurationError("island index out of range")

    def destinations(self, island: int) -> list[int]:
        """Islands that receive migrants emitted by ``island``."""
        self._check_island(island)
        return [j for i, j in self.edges if i == island]

    def sources(self, island: int) -> list[int]:
        """Islands whose migrants reach ``island``."""
        self._check_island(island)
        return [i for i, j in self.edges if j == island]

    @property
    def n_edges(self) -> int:
        """Number of directed migration links."""
        return len(self.edges)

    def is_connected(self) -> bool:
        """``True`` when every island can eventually receive genetic material
        from every other island (weak connectivity of the digraph)."""
        return _weakly_connected(self.n_islands, self.edges)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "%s(n_islands=%d, edges=%d)" % (
            type(self).__name__,
            self.n_islands,
            self.n_edges,
        )


def _weakly_connected(n_islands: int, edges: Sequence[tuple[int, int]]) -> bool:
    """Breadth-first search from island 0 over the edges taken undirected."""
    reached, frontier = {0}, {0}
    while frontier:
        frontier = {j for edge in edges for i, j in (edge, edge[::-1]) if i in frontier}
        frontier -= reached
        reached |= frontier
    return len(reached) == n_islands


class AllToAllTopology(Topology):
    """Broadcast topology: every island sends to every other island.

    This is the topology used by the paper's adopted PMO2 configuration.
    """

    def _build(self) -> Iterable[tuple[int, int]]:
        return [(i, j) for i in range(self.n_islands) for j in range(self.n_islands)]


class RingTopology(Topology):
    """Unidirectional ring: island ``i`` sends to island ``(i + 1) % n``."""

    def _build(self) -> Iterable[tuple[int, int]]:
        return [(i, (i + 1) % self.n_islands) for i in range(self.n_islands)]


class StarTopology(Topology):
    """Hub-and-spoke: island 0 exchanges migrants with every other island."""

    def _build(self) -> Iterable[tuple[int, int]]:
        return [edge for i in range(1, self.n_islands) for edge in ((0, i), (i, 0))]


class RandomTopology(Topology):
    """Random directed topology with a configurable edge probability.

    A deterministic seed keeps experiments reproducible.  The generated graph
    is re-sampled until it is weakly connected (or accepted as-is for a single
    island).
    """

    def __init__(self, n_islands: int, edge_probability: float = 0.5, seed: int = 0) -> None:
        if not 0.0 < edge_probability <= 1.0:
            raise ConfigurationError("edge probability must be in (0, 1]")
        self.edge_probability = edge_probability
        self.seed = seed
        super().__init__(n_islands)

    def _build(self) -> Iterable[tuple[int, int]]:
        rng = np.random.default_rng(self.seed)
        n = self.n_islands
        for attempt in range(1000):
            edges = [
                (i, j)
                for i in range(n)
                for j in range(n)
                if i != j and rng.random() < self.edge_probability
            ]
            if _weakly_connected(n, edges):
                return edges
        raise ConfigurationError(
            "could not sample a connected random topology; raise edge_probability"
        )


class IsolatedTopology(Topology):
    """No migration at all; used as the ablation baseline for PMO2."""

    def _build(self) -> Iterable[tuple[int, int]]:
        return []


_NAMED_TOPOLOGIES = {
    "all-to-all": AllToAllTopology,
    "broadcast": AllToAllTopology,
    "ring": RingTopology,
    "star": StarTopology,
    "isolated": IsolatedTopology,
}


def topology_from_name(name: str, n_islands: int, **kwargs) -> Topology:
    """Build a topology from a short name (``all-to-all``, ``ring``, ...)."""
    key = name.lower()
    if key == "random":
        return RandomTopology(n_islands, **kwargs)
    if key not in _NAMED_TOPOLOGIES:
        raise ConfigurationError(
            "unknown topology %r; expected one of %s or 'random'"
            % (name, sorted(_NAMED_TOPOLOGIES))
        )
    return _NAMED_TOPOLOGIES[key](n_islands)
