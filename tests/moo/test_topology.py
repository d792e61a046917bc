"""Tests for archipelago migration topologies."""

import json
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError
from repro.moo.topology import (
    AllToAllTopology,
    IsolatedTopology,
    RandomTopology,
    RingTopology,
    StarTopology,
    topology_from_name,
)

RECORDED_EDGES = Path(__file__).parent / "data" / "random_topology_edges.json"


class TestAllToAll:
    def test_every_pair_connected(self):
        topology = AllToAllTopology(4)
        assert topology.n_edges == 12
        for i in range(4):
            assert topology.destinations(i) == [j for j in range(4) if j != i]
        assert topology.is_connected()

    def test_two_islands_paper_configuration(self):
        topology = AllToAllTopology(2)
        assert topology.destinations(0) == [1]
        assert topology.destinations(1) == [0]


class TestRing:
    def test_successor_structure(self):
        topology = RingTopology(5)
        assert topology.destinations(0) == [1]
        assert topology.destinations(4) == [0]
        assert topology.sources(0) == [4]
        assert topology.n_edges == 5
        assert topology.is_connected()

    def test_single_island_has_no_edges(self):
        assert RingTopology(1).n_edges == 0


class TestStar:
    def test_hub_connected_to_all(self):
        topology = StarTopology(4)
        assert topology.destinations(0) == [1, 2, 3]
        assert topology.sources(0) == [1, 2, 3]
        assert topology.destinations(2) == [0]
        assert topology.is_connected()


class TestIsolated:
    def test_no_edges(self):
        topology = IsolatedTopology(3)
        assert topology.n_edges == 0
        assert not topology.is_connected()


class TestRandom:
    def test_connected_and_reproducible(self):
        a = RandomTopology(5, edge_probability=0.4, seed=3)
        b = RandomTopology(5, edge_probability=0.4, seed=3)
        assert a.is_connected()
        assert a.edges == b.edges

    def test_edges_match_the_recorded_networkx_topologies(self):
        """Edges recorded from the networkx-backed implementation."""
        recorded = json.loads(RECORDED_EDGES.read_text(encoding="utf-8"))
        for key, edges in recorded["edges"].items():
            n_islands, seed = map(int, key.split("/"))
            topology = RandomTopology(
                n_islands, edge_probability=recorded["edge_probability"], seed=seed
            )
            assert topology.edges == tuple(map(tuple, edges)), key
            assert topology.is_connected()

    def test_invalid_probability(self):
        with pytest.raises(ConfigurationError):
            RandomTopology(3, edge_probability=0.0)


class TestCommon:
    def test_island_index_out_of_range(self):
        topology = RingTopology(3)
        with pytest.raises(ConfigurationError):
            topology.destinations(5)
        with pytest.raises(ConfigurationError):
            topology.sources(-1)

    def test_zero_islands_rejected(self):
        with pytest.raises(ConfigurationError):
            AllToAllTopology(0)

    def test_factory_by_name(self):
        assert isinstance(topology_from_name("all-to-all", 2), AllToAllTopology)
        assert isinstance(topology_from_name("broadcast", 2), AllToAllTopology)
        assert isinstance(topology_from_name("ring", 3), RingTopology)
        assert isinstance(topology_from_name("star", 3), StarTopology)
        assert isinstance(topology_from_name("isolated", 3), IsolatedTopology)
        assert isinstance(topology_from_name("random", 3, seed=1), RandomTopology)

    def test_factory_unknown_name(self):
        with pytest.raises(ConfigurationError):
            topology_from_name("mesh", 3)
