"""Unit tests for network reliability and the Theorem 1 reduction."""

import math

import numpy as np
import pytest

from repro import NodeNotFoundError, ParameterError, ProbabilisticGraph, alpha_exact
from repro.core import reliability
from repro.core.reliability import (
    count_connected_rows,
    network_reliability_exact,
    network_reliability_mc,
    theorem1_gadget,
    two_terminal_reliability_exact,
    two_terminal_reliability_mc,
)
from repro.graphs.generators import complete_graph
from repro.graphs.sampling import WorldSampleSet
from tests.conftest import random_probabilistic_graph


class TestExactReliability:
    def test_single_edge(self):
        g = ProbabilisticGraph([("a", "b", 0.7)])
        assert math.isclose(network_reliability_exact(g), 0.7)

    def test_series(self):
        # Path a-b-c: connected iff both edges exist.
        g = ProbabilisticGraph([("a", "b", 0.7), ("b", "c", 0.6)])
        assert math.isclose(network_reliability_exact(g), 0.42)

    def test_triangle_closed_form(self):
        # Triangle with p everywhere: R = p^3 + 3 p^2 (1 - p).
        p = 0.5
        g = complete_graph(3, p)
        expected = p ** 3 + 3 * p ** 2 * (1 - p)
        assert math.isclose(network_reliability_exact(g), expected)

    def test_degenerate_cases(self, empty_graph):
        assert network_reliability_exact(empty_graph) == 0.0
        single = ProbabilisticGraph()
        single.add_node("x")
        assert network_reliability_exact(single) == 1.0
        disconnected = ProbabilisticGraph([(0, 1, 1.0), (2, 3, 1.0)])
        assert network_reliability_exact(disconnected) == 0.0

    def test_certain_connected_graph(self):
        g = complete_graph(5, 1.0)
        assert network_reliability_exact(g) == 1.0

    def test_size_limit(self):
        g = complete_graph(8, 0.5)  # 28 edges
        with pytest.raises(ParameterError):
            network_reliability_exact(g)


class TestMonteCarloReliability:
    def test_converges_to_exact(self):
        g = complete_graph(4, 0.6)
        exact = network_reliability_exact(g)
        estimate = network_reliability_mc(g, n_samples=6000, seed=3)
        assert abs(estimate - exact) < 0.02

    def test_certain_graph(self):
        g = complete_graph(4, 1.0)
        assert network_reliability_mc(g, n_samples=50, seed=1) == 1.0

    def test_degenerate(self, empty_graph):
        assert network_reliability_mc(empty_graph, n_samples=10, seed=1) == 0.0


class TestTwoTerminal:
    def test_direct_edge_plus_detour(self):
        # s-t edge (0.5) or detour via m (0.6 * 0.6).
        g = ProbabilisticGraph(
            [("s", "t", 0.5), ("s", "m", 0.6), ("m", "t", 0.6)]
        )
        expected = 1 - (1 - 0.5) * (1 - 0.36)
        assert math.isclose(
            two_terminal_reliability_exact(g, "s", "t"), expected
        )

    def test_same_node(self, triangle):
        assert two_terminal_reliability_exact(triangle, "a", "a") == 1.0

    def test_unknown_node(self, triangle):
        with pytest.raises(NodeNotFoundError):
            two_terminal_reliability_exact(triangle, "a", "zzz")

    def test_st_at_least_global(self):
        # s-t reliability upper-bounds all-terminal reliability.
        for seed in range(3):
            g = random_probabilistic_graph(6, 0.6, seed)
            from repro.graphs.components import is_connected

            if not is_connected(g):
                continue
            nodes = sorted(g.nodes())
            st = two_terminal_reliability_exact(g, nodes[0], nodes[1])
            overall = network_reliability_exact(g)
            assert st >= overall - 1e-12

    def test_mc_converges(self):
        g = ProbabilisticGraph(
            [("s", "t", 0.5), ("s", "m", 0.6), ("m", "t", 0.6)]
        )
        exact = two_terminal_reliability_exact(g, "s", "t")
        estimate = two_terminal_reliability_mc(g, "s", "t",
                                               n_samples=6000, seed=5)
        assert abs(estimate - exact) < 0.02


class TestTheorem1Reduction:
    @pytest.mark.parametrize("seed", range(4))
    def test_alpha2_equals_reliability(self, seed):
        """Theorem 1: conn(G) == alpha_2(H, pendant edge)."""
        g = random_probabilistic_graph(5, 0.7, seed)
        from repro.graphs.components import is_connected

        if g.number_of_edges() == 0 or not is_connected(g):
            pytest.skip("needs a connected base graph")
        anchor = next(g.nodes())
        gadget, pendant_edge = theorem1_gadget(g, anchor)
        alpha = alpha_exact(gadget, 2)
        reliability = network_reliability_exact(g)
        assert math.isclose(alpha[pendant_edge], reliability, rel_tol=1e-9)

    def test_gadget_validation(self, triangle):
        with pytest.raises(NodeNotFoundError):
            theorem1_gadget(triangle, "zzz")
        with pytest.raises(ParameterError):
            theorem1_gadget(triangle, "a", pendant="b")


def _world_connects(nodes, present):
    """Reference: a per-world DFS over all ``nodes`` (the walk the
    Monte-Carlo estimates ran before they used the packed kernel)."""
    adj = {u: set() for u in nodes}
    for u, v in present:
        adj[u].add(v)
        adj[v].add(u)
    if not nodes:
        return False
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(nodes)


def _st_connects(nodes, present, s, t):
    """Reference: the per-world s-t DFS of the two-terminal estimate."""
    adj = {u: set() for u in nodes}
    for u, v in present:
        adj[u].add(v)
        adj[v].add(u)
    seen = {s}
    stack = [s]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y == t:
                return True
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return False


def _differential_graphs():
    """Named graphs: an isolated node beside a likely-connected part,
    a single node, nodes without edges, mixed int/str nodes, and a
    plain random graph."""
    isolated = complete_graph(5, 0.8)
    isolated.add_node("lonely")
    single = ProbabilisticGraph()
    single.add_node(7)
    edgeless = ProbabilisticGraph()
    for u in ("a", "b", "c"):
        edgeless.add_node(u)
    mixed = ProbabilisticGraph(
        [(0, "a", 0.9), ("a", 1, 0.7), (1, 0, 0.6), (1, "b", 0.85),
         ("b", 2, 0.95), (2, 0, 0.5)]
    )
    return {
        "isolated": isolated,
        "single": single,
        "edgeless": edgeless,
        "mixed": mixed,
        "random": random_probabilistic_graph(7, 0.6, 4),
    }


class TestKernelAgainstPerWorldReference:
    """The packed kernel's counts equal the per-world DFS references."""

    @pytest.fixture(params=[None, 64], ids=["one-window", "small-windows"])
    def windows(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(reliability, "_WINDOW_CELLS", request.param)

    @pytest.mark.parametrize("name", list(_differential_graphs()))
    def test_count_connected_rows(self, name):
        g = _differential_graphs()[name]
        nodes, edges = list(g.nodes()), list(g.edges())
        presence = np.random.default_rng(3).random((150, len(edges))) < 0.75
        want = sum(
            _world_connects(nodes, [edges[j] for j in np.flatnonzero(row)])
            for row in presence
        )
        assert count_connected_rows(nodes, edges, presence) == want

    @pytest.mark.parametrize("name", list(_differential_graphs()))
    def test_network_reliability_mc_spilled(self, name, windows, tmp_path):
        g = _differential_graphs()[name]
        samples = WorldSampleSet.from_graph(g, 301, seed=8)
        samples.spill_to(tmp_path / "worlds.bits")
        nodes = list(g.nodes())
        hits = sum(_world_connects(nodes, list(world))
                   for world in samples.iter_worlds())
        assert network_reliability_mc(g, samples=samples) == hits / 301

    @pytest.mark.parametrize("name", list(_differential_graphs()))
    def test_network_reliability_mc(self, name, windows):
        g = _differential_graphs()[name]
        samples = WorldSampleSet.from_graph(g, 257, seed=5)
        nodes = list(g.nodes())
        hits = sum(_world_connects(nodes, list(world))
                   for world in samples.iter_worlds())
        assert network_reliability_mc(g, n_samples=257, seed=5) == hits / 257

    @pytest.mark.parametrize("name", list(_differential_graphs()))
    def test_two_terminal_reliability_mc(self, name, windows):
        g = _differential_graphs()[name]
        nodes = list(g.nodes())
        samples = WorldSampleSet.from_graph(g, 203, seed=6)
        worlds = list(samples.iter_worlds())
        for s in nodes:
            for t in nodes:
                if s == t:
                    continue
                hits = sum(_st_connects(nodes, w, s, t) for w in worlds)
                got = two_terminal_reliability_mc(g, s, t, n_samples=203,
                                                  seed=6)
                assert got == hits / 203, (s, t)

    def test_cases_are_not_degenerate(self):
        """The isolated-node graph's other nodes do connect, so a
        classifier that forgot the isolated node would count them."""
        g = _differential_graphs()["isolated"]
        samples = WorldSampleSet.from_graph(g, 257, seed=5)
        core = [u for u in g.nodes() if u != "lonely"]
        assert any(_world_connects(core, list(w))
                   for w in samples.iter_worlds())
        assert 0.0 < network_reliability_mc(
            _differential_graphs()["random"], n_samples=257, seed=5) < 1.0
