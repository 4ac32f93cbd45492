"""Unit tests for :class:`repro.graphs.probabilistic.ProbabilisticGraph`."""

import math
from itertools import combinations

import pytest

from repro import (
    EdgeNotFoundError,
    GraphError,
    InvalidProbabilityError,
    NodeNotFoundError,
    ProbabilisticGraph,
    edge_key,
)
from tests.strategies import planted_clique_graph

RELABEL = {
    "int": lambda u: u,
    "str": lambda u: f"n{u}",
    "mixed": lambda u: u if u % 2 else f"s{u}",
}


def _planted(label):
    """A triangle-rich graph (three planted 5-cliques) relabelled."""
    source = planted_clique_graph(3, 5, seed=4)
    return ProbabilisticGraph(
        (label(u), label(v), p)
        for u, v, p in source.edges_with_probabilities())


class TestEdgeKey:
    def test_orders_comparable_nodes(self):
        assert edge_key(2, 1) == (1, 2)
        assert edge_key(1, 2) == (1, 2)
        assert edge_key("b", "a") == ("a", "b")

    def test_symmetric(self):
        assert edge_key("x", "y") == edge_key("y", "x")

    def test_mixed_types_deterministic(self):
        k1 = edge_key(1, "a")
        k2 = edge_key("a", 1)
        assert k1 == k2

    def test_tuple_nodes(self):
        assert edge_key((1, 2), (0, 5)) == ((0, 5), (1, 2))


class TestConstruction:
    def test_empty(self, empty_graph):
        assert empty_graph.number_of_nodes() == 0
        assert empty_graph.number_of_edges() == 0
        assert not empty_graph
        assert len(empty_graph) == 0

    def test_init_from_edges(self):
        g = ProbabilisticGraph([("a", "b", 0.5), ("b", "c", 1.0)])
        assert g.number_of_edges() == 2
        assert g.probability("a", "b") == 0.5

    def test_add_edge_creates_nodes(self):
        g = ProbabilisticGraph()
        g.add_edge(1, 2, 0.3)
        assert g.has_node(1) and g.has_node(2)
        assert g.has_edge(2, 1)

    def test_add_node_idempotent(self):
        g = ProbabilisticGraph()
        g.add_node("x")
        g.add_edge("x", "y", 0.5)
        g.add_node("x")
        assert g.probability("x", "y") == 0.5

    def test_readd_edge_overwrites_probability(self):
        g = ProbabilisticGraph()
        g.add_edge(1, 2, 0.3)
        g.add_edge(2, 1, 0.8)
        assert g.probability(1, 2) == 0.8
        assert g.number_of_edges() == 1

    def test_self_loop_rejected(self):
        g = ProbabilisticGraph()
        with pytest.raises(GraphError):
            g.add_edge("a", "a", 0.5)

    @pytest.mark.parametrize("p", [-0.1, 1.1, float("nan"), 2.0])
    def test_invalid_probability_rejected(self, p):
        g = ProbabilisticGraph()
        with pytest.raises(InvalidProbabilityError):
            g.add_edge("a", "b", p)

    @pytest.mark.parametrize("p", [0.0, 1.0, 0.5])
    def test_boundary_probabilities_allowed(self, p):
        g = ProbabilisticGraph()
        g.add_edge("a", "b", p)
        assert g.probability("a", "b") == p

    def test_add_edges_bulk(self):
        g = ProbabilisticGraph()
        g.add_edges([(i, i + 1, 0.5) for i in range(5)])
        assert g.number_of_edges() == 5


class TestRemoval:
    def test_remove_edge(self, triangle):
        triangle.remove_edge("a", "b")
        assert not triangle.has_edge("b", "a")
        assert triangle.number_of_edges() == 2
        assert triangle.has_node("a")

    def test_remove_missing_edge_raises(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.remove_edge("a", "zzz")

    def test_remove_node_drops_incident_edges(self, triangle):
        triangle.remove_node("a")
        assert triangle.number_of_edges() == 1
        assert not triangle.has_node("a")

    def test_remove_missing_node_raises(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.remove_node("zzz")

    def test_remove_isolated_nodes(self):
        g = ProbabilisticGraph()
        g.add_node("lonely")
        g.add_edge("a", "b", 0.5)
        removed = g.remove_isolated_nodes()
        assert removed == ["lonely"]
        assert g.number_of_nodes() == 2

    def test_set_probability(self, triangle):
        triangle.set_probability("a", "b", 0.42)
        assert triangle.probability("b", "a") == 0.42

    def test_set_probability_missing_edge(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.set_probability("a", "zzz", 0.5)


class TestQueries:
    def test_probability_missing_edge(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.probability("a", "nope")

    def test_neighbors(self, triangle):
        assert sorted(triangle.neighbors("a")) == ["b", "c"]

    def test_neighbors_missing_node(self, triangle):
        with pytest.raises(NodeNotFoundError):
            list(triangle.neighbors("nope"))

    def test_degree_and_expected_degree(self, triangle):
        assert triangle.degree("a") == 2
        assert math.isclose(triangle.expected_degree("a"), 0.9 + 0.7)

    def test_max_degree(self, triangle, empty_graph):
        assert triangle.max_degree() == 2
        assert empty_graph.max_degree() == 0

    def test_common_neighbors(self, two_triangles_sharing_edge):
        g = two_triangles_sharing_edge
        assert g.common_neighbors("a", "b") == {"c", "d"}
        assert g.common_neighbors("c", "d") == {"a", "b"}

    def test_support(self, two_triangles_sharing_edge):
        g = two_triangles_sharing_edge
        assert g.support("a", "b") == 2
        assert g.support("a", "c") == 1

    def test_support_missing_edge(self, two_triangles_sharing_edge):
        with pytest.raises(EdgeNotFoundError):
            two_triangles_sharing_edge.support("c", "d")

    def test_contains(self, triangle):
        assert "a" in triangle
        assert "zzz" not in triangle
        assert [1, 2] not in triangle  # unhashable -> False, no raise


class TestIteration:
    def test_edges_canonical_and_unique(self, k4):
        edges = list(k4.edges())
        assert len(edges) == 6
        assert len(set(edges)) == 6
        assert all(e == edge_key(*e) for e in edges)

    def test_edges_with_probabilities(self, triangle):
        triples = sorted(triangle.edges_with_probabilities())
        assert triples == [("a", "b", 0.9), ("a", "c", 0.7), ("b", "c", 0.8)]

    def test_triangles_unique(self, k4):
        tris = list(k4.triangles())
        assert len(tris) == 4
        as_sets = {frozenset(t) for t in tris}
        assert len(as_sets) == 4

    @pytest.mark.parametrize("labels", sorted(RELABEL))
    def test_triangles_match_brute_force(self, labels):
        # Every triangle exactly once, from its canonical edge, also
        # when int and str nodes mix and tuples of them do not compare.
        g = _planted(RELABEL[labels])
        tris = list(g.triangles())
        brute = {
            frozenset(c) for c in combinations(list(g.nodes()), 3)
            if all(g.has_edge(a, b) for a, b in combinations(c, 2))
        }
        assert len(brute) > 20
        assert len(tris) == len(brute)
        assert {frozenset(t) for t in tris} == brute
        assert all(edge_key(u, v) == (u, v) for u, v, _ in tris)

    def test_mixed_node_triangle_consumers(self):
        # The (3, 4) peels and the graph profile enumerate triangles;
        # on a mixed int/str relabelling they give the int graph's
        # answers, cell for cell.
        from repro import nucleus_decomposition
        from repro.core.stats import profile_graph
        from repro.truss.nucleus import (
            clique_key,
            structural_nucleus_decomposition,
        )

        label = RELABEL["mixed"]
        ints, mixed = _planted(RELABEL["int"]), _planted(label)

        def relabelled(scores):
            return {clique_key([label(u) for u in cell]): nu
                    for cell, nu in scores.items()}

        assert structural_nucleus_decomposition(mixed, 3, 4) == relabelled(
            structural_nucleus_decomposition(ints, 3, 4))
        assert nucleus_decomposition(mixed, 3, 4, 0.3).scores == relabelled(
            nucleus_decomposition(ints, 3, 4, 0.3).scores)
        assert profile_graph(mixed) == profile_graph(ints)

    def test_triangles_of_edge(self, two_triangles_sharing_edge):
        apexes = set(two_triangles_sharing_edge.triangles_of_edge("a", "b"))
        assert apexes == {"c", "d"}

    def test_node_iteration(self, triangle):
        assert set(iter(triangle)) == {"a", "b", "c"}
        assert set(triangle.nodes()) == {"a", "b", "c"}


class TestDerivedGraphs:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.remove_edge("a", "b")
        assert triangle.has_edge("a", "b")
        assert not clone.has_edge("a", "b")

    def test_equality(self, triangle):
        assert triangle == triangle.copy()
        other = triangle.copy()
        other.set_probability("a", "b", 0.1)
        assert triangle != other
        assert triangle != "not a graph"

    def test_subgraph_induced(self, k4):
        sub = k4.subgraph(["a", "b", "c"])
        assert sub.number_of_nodes() == 3
        assert sub.number_of_edges() == 3
        assert sub.probability("a", "b") == 0.9

    def test_subgraph_ignores_unknown_nodes(self, triangle):
        sub = triangle.subgraph(["a", "b", "martian"])
        assert sub.number_of_nodes() == 2

    def test_edge_subgraph(self, k4):
        sub = k4.edge_subgraph([("a", "b"), ("c", "d")])
        assert sub.number_of_edges() == 2
        assert sub.number_of_nodes() == 4

    def test_edge_subgraph_missing_edge_raises(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.edge_subgraph([("a", "zzz")])

    def test_project_world_keeps_all_nodes(self, triangle):
        world = triangle.project_world([("a", "b")])
        assert world.number_of_nodes() == 3
        assert world.number_of_edges() == 1
        assert world.probability("a", "b") == 1.0


class TestWorldProbability:
    def test_full_world(self, triangle):
        p = triangle.world_probability([("a", "b"), ("b", "c"), ("a", "c")])
        assert math.isclose(p, 0.9 * 0.8 * 0.7)

    def test_empty_world(self, triangle):
        p = triangle.world_probability([])
        assert math.isclose(p, 0.1 * 0.2 * 0.3)

    def test_partial_world(self, triangle):
        p = triangle.world_probability([("b", "a")])
        assert math.isclose(p, 0.9 * 0.2 * 0.3)

    def test_world_probabilities_sum_to_one(self, triangle):
        from itertools import combinations

        edges = list(triangle.edges())
        total = 0.0
        for r in range(len(edges) + 1):
            for subset in combinations(edges, r):
                total += triangle.world_probability(subset)
        assert math.isclose(total, 1.0)

    def test_unknown_edge_rejected(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.world_probability([("a", "zzz")])


class TestNetworkxInterop:
    def test_round_trip(self, paper_graph):
        nx_graph = paper_graph.to_networkx()
        back = ProbabilisticGraph.from_networkx(nx_graph)
        assert back == paper_graph

    def test_from_networkx_default_probability(self):
        import networkx as nx

        g = nx.path_graph(3)
        pg = ProbabilisticGraph.from_networkx(g, default_probability=0.25)
        assert pg.probability(0, 1) == 0.25

    def test_from_networkx_drops_self_loops(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge(1, 1)
        g.add_edge(1, 2)
        pg = ProbabilisticGraph.from_networkx(g)
        assert pg.number_of_edges() == 1
