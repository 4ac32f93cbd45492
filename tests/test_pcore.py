"""Unit tests for the probabilistic (k, eta)-core comparator."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    EtaDegree,
    ParameterError,
    ProbabilisticGraph,
    core_decomposition,
    eta_core_decomposition,
    eta_core_subgraph,
    max_eta_core_number,
)
from repro.core.nucleus import nucleus_decomposition
from repro.graphs.generators import complete_graph
from tests.strategies import (
    DYADIC_PROBS,
    dyadic_random_graph,
    random_probabilistic_graph,
)


class TestEtaDegree:
    def test_certain_edges(self):
        d = EtaDegree([1.0, 1.0, 1.0])
        assert d.eta_degree(0.5) == 3
        assert d.eta_degree(1.0) == 3

    def test_tail(self):
        d = EtaDegree([0.5, 0.5])
        assert math.isclose(d.tail(1), 0.75)
        assert math.isclose(d.tail(2), 0.25)

    def test_eta_degree_threshold(self):
        d = EtaDegree([0.5, 0.5])
        assert d.eta_degree(0.7) == 1    # Pr[deg >= 1] = 0.75
        assert d.eta_degree(0.76) == 0
        assert d.eta_degree(0.2) == 2    # Pr[deg >= 2] = 0.25

    def test_no_edges(self):
        assert EtaDegree([]).eta_degree(0.5) == 0

    def test_invalid_eta(self):
        with pytest.raises(ParameterError):
            EtaDegree([0.5]).eta_degree(0.0)

    def test_remove_incident_edge(self):
        d = EtaDegree([0.5, 0.8])
        d.remove_incident_edge(0.8)
        assert d.max_degree == 1
        assert math.isclose(d.tail(1), 0.5)

    def test_from_node(self, triangle):
        d = EtaDegree.from_node(triangle, "a")
        assert d.max_degree == 2
        assert math.isclose(d.tail(2), 0.9 * 0.7)


class TestEtaCoreDecomposition:
    def test_certain_graph_matches_deterministic(self):
        # With all p = 1 and any eta, the eta-core equals the k-core.
        for seed in range(4):
            g = random_probabilistic_graph(20, 0.3, seed)
            for u, v in list(g.edges()):
                g.set_probability(u, v, 1.0)
            assert eta_core_decomposition(g, 0.5) == core_decomposition(g)

    def test_monotone_in_eta(self):
        g = random_probabilistic_graph(20, 0.4, 7)
        loose = eta_core_decomposition(g, 0.1)
        strict = eta_core_decomposition(g, 0.9)
        for u in g.nodes():
            assert strict[u] <= loose[u]

    def test_complete_graph(self):
        g = complete_graph(5, 0.9)
        core = eta_core_decomposition(g, 0.5)
        # Every node has Binomial(4, 0.9) degree; Pr[deg >= 4] = 0.9^4 ~ 0.656.
        assert all(c == 4 for c in core.values())
        strict = eta_core_decomposition(g, 0.7)
        assert all(c == 3 for c in strict.values())

    def test_empty(self, empty_graph):
        assert eta_core_decomposition(empty_graph, 0.5) == {}

    def test_invalid_eta(self, triangle):
        with pytest.raises(ParameterError):
            eta_core_decomposition(triangle, 0.0)

    def test_definition_on_output(self):
        # Every node of the (k, eta)-core has Pr[deg >= k] >= eta within it.
        g = random_probabilistic_graph(18, 0.4, 3)
        eta = 0.4
        core = eta_core_decomposition(g, eta)
        k = max(core.values())
        sub = eta_core_subgraph(g, k, eta)
        for u in sub.nodes():
            d = EtaDegree.from_node(sub, u)
            assert d.tail(k) >= eta - 1e-9

    def test_peeling_matches_naive(self):
        # Cross-check against a naive iterative-deletion implementation.
        def naive(graph, eta):
            work = graph.copy()
            core = {}
            k = 0
            while work.number_of_nodes():
                changed = True
                while changed:
                    changed = False
                    for u in list(work.nodes()):
                        d = EtaDegree.from_node(work, u)
                        if d.eta_degree(eta) <= k:
                            core[u] = k
                            work.remove_node(u)
                            changed = True
                k += 1
            return core

        for seed in range(4):
            g = random_probabilistic_graph(14, 0.4, seed)
            eta = 0.3
            assert eta_core_decomposition(g, eta) == naive(g, eta)


class TestEtaCoreSubgraph:
    def test_extracts_dense_part(self):
        g = complete_graph(5, 0.95)
        g.add_edge(0, 100, 0.95)
        sub = eta_core_subgraph(g, 4, 0.5)
        assert set(sub.nodes()) == {0, 1, 2, 3, 4}

    def test_invalid_k(self, triangle):
        with pytest.raises(ParameterError):
            eta_core_subgraph(triangle, -1, 0.5)

    def test_max_eta_core_number(self, empty_graph):
        assert max_eta_core_number(empty_graph, 0.5) == 0
        g = complete_graph(4, 1.0)
        assert max_eta_core_number(g, 0.5) == 3


def bucket_peel_reference(graph, eta):
    """The dedicated (k, eta)-core bucket peel that preceded the
    ``(1, 2)``-nucleus adapter, kept verbatim as a differential
    reference: dict buckets, :meth:`EtaDegree.eta_degree` levels
    (an exact ``>= eta`` test) and a working copy of the graph."""
    degrees = {u: EtaDegree.from_node(graph, u) for u in graph.nodes()}
    levels = {u: d.eta_degree(eta) for u, d in degrees.items()}
    if not levels:
        return {}

    top = max(levels.values())
    buckets = [{} for _ in range(top + 1)]
    for u, lvl in levels.items():
        buckets[lvl][u] = None

    alive = dict(levels)
    core = {}
    cursor = 0
    k = 0
    remaining = graph.copy()
    for _ in range(len(levels)):
        while not buckets[cursor]:
            cursor += 1
        u, _ = buckets[cursor].popitem()
        del alive[u]
        k = max(k, cursor)
        core[u] = k
        for v in list(remaining.neighbors(u)):
            if v not in alive:
                continue
            degrees[v].remove_incident_edge(remaining.probability(u, v))
            new_level = degrees[v].eta_degree(eta)
            old_level = alive[v]
            if new_level < old_level:
                del buckets[old_level][v]
                alive[v] = new_level
                buckets[new_level][v] = None
                if new_level < cursor:
                    cursor = new_level
        remaining.remove_node(u)
    return core


#: Eighths (tie-prone against dyadic probabilities) plus 0.1 and 0.9.
ETAS = (0.1, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 0.9, 1.0)

LABELS = {
    "int": lambda u: u,
    "str": lambda u: f"n{u}",
    "mixed": lambda u: u if u % 2 else f"s{u}",
}


def _relabelled(graph, label):
    out = ProbabilisticGraph()
    for u in graph.nodes():
        out.add_node(label(u))
    for u, v, p in graph.edges_with_probabilities():
        out.add_edge(label(u), label(v), p)
    return out


@st.composite
def labelled_graphs(draw):
    """Small seeded graphs with int, str or mixed int/str nodes, with
    continuous or dyadic probabilities (the latter make exact ties)."""
    n = draw(st.integers(min_value=1, max_value=16))
    density = draw(st.sampled_from((0.2, 0.4, 0.7)))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    if draw(st.booleans()):
        g = dyadic_random_graph(n, density, seed,
                                probs=DYADIC_PROBS + (1.0,))
    else:
        g = random_probabilistic_graph(n, density, seed)
    return _relabelled(g, LABELS[draw(st.sampled_from(sorted(LABELS)))])


class TestNucleusAdapter:
    """``eta_core_decomposition`` is the ``(1, 2)``-nucleus minus 2; its
    values equal the dedicated peel it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(labelled_graphs(), st.sampled_from(ETAS))
    def test_equals_bucket_peel_reference(self, g, eta):
        assert eta_core_decomposition(g, eta) == \
            bucket_peel_reference(g, eta)

    def test_equals_reference_on_eta_grid(self):
        for seed in range(6):
            for g in (random_probabilistic_graph(25, 0.25, seed),
                      dyadic_random_graph(12, 0.5, seed,
                                          probs=DYADIC_PROBS + (1.0,))):
                for label in LABELS.values():
                    h = _relabelled(g, label)
                    for eta in ETAS:
                        assert eta_core_decomposition(h, eta) == \
                            bucket_peel_reference(h, eta), (seed, eta)

    def test_is_the_12_nucleus_minus_two(self):
        g = random_probabilistic_graph(20, 0.3, 5)
        scores = nucleus_decomposition(g, 1, 2, 0.4).scores
        core = eta_core_decomposition(g, 0.4)
        assert list(core) == [cell[0] for cell in scores]
        assert list(core.values()) == [nu - 2 for nu in scores.values()]

    def test_level_slack_is_the_one_rule_difference(self):
        # The engine's level() accepts a tail within a relative 1e-9 of
        # eta; EtaDegree.eta_degree compares >= eta exactly. A tail of
        # exactly 0.5 against eta = 0.5 * (1 + 5e-10) lands in between.
        g = ProbabilisticGraph([(0, 1, 0.5)])
        eta = 0.5 * (1 + 5e-10)
        assert bucket_peel_reference(g, eta) == {0: 0, 1: 0}
        assert eta_core_decomposition(g, eta) == {0: 1, 1: 1}
