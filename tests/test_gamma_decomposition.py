"""Unit tests for the fixed-k gamma decomposition (paper §7 extension)."""

import heapq
import itertools
import math

import pytest

from repro import (
    ParameterError,
    ProbabilisticGraph,
    gamma_truss_decomposition,
    local_truss_decomposition,
)
from repro.core.support_prob import SupportProbability, support_pmf
from repro.datasets.registry import load_dataset
from repro.graphs.generators import complete_graph, running_example
from repro.graphs.probabilistic import edge_key
from tests.conftest import random_probabilistic_graph
from tests.strategies import dyadic_random_graph
from tests.test_pcore import LABELS, _relabelled


class TestBasics:
    def test_invalid_k(self, triangle):
        with pytest.raises(ParameterError):
            gamma_truss_decomposition(triangle, 1)

    def test_empty_graph(self, empty_graph):
        result = gamma_truss_decomposition(empty_graph, 3)
        assert result.gamma_trussness == {}
        assert result.thresholds() == []

    def test_input_not_modified(self, paper_graph):
        before = paper_graph.copy()
        gamma_truss_decomposition(paper_graph, 3)
        assert paper_graph == before

    def test_every_edge_assigned(self, paper_graph):
        result = gamma_truss_decomposition(paper_graph, 4)
        assert set(result.gamma_trussness) == set(paper_graph.edges())

    def test_gamma_of_accessor(self, paper_graph):
        result = gamma_truss_decomposition(paper_graph, 4)
        assert result.gamma_of("v1", "q1") == result.gamma_trussness[
            ("q1", "v1")
        ]

    def test_invalid_gamma_query(self, paper_graph):
        result = gamma_truss_decomposition(paper_graph, 3)
        with pytest.raises(ParameterError):
            result.maximal_trusses_at(0.0)


class TestKnownValues:
    def test_k2_is_max_min_probability(self):
        # At k = 2 the value of an edge is just p(e); the gamma-trussness
        # of each edge in a path is the running max-min — here simply its
        # own probability (removing the weakest never helps the others).
        g = ProbabilisticGraph([(0, 1, 0.3), (1, 2, 0.8), (2, 3, 0.5)])
        result = gamma_truss_decomposition(g, 2)
        assert math.isclose(result.gamma_of(0, 1), 0.3)
        assert math.isclose(result.gamma_of(1, 2), 0.8)
        assert math.isclose(result.gamma_of(2, 3), 0.5)

    def test_paper_h1_boundary(self):
        # H1's binding constraint at k = 4 is sigma(2) p = 0.125: the
        # gamma-trussness of every H1 edge at k = 4 is >= 0.125, and the
        # decomposition at gamma = 0.125 recovers exactly H1.
        g = running_example()
        result = gamma_truss_decomposition(g, 4)
        trusses = result.maximal_trusses_at(0.125)
        assert len(trusses) == 1
        assert set(trusses[0].nodes()) == {"q1", "q2", "v1", "v2", "v3"}

    def test_uniform_clique(self):
        # In K4 with p = 0.9 everywhere, all edges share one gamma value.
        g = complete_graph(4, 0.9)
        result = gamma_truss_decomposition(g, 4)
        values = set(round(v, 12) for v in result.gamma_trussness.values())
        assert len(values) == 1
        # sigma(2) = (0.81)^2 per edge... with two triangles each of
        # q = 0.81: Pr[sup >= 2] = 0.81^2; times p = 0.9.
        assert math.isclose(
            next(iter(result.gamma_trussness.values())),
            (0.81 ** 2) * 0.9,
        )

    def test_structurally_impossible_edges_get_zero(self):
        g = ProbabilisticGraph([(0, 1, 0.9)])  # no triangles at all
        result = gamma_truss_decomposition(g, 3)
        assert result.gamma_of(0, 1) == 0.0
        assert result.maximal_trusses_at(0.5) == []


class TestConsistencyWithLocalDecomposition:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_local_decomposition_at_every_threshold(self, seed, k):
        """The defining property: for any gamma,
        {e : gamma_k(e) >= gamma} == {e : tau_gamma(e) >= k}."""
        g = random_probabilistic_graph(14, 0.4, seed)
        result = gamma_truss_decomposition(g, k)
        for gamma in (0.05, 0.2, 0.5, 0.8):
            via_gamma = {
                e for e, v in result.gamma_trussness.items()
                if v >= gamma * (1 - 1e-9)
            }
            local = local_truss_decomposition(g, gamma)
            via_local = {
                e for e, tau in local.trussness.items() if tau >= k
            }
            assert via_gamma == via_local

    @pytest.mark.parametrize("seed", range(3))
    def test_thresholds_are_exact_transition_points(self, seed):
        g = random_probabilistic_graph(12, 0.45, seed)
        k = 3
        result = gamma_truss_decomposition(g, k)
        for gamma in result.thresholds():
            at = {frozenset(t.edges())
                  for t in result.maximal_trusses_at(gamma)}
            just_above = {
                frozenset(t.edges())
                for t in result.maximal_trusses_at(min(1.0, gamma * (1 + 1e-6)))
            }
            # Crossing the threshold strictly shrinks the edge set.
            assert {e for s in just_above for e in s} < {
                e for s in at for e in s
            } or (not just_above and at)

    def test_hierarchy_keys_descending(self, paper_graph):
        result = gamma_truss_decomposition(paper_graph, 3)
        keys = list(result.hierarchy())
        assert keys == sorted(keys, reverse=True)


def gamma_peel_reference(graph, k):
    """The dedicated max-min peel that preceded the engine's value-keyed
    driver, kept verbatim as a differential reference: a working copy
    of the graph, one :meth:`SupportProbability.from_edge` per edge, a
    counter-tied lazy heap and Eq. 8 removals over ``common_neighbors``
    (set order, so its float path follows ``PYTHONHASHSEED``)."""
    work = graph.copy()
    pmfs = {}
    values = {}
    for u, v, p in work.edges_with_probabilities():
        e = (u, v)
        sp = SupportProbability.from_edge(work, u, v)
        pmfs[e] = sp
        values[e] = sp.tail(k - 2) * p

    # Lazy-deletion heap; counter breaks value ties without comparing
    # edge keys (nodes may be of mixed types).
    counter = itertools.count()
    heap = [(value, next(counter), e) for e, value in values.items()]
    heapq.heapify(heap)
    alive = set(values)
    gamma_trussness = {}
    running = 0.0
    while alive:
        value, _, e = heapq.heappop(heap)
        if e not in alive or value > values[e] + 1e-18:
            continue  # stale entry
        alive.discard(e)
        running = max(running, values[e])
        gamma_trussness[e] = running
        u, v = e
        apexes = list(work.common_neighbors(u, v))
        for w in apexes:
            e_uw = edge_key(u, w)
            if e_uw in alive:
                q = work.probability(v, u) * work.probability(v, w)
                pmfs[e_uw].remove_triangle(q)
            e_vw = edge_key(v, w)
            if e_vw in alive:
                q = work.probability(u, v) * work.probability(u, w)
                pmfs[e_vw].remove_triangle(q)
        work.remove_edge(u, v)
        for w in apexes:
            for a, b in ((u, w), (v, w)):
                other = edge_key(a, b)
                if other in alive:
                    new_value = (
                        pmfs[other].tail(k - 2) * work.probability(a, b)
                    )
                    if new_value < values[other]:
                        values[other] = new_value
                        heapq.heappush(
                            heap, (new_value, next(counter), other)
                        )
    return gamma_trussness


def gamma_rebuild_reference(graph, k):
    """A max-min peel with no Eq. 8 at all: every value is rebuilt with
    Algorithm 2's DP from the live triangles' factors. It pins the
    mathematical gamma-trussness, not one deconvolution's float path."""
    live = {edge_key(u, v) for u, v in graph.edges()}

    def value(e):
        u, v = e
        qs = [graph.probability(w, u) * graph.probability(w, v)
              for w in sorted(graph.common_neighbors(u, v), key=repr)
              if edge_key(u, w) in live and edge_key(v, w) in live]
        return min(1.0, sum(support_pmf(qs)[k - 2:])) * graph.probability(u, v)

    values = {e: value(e) for e in live}
    gammas = {}
    running = 0.0
    while live:
        e = min(live, key=lambda f: (values[f], repr(f)))
        live.discard(e)
        running = max(running, values[e])
        gammas[e] = running
        u, v = e
        for w in graph.common_neighbors(u, v):
            for other in (edge_key(u, w), edge_key(v, w)):
                if other in live:
                    values[other] = value(other)
    return gammas


def _differential_graphs():
    yield "fruitfly", load_dataset("fruitfly", seed=1, scale=0.3)
    for seed in range(3):
        yield f"gnp-{seed}", random_probabilistic_graph(30, 0.3, seed)
        # Dyadic probabilities make exact value ties.
        yield f"dyadic-{seed}", dyadic_random_graph(14, 0.5, seed)


class TestAgainstReferencePeels:
    """The engine's value-keyed driver gives the values of the peel it
    replaced and of a rebuild-from-factors peel, within absolute 1e-12.
    Relative error is no measure here: gamma values go down to ~1e-14,
    where the float paths differ by a few 1e-15."""

    @pytest.mark.parametrize("label", sorted(LABELS))
    def test_values_match_within_absolute_1e_12(self, label):
        for name, source in _differential_graphs():
            g = _relabelled(source, LABELS[label])
            for k in range(2, 6):
                got = gamma_truss_decomposition(g, k).gamma_trussness
                for reference in (gamma_peel_reference,
                                  gamma_rebuild_reference):
                    want = reference(g, k)
                    assert got.keys() == want.keys()
                    worst = max((abs(got[e] - want[e]) for e in got),
                                default=0.0)
                    assert worst <= 1e-12, (name, k, reference.__name__)
