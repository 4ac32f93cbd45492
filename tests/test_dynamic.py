"""Unit tests for dynamic k-truss maintenance (deterministic + local)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    EdgeNotFoundError,
    ParameterError,
    ProbabilisticGraph,
    edge_key,
    k_truss_subgraph,
    local_truss_decomposition,
)
from repro.truss.dynamic import DynamicLocalTruss, DynamicTruss
from repro.graphs.generators import complete_graph
from tests.conftest import random_probabilistic_graph
from tests.strategies import DYADIC_PROBS, dyadic_random_graph


def _static_truss_edges(graph, k):
    sub = k_truss_subgraph(graph, k)
    return {edge_key(u, v) for u, v in sub.edges()}


def _static_local_edges(graph, k, gamma):
    result = local_truss_decomposition(graph, gamma)
    return {e for e, tau in result.trussness.items() if tau >= k}


class TestDynamicTruss:
    def test_initial_state_matches_static(self):
        for seed in range(4):
            g = random_probabilistic_graph(18, 0.3, seed)
            for k in (3, 4):
                dt = DynamicTruss(g, k)
                assert dt.truss_edges() == _static_truss_edges(g, k)

    def test_invalid_k(self, triangle):
        with pytest.raises(ParameterError):
            DynamicTruss(triangle, 1)

    def test_deletion_cascade(self):
        g = complete_graph(4)
        dt = DynamicTruss(g, 4)
        assert len(dt.truss_edges()) == 6
        dt.remove_edge(0, 1)
        # K4 minus an edge has no 4-truss.
        assert dt.truss_edges() == set()

    def test_deletion_outside_truss_is_noop(self):
        g = complete_graph(4)
        g.add_edge(0, 99, 1.0)
        dt = DynamicTruss(g, 4)
        before = dt.truss_edges()
        dt.remove_edge(0, 99)
        assert dt.truss_edges() == before

    def test_remove_missing_edge(self, triangle):
        dt = DynamicTruss(triangle, 3)
        with pytest.raises(EdgeNotFoundError):
            dt.remove_edge("a", "zzz")

    def test_insertion_completes_truss(self):
        g = complete_graph(4)
        g.remove_edge(0, 1)
        dt = DynamicTruss(g, 4)
        assert dt.truss_edges() == set()
        dt.insert_edge(0, 1)
        assert len(dt.truss_edges()) == 6

    def test_random_update_stream_matches_static(self):
        rng = np.random.default_rng(3)
        g = random_probabilistic_graph(14, 0.4, 7)
        k = 3
        dt = DynamicTruss(g, k)
        shadow = g.copy()
        for step in range(40):
            edges = list(shadow.edges())
            if edges and rng.random() < 0.55:
                u, v = edges[int(rng.integers(len(edges)))]
                dt.remove_edge(u, v)
                shadow.remove_edge(u, v)
            else:
                u = int(rng.integers(14))
                v = int(rng.integers(14))
                if u == v:
                    continue
                if shadow.has_node(u) and shadow.has_node(v) and \
                        shadow.has_edge(u, v):
                    continue
                dt.insert_edge(u, v, 1.0)
                shadow.add_edge(u, v, 1.0)
            assert dt.truss_edges() == _static_truss_edges(shadow, k), (
                f"divergence at step {step}"
            )

    def test_maximal_trusses_components(self):
        g = ProbabilisticGraph()
        for base in (0, 10):
            for i in range(4):
                for j in range(i):
                    g.add_edge(base + i, base + j, 1.0)
        dt = DynamicTruss(g, 4)
        assert len(dt.maximal_trusses()) == 2

    def test_in_truss_accessor(self):
        g = complete_graph(4)
        g.add_edge(0, 99, 1.0)
        dt = DynamicTruss(g, 3)
        assert dt.in_truss(0, 1)
        assert not dt.in_truss(0, 99)


class TestDynamicLocalTruss:
    def test_initial_state_matches_algorithm1(self):
        for seed in range(4):
            g = random_probabilistic_graph(14, 0.4, seed)
            for k, gamma in ((3, 0.3), (4, 0.15)):
                dlt = DynamicLocalTruss(g, k, gamma)
                assert dlt.truss_edges() == _static_local_edges(g, k, gamma)

    def test_invalid_parameters(self, triangle):
        with pytest.raises(ParameterError):
            DynamicLocalTruss(triangle, 1, 0.5)
        with pytest.raises(ParameterError):
            DynamicLocalTruss(triangle, 3, 1.5)

    def test_deletion_cascade_matches_static(self):
        rng = np.random.default_rng(11)
        g = random_probabilistic_graph(14, 0.45, 5)
        k, gamma = 3, 0.2
        dlt = DynamicLocalTruss(g, k, gamma)
        shadow = g.copy()
        edges = list(shadow.edges())
        rng.shuffle(edges)
        for u, v in edges[:10]:
            dlt.remove_edge(u, v)
            shadow.remove_edge(u, v)
            assert dlt.truss_edges() == _static_local_edges(shadow, k, gamma)

    def test_insertion_matches_static(self):
        g = complete_graph(4, 0.9)
        g.remove_edge(0, 1)
        k, gamma = 4, 0.3
        dlt = DynamicLocalTruss(g, k, gamma)
        assert dlt.truss_edges() == set()
        dlt.insert_edge(0, 1, 0.9)
        shadow = complete_graph(4, 0.9)
        assert dlt.truss_edges() == _static_local_edges(shadow, k, gamma)

    def test_reweighting_edge(self):
        g = complete_graph(4, 0.9)
        k, gamma = 4, 0.3
        dlt = DynamicLocalTruss(g, k, gamma)
        assert len(dlt.truss_edges()) == 6
        # Crushing one edge's probability evicts the whole K4 at k=4.
        dlt.insert_edge(0, 1, 0.01)
        shadow = complete_graph(4, 0.9)
        shadow.set_probability(0, 1, 0.01)
        assert dlt.truss_edges() == _static_local_edges(shadow, k, gamma)

    def test_random_update_stream_matches_static(self):
        rng = np.random.default_rng(9)
        g = random_probabilistic_graph(12, 0.45, 2)
        k, gamma = 3, 0.25
        dlt = DynamicLocalTruss(g, k, gamma)
        shadow = g.copy()
        for step in range(30):
            edges = list(shadow.edges())
            if edges and rng.random() < 0.55:
                u, v = edges[int(rng.integers(len(edges)))]
                dlt.remove_edge(u, v)
                shadow.remove_edge(u, v)
            else:
                u = int(rng.integers(12))
                v = int(rng.integers(12))
                if u == v or (
                    shadow.has_node(u) and shadow.has_node(v)
                    and shadow.has_edge(u, v)
                ):
                    continue
                p = float(rng.uniform(0.1, 1.0))
                dlt.insert_edge(u, v, p)
                shadow.add_edge(u, v, p)
            assert dlt.truss_edges() == _static_local_edges(shadow, k, gamma), (
                f"divergence at step {step}"
            )

    @staticmethod
    def _check_churn(graph, k, gamma, steps, seed):
        """Remove, re-weight and insert at random, comparing the
        maintained set with a from-scratch decomposition each step."""
        rng = np.random.default_rng(seed)
        dlt = DynamicLocalTruss(graph, k, gamma)
        shadow = graph.copy()
        nodes = list(shadow.nodes())
        assert dlt.truss_edges() == _static_local_edges(shadow, k, gamma)
        for step in range(steps):
            edges = list(shadow.edges())
            draw = rng.random()
            if draw < 0.45:
                u, v = edges[int(rng.integers(len(edges)))]
                dlt.remove_edge(u, v)
                shadow.remove_edge(u, v)
            else:
                if draw < 0.65:
                    u, v = edges[int(rng.integers(len(edges)))]
                else:
                    u = nodes[int(rng.integers(len(nodes)))]
                    v = nodes[int(rng.integers(len(nodes)))]
                    if u == v:
                        continue
                p = float(rng.uniform(0.1, 1.0))
                dlt.insert_edge(u, v, p)
                shadow.add_edge(u, v, p)
            assert dlt.truss_edges() == _static_local_edges(
                shadow, k, gamma), f"divergence at step {step}"

    def test_churn_on_disconnected_graph(self):
        from repro.datasets.registry import load_dataset
        from repro.graphs.components import connected_components

        graph = load_dataset("fruitfly", seed=1, scale=0.3)
        assert len(list(connected_components(graph))) > 1
        for k, gamma in ((3, 0.1), (4, 0.1)):
            self._check_churn(graph, k, gamma, steps=25, seed=k)

    @pytest.mark.parametrize("label", [lambda w: f"n{w}",
                                       lambda w: w if w % 2 else f"n{w}"],
                             ids=["str", "mixed"])
    def test_churn_on_string_and_mixed_nodes(self, label):
        g = random_probabilistic_graph(16, 0.4, 4)
        graph = ProbabilisticGraph(
            (label(u), label(v), p) for u, v, p in g.edges_with_probabilities()
        )
        self._check_churn(graph, 3, 0.2, steps=30, seed=5)

    def test_remove_and_reinsert_edge_outside_truss(self):
        g = complete_graph(4, 0.9)
        g.add_edge(0, 9, 0.8)
        g.add_edge(1, 9, 0.05)  # its triangle is too flimsy at gamma 0.3
        k, gamma = 3, 0.3
        dlt = DynamicLocalTruss(g, k, gamma)
        before = dlt.truss_edges()
        assert not dlt.in_truss(0, 9)
        dlt.remove_edge(0, 9)
        shadow = g.copy()
        shadow.remove_edge(0, 9)
        assert not dlt.in_truss(0, 9)
        assert dlt.truss_edges() == before == _static_local_edges(
            shadow, k, gamma)
        dlt.insert_edge(0, 9, 0.8)
        assert dlt.truss_edges() == before == _static_local_edges(g, k, gamma)

    def test_reweighting_evicted_edge_back_in(self):
        g = complete_graph(4, 0.9)
        k, gamma = 4, 0.3
        dlt = DynamicLocalTruss(g, k, gamma)
        dlt.insert_edge(0, 1, 0.01)
        shadow = g.copy()
        shadow.set_probability(0, 1, 0.01)
        assert dlt.truss_edges() == set() == _static_local_edges(
            shadow, k, gamma)
        dlt.insert_edge(0, 1, 0.9)
        assert dlt.in_truss(0, 1)
        assert dlt.truss_edges() == _static_local_edges(g, k, gamma)
        assert len(dlt.truss_edges()) == 6

    def test_remove_missing_edge(self, triangle):
        dlt = DynamicLocalTruss(triangle, 3, 0.2)
        with pytest.raises(EdgeNotFoundError):
            dlt.remove_edge("a", "zzz")

    def test_accessors(self, k4):
        dlt = DynamicLocalTruss(k4, 3, 0.2)
        assert dlt.k == 3
        assert dlt.gamma == 0.2
        assert dlt.in_truss("a", "b")
        assert len(dlt.maximal_trusses()) == 1


class TestTypedEdgeErrors:
    """Regression tests: duplicate / self-loop edges raise ParameterError.

    The graph layer and the dynamic layer used to disagree here: the
    graph classified a self-loop removal as a *missing edge* while the
    dynamic layer silently re-weighted duplicate inserts even for the
    deterministic truss, where there is no weight to refresh.
    """

    def test_graph_remove_self_loop(self, triangle):
        with pytest.raises(ParameterError):
            triangle.remove_edge("a", "a")

    def test_graph_remove_missing_still_edge_not_found(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.remove_edge("a", "zzz")

    def test_dynamic_truss_duplicate_insert_rejected(self):
        dt = DynamicTruss(complete_graph(4), 3)
        before = dt.truss_edges()
        with pytest.raises(ParameterError):
            dt.insert_edge(0, 1)
        # the failed insert must not have perturbed the maintained truss
        assert dt.truss_edges() == before

    def test_dynamic_truss_self_loop_insert_rejected(self):
        dt = DynamicTruss(complete_graph(4), 3)
        with pytest.raises(ParameterError):
            dt.insert_edge(2, 2)

    def test_dynamic_local_self_loop_insert_rejected(self):
        dlt = DynamicLocalTruss(complete_graph(4, 0.9), 3, 0.2)
        with pytest.raises(ParameterError):
            dlt.insert_edge(1, 1, 0.5)

    def test_dynamic_local_duplicate_insert_reweights(self):
        # Contrast with DynamicTruss: the probabilistic variant keeps
        # its insert-or-reweight semantics, because refreshing an
        # edge's probability is a meaningful update there.
        dlt = DynamicLocalTruss(complete_graph(4, 0.9), 3, 0.2)
        dlt.insert_edge(0, 1, 0.75)  # no raise
        shadow = complete_graph(4, 0.9)
        shadow.set_probability(0, 1, 0.75)
        assert dlt.truss_edges() == _static_local_edges(shadow, 3, 0.2)


#: One churn step: an op selector (0 = insert, 1 = remove,
#: 2 = probability change), an edge/node selector token, and a dyadic
#: probability. Dyadic weights keep the recompute comparison exact.
_CHURN_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=10 ** 6),
        st.sampled_from(DYADIC_PROBS),
    ),
    min_size=1, max_size=10,
)


class TestChurnBattery:
    """Random update streams with update-vs-recompute after every step."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=60), ops=_CHURN_OPS)
    def test_dynamic_truss_churn(self, seed, ops):
        k = 3
        g = dyadic_random_graph(9, 0.4, seed)
        dt = DynamicTruss(g, k)
        shadow = g.copy()
        nodes = sorted(shadow.nodes())
        for op, sel, _p in ops:
            edges = sorted(shadow.edges())
            if op == 1 and edges:
                u, v = edges[sel % len(edges)]
                dt.remove_edge(u, v)
                shadow.remove_edge(u, v)
            else:
                u = nodes[sel % len(nodes)]
                v = nodes[(sel // 13) % len(nodes)]
                if u == v:
                    continue
                if shadow.has_edge(u, v):
                    # duplicate inserts are rejected and must leave the
                    # maintained truss untouched
                    before = dt.truss_edges()
                    with pytest.raises(ParameterError):
                        dt.insert_edge(u, v, 1.0)
                    assert dt.truss_edges() == before
                    continue
                dt.insert_edge(u, v, 1.0)
                shadow.add_edge(u, v, 1.0)
            assert dt.truss_edges() == _static_truss_edges(shadow, k)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=60), ops=_CHURN_OPS)
    def test_dynamic_local_truss_churn(self, seed, ops):
        k, gamma = 3, 0.3
        g = dyadic_random_graph(8, 0.45, seed)
        dlt = DynamicLocalTruss(g, k, gamma)
        shadow = g.copy()
        nodes = sorted(shadow.nodes())
        for op, sel, p in ops:
            edges = sorted(shadow.edges())
            if op == 1 and edges:
                u, v = edges[sel % len(edges)]
                dlt.remove_edge(u, v)
                shadow.remove_edge(u, v)
            elif op == 2 and edges:
                u, v = edges[sel % len(edges)]
                dlt.insert_edge(u, v, p)
                shadow.set_probability(u, v, p)
            else:
                u = nodes[sel % len(nodes)]
                v = nodes[(sel // 13) % len(nodes)]
                if u == v or shadow.has_edge(u, v):
                    continue
                dlt.insert_edge(u, v, p)
                shadow.add_edge(u, v, p)
            assert dlt.truss_edges() == _static_local_edges(shadow, k, gamma)


def maximal_truss_orders():
    """Node lists of the maintained maximal trusses, in list order, on a
    string-node fruitfly subgraph whose set order follows
    ``PYTHONHASHSEED``."""
    from repro.datasets.registry import load_dataset

    source = load_dataset("fruitfly", seed=1, scale=0.3)
    graph = ProbabilisticGraph(
        (f"n{u}", f"n{v}", p)
        for u, v, p in source.edges_with_probabilities()
    )
    return {
        "truss": [list(t.nodes())
                  for t in DynamicTruss(graph, 3).maximal_trusses()],
        "local": [list(t.nodes()) for t in
                  DynamicLocalTruss(graph, 3, 0.2).maximal_trusses()],
    }


class TestMaximalTrussOrderAcrossHashSeeds:
    def test_maximal_trusses_are_hash_seed_independent(self):
        import os
        import pathlib
        import subprocess
        import sys

        repo_root = pathlib.Path(__file__).resolve().parent.parent
        script = ("from tests.test_dynamic import maximal_truss_orders\n"
                  "print(maximal_truss_orders())\n")
        outputs = set()
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=str(repo_root / "src"))
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
                env=env, cwd=repo_root, timeout=120,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1
