"""Unit tests for the deterministic k-truss substrate."""

import pytest

from repro import (
    ParameterError,
    ProbabilisticGraph,
    edge_supports,
    is_k_truss,
    k_truss_subgraph,
    max_trussness,
    maximal_k_trusses,
    truss_decomposition,
    truss_hierarchy,
)
from repro.graphs.generators import complete_graph
from repro.truss.decomposition import LevelQueue
from repro.truss.support import support_of_edge, triangle_count


class TestSupport:
    def test_edge_supports_triangle(self, triangle):
        assert all(s == 1 for s in edge_supports(triangle).values())

    def test_edge_supports_k4(self, k4):
        assert all(s == 2 for s in edge_supports(k4).values())

    def test_support_of_edge(self, two_triangles_sharing_edge):
        assert support_of_edge(two_triangles_sharing_edge, "a", "b") == 2

    def test_triangle_count(self, k4):
        assert triangle_count(k4) == 4

    def test_triangle_count_triangle_free(self):
        g = ProbabilisticGraph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        assert triangle_count(g) == 0


class TestTrussDecomposition:
    def test_complete_graph(self):
        # In K_n every edge has trussness n.
        for n in (3, 4, 5, 6):
            tau = truss_decomposition(complete_graph(n))
            assert all(t == n for t in tau.values())

    def test_path_graph(self):
        g = ProbabilisticGraph([(0, 1, 1.0), (1, 2, 1.0)])
        tau = truss_decomposition(g)
        assert all(t == 2 for t in tau.values())

    def test_paper_example(self, paper_graph):
        tau = truss_decomposition(paper_graph)
        # p1's edges cap at 3 (one triangle each); the 4-truss core is the
        # subgraph on {q1, q2, v1, v2, v3}.
        assert tau[("p1", "q1")] == 3
        assert tau[("p1", "v1")] == 3
        for e in [("q1", "v1"), ("q2", "v3"), ("v1", "v2"), ("v2", "v3")]:
            assert tau[e] == 4

    def test_triangle_plus_pendant(self):
        g = ProbabilisticGraph(
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0)]
        )
        tau = truss_decomposition(g)
        assert tau[(2, 3)] == 2
        assert tau[(0, 1)] == 3

    def test_empty_graph(self, empty_graph):
        assert truss_decomposition(empty_graph) == {}

    def test_two_cliques_sharing_a_node(self):
        g = ProbabilisticGraph()
        for block in (["a1", "a2", "a3", "hub"], ["b1", "b2", "b3", "hub"]):
            for i, u in enumerate(block):
                for v in block[:i]:
                    g.add_edge(u, v, 1.0)
        tau = truss_decomposition(g)
        assert all(t == 4 for t in tau.values())

    def test_cascade(self):
        # K4 with a pendant triangle: removing the weak edges cascades.
        g = complete_graph(4)
        g.add_edge(0, 4, 1.0)
        g.add_edge(1, 4, 1.0)
        tau = truss_decomposition(g)
        assert tau[(0, 4)] == 3
        assert tau[(0, 1)] == 4


class TestIsKTruss:
    def test_every_graph_is_2truss(self, triangle, two_triangles_sharing_edge):
        assert is_k_truss(triangle, 2)
        assert is_k_truss(two_triangles_sharing_edge, 2)

    def test_k4(self, k4):
        assert is_k_truss(k4, 4)
        assert not is_k_truss(k4, 5)

    def test_edgeless_vacuous(self, empty_graph):
        assert is_k_truss(empty_graph, 10)

    def test_invalid_k(self, k4):
        with pytest.raises(ParameterError):
            is_k_truss(k4, 1)


class TestKTrussSubgraph:
    def test_extracts_core(self, paper_graph):
        core = k_truss_subgraph(paper_graph, 4)
        assert set(core.nodes()) == {"q1", "q2", "v1", "v2", "v3"}
        assert core.number_of_edges() == 9

    def test_k_too_large_gives_empty(self, k4):
        assert k_truss_subgraph(k4, 5).number_of_edges() == 0

    def test_keeps_probabilities(self, k4):
        core = k_truss_subgraph(k4, 4)
        assert core.probability("a", "b") == 0.9

    def test_invalid_k(self, k4):
        with pytest.raises(ParameterError):
            k_truss_subgraph(k4, 0)


class TestMaximalTrusses:
    def test_disjoint_triangles(self):
        g = ProbabilisticGraph()
        for base in (0, 10):
            g.add_edge(base, base + 1, 1.0)
            g.add_edge(base + 1, base + 2, 1.0)
            g.add_edge(base, base + 2, 1.0)
        trusses = maximal_k_trusses(g, 3)
        assert len(trusses) == 2
        assert all(t.number_of_edges() == 3 for t in trusses)

    def test_accepts_precomputed_trussness(self, k4):
        tau = truss_decomposition(k4)
        trusses = maximal_k_trusses(k4, 4, trussness=tau)
        assert len(trusses) == 1

    def test_invalid_k(self, k4):
        with pytest.raises(ParameterError):
            maximal_k_trusses(k4, 1)

    def test_hierarchy_nested(self, paper_graph):
        hierarchy = truss_hierarchy(paper_graph)
        assert sorted(hierarchy) == [2, 3, 4]
        # Edges at level k+1 are a subset of edges at level k.
        for k in (2, 3):
            upper = {
                e for t in hierarchy[k + 1] for e in t.edges()
            }
            lower = {e for t in hierarchy[k] for e in t.edges()}
            assert upper <= lower

    def test_hierarchy_empty(self, empty_graph):
        assert truss_hierarchy(empty_graph) == {}


class TestMaxTrussness:
    def test_values(self, paper_graph, empty_graph, k4):
        assert max_trussness(paper_graph) == 4
        assert max_trussness(k4) == 4
        assert max_trussness(empty_graph) == 0


def _string_fruitfly():
    """A string-node fruitfly subgraph, whose set iteration order
    changes with ``PYTHONHASHSEED``."""
    from repro.datasets.registry import load_dataset

    source = load_dataset("fruitfly", seed=1, scale=0.3)
    return ProbabilisticGraph(
        (f"n{u}", f"n{v}", p)
        for u, v, p in source.edges_with_probabilities()
    )


def structural_peel_orders():
    """``list(result.items())`` of the structural bucket-queue peels
    ((2, 3) and (3, 4) nucleus among them) on :func:`_string_fruitfly`."""
    from repro.core.pcore import eta_core_decomposition
    from repro.truss.kcore import core_decomposition
    from repro.truss.nucleus import structural_nucleus_decomposition

    graph = _string_fruitfly()
    return {
        "truss": list(truss_decomposition(graph).items()),
        "core": list(core_decomposition(graph).items()),
        "eta-core": list(eta_core_decomposition(graph, 0.5).items()),
        "nucleus": list(structural_nucleus_decomposition(graph).items()),
        "nucleus-34": list(
            structural_nucleus_decomposition(graph, 3, 4).items()),
    }


def gamma_peel_orders():
    """``list(result.items())`` of the max-min peels on
    :func:`_string_fruitfly`: the gamma-trussness at k = 3 and 4 and
    the truss frontier. Their reprs carry every bit of every value."""
    from repro.core.frontier import truss_frontier
    from repro.core.gamma_decomp import gamma_truss_decomposition

    graph = _string_fruitfly()
    gamma_3 = gamma_truss_decomposition(graph, 3).gamma_trussness
    gamma_4 = gamma_truss_decomposition(graph, 4).gamma_trussness
    return {
        "gamma-3": list(gamma_3.items()),
        "gamma-4": list(gamma_4.items()),
        "frontier": list(truss_frontier(graph).frontier.items()),
    }


def dynamic_truss_pmfs():
    """The live cells' support PMFs of :class:`DynamicLocalTruss` on
    :func:`_string_fruitfly`, read from its engine state in graph edge
    order: after the initial peel, after deletions whose evictions
    cascade, and after an insertion that re-peels the graph. Their
    reprs carry every bit of every PMF."""
    from repro.truss.dynamic import DynamicLocalTruss

    graph = _string_fruitfly()
    dlt = DynamicLocalTruss(graph, 4, 0.1)

    def snapshot():
        state, live = dlt._state, dlt._live
        return [(e, state.pmfs[state.ids[e]]) for e in dlt._graph.edges()
                if live[state.ids[e]]]

    rows = {"initial": snapshot()}
    for u, v in list(graph.edges())[::9]:
        if dlt.in_truss(u, v):
            dlt.remove_edge(u, v)
    rows["deleted"] = snapshot()
    u, v = next(iter(graph.edges()))
    dlt.insert_edge(u, v, 0.95)
    rows["inserted"] = snapshot()
    return rows


def expected_truss_orders():
    """``list(result.items())`` of the expected-support max-min peel on
    :func:`_string_fruitfly`; the reprs carry every bit of every value."""
    from repro.core.expected import expected_truss_decomposition

    return list(expected_truss_decomposition(_string_fruitfly()).items())


def edge_support_pmfs():
    """Every edge's :func:`triangle_probabilities` factors and
    :meth:`SupportProbability.from_edge` PMF on a string-node wikivote
    graph, in graph edge order."""
    from repro.core.support_prob import (
        SupportProbability,
        triangle_probabilities,
    )
    from repro.datasets.registry import load_dataset

    source = load_dataset("wikivote", seed=1)
    graph = ProbabilisticGraph(
        (f"n{u}", f"n{v}", p)
        for u, v, p in source.edges_with_probabilities()
    )
    return [(list(triangle_probabilities(graph, u, v).values()),
             SupportProbability.from_edge(graph, u, v).pmf)
            for u, v in graph.edges()]


class TestPeelOrderAcrossHashSeeds:
    @pytest.mark.parametrize("helper", ["structural_peel_orders",
                                        "gamma_peel_orders",
                                        "dynamic_truss_pmfs",
                                        "expected_truss_orders",
                                        "edge_support_pmfs"])
    def test_item_order_is_hash_seed_independent(self, helper):
        # The peels pop from insertion-ordered buckets (or a heap tied
        # by cell id) and visit neighbours in adjacency (or canonical
        # apex) order, so each result lists the same items in the same
        # order, with the same float bits, in every process.
        import os
        import pathlib
        import subprocess
        import sys

        repo_root = pathlib.Path(__file__).resolve().parent.parent
        script = (
            f"from tests.test_truss_decomposition import {helper}\n"
            f"print({helper}())\n"
        )
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


#: sha256 of ``repr(list(result.items()))`` per peel, recorded from the
#: bucket-queue implementations that preceded ``LevelQueue`` (identical
#: under PYTHONHASHSEED 0 and 1). The structural peels run on the
#: string-node graph of :func:`structural_peel_orders`; ``engine-rs-*``
#: is ``nucleus_decomposition(g, r, s, 0.3).scores`` on that graph
#: (``str``) and on the int-node fruitfly graph it relabels (``int``).
PINNED_ORDER_DIGESTS = {
    "truss": "da2f0b6ddc11407a5733608f19d5bd6227f15d36ac6fe121df70d1fe92d16365",
    "core": "25dc1ad354b7987d77f7d4e43e0f6b792f0f94fa98d353e180bd839316c12cec",
    "eta-core": "323ea8829d171ef2d1d5b9745de48295e5e3b51cd2ac8e2ed04bfd24512308dd",
    "nucleus": "911b9a067b6f21875131105da4a3648b16ea44bbcb52cc6cb1bdf8dba3b4087e",
    "nucleus-34": "fcb10fce26958b8c0a050cd6b7f45b1a0d39f28320c008c6726654ef879b2732",
    "engine-12-int": "e013df6ac03c28e0740e25cb7c4fb1628c2780d752199485aa7bea92ef83bdba",
    "engine-23-int": "11e74f7c2fa01fa3769bc4ee70af02ee6aea7db2d15c0eadbaa0f7ad7d9ef644",
    "engine-34-int": "824be87ebe5e7aa97a5553c4564183eca19ec76f842f7d55df0968463132723a",
    "engine-12-str": "9c18a0b5ebd5bffc6b8a6ddc5069685208f5808b2e8cc9ed76304ca6ecd9b11b",
    "engine-23-str": "510fddaa4344d8c626f55e6c8f6a5f9629498a9e7ec91169473914c41eb4ee30",
    "engine-34-str": "990cd65502dec0d8471a746e12d6b0c290dd2bfb6f00037ce07c25bde10d7456",
}


class TestPinnedPeelOrder:
    def test_item_order_matches_pinned_digests(self):
        # Same items in the same order as the recorded peels, not just
        # the same values: the order is what checkpoints and partial
        # results expose.
        import hashlib

        from repro.core.nucleus import nucleus_decomposition
        from repro.datasets.registry import load_dataset

        items = structural_peel_orders()
        ints = load_dataset("fruitfly", seed=1, scale=0.3)
        strs = ProbabilisticGraph(
            (f"n{u}", f"n{v}", p) for u, v, p in ints.edges_with_probabilities()
        )
        for name, g in (("int", ints), ("str", strs)):
            for r, s in ((1, 2), (2, 3), (3, 4)):
                result = nucleus_decomposition(g, r, s, 0.3)
                items[f"engine-{r}{s}-{name}"] = list(result.scores.items())
        digests = {name: hashlib.sha256(repr(rows).encode()).hexdigest()
                   for name, rows in items.items()}
        assert digests == PINNED_ORDER_DIGESTS


class TestLevelQueue:
    def test_pops_are_lifo_within_a_level(self):
        q = LevelQueue({"a": 1, "b": 0, "c": 1, "d": 0})
        assert [q.pop_min() for _ in range(4)] == [
            ("d", 0), ("b", 0), ("c", 1), ("a", 1)]
        assert len(q) == 0

    def test_level_is_the_taken_over_dict(self):
        levels = {"a": 2, "b": 1}
        q = LevelQueue(levels)
        assert q.level is levels
        q.pop_min()
        assert levels == {"a": 2}

    def test_lower_ignores_popped_items(self):
        q = LevelQueue({"a": 0, "b": 3})
        assert q.pop_min() == ("a", 0)
        q.lower("a", 0)
        assert "a" not in q.level
        assert q.pop_min() == ("b", 3)
        assert not q

    def test_lower_ignores_levels_that_are_not_lower(self):
        q = LevelQueue({"a": 2, "b": 2})
        q.lower("a", 2)
        q.lower("a", 3)
        assert q.level == {"a": 2, "b": 2}
        # Unmoved, "a" keeps its place under "b".
        assert [q.pop_min() for _ in range(2)] == [("b", 2), ("a", 2)]

    def test_lower_can_go_below_the_cursor(self):
        q = LevelQueue({"a": 1, "b": 3, "c": 3})
        assert q.pop_min() == ("a", 1)
        assert q.pop_min() == ("c", 3)
        q.lower("b", 0)
        assert q.pop_min() == ("b", 0)

    def test_moved_items_pop_first_in_their_new_level(self):
        q = LevelQueue({"a": 1, "b": 1, "c": 2})
        q.lower("c", 1)
        assert q.pop_min() == ("c", 1)
        q = LevelQueue({"a": 1, "b": 1, "c": 2})
        q.decrement("c", floor=0)
        assert q.pop_min() == ("c", 1)

    def test_decrement_stops_at_the_floor(self):
        q = LevelQueue({"a": 3, "b": 0})
        q.decrement("a", floor=1)
        assert q.level["a"] == 2
        q.decrement("a", floor=1)
        q.decrement("a", floor=1)
        assert q.level["a"] == 1
        q.decrement("b", floor=0)
        assert q.level["b"] == 0

    def test_decrement_ignores_popped_items(self):
        q = LevelQueue({"a": 0, "b": 2})
        q.pop_min()
        q.decrement("a", floor=-1)
        assert q.level == {"b": 2}

    def test_empty_queue(self):
        q = LevelQueue({})
        assert len(q) == 0 and not q
        q.lower("x", 0)
        q.decrement("x", floor=0)
        assert q.level == {}
        with pytest.raises(IndexError):
            q.pop_min()
