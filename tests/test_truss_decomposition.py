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


def structural_peel_orders():
    """``list(result.items())`` of the structural bucket-queue peels
    ((2, 3) and (3, 4) nucleus among them) on a string-node fruitfly
    subgraph, whose set iteration order changes with
    ``PYTHONHASHSEED``."""
    from repro.core.pcore import eta_core_decomposition
    from repro.datasets.registry import load_dataset
    from repro.truss.kcore import core_decomposition
    from repro.truss.nucleus import structural_nucleus_decomposition

    source = load_dataset("fruitfly", seed=1, scale=0.3)
    graph = ProbabilisticGraph(
        (f"n{u}", f"n{v}", p)
        for u, v, p in source.edges_with_probabilities()
    )
    return {
        "truss": list(truss_decomposition(graph).items()),
        "core": list(core_decomposition(graph).items()),
        "eta-core": list(eta_core_decomposition(graph, 0.5).items()),
        "nucleus": list(structural_nucleus_decomposition(graph).items()),
        "nucleus-34": list(
            structural_nucleus_decomposition(graph, 3, 4).items()),
    }


class TestPeelOrderAcrossHashSeeds:
    def test_item_order_is_hash_seed_independent(self):
        # The peels pop from insertion-ordered buckets and visit
        # neighbours in adjacency (or canonical apex) order, so each
        # result lists the same items in the same order in every
        # process, not only the same values.
        import os
        import pathlib
        import subprocess
        import sys

        repo_root = pathlib.Path(__file__).resolve().parent.parent
        script = (
            "from tests.test_truss_decomposition import "
            "structural_peel_orders\n"
            "print(structural_peel_orders())\n"
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
