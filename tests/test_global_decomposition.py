"""Unit tests for the global decomposition: Algorithm 3 + GTD + GBU."""

import pytest

from repro import (
    DecompositionError,
    GlobalTrussOracle,
    ParameterError,
    ProbabilisticGraph,
    WorldSampleSet,
    alpha_exact,
    global_truss_decomposition,
    is_global_truss_exact,
    local_truss_decomposition,
)
from repro.core.global_decomp import (
    _prune_to_structural_ktruss,
    bottom_up_search,
    top_down_search,
)
from repro.graphs.generators import gnp_graph, running_example, windmill_graph
from repro.graphs.probabilistic import edge_key
from repro.parallel import ParallelExecutor
from tests.conftest import random_probabilistic_graph


class TestStructuralPruning:
    def test_k2_keeps_everything(self, k4):
        edges = set(k4.edges())
        assert _prune_to_structural_ktruss(k4, edges, 2) == edges

    def test_prunes_pendant(self):
        g = ProbabilisticGraph(
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0)]
        )
        pruned = _prune_to_structural_ktruss(g, set(g.edges()), 3)
        assert (2, 3) not in pruned
        assert len(pruned) == 3

    def test_cascade_empties(self):
        # A 4-cycle has no triangles: everything cascades away at k = 3.
        g = ProbabilisticGraph(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]
        )
        assert _prune_to_structural_ktruss(g, set(g.edges()), 3) == set()


class TestPaperExampleDecomposition:
    @pytest.mark.parametrize("method", ["gtd", "gbu"])
    def test_finds_h2_h3(self, paper_graph, method):
        # gamma = 0.1 sits well below H2/H3's exact alpha (0.125) and well
        # above H1's (0.5^6), so the answer set matches Example 2 without
        # Monte-Carlo knife-edge flakiness at gamma = alpha = 0.125.
        result = global_truss_decomposition(
            paper_graph, 0.1, method=method, seed=3, n_samples=2000
        )
        assert result.k_max == 4
        found = {frozenset(t.nodes()) for t in result.trusses[4]}
        assert frozenset({"q1", "v1", "v2", "v3"}) in found
        assert frozenset({"q2", "v1", "v2", "v3"}) in found
        assert len(found) == 2

    def test_gtd_answers_are_exact_global_trusses(self, paper_graph):
        result = global_truss_decomposition(
            paper_graph, 0.1, method="gtd", seed=3, n_samples=2000
        )
        for k, truss in result.all_trusses():
            # With enough samples, every answer should be near the exact
            # definition; verify against the enumeration oracle at a
            # slightly relaxed gamma to absorb sampling noise.
            assert is_global_truss_exact(truss, k, 0.1 * 0.8)

    def test_results_are_local_trusses_too(self, paper_graph):
        # Lemma 1 consequence: answers at k live inside local trusses at k.
        local = local_truss_decomposition(paper_graph, 0.1)
        result = global_truss_decomposition(
            paper_graph, 0.1, method="gbu", seed=3, n_samples=2000,
            local_result=local,
        )
        for k, truss in result.all_trusses():
            for e in truss.edges():
                assert local.trussness[e] >= k


class TestBackboneBehaviour:
    def test_invalid_gamma(self, paper_graph):
        with pytest.raises(ParameterError):
            global_truss_decomposition(paper_graph, -0.1)

    def test_invalid_method(self, paper_graph):
        with pytest.raises(ParameterError):
            global_truss_decomposition(paper_graph, 0.5, method="dfs")

    def test_mismatched_local_result_rejected(self, paper_graph):
        local = local_truss_decomposition(paper_graph, 0.3)
        with pytest.raises(ParameterError):
            global_truss_decomposition(
                paper_graph, 0.125, local_result=local
            )

    def test_max_k_stops_early(self, paper_graph):
        result = global_truss_decomposition(
            paper_graph, 0.125, method="gbu", seed=1, n_samples=500, max_k=2
        )
        assert result.k_max <= 2

    def test_n_samples_default_is_hoeffding(self, paper_graph):
        result = global_truss_decomposition(
            paper_graph, 0.5, method="gbu", seed=1
        )
        assert result.n_samples == 150  # eps = delta = 0.1

    def test_empty_graph(self, empty_graph):
        result = global_truss_decomposition(empty_graph, 0.5, seed=1)
        assert result.trusses == {}
        assert result.k_max == 0

    def test_monotone_k_hierarchy(self, paper_graph):
        result = global_truss_decomposition(
            paper_graph, 0.1, method="gtd", seed=3, n_samples=1000
        )
        # Every k-level answer's edges appear in some (k-1)-level answer
        # union (Eq. 11 pruning guarantees this by construction).
        for k in sorted(result.trusses):
            if k - 1 not in result.trusses:
                continue
            lower = {
                e for t in result.trusses[k - 1] for e in t.edges()
            }
            upper = {e for t in result.trusses[k] for e in t.edges()}
            assert upper <= lower

    def test_all_trusses_ordering(self, paper_graph):
        result = global_truss_decomposition(
            paper_graph, 0.125, method="gbu", seed=3, n_samples=500
        )
        ks = [k for k, _ in result.all_trusses()]
        assert ks == sorted(ks)


def _inline(graph, oracle):
    """An inline executor whose tasks test against ``oracle``."""
    return ParallelExecutor(1, graph=graph, oracle=oracle)


class TestTopDownSearch:
    def test_returns_component_when_satisfying(self, paper_graph):
        samples = WorldSampleSet.from_graph(paper_graph, 1500, seed=5)
        oracle = GlobalTrussOracle(samples)
        h2 = paper_graph.subgraph(["q1", "v1", "v2", "v3"])
        with _inline(paper_graph, oracle) as executor:
            answers = top_down_search(executor, 4, h2, 0.1)
        assert len(answers) == 1
        assert set(answers[0].nodes()) == {"q1", "v1", "v2", "v3"}

    def test_state_budget_enforced(self, paper_graph):
        samples = WorldSampleSet.from_graph(paper_graph, 200, seed=5)
        oracle = GlobalTrussOracle(samples)
        h1 = paper_graph.subgraph(["q1", "q2", "v1", "v2", "v3"])
        with _inline(paper_graph, oracle) as executor:
            with pytest.raises(DecompositionError):
                # gamma = 1.0 is unsatisfiable, forcing exploration past
                # the root state; a budget of 1 must trip on the first
                # expansion.
                top_down_search(executor, 4, h1, 1.0, max_states=1)

    def test_exactness_against_enumeration(self):
        # On a tiny graph, GTD + large sample count must find exactly the
        # maximal exact global trusses.
        g = windmill_graph(2, 0.6)
        samples = WorldSampleSet.from_graph(g, 4000, seed=11)
        oracle = GlobalTrussOracle(samples)
        gamma = 0.2
        with _inline(g, oracle) as executor:
            answers = top_down_search(executor, 3, g, gamma)
        # Exact: each blade triangle has alpha = 0.6^3 = 0.216 >= 0.2 only
        # if the world is exactly that triangle... actually worlds
        # containing a blade triangle and spanning all its nodes. For the
        # subgraph = one blade, alpha = 0.6^3 = 0.216.
        blade_found = {
            frozenset(t.nodes()) for t in answers
        }
        for t in answers:
            assert is_global_truss_exact(t, 3, gamma * 0.85)
        assert blade_found  # at least one blade qualifies


class TestBottomUpSearch:
    def test_finds_planted_truss(self, paper_graph):
        samples = WorldSampleSet.from_graph(paper_graph, 1500, seed=5)
        oracle = GlobalTrussOracle(samples)
        component = paper_graph.subgraph(["q1", "q2", "v1", "v2", "v3"])
        with _inline(paper_graph, oracle) as executor:
            answers = bottom_up_search(executor, oracle, 4, component, 0.1,
                                       root=1)
        found = {frozenset(t.nodes()) for t in answers}
        assert frozenset({"q1", "v1", "v2", "v3"}) in found or frozenset(
            {"q2", "v1", "v2", "v3"}
        ) in found

    def test_answers_satisfy_oracle(self, paper_graph):
        samples = WorldSampleSet.from_graph(paper_graph, 1000, seed=5)
        oracle = GlobalTrussOracle(samples)
        component = paper_graph.subgraph(["q1", "q2", "v1", "v2", "v3"])
        with _inline(paper_graph, oracle) as executor:
            answers = bottom_up_search(executor, oracle, 4, component, 0.1,
                                       root=1)
        for t in answers:
            assert oracle.satisfies(t, 4, 0.1)

    def test_inline_search_discards_no_evaluated_seed(self, monkeypatch):
        # Speculative seed batches are for live pools only: inline, every
        # evaluated seed is still uncovered when its result is merged.
        evaluated = []
        original = ParallelExecutor.map

        def recording_map(self, name, payloads, *args, **kwargs):
            payloads = list(payloads)
            results = original(self, name, payloads, *args, **kwargs)
            if name == "gbu-seed":
                # p = (comp_edges, seed_edge, k, gamma, entropy)
                evaluated.extend(
                    (p[4][1:3], p[1], res) for p, res in zip(payloads, results)
                )
            return results

        monkeypatch.setattr(ParallelExecutor, "map", recording_map)
        graph = gnp_graph(13, 0.3, seed=2)
        result = global_truss_decomposition(graph, 0.3, method="gbu",
                                            seed=7, n_samples=60)
        assert result.trusses
        covered = {}  # per (k, component index)
        for search, seed_edge, res in evaluated:
            done = covered.setdefault(search, set())
            assert edge_key(*seed_edge) not in done
            if res:
                done |= set(map(tuple, res))
        assert any(covered.values())

    def test_impossible_k_returns_nothing(self, triangle):
        samples = WorldSampleSet.from_graph(triangle, 300, seed=5)
        oracle = GlobalTrussOracle(samples)
        with _inline(triangle, oracle) as executor:
            assert bottom_up_search(executor, oracle, 5, triangle, 0.1,
                                    root=1) == []


class TestRandomGraphCrossValidation:
    @pytest.mark.parametrize("seed", range(3))
    def test_gbu_answers_within_gtd_closure(self, seed):
        # GBU is incomplete but sound: every GBU answer must satisfy the
        # same sampled oracle that GTD uses. Graphs are kept tiny — GTD
        # is exponential, which is the paper's whole point.
        g = random_probabilistic_graph(8, 0.4, seed)
        samples = WorldSampleSet.from_graph(g, 400, seed=seed)
        gtd = global_truss_decomposition(
            g, 0.3, method="gtd", seed=seed, samples=samples
        )
        gbu = global_truss_decomposition(
            g, 0.3, method="gbu", seed=seed, samples=samples
        )
        oracle = GlobalTrussOracle(samples)
        for k, truss in gbu.all_trusses():
            assert oracle.satisfies(truss, k, 0.3)
        # GBU's k_max can never exceed GTD's on the same samples.
        assert gbu.k_max <= gtd.k_max
