"""Differential battery for the batched GTD successor kernel.

``kernels.deletion_clusters`` expands the failing states of a
``gtd-frontier`` shard (Algorithm 4) in one batched pass. The
reference it replaced handles one single-edge deletion at a time:
``k_truss_edges``, then ``edge_connected_components``,
then a sort by the canonical edge key. These tests pin the two to the
same successor lists, content and order:

* k in {3, 4, 5}, and k = 2 (no pruning, components only);
* int-node, string-node and mixed int/str-node candidates;
* candidates that are not k-trusses themselves, triangle-free
  candidates, single-edge candidates and deletions that empty the
  whole state;
* candidates whose deletion rows prune to repeated edge sets;
* many candidates in one call, cut into blocks of every size down to
  one row;
* the whole ``gtd-frontier`` task against the per-deletion loop,
  shard-wide repeats dropped, its bitmask states decoded.

The peak-allocation test at the bottom holds one batched expansion of
a 435-edge clique under a stated budget; without row blocks the same
call peaks near 100 MiB.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.global_decomp import _edge_sort_key as _sort_key, _mask_bits
from repro.graphs.components import edge_connected_components
from repro.graphs.generators import complete_graph, planted_truss_graph
from repro.graphs.probabilistic import ProbabilisticGraph, edge_key
from repro.graphs.sampling import WorldSampleSet
from repro.parallel import ParallelExecutor
from repro.truss.decomposition import k_truss_edges

NODE_KINDS = {
    "int": lambda i: i,
    # Decimal strings sort differently from the ints they spell.
    "str": lambda i: str(i),
    "mixed": lambda i: i if i % 2 else f"v{i}",
}


def _graph(edges, kind="int"):
    name = NODE_KINDS[kind]
    g = ProbabilisticGraph()
    for u, v in edges:
        g.add_edge(name(u), name(v), 0.5)
    # GTD candidates are built from canonically sorted edge lists.
    return g.edge_subgraph(sorted(g.edges(), key=_sort_key))


def _random_edges(n, density, seed):
    gen = np.random.default_rng(seed)
    return [(u, v) for u, v in itertools.combinations(range(n), 2)
            if gen.random() < density]


def _spec(candidate):
    """A candidate as ``deletion_clusters`` takes it."""
    columns = sorted(candidate.edges(), key=_sort_key)
    column_of = {e: j for j, e in enumerate(columns)}
    return (columns, list(candidate.nodes()),
            [column_of[e] for e in candidate.edges()])


def _reference(candidate, k):
    """Per-deletion prune and split; repeated or empty rows add nothing."""
    everything = {edge_key(u, v) for u, v in candidate.edges()}
    seen, out = set(), []
    for e in candidate.edges():
        pruned = k_truss_edges(
            candidate, everything - {edge_key(*e)}, k)
        if not pruned or frozenset(pruned) in seen:
            continue
        seen.add(frozenset(pruned))
        clusters = [sorted(c, key=_sort_key)
                    for c in edge_connected_components(candidate, pruned)]
        out.extend(sorted(clusters, key=lambda c: _sort_key(c[0])))
    return out


def _check(candidates, k):
    got = kernels.deletion_clusters([_spec(c) for c in candidates], k)
    assert got == [_reference(c, k) for c in candidates]
    return got


class TestAgainstPerDeletionReference:
    @given(n=st.integers(2, 12), density=st.floats(0.2, 1.0),
           seed=st.integers(0, 2**31), kind=st.sampled_from(sorted(NODE_KINDS)),
           k=st.sampled_from([2, 3, 4, 5]))
    @settings(max_examples=200, deadline=None)
    def test_random_candidates(self, n, density, seed, kind, k):
        # Labels drawn from 0..39 so string order, numeric order and
        # node first-appearance order all disagree.
        labels = np.random.default_rng(seed).permutation(40)[:n].tolist()
        edges = [(labels[u], labels[v])
                 for u, v in _random_edges(n, density, seed)]
        if edges:
            _check([_graph(edges, kind)], k)

    def test_clusters_follow_columns_not_nodes(self):
        # Sorted columns (10, 11), (2, 3), (9, 10): node 10 appears
        # first, yet deleting (10, 11) must list (2, 3)'s cluster first.
        graph = _graph([(10, 11), (2, 3), (9, 10)])
        [got] = _check([graph], 2)
        assert got[:2] == [[(2, 3)], [(9, 10)]]

    @pytest.mark.parametrize("kind", sorted(NODE_KINDS))
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_planted_candidates_in_one_call(self, kind, k):
        # Not k-trusses themselves: a dense core with sparse fringe.
        candidates = [
            _graph(planted_truss_graph(
                8, 5, background_density=0.3, seed=seed)[0].edges(), kind)
            for seed in range(6)
        ]
        got = _check(candidates, k)
        assert any(got), "the planted cores should leave successors"

    @pytest.mark.parametrize("cells", [1, 7, 64, 1 << 11])
    def test_block_boundaries_change_nothing(self, monkeypatch, cells):
        monkeypatch.setattr(kernels, "_DELETION_BLOCK_CELLS", cells)
        candidates = [_graph(_random_edges(9, 0.7, seed), kind)
                      for seed, kind in zip(range(6), itertools.cycle(NODE_KINDS))]
        for k in (3, 4):
            _check(candidates, k)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_triangle_free_candidates_have_no_successors(self, k):
        cycle = _graph([(i, (i + 1) % 7) for i in range(7)])
        star = _graph([(0, i) for i in range(1, 6)], "str")
        assert _check([cycle, star], k) == [[], []]

    def test_single_edge_candidate(self):
        edge = _graph([(0, 1)], "mixed")
        for k in (2, 3, 4):
            assert _check([edge], k) == [[]]

    def test_every_deletion_empties_the_state(self):
        # K4 is a 4-truss with no slack: losing any edge collapses it.
        k4 = _graph(list(itertools.combinations(range(4), 2)))
        assert _check([k4], 4) == [[]]

    def test_repeated_rows_are_expanded_once(self):
        # Two K4s joined by a bridge: at k = 4 each of the 12 deletions
        # inside one K4 prunes to the other K4, and deleting the bridge
        # leaves both. Three distinct rows, four clusters.
        left = list(itertools.combinations(range(4), 2))
        right = list(itertools.combinations(range(4, 8), 2))
        graph = _graph(left + right + [(3, 4)], "str")
        [got] = _check([graph], 4)
        assert len(got) == 4 and {len(c) for c in got} == {6}

    def test_k2_only_splits(self):
        path = _graph([(0, 1), (1, 2), (2, 3)])
        [got] = _check([path], 2)
        assert got == [[(1, 2), (2, 3)], [(0, 1)], [(2, 3)], [(0, 1), (1, 2)]]


class TestFrontierTask:
    def _per_deletion_task(self, graph, shard, k):
        """The loop the task ran before its successors were batched."""
        emitted, out = set(), []
        for cand_edges in shard:
            candidate = graph.edge_subgraph(cand_edges)
            everything = {edge_key(u, v) for u, v in candidate.edges()}
            successors = []
            for e in candidate.edges():
                pruned = k_truss_edges(
                    candidate, everything - {edge_key(*e)}, k)
                clusters = [sorted(c, key=_sort_key) for c in
                            edge_connected_components(candidate, pruned)]
                clusters.sort(key=lambda c: _sort_key(c[0]))
                for cluster in clusters:
                    if frozenset(cluster) not in emitted:
                        emitted.add(frozenset(cluster))
                        successors.append(cluster)
            out.append(("exp", successors))
        return out

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_task_matches_per_deletion_loop(self, k):
        graph, _ = planted_truss_graph(
            10, 5, background_density=0.25, clique_probability=0.9375,
            background_probability=0.25, seed=3)
        samples = WorldSampleSet.from_graph(graph, 64, seed=9)
        root = sorted(graph.edges(), key=_sort_key)
        shard = [root] + [[e for e in root if e != dropped]
                          for dropped in root[:8]]
        # The task takes and returns states as masks over `root`.
        full = (1 << len(root)) - 1
        masks = [full] + [full & ~(1 << j) for j in range(8)]
        # gamma = 1 fails every candidate, so the whole shard expands.
        with ParallelExecutor(1, graph=graph, samples=samples) as executor:
            [result] = executor.map(
                "gtd-frontier", [(tuple(root), masks, k, 1.0)])
        decoded = [(kind, [[root[j] for j in _mask_bits(succ)]
                           for succ in data]) for kind, data in result]
        assert decoded == self._per_deletion_task(graph, shard, k)


class TestBatchedExpansionPeakAllocation:
    #: One block's transients (~0.2 MiB) plus the 435 returned clusters
    #: of 434 edges each (~1.6 MiB); measured 2.1 MiB. Without row
    #: blocks the triangle slots of all 435 rows (4060 triangles each)
    #: are live at once, ~96 MiB.
    BUDGET = 4 * 2**20

    def test_dense_component_stays_within_budget(self):
        clique = _graph(list(itertools.combinations(range(30), 2)))
        assert clique.number_of_edges() >= 400
        spec = _spec(clique)
        # Warm up, so one-time first-call allocations are not counted.
        kernels.deletion_clusters([_spec(complete_graph(3))], 4)
        tracemalloc.start()
        try:
            [got] = kernels.deletion_clusters([spec], 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Every deletion leaves a distinct 4-truss of 434 edges.
        assert len(got) == 435 and {len(c) for c in got} == {434}
        assert peak < self.BUDGET, (
            f"batched expansion peak {peak} bytes vs budget {self.BUDGET}")
