"""Differential tests: packed popcount kernels vs unpacked references.

Every kernel in :mod:`repro.core.kernels` has a pure-numpy boolean
counterpart (``unpacked.sum(axis=0)`` and friends) or a pure-Python
reference (``classify_worlds``, ``edge_supports_reference``, the
one-row ``support_pmf`` loop). These tests pin the equivalences the hot
paths rely on:

* integer kernels are *exactly* equal to the boolean reference,
  including ragged tails (``n_samples % 8 != 0``) whose padding bits
  must never leak into a count, and ``row_sums`` across its 255-column
  byte-lane chunks (saturated lanes included) and its row blocks;
* ``dedup_candidate_patterns`` reproduces ``np.unique(...,
  return_counts=True)`` bit for bit — pattern order included — at every
  integer-key width, so the float accumulation order downstream is
  unchanged;
* ``WorldClassifier.connected_mask`` equals ``world_is_connected_ktruss``
  at k = 2 row for row, and its label loop stays within its round bound
  on relabelled paths and stacked sparse patterns;
* ``WorldClassifier.truss_mask`` equals the per-pattern ``truss_ok``
  reference row for row;
* ``classify_worlds_packed`` equals ``classify_worlds`` for every k,
  for RAM-resident and spilled (memmapped) sample sets alike;
* the float kernels (the row-batched ``support_pmfs``, oracle
  estimates) are *bit-identical* to their references, not just close.

The peak-allocation regression test at the bottom guards the point of
the whole module: classifying a spilled sample set must not
re-materialise the 8x boolean blow-up in RAM. ``row_sums`` has its own:
its ``uint64`` lane lookups must stay blocked below that size.
"""

import math
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ProbabilisticGraph, WorldSampleSet
from repro.core import kernels
from repro.core.global_truss import (
    GlobalTrussOracle,
    classify_worlds,
    world_is_connected_ktruss,
)
from repro.core.support_prob import support_pmf, support_pmfs
from repro.exceptions import ParameterError
from repro.truss.support import edge_supports, edge_supports_reference

from .strategies import (
    dyadic_random_graph,
    exhaustive_sample_set,
    q_lists,
    random_probabilistic_graph,
)

# Ragged on purpose: every shape family includes n % 8 != 0 so a kernel
# that forgets the packing tail fails here, not in production.
matrix_shapes = st.tuples(
    st.integers(min_value=1, max_value=67),   # n_samples (rows)
    st.integers(min_value=0, max_value=9),    # n_edges (columns)
)


def _random_presence(shape, seed, density=0.5):
    n, m = shape
    gen = np.random.default_rng(seed)
    return gen.random((n, m)) < density


def _pack(presence):
    return np.packbits(presence, axis=0)


class TestBitKernels:
    @given(shape=matrix_shapes, seed=st.integers(0, 2**31),
           density=st.sampled_from([0.05, 0.5, 0.95]))
    @settings(max_examples=60, deadline=None)
    def test_column_counts(self, shape, seed, density):
        presence = _random_presence(shape, seed, density)
        got = kernels.column_counts(_pack(presence))
        np.testing.assert_array_equal(got, presence.sum(axis=0))

    @given(shape=matrix_shapes, seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_masked_column_counts(self, shape, seed):
        presence = _random_presence(shape, seed)
        gen = np.random.default_rng(seed + 1)
        row_mask = gen.random(shape[0]) < 0.5
        got = kernels.masked_column_counts(
            _pack(presence), kernels.pack_row_mask(row_mask)
        )
        np.testing.assert_array_equal(got, presence[row_mask].sum(axis=0))

    @given(shape=matrix_shapes, seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_row_sums(self, shape, seed):
        presence = _random_presence(shape, seed)
        got = kernels.row_sums(_pack(presence), shape[0])
        assert got.shape == (shape[0],)
        np.testing.assert_array_equal(got, presence.sum(axis=1))

    @pytest.mark.parametrize("m", [255, 256, 511, 700])
    @pytest.mark.parametrize("n", [0, 1, 13, 64, 203])
    @pytest.mark.parametrize("density", [0.5, 1.0])
    def test_row_sums_across_lane_chunks(self, m, n, density):
        # Each byte lane sums at most 255 columns before it is added to
        # the output, so widths at and past that chunk (and density 1.0,
        # where every lane saturates at 255) would expose a carry
        # between lanes.
        presence = _random_presence((n, m), n + m, density)
        got = kernels.row_sums(_pack(presence), n)
        assert got.dtype == np.int64 and got.shape == (n,)
        np.testing.assert_array_equal(got, presence.sum(axis=1))

    @pytest.mark.parametrize("n", [0, 5, 64])
    def test_row_sums_without_columns(self, n):
        packed = np.zeros((-(-n // 8), 0), dtype=np.uint8)
        got = kernels.row_sums(packed, n)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.zeros(n, dtype=np.int64))

    @pytest.mark.parametrize("m", [3, 255, 300])
    def test_row_sums_straddling_the_block(self, m, monkeypatch):
        # Shrink the block so a few hundred samples cross several block
        # boundaries; every row must still match the reference.
        monkeypatch.setattr(kernels, "_ROW_SUM_BLOCK_CELLS", 64)
        step = max(1, 64 // min(m, kernels._LANE_COLUMNS))
        for n_bytes in (step - 1, step, step + 1, 3 * step + 1):
            for n in (8 * n_bytes, 8 * n_bytes - 3):
                if n <= 0:
                    continue
                presence = _random_presence((n, m), n, 0.9)
                got = kernels.row_sums(_pack(presence), n)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, presence.sum(axis=1))

    def test_row_sums_peak_stays_below_the_boolean_matrix(self):
        # The lane lookups are eight bytes per packed byte: unblocked,
        # they alone are as large as the (N, m) boolean matrix.
        n, m = 80_000, 40
        packed = _pack(_random_presence((n, m), 7, 0.5))
        kernels.row_sums(packed[:8], 64)
        tracemalloc.start()
        try:
            kernels.row_sums(packed, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * m, (
            f"row_sums peak {peak} bytes vs boolean matrix {n * m} bytes")

    @given(shape=matrix_shapes, seed=st.integers(0, 2**31),
           density=st.sampled_from([0.5, 0.98]))
    @settings(max_examples=60, deadline=None)
    def test_and_reduce_columns(self, shape, seed, density):
        presence = _random_presence(shape, seed, density)
        full_bits = kernels.and_reduce_columns(_pack(presence))
        got = kernels.bits_at_rows(
            full_bits, np.arange(shape[0], dtype=np.int64)
        )
        np.testing.assert_array_equal(got, presence.all(axis=1))

    @given(shape=matrix_shapes, seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_gather_rows(self, shape, seed):
        presence = _random_presence(shape, seed)
        gen = np.random.default_rng(seed + 2)
        rows = np.flatnonzero(gen.random(shape[0]) < 0.4)
        got = kernels.gather_rows(_pack(presence), rows)
        np.testing.assert_array_equal(got, presence[rows])

    @given(shape=matrix_shapes, seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_unpack_matrix_roundtrip(self, shape, seed):
        presence = _random_presence(shape, seed)
        got = kernels.unpack_matrix(_pack(presence), shape[0])
        np.testing.assert_array_equal(got, presence)

    def test_popcount_all_byte_values(self):
        values = np.arange(256, dtype=np.uint8)
        expected = np.array([bin(v).count("1") for v in range(256)])
        np.testing.assert_array_equal(kernels.popcount(values), expected)


class TestDedupCandidatePatterns:
    @given(shape=matrix_shapes, seed=st.integers(0, 2**31),
           density=st.sampled_from([0.3, 0.95]))
    @settings(max_examples=60, deadline=None)
    def test_matches_np_unique_bit_for_bit(self, shape, seed, density):
        presence = _random_presence(shape, seed, density)
        gen = np.random.default_rng(seed + 3)
        rows = np.flatnonzero(gen.random(shape[0]) < 0.7)
        patterns, multiplicity = kernels.dedup_candidate_patterns(
            _pack(presence), rows
        )
        if rows.size == 0:
            assert patterns.shape[0] == 0
            return
        ref_patterns, ref_counts = np.unique(
            presence[rows], axis=0, return_counts=True
        )
        # Exact order match: the all-ones pattern sorts last in
        # np.unique's ascending lexicographic order, which is where the
        # packed kernel appends it.
        np.testing.assert_array_equal(patterns, ref_patterns)
        np.testing.assert_array_equal(multiplicity, ref_counts)

    @staticmethod
    def _assert_matches_np_unique(packed, presence, rows):
        patterns, multiplicity = kernels.dedup_candidate_patterns(
            packed, rows
        )
        ref_patterns, ref_counts = np.unique(
            presence[rows], axis=0, return_counts=True
        )
        assert patterns.dtype == bool and multiplicity.dtype == np.int64
        np.testing.assert_array_equal(patterns, ref_patterns)
        np.testing.assert_array_equal(multiplicity, ref_counts)

    @staticmethod
    def _repetitive_presence(n, m, seed):
        # Rows drawn from a small pool (plus all-ones rows and a few
        # fresh ones) so wide keys still collide and multiplicities > 1.
        gen = np.random.default_rng(seed)
        pool = gen.random((6, m)) < 0.6
        pool[0] = True
        presence = pool[gen.integers(0, len(pool), n)]
        fresh = gen.random(n) < 0.2
        presence[fresh] = gen.random((int(fresh.sum()), m)) < 0.5
        return presence

    # Key widths: 1..6 bytes of packed row, and both sides of every
    # byte boundary up to DEDUP_MAX_EDGES.
    @pytest.mark.parametrize("m", [1, 7, 8, 9, 16, 17, 31, 47, 48])
    @pytest.mark.parametrize("n", [1, 13, 67, 203])
    def test_every_key_width(self, m, n):
        presence = self._repetitive_presence(n, m, seed=m * 1000 + n)
        rows = np.flatnonzero(
            np.random.default_rng(n).random(n) < 0.8
        )
        if rows.size == 0:
            rows = np.array([0], dtype=np.int64)
        self._assert_matches_np_unique(_pack(presence), presence, rows)

    @pytest.mark.parametrize("m", [17, 48])
    def test_spilled_memmap_columns(self, m, tmp_path):
        presence = self._repetitive_presence(157, m, seed=m)
        packed = _pack(presence)
        path = tmp_path / "columns.bits"
        packed.tofile(path)
        mapped = np.memmap(path, dtype=np.uint8, mode="r",
                           shape=packed.shape)
        rows = np.arange(157, dtype=np.int64)
        self._assert_matches_np_unique(mapped, presence, rows)

    def test_wide_projection_skips_dedup(self):
        # Above DEDUP_MAX_EDGES the reference keeps duplicate rows with
        # unit multiplicities, in candidate order; the kernel must too.
        m = kernels.DEDUP_MAX_EDGES + 1
        presence = _random_presence((24, m), seed=9, density=0.9)
        rows = np.array([3, 3, 7, 20], dtype=np.int64)
        patterns, multiplicity = kernels.dedup_candidate_patterns(
            _pack(presence), rows
        )
        np.testing.assert_array_equal(patterns, presence[rows])
        np.testing.assert_array_equal(multiplicity, np.ones(4, dtype=np.int64))


def _random_candidate(n_nodes, density, seed):
    gen = np.random.default_rng(seed)
    edges = [
        (u, v) for u in range(n_nodes) for v in range(u + 1, n_nodes)
        if gen.random() < density
    ]
    return edges, list(range(n_nodes))


class TestTrussMask:
    @given(n_nodes=st.integers(2, 8), seed=st.integers(0, 2**31),
           n_rows=st.integers(0, 40), k=st.sampled_from([3, 4, 5]),
           density=st.sampled_from([0.4, 0.9]))
    @settings(max_examples=80, deadline=None)
    def test_matches_truss_ok_row_for_row(
        self, n_nodes, seed, n_rows, k, density
    ):
        edges, nodes = _random_candidate(n_nodes, 0.7, seed)
        classifier = kernels.WorldClassifier(edges, nodes, k)
        patterns = _random_presence((n_rows, len(edges)), seed + 1, density)
        got = classifier.truss_mask(patterns)
        assert got.shape == (n_rows,) and got.dtype == bool
        want = [
            classifier.truss_ok(np.flatnonzero(row)) for row in patterns
        ]
        np.testing.assert_array_equal(got, np.array(want, dtype=bool))
        # On connected rows the mask is the full world indicator.
        for i in np.flatnonzero(classifier.connected_mask(patterns)):
            present = [e for e, bit in zip(edges, patterns[i]) if bit]
            assert got[i] == world_is_connected_ktruss(nodes, present, k)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_candidate_without_triangles(self, k):
        # A path plus a star: no triangles, so only edgeless rows pass.
        edges = [(0, 1), (1, 2), (2, 3), (1, 4), (1, 5)]
        classifier = kernels.WorldClassifier(edges, list(range(6)), k)
        patterns = _random_presence((30, len(edges)), seed=k)
        patterns[0] = False
        got = classifier.truss_mask(patterns)
        np.testing.assert_array_equal(got, ~patterns.any(axis=1))
        assert got[0]

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_zero_rows(self, k):
        edges, nodes = _random_candidate(6, 0.8, seed=k)
        classifier = kernels.WorldClassifier(edges, nodes, k)
        got = classifier.truss_mask(np.zeros((0, len(edges)), dtype=bool))
        assert got.shape == (0,) and got.dtype == bool

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_row_counts_straddling_the_block(self, k, monkeypatch):
        # Shrink the block so a few dozen rows cross several block
        # boundaries; every row must still match the reference.
        monkeypatch.setattr(kernels.WorldClassifier, "_TRUSS_BLOCK_CELLS", 64)
        edges, nodes = _random_candidate(7, 0.9, seed=k)
        classifier = kernels.WorldClassifier(edges, nodes, k)
        n_triangles = classifier._triangle_columns().shape[0]
        assert n_triangles > 0
        step = max(1, 64 // n_triangles)
        for n_rows in (step - 1, step, step + 1, 3 * step + 1):
            patterns = _random_presence((n_rows, len(edges)), n_rows, 0.85)
            want = [
                classifier.truss_ok(np.flatnonzero(row)) for row in patterns
            ]
            np.testing.assert_array_equal(
                classifier.truss_mask(patterns), np.array(want, dtype=bool)
            )


def _reference_connected(nodes, edges, patterns):
    return np.array([
        world_is_connected_ktruss(
            nodes, [e for e, bit in zip(edges, row) if bit], 2)
        for row in patterns
    ], dtype=bool)


class TestConnectedMask:
    """``connected_mask`` against the pure-Python world reference.

    At k = 2 the truss clause of ``world_is_connected_ktruss`` is void,
    so the reference is exactly "the present edges connect every node".
    """

    @given(n_nodes=st.integers(0, 9), seed=st.integers(0, 2**31),
           n_rows=st.integers(0, 60),
           edge_density=st.sampled_from([0.15, 0.5, 0.9]),
           row_density=st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_row_for_row(
        self, n_nodes, seed, n_rows, edge_density, row_density
    ):
        # Sparse candidates leave isolated nodes; sparse rows make many
        # disconnected patterns; row_density 0 makes every row edgeless.
        edges, nodes = _random_candidate(n_nodes, edge_density, seed)
        classifier = kernels.WorldClassifier(edges, nodes, 2)
        patterns = _random_presence((n_rows, len(edges)), seed + 1,
                                    row_density)
        got = classifier.connected_mask(patterns)
        assert got.shape == (n_rows,) and got.dtype == bool
        np.testing.assert_array_equal(
            got, _reference_connected(nodes, edges, patterns))

    @pytest.mark.parametrize("n_nodes", range(10))
    def test_every_single_edge_and_edgeless_row(self, n_nodes):
        edges, nodes = _random_candidate(n_nodes, 1.0, seed=n_nodes)
        classifier = kernels.WorldClassifier(edges, nodes, 2)
        patterns = np.concatenate([
            np.zeros((1, len(edges)), dtype=bool),
            np.eye(len(edges), dtype=bool),
            np.ones((1, len(edges)), dtype=bool),
        ])
        np.testing.assert_array_equal(
            classifier.connected_mask(patterns),
            _reference_connected(nodes, edges, patterns))

    @pytest.mark.parametrize("n_nodes", [0, 1, 2, 7])
    def test_zero_rows(self, n_nodes):
        edges, nodes = _random_candidate(n_nodes, 1.0, seed=0)
        classifier = kernels.WorldClassifier(edges, nodes, 2)
        got = classifier.connected_mask(np.zeros((0, len(edges)), dtype=bool))
        assert got.shape == (0,) and got.dtype == bool

    def test_returns_a_fresh_array(self):
        # classify_worlds_packed overwrites the mask in place.
        edges, nodes = _random_candidate(5, 0.8, seed=3)
        classifier = kernels.WorldClassifier(edges, nodes, 2)
        patterns = _random_presence((20, len(edges)), seed=4, density=0.7)
        got = classifier.connected_mask(patterns)
        got[:] = ~got
        np.testing.assert_array_equal(
            classifier.connected_mask(patterns), ~got
        )


def _reference_partition(rows, cols, total):
    graph = nx.Graph()
    graph.add_nodes_from(range(total))
    graph.add_edges_from(zip(rows.tolist(), cols.tolist()))
    return {frozenset(c) for c in nx.connected_components(graph)}


def _label_partition(labels):
    blocks = {}
    for node, label in enumerate(labels.tolist()):
        blocks.setdefault(label, set()).add(node)
    return {frozenset(b) for b in blocks.values()}


def _fibonacci_rounds(n):
    """The general bound: the largest r with F(r + 1) <= n."""
    rounds, cur, nxt = 1, 1, 2
    while nxt <= n:
        rounds, cur, nxt = rounds + 1, nxt, cur + nxt
    return rounds


def _log2_rounds(n):
    """The path bound: ceil(log2(n)) + 1."""
    return math.ceil(math.log2(max(n, 1))) + 1


class TestComponentLabelRounds:
    """Worst cases for the root-hooking label loop, with its round bounds.

    ``n`` is the size of the largest component; every round reads the
    edge labels once, the final agreeing read included.
    """

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 33, 100, 513, 1000, 4096])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomly_relabelled_path(self, n, seed):
        gen = np.random.default_rng([n, seed])
        order = gen.permutation(n)
        rows, cols = order[:-1], order[1:]
        flip = gen.random(n - 1) < 0.5
        rows, cols = np.where(flip, cols, rows), np.where(flip, rows, cols)
        labels, rounds = kernels._component_labels(rows, cols, n)
        assert (labels == labels[0]).all()
        assert rounds <= _log2_rounds(n), (n, rounds)

    def test_sorted_paths_and_edgeless_graph(self):
        for n in (1, 2, 64, 4096):
            up = np.arange(n - 1)
            for rows, cols in ((up, up + 1), (up + 1, up)):
                labels, rounds = kernels._component_labels(rows, cols, n)
                assert (labels == labels[0]).all()
                assert rounds <= _log2_rounds(n)
        empty = np.zeros(0, dtype=np.int64)
        labels, rounds = kernels._component_labels(empty, empty, 5)
        np.testing.assert_array_equal(labels, np.arange(5))
        assert rounds == 1

    @pytest.mark.parametrize("n_nodes", [2, 3, 6, 9])
    @pytest.mark.parametrize("row_density", [0.0, 0.1, 0.3, 0.6])
    def test_stacked_single_edge_and_disconnected_patterns(
        self, n_nodes, row_density
    ):
        # The disjoint union connected_mask builds: 400 sparse patterns
        # plus every single-edge pattern, over a complete candidate. At
        # these sizes the general bound equals the path bound.
        assert _fibonacci_rounds(n_nodes) == _log2_rounds(n_nodes)
        edges, _ = _random_candidate(n_nodes, 1.0, seed=n_nodes)
        ends = np.array(edges, dtype=np.int64)
        patterns = np.concatenate([
            _random_presence((400, len(edges)), n_nodes, row_density),
            np.eye(len(edges), dtype=bool),
        ])
        t_idx, j_idx = np.nonzero(patterns)
        rows = t_idx * n_nodes + ends[j_idx, 0]
        cols = t_idx * n_nodes + ends[j_idx, 1]
        total = patterns.shape[0] * n_nodes
        labels, rounds = kernels._component_labels(rows, cols, total)
        assert _label_partition(labels) == _reference_partition(
            rows, cols, total)
        assert rounds <= _log2_rounds(n_nodes), (n_nodes, rounds)

    def test_tree_reaching_the_general_bound(self):
        # Roots 0 < 1 < 2 < 3, 4 < 5, 6, 7: nodes 3 and 4 are stalled
        # local minima in round one, so 8 nodes need 5 passes, one more
        # than a path of 8 nodes can.
        edges = np.array([(0, 5), (2, 6), (1, 7), (3, 5), (3, 6), (4, 6),
                          (4, 7)])
        labels, rounds = kernels._component_labels(edges[:, 0], edges[:, 1], 8)
        assert (labels == 0).all()
        assert rounds == _fibonacci_rounds(8) == _log2_rounds(8) + 1

    @given(n=st.integers(1, 60), seed=st.integers(0, 2**31),
           density=st.sampled_from([0.02, 0.05, 0.1, 0.3]))
    @settings(max_examples=60, deadline=None)
    def test_random_graph_partition(self, n, seed, density):
        gen = np.random.default_rng(seed)
        rows, cols = np.nonzero(np.triu(gen.random((n, n)) < density, 1))
        perm = gen.permutation(n)
        rows, cols = perm[rows], perm[cols]
        labels, rounds = kernels._component_labels(rows, cols, n)
        assert _label_partition(labels) == _reference_partition(
            rows, cols, n)
        assert rounds <= _fibonacci_rounds(n), (n, rounds)


def _classify_case(n_nodes, density, seed, n_samples):
    graph = dyadic_random_graph(n_nodes, density, seed)
    edges = [tuple(sorted(e)) for e in graph.edges()]
    if not edges:
        return None
    samples = WorldSampleSet.from_graph(graph, n_samples, seed=seed + 1)
    return graph, edges, samples


class TestClassifyWorldsPacked:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_reference(self, k, seed):
        case = _classify_case(7, 0.6, seed, n_samples=101)  # ragged N
        if case is None:
            pytest.skip("empty random graph")
        graph, edges, samples = case
        nodes = list(graph.nodes())
        matrix = samples.presence_matrix(edges)
        packed = samples.packed_columns(edges)
        rows = np.flatnonzero(
            np.random.default_rng(seed).random(samples.n_samples) < 0.8
        )
        assert classify_worlds(edges, nodes, k, matrix, rows) == \
            kernels.classify_worlds_packed(edges, nodes, k, packed, rows)

    def test_matches_reference_on_spilled_set(self, tmp_path):
        case = _classify_case(6, 0.7, seed=5, n_samples=77)
        graph, edges, samples = case
        nodes = list(graph.nodes())
        matrix = samples.presence_matrix(edges)
        rows = np.arange(samples.n_samples, dtype=np.int64)
        reference = classify_worlds(edges, nodes, 3, matrix, rows)
        samples.spill_to(tmp_path / "worlds.bits")
        assert samples.is_spilled
        packed = samples.packed_columns(edges)
        assert kernels.classify_worlds_packed(
            edges, nodes, 3, packed, rows
        ) == reference

    def test_exhaustive_set_matches_reference(self):
        graph = ProbabilisticGraph(
            [(0, 1, 0.75), (1, 2, 0.5), (0, 2, 0.75), (2, 3, 0.25)]
        )
        samples = exhaustive_sample_set(graph)
        edges = [tuple(sorted(e)) for e in graph.edges()]
        nodes = list(graph.nodes())
        rows = np.arange(samples.n_samples, dtype=np.int64)
        for k in (2, 3):
            assert kernels.classify_worlds_packed(
                edges, nodes, k, samples.packed_columns(edges), rows
            ) == classify_worlds(
                edges, nodes, k, samples.presence_matrix(edges), rows
            )

    @pytest.mark.parametrize("spill", [False, True])
    def test_oracle_estimates_bit_identical(self, spill, tmp_path):
        # End-to-end through the oracle: packed hot path vs a manual
        # reference computation of the same estimates, byte for byte.
        graph = dyadic_random_graph(6, 0.7, seed=11)
        samples = WorldSampleSet.from_graph(graph, 93, seed=12)
        edges = [tuple(sorted(e)) for e in graph.edges()]
        nodes = list(graph.nodes())
        matrix = samples.presence_matrix(edges)
        if spill:
            samples.spill_to(tmp_path / "worlds.bits")
        oracle = GlobalTrussOracle(samples)
        got = oracle._estimates(edges, nodes, 3)
        rows = np.arange(samples.n_samples, dtype=np.int64)
        counts = classify_worlds(edges, nodes, 3, matrix, rows)
        want = {e: c / samples.n_samples for e, c in counts.items()}
        assert got == want  # == on floats: bit-identity, not closeness


class TestOracleMemoContract:
    def _oracle(self, edges):
        graph = ProbabilisticGraph([(u, v, 1.0) for u, v in edges])
        return GlobalTrussOracle(WorldSampleSet.from_graph(graph, 40, seed=1))

    def test_classification_rejection_is_not_memoised(self):
        # Every world is the full candidate: it passes the size, per-edge
        # and connectivity bounds, and only the truss test rejects it
        # (the pendant edge (2, 3) lies in no triangle).
        edges = [(0, 1), (0, 2), (1, 2), (2, 3)]
        oracle = self._oracle(edges)
        before = oracle.cache_size()
        assert not oracle.satisfies_edges(edges, [0, 1, 2, 3], 3, 0.5)
        assert oracle.cache_size() == before

    def test_satisfied_candidate_is_memoised(self):
        edges = [(0, 1), (0, 2), (1, 2)]
        oracle = self._oracle(edges)
        assert oracle.satisfies_edges(edges, [0, 1, 2], 3, 0.5)
        assert oracle.cache_size() == 1
        assert oracle.satisfies_edges(edges, [0, 1, 2], 3, 0.5)
        assert oracle.cache_size() == 1


class TestVectorizedSupports:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_matches_reference(self, seed):
        graph = random_probabilistic_graph(14, 0.4, seed)
        assert edge_supports(graph) == edge_supports_reference(graph)

    def test_empty_and_triangle(self):
        assert edge_supports(ProbabilisticGraph()) == {}
        tri = ProbabilisticGraph([(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])
        assert edge_supports(tri) == edge_supports_reference(tri)


class TestSupportPmfKernel:
    @given(qs=q_lists)
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_reference(self, qs):
        got = support_pmfs([qs])[0]
        want = support_pmf(qs)
        assert len(got) == len(want)
        # Bitwise equality, not allclose: IEEE addition commutativity
        # makes the vectorised accumulation exactly the scalar one.
        for a, b in zip(got, want):
            assert a.hex() == b.hex()

    def test_one_row_loop_is_bitwise_the_batched_row(self):
        # Random rows mixing exact 0 and 1, subnormal and tiny factors
        # with uniform ones: the numpy-free one-row DP must reproduce
        # the batched DP's row bit for bit (signs of zero included).
        gen = np.random.default_rng(2016)
        specials = [0.0, 1.0, 5e-324, 2.2250738585072014e-308 / 3,
                    1e-300, 1e-17, 1.0 - 1e-16, 0.5]
        for _ in range(400):
            width = int(gen.integers(0, 24))
            row = [
                specials[gen.integers(len(specials))]
                if gen.random() < 0.4 else float(gen.random())
                for _ in range(width)
            ]
            got = support_pmf(row)
            want = support_pmfs([row])[0]
            assert [x.hex() for x in got] == [x.hex() for x in want], row

    @pytest.mark.parametrize("row", [
        [0.5, 1.5], [0.5, 1.0 + 1e-12], [-0.1], [0.3, float("nan")],
    ])
    def test_one_row_errors_match_the_batched_dp(self, row):
        with pytest.raises(ParameterError) as batched:
            support_pmfs([row])
        with pytest.raises(ParameterError) as single:
            support_pmf(row)
        assert str(single.value) == str(batched.value)

    @given(rows=st.integers(0, 30).flatmap(lambda width: st.lists(
        st.lists(st.one_of(st.sampled_from([0.0, 1.0]),
                           st.floats(0.0, 1.0)),
                 min_size=width, max_size=width),
        min_size=0, max_size=6)))
    @settings(max_examples=80, deadline=None)
    def test_batched_rows_bit_identical_to_reference(self, rows):
        # Exact list equality: batching across rows must leave each
        # row's IEEE operation sequence untouched.
        assert support_pmfs(rows) == [support_pmf(r) for r in rows]

    def test_zero_width_rows(self):
        assert support_pmfs([[], [], []]) == [[1.0], [1.0], [1.0]]
        assert support_pmfs([]) == []

    @pytest.mark.parametrize("rows", [
        [[0.5, 1.5]],
        [[0.5, 1.0 + 1e-12]],
        [[0.2], [-0.1]],
        [[0.3, float("nan")]],
        [[0.2], [0.3, 0.4]],
    ])
    def test_bad_rows_raise(self, rows):
        with pytest.raises(ParameterError):
            support_pmfs(rows)


class TestSpilledPeakAllocation:
    def test_classification_never_materialises_bool_matrix(self, tmp_path):
        # Regression for the unpack-everything bug: evaluating a
        # candidate against a spilled sample set used to start with
        # presence_matrix(), re-inflating the full (N, m) boolean
        # projection into RAM (8x the packed bits, defeating the
        # spill). The packed path's peak transient must stay under the
        # boolean matrix it replaced. High edge probabilities keep the
        # sampled worlds dominated by the all-edges pattern, the case
        # the popcount shortcut is built for.
        gen = np.random.default_rng(3)
        graph = ProbabilisticGraph()
        for u in range(12):
            graph.add_node(u)
        for u in range(12):
            for v in range(u + 1, 12):
                if gen.random() < 0.6:
                    graph.add_edge(u, v, 0.999)
        n_samples, n_edges = 80_000, graph.number_of_edges()
        bool_matrix_bytes = n_samples * n_edges
        assert bool_matrix_bytes >= 2_000_000
        samples = WorldSampleSet.from_graph(graph, n_samples, seed=4)
        samples.spill_to(tmp_path / "worlds.bits")
        oracle = GlobalTrussOracle(samples)
        edges = [tuple(sorted(e)) for e in graph.edges()]
        nodes = list(graph.nodes())
        # Warm up the classifier so a one-time import or first-call
        # transient cannot swamp the measurement (the numpy kernel has
        # none today: the warm-up moves the peak by under 1 KiB), then
        # drop the memoised estimates. The
        # warm-up nodes are only the covered endpoints so the world
        # classifier genuinely runs instead of fast-rejecting.
        warm_nodes = sorted({n for e in edges[:3] for n in e})
        oracle.satisfies_edges(edges[:3], warm_nodes, 2, 0.0)
        oracle.clear_cache()
        tracemalloc.start()
        try:
            oracle.satisfies_edges(edges, nodes, 3, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Packed projection + int64 row bookkeeping + partial-row
        # gather: strictly below the one boolean matrix the old path
        # materialised before it even computed its bounds. (The old
        # peak was >= 2x this: the full unpack plus np.unique's sort
        # copies over every candidate row — a regression reintroducing
        # either lands far above this line.)
        assert peak < bool_matrix_bytes, (
            f"classification peak {peak} bytes vs boolean matrix "
            f"{bool_matrix_bytes} bytes - the 8x unpack is back"
        )


class TestNoScipyImport:
    """The connectivity kernel is pure numpy: no run may import scipy.

    Importing ``scipy.sparse.csgraph`` on top of numpy costs a fresh
    interpreter ~0.3 s and ~33 MiB of peak RSS (2-vCPU VM), so a stray
    import must fail here rather than quietly bring that back.
    """

    SCRIPT = (
        "import sys\n"
        "from repro.graphs.generators import gnp_graph\n"
        "from repro.runtime import run_global\n"
        "graph = gnp_graph(10, 0.4, seed=3)\n"
        "gtd = run_global(graph, 0.3, method='gtd', seed=1, n_samples=60)\n"
        "gbu = run_global(graph, 0.3, method='gbu', seed=1, n_samples=60,\n"
        "                 batch_size=20, checkpoint_dir=sys.argv[1],\n"
        "                 workers=2)\n"
        "assert gtd.complete and gbu.complete\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n"
    )

    def test_global_runs_leave_scipy_unimported(self, tmp_path):
        import os
        import pathlib
        import subprocess
        import sys

        repo_root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path / "ck")],
            capture_output=True, text=True, env=env, cwd=repo_root,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", proc.stdout
