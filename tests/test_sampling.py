"""Unit tests for possible-world sampling and the bit-packed sample set."""

import math
import tracemalloc

import numpy as np
import pytest

from repro import (
    EdgeNotFoundError,
    ParameterError,
    ProbabilisticGraph,
    WorldSampleSet,
    hoeffding_sample_size,
)
from repro.graphs.generators import gnp_graph
from repro.graphs.sampling import SampleBatcher
from repro.runtime import run_global


class TestHoeffdingSampleSize:
    def test_paper_setting(self):
        # eps = delta = 0.1 -> N >= ln(20)/0.02 ~ 149.8; the paper uses 150.
        assert hoeffding_sample_size(0.1, 0.1) == 150

    def test_formula(self):
        eps, delta = 0.05, 0.01
        expected = math.ceil(math.log(2 / delta) / (2 * eps * eps))
        assert hoeffding_sample_size(eps, delta) == expected

    def test_tighter_epsilon_needs_more_samples(self):
        assert hoeffding_sample_size(0.01, 0.1) > hoeffding_sample_size(0.1, 0.1)

    @pytest.mark.parametrize("eps,delta", [(0, 0.1), (0.1, 0), (1.5, 0.1), (0.1, 1.5)])
    def test_invalid_parameters(self, eps, delta):
        with pytest.raises(ParameterError):
            hoeffding_sample_size(eps, delta)


class TestWorldSampleSet:
    def test_shapes(self, paper_graph):
        samples = WorldSampleSet.from_graph(paper_graph, 64, seed=1)
        assert samples.n_samples == 64
        assert samples.n_edges == paper_graph.number_of_edges()
        # Any integral type is a count, numpy's included.
        samples = WorldSampleSet.from_graph(paper_graph, np.int64(9), seed=1,
                                            batch_size=np.int32(4))
        assert samples.n_samples == 9

    def test_invalid_sample_count(self, paper_graph):
        draws = [
            lambda: WorldSampleSet.from_graph(paper_graph, 0, seed=1),
            lambda: WorldSampleSet.from_graph(paper_graph, 10.5, seed=1),
            lambda: WorldSampleSet.from_graph(paper_graph, True, seed=1),
            lambda: WorldSampleSet.from_graph(paper_graph, 10, seed=1,
                                              batch_size=2.5),
            lambda: run_global(paper_graph, 0.3, seed=1, n_samples=30.5),
        ]
        for draw in draws:
            with pytest.raises(ParameterError):
                draw()

    def test_deterministic_under_seed(self, paper_graph):
        a = WorldSampleSet.from_graph(paper_graph, 32, seed=5)
        b = WorldSampleSet.from_graph(paper_graph, 32, seed=5)
        for u, v in paper_graph.edges():
            assert np.array_equal(a.edge_bits(u, v), b.edge_bits(u, v))

    def test_edge_bits_round_trip(self):
        presence = np.array(
            [[True, False], [False, True], [True, True]], dtype=bool
        )
        samples = WorldSampleSet(presence, [("a", "b"), ("b", "c")])
        assert np.array_equal(
            samples.edge_bits("a", "b"), np.array([True, False, True])
        )
        assert np.array_equal(
            samples.edge_bits("c", "b"), np.array([False, True, True])
        )

    def test_certain_edge_bits(self, rng):
        g = ProbabilisticGraph([("a", "b", 1.0)])
        samples = WorldSampleSet.from_graph(g, 40, seed=rng)
        assert samples.edge_bits("a", "b").all()

    def test_unknown_edge_raises(self, paper_graph):
        samples = WorldSampleSet.from_graph(paper_graph, 8, seed=1)
        with pytest.raises(EdgeNotFoundError):
            samples.edge_bits("p1", "v3")

    def test_presence_matrix_projection(self, paper_graph):
        samples = WorldSampleSet.from_graph(paper_graph, 16, seed=2)
        edges = [("q1", "v1"), ("v1", "v2")]
        matrix = samples.presence_matrix(edges)
        assert matrix.shape == (16, 2)
        # Column order follows the requested edge order.
        assert np.array_equal(matrix[:, 0], samples.edge_bits("q1", "v1"))

    def test_presence_matrix_empty(self, paper_graph):
        samples = WorldSampleSet.from_graph(paper_graph, 16, seed=2)
        assert samples.presence_matrix([]).shape == (16, 0)

    def test_edge_frequency_certain(self):
        g = ProbabilisticGraph([("a", "b", 1.0), ("b", "c", 0.0)])
        samples = WorldSampleSet.from_graph(g, 30, seed=1)
        assert samples.edge_frequency("a", "b") == 1.0
        assert samples.edge_frequency("b", "c") == 0.0

    def test_edge_frequency_statistical(self):
        g = ProbabilisticGraph([("a", "b", 0.25)])
        samples = WorldSampleSet.from_graph(g, 5000, seed=6)
        assert abs(samples.edge_frequency("a", "b") - 0.25) < 0.03

    def test_bit_packing_memory(self, paper_graph):
        # 150 samples need ceil(150 / 8) = 19 bytes per edge.
        samples = WorldSampleSet.from_graph(paper_graph, 150, seed=1)
        assert samples.nbytes() == 19 * paper_graph.number_of_edges()

    def test_empty_graph(self):
        samples = WorldSampleSet.from_graph(ProbabilisticGraph(), 5, seed=1)
        assert samples.n_edges == 0
        assert samples.presence_matrix([]).shape == (5, 0)

    def test_rejects_bad_matrix(self):
        with pytest.raises(ParameterError):
            WorldSampleSet(np.zeros((3,), dtype=bool), [("a", "b")])

    def test_rejects_empty_sample_set(self):
        # Regression: a (0, m) presence matrix used to be accepted, and
        # every downstream edge_frequency() then divided by zero.
        with pytest.raises(ParameterError, match="at least one sampled world"):
            WorldSampleSet(
                np.zeros((0, 2), dtype=bool), [("a", "b"), ("b", "c")]
            )

    def test_from_packed_rejects_zero_samples(self):
        with pytest.raises(ParameterError, match="at least one sampled world"):
            WorldSampleSet.from_packed(
                np.zeros((0, 1), dtype=np.uint8), 0, [("a", "b")]
            )

    def test_packed_round_trip(self, paper_graph):
        samples = WorldSampleSet.from_graph(paper_graph, 26, seed=7)
        again = WorldSampleSet.from_packed(
            samples.packed_bits, samples.n_samples, list(samples.edge_index)
        )
        assert again.n_samples == samples.n_samples
        for u, v in paper_graph.edges():
            assert np.array_equal(
                again.edge_bits(u, v), samples.edge_bits(u, v)
            )

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ParameterError):
            WorldSampleSet(
                np.zeros((3, 2), dtype=bool), [("a", "b"), ("a", "b")]
            )


class TestFromGraphBatching:
    """``from_graph`` always draws through ``SampleBatcher``; every
    batch size, with or without a progress hook, gives the worlds of
    one single-shot draw of the same seed."""

    N = 45

    @staticmethod
    def _single_shot(graph, n, seed):
        probs = [p for _, _, p in graph.edges_with_probabilities()]
        presence = np.random.default_rng(seed).random((n, len(probs)))
        return np.packbits(presence < np.asarray(probs), axis=0)

    @pytest.mark.parametrize("batch_size", [None, 1, 7, 8, 9, 25, N])
    @pytest.mark.parametrize("hooked", [False, True])
    def test_packed_bits_equal_single_shot(self, paper_graph, batch_size,
                                           hooked):
        events = []
        samples = WorldSampleSet.from_graph(
            paper_graph, self.N, seed=11, batch_size=batch_size,
            progress=events.append if hooked else None,
        )
        assert np.array_equal(samples.packed_bits,
                              self._single_shot(paper_graph, self.N, 11))
        n_batches = -(-self.N // (batch_size or self.N))
        if hooked:
            assert [e.phase for e in events] == ["sample-batch"] * n_batches
            assert [e.step for e in events] == list(range(n_batches))
            assert all(e.total == n_batches for e in events)

    @pytest.mark.parametrize("batch_size", [1, 7, 8, 9, 25])
    def test_partial_prefix_equals_single_shot(self, paper_graph, batch_size):
        batcher = SampleBatcher(paper_graph, self.N, batch_size, seed=11)
        while batcher.batches_drawn < batcher.n_batches - 1:
            batcher.draw_next()
            drawn = batcher.samples_drawn
            assert np.array_equal(
                batcher.result(partial_ok=True).packed_bits,
                self._single_shot(paper_graph, drawn, 11),
            )

    def test_sampling_peak_stays_near_the_packed_size(self):
        # 20 000 worlds x 804 edges pack into 1.9 MiB; one 500-row batch
        # of float draws is 3.1 MiB. Holding boolean batches and
        # re-packing them at the end peaked near 33 MiB.
        graph = gnp_graph(60, 0.45, seed=3)
        tracemalloc.start()
        try:
            batcher = SampleBatcher(graph, 20_000, 500, seed=0)
            while batcher.batches_drawn < batcher.n_batches:
                batcher.draw_next()
            samples = batcher.result()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert samples.packed_bits.shape == (2500, 804)
        assert peak < 8 * 2**20, f"sampling peaked at {peak / 2**20:.1f} MiB"

    def test_edgeless_graph(self):
        graph = ProbabilisticGraph()
        graph.add_node("x")
        samples = WorldSampleSet.from_graph(graph, 9, seed=1, batch_size=4)
        assert samples.n_samples == 9
        assert samples.packed_bits.shape == (2, 0)
