"""Unit tests for the importance-sampling alpha estimator."""

import math

import numpy as np
import pytest

from repro import ParameterError, ProbabilisticGraph, alpha_exact
from repro.core.global_truss import world_is_connected_ktruss
from repro.core.importance import alpha_importance
from repro.graphs.generators import complete_graph, running_example
from repro.graphs.probabilistic import edge_key
from tests.conftest import random_probabilistic_graph


class TestValidation:
    def test_invalid_parameters(self, triangle):
        with pytest.raises(ParameterError):
            alpha_importance(triangle, 1)
        with pytest.raises(ParameterError):
            alpha_importance(triangle, 3, n_samples=0)
        with pytest.raises(ParameterError):
            alpha_importance(triangle, 3, tilt_floor=1.0)

    def test_empty_subgraph(self, empty_graph):
        result = alpha_importance(empty_graph, 3, n_samples=10, seed=1)
        assert dict(result) == {}
        assert result.effective_sample_size == 0.0


class TestUnbiasedness:
    def test_matches_exact_on_h2(self):
        g = running_example()
        h2 = g.subgraph(["q1", "v1", "v2", "v3"])
        exact = alpha_exact(h2, 4)
        means = {e: [] for e in exact}
        for trial in range(20):
            estimate = alpha_importance(h2, 4, n_samples=400, seed=trial)
            for e in exact:
                means[e].append(estimate[e])
        for e, samples in means.items():
            assert abs(np.mean(samples) - exact[e]) < 0.01

    def test_certain_graph(self):
        g = complete_graph(4, 1.0)
        estimate = alpha_importance(g, 4, n_samples=50, seed=1)
        assert all(math.isclose(v, 1.0) for v in estimate.values())
        assert estimate.qualifying_fraction == 1.0

    def test_zero_probability_edge_gets_zero(self):
        g = ProbabilisticGraph(
            [("a", "b", 0.0), ("b", "c", 0.9), ("a", "c", 0.9)]
        )
        estimate = alpha_importance(g, 2, n_samples=500, seed=2)
        assert estimate[("a", "b")] == 0.0


class TestRareEventRegime:
    def test_plain_mc_blind_where_is_sees(self):
        """A 6-edge chain of p = 0.1: reliability 1e-6. Plain MC with
        N = 2000 virtually never sees a qualifying world; importance
        sampling estimates it within a factor of two."""
        p = 0.1
        chain = ProbabilisticGraph(
            [(i, i + 1, p) for i in range(6)]
        )
        true_alpha = p ** 6  # connected only when all edges exist

        # Plain MC via the standard oracle machinery.
        from repro import GlobalTrussOracle, WorldSampleSet

        samples = WorldSampleSet.from_graph(chain, 2000, seed=3)
        plain = GlobalTrussOracle(samples).alpha_estimates(chain, 2)
        assert max(plain.values()) == 0.0  # blind

        estimate = alpha_importance(chain, 2, n_samples=2000, seed=3,
                                    tilt_floor=0.9)
        for value in estimate.values():
            assert true_alpha / 2 <= value <= true_alpha * 2
        assert estimate.qualifying_fraction > 0.3

    def test_h1_small_alpha(self):
        """H1's alpha is 0.5^6 ~ 0.016; IS with few samples still lands
        within 30% on average."""
        g = running_example()
        h1 = g.subgraph(["q1", "q2", "v1", "v2", "v3"])
        exact = 0.5 ** 6
        values = []
        for trial in range(15):
            estimate = alpha_importance(h1, 4, n_samples=300,
                                        seed=100 + trial)
            values.append(min(estimate.values()))
        assert abs(np.mean(values) - exact) < exact * 0.3

    def test_diagnostics_sane(self):
        g = running_example()
        h2 = g.subgraph(["q1", "v1", "v2", "v3"])
        estimate = alpha_importance(h2, 4, n_samples=500, seed=9)
        assert 0.0 < estimate.qualifying_fraction <= 1.0
        assert 0.0 < estimate.effective_sample_size <= 500
        assert estimate.n_samples == 500


def _alpha_importance_reference(subgraph, k, n_samples, seed, tilt_floor):
    """The per-world loop ``alpha_importance`` ran before it classified
    all draws with the packed kernel: ``(items, n_samples,
    qualifying_fraction, effective_sample_size)``."""
    rng = np.random.default_rng(seed)
    edges, p = [], []
    for u, v, prob in subgraph.edges_with_probabilities():
        edges.append(edge_key(u, v))
        p.append(prob)
    nodes = list(subgraph.nodes())
    m = len(edges)
    totals = {e: 0.0 for e in edges}
    p = np.asarray(p)
    q = np.where(p > 0.0, np.maximum(p, tilt_floor), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_present = np.where(q > 0, np.log(p) - np.log(q), 0.0)
        log_absent = np.where(q < 1.0, np.log1p(-p) - np.log1p(-q), 0.0)
    draws = rng.random((n_samples, m)) < q
    qualifying = 0
    weights_seen = []
    for row in draws:
        present = [edges[j] for j in np.flatnonzero(row)]
        if not present:
            continue
        if not world_is_connected_ktruss(nodes, present, k):
            continue
        qualifying += 1
        w = math.exp(float(log_present[row].sum() + log_absent[~row].sum()))
        weights_seen.append(w)
        for e in present:
            totals[e] += w
    items = [(e, t / n_samples) for e, t in totals.items()]
    if weights_seen:
        ws = np.asarray(weights_seen)
        ess = float(ws.sum() ** 2 / (ws ** 2).sum())
    else:
        ess = 0.0
    return items, n_samples, qualifying / n_samples, ess


def _reference_graphs():
    g = running_example()
    isolated = complete_graph(5, 0.7)
    isolated.add_node("lonely")
    mixed = ProbabilisticGraph(
        [(0, "a", 0.9), ("a", 1, 0.7), (1, 0, 0.6), (1, "b", 0.85),
         ("b", 0, 0.95), ("a", "b", 0.5)]
    )
    return {
        "h1": g.subgraph(["q1", "q2", "v1", "v2", "v3"]),
        "h2": g.subgraph(["q1", "v1", "v2", "v3"]),
        "isolated": isolated,
        "mixed": mixed,
        "random": random_probabilistic_graph(7, 0.7, 2),
    }


class TestAgainstPerWorldReference:
    """Items and diagnostics are bit-equal to the per-world loop."""

    @staticmethod
    def _bits(items, n, fraction, ess):
        return ([(e, v.hex()) for e, v in items], n, fraction.hex(),
                float(ess).hex())

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("name", list(_reference_graphs()))
    def test_bit_equal(self, name, k):
        g = _reference_graphs()[name]
        for seed, floor in ((1, 0.75), (2, 0.9)):
            got = alpha_importance(g, k, n_samples=300, seed=seed,
                                   tilt_floor=floor)
            want = _alpha_importance_reference(g, k, 300, seed, floor)
            assert self._bits(list(got.items()), got.n_samples,
                              got.qualifying_fraction,
                              got.effective_sample_size) == self._bits(*want)

    def test_cases_are_not_degenerate(self):
        """Most cases qualify some worlds, and the isolated-node graph's
        other nodes do connect, so a classifier that forgot the
        isolated node would credit them."""
        graphs = _reference_graphs()
        nonzero = sum(
            _alpha_importance_reference(g, k, 300, 1, 0.75)[2] > 0.0
            for g in graphs.values() for k in (2, 3, 4)
        )
        assert nonzero >= 8
        core = graphs["isolated"].subgraph(range(5))
        assert _alpha_importance_reference(core, 2, 300, 1, 0.75)[2] > 0.0
