"""Differential cross-checks between independent implementations.

Three families of redundant computations the code base carries are
compared on shared seeded inputs (``tests/strategies.py``):

* **GTD vs. exhaustive enumeration** — Algorithm 4 is exact *with
  respect to its sample set*; feeding it the exact world distribution
  (:func:`~tests.strategies.exhaustive_sample_set`, dyadic
  probabilities) removes the sampling error entirely, so its answers
  must equal :func:`~repro.core.exact_enum.exact_global_decomposition`
  for every non-dyadic gamma. The same inputs run with ``workers=1``
  must serialise to the same bytes as with ``workers=None``.
* **Support DP vs. brute force** — Algorithm 2's O(k^2) dynamic program
  against the O(2^k) enumeration oracle, exact (``==``) on dyadic
  factor lists and within float tolerance on arbitrary ones.
* **GBU as a lower bound of GTD** — the heuristic may miss answers but
  must never report anything the exact search would not contain: every
  GBU truss is an edge-subgraph of some GTD truss at the same level,
  when both run against one shared sample set.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact_enum import exact_global_decomposition
from repro.core.global_decomp import global_truss_decomposition
from repro.core.support_prob import support_pmf, support_pmf_bruteforce
from repro.graphs.probabilistic import edge_key
from repro.runtime.result import serialize_global_result
from tests.strategies import (
    dyadic_probabilities,
    dyadic_random_graph,
    exhaustive_sample_set,
    q_lists,
)

#: Non-dyadic thresholds: every exact alpha is a multiple of 1/65536,
#: so no alpha can tie with (or sit inside the 1e-9 guard band below)
#: any of these gammas — the Monte-Carlo threshold and the exact
#: Definition 3 test then classify identically.
GAMMAS = (0.3, 0.55, 0.7)


def _small_dyadic_graphs(first_seed, want, max_edges=8):
    """Seeded dyadic graphs with between 3 and ``max_edges`` edges."""
    out = []
    seed = first_seed
    while len(out) < want:
        g = dyadic_random_graph(6, 0.45, seed)
        if 3 <= g.number_of_edges() <= max_edges:
            out.append((seed, g))
        seed += 1
    return out


def _canon(trusses):
    """Order-free form of a truss list: sorted tuples of edge keys."""
    return sorted(
        tuple(sorted(edge_key(u, v) for u, v in t.edges()))
        for t in trusses
    )


def _levels(trusses_by_k):
    return {k: _canon(ts) for k, ts in trusses_by_k.items() if ts}


class TestGTDAgainstExhaustiveEnumeration:
    @pytest.mark.parametrize(
        "seed,graph", _small_dyadic_graphs(0, 4),
        ids=lambda v: str(v) if isinstance(v, int) else "",
    )
    def test_gtd_equals_exact_decomposition(self, seed, graph):
        samples = exhaustive_sample_set(graph)
        for gamma in GAMMAS:
            exact = exact_global_decomposition(graph, gamma)
            result = global_truss_decomposition(
                graph, gamma, method="gtd", samples=samples, seed=0,
                max_states=200_000,
            )
            assert _levels(result.trusses) == _levels(exact), (
                f"seed={seed} gamma={gamma}"
            )

    @pytest.mark.parametrize(
        "seed,graph", _small_dyadic_graphs(0, 4),
        ids=lambda v: str(v) if isinstance(v, int) else "",
    )
    def test_inline_frontier_path_matches_serial_bytes(self, seed, graph):
        samples = exhaustive_sample_set(graph)
        for gamma in GAMMAS:
            serial = global_truss_decomposition(
                graph, gamma, method="gtd", samples=samples, seed=0,
                max_states=200_000,
            )
            inline = global_truss_decomposition(
                graph, gamma, method="gtd", samples=samples, seed=0,
                max_states=200_000, workers=1,
            )
            assert (serialize_global_result(serial)
                    == serialize_global_result(inline))

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "seed,graph", _small_dyadic_graphs(100, 12),
        ids=lambda v: str(v) if isinstance(v, int) else "",
    )
    def test_gtd_equals_exact_decomposition_sweep(self, seed, graph):
        samples = exhaustive_sample_set(graph)
        for gamma in GAMMAS:
            exact = exact_global_decomposition(graph, gamma)
            result = global_truss_decomposition(
                graph, gamma, method="gtd", samples=samples, seed=0,
                max_states=200_000,
            )
            assert _levels(result.trusses) == _levels(exact), (
                f"seed={seed} gamma={gamma}"
            )


class TestSupportPMFDifferential:
    @given(st.lists(dyadic_probabilities, min_size=0, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_dp_exactly_equals_bruteforce_on_dyadic_factors(self, qs):
        # Dyadic factors make every product exact, so the DP and the
        # enumeration must agree bit for bit, not just within tolerance.
        assert list(support_pmf(qs)) == list(support_pmf_bruteforce(qs))

    @given(q_lists)
    @settings(max_examples=60, deadline=None)
    def test_dp_matches_bruteforce_within_float_tolerance(self, qs):
        assert np.allclose(support_pmf(qs), support_pmf_bruteforce(qs),
                           atol=1e-12)


class TestGBULowerBoundsGTD:
    @pytest.mark.parametrize(
        "seed,graph", _small_dyadic_graphs(200, 4),
        ids=lambda v: str(v) if isinstance(v, int) else "",
    )
    def test_every_gbu_truss_is_inside_some_gtd_truss(self, seed, graph):
        samples = exhaustive_sample_set(graph)
        for gamma in GAMMAS:
            gtd = global_truss_decomposition(
                graph, gamma, method="gtd", samples=samples, seed=3,
                max_states=200_000,
            )
            gbu = global_truss_decomposition(
                graph, gamma, method="gbu", samples=samples, seed=3,
            )
            for k, trusses in gbu.trusses.items():
                exact_level = [
                    {edge_key(u, v) for u, v in t.edges()}
                    for t in gtd.trusses.get(k, [])
                ]
                for t in trusses:
                    edges = {edge_key(u, v) for u, v in t.edges()}
                    assert any(edges <= full for full in exact_level), (
                        f"seed={seed} gamma={gamma} k={k}: GBU reported "
                        "a truss no exact answer contains"
                    )
