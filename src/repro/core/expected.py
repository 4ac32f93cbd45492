"""Expected-support truss semantics — the naive comparator.

An obvious-but-flawed way to extend trusses to probabilistic graphs is
to require *expected* support: every edge of H must satisfy
``E[sup_H(e)] >= k - 2``. The paper's local (k, gamma)-truss demands
probability mass instead (``Pr[sup >= k-2] >= gamma``), which
distinguishes one solid triangle from a hundred flimsy ones — the
expectation cannot. This module implements the naive semantics so the
difference can be measured (see the semantics ablation bench).

``E[sup(e)] = sum over common neighbours w of p(w,u) p(w,v)`` (linearity
of expectation; conditional on e existing), so the decomposition is a
max-min peel over real-valued supports, exactly like the gamma
decomposition's machinery.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Hashable

from repro.exceptions import ParameterError
from repro.graphs.components import edge_connected_components
from repro.graphs.probabilistic import ProbabilisticGraph, edge_key

__all__ = [
    "expected_support",
    "expected_truss_decomposition",
    "maximal_expected_trusses",
]

Node = Hashable
Edge = tuple[Node, Node]


def expected_support(graph: ProbabilisticGraph, u: Node, v: Node) -> float:
    """Return ``E[sup((u, v))]`` conditional on the edge existing."""
    return sum(
        graph.probability(w, u) * graph.probability(w, v)
        for w in graph.triangles_of_edge(u, v)
    )


def expected_truss_decomposition(
    graph: ProbabilisticGraph,
) -> dict[Edge, float]:
    """Return each edge's *expected trussness* ``tau_E(e)``.

    ``tau_E(e)`` is the largest real ``x`` such that e belongs to a
    connected subgraph in which every edge has expected support
    >= x - 2; the integer truss order achievable under expected-support
    semantics is ``floor(tau_E(e))``. Computed by max-min peeling on
    expected supports (updates are just subtractions — expectations are
    linear).
    """
    work = graph.copy()
    values: dict[Edge, float] = {}
    for u, v in work.edges():
        values[(u, v)] = expected_support(work, u, v)

    counter = itertools.count()
    heap = [(value, next(counter), e) for e, value in values.items()]
    heapq.heapify(heap)
    alive = set(values)
    result: dict[Edge, float] = {}
    running = 0.0
    while alive:
        value, _, e = heapq.heappop(heap)
        if e not in alive or value > values[e] + 1e-12:
            continue
        alive.discard(e)
        running = max(running, values[e])
        result[e] = running + 2.0
        u, v = e
        # Apexes in adjacency order: set order would make the sums,
        # and so the values, follow PYTHONHASHSEED.
        for w in work.triangles_of_edge(u, v):
            q_uw = work.probability(v, u) * work.probability(v, w)
            q_vw = work.probability(u, v) * work.probability(u, w)
            for other, q in ((edge_key(u, w), q_uw), (edge_key(v, w), q_vw)):
                if other in alive:
                    values[other] -= q
                    heapq.heappush(heap, (values[other], next(counter), other))
        work.remove_edge(u, v)
    return result


def maximal_expected_trusses(
    graph: ProbabilisticGraph, k: int,
    decomposition: dict[Edge, float] | None = None,
) -> list[ProbabilisticGraph]:
    """Maximal connected subgraphs with expected trussness >= ``k``."""
    if k < 2:
        raise ParameterError(f"k must be at least 2, got {k}")
    if decomposition is None:
        decomposition = expected_truss_decomposition(graph)
    survivors = [
        e for e, tau in decomposition.items() if tau >= k - 1e-9
    ]
    clusters = edge_connected_components(graph, survivors)
    return [graph.edge_subgraph(c) for c in clusters]
