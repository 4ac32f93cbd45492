"""The complete probabilistic truss frontier of a graph.

Section 7 of the paper leaves open how to decompose across *all* gamma
for a fixed k. :mod:`repro.core.gamma_decomp` answers that; this module
composes it across every feasible k into the full two-parameter
profile:

    frontier(e)[k] = gamma_k(e)
                   = the largest gamma such that e is in some local
                     (k, gamma)-truss,

for k = 2 .. k_struct_max. The frontier answers *any* (k, gamma) query
in O(1) per edge after one max-min peel per k, and exposes the
trade-off curve each edge lives on (how much probability mass it must
give up for one more unit of cohesion). Of the two peel drivers over
the engine's one retirement step (:mod:`repro.core.nucleus`), it runs
the value-keyed one, from edge PMFs built once per graph.

Frontier rows are non-increasing in k (a (k+1, gamma)-truss is a
(k, gamma)-truss), which the property tests pin down.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass

from repro.exceptions import ParameterError
from repro.graphs.components import edge_connected_components
from repro.graphs.probabilistic import ProbabilisticGraph, edge_key
from repro.core.nucleus import _CellState, _max_min_peel
from repro.truss.decomposition import truss_decomposition

__all__ = ["TrussFrontier", "truss_frontier"]

Node = Hashable
Edge = tuple[Node, Node]


@dataclass
class TrussFrontier:
    """Per-edge gamma-trussness across every feasible truss order k.

    Attributes
    ----------
    graph:
        The input probabilistic graph (unmodified).
    frontier:
        ``{edge: [g_2, g_3, ..., g_kmax]}`` where ``g_k`` is the edge's
        gamma-trussness at order k (index 0 holds k = 2). Rows are
        non-increasing.
    k_max:
        The largest structurally feasible truss order.
    """

    graph: ProbabilisticGraph
    frontier: dict[Edge, list[float]]
    k_max: int

    def gamma_at(self, u: Node, v: Node, k: int) -> float:
        """Return ``gamma_k((u, v))`` (0.0 beyond the feasible range)."""
        if k < 2:
            raise ParameterError(f"k must be at least 2, got {k}")
        row = self.frontier[edge_key(u, v)]
        idx = k - 2
        return row[idx] if idx < len(row) else 0.0

    def trussness_at(self, u: Node, v: Node, gamma: float) -> int:
        """Return the local trussness of (u, v) at threshold ``gamma``.

        The largest k with ``gamma_k(e) >= gamma`` — matching
        Algorithm 1's tau(e) (1 when even k = 2 fails).
        """
        if not 0.0 < gamma <= 1.0:
            raise ParameterError(f"gamma must be in (0, 1], got {gamma}")
        row = self.frontier[edge_key(u, v)]
        threshold = gamma * (1.0 - 1e-9)
        best = 1
        for idx, value in enumerate(row):
            if value >= threshold:
                best = idx + 2
        return best

    def maximal_trusses(self, k: int, gamma: float) -> list[ProbabilisticGraph]:
        """Maximal local (k, gamma)-trusses straight from the frontier."""
        if k < 2:
            raise ParameterError(f"k must be at least 2, got {k}")
        if not 0.0 < gamma <= 1.0:
            raise ParameterError(f"gamma must be in (0, 1], got {gamma}")
        threshold = gamma * (1.0 - 1e-9)
        idx = k - 2
        survivors = [
            e for e, row in self.frontier.items()
            if idx < len(row) and row[idx] >= threshold
        ]
        clusters = edge_connected_components(self.graph, survivors)
        return [self.graph.edge_subgraph(c) for c in clusters]

    def edge_profile(self, u: Node, v: Node) -> list[tuple[int, float]]:
        """Return the (k, gamma_k) trade-off curve of one edge."""
        row = self.frontier[edge_key(u, v)]
        return [(k, g) for k, g in enumerate(row, start=2)]


def truss_frontier(graph: ProbabilisticGraph) -> TrussFrontier:
    """Compute the full (k, gamma) truss frontier of ``graph``.

    One max-min peel per feasible k, from k = 2 to the graph's
    *structural* k_max (beyond which every gamma-trussness is 0). The
    edges and their initial PMFs are built once; each peel runs on its
    own copy of the PMFs and death marks. Rows are clipped to be
    non-increasing in k, absorbing float dust at level boundaries.
    """
    structural = truss_decomposition(graph)
    k_max = max(structural.values(), default=0)
    frontier: dict[Edge, list[float]] = {
        edge_key(u, v): [] for u, v in graph.edges()
    }
    cells = _CellState(graph, 2)
    for k in range(2, k_max + 1):
        for e, value in _max_min_peel(cells.fork(), k).items():
            row = frontier[e]
            if row and value > row[-1]:
                value = row[-1]  # enforce monotonicity against dust
            row.append(value)
    return TrussFrontier(graph=graph, frontier=frontier, k_max=k_max)
