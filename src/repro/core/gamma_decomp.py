"""Gamma decomposition: fixed k, all thresholds gamma (paper §7, open problem 2).

The paper's future-work section asks: *given k, how to find maximal
(local) (k, gamma)-trusses for every possible gamma?* The problem is
well-defined because each edge has a largest gamma for which it still
belongs to some local (k, gamma)-truss; call it the edge's
**gamma-trussness** at order k:

    gamma_k(e) = max over subgraphs H containing e of
                 min over e' in H of  Pr[sup_H(e') >= k-2] * p(e').

This module is the ``(2, 3)`` instance of the value-keyed driver of
:mod:`repro.core.nucleus`: it shares the retirement step of Algorithm
1's level-keyed peel, but pops by the *value* ``sigma(e, k-2) p(e)``.
The running maximum of popped values when an edge pops is exactly its
gamma-trussness (the max-min peeling argument, as in densest-subgraph
and onion decompositions).

Given the map, the maximal local (k, gamma)-trusses for *any* gamma are
the edge-connected clusters of ``{e : gamma_k(e) >= gamma}`` — no
re-decomposition needed per gamma.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.exceptions import ParameterError
from repro.graphs.components import edge_connected_components
from repro.graphs.probabilistic import ProbabilisticGraph, edge_key
from repro.core.nucleus import _CellState, _max_min_peel

__all__ = ["GammaTrussResult", "gamma_truss_decomposition"]

Node = Hashable
Edge = tuple[Node, Node]


@dataclass
class GammaTrussResult:
    """Gamma-trussness of every edge at a fixed truss order k.

    Attributes
    ----------
    graph:
        The input probabilistic graph (unmodified).
    k:
        The fixed truss order (>= 2).
    gamma_trussness:
        ``{edge: gamma_k(e)}`` — the largest gamma for which the edge is
        in some local (k, gamma)-truss. Zero means the edge can never
        reach support k - 2 (e.g. too few structural triangles).
    """

    graph: ProbabilisticGraph
    k: int
    gamma_trussness: dict[Edge, float]
    _levels_cache: list[float] | None = field(default=None, repr=False)

    def gamma_of(self, u: Node, v: Node) -> float:
        """Return ``gamma_k((u, v))``."""
        return self.gamma_trussness[edge_key(u, v)]

    def thresholds(self) -> list[float]:
        """Distinct positive gamma values, descending.

        Between consecutive thresholds the decomposition is constant, so
        these are the only "interesting" gammas.
        """
        if self._levels_cache is None:
            values = {g for g in self.gamma_trussness.values() if g > 0.0}
            self._levels_cache = sorted(values, reverse=True)
        return list(self._levels_cache)

    def maximal_trusses_at(self, gamma: float) -> list[ProbabilisticGraph]:
        """Return the maximal local (k, gamma)-trusses for this gamma.

        Simply clusters ``{e : gamma_k(e) >= gamma}`` — O(surviving
        edges), no re-peeling.
        """
        if not 0.0 < gamma <= 1.0:
            raise ParameterError(f"gamma must be in (0, 1], got {gamma}")
        survivors = [
            e for e, g in self.gamma_trussness.items()
            if g >= gamma * (1.0 - 1e-9)
        ]
        clusters = edge_connected_components(self.graph, survivors)
        return [self.graph.edge_subgraph(c) for c in clusters]

    def hierarchy(self) -> dict[float, list[ProbabilisticGraph]]:
        """Return ``{gamma: maximal trusses}`` for every distinct threshold."""
        return {g: self.maximal_trusses_at(g) for g in self.thresholds()}


def gamma_truss_decomposition(
    graph: ProbabilisticGraph, k: int
) -> GammaTrussResult:
    """Compute the gamma-trussness of every edge at truss order ``k``.

    Max-min peeling: repeatedly retire the edge of least
    ``sigma(e, k-2) * p(e)`` (Eq. 8 updates as its triangles go) and
    assign it the running maximum of retired values, in
    O(m log m + triangle updates).
    """
    if k < 2:
        raise ParameterError(f"k must be at least 2, got {k}")
    gammas = _max_min_peel(_CellState(graph, 2), k)
    return GammaTrussResult(graph=graph, k=k, gamma_trussness=gammas)
