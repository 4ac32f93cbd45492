"""Deterministic k-core decomposition (Batagelj–Zaversnik peeling).

The k-core of a graph is its maximal subgraph in which every node has
degree at least k. The *core number* of a node is the largest k for
which it belongs to the k-core. This substrate backs the probabilistic
(k, eta)-core comparator of Bonchi et al. (KDD 2014) used in Section 6.4
of the paper.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.exceptions import ParameterError
from repro.graphs.probabilistic import ProbabilisticGraph
from repro.truss.decomposition import LevelQueue

__all__ = ["core_decomposition", "k_core_subgraph", "max_core_number"]

Node = Hashable


def core_decomposition(graph: ProbabilisticGraph) -> dict[Node, int]:
    """Return the core number of every node, in O(m) bucket-peeling time."""
    queue = LevelQueue({u: graph.degree(u) for u in graph.nodes()})
    core: dict[Node, int] = {}
    k = 0
    while queue:
        u, deg = queue.pop_min()
        k = max(k, deg)
        core[u] = k
        for v in graph.neighbors(u):
            queue.decrement(v, floor=deg)
    return core


def k_core_subgraph(graph: ProbabilisticGraph, k: int) -> ProbabilisticGraph:
    """Return the (possibly disconnected) k-core of ``graph``."""
    if k < 0:
        raise ParameterError(f"k must be non-negative, got {k}")
    core = core_decomposition(graph)
    return graph.subgraph([u for u, c in core.items() if c >= k])


def max_core_number(graph: ProbabilisticGraph) -> int:
    """Return the degeneracy of ``graph`` (0 for an empty graph)."""
    core = core_decomposition(graph)
    return max(core.values(), default=0)
