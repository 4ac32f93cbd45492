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

__all__ = ["core_decomposition", "k_core_subgraph", "max_core_number"]

Node = Hashable


def core_decomposition(graph: ProbabilisticGraph) -> dict[Node, int]:
    """Return the core number of every node, in O(m) bucket-peeling time."""
    degree = {u: graph.degree(u) for u in graph.nodes()}
    if not degree:
        return {}
    max_degree = max(degree.values())
    # Insertion-ordered dict buckets, not sets: the pop order, and with
    # it the order of the result, does not depend on PYTHONHASHSEED.
    buckets: list[dict[Node, None]] = [{} for _ in range(max_degree + 1)]
    for u, d in degree.items():
        buckets[d][u] = None

    core: dict[Node, int] = {}
    removed: set[Node] = set()
    cursor = 0
    k = 0
    for _ in range(len(degree)):
        while not buckets[cursor]:
            cursor += 1
        u, _ = buckets[cursor].popitem()
        k = max(k, cursor)
        core[u] = k
        removed.add(u)
        for v in graph.neighbors(u):
            if v in removed:
                continue
            d = degree[v]
            if d > cursor:
                del buckets[d][v]
                degree[v] = d - 1
                buckets[d - 1][v] = None
                if d - 1 < cursor:
                    cursor = d - 1
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
