"""Deterministic k-truss decomposition by iterative peeling.

Implements the classical algorithm of Cohen (2008) with the bucket-queue
organisation of Wang & Cheng (PVLDB 2012): repeatedly remove the edge of
minimum support, assign its trussness, and decrement the support of the
two co-triangle edges of every destroyed triangle. Trussness of an edge
``e`` is the largest ``k`` such that ``e`` lies in a k-truss subgraph;
every edge of a non-empty graph has trussness at least 2.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.exceptions import ParameterError
from repro.graphs.probabilistic import ProbabilisticGraph, edge_key
from repro.truss.support import edge_supports

__all__ = ["truss_decomposition", "is_k_truss", "k_truss_subgraph", "max_trussness"]

Node = Hashable
Edge = tuple[Node, Node]


class _BucketQueue:
    """Monotone bucket queue over (edge, level) pairs.

    Levels only decrease by 1 per triangle removal, so a plain list of
    buckets with a moving cursor gives O(1) amortised operations — the
    bin-sort structure of [Wang & Cheng 2012]. Buckets are
    insertion-ordered dicts rather than sets, so the pop order does not
    depend on ``PYTHONHASHSEED``.
    """

    def __init__(self, levels: dict[Edge, int]):
        self._level = dict(levels)
        max_level = max(levels.values(), default=0)
        self._buckets: list[dict[Edge, None]] = [
            {} for _ in range(max_level + 1)]
        for e, lvl in levels.items():
            self._buckets[lvl][e] = None
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._level)

    def pop_min(self) -> tuple[Edge, int]:
        """Remove and return an (edge, level) pair of minimum level."""
        while not self._buckets[self._cursor]:
            self._cursor += 1
        e, _ = self._buckets[self._cursor].popitem()
        del self._level[e]
        return e, self._cursor

    def decrement(self, e: Edge, floor: int) -> None:
        """Decrease the level of ``e`` by one, but never below ``floor``."""
        lvl = self._level.get(e)
        if lvl is None or lvl <= floor:
            return
        del self._buckets[lvl][e]
        lvl -= 1
        self._level[e] = lvl
        self._buckets[lvl][e] = None
        if lvl < self._cursor:
            self._cursor = lvl


def truss_decomposition(graph: ProbabilisticGraph) -> dict[Edge, int]:
    """Return the trussness ``tau(e)`` of every edge (probabilities ignored).

    ``tau(e)`` is the maximum ``k`` for which ``e`` belongs to a k-truss
    subgraph of ``graph``. The peeling runs in O(m^1.5)-style time: each
    removal touches only the triangles through the removed edge.
    """
    work = graph.copy()
    supports = edge_supports(work)
    queue = _BucketQueue(supports)
    trussness: dict[Edge, int] = {}
    k = 2
    while queue:
        e, sup = queue.pop_min()
        # Support sup means e survives in a (sup + 2)-truss at best *now*;
        # trussness is monotone over the peel, hence the running max.
        k = max(k, sup + 2)
        trussness[e] = k
        u, v = e
        # The apexes in the adjacency order of the lower-degree end, not
        # the hash order of common_neighbors: the decrements refill the
        # buckets, which pop in insertion order.
        a, b = (u, v) if work.degree(u) <= work.degree(v) else (v, u)
        for w in [w for w in work.neighbors(a) if work.has_edge(b, w)]:
            # Triangle (u, v, w) disappears with e; its other two edges
            # lose one unit of support, but never below the current peel
            # level (their trussness is already >= k).
            queue.decrement(edge_key(u, w), floor=k - 2)
            queue.decrement(edge_key(v, w), floor=k - 2)
        work.remove_edge(u, v)
    return trussness


def is_k_truss(graph: ProbabilisticGraph, k: int) -> bool:
    """Return True iff every edge of ``graph`` has support >= k - 2.

    Note this is the bare Definition 1 check — connectivity and
    maximality are separate concerns. An edgeless graph is vacuously a
    k-truss for every k.
    """
    if k < 2:
        raise ParameterError(f"k must be at least 2, got {k}")
    return all(
        len(graph.common_neighbors(u, v)) >= k - 2 for u, v in graph.edges()
    )


def k_truss_subgraph(graph: ProbabilisticGraph, k: int) -> ProbabilisticGraph:
    """Return the maximal subgraph in which every edge has support >= k - 2.

    This is the union of all maximal k-trusses (possibly disconnected);
    isolated nodes are dropped. Computed by iterated removal of
    under-supported edges.
    """
    if k < 2:
        raise ParameterError(f"k must be at least 2, got {k}")
    work = graph.copy()
    changed = True
    while changed:
        changed = False
        doomed = [
            (u, v)
            for u, v in work.edges()
            if len(work.common_neighbors(u, v)) < k - 2
        ]
        for u, v in doomed:
            work.remove_edge(u, v)
            changed = True
    work.remove_isolated_nodes()
    return work


def max_trussness(graph: ProbabilisticGraph) -> int:
    """Return ``k_max`` — the largest trussness of any edge (2 if edgeless... 0 if empty).

    For a graph with no edges the decomposition is empty and 0 is
    returned, signalling "no truss at all".
    """
    trussness = truss_decomposition(graph)
    return max(trussness.values(), default=0)
