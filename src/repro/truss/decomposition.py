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

__all__ = [
    "LevelQueue",
    "truss_decomposition",
    "is_k_truss",
    "k_truss_edges",
    "k_truss_subgraph",
    "max_trussness",
]

Node = Hashable
Edge = tuple[Node, Node]


class LevelQueue:
    """Monotone bucket queue over ``{item: level}``: the bin-sort
    structure of [Wang & Cheng 2012] that every peel pops from.

    The queue takes over ``levels`` and keeps it as :attr:`level`, the
    current level of every still-queued item (popped items leave it).
    Levels only go down, so a list of buckets with a moving cursor
    gives O(1) amortised operations. Buckets are insertion-ordered
    dicts rather than sets and pop last-in-first-out, so the pop order
    does not depend on ``PYTHONHASHSEED``.
    """

    def __init__(self, levels: dict):
        self.level = levels
        top = max(levels.values(), default=0)
        self._buckets: list[dict] = [{} for _ in range(top + 1)]
        for item, lvl in levels.items():
            self._buckets[lvl][item] = None
        self._cursor = 0

    def __len__(self) -> int:
        return len(self.level)

    def pop_min(self) -> tuple:
        """Remove and return an (item, level) pair of minimum level."""
        while not self._buckets[self._cursor]:
            self._cursor += 1
        item, _ = self._buckets[self._cursor].popitem()
        del self.level[item]
        return item, self._cursor

    def lower(self, item, new_level: int) -> None:
        """Lower the level of ``item`` to ``new_level``; a no-op if the
        item was popped or ``new_level`` is not lower."""
        old = self.level.get(item)
        if old is None or new_level >= old:
            return
        del self._buckets[old][item]
        self.level[item] = new_level
        self._buckets[new_level][item] = None
        if new_level < self._cursor:
            self._cursor = new_level

    def decrement(self, item, floor: int) -> None:
        """Lower the level of ``item`` by one, but never below ``floor``;
        a no-op if the item was popped. The structural peels take this
        step once per destroyed s-clique, so it is one call rather than
        a :attr:`level` read plus :meth:`lower`."""
        old = self.level.get(item)
        if old is None or old <= floor:
            return
        del self._buckets[old][item]
        old -= 1
        self.level[item] = old
        self._buckets[old][item] = None
        if old < self._cursor:
            self._cursor = old


def truss_decomposition(graph: ProbabilisticGraph) -> dict[Edge, int]:
    """Return the trussness ``tau(e)`` of every edge (probabilities ignored).

    ``tau(e)`` is the maximum ``k`` for which ``e`` belongs to a k-truss
    subgraph of ``graph``. The peeling runs in O(m^1.5)-style time: each
    removal touches only the triangles through the removed edge.
    """
    work = graph.copy()
    supports = edge_supports(work)
    queue = LevelQueue(supports)
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


def k_truss_edges(
    graph: ProbabilisticGraph, edges: set[Edge], k: int
) -> set[Edge]:
    """The maximal structural k-truss within ``edges``: iteratively drop
    the edges with fewer than ``k - 2`` triangles inside the set.

    ``edges`` must be :func:`~repro.graphs.probabilistic.edge_key`
    tuples of ``graph``. Probabilities are ignored (Algorithm 3 lines
    6-7: "computed without considering edge probabilities").
    """
    if k <= 2:
        return set(edges)
    adj: dict[Node, set[Node]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    need = k - 2
    alive = set(edges)
    frontier = list(alive)
    while frontier:
        next_frontier: list[Edge] = []
        for u, v in frontier:
            if (u, v) not in alive:
                continue
            common = adj[u] & adj[v]
            if len(common) < need:
                alive.discard((u, v))
                adj[u].discard(v)
                adj[v].discard(u)
                # The co-triangle edges through each apex just lost one
                # supporting triangle — re-examine them next round.
                for w in common:
                    next_frontier.append(edge_key(u, w))
                    next_frontier.append(edge_key(v, w))
        frontier = next_frontier
    return alive


def k_truss_subgraph(graph: ProbabilisticGraph, k: int) -> ProbabilisticGraph:
    """Return the maximal subgraph in which every edge has support >= k - 2.

    This is the union of all maximal k-trusses (possibly disconnected);
    isolated nodes are dropped. The edges are those
    :func:`k_truss_edges` keeps; nodes and edges stay in ``graph``'s
    order.
    """
    if k < 2:
        raise ParameterError(f"k must be at least 2, got {k}")
    kept = k_truss_edges(graph, set(graph.edges()), k)
    work = graph.copy()
    for u, v in graph.edges():
        if (u, v) not in kept:
            work.remove_edge(u, v)
    work.remove_isolated_nodes()
    return work


def max_trussness(graph: ProbabilisticGraph) -> int:
    """Return ``k_max`` — the largest trussness of any edge (2 if edgeless... 0 if empty).

    For a graph with no edges the decomposition is empty and 0 is
    returned, signalling "no truss at all".
    """
    trussness = truss_decomposition(graph)
    return max(trussness.values(), default=0)
