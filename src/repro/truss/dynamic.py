"""Dynamic maintenance of k-truss subgraphs under edge updates.

Truss decomposition has been studied on dynamic graphs (the paper cites
Huang et al., SIGMOD 2014); this module maintains, for a *fixed* k, the
maximal k-truss subgraph of an evolving deterministic graph:

* **Deletions** are handled fully incrementally: removing an edge
  destroys its triangles, and support losses cascade exactly as in the
  static peeling — touching only the affected region.
* **Insertions** may pull previously-evicted edges back in; the truss
  is repaired by re-running the reduction on the affected connected
  region only (sound and simple; exact incremental insertion is far
  more intricate and not needed at this library's scale).

:class:`DynamicTruss` tracks the deterministic k-truss;
:class:`DynamicLocalTruss` (see below) is the probabilistic analogue for
a fixed (k, gamma), maintaining the union of maximal local
(k, gamma)-trusses with the same Eq. (8) PMF machinery used by
Algorithm 1.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable

from repro.exceptions import EdgeNotFoundError, ParameterError
from repro.graphs.probabilistic import ProbabilisticGraph, edge_key
from repro.core.support_prob import SupportProbability
from repro.truss.decomposition import k_truss_edges

__all__ = ["DynamicTruss", "DynamicLocalTruss"]

Node = Hashable
Edge = tuple[Node, Node]


class DynamicTruss:
    """Maintains the maximal k-truss subgraph of an evolving graph.

    The *truss edge set* is the union of all maximal k-trusses — the
    maximal subgraph in which every edge has support >= k - 2.

    >>> g = ProbabilisticGraph([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    >>> dt = DynamicTruss(g, k=3)
    >>> sorted(dt.truss_edges())
    [(0, 1), (0, 2), (1, 2)]
    >>> dt.remove_edge(0, 1)
    >>> dt.truss_edges()
    set()
    """

    def __init__(self, graph: ProbabilisticGraph, k: int):
        if k < 2:
            raise ParameterError(f"k must be at least 2, got {k}")
        self._graph = graph.copy()
        self._k = k
        self._truss = k_truss_edges(self._graph, set(self._graph.edges()), k)

    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """The (fixed) truss order being maintained."""
        return self._k

    @property
    def graph(self) -> ProbabilisticGraph:
        """A copy of the current underlying graph."""
        return self._graph.copy()

    def truss_edges(self) -> set[Edge]:
        """Current edges of the maximal k-truss subgraph (copy)."""
        return set(self._truss)

    def in_truss(self, u: Node, v: Node) -> bool:
        """Return True iff edge (u, v) currently belongs to the k-truss."""
        return edge_key(u, v) in self._truss

    def maximal_trusses(self) -> list[ProbabilisticGraph]:
        """Current maximal (connected) k-trusses, as subgraphs."""
        from repro.graphs.components import edge_connected_components

        # Graph order, not set order: no PYTHONHASHSEED dependence.
        truss = [e for e in self._graph.edges() if e in self._truss]
        clusters = edge_connected_components(self._graph, truss)
        return [self._graph.edge_subgraph(c) for c in clusters]

    # ------------------------------------------------------------------
    def _support_within(self, e: Edge, edges: set[Edge]) -> int:
        u, v = e
        return sum(
            1
            for w in self._graph.common_neighbors(u, v)
            if edge_key(u, w) in edges and edge_key(v, w) in edges
        )

    def _affected_region(self, u: Node, v: Node) -> set[Edge]:
        """All current graph edges connected (via shared nodes) to {u, v}."""
        region: set[Edge] = set()
        seen_nodes: set[Node] = set()
        stack = [x for x in (u, v) if self._graph.has_node(x)]
        while stack:
            x = stack.pop()
            if x in seen_nodes:
                continue
            seen_nodes.add(x)
            for y in self._graph.neighbors(x):
                region.add(edge_key(x, y))
                if y not in seen_nodes:
                    stack.append(y)
        return region

    # ------------------------------------------------------------------
    def insert_edge(self, u: Node, v: Node, probability: float = 1.0) -> None:
        """Insert edge (u, v) and repair the maintained k-truss.

        Repair recomputes the reduction on the affected connected region
        (everything reachable from the endpoints), leaving other
        components untouched. Self-loops and duplicate edges raise
        :class:`ParameterError` — a deterministic truss has no
        per-edge weight to refresh, so a duplicate insert is always a
        caller bug (contrast :meth:`DynamicLocalTruss.insert_edge`,
        which re-weights).
        """
        if u == v:
            raise ParameterError(
                f"self-loop ({u!r}, {v!r}) is never a valid edge")
        if self._graph.has_edge(u, v):
            raise ParameterError(
                f"edge ({u!r}, {v!r}) already present; duplicate insert")
        self._graph.add_edge(u, v, probability)
        region = self._affected_region(u, v)
        self._truss -= region
        self._truss |= k_truss_edges(self._graph, region, self._k)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove edge (u, v); evictions cascade incrementally."""
        e = edge_key(u, v)
        if not self._graph.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        was_in_truss = e in self._truss
        apexes = list(self._graph.common_neighbors(u, v))
        self._graph.remove_edge(u, v)
        self._truss.discard(e)
        if not was_in_truss:
            return
        need = self._k - 2
        queue = deque()
        for w in apexes:
            for other in (edge_key(u, w), edge_key(v, w)):
                if other in self._truss:
                    queue.append(other)
        while queue:
            other = queue.popleft()
            if other not in self._truss:
                continue
            if self._support_within(other, self._truss) < need:
                self._truss.discard(other)
                a, b = other
                for w in self._graph.common_neighbors(a, b):
                    for nxt in (edge_key(a, w), edge_key(b, w)):
                        if nxt in self._truss:
                            queue.append(nxt)


class DynamicLocalTruss:
    """Maintains the union of maximal local (k, gamma)-trusses dynamically.

    The probabilistic analogue of :class:`DynamicTruss`: an edge stays
    in the maintained set while ``Pr[sup >= k-2] * p(e) >= gamma`` holds
    with supports counted *within the maintained set*. Support PMFs are
    updated with the Eq. (8) add/remove machinery:

    * deletion: deconvolve the lost triangles out of the neighbours'
      PMFs and cascade evictions (fully incremental);
    * insertion: convolve new triangles in and repair by re-reducing the
      affected connected region.
    """

    def __init__(self, graph: ProbabilisticGraph, k: int, gamma: float):
        if k < 2:
            raise ParameterError(f"k must be at least 2, got {k}")
        if not 0.0 <= gamma <= 1.0:
            raise ParameterError(f"gamma must be in [0, 1], got {gamma}")
        self._graph = graph.copy()
        self._k = k
        self._gamma = gamma
        self._truss: set[Edge] = set()
        self._pmfs: dict[Edge, SupportProbability] = {}
        self._rebuild_all()

    @property
    def k(self) -> int:
        """The truss order."""
        return self._k

    @property
    def gamma(self) -> float:
        """The probability threshold."""
        return self._gamma

    def truss_edges(self) -> set[Edge]:
        """Current union of maximal local (k, gamma)-truss edges (copy)."""
        return set(self._truss)

    def in_truss(self, u: Node, v: Node) -> bool:
        """Return True iff edge (u, v) is currently in a local truss."""
        return edge_key(u, v) in self._truss

    def maximal_trusses(self) -> list[ProbabilisticGraph]:
        """Current maximal local (k, gamma)-trusses, as subgraphs."""
        from repro.graphs.components import edge_connected_components

        # Graph order, not set order: no PYTHONHASHSEED dependence.
        truss = [e for e in self._graph.edges() if e in self._truss]
        clusters = edge_connected_components(self._graph, truss)
        return [self._graph.edge_subgraph(c) for c in clusters]

    # ------------------------------------------------------------------
    def _passes(self, e: Edge) -> bool:
        u, v = e
        return (
            self._pmfs[e].tail(self._k - 2) * self._graph.probability(u, v)
            >= self._gamma * (1.0 - 1e-9)
        )

    def _reduce_region(self, region: set[Edge]) -> None:
        """Re-reduce ``region`` from scratch (PMFs rebuilt within truss)."""
        # Start optimistic: everything in the region is in. The region
        # is walked in graph edge order, not set order, so the eviction
        # cascade (and the PMF bits) do not follow PYTHONHASHSEED.
        self._truss |= region
        edges = [e for e in self._graph.edges() if e in region]
        for e in edges:
            self._pmfs[e] = self._pmf_within(e)
        queue = deque(edges)
        while queue:
            e = queue.popleft()
            if e not in self._truss:
                continue
            if not self._passes(e):
                self._evict(e, queue)

    def _apexes(self, u: Node, v: Node) -> list[Node]:
        """The common neighbours of u and v, in u's adjacency order: a
        fold order that, unlike set order, is the same in every
        process."""
        adj = self._graph.adjacency()
        nv = adj[v]
        return [w for w in adj[u] if w in nv]

    def _pmf_within(self, e: Edge) -> SupportProbability:
        """PMF of ``e`` counting only triangles inside the current truss set."""
        u, v = e
        qs = []
        for w in self._apexes(u, v):
            if (
                edge_key(u, w) in self._truss
                and edge_key(v, w) in self._truss
            ):
                qs.append(
                    self._graph.probability(w, u) * self._graph.probability(w, v)
                )
        return SupportProbability(qs)

    def _evict(self, e: Edge, queue: deque) -> None:
        self._truss.discard(e)
        self._pmfs.pop(e, None)
        u, v = e
        for w in self._apexes(u, v):
            e_uw, e_vw = edge_key(u, w), edge_key(v, w)
            if e_uw in self._truss and e_vw in self._truss:
                q_uw = self._graph.probability(v, u) * self._graph.probability(v, w)
                q_vw = self._graph.probability(u, v) * self._graph.probability(u, w)
                self._pmfs[e_uw].remove_triangle(q_uw)
                self._pmfs[e_vw].remove_triangle(q_vw)
                queue.append(e_uw)
                queue.append(e_vw)

    def _rebuild_all(self) -> None:
        self._truss = set()
        self._pmfs = {}
        self._reduce_region({edge_key(u, v) for u, v in self._graph.edges()})

    def _affected_region(self, u: Node, v: Node) -> set[Edge]:
        region: set[Edge] = set()
        seen: set[Node] = set()
        stack = [x for x in (u, v) if self._graph.has_node(x)]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            for y in self._graph.neighbors(x):
                region.add(edge_key(x, y))
                if y not in seen:
                    stack.append(y)
        return region

    # ------------------------------------------------------------------
    def insert_edge(self, u: Node, v: Node, probability: float) -> None:
        """Insert (or re-weight) edge (u, v) and repair the truss set.

        Unlike :meth:`DynamicTruss.insert_edge`, inserting an existing
        edge is allowed: it refreshes the edge's probability, which is a
        meaningful update here. Self-loops raise
        :class:`ParameterError`.
        """
        if u == v:
            raise ParameterError(
                f"self-loop ({u!r}, {v!r}) is never a valid edge")
        self._graph.add_edge(u, v, probability)
        region = self._affected_region(u, v)
        for e in region & self._truss:
            self._pmfs.pop(e, None)
        self._truss -= region
        self._reduce_region(region)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove edge (u, v); evictions cascade incrementally."""
        e = edge_key(u, v)
        if not self._graph.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        in_truss = e in self._truss
        if in_truss:
            queue: deque = deque()
            self._evict(e, queue)
            self._graph.remove_edge(u, v)
            while queue:
                nxt = queue.popleft()
                if nxt in self._truss and not self._passes(nxt):
                    self._evict(nxt, queue)
        else:
            self._graph.remove_edge(u, v)
