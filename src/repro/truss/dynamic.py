"""Dynamic maintenance of k-truss subgraphs under edge updates.

Truss decomposition has been studied on dynamic graphs (the paper cites
Huang et al., SIGMOD 2014); this module maintains, for a *fixed* k, the
maximal k-truss subgraph of an evolving deterministic graph:

* **Deletions** are handled fully incrementally: removing an edge
  destroys its triangles, and support losses cascade exactly as in the
  static peeling — touching only the affected region.
* **Insertions** may pull previously-evicted edges back in.
  :class:`DynamicTruss` re-runs the reduction on the affected connected
  region only; :class:`DynamicLocalTruss` re-peels the whole graph, so
  an insertion into a graph of many components costs one peel of all
  of them (sound and simple; exact incremental insertion is far more
  intricate and not needed at this library's scale).

:class:`DynamicTruss` tracks the deterministic k-truss;
:class:`DynamicLocalTruss` (see below) is the probabilistic analogue for
a fixed (k, gamma), maintaining the union of maximal local
(k, gamma)-trusses on the cell state and Eq. (8) retirement step of the
peel engine that runs Algorithm 1 (:mod:`repro.core.nucleus`).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable

from repro.exceptions import EdgeNotFoundError, ParameterError
from repro.graphs.components import component_of
from repro.graphs.probabilistic import ProbabilisticGraph, edge_key
from repro.core.support_prob import tail_at
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

    def _affected_region(self, u: Node) -> set[Edge]:
        """All current graph edges of the component containing ``u``."""
        return {
            edge_key(x, y)
            for x in component_of(self._graph, u)
            for y in self._graph.neighbors(x)
        }

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
        region = self._affected_region(u)
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
    with supports counted *within the maintained set*. The state is one
    ``(2, 3)`` cell state of the peel engine (:mod:`repro.core.nucleus`)
    plus a live mark per cell, and evictions cascade through the
    engine's Eq. (8) retirement step:

    * deletion: retire the edge's cell, deconvolving its triangles out
      of the neighbours' PMFs, and cascade evictions (fully
      incremental);
    * insertion or re-weight: build a fresh state of the whole graph
      and re-peel it.
    """

    def __init__(self, graph: ProbabilisticGraph, k: int, gamma: float):
        if k < 2:
            raise ParameterError(f"k must be at least 2, got {k}")
        if not 0.0 <= gamma <= 1.0:
            raise ParameterError(f"gamma must be in [0, 1], got {gamma}")
        self._graph = graph.copy()
        self._k = k
        self._gamma = gamma
        self._rebuild()

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
        live = self._live
        return {e for i, e in enumerate(self._state.cells) if live[i]}

    def in_truss(self, u: Node, v: Node) -> bool:
        """Return True iff edge (u, v) is currently in a local truss."""
        i = self._state.ids.get(edge_key(u, v))
        return i is not None and bool(self._live[i])

    def maximal_trusses(self) -> list[ProbabilisticGraph]:
        """Current maximal local (k, gamma)-trusses, as subgraphs."""
        from repro.graphs.components import edge_connected_components

        # Graph order, not set order: no PYTHONHASHSEED dependence.
        ids, live = self._state.ids, self._live
        truss = [e for e in self._graph.edges() if live[ids[e]]]
        clusters = edge_connected_components(self._graph, truss)
        return [self._graph.edge_subgraph(c) for c in clusters]

    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        """Peel a fresh engine state of the whole current graph."""
        # Imported here: repro.core.nucleus imports repro.truss, whose
        # package imports this module.
        from repro.core.nucleus import _CellState

        self._state = _CellState(self._graph, 2)
        self._live = bytearray([1]) * len(self._state.cells)
        self._cascade(deque(range(len(self._state.cells))))

    def _cascade(self, queue: deque) -> None:
        """Evict every queued live cell that fails the (k, gamma) test,
        queueing the cells its retirement affects, until none fails."""
        state, live = self._state, self._live
        pmfs, probs = state.pmfs, state.probs
        t = self._k - 2
        threshold = self._gamma * (1.0 - 1e-9)
        while queue:
            i = queue.popleft()
            if live[i] and tail_at(pmfs[i], t) * probs[i] < threshold:
                live[i] = 0
                queue.extend(state.retire(i))

    # ------------------------------------------------------------------
    def insert_edge(self, u: Node, v: Node, probability: float) -> None:
        """Insert (or re-weight) edge (u, v) and repair the truss set.

        Unlike :meth:`DynamicTruss.insert_edge`, inserting an existing
        edge is allowed: it refreshes the edge's probability, which is a
        meaningful update here. Self-loops raise
        :class:`ParameterError`. Repair re-peels the whole graph, every
        connected component included.
        """
        if u == v:
            raise ParameterError(
                f"self-loop ({u!r}, {v!r}) is never a valid edge")
        self._graph.add_edge(u, v, probability)
        self._rebuild()

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove edge (u, v); evictions cascade incrementally.

        The edge's cell stays in the engine state, retired.
        """
        if not self._graph.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._graph.remove_edge(u, v)
        i = self._state.ids[edge_key(u, v)]
        if self._live[i]:
            self._live[i] = 0
            self._cascade(deque(self._state.retire(i)))
