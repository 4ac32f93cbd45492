"""The :class:`ProbabilisticGraph` data structure.

A probabilistic (a.k.a. uncertain) graph ``G = (V, E, p)`` is an
undirected simple graph in which every edge ``e`` exists independently
with probability ``p(e)`` (Section 3 of the paper). This module provides
the core container used throughout the library: a dict-of-dicts adjacency
structure mapping each node to ``{neighbour: probability}``.

Edges are identified by a *canonical key* ``edge_key(u, v)`` — a 2-tuple
whose endpoints appear in a deterministic order — so that ``(u, v)`` and
``(v, u)`` always refer to the same edge.

Example
-------
>>> g = ProbabilisticGraph()
>>> g.add_edge("a", "b", 0.5)
>>> g.add_edge("b", "c", 0.9)
>>> g.probability("b", "a")
0.5
>>> sorted(g.neighbors("b"))
['a', 'c']
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Iterator, Mapping
from types import MappingProxyType
from typing import Any

from repro.exceptions import (
    EdgeNotFoundError,
    GraphError,
    InvalidProbabilityError,
    NodeNotFoundError,
    ParameterError,
)

__all__ = ["ProbabilisticGraph", "edge_key"]

Node = Hashable
Edge = tuple[Node, Node]


def edge_key(u: Node, v: Node) -> Edge:
    """Return the canonical (order-independent) key for edge ``(u, v)``.

    Endpoints are ordered with ``<`` when comparable; mixed or otherwise
    incomparable node types fall back to ordering by ``(type name, repr)``,
    which is deterministic within a process.
    """
    try:
        return (u, v) if u <= v else (v, u)
    except TypeError:
        ku = (type(u).__name__, repr(u))
        kv = (type(v).__name__, repr(v))
        return (u, v) if ku <= kv else (v, u)


def _check_probability(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise InvalidProbabilityError(
            f"edge probability must lie in [0, 1], got {p!r}"
        )
    return p


class ProbabilisticGraph:
    """An undirected simple graph with independent edge probabilities.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v, p)`` triples to initialise from.

    Notes
    -----
    Self-loops are rejected (trusses are defined on simple graphs).
    Adding an existing edge overwrites its probability.
    """

    __slots__ = ("_adj",)

    def __init__(self, edges: Iterable[tuple[Node, Node, float]] | None = None):
        self._adj: dict[Node, dict[Node, float]] = {}
        if edges is not None:
            for u, v, p in edges:
                self.add_edge(u, v, p)

    # ------------------------------------------------------------------
    # Construction and mutation
    # ------------------------------------------------------------------
    def add_node(self, u: Node) -> None:
        """Add an isolated node (no-op if already present)."""
        if u not in self._adj:
            self._adj[u] = {}

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Add every node in ``nodes``."""
        for u in nodes:
            self.add_node(u)

    def add_edge(self, u: Node, v: Node, probability: float = 1.0) -> None:
        """Add edge ``(u, v)`` with the given existence probability.

        Missing endpoints are created. Re-adding an edge overwrites its
        probability. Raises :class:`InvalidProbabilityError` for
        probabilities outside [0, 1] and :class:`GraphError` for
        self-loops.
        """
        if u == v:
            raise GraphError(f"self-loop on node {u!r} is not allowed")
        p = _check_probability(probability)
        self.add_node(u)
        self.add_node(v)
        self._adj[u][v] = p
        self._adj[v][u] = p

    def add_edges(self, edges: Iterable[tuple[Node, Node, float]]) -> None:
        """Add every ``(u, v, p)`` triple in ``edges``."""
        for u, v, p in edges:
            self.add_edge(u, v, p)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove edge ``(u, v)``.

        Raises :class:`ParameterError` for a self-loop (which can never
        exist here, so naming one is a caller bug, not a missing edge)
        and :class:`EdgeNotFoundError` when the edge is absent.
        """
        if u == v:
            raise ParameterError(
                f"self-loop ({u!r}, {v!r}) is never a valid edge")
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        del self._adj[u][v]
        del self._adj[v][u]

    def remove_node(self, u: Node) -> None:
        """Remove node ``u`` and all its incident edges."""
        if u not in self._adj:
            raise NodeNotFoundError(u)
        for v in list(self._adj[u]):
            del self._adj[v][u]
        del self._adj[u]

    def remove_isolated_nodes(self) -> list[Node]:
        """Drop all degree-0 nodes; return the removed nodes."""
        isolated = [u for u, nbrs in self._adj.items() if not nbrs]
        for u in isolated:
            del self._adj[u]
        return isolated

    def set_probability(self, u: Node, v: Node, probability: float) -> None:
        """Overwrite the probability of an *existing* edge."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        p = _check_probability(probability)
        self._adj[u][v] = p
        self._adj[v][u] = p

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_node(self, u: Node) -> bool:
        """Return True iff node ``u`` is in the graph."""
        return u in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        """Return True iff edge ``(u, v)`` is in the graph."""
        return u in self._adj and v in self._adj[u]

    def probability(self, u: Node, v: Node) -> float:
        """Return ``p(u, v)``; raises :class:`EdgeNotFoundError` if absent."""
        try:
            return self._adj[u][v]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None

    def neighbors(self, u: Node) -> Iterator[Node]:
        """Iterate over the structural neighbours ``N(u)`` (probabilities ignored)."""
        try:
            return iter(self._adj[u])
        except KeyError:
            raise NodeNotFoundError(u) from None

    def neighbor_probabilities(self, u: Node) -> Mapping[Node, float]:
        """Return a read-only view of ``{neighbour: p(u, neighbour)}``."""
        try:
            return dict(self._adj[u])
        except KeyError:
            raise NodeNotFoundError(u) from None

    def adjacency(self) -> Mapping[Node, Mapping[Node, float]]:
        """Return a live, read-only view of ``{node: {neighbour: p}}``.

        Not a copy, so it is cheap to take and follows later edits; hot
        loops read ``adjacency()[u][v]`` instead of calling
        :meth:`probability`. The inner maps must not be mutated.
        """
        return MappingProxyType(self._adj)

    def degree(self, u: Node) -> int:
        """Return the structural degree of ``u``."""
        try:
            return len(self._adj[u])
        except KeyError:
            raise NodeNotFoundError(u) from None

    def expected_degree(self, u: Node) -> float:
        """Return the expected degree ``sum of p(u, v) over v in N(u)``."""
        try:
            return sum(self._adj[u].values())
        except KeyError:
            raise NodeNotFoundError(u) from None

    def max_degree(self) -> int:
        """Return the maximum structural degree (0 for an empty graph)."""
        return max((len(nbrs) for nbrs in self._adj.values()), default=0)

    def common_neighbors(self, u: Node, v: Node) -> set[Node]:
        """Return ``N(u) ∩ N(v)`` — the possible triangle apexes of edge (u, v)."""
        if u not in self._adj:
            raise NodeNotFoundError(u)
        if v not in self._adj:
            raise NodeNotFoundError(v)
        a, b = self._adj[u], self._adj[v]
        if len(a) > len(b):
            a, b = b, a
        return {w for w in a if w in b}

    def support(self, u: Node, v: Node) -> int:
        """Return the structural support ``k_e = |N(u) ∩ N(v)|`` of edge (u, v).

        This is the maximum possible support of the edge in any possible
        world (probabilities ignored).
        """
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        return len(self.common_neighbors(u, v))

    # ------------------------------------------------------------------
    # Iteration and sizes
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges once, as canonical keys."""
        seen: set[Node] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield edge_key(u, v)
            seen.add(u)

    def edges_with_probabilities(self) -> Iterator[tuple[Node, Node, float]]:
        """Iterate over ``(u, v, p)`` triples, one per edge."""
        seen: set[Node] = set()
        for u, nbrs in self._adj.items():
            for v, p in nbrs.items():
                if v not in seen:
                    a, b = edge_key(u, v)
                    yield (a, b, p)
            seen.add(u)

    def triangles_of_edge(self, u: Node, v: Node) -> Iterator[Node]:
        """Iterate over apex nodes ``w`` forming a triangle with edge (u, v).

        Apexes come in the adjacency order of the endpoint with fewer
        neighbours (``u`` on a tie), not set order, so the sequence does
        not depend on ``PYTHONHASHSEED``.
        """
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        a, b = self._adj[u], self._adj[v]
        if len(a) > len(b):
            a, b = b, a
        yield from (w for w in a if w in b)

    def triangles(self) -> Iterator[tuple[Node, Node, Node]]:
        """Iterate over every triangle exactly once, as ``(u, v, w)``.

        ``(u, v)`` is the canonical key of the edge joining the two
        lowest-ranked nodes. Nodes rank by ``<``, or by :func:`edge_key`'s
        ``(type name, repr)`` fallback when their types are incomparable.
        Apexes come in adjacency order, not set order, so the sequence
        does not depend on ``PYTHONHASHSEED``.
        """
        adj = self._adj
        try:
            order = sorted(adj)
        except TypeError:
            order = sorted(adj, key=lambda w: (type(w).__name__, repr(w)))
        rank = {w: i for i, w in enumerate(order)}
        for u, v in self.edges():
            top = max(rank[u], rank[v])
            small, large = adj[u], adj[v]
            if len(small) > len(large):
                small, large = large, small
            for w in small:
                if w in large and rank[w] > top:
                    yield (u, v, w)

    def number_of_nodes(self) -> int:
        """Return |V|."""
        return len(self._adj)

    def number_of_edges(self) -> int:
        """Return |E|."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def __contains__(self, u: object) -> bool:
        try:
            return u in self._adj
        except TypeError:
            return False

    def __bool__(self) -> bool:
        # A graph is truthy iff it has at least one node. Explicit so that
        # ``if graph:`` never falls back to __len__-based surprises.
        return bool(self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbabilisticGraph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(nodes={self.number_of_nodes()}, "
            f"edges={self.number_of_edges()})"
        )

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "ProbabilisticGraph":
        """Return a deep structural copy."""
        g = ProbabilisticGraph()
        g._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        return g

    def subgraph(self, nodes: Iterable[Node]) -> "ProbabilisticGraph":
        """Return the node-induced subgraph on ``nodes`` (unknown nodes ignored)."""
        keep = {u for u in nodes if u in self._adj}
        g = ProbabilisticGraph()
        # Walk this graph's adjacency, not the set: node and neighbour
        # order then follow this graph in every process, whatever
        # PYTHONHASHSEED.
        for u in self._adj:
            if u not in keep:
                continue
            g.add_node(u)
            for v, p in self._adj[u].items():
                if v in keep:
                    g._adj[u][v] = p
        return g

    def edge_subgraph(self, edges: Iterable[Edge]) -> "ProbabilisticGraph":
        """Return the subgraph containing exactly ``edges`` (and their endpoints).

        Edges absent from this graph raise :class:`EdgeNotFoundError`.
        """
        g = ProbabilisticGraph()
        for u, v in edges:
            g.add_edge(u, v, self.probability(u, v))
        return g

    def project_world(self, present_edges: Iterable[Edge]) -> "ProbabilisticGraph":
        """Return the possible world keeping all nodes and only ``present_edges``.

        The result mirrors the paper's possible-world semantics: a world
        retains **all** nodes of the graph, with every present edge given
        probability 1.
        """
        present = {edge_key(u, v) for u, v in present_edges}
        g = ProbabilisticGraph()
        for u in self._adj:
            g.add_node(u)
        for u, v in present:
            if not self.has_edge(u, v):
                raise EdgeNotFoundError(u, v)
            g.add_edge(u, v, 1.0)
        return g

    def world_probability(self, present_edges: Iterable[Edge]) -> float:
        """Return ``Pr[G | self]`` for the world with exactly ``present_edges`` (Eq. 1)."""
        present = {edge_key(u, v) for u, v in present_edges}
        for u, v in present:
            if not self.has_edge(u, v):
                raise EdgeNotFoundError(u, v)
        prob = 1.0
        for u, v, p in self.edges_with_probabilities():
            prob *= p if (u, v) in present else (1.0 - p)
        return prob

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self) -> Any:
        """Return a ``networkx.Graph`` with probabilities as the ``p`` edge attr."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._adj)
        g.add_weighted_edges_from(self.edges_with_probabilities(), weight="p")
        return g

    @classmethod
    def from_networkx(cls, graph: Any, probability_attr: str = "p",
                      default_probability: float = 1.0) -> "ProbabilisticGraph":
        """Build from a ``networkx.Graph``.

        Edge probabilities are read from ``probability_attr``; edges
        lacking the attribute get ``default_probability``.
        """
        g = cls()
        for u in graph.nodes:
            g.add_node(u)
        for u, v, data in graph.edges(data=True):
            if u == v:
                continue  # truss semantics are on simple graphs
            g.add_edge(u, v, data.get(probability_attr, default_probability))
        return g
