"""Connected components of probabilistic graphs (structure only).

Connectivity in the paper is always *structural*: a subgraph is connected
iff it is connected when every edge probability is ignored (Definition 2),
while a possible world is connected iff its present edges connect **all**
nodes of the world (Definition 3). Both notions are served here.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Iterator

from repro.graphs.probabilistic import ProbabilisticGraph, edge_key

__all__ = [
    "connected_components",
    "is_connected",
    "largest_connected_component",
    "edge_connected_components",
    "component_of",
]

Node = Hashable
Edge = tuple[Node, Node]


def connected_components(graph: ProbabilisticGraph) -> Iterator[set[Node]]:
    """Yield the node sets of the connected components of ``graph``."""
    seen: set[Node] = set()
    for start in graph.nodes():
        if start in seen:
            continue
        component = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if v not in component:
                    component.add(v)
                    queue.append(v)
        seen |= component
        yield component


def component_of(graph: ProbabilisticGraph, node: Node) -> set[Node]:
    """Return the node set of the component containing ``node``."""
    component = {node}
    queue = deque([node])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in component:
                component.add(v)
                queue.append(v)
    return component


def is_connected(graph: ProbabilisticGraph) -> bool:
    """Return True iff ``graph`` is non-empty and structurally connected."""
    n = graph.number_of_nodes()
    if n == 0:
        return False
    first = next(graph.nodes())
    return len(component_of(graph, first)) == n


def largest_connected_component(graph: ProbabilisticGraph) -> ProbabilisticGraph:
    """Return the induced subgraph on the largest component (empty graph if empty)."""
    best: set[Node] = set()
    for component in connected_components(graph):
        if len(component) > len(best):
            best = component
    return graph.subgraph(best)


def edge_connected_components(
    graph: ProbabilisticGraph, edges: Iterable[Edge]
) -> list[dict[Edge, None]]:
    """Group ``edges`` of ``graph`` into connected clusters.

    Two edges are in the same cluster iff they are connected through the
    subgraph formed by ``edges`` alone. This is the post-processing step
    of Theorem 2: piecing edges of equal-or-higher trussness into maximal
    connected trusses. Each cluster is an ``{edge key: None}`` dict in
    BFS order from its first input edge: no order follows PYTHONHASHSEED.
    """
    canonical = [edge_key(u, v) for u, v in edges]
    incident: dict[Node, list[Edge]] = {}
    for e in canonical:
        incident.setdefault(e[0], []).append(e)
        incident.setdefault(e[1], []).append(e)

    clusters: list[dict[Edge, None]] = []
    unvisited = set(canonical)
    for seed in canonical:
        if seed not in unvisited:
            continue
        cluster = {seed: None}
        unvisited.discard(seed)
        queue = deque([seed])
        while queue:
            u, v = queue.popleft()
            for node in (u, v):
                for e in incident[node]:
                    if e in unvisited:
                        unvisited.discard(e)
                        cluster[e] = None
                        queue.append(e)
        clusters.append(cluster)
    return clusters
