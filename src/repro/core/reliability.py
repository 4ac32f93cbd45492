"""Network reliability — the #P-hard quantity behind Theorem 1.

Theorem 1 reduces NETWORK RELIABILITY (the probability that a
probabilistic graph is connected, Eq. 4) to computing
``alpha_2(H, e)``: attach a pendant node ``w`` to any vertex ``v`` with
a certain edge, and the 2-truss alpha of ``(w, v)`` equals the original
graph's reliability. This module provides the quantity itself —

* :func:`network_reliability_exact` — possible-world enumeration
  (graphs up to 22 edges);
* :func:`network_reliability_mc` — Monte-Carlo over a
  :class:`~repro.graphs.sampling.WorldSampleSet` with the same Hoeffding
  guarantees as the truss oracle;
* :func:`two_terminal_reliability_exact` / ``_mc`` — the classical s-t
  variant (Jin et al.'s distance-constraint reachability with an
  infinite threshold);
* :func:`theorem1_gadget` — builds the reduction instance, letting
  tests confirm ``alpha_2(gadget, pendant) == reliability`` exactly.

Since reliability is alpha_2, the Monte-Carlo estimates ask the
oracle's k = 2 question and use its packed kernel
(:class:`~repro.core.kernels.WorldClassifier`): whole batches of
sampled worlds are labelled at once instead of one Python walk per
world. The exact enumerators keep the per-world reference predicates
(:func:`~repro.core.global_truss.world_is_connected_ktruss`,
:func:`~repro.graphs.components.component_of`).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator

import numpy as np

from repro.core import kernels
from repro.core.global_truss import world_is_connected_ktruss
from repro.exceptions import NodeNotFoundError, ParameterError
from repro.graphs.components import component_of, is_connected
from repro.graphs.probabilistic import ProbabilisticGraph, edge_key
from repro.graphs.sampling import WorldSampleSet

__all__ = [
    "count_connected_rows",
    "network_reliability_exact",
    "network_reliability_mc",
    "two_terminal_reliability_exact",
    "two_terminal_reliability_mc",
    "theorem1_gadget",
]

Node = Hashable
Edge = tuple[Node, Node]

_MAX_EXACT_EDGES = 22


#: Sampled worlds x ``max(nodes, edges)`` per classified window of a
#: sample set: the unpacked window and the kernel's disjoint-union
#: labels stay a few MiB whatever ``N``, so a spilled sample set is
#: never unpacked whole.
_WINDOW_CELLS = 1 << 18


def _presence_windows(samples: WorldSampleSet,
                      n_nodes: int) -> Iterator[np.ndarray]:
    """Yield the boolean presence rows of ``samples`` in row order and
    bounded windows; columns in the sample set's edge order."""
    packed = samples.packed_bits
    step = max(1, _WINDOW_CELLS // max(1, n_nodes, samples.n_edges))
    for lo in range(0, samples.n_samples, step):
        rows = np.arange(lo, min(lo + step, samples.n_samples))
        yield kernels.gather_rows(packed, rows)


def count_connected_rows(nodes: list[Node], edges: list[Edge],
                         presence: np.ndarray) -> int:
    """Count rows of ``presence`` whose world connects all ``nodes``.

    ``presence`` is a boolean ``(rows, len(edges))`` batch matrix with
    columns in ``edges`` order. All rows are classified at once by the
    packed oracle's k = 2 test,
    :meth:`~repro.core.kernels.WorldClassifier.connected_mask`. The
    count is additive over disjoint row sets, which is what lets the
    reliability harness fan batches across worker processes without
    changing the estimate.
    """
    classifier = kernels.WorldClassifier(edges, nodes, 2)
    return int(classifier.connected_mask(presence).sum())


def network_reliability_exact(graph: ProbabilisticGraph) -> float:
    """Return ``Pr[graph is connected]`` by world enumeration (Eq. 4).

    Exponential in the edge count (limit 22); a single node is connected
    with probability 1, an empty or structurally disconnected graph has
    reliability 0.
    """
    n = graph.number_of_nodes()
    if n == 0:
        return 0.0
    if n == 1:
        return 1.0
    if not is_connected(graph):
        return 0.0
    edges = list(graph.edges())
    m = len(edges)
    if m > _MAX_EXACT_EDGES:
        raise ParameterError(
            f"exact reliability enumerates 2^m worlds; {m} edges exceeds "
            f"the limit of {_MAX_EXACT_EDGES}"
        )
    probs = [graph.probability(u, v) for u, v in edges]
    nodes = list(graph.nodes())
    total = 0.0
    for mask in range(1 << m):
        world_prob = 1.0
        present: list[Edge] = []
        for i in range(m):
            if mask >> i & 1:
                world_prob *= probs[i]
                present.append(edges[i])
            else:
                world_prob *= 1.0 - probs[i]
        if world_prob and world_is_connected_ktruss(nodes, present, 2):
            total += world_prob
    return total


def network_reliability_mc(
    graph: ProbabilisticGraph,
    n_samples: int = 1000,
    seed: int | np.random.Generator | None = None,
    samples: WorldSampleSet | None = None,
) -> float:
    """Monte-Carlo estimate of ``Pr[graph is connected]``."""
    n = graph.number_of_nodes()
    if n == 0:
        return 0.0
    if n == 1:
        return 1.0
    if samples is None:
        samples = WorldSampleSet.from_graph(graph, n_samples, seed=seed)
    nodes = list(graph.nodes())
    edges = list(samples.edge_index)
    hits = sum(
        count_connected_rows(nodes, edges, presence)
        for presence in _presence_windows(samples, n)
    )
    return hits / samples.n_samples


def two_terminal_reliability_exact(
    graph: ProbabilisticGraph, s: Node, t: Node
) -> float:
    """Return ``Pr[s and t are connected]`` by world enumeration."""
    for x in (s, t):
        if not graph.has_node(x):
            raise NodeNotFoundError(x)
    if s == t:
        return 1.0
    edges = list(graph.edges())
    m = len(edges)
    if m > _MAX_EXACT_EDGES:
        raise ParameterError(
            f"exact reliability enumerates 2^m worlds; {m} edges exceeds "
            f"the limit of {_MAX_EXACT_EDGES}"
        )
    probs = [graph.probability(u, v) for u, v in edges]
    total = 0.0
    for mask in range(1 << m):
        world_prob = 1.0
        present: list[Edge] = []
        for i in range(m):
            if mask >> i & 1:
                world_prob *= probs[i]
                present.append(edges[i])
            else:
                world_prob *= 1.0 - probs[i]
        if world_prob == 0.0:
            continue
        world = graph.project_world(present)
        if t in component_of(world, s):
            total += world_prob
    return total


def two_terminal_reliability_mc(
    graph: ProbabilisticGraph,
    s: Node,
    t: Node,
    n_samples: int = 1000,
    seed: int | np.random.Generator | None = None,
) -> float:
    """Monte-Carlo estimate of ``Pr[s and t are connected]``."""
    for x in (s, t):
        if not graph.has_node(x):
            raise NodeNotFoundError(x)
    if s == t:
        return 1.0
    samples = WorldSampleSet.from_graph(graph, n_samples, seed=seed)
    nodes = list(graph.nodes())
    edges = list(samples.edge_index)
    classifier = kernels.WorldClassifier(edges, nodes, 2)
    i, j = nodes.index(s), nodes.index(t)
    hits = 0
    for presence in _presence_windows(samples, len(nodes)):
        labels = classifier.component_labels(presence)
        hits += int((labels[:, i] == labels[:, j]).sum())
    return hits / samples.n_samples


def theorem1_gadget(
    graph: ProbabilisticGraph, anchor: Node, pendant: Node = "__pendant__"
) -> tuple[ProbabilisticGraph, Edge]:
    """Build the Theorem 1 reduction instance.

    Returns ``(H, e)`` where H is ``graph`` plus a certain pendant edge
    ``(pendant, anchor)``; by Theorem 1,
    ``alpha_2(H, e) == network_reliability(graph)``.
    """
    if not graph.has_node(anchor):
        raise NodeNotFoundError(anchor)
    if graph.has_node(pendant):
        raise ParameterError(f"pendant node {pendant!r} already exists")
    gadget = graph.copy()
    gadget.add_edge(pendant, anchor, 1.0)
    return gadget, edge_key(pendant, anchor)
