"""Clique finding accelerated by truss decomposition.

Section 1 of the paper motivates trusses partly as a clique accelerator:
*"a k-clique must be in a k-truss, which can be significantly smaller
than the original graph."* This module implements that pipeline, plus
its probabilistic extension:

* :func:`maximum_clique` — exact maximum clique via Bron–Kerbosch with
  pivoting, optionally restricted to the k-truss that a clique of the
  current best size must inhabit (iterative truss pruning).
* :func:`maximum_reliable_clique` — the largest clique whose
  *all-edges-exist* probability meets a threshold gamma; candidates are
  pruned with the same truss argument plus the fact that every edge of a
  gamma-reliable clique must itself have p(e) >= gamma.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.exceptions import ParameterError
from repro.graphs.probabilistic import ProbabilisticGraph
from repro.truss.decomposition import truss_decomposition

__all__ = ["maximum_clique", "maximum_reliable_clique", "clique_probability"]

Node = Hashable


def clique_probability(graph: ProbabilisticGraph, nodes) -> float:
    """Return the probability that all edges among ``nodes`` exist.

    Raises :class:`ParameterError` if ``nodes`` is not a clique of
    ``graph`` (structurally).
    """
    members = list(nodes)
    prob = 1.0
    for i, u in enumerate(members):
        for v in members[:i]:
            if not graph.has_edge(u, v):
                raise ParameterError(
                    f"nodes do not form a clique: missing edge ({u!r}, {v!r})"
                )
            prob *= graph.probability(u, v)
    return prob


def _bron_kerbosch_max(adj: dict[Node, set[Node]]) -> set[Node]:
    """Exact maximum clique by Bron–Kerbosch with pivoting."""
    best: set[Node] = set()

    def expand(r: set[Node], p: set[Node], x: set[Node]) -> None:
        nonlocal best
        if not p and not x:
            if len(r) > len(best):
                best = set(r)
            return
        if len(r) + len(p) <= len(best):
            return  # bound: cannot beat the incumbent
        # Pivot on the vertex covering the most of P.
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in list(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.discard(v)
            x.add(v)

    expand(set(), set(adj), set())
    return best


def maximum_clique(
    graph: ProbabilisticGraph, use_truss_pruning: bool = True
) -> set[Node]:
    """Return a maximum clique of ``graph`` (probabilities ignored).

    With ``use_truss_pruning`` (default) the search runs on the subgraph
    of edges whose trussness is at least the incumbent clique size + 1 —
    sound because every c-clique lies in a c-truss — re-pruning as the
    incumbent grows. Without it, plain Bron–Kerbosch on the whole graph.
    """
    if graph.number_of_edges() == 0:
        # A single node is a 1-clique; pick any node if present.
        for u in graph.nodes():
            return {u}
        return set()
    if not use_truss_pruning:
        adj = {u: set(graph.neighbors(u)) for u in graph.nodes()}
        return _bron_kerbosch_max(adj)

    tau = truss_decomposition(graph)
    k_max = max(tau.values())
    # A clique of size c needs edges of trussness >= c; try the largest
    # plausible clique size first and relax downwards.
    best: set[Node] = set()
    for target in range(k_max, 1, -1):
        if len(best) >= target:
            break
        adj = {
            u: set() for u in graph.nodes()
        }
        for (u, v), t in tau.items():
            if t >= target:
                adj[u].add(v)
                adj[v].add(u)
        adj = {u: nbrs for u, nbrs in adj.items() if nbrs}
        if not adj:
            continue
        candidate = _bron_kerbosch_max(adj)
        if len(candidate) > len(best):
            best = candidate
    if not best:
        # Fall back to any single edge (2-clique).
        u, v = next(graph.edges())
        best = {u, v}
    return best


def maximum_reliable_clique(
    graph: ProbabilisticGraph, gamma: float
) -> tuple[set[Node], float]:
    """Return the largest clique whose existence probability is >= gamma.

    Ties on size are broken towards higher probability. Returns
    ``(set(), 0.0)`` when not even a single edge reaches gamma.

    Pruning: an edge of a gamma-reliable clique must have
    ``p(e) >= gamma``; within the surviving subgraph, a c-clique needs
    trussness >= c, so maximal cliques are enumerated on the truss-
    filtered graph and scored exactly.
    """
    if not 0.0 < gamma <= 1.0:
        raise ParameterError(f"gamma must be in (0, 1], got {gamma}")
    threshold = gamma * (1.0 - 1e-9)
    survivors = [
        (u, v, p)
        for u, v, p in graph.edges_with_probabilities()
        if p >= threshold
    ]
    if not survivors:
        return set(), 0.0
    pruned = ProbabilisticGraph(survivors)

    adj = {u: set(pruned.neighbors(u)) for u in pruned.nodes()}
    best: set[Node] = set()
    best_prob = 0.0

    def expand(r: set[Node], r_prob: float, p: set[Node], x: set[Node]):
        nonlocal best, best_prob
        # Record every feasible clique, not just structurally maximal
        # ones: the probability constraint can stop growth strictly
        # inside a larger structural clique (e.g. a reliable K4 inside
        # an unreliable K5).
        if r and (len(r) > len(best) or (
            len(r) == len(best) and r_prob > best_prob
        )):
            best, best_prob = set(r), r_prob
        if not p:
            return
        if len(r) + len(p) < len(best):
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in list(p - adj[pivot]):
            new_prob = r_prob
            feasible = True
            for u in r:
                new_prob *= pruned.probability(u, v)
                if new_prob < threshold:
                    feasible = False
                    break
            if feasible:
                expand(r | {v}, new_prob, p & adj[v], x & adj[v])
            p.discard(v)
            x.add(v)

    expand(set(), 1.0, set(adj), set())
    if len(best) < 2:
        # Best single edge above gamma.
        u, v, p = max(survivors, key=lambda t: t[2])
        return {u, v}, p
    return best, best_prob
