"""Exhaustive global (k, gamma)-truss enumeration for small graphs.

GLOBALDECOMP's answers can be exponential (Lemma 2) and even a single
alpha evaluation is #P-hard (Theorem 1) — but on *small* graphs both are
brute-forceable, and that is exactly what tests and ablations need: a
ground-truth oracle against which GTD (exact w.r.t. samples) and GBU
(heuristic) can be judged.

:func:`exact_global_decomposition` enumerates candidate edge-subsets in
decreasing size, checks each against the exact Definition 3 (via
:func:`~repro.core.global_truss.alpha_exact`), and keeps the maximal
satisfying subgraphs. Search-space reduction uses only *sound* pruning:

* candidates are restricted to edges of the structural k-truss —
  an edge outside it has alpha = 0 in every subgraph;
* candidates must be edge-connected (Definition 3 requires structural
  connectivity);
* supersets of already-accepted answers are impossible by the
  decreasing-size enumeration order, so maximality is by construction.
"""

from __future__ import annotations

from collections.abc import Hashable
from itertools import combinations

from repro.exceptions import ParameterError
from repro.graphs.components import is_connected
from repro.graphs.probabilistic import ProbabilisticGraph, edge_key
from repro.core.global_truss import alpha_exact
from repro.truss.decomposition import k_truss_edges

__all__ = ["exact_global_decomposition", "enumerate_global_trusses"]

Node = Hashable
Edge = tuple[Node, Node]

#: Enumerating subsets AND each subset's worlds costs Theta(3^m) in
#: total; refuse beyond this candidate size.
_MAX_ENUM_EDGES = 14


def enumerate_global_trusses(
    graph: ProbabilisticGraph, k: int, gamma: float
) -> list[ProbabilisticGraph]:
    """Return ALL maximal global (k, gamma)-trusses of ``graph``, exactly.

    Exponential in the structural k-truss size; raises
    :class:`ParameterError` beyond 14 candidate edges. Intended as a test
    oracle and for paper-style constructions (windmills, gadgets).
    """
    if k < 2:
        raise ParameterError(f"k must be at least 2, got {k}")
    if not 0.0 < gamma <= 1.0:
        raise ParameterError(f"gamma must be in (0, 1], got {gamma}")

    all_edges = {edge_key(u, v) for u, v in graph.edges()}
    candidate_edges = sorted(
        k_truss_edges(graph, all_edges, k), key=str
    )
    m = len(candidate_edges)
    if m > _MAX_ENUM_EDGES:
        raise ParameterError(
            f"exact enumeration needs <= {_MAX_ENUM_EDGES} candidate "
            f"edges, got {m}"
        )

    threshold = gamma * (1.0 - 1e-9)
    answers: list[frozenset[Edge]] = []
    results: list[ProbabilisticGraph] = []
    for size in range(m, 0, -1):
        for combo in combinations(candidate_edges, size):
            key = frozenset(combo)
            if any(key <= found for found in answers):
                continue  # subset of an existing answer: not maximal
            subgraph = graph.edge_subgraph(combo)
            if not is_connected(subgraph):
                continue
            alpha = alpha_exact(subgraph, k)
            if all(a >= threshold for a in alpha.values()):
                answers.append(key)
                results.append(subgraph)
    return results


def exact_global_decomposition(
    graph: ProbabilisticGraph, gamma: float, max_k: int | None = None
) -> dict[int, list[ProbabilisticGraph]]:
    """Return ``{k: all maximal global (k, gamma)-trusses}``, exactly.

    Enumerates k = 2 upward until no satisfying truss remains (the
    monotonicity of global trusses w.r.t. k guarantees termination).
    Same size limits as :func:`enumerate_global_trusses`.
    """
    if not 0.0 < gamma <= 1.0:
        raise ParameterError(f"gamma must be in (0, 1], got {gamma}")
    out: dict[int, list[ProbabilisticGraph]] = {}
    k = 2
    while True:
        if max_k is not None and k > max_k:
            break
        trusses = enumerate_global_trusses(graph, k, gamma)
        if not trusses:
            break
        out[k] = trusses
        k += 1
    return out
