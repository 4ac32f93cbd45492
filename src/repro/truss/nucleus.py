"""Deterministic (r, s)-nucleus decomposition by iterative peeling.

The (r, s)-nucleus framework of Sariyüce et al. generalises truss
decomposition: the objects being peeled are *r-cliques* and the support
of an r-clique ``R`` is the number of *s-cliques* containing it whose
other r-subcliques are all still alive. For ``(r, s) = (2, 3)`` the
objects are edges supported by triangles and the peeling below is
*exactly* :func:`~repro.truss.decomposition.truss_decomposition` — the
differential oracle the probabilistic generalisation
(:mod:`repro.core.nucleus`) is tested against. ``(3, 4)`` peels
triangles supported by 4-cliques, and ``(1, 2)`` peels nodes supported
by their incident edges: the k-core.

Only ``s = r + 1`` is supported: each s-clique through ``R`` is then
determined by a single *apex* vertex adjacent to all of ``R``, which is
what lets the probabilistic version treat supports as independent
Bernoulli factors (the apex's edge sets into ``R`` are disjoint across
apexes).

Numbering convention: we keep the truss-style offset ``k = support + 2``
for every ``(r, s)`` — so ``(2, 3)``-nucleus numbers coincide literally
with trussness, and ``(1, 2)``-nucleus numbers are core numbers plus 2
(Sariyüce's kappa is ``k - 2``).
"""

from __future__ import annotations

from collections.abc import Collection, Hashable, Sequence

from repro.exceptions import ParameterError
from repro.graphs.probabilistic import ProbabilisticGraph
from repro.truss.decomposition import LevelQueue

__all__ = [
    "clique_key",
    "enumerate_r_cliques",
    "apex_candidates",
    "structural_nucleus_decomposition",
    "max_nucleus_number",
]

Node = Hashable
Clique = tuple

#: The (r, s) pairs the peeling supports; all have s = r + 1 (see
#: module docstring for why that restriction is load-bearing).
SUPPORTED_RS = ((1, 2), (2, 3), (3, 4))


def validate_rs(r: int, s: int) -> None:
    """Reject (r, s) pairs outside the supported ``s = r + 1`` family."""
    if (r, s) not in SUPPORTED_RS:
        supported = ", ".join(str(p) for p in SUPPORTED_RS)
        raise ParameterError(
            f"(r, s) must be one of {supported}, got ({r}, {s}); only "
            "s = r + 1 nuclei have the single-apex structure this "
            "implementation (and its probabilistic lift) relies on"
        )


def clique_key(nodes: Collection[Node]) -> Clique:
    """Canonical (order-independent) tuple key for a clique.

    For two nodes this coincides with
    :func:`~repro.graphs.probabilistic.edge_key`, including the
    ``(type name, repr)`` fallback for incomparable node types — the
    property that makes (2, 3)-nucleus keys literally equal truss keys.
    """
    try:
        return tuple(sorted(nodes))
    except TypeError:
        return tuple(sorted(nodes, key=lambda w: (type(w).__name__, repr(w))))


def apex_candidates(graph: ProbabilisticGraph, nodes: Sequence[Node]) -> set:
    """Vertices adjacent to *every* node of ``nodes`` (the s-clique apexes).

    Intersects the neighbour maps' key views, which builds no temporary
    set per node; no node is its own neighbour, so none of ``nodes``
    survives. Every node must be in the graph (``KeyError`` otherwise).
    """
    adj = graph.adjacency()
    it = iter(nodes)
    common = adj[next(it)].keys()
    for v in it:
        common = common & adj[v].keys()
    return set(common)


def enumerate_r_cliques(graph: ProbabilisticGraph, r: int) -> list[Clique]:
    """All r-cliques of ``graph`` as canonical tuples, each exactly once.

    ``r = 1`` yields the nodes as 1-tuples, in adjacency order; ``r = 2``
    yields the edges (as :func:`edge_key` tuples); ``r = 3`` yields the
    triangles.
    """
    if r == 1:
        return [(u,) for u in graph.nodes()]
    if r == 2:
        return [clique_key(e) for e in graph.edges()]
    if r == 3:
        return [clique_key(t) for t in graph.triangles()]
    raise ParameterError(f"r must be 1, 2 or 3, got {r}")


def _sibling_cliques(R: Clique, x: Node) -> list[Clique]:
    """The other r-cliques of the s-clique ``R + {x}``: drop one vertex
    of ``R``, add the apex."""
    return [clique_key(R[:i] + R[i + 1:] + (x,)) for i in range(len(R))]


def structural_nucleus_decomposition(
    graph: ProbabilisticGraph, r: int = 2, s: int = 3
) -> dict[Clique, int]:
    """Return the nucleus number of every r-clique (probabilities ignored).

    The nucleus number of ``R`` is the largest ``k`` such that ``R``
    belongs to a sub-collection of r-cliques in which every member is
    contained in at least ``k - 2`` s-cliques whose r-subcliques all
    belong to the collection. For ``(2, 3)`` this dict equals
    :func:`~repro.truss.decomposition.truss_decomposition` exactly —
    same keys, same integers.
    """
    validate_rs(r, s)
    cliques = enumerate_r_cliques(graph, r)
    # Canonical apex order and the insertion-ordered level queue: the
    # peel order does not depend on PYTHONHASHSEED.
    apexes = {R: clique_key(apex_candidates(graph, R)) for R in cliques}
    queue = LevelQueue({R: len(apexes[R]) for R in cliques})
    alive = queue.level  # the r-cliques not yet peeled

    nucleus: dict[Clique, int] = {}
    k = 2
    while queue:
        R, sup = queue.pop_min()
        k = max(k, sup + 2)
        nucleus[R] = k
        floor = k - 2
        for x in apexes[R]:
            siblings = _sibling_cliques(R, x)
            # The s-clique R + {x} supported each sibling only while all
            # of its r-subcliques were alive; R's death retires it.
            if all(o in alive for o in siblings):
                for o in siblings:
                    queue.decrement(o, floor)
    return nucleus


def max_nucleus_number(graph: ProbabilisticGraph, r: int = 2,
                       s: int = 3) -> int:
    """The largest nucleus number of any r-clique (0 when none exist)."""
    return max(structural_nucleus_decomposition(graph, r, s).values(),
               default=0)
