"""Probabilistic (r, s)-nucleus decomposition (local semantics).

Generalises the local (k, gamma)-truss decomposition of
:mod:`repro.core.local` from edges-supported-by-triangles to
r-cliques-supported-by-s-cliques, following Esfahani et al.'s
probabilistic nucleus semantics. Restricted to ``s = r + 1``
(``(2, 3)`` and ``(3, 4)``), every s-clique through an r-clique ``R``
is ``R`` plus one *apex* vertex ``x``, and the edges it adds —
``{(x, y) : y in R}`` — are disjoint across apexes. Conditioned on
``R`` existing, the supports are therefore independent Bernoulli
trials with success probability

    ``q_x = prod_{y in R} p(x, y)``

and the *entire* Eq. 5–8 support-probability machinery of
:class:`~repro.core.support_prob.SupportProbability` — the O(k^2)
dynamic program, the tail scan, and the Eq. 8 O(k) deconvolution
update — lifts unchanged: the factors are just ``q_x`` products of r
edge probabilities instead of two.

The *nucleus score* ``nu(R)`` is the largest k such that ``R`` belongs
to a sub-collection ``C`` of r-cliques where every member satisfies

    ``Pr[R exists] * Pr[sup_C(R) >= k - 2 | R exists] >= gamma``

with ``sup_C(R)`` counting only s-cliques whose r-subcliques all lie in
``C``. For ``(r, s) = (2, 3)`` this is *definitionally* the local
(k, gamma)-truss decomposition: ``q_x`` reduces to the co-triangle
probability of Eq. 5 and ``Pr[R exists]`` to ``p(e)``, so this module
is also the engine behind
:func:`~repro.core.local.local_truss_decomposition`, whose
``trussness`` map is the ``(2, 3)`` score dict. The truss-style
numbering ``k = support threshold + 2`` is kept for every (r, s).

All factor orderings here are canonical (apexes in
:func:`~repro.truss.nucleus.clique_key` order), and every initial PMF
comes from one row-batched :func:`~repro.core.support_prob.support_pmfs`
call per apex count, bit-identical to the one-cell DP — so the scores
are byte-stable across processes.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field
from itertools import combinations

from repro.core.support_prob import SupportProbability, support_pmfs
from repro.exceptions import ParameterError
from repro.graphs.probabilistic import ProbabilisticGraph, edge_key
from repro.truss.nucleus import (
    apex_candidates,
    clique_key,
    enumerate_r_cliques,
    validate_rs,
)

__all__ = [
    "NucleusResult",
    "nucleus_decomposition",
    "clique_probability",
    "apex_factor",
]

Node = Hashable
Clique = tuple

_METHODS = ("dp", "baseline")

#: Peeled r-cliques between progress-hook notifications. Small enough
#: that a budget breach overshoots by a fraction of a second even on the
#: large synthetic networks, large enough to keep the hook off the
#: per-clique hot path.
_PROGRESS_INTERVAL = 64


class _LevelBuckets:
    """Bucket queue over r-cliques keyed by level (levels only decrease).

    ``level`` maps every still-queued clique to its current level, so a
    membership test on it is the peel's liveness check. Buckets are
    insertion-ordered dicts rather than sets: pops are last-in-first-out,
    so the peel order — and with it the order of the score dict — is
    the same in every process, whatever ``PYTHONHASHSEED``.
    """

    def __init__(self, levels: dict[Clique, int]):
        self.level = dict(levels)
        top = max(levels.values(), default=1)
        self._buckets: list[dict[Clique, None]] = [
            {} for _ in range(top + 1)]
        for cell, lvl in levels.items():
            self._buckets[lvl][cell] = None
        self._cursor = 0

    def __len__(self) -> int:
        return len(self.level)

    def pop_min(self) -> tuple[Clique, int]:
        """Remove and return a (clique, level) pair of minimum level."""
        while not self._buckets[self._cursor]:
            self._cursor += 1
        cell, _ = self._buckets[self._cursor].popitem()
        del self.level[cell]
        return cell, self._cursor

    def update(self, cell: Clique, new_level: int) -> None:
        """Lower the level of ``cell`` to ``new_level`` (no-op if not lower)."""
        old = self.level.get(cell)
        if old is None or new_level >= old:
            return
        del self._buckets[old][cell]
        self.level[cell] = new_level
        self._buckets[new_level][cell] = None
        if new_level < self._cursor:
            self._cursor = new_level


def _node_sort_key(w):
    """Canonical cross-type node ordering for reported edge lists."""
    return (type(w).__name__, str(w))


def _canonical_apexes(graph: ProbabilisticGraph, cell: Clique) -> Clique:
    """The apexes of ``cell`` in canonical order: the order its support
    factors are folded into the DP, whatever the worker count."""
    return clique_key(apex_candidates(graph, cell))


def clique_probability(graph: ProbabilisticGraph, cell: Clique) -> float:
    """``Pr[R exists]``: the product of R's own edge probabilities.

    Factors are folded in canonical pair order (the clique tuple is
    already canonical), so the result is byte-stable.
    """
    prob = 1.0
    for a, b in combinations(cell, 2):
        prob *= graph.probability(a, b)
    return prob


def apex_factor(graph: ProbabilisticGraph, cell: Clique, x: Node) -> float:
    """``q_x = prod_{y in R} p(x, y)`` — the probability that the
    s-clique ``R + {x}`` exists given that ``R`` does.

    For ``r = 2`` this reproduces
    :func:`~repro.core.support_prob.triangle_probabilities` bit for bit
    (same operand order; multiplication by the 1.0 seed is exact).
    """
    q = 1.0
    for y in cell:
        q *= graph.probability(x, y)
    return q


@dataclass
class NucleusResult:
    """Outcome of a probabilistic (r, s)-nucleus decomposition.

    Attributes
    ----------
    graph:
        The input probabilistic graph (unmodified).
    r, s:
        The nucleus family; only ``s = r + 1`` is supported.
    gamma:
        The probability threshold used.
    scores:
        ``{r-clique: nu}`` for every r-clique of the graph, with the
        truss-style offset (``nu >= 2`` means the clique survives the
        trivial threshold; ``nu = 1`` marks cliques whose own existence
        probability is already below gamma). For ``(2, 3)`` the keys
        are :func:`~repro.graphs.probabilistic.edge_key` tuples and the
        dict equals the local trussness map.
    method:
        ``"dp"`` or ``"baseline"``.
    """

    graph: ProbabilisticGraph
    r: int
    s: int
    gamma: float
    scores: dict[Clique, int]
    method: str = "dp"
    _edges_cache: dict[int, list[tuple]] = field(default_factory=dict,
                                                 repr=False)

    @property
    def k_max(self) -> int:
        """The largest k with a non-empty (k, gamma)-nucleus (>= 2), or 0."""
        top = max(self.scores.values(), default=0)
        return top if top >= 2 else 0

    def score_of(self, *nodes: Node) -> int:
        """Return ``nu`` of the r-clique on ``nodes`` (any order)."""
        if len(nodes) != self.r:
            raise ParameterError(
                f"expected {self.r} nodes for an r={self.r} clique, "
                f"got {len(nodes)}"
            )
        return self.scores[clique_key(nodes)]

    def nucleus_cliques(self, k: int) -> list[Clique]:
        """All r-cliques with score >= k."""
        if k < 2:
            raise ParameterError(f"k must be at least 2, got {k}")
        return [cell for cell, nu in self.scores.items() if nu >= k]

    def nucleus_edges(self, k: int) -> list[tuple]:
        """The distinct edges covered by the k-nucleus r-cliques.

        For ``r = 2`` these are the surviving edges themselves; for
        ``r = 3`` the union of the triangles' edges — the shape the
        containment-monotonicity property ((3,4) edges are a subset of
        (2,3) edges at matching thresholds) is stated over.
        """
        if k not in self._edges_cache:
            edges = {pair for cell in self.nucleus_cliques(k)
                     for pair in combinations(cell, 2)}
            self._edges_cache[k] = sorted(edges, key=_edge_order)
        return list(self._edges_cache[k])


def _edge_order(e: tuple) -> tuple:
    return tuple(_node_sort_key(w) for w in e)


def nucleus_decomposition(
    graph: ProbabilisticGraph,
    r: int,
    s: int,
    gamma: float,
    method: str = "dp",
    progress=None,
) -> NucleusResult:
    """Compute the probabilistic (r, s)-nucleus score of every r-clique.

    Global peeling: repeatedly retire the r-clique whose current level
    is smallest; every s-clique through it stops supporting its other
    r-subcliques, whose PMFs shed the corresponding Bernoulli factor
    (Eq. 8 deconvolution for ``method="dp"``, full O(k^2) recompute for
    ``method="baseline"``). This is the one peel engine of the package:
    :func:`~repro.core.local.local_truss_decomposition` is its
    ``(2, 3)`` instance. The initial support PMFs are computed serially
    in this process, one batched
    :func:`~repro.core.support_prob.support_pmfs` call per apex count.

    Parameters
    ----------
    graph:
        Input probabilistic graph (not modified).
    r, s:
        The nucleus family: ``(2, 3)`` (edges / triangles — the local
        truss decomposition) or ``(3, 4)`` (triangles / 4-cliques).
    gamma:
        Threshold in [0, 1].
    method:
        ``"dp"`` or ``"baseline"`` (differential pair, as in Figure 5).
    progress:
        Optional progress hook, called with a ``"nucleus-peel"``
        :class:`~repro.runtime.progress.ProgressEvent` every
        ``_PROGRESS_INTERVAL`` peeled cliques. A raising hook aborts
        the peel; scores assigned so far (final — emitted in
        nondecreasing order) are attached as ``err.partial``.

    Returns
    -------
    NucleusResult
    """
    validate_rs(r, s)
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must be in [0, 1], got {gamma}")
    if method not in _METHODS:
        raise ParameterError(f"method must be one of {_METHODS}, got {method!r}")

    cells = enumerate_r_cliques(graph, r)
    apexes = {cell: _canonical_apexes(graph, cell) for cell in cells}
    probs = {cell: clique_probability(graph, cell) for cell in cells}

    # Algorithm 2 for every cell up front: one row-batched DP per apex
    # count. `levels` is built in `cells` order whatever the grouping,
    # because the bucket queue pops in insertion order.
    groups: dict[int, list[Clique]] = {}
    for cell in cells:
        groups.setdefault(len(apexes[cell]), []).append(cell)
    pmfs: dict[Clique, SupportProbability] = {}
    for group in groups.values():
        rows = [[apex_factor(graph, cell, x) for x in apexes[cell]]
                for cell in group]
        for cell, qs, pmf in zip(group, rows, support_pmfs(rows)):
            pmfs[cell] = SupportProbability.from_factors(qs, pmf)
    levels = {cell: pmfs[cell].level(gamma, probs[cell]) for cell in cells}

    queue = _LevelBuckets(levels)
    alive = queue.level
    scores: dict[Clique, int] = {}
    n_cells = len(cells)
    k = 1
    while queue:
        if progress is not None and scores and (
                len(scores) % _PROGRESS_INTERVAL == 0):
            from repro.runtime.progress import ProgressEvent

            try:
                progress(ProgressEvent(
                    "nucleus-peel", step=len(scores), total=n_cells,
                ))
            except Exception as err:
                # Salvage the final scores assigned so far for callers
                # that report partial results.
                if getattr(err, "partial", None) is None:
                    try:
                        err.partial = dict(scores)
                    except AttributeError:  # exceptions with __slots__
                        pass
                raise
        cell, lvl = queue.pop_min()
        # Running max mirrors the truss peel: a clique whose level
        # cascaded below the current stage still met the stage-k
        # stability condition when stage k began, so nu = k.
        k = max(k, lvl)
        scores[cell] = k
        affected: list[Clique] = []
        for x in apexes[cell]:
            siblings = _live_siblings(graph, cell, x, alive)
            if siblings is None:
                continue
            for other, q in siblings:
                if method == "dp":
                    # Eq. 8 deconvolution of the factor S = cell + {x}
                    # contributed to `other`.
                    pmfs[other].remove_triangle(q)
                affected.append(other)
        if method == "baseline":
            # Recompute affected PMFs from scratch with the full
            # O(k^2) dynamic program over the still-alive structure.
            for other in affected:
                pmfs[other] = SupportProbability([
                    apex_factor(graph, other, x) for x in apexes[other]
                    if _live_siblings(graph, other, x, alive) is not None
                ])
        # Refresh levels; shedding a support only lowers the tail
        # pointwise, so levels only decrease.
        for other in affected:
            queue.update(other, pmfs[other].level(gamma, probs[other]))
    return NucleusResult(graph=graph, r=r, s=s, gamma=gamma, scores=scores,
                         method=method)


def _live_siblings(graph: ProbabilisticGraph, cell: Clique, x: Node,
                   alive) -> list[tuple[Clique, float]] | None:
    """The other r-subcliques of the s-clique ``S = cell + {x}``, each
    with the factor S contributes to its support — or None once any of
    them is peeled, since S then supports none of them.

    Each factor is ``apex_factor(graph, other, y)`` for the vertex ``y``
    of ``cell`` that ``other`` lacks: the exact expression the
    initialisation folded in, so the Eq. 8 removal matches bit for bit.
    The ``r = 2`` branch spells that product out (``1.0 * a * b`` is
    ``a * b`` exactly) because it is the peel's innermost loop.
    """
    if len(cell) == 2:
        u, v = cell
        vx = edge_key(v, x)
        ux = edge_key(u, x)
        if vx not in alive or ux not in alive:
            return None
        p = graph.probability
        return [(vx, p(u, vx[0]) * p(u, vx[1])),
                (ux, p(v, ux[0]) * p(v, ux[1]))]
    siblings = []
    for i, y in enumerate(cell):
        other = clique_key(cell[:i] + cell[i + 1:] + (x,))
        if other not in alive:
            return None
        siblings.append((other, apex_factor(graph, other, y)))
    return siblings
