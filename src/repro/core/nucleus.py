"""Probabilistic (r, s)-nucleus decomposition (local semantics).

Generalises the local (k, gamma)-truss decomposition of
:mod:`repro.core.local` from edges-supported-by-triangles to
r-cliques-supported-by-s-cliques, following Esfahani et al.'s
probabilistic nucleus semantics. Restricted to ``s = r + 1``
(``(1, 2)``, ``(2, 3)`` and ``(3, 4)``), every s-clique through an
r-clique ``R`` is ``R`` plus one *apex* vertex ``x``, and the edges it
adds — ``{(x, y) : y in R}`` — are disjoint across apexes. Conditioned on
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
``trussness`` map is the ``(2, 3)`` score dict. Likewise ``(1, 2)``
(``Pr[R] = 1``, ``q_x = p(v, x)``) is the (k, eta)-core with
``eta = gamma``, offset by 2. The truss-style numbering
``k = support threshold + 2`` is kept for every (r, s).

The peel is id-indexed, in the manner of PKT's edge ids and triangle
arrays: a cell's id is its position in
:func:`~repro.truss.nucleus.enumerate_r_cliques`, and its apexes,
``Pr[R]`` and PMF are read by id. One flat ``bytearray`` holds a death
mark per (cell, apex slot), found through ``array("q")`` offsets. An
s-clique retires once, when the first of its r-subcliques pops: that
pop marks the s-clique's slot in each of the other r-subcliques and
removes its factor from their PMFs, so a later pop skips the slot
without building a key. Each removed factor is the product the initial
row folded in, read from the graph's adjacency in the same operand
order, so the Eq. 8 deconvolution removes it bit for bit. Only the
bucket queue is keyed by clique tuple.

All factor orderings here are canonical (apexes in
:func:`~repro.truss.nucleus.clique_key` order), and every initial PMF
comes from one row-batched :func:`~repro.core.support_prob.support_pmfs`
call per apex count, bit-identical to the one-cell DP — so the scores
are byte-stable across processes.
"""

from __future__ import annotations

from array import array
from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field
from itertools import combinations

from repro.core.support_prob import SupportProbability, support_pmfs
from repro.exceptions import ParameterError
from repro.graphs.probabilistic import ProbabilisticGraph
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

    ``level`` maps every still-queued clique to its current level; the
    queue takes it over from the caller. Buckets are
    insertion-ordered dicts rather than sets: pops are last-in-first-out,
    so the peel order — and with it the order of the score dict — is
    the same in every process, whatever ``PYTHONHASHSEED``.
    """

    def __init__(self, levels: dict[Clique, int]):
        self.level = levels
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


def _factor(px: Mapping[Node, float], cell: Clique) -> float:
    """:func:`apex_factor` of apex ``x`` read from ``px``, x's
    ``{neighbour: p}`` map: the same product in the same operand order,
    so the peel's Eq. 8 removals match the initial rows bit for bit."""
    q = 1.0
    for y in cell:
        q *= px[y]
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
        (2,3) edges at matching thresholds) is stated over. For
        ``r = 1`` a cell is a node, so these are the edges its nodes
        induce — the (k - 2, gamma)-core subgraph.
        """
        if k not in self._edges_cache:
            cells = self.nucleus_cliques(k)
            if self.r == 1:
                edges = set(self.graph.subgraph(c[0] for c in cells).edges())
            else:
                edges = {pair for cell in cells
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
    ``(2, 3)`` instance and
    :func:`~repro.core.pcore.eta_core_decomposition` its ``(1, 2)``
    instance. The initial support PMFs are computed serially
    in this process, one batched
    :func:`~repro.core.support_prob.support_pmfs` call per apex count.

    Parameters
    ----------
    graph:
        Input probabilistic graph (not modified).
    r, s:
        The nucleus family: ``(1, 2)`` (nodes / edges — the
        (k, eta)-core), ``(2, 3)`` (edges / triangles — the local truss
        decomposition) or ``(3, 4)`` (triangles / 4-cliques).
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
    n_cells = len(cells)
    ids = {cell: i for i, cell in enumerate(cells)}
    adj = graph.adjacency()
    apexes = [_canonical_apexes(graph, cell) for cell in cells]
    probs = [clique_probability(graph, cell) for cell in cells]
    # dead[offsets[i] + j] marks the s-clique cells[i] + {apexes[i][j]}
    # retired: one of its other r-subcliques has been peeled.
    offsets = array("q", [0])
    for row in apexes:
        offsets.append(offsets[-1] + len(row))
    dead = bytearray(offsets[-1])

    # Algorithm 2 for every cell up front: one row-batched DP per apex
    # count. The levels are built in `cells` order whatever the
    # grouping, because the bucket queue pops in insertion order.
    groups: dict[int, list[int]] = {}
    for i in ids.values():  # the ids' own int objects: no copies
        groups.setdefault(len(apexes[i]), []).append(i)
    pmfs: list[SupportProbability] = [None] * n_cells
    for group in groups.values():
        rows = [[_factor(adj[x], cells[i]) for x in apexes[i]]
                for i in group]
        for i, qs, pmf in zip(group, rows, support_pmfs(rows)):
            pmfs[i] = SupportProbability.from_factors(qs, pmf)
    queue = _LevelBuckets({cell: pmfs[i].level(gamma, probs[i])
                           for i, cell in enumerate(cells)})
    scores: dict[Clique, int] = {}
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
        i = ids[cell]
        first = offsets[i]
        affected: list[int] = []
        for j, x in enumerate(apexes[i]):
            if dead[first + j]:
                continue
            # The s-clique S = cell + {x} retires with cell: it stops
            # supporting each sibling cell - {y} + {x}, whose factor is
            # the product the initial row folded in for its apex y.
            for pos, y in enumerate(cell):
                other = ids[clique_key(cell[:pos] + cell[pos + 1:] + (x,))]
                dead[offsets[other] + apexes[other].index(y)] = 1
                if method == "dp":
                    # Eq. 8 deconvolution of S's factor.
                    pmfs[other].remove_triangle(_factor(adj[y], cells[other]))
                affected.append(other)
        if method == "baseline":
            # Recompute affected PMFs from scratch with the full
            # O(k^2) dynamic program over the still-live s-cliques.
            for other in affected:
                base = offsets[other]
                pmfs[other] = SupportProbability([
                    _factor(adj[x], cells[other])
                    for j, x in enumerate(apexes[other])
                    if not dead[base + j]
                ])
        # Refresh levels; shedding a support only lowers the tail
        # pointwise, so levels only decrease.
        for other in affected:
            queue.update(cells[other], pmfs[other].level(gamma, probs[other]))
    return NucleusResult(graph=graph, r=r, s=s, gamma=gamma, scores=scores,
                         method=method)

