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

and the *entire* Eq. 5–8 support-probability arithmetic of
:mod:`repro.core.support_prob` — the O(k^2) dynamic program, the level
and tail scans, and the Eq. 8 O(k) deconvolution update — lifts
unchanged: the factors are just ``q_x`` products of r edge
probabilities instead of two.

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
``Pr[R]`` and PMF are read by id. The engine holds its Eq. 8 state
itself, with no per-cell object: a flat ``bytearray`` of death marks
and a flat ``array("d")`` of factors, one entry each per (cell, apex
slot), found through ``array("q")`` offsets; a plain-list PMF and one
error bound per cell. An s-clique retires once, when the first of its
r-subcliques pops: that pop marks the s-clique's slot in each of the
other r-subcliques and divides the slot's stored factor, the one the
initial row folded in, out of their PMFs, so a later pop skips the slot
without building a key. Each removal is
:func:`~repro.core.support_prob.drop_factor`, the Eq. 8 step that
:class:`~repro.core.support_prob.SupportProbability` takes for one cell.

Two drivers pop cell ids over that one retirement step. The
level-keyed :func:`nucleus_decomposition` pops from the
:class:`~repro.truss.decomposition.LevelQueue` every peel uses. The
value-keyed ``_max_min_peel`` pops the least ``tail(k - 2) * Pr[R]``
at a fixed k from a heap, ties by id, and yields each cell's largest
gamma; it runs :mod:`repro.core.gamma_decomp` and
:mod:`repro.core.frontier`. Beside them,
:class:`~repro.truss.dynamic.DynamicLocalTruss` holds a ``(2, 3)``
state and runs a FIFO cascade at a fixed (k, gamma): it retires every
queued cell that fails the test and queues the ids the step returns.

All factor orderings here are canonical (apexes in
:func:`~repro.truss.nucleus.clique_key` order), and every initial PMF
comes from one row-batched :func:`~repro.core.support_prob.support_pmfs`
call per apex count, bit-identical to the one-cell DP — so the scores
are byte-stable across processes.
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Hashable, Mapping
from copy import copy
from dataclasses import dataclass, field
from itertools import combinations

from repro.core.support_prob import (
    FRESH_ERROR,
    drop_factor,
    live_factors,
    support_level,
    support_pmf,
    support_pmfs,
    tail_at,
)
from repro.exceptions import ParameterError
from repro.graphs.probabilistic import ProbabilisticGraph
from repro.truss.decomposition import LevelQueue
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


def _node_sort_key(w):
    """Canonical cross-type node ordering for reported edge lists."""
    return (type(w).__name__, str(w))


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
    ``{neighbour: p}`` map: the same product in the same operand
    order."""
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


class _CellState:
    """The peel's per-cell state, indexed by cell id: the cells, their
    canonical apexes, ``Pr[R]`` and the Eq. 8 state. One flat
    ``array("d")`` holds each (cell, apex slot)'s factor beside its death
    mark; each cell has a plain-list PMF, every initial one from one
    row-batched DP per apex count, and one error bound. Only ``dead``,
    ``pmfs`` and ``errors`` change during a peel, and a PMF list is
    replaced, never changed in place."""

    def __init__(self, graph: ProbabilisticGraph, r: int):
        self.cells = cells = enumerate_r_cliques(graph, r)
        self.ids = ids = {cell: i for i, cell in enumerate(cells)}
        adj = graph.adjacency()
        # Apexes in canonical order: the order the DP folds factors in.
        self.apexes = apexes = [clique_key(apex_candidates(graph, cell))
                                for cell in cells]
        self.probs = [clique_probability(graph, cell) for cell in cells]
        # Slot offsets[i] + j is the s-clique cells[i] + {apexes[i][j]}:
        # dead marks it retired (one of its other r-subcliques has been
        # peeled), factors holds its q_x.
        self.offsets = offsets = array("q", [0])
        for row in apexes:
            offsets.append(offsets[-1] + len(row))
        self.dead = bytearray(offsets[-1])
        self.factors = factors = array("d", [
            _factor(adj[x], cell)
            for cell, row in zip(cells, apexes) for x in row])
        self.errors = array("d", [FRESH_ERROR]) * len(cells)
        groups: dict[int, list[int]] = {}
        for i in ids.values():  # the ids' own int objects: no copies
            groups.setdefault(len(apexes[i]), []).append(i)
        self.pmfs = pmfs = [None] * len(cells)
        for group in groups.values():
            rows = [factors[offsets[i]:offsets[i + 1]].tolist()
                    for i in group]
            for i, pmf in zip(group, support_pmfs(rows)):
                pmfs[i] = pmf

    def fork(self) -> "_CellState":
        """A copy that peels on its own death marks, PMFs and error
        bounds; the rest is shared, since no peel changes it. The PMF
        lists themselves are shared too: a peel replaces them."""
        twin = copy(self)
        twin.dead = bytearray(self.dead)
        twin.pmfs = list(self.pmfs)
        twin.errors = array("d", self.errors)
        return twin

    def retire(self, i: int, method: str = "dp") -> list[int]:
        """The retirement step both drivers share: retire every live
        s-clique through cell ``i``, marking its slot dead in each other
        r-subclique and removing its stored factor from their PMFs
        (:func:`~repro.core.support_prob.drop_factor` for ``"dp"``; a
        full recompute for ``"baseline"``).
        Returns the affected ids."""
        cells, ids, apexes, offsets = (self.cells, self.ids, self.apexes,
                                       self.offsets)
        dead, factors, pmfs, errors = (self.dead, self.factors, self.pmfs,
                                       self.errors)
        dp = method == "dp"

        def live():
            # Called only inside drop_factor, so ``other`` is the cell
            # being updated. One closure per call, not per removal.
            lo, hi = offsets[other], offsets[other + 1]
            return live_factors(factors[lo:hi], dead[lo:hi])

        cell = cells[i]
        first = offsets[i]
        affected: list[int] = []
        for j, x in enumerate(apexes[i]):
            if dead[first + j]:
                continue
            # The s-clique S = cell + {x} retires with cell: it stops
            # supporting each sibling cell - {y} + {x}, in its slot for
            # apex y.
            for pos, y in enumerate(cell):
                other = ids[clique_key(cell[:pos] + cell[pos + 1:] + (x,))]
                slot = offsets[other] + apexes[other].index(y)
                dead[slot] = 1
                if dp:
                    # The Eq. 8 removal of S's factor.
                    pmfs[other], errors[other] = drop_factor(
                        pmfs[other], errors[other], factors[slot], live)
                affected.append(other)
        if not dp:
            # Recompute affected PMFs from scratch with the full
            # O(k^2) dynamic program over the still-live s-cliques.
            for other in affected:
                pmfs[other] = support_pmf([
                    factors[j] for j in range(offsets[other],
                                              offsets[other + 1])
                    if not dead[j]
                ])
        return affected


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
    instance. The initial support PMFs come from one batched
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

    state = _CellState(graph, r)
    cells, pmfs, probs = state.cells, state.pmfs, state.probs
    # Levels in id order, whatever the DP grouping: the level queue
    # pops in insertion order.
    queue = LevelQueue({i: support_level(pmfs[i], gamma, probs[i])
                        for i in state.ids.values()})
    scores: dict[Clique, int] = {}
    k = 1
    while queue:
        if progress is not None and scores and (
                len(scores) % _PROGRESS_INTERVAL == 0):
            from repro.runtime.progress import ProgressEvent

            try:
                progress(ProgressEvent(
                    "nucleus-peel", step=len(scores), total=len(cells),
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
        i, lvl = queue.pop_min()
        # Running max mirrors the truss peel: a clique whose level
        # cascaded below the current stage still met the stage-k
        # stability condition when stage k began, so nu = k.
        k = max(k, lvl)
        scores[cells[i]] = k
        # Refresh levels; shedding a support only lowers the tail
        # pointwise, so levels only decrease.
        for other in state.retire(i, method):
            queue.lower(other, support_level(pmfs[other], gamma,
                                             probs[other]))
    return NucleusResult(graph=graph, r=r, s=s, gamma=gamma, scores=scores,
                         method=method)


def _max_min_peel(state: _CellState, k: int) -> dict[Clique, float]:
    """The value-keyed driver: each cell's largest gamma at order ``k``.

    Retires the live cell of least ``tail(k - 2) * Pr[R]`` until none is
    left; a cell's gamma is the running maximum of popped values (the
    max-min peeling argument). The heap holds ``(value, id)`` with lazy
    deletion, so ties pop by id; values are only lowered. Peels
    ``state`` in place and returns ``{cell: gamma}`` in pop order.
    """
    t = k - 2
    pmfs, probs = state.pmfs, state.probs
    values = [tail_at(pmf, t) * p for pmf, p in zip(pmfs, probs)]
    heap = list(zip(values, state.ids.values()))
    heapq.heapify(heap)
    gammas: dict[Clique, float] = {}
    running = 0.0
    while heap:
        value, i = heapq.heappop(heap)
        if value != values[i]:
            continue  # stale: the cell was lowered since this entry
        running = max(running, value)
        gammas[state.cells[i]] = running
        for other in state.retire(i):
            lowered = tail_at(pmfs[other], t) * probs[other]
            if lowered < values[other]:
                values[other] = lowered
                heapq.heappush(heap, (lowered, other))
    return gammas
