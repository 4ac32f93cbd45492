"""Global (k, gamma)-truss semantics: alpha_k(H, e) exactly and by sampling.

``alpha_k(H, e)`` (Eq. 3) is the probability that a possible world of the
probabilistic subgraph ``H`` is a *connected deterministic k-truss
spanning all of V_H* and containing edge ``e``. Computing it exactly is
#P-hard (Theorem 1); this module provides:

* :func:`alpha_exact` — exponential possible-world enumeration, usable as
  a ground-truth oracle on small subgraphs;
* :class:`GlobalTrussOracle` — the Monte-Carlo estimator of Eq. (10)
  backed by a shared :class:`~repro.graphs.sampling.WorldSampleSet`
  projected onto each candidate subgraph (Theorem 3 justifies sharing
  one sample set across all candidates).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Sequence

import numpy as np

from repro.core import kernels
from repro.core.kernels import WorldClassifier as _WorldClassifier
from repro.exceptions import ParameterError
from repro.graphs.probabilistic import ProbabilisticGraph, edge_key
from repro.graphs.sampling import WorldSampleSet

__all__ = [
    "world_is_connected_ktruss",
    "alpha_exact",
    "is_global_truss_exact",
    "classify_worlds",
    "GlobalTrussOracle",
]

Node = Hashable
Edge = tuple[Node, Node]

# alpha_exact enumerates 2^m worlds; refuse beyond this many edges.
_MAX_EXACT_EDGES = 25


def world_is_connected_ktruss(
    nodes: Iterable[Node], present_edges: Iterable[Edge], k: int
) -> bool:
    """Return True iff the world (nodes, present_edges) is a connected k-truss.

    The world must (a) connect **all** of ``nodes`` — possible worlds
    retain every node of their parent graph — and (b) be a deterministic
    k-truss: every present edge lies in at least k - 2 triangles among
    the present edges. This is the indicator ``I(H, k, e)`` of
    Definition 3 minus the "contains e" clause, which callers apply by
    crediting only present edges.
    """
    if k < 2:
        raise ParameterError(f"k must be at least 2, got {k}")
    node_list = list(nodes)
    edge_list = list(present_edges)
    adj: dict[Node, set[Node]] = {u: set() for u in node_list}
    for u, v in edge_list:
        adj[u].add(v)
        adj[v].add(u)
    if not node_list:
        return False
    # Connectivity over ALL nodes of the subgraph.
    seen = {node_list[0]}
    queue = deque(seen)
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    if len(seen) != len(node_list):
        return False
    # k-truss condition on the present edges.
    need = k - 2
    if need <= 0:
        return True
    return all(len(adj[u] & adj[v]) >= need for u, v in edge_list)


def alpha_exact(
    subgraph: ProbabilisticGraph, k: int
) -> dict[Edge, float]:
    """Return exact ``alpha_k(H, e)`` for every edge ``e`` of ``subgraph``.

    Enumerates all 2^m possible worlds (Eq. 3); raises
    :class:`ParameterError` beyond ``25`` edges. For each qualifying
    world — connected over all of V_H and a k-truss — its probability is
    credited to every edge it contains.
    """
    edges = list(subgraph.edges())
    m = len(edges)
    if m > _MAX_EXACT_EDGES:
        raise ParameterError(
            f"alpha_exact enumerates 2^m worlds; {m} edges exceeds the "
            f"limit of {_MAX_EXACT_EDGES}"
        )
    probs = [subgraph.probability(u, v) for u, v in edges]
    nodes = list(subgraph.nodes())
    alpha = {e: 0.0 for e in edges}
    for mask in range(1 << m):
        world_prob = 1.0
        present: list[Edge] = []
        for i in range(m):
            if mask >> i & 1:
                world_prob *= probs[i]
                present.append(edges[i])
            else:
                world_prob *= 1.0 - probs[i]
        if world_prob == 0.0 or not present:
            continue
        if world_is_connected_ktruss(nodes, present, k):
            for e in present:
                alpha[e] += world_prob
    return alpha


def is_global_truss_exact(
    subgraph: ProbabilisticGraph, k: int, gamma: float
) -> bool:
    """Exact Definition 3 check: every edge has ``alpha_k(H, e) >= gamma``.

    Connectivity of the (structural) subgraph is required as well. Only
    feasible on small subgraphs — see :func:`alpha_exact`.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must be in [0, 1], got {gamma}")
    from repro.graphs.components import is_connected

    if subgraph.number_of_edges() == 0 or not is_connected(subgraph):
        return False
    alpha = alpha_exact(subgraph, k)
    # Relative slack absorbs floating-point dust at exact-threshold cases.
    threshold = gamma * (1.0 - 1e-9)
    return all(a >= threshold for a in alpha.values())


def classify_worlds(
    edges: Sequence[Edge], nodes: Sequence[Node], k: int,
    matrix: np.ndarray, candidate_rows: np.ndarray,
) -> dict[Edge, int]:
    """Count qualifying worlds containing each edge (exact w.r.t. samples).

    ``matrix`` is the full ``(N, m)`` projected presence matrix of the
    candidate and ``candidate_rows`` the row indices to classify.
    Sampled worlds of a candidate often repeat the same presence pattern
    (high-probability candidates are dominated by the all-edges world),
    so identical rows are classified once and credited with their
    multiplicity.

    This boolean-matrix path is the *differential-test reference* for
    :func:`repro.core.kernels.classify_worlds_packed`, which computes
    identical counts directly on the packed bits; the oracle's hot paths
    use the packed kernel and never materialise ``matrix``.
    """
    edges = list(edges)
    counts = {e: 0 for e in edges}
    if candidate_rows.size == 0:
        return counts
    classifier = _WorldClassifier(edges, list(nodes), k)
    sub = matrix[candidate_rows]
    if len(edges) <= kernels.DEDUP_MAX_EDGES:
        patterns, multiplicity = np.unique(sub, axis=0, return_counts=True)
    else:
        patterns, multiplicity = sub, np.ones(sub.shape[0], dtype=np.int64)
    qualifying = classifier.connected_mask(patterns)
    if k > 2:
        for i in np.flatnonzero(qualifying):
            if not classifier.truss_ok(np.flatnonzero(patterns[i])):
                qualifying[i] = False
    if qualifying.any():
        counts_vec = patterns[qualifying].astype(np.int64).T @ (
            multiplicity[qualifying].astype(np.int64)
        )
        counts = {e: int(counts_vec[j]) for j, e in enumerate(edges)}
    return counts


def _minimum_world_edges(n_nodes: int, k: int) -> int:
    """Lower bound on |E| of any qualifying world on ``n_nodes`` nodes.

    A qualifying world connects all nodes (>= n - 1 edges) and is a
    k-truss with at least one edge, so every node has degree >= k - 1
    (>= ceil(n (k-1) / 2) edges).
    """
    return max(n_nodes - 1, -(-n_nodes * (k - 1)) // 2, 1)


class GlobalTrussOracle:
    """Monte-Carlo estimator of alpha_k over a shared world sample set.

    One oracle wraps the ``N`` sampled worlds of the *host* graph; every
    candidate subgraph is evaluated against their projections (Eq. 10).
    Estimates for a given (edge set, node set, k) are memoised — the
    searches of Algorithms 4 and 5 revisit subgraphs heavily.

    The hot path, :meth:`satisfies_edges`, avoids materialising subgraph
    objects and short-circuits with two sound upper bounds before the
    per-world classification loop: a world-size filter (a qualifying
    world needs at least ``max(n - 1, n (k-1) / 2)`` edges) and a
    per-edge count bound (``alpha_hat(e) * N`` cannot exceed the number
    of size-qualified worlds containing ``e``). Both bounds, and the
    classification itself, run on the bit-packed presence columns via
    :mod:`repro.core.kernels` — the full boolean projection is never
    materialised.
    """

    #: Candidate evaluations between progress-hook notifications; the
    #: finest-grained cancellation point inside a GTD/GBU level.
    _PROGRESS_INTERVAL = 32

    #: Memoised evaluations kept before the oldest are evicted. Worker
    #: processes never see the per-level trim (they outlive levels), so
    #: the cache itself must be bounded; eviction only costs recompute,
    #: never changes a result.
    _CACHE_MAX = 8192

    def __init__(self, samples: WorldSampleSet, progress=None):
        self._samples = samples
        self._cache: dict[tuple[frozenset[Edge], frozenset[Node], int],
                          dict[Edge, float]] = {}
        self._frequency: dict[Edge, float] = {}
        self._progress = progress
        self._evaluations = 0

    def _tick(self) -> None:
        """Emit an ``oracle-eval`` event every few candidate evaluations."""
        self._evaluations += 1
        if self._progress is None or (
                self._evaluations % self._PROGRESS_INTERVAL):
            return
        from repro.runtime.progress import ProgressEvent

        self._progress(ProgressEvent("oracle-eval", step=self._evaluations))

    @property
    def n_samples(self) -> int:
        """The number of sampled worlds N."""
        return self._samples.n_samples

    def edge_frequency(self, u: Node, v: Node) -> float:
        """Fraction of sampled worlds containing edge (u, v), memoised.

        This is a sound upper bound on ``alpha_hat_k(H, e)`` for any
        candidate ``H`` — used by the searches to discard hopeless edges
        without a full evaluation. Computed by popcount on the packed
        column; the memo is bounded by the host graph's edge count and
        dropped with the per-level trim (:meth:`trim_level_cache`).
        """
        key = edge_key(u, v)
        freq = self._frequency.get(key)
        if freq is None:
            freq = self._samples.edge_frequency(u, v)
            self._frequency[key] = freq
        return freq

    def trim_level_cache(self, k: int) -> int:
        """Drop memoised evaluations from levels other than ``k``.

        The decomposition's k-loop never revisits a finished level, but
        the memo keys carry their k, so without this trim the cache (and
        the per-edge frequency memo) grows monotonically across levels —
        the unbounded-growth bug this call fixes. Returns the number of
        evaluations dropped. Dropping only costs recompute on a stale
        hit; results are unaffected.
        """
        stale = [key for key in self._cache if key[2] != k]
        for key in stale:
            del self._cache[key]
        self._frequency.clear()
        return len(stale)

    # ------------------------------------------------------------------
    def _remember(self, key, estimates: dict[Edge, float]) -> None:
        """Memoise an evaluation, evicting oldest beyond the size bound."""
        while len(self._cache) >= self._CACHE_MAX:
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = estimates

    def alpha_estimates(
        self, subgraph: ProbabilisticGraph, k: int
    ) -> dict[Edge, float]:
        """Return ``{e: alpha_hat_k(H, e)}`` for every edge of ``subgraph``.

        Each projected world is classified once (connected-spanning +
        k-truss); qualifying worlds credit every edge they contain, so
        the cost per candidate is O(N * world size).
        """
        edges = [edge_key(u, v) for u, v in subgraph.edges()]
        nodes = list(subgraph.nodes())
        return self._estimates(edges, nodes, k)

    def _estimates(
        self, edges: list[Edge], nodes: list[Node], k: int
    ) -> dict[Edge, float]:
        key = (frozenset(edges), frozenset(nodes), k)
        cached = self._cache.get(key)
        if cached is not None:
            return dict(cached)
        counts: dict[Edge, int] = {e: 0 for e in edges}
        denominator = self._samples.n_samples
        if edges:
            packed = self._samples.packed_columns(edges)
            row_sums = kernels.row_sums(packed, denominator)
            candidate_rows = np.flatnonzero(
                row_sums >= _minimum_world_edges(len(nodes), k)
            )
            counts = kernels.classify_worlds_packed(
                edges, nodes, k, packed, candidate_rows
            )
        if denominator > 0:
            estimates = {e: c / denominator for e, c in counts.items()}
        else:
            estimates = {e: 0.0 for e in edges}
        self._remember(key, estimates)
        return dict(estimates)

    def satisfies(
        self, subgraph: ProbabilisticGraph, k: int, gamma: float
    ) -> bool:
        """Return True iff ``subgraph`` is an (eps, delta)-approximate
        global (k, gamma)-truss w.r.t. the sample set: every edge has
        ``alpha_hat >= gamma`` (and the subgraph is non-empty)."""
        edges = [edge_key(u, v) for u, v in subgraph.edges()]
        nodes = list(subgraph.nodes())
        return self.satisfies_edges(edges, nodes, k, gamma)

    def satisfies_edges(
        self, edges: Sequence[Edge], nodes: Iterable[Node],
        k: int, gamma: float,
    ) -> bool:
        """:meth:`satisfies` on a raw (edges, nodes) pair — the hot path.

        ``edges`` must be canonical keys; ``nodes`` must cover every edge
        endpoint. Fast-rejects via upper bounds before classifying.
        """
        if not 0.0 <= gamma <= 1.0:
            raise ParameterError(f"gamma must be in [0, 1], got {gamma}")
        edges = list(edges)
        if not edges:
            return False
        self._tick()
        node_list = list(nodes)
        threshold = gamma * (1.0 - 1e-9)
        key = (frozenset(edges), frozenset(node_list), k)
        cached = self._cache.get(key)
        if cached is not None:
            return all(a >= threshold for a in cached.values())

        needed = threshold * self._samples.n_samples
        packed = self._samples.packed_columns(edges)
        row_sums = kernels.row_sums(packed, self._samples.n_samples)
        size_ok = row_sums >= _minimum_world_edges(len(node_list), k)
        candidate_rows = np.flatnonzero(size_ok)
        # Upper bound: qualifying worlds containing e are a subset of the
        # size-qualified worlds containing e. Reject without classifying
        # when some edge cannot reach the threshold. (Sound only as a
        # False fast-path; estimates are NOT cached here.)
        if candidate_rows.size * 1.0 < needed:
            return False
        upper = kernels.masked_column_counts(
            packed, kernels.pack_row_mask(size_ok)
        )
        if (upper < needed).any():
            return False
        # One batched C-level connectivity pass over all unique patterns,
        # then (for k >= 3 only) one whole-array truss pass over the
        # connected ones. Pattern dedup happens in the packed domain:
        # all-edges-present rows are counted by popcount of the byte
        # AND-mask and only partial rows are gathered/unpacked. Weights
        # are integer multiplicities, so the float sums are exact.
        classifier = _WorldClassifier(edges, node_list, k)
        patterns, multiplicity = kernels.dedup_candidate_patterns(
            packed, candidate_rows
        )
        weights = multiplicity.astype(float)
        qualifying = classifier.connected_mask(patterns)
        if not qualifying.any():
            return False
        if k > 2:
            # Sound bound: qualifying worlds are a subset of connected ones.
            connected = patterns[qualifying]
            pending = connected.astype(float).T @ weights[qualifying]
            if (pending < needed).any():
                return False
            qualifying[qualifying] = classifier.truss_mask(connected)
        achieved = patterns[qualifying].astype(float).T @ weights[qualifying]
        # A k >= 3 rejection is not memoised (the memo stays small);
        # k <= 2 evaluations are remembered either way.
        if k > 2 and (achieved < needed).any():
            return False
        estimates = {
            e: achieved[j] / self._samples.n_samples
            for j, e in enumerate(edges)
        }
        self._remember(key, estimates)
        return all(a >= threshold for a in estimates.values())

    def cache_size(self) -> int:
        """Number of memoised (edge set, node set, k) evaluations."""
        return len(self._cache)

    def clear_cache(self) -> None:
        """Drop all memoised evaluations."""
        self._cache.clear()
