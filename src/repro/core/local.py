"""Local (k, gamma)-truss decomposition (Algorithm 1 / Section 4).

The decomposition assigns every edge its *local trussness*
``tau(e)`` — the largest k such that e belongs to a local
(k, gamma)-truss (Definition 2) — by iterative peeling: repeatedly remove
the edge whose current truss level is smallest, then update the support
PMFs of the two co-triangle edges of every destroyed triangle.

The peel itself is the ``(2, 3)`` instance of the probabilistic
nucleus engine (:func:`~repro.core.nucleus.nucleus_decomposition`):
edges supported by triangles, with per-apex factors
``q_w = p(w, u) p(w, v)`` (Eq. 5) folded in canonical node order.

Two update strategies are provided, matching the paper's Figure 5
comparison:

* ``method="dp"`` — the O(k_e) Eq. (8) deconvolution update
  (:func:`~repro.core.support_prob.deconvolve`);
* ``method="baseline"`` — recompute the affected edge's PMF from scratch
  with the O(k_e^2) dynamic program after every removal.

Maximal local (k, gamma)-trusses are then the edge-connected clusters of
``{e : tau(e) >= k}`` (Theorem 2's connectivity post-processing).

Convention: edges with ``p(e) < gamma`` belong to no local
(k, gamma)-truss for any k >= 2 — Definition 2 with k = 2 demands
``Pr[sup(e) >= 0] = p(e) >= gamma`` — and receive trussness 1.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.core.nucleus import nucleus_decomposition
from repro.exceptions import ParameterError
from repro.graphs.components import edge_connected_components
from repro.graphs.probabilistic import ProbabilisticGraph, edge_key

__all__ = ["LocalTrussResult", "local_truss_decomposition", "maximal_local_trusses"]

Node = Hashable
Edge = tuple[Node, Node]


@dataclass
class LocalTrussResult:
    """Outcome of a local (k, gamma)-truss decomposition.

    Attributes
    ----------
    graph:
        The input probabilistic graph (unmodified).
    gamma:
        The probability threshold used.
    trussness:
        ``{edge: tau(e)}`` for every edge; ``tau(e) = 1`` marks edges in
        no local truss (k >= 2) at this gamma.
    method:
        ``"dp"`` or ``"baseline"``.
    """

    graph: ProbabilisticGraph
    gamma: float
    trussness: dict[Edge, int]
    method: str = "dp"
    _hierarchy_cache: dict[int, list[ProbabilisticGraph]] = field(
        default_factory=dict, repr=False
    )

    @property
    def k_max(self) -> int:
        """The largest k with a non-empty local (k, gamma)-truss (>= 2), or 0."""
        top = max(self.trussness.values(), default=0)
        return top if top >= 2 else 0

    def trussness_of(self, u: Node, v: Node) -> int:
        """Return ``tau((u, v))``."""
        return self.trussness[edge_key(u, v)]

    def truss_edges(self, k: int) -> list[Edge]:
        """Return all edges with trussness >= k."""
        if k < 2:
            raise ParameterError(f"k must be at least 2, got {k}")
        return [e for e, tau in self.trussness.items() if tau >= k]

    def maximal_trusses(self, k: int) -> list[ProbabilisticGraph]:
        """Return the maximal local (k, gamma)-trusses, as subgraphs.

        Each returned graph is a connected probabilistic subgraph in
        which every edge has ``Pr[sup >= k-2] * p(e) >= gamma`` w.r.t.
        that subgraph's own structure.
        """
        if k not in self._hierarchy_cache:
            edges = self.truss_edges(k)
            clusters = edge_connected_components(self.graph, edges)
            self._hierarchy_cache[k] = [
                self.graph.edge_subgraph(cluster) for cluster in clusters
            ]
        return list(self._hierarchy_cache[k])

    def hierarchy(self) -> dict[int, list[ProbabilisticGraph]]:
        """Return ``{k: maximal local (k, gamma)-trusses}`` for k = 2..k_max."""
        return {k: self.maximal_trusses(k) for k in range(2, self.k_max + 1)}


def local_truss_decomposition(
    graph: ProbabilisticGraph,
    gamma: float,
    method: str = "dp",
    progress=None,
) -> LocalTrussResult:
    """Run Algorithm 1: compute the local trussness of every edge.

    Parameters
    ----------
    graph:
        Input probabilistic graph (not modified).
    gamma:
        Threshold in [0, 1]; larger gamma prunes more aggressively.
    method:
        ``"dp"`` uses the Eq. (8) O(k_e) incremental update;
        ``"baseline"`` recomputes affected PMFs from scratch after each
        removal (the Figure 5 baseline).
    progress:
        Optional progress hook, called with a ``"nucleus-peel"``
        :class:`~repro.runtime.progress.ProgressEvent` every 64 peeled
        edges. A hook that raises aborts the peeling; the trussness
        assigned so far (which is final — peeling emits tau in
        nondecreasing order) is attached to the exception's ``partial``
        attribute when it has one.

    The initial O(k_e^2) support DPs run serially in this process,
    batched across edges with the same number of triangles; the peel is
    an inherently sequential bucket-queue scan.

    Returns
    -------
    LocalTrussResult
        Per-edge trussness plus accessors for maximal trusses.
    """
    result = nucleus_decomposition(graph, 2, 3, gamma, method=method,
                                   progress=progress)
    return LocalTrussResult(graph=graph, gamma=gamma,
                            trussness=result.scores, method=method)


def maximal_local_trusses(
    graph: ProbabilisticGraph, k: int, gamma: float, method: str = "dp"
) -> list[ProbabilisticGraph]:
    """Convenience: decompose and return the maximal local (k, gamma)-trusses."""
    result = local_truss_decomposition(graph, gamma, method=method)
    return result.maximal_trusses(k)
