"""Probabilistic (k, eta)-core decomposition (Bonchi et al., KDD 2014).

The comparator of Section 6.4: a (k, eta)-core of a probabilistic graph
is a maximal subgraph in which every node has degree at least k with
probability at least eta. A node's degree is Poisson-binomial over its
incident edge probabilities, so the same dynamic-programming /
deconvolution machinery as for edge supports applies — here the
Bernoulli factors are the incident edges themselves.

The decomposition peels nodes by *eta-degree* (the largest k with
``Pr[deg(v) >= k] >= eta``), mirroring Batagelj–Zaversnik; the resulting
core number ``kappa(v)`` is the largest k such that v belongs to the
(k, eta)-core. The peel is the ``(1, 2)`` instance of
:mod:`repro.core.nucleus`; :class:`EtaDegree` is one node's form of it.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.exceptions import ParameterError
from repro.graphs.probabilistic import ProbabilisticGraph
from repro.core.nucleus import nucleus_decomposition
from repro.core.support_prob import SupportProbability

__all__ = [
    "EtaDegree",
    "eta_core_decomposition",
    "eta_core_subgraph",
    "max_eta_core_number",
]

Node = Hashable


class EtaDegree:
    """Live degree PMF of one node with O(d) incident-edge removal.

    Wraps a Poisson-binomial PMF over the node's incident edge
    probabilities. ``eta_degree(eta)`` is the node-level analogue of the
    edge truss level; :meth:`remove_incident_edge` deconvolves a removed
    neighbour's Bernoulli factor (same Eq. 8 algebra as for supports).
    """

    __slots__ = ("_pmf",)

    def __init__(self, incident_probabilities=()):
        self._pmf = SupportProbability(list(incident_probabilities))

    @classmethod
    def from_node(cls, graph: ProbabilisticGraph, u: Node) -> "EtaDegree":
        """Build the degree PMF of node ``u`` from its current neighbours."""
        return cls(graph.neighbor_probabilities(u).values())

    @property
    def max_degree(self) -> int:
        """Number of (remaining) incident edges."""
        return self._pmf.max_support

    def tail(self, t: int) -> float:
        """Return ``Pr[deg >= t]``."""
        return self._pmf.tail(t)

    def eta_degree(self, eta: float) -> int:
        """Return the largest k with ``Pr[deg >= k] >= eta`` (>= 0)."""
        if not 0.0 < eta <= 1.0:
            raise ParameterError(f"eta must be in (0, 1], got {eta}")
        pmf = self._pmf.pmf
        running = 0.0
        for t in range(len(pmf) - 1, 0, -1):
            running += pmf[t]
            if min(1.0, running) >= eta:
                return t
        return 0

    def remove_incident_edge(self, probability: float) -> None:
        """Deconvolve a removed incident edge's Bernoulli(p) factor."""
        self._pmf.remove_triangle(probability)


def eta_core_decomposition(
    graph: ProbabilisticGraph, eta: float
) -> dict[Node, int]:
    """Return the (k, eta)-core number ``kappa(v)`` of every node.

    The (1, 2)-nucleus score minus 2: a cell is a node, its apexes are
    its neighbours, ``Pr[R] = 1`` and the apex factor is ``p(v, x)``.
    As at every engine level, a tail within a relative 1e-9 of ``eta``
    passes.
    """
    if not 0.0 < eta <= 1.0:
        raise ParameterError(f"eta must be in (0, 1], got {eta}")
    result = nucleus_decomposition(graph, 1, 2, eta)
    return {cell[0]: score - 2 for cell, score in result.scores.items()}


def eta_core_subgraph(
    graph: ProbabilisticGraph, k: int, eta: float
) -> ProbabilisticGraph:
    """Return the (k, eta)-core: nodes with core number >= k, induced.

    May be disconnected (Bonchi et al. do not require connectivity);
    empty when no node reaches core number k.
    """
    if k < 0:
        raise ParameterError(f"k must be non-negative, got {k}")
    core = eta_core_decomposition(graph, eta)
    return graph.subgraph([u for u, c in core.items() if c >= k])


def max_eta_core_number(graph: ProbabilisticGraph, eta: float) -> int:
    """Return ``k_cmax`` — the largest (k, eta)-core number of any node."""
    core = eta_core_decomposition(graph, eta)
    return max(core.values(), default=0)
