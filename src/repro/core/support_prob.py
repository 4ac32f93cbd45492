"""Edge support probabilities: the Algorithm 2 DP and the Eq. (8) update.

For an edge ``e = (u, v)`` of a probabilistic graph, its support
``sup(e)`` — the number of triangles containing it — is a random
variable. Conditioned on ``e`` existing, each common neighbour ``w``
contributes a triangle independently with probability
``q_w = p(w, u) * p(w, v)``, so ``sup(e)`` is Poisson-binomial over the
``q_w``. This module computes its PMF:

* :func:`support_pmf` — the O(k_e^2) dynamic program of Algorithm 2,
  and :func:`support_pmfs`, the same DP run on many equal-length factor
  rows at once (bit-identical per row);
* the Eq. (8) arithmetic on plain PMF lists, the key to the efficient
  local decomposition: :func:`deconvolve` divides one destroyed
  triangle's Bernoulli factor out in O(k_e), :func:`removal_error`
  steps the error bound that says when to rebuild instead, and
  :func:`support_level` and :func:`tail_at` read a PMF. The removal
  step, :func:`drop_factor`, deconvolves or, once the bound trips,
  rebuilds from :func:`live_factors`; the peel engine
  (:mod:`repro.core.nucleus`) takes it for each of its cells, and
  :class:`SupportProbability` is a one-cell view over it;
* :func:`support_pmf_bruteforce` — the exponential possible-world sum of
  Eq. (2), used as a test oracle.

All PMFs here are **conditional on the edge existing**; the paper's
unconditional tail probabilities are obtained by multiplying by ``p(e)``
(see Section 4.1, "the true edge support probabilities").
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Hashable, Sequence
from itertools import combinations

from repro.exceptions import ParameterError
from repro.graphs.probabilistic import ProbabilisticGraph

__all__ = [
    "triangle_probabilities",
    "support_pmf",
    "support_pmfs",
    "support_tail",
    "support_pmf_bruteforce",
    "deconvolve",
    "removal_error",
    "support_level",
    "tail_at",
    "live_factors",
    "drop_factor",
    "SupportProbability",
]

Node = Hashable

# Probability mass below this is treated as floating-point dust when the
# Eq. (8) deconvolution produces slightly negative values.
_EPS = 1e-12

#: The error bound of a PMF fresh from the DP, and the bound past which
#: a removal rebuilds the PMF from its remaining factors instead of
#: deconvolving (it would threaten the 1e-9-relative level tests).
FRESH_ERROR = 1e-16
ERROR_LIMIT = 1e-10


def triangle_probabilities(
    graph: ProbabilisticGraph, u: Node, v: Node
) -> dict[Node, float]:
    """Return ``{w: p(w, u) * p(w, v)}`` for every common neighbour ``w``.

    ``q_w`` is the probability that the triangle (u, v, w) exists, given
    that edge (u, v) exists. Keys come in
    :meth:`~repro.graphs.probabilistic.ProbabilisticGraph.triangles_of_edge`
    order, so a PMF folded from the values has the same bits in every
    process.
    """
    return {
        w: graph.probability(w, u) * graph.probability(w, v)
        for w in graph.triangles_of_edge(u, v)
    }


def support_pmf(qs: Sequence[float]) -> list[float]:
    """Return the Poisson-binomial PMF of the number of existing triangles.

    ``qs`` are the per-triangle probabilities ``q_w``; the result ``f``
    has length ``len(qs) + 1`` with ``f[i] = Pr[sup(e) = i | e exists]``.
    Rolling-array DP, one factor at a time:
    ``f'(i) = q f(i-1) + (1 - q) f(i)``. Every term is non-negative, so
    each element is the IEEE sum of the same two products that
    :func:`support_pmfs`'s vectorized step adds (addition commutes
    exactly), and the result is bit-identical to ``support_pmfs([qs])[0]``
    without paying for numpy on one row.
    """
    f = [1.0]
    for q in qs:
        q = float(q)
        if not 0.0 <= q <= 1.0:
            raise ParameterError(f"triangle probability must be in [0, 1], got {q}")
        p = 1.0 - q
        f = ([p * f[0]]
             + [q * a + p * b for a, b in zip(f, f[1:])]
             + [q * f[-1]])
    return f


def support_pmfs(rows: Sequence[Sequence[float]]) -> list[list[float]]:
    """Run Algorithm 2's dynamic program on many factor rows at once.

    ``rows`` is an ``m x width`` collection of equal-length factor rows
    (one row per edge or r-clique); the result holds each row's PMF, of
    length ``width + 1``. Processing factor ``l`` of every row at once,
    ``f(i, l) = q_l f(i-1, l-1) + (1 - q_l) f(i, l-1)`` becomes two
    shifted whole-matrix updates. The batch only runs *across* rows:
    every element goes through the same IEEE operations as
    :func:`support_pmf` (the sum of the same two products), so each row
    is bit-identical to it.
    """
    import numpy as np

    if not rows:
        return []
    try:
        q = np.array(rows, dtype=np.float64)
    except ValueError:
        raise ParameterError("factor rows must all have one length") from None
    if q.ndim != 2:
        raise ParameterError("factor rows must all have one length")
    bad = ~((q >= 0.0) & (q <= 1.0))  # also catches NaN
    if bad.any():
        raise ParameterError(
            f"triangle probability must be in [0, 1], got {float(q[bad][0])}"
        )
    f = np.ones((q.shape[0], 1), dtype=np.float64)
    for j in range(q.shape[1]):
        col = q[:, j:j + 1]
        nxt = np.zeros((f.shape[0], j + 2), dtype=np.float64)
        nxt[:, :-1] += (1.0 - col) * f
        nxt[:, 1:] += col * f
        f = nxt
    return f.tolist()


def support_tail(pmf: Sequence[float]) -> list[float]:
    """Return the tail vector ``sigma[t] = Pr[sup(e) >= t]`` for t = 0..k_e.

    ``sigma[0]`` is always 1 (conditional on the edge existing) and the
    vector is monotonically non-increasing — the property Algorithm 1
    exploits (Section 4.1, "Monotonicity of sigma(e)").
    """
    sigma = [0.0] * len(pmf)
    running = 0.0
    for t in range(len(pmf) - 1, -1, -1):
        running += pmf[t]
        sigma[t] = min(1.0, running)
    return sigma


def tail_at(pmf: Sequence[float], t: int) -> float:
    """Return ``sigma(e, t) = Pr[sup(e) >= t | e exists]`` of ``pmf``."""
    if t <= 0:
        return 1.0
    if t >= len(pmf):
        return 0.0
    return min(1.0, sum(pmf[t:]))


def support_level(pmf: Sequence[float], gamma: float,
                  edge_probability: float) -> int:
    """Return the largest k with ``sigma(e, k-2) * p(e) >= gamma``.

    This is the edge's current *local truss level*: the maximum k for
    which the edge passes Definition 2's per-edge test against its
    present neighbourhood. Edges with ``p(e) < gamma`` return 1 (they
    belong to no local (k, gamma)-truss for k >= 2, since
    ``Pr[sup >= 0] = p(e)``). ``gamma`` is not validated here.
    """
    # Threshold comparisons use a small *relative* slack so that
    # probabilities sitting exactly at gamma (common in hand-built
    # examples) survive the floating-point dust accumulated by
    # repeated Eq. (8) deconvolutions.
    threshold = gamma * (1.0 - 1e-9)
    if edge_probability < threshold:
        return 1
    # sigma(t) is non-increasing in t, so scanning t from the top the
    # first passing tail is the largest; t = 0 always passes because
    # sigma(0) * p(e) = p(e) >= gamma was checked above. The tail is
    # not clamped with min(1.0, running): once running >= 1,
    # running * p(e) >= p(e) >= threshold (rounding is monotone), so
    # the step passes exactly when the clamped test would.
    running = 0.0
    for t in range(len(pmf) - 1, 0, -1):
        running += pmf[t]
        if running * edge_probability >= threshold:
            return t + 2
    return 2


def deconvolve(pmf: list[float], q: float) -> list[float]:
    """Divide one Bernoulli(q) factor out of ``pmf`` (Eq. 8, O(k_e)).

    ``q`` must be one of the factors ``pmf`` was folded from; ``pmf``
    must hold at least one. Returns a new list, one shorter.

    Eq. (8) as written divides by ``1 - q``, which amplifies error when
    the removed triangle is near-certain. The same recurrence can be
    solved from the top down, dividing by ``q`` instead, so the
    direction with the larger divisor is taken; the amplification per
    step is then bounded by 2. A certain triangle (``q = 1``) shifts the
    PMF down by one; an impossible one (``q = 0``) drops the top cell.
    """
    n = len(pmf) - 1
    if q >= 1.0 - 1e-15:
        # Certain triangle: sup_old = sup_new + 1, so shift left.
        return pmf[1:]
    if q <= 0.0:
        # Impossible triangle contributed nothing: drop the top cell.
        return pmf[:n]
    # Negative values above this floor are floating-point dust and
    # clamp to 0; genuine mass is never negative.
    floor = -_EPS * len(pmf)
    new = [0.0] * n
    if q < 0.5:
        # Forward (Eq. 8): f_new(i) = (f_old(i) - q f_new(i-1)) / (1-q).
        prev = 0.0
        inv = 1.0 / (1.0 - q)
        for i in range(n):
            prev = (pmf[i] - q * prev) * inv
            if 0.0 > prev > floor:
                prev = 0.0
            new[i] = prev
    else:
        # Backward: f_new(i-1) = (f_old(i) - (1-q) f_new(i)) / q,
        # seeded by f_new(n-1) = f_old(n) / q.
        inv = 1.0 / q
        rest = 1.0 - q
        prev = pmf[n] * inv
        if 0.0 > prev > floor:
            prev = 0.0
        new[n - 1] = prev
        for i in range(n - 1, 0, -1):
            prev = (pmf[i] - rest * prev) * inv
            if 0.0 > prev > floor:
                prev = 0.0
            new[i - 1] = prev
    return new


def removal_error(err: float, q: float) -> float:
    """Return the PMF's error bound after deconvolving a Bernoulli(q).

    Repeated deconvolution amplifies floating-point error by roughly
    ``1 / |1 - 2q|`` per removal, which explodes when many near-0.5
    factors go. Once the returned bound exceeds :data:`ERROR_LIMIT`,
    :func:`drop_factor` rebuilds the PMF instead.
    """
    spread = abs(1.0 - 2.0 * q)
    amplification = 1.0 / spread if spread > 1e-6 else 1e6
    return err * amplification + 1e-15


def live_factors(factors: Sequence[float], dead: Sequence[int]) -> list[float]:
    """Return one cell's live factors, in the order a rebuild folds them.

    ``factors`` is the cell's factor row in fold order and ``dead`` its
    death marks, one per slot. Per factor value, the last copies in fold
    order count as the dead ones, whichever slots died, so a rebuilt PMF
    does not depend on which of several equal factors a removal named.
    """
    drop = Counter(q for q, d in zip(factors, dead) if d)
    live = []
    for q in reversed(factors):
        if drop[q]:
            drop[q] -= 1
        else:
            live.append(q)
    return live[::-1]


def drop_factor(pmf: list[float], err: float, q: float,
                live: Callable[[], list[float]]) -> tuple[list[float], float]:
    """The Eq. (8) removal step: take one Bernoulli(q) factor out of
    ``pmf``, whose error bound is ``err``; return the new PMF and bound.

    Deconvolves while :func:`removal_error` stays within
    :data:`ERROR_LIMIT`; past it, rebuilds from ``live()``, the factors
    left after the removal, and restarts at :data:`FRESH_ERROR`.
    """
    err = removal_error(err, q)
    if err > ERROR_LIMIT:
        return support_pmf(live()), FRESH_ERROR
    return deconvolve(pmf, q), err


def support_pmf_bruteforce(qs: Sequence[float]) -> list[float]:
    """Exponential-time PMF by summing over all triangle subsets (Eq. 2).

    For every subset W of triangles, adds
    ``prod_{w in W} q_w * prod_{w not in W} (1 - q_w)`` to ``f[|W|]``.
    O(2^k_e) — strictly a test oracle for :func:`support_pmf`.
    """
    k = len(qs)
    f = [0.0] * (k + 1)
    indices = range(k)
    for size in range(k + 1):
        for subset in combinations(indices, size):
            chosen = set(subset)
            prob = 1.0
            for i, q in enumerate(qs):
                prob *= q if i in chosen else (1.0 - q)
            f[size] += prob
    return f


class SupportProbability:
    """One edge's live support PMF: a one-cell view over :func:`drop_factor`.

    Holds the triangle factors in fold order, one death mark per factor,
    the conditional PMF ``f[i] = Pr[sup(e) = i | e exists]`` and its
    error bound, so a removal takes the peel engine's own step.
    """

    __slots__ = ("_qs", "_dead", "_pmf", "_err")

    def __init__(self, qs: Sequence[float] = ()):
        self._qs = [float(q) for q in qs]
        self._dead = bytearray(len(self._qs))
        self._pmf = support_pmf(self._qs)
        self._err = FRESH_ERROR

    @classmethod
    def from_edge(
        cls, graph: ProbabilisticGraph, u: Node, v: Node
    ) -> "SupportProbability":
        """Build the PMF of edge (u, v) from the graph's current triangles."""
        return cls(list(triangle_probabilities(graph, u, v).values()))

    @classmethod
    def from_factors(
        cls, qs: Sequence[float], pmf: Sequence[float]
    ) -> "SupportProbability":
        """Wrap ``pmf = support_pmf(qs)`` computed elsewhere, for example
        by one batched :func:`support_pmfs` call, without re-running it."""
        if len(pmf) != len(qs) + 1:
            raise ParameterError(
                f"PMF of length {len(pmf)} does not match "
                f"{len(qs)} triangle factors"
            )
        obj = cls()
        obj._qs = [float(q) for q in qs]
        for q in obj._qs:
            if not 0.0 <= q <= 1.0:
                raise ParameterError(f"triangle probability must be in [0, 1], got {q}")
        obj._dead = bytearray(len(qs))
        obj._pmf = [float(x) for x in pmf]
        return obj

    @property
    def max_support(self) -> int:
        """Current ``k_e`` — the number of (remaining) potential triangles."""
        return len(self._pmf) - 1

    @property
    def pmf(self) -> list[float]:
        """Copy of the conditional PMF ``[f(0), ..., f(k_e)]``."""
        return list(self._pmf)

    def tail(self, t: int) -> float:
        """Return ``sigma(e, t) = Pr[sup(e) >= t | e exists]``."""
        return tail_at(self._pmf, t)

    def level(self, gamma: float, edge_probability: float) -> int:
        """Return the edge's current local truss level (:func:`support_level`)."""
        if not 0.0 <= gamma <= 1.0:
            raise ParameterError(f"gamma must be in [0, 1], got {gamma}")
        return support_level(self._pmf, gamma, edge_probability)

    def remove_triangle(self, q: float) -> None:
        """Remove a live triangle of probability exactly ``q`` (Eq. 8):
        mark the last live copy dead and take :func:`drop_factor`."""
        if not 0.0 <= q <= 1.0:
            raise ParameterError(f"triangle probability must be in [0, 1], got {q}")
        qs, dead = self._qs, self._dead
        for j in range(len(qs) - 1, -1, -1):
            if qs[j] == q and not dead[j]:
                break
        else:
            raise ParameterError(
                f"no triangles left to remove with probability {q!r}")
        dead[j] = 1
        self._pmf, self._err = drop_factor(self._pmf, self._err, q,
                                           lambda: live_factors(qs, dead))
