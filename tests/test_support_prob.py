"""Unit tests for edge support probabilities (Algorithm 2 DP + Eq. 8)."""

import math

import numpy as np
import pytest

from repro import (
    EdgeNotFoundError,
    ParameterError,
    SupportProbability,
    support_pmf,
    support_pmf_bruteforce,
    support_tail,
    triangle_probabilities,
)
from repro.core.support_prob import live_factors
from repro.graphs.generators import running_example


class TestTriangleProbabilities:
    def test_paper_edge(self):
        g = running_example()
        qs = triangle_probabilities(g, "q1", "v1")
        # Apexes: v2 (0.5 * 1), v3 (0.5 * 1), p1 (0.7 * 0.7).
        assert set(qs) == {"v2", "v3", "p1"}
        assert math.isclose(qs["v2"], 0.5)
        assert math.isclose(qs["p1"], 0.49)

    def test_missing_edge(self):
        g = running_example()
        with pytest.raises(EdgeNotFoundError):
            triangle_probabilities(g, "p1", "v3")

    def test_no_triangles(self):
        from repro import ProbabilisticGraph

        g = ProbabilisticGraph([(0, 1, 0.5)])
        assert triangle_probabilities(g, 0, 1) == {}


class TestSupportPmf:
    def test_no_triangles(self):
        assert support_pmf([]) == [1.0]

    def test_single_triangle(self):
        f = support_pmf([0.3])
        assert math.isclose(f[0], 0.7)
        assert math.isclose(f[1], 0.3)

    def test_certain_triangles(self):
        f = support_pmf([1.0, 1.0])
        assert f == [0.0, 0.0, 1.0]

    def test_impossible_triangles(self):
        f = support_pmf([0.0, 0.0, 0.0])
        assert f[0] == 1.0
        assert sum(f[1:]) == 0.0

    def test_sums_to_one(self):
        f = support_pmf([0.1, 0.5, 0.9, 0.33])
        assert math.isclose(sum(f), 1.0)

    @pytest.mark.parametrize(
        "qs",
        [
            [0.5], [0.2, 0.8], [0.3, 0.3, 0.3], [0.9, 0.1, 0.5, 0.7],
            [1.0, 0.5], [0.0, 0.5, 1.0],
        ],
    )
    def test_matches_bruteforce(self, qs):
        assert np.allclose(support_pmf(qs), support_pmf_bruteforce(qs))

    def test_invalid_probability(self):
        with pytest.raises(ParameterError):
            support_pmf([1.5])


class TestSupportTail:
    def test_tail_of_pmf(self):
        sigma = support_tail([0.2, 0.5, 0.3])
        assert math.isclose(sigma[0], 1.0)
        assert math.isclose(sigma[1], 0.8)
        assert math.isclose(sigma[2], 0.3)

    def test_monotone_non_increasing(self):
        sigma = support_tail(support_pmf([0.4, 0.6, 0.1, 0.8]))
        assert all(a >= b - 1e-12 for a, b in zip(sigma, sigma[1:]))

    def test_starts_at_one(self):
        assert support_tail([1.0])[0] == 1.0


class TestSupportProbabilityObject:
    def test_from_edge_matches_function(self):
        g = running_example()
        sp = SupportProbability.from_edge(g, "q1", "v1")
        qs = list(triangle_probabilities(g, "q1", "v1").values())
        assert np.allclose(sp.pmf, support_pmf(qs))

    def test_max_support(self):
        sp = SupportProbability([0.5, 0.5, 0.5])
        assert sp.max_support == 3

    def test_tail_boundaries(self):
        sp = SupportProbability([0.5, 0.5])
        assert sp.tail(0) == 1.0
        assert sp.tail(-3) == 1.0
        assert sp.tail(3) == 0.0

    def test_remove_triangle_matches_recompute(self):
        qs = [0.3, 0.7, 0.55, 0.9]
        sp = SupportProbability(qs)
        sp.remove_triangle(0.55)
        assert np.allclose(sp.pmf, support_pmf([0.3, 0.7, 0.9]), atol=1e-12)

    def test_remove_certain_triangle_shifts(self):
        sp = SupportProbability([1.0, 0.5])
        sp.remove_triangle(1.0)
        assert np.allclose(sp.pmf, support_pmf([0.5]))

    def test_remove_impossible_triangle(self):
        sp = SupportProbability([0.0, 0.5])
        sp.remove_triangle(0.0)
        assert np.allclose(sp.pmf, support_pmf([0.5]))

    def test_remove_from_empty_raises(self):
        sp = SupportProbability([])
        with pytest.raises(ParameterError):
            sp.remove_triangle(0.5)

    def test_remove_invalid_probability(self):
        sp = SupportProbability([0.5])
        with pytest.raises(ParameterError):
            sp.remove_triangle(-0.1)
        with pytest.raises(ParameterError, match=r"in \[0, 1\]"):
            sp.remove_triangle(1.5)

    def test_repeated_removals_stay_accurate(self):
        # The Eq. 8 deconvolution must not accumulate damaging error even
        # after many removals (this is what makes the DP method viable).
        # The tracked error bound triggers an exact rebuild from the
        # remaining factors whenever the deconvolution becomes
        # ill-conditioned (near-0.5 removals), so drift stays at
        # float-dust levels unconditionally.
        rng = np.random.default_rng(0)
        qs = list(rng.uniform(0.05, 0.95, size=40))
        sp = SupportProbability(qs)
        order = list(rng.permutation(len(qs)))
        remaining = list(qs)
        for idx in sorted(order[:35], reverse=True):
            sp.remove_triangle(remaining[idx])
            del remaining[idx]
        assert np.allclose(sp.pmf, support_pmf(remaining), atol=1e-10)

    @staticmethod
    def _last_copy_drop(qs, q):
        """Delete the last factor equal to ``q``: the list the earlier
        per-object removal left."""
        for i in range(len(qs) - 1, -1, -1):
            if qs[i] == q:
                del qs[i]
                return
        raise ParameterError(f"no tracked triangle has probability {q!r}")

    def test_drop_factor_matches_the_scan(self):
        # Repeated and near-equal factors: marking the last live equal
        # slot dead must leave the live list that deleting the last
        # equal copy leaves, in the same order; a value with no exact
        # live match raises.
        rng = np.random.default_rng(3)
        pool = [0.25, 0.5, 0.5 + 1e-12, 0.5 - 1e-12, 0.75, 0.1]
        for _ in range(200):
            qs = [float(x) for x in rng.choice(pool, size=8)]
            sp = SupportProbability(qs)
            want = list(qs)
            for q in (float(x) for x in rng.choice(pool, size=4)):
                try:
                    self._last_copy_drop(want, q)
                except ParameterError:
                    with pytest.raises(ParameterError):
                        sp.remove_triangle(q)
                    continue
                sp.remove_triangle(q)
                assert live_factors(sp._qs, sp._dead) == want

    def test_drop_factor_removes_the_last_equal_copy(self):
        sp = SupportProbability([0.5, 0.25, 0.5, 0.75])
        sp.remove_triangle(0.5)
        assert sp._dead == bytearray([0, 0, 1, 0])
        assert live_factors(sp._qs, sp._dead) == [0.5, 0.25, 0.75]

    def test_rebuild_folds_what_the_last_copy_removal_leaves(self):
        # Three equal copies of 0.3; removing one drops the last, and
        # the 0.5 removal that follows trips the error bound, so the
        # PMF is rebuilt from the remaining factors in their order. The
        # two orders give different bits, so the order is pinned.
        sp = SupportProbability([0.3, 0.2, 0.6, 0.5, 0.3, 0.2, 0.9, 0.3])
        sp.remove_triangle(0.3)
        assert (live_factors(sp._qs, sp._dead)
                == [0.3, 0.2, 0.6, 0.5, 0.3, 0.2, 0.9])
        sp.remove_triangle(0.5)
        kept = [0.3, 0.2, 0.6, 0.3, 0.2, 0.9]
        assert live_factors(sp._qs, sp._dead) == kept
        assert sp.pmf == support_pmf(kept)
        assert sp.pmf != support_pmf([0.2, 0.6, 0.3, 0.2, 0.9, 0.3])

    def test_remove_triangle_rejects_a_near_match(self):
        # Only a bit-identical live factor is removed: a value off by
        # float dust names no triangle.
        sp = SupportProbability([0.3, 0.7])
        with pytest.raises(ParameterError):
            sp.remove_triangle(0.3 + 1e-12)
        assert sp.pmf == support_pmf([0.3, 0.7])
        sp.remove_triangle(0.3)
        with pytest.raises(ParameterError):
            sp.remove_triangle(0.3)

    def test_from_factors_validates(self):
        with pytest.raises(ParameterError):
            SupportProbability.from_factors([0.5, 0.2], [0.5, 0.5])
        # A factor outside [0, 1] is refused as remove_triangle refuses it.
        for bad in (1.5, -0.25, float("nan")):
            with pytest.raises(ParameterError, match=r"must be in \[0, 1\]"):
                SupportProbability.from_factors([bad, 0.5], [0.2, 0.3, 0.5])
        sp = SupportProbability.from_factors([0.5], [0.5, 0.5])
        assert sp.max_support == 1
        assert "from_factors" in SupportProbability.__dict__


class TestLiveFactors:
    @staticmethod
    def _reference(factors, dead):
        """Delete, once per dead slot, the last remaining copy of that
        slot's value."""
        live = list(factors)
        for q, d in zip(factors, dead):
            if d:
                idx = len(live) - 1 - live[::-1].index(q)
                del live[idx]
        return live

    def test_matches_last_equal_copy_deletion(self):
        import random

        rng = random.Random(31)
        pool = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0]
        for _ in range(5_000):
            n = rng.randint(0, 10)
            factors = [rng.choice(pool) if rng.random() < 0.7
                       else rng.random() for _ in range(n)]
            dead = bytearray(rng.random() < 0.4 for _ in range(n))
            want = self._reference(factors, dead)
            got = live_factors(factors, dead)
            assert got == want, (factors, list(dead))
            assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_order_ignores_which_equal_slot_died(self):
        factors = [0.5, 0.2, 0.5, 0.5]
        for dead in ([1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]):
            assert live_factors(factors, bytearray(dead)) == [0.5, 0.2, 0.5]


class TestLevel:
    def test_low_edge_probability_level_one(self):
        sp = SupportProbability([0.9, 0.9])
        assert sp.level(gamma=0.5, edge_probability=0.3) == 1

    def test_no_triangles_level_two(self):
        sp = SupportProbability([])
        assert sp.level(gamma=0.5, edge_probability=0.9) == 2

    def test_level_uses_tail_times_edge_probability(self):
        # One triangle with q = 0.8, edge p = 0.5: sigma(1) * p = 0.4.
        sp = SupportProbability([0.8])
        assert sp.level(gamma=0.39, edge_probability=0.5) == 3
        assert sp.level(gamma=0.41, edge_probability=0.5) == 2

    def test_level_exact_threshold_passes(self):
        # sigma(2) * p = 0.125 exactly — the paper's H1 boundary case.
        sp = SupportProbability([0.5, 0.5])
        assert sp.level(gamma=0.125, edge_probability=0.5) == 4

    def test_level_monotone_in_gamma(self):
        sp = SupportProbability([0.3, 0.6, 0.9])
        levels = [sp.level(g, 0.8) for g in (0.01, 0.1, 0.3, 0.6, 0.9)]
        assert levels == sorted(levels, reverse=True)

    def test_invalid_gamma(self):
        sp = SupportProbability([0.5])
        with pytest.raises(ParameterError):
            sp.level(gamma=1.5, edge_probability=0.5)


class _EarlierBodies:
    """One edge's PMF with ``level`` and ``remove_triangle`` exactly as
    they read before the lean rewrite (min() per tail step, per-value
    clamp floor, index loops for the shift branches, the numpy DP for a
    rebuild), over a tracked factor list from which each removal deletes
    the last equal copy: the differential reference the current bodies
    must match bit for bit."""

    def __init__(self, qs, pmf):
        self._qs = list(qs)
        self._pmf = list(pmf)
        self._err = 1e-16

    def level(self, gamma, edge_probability):
        if not 0.0 <= gamma <= 1.0:
            raise ParameterError(f"gamma must be in [0, 1], got {gamma}")
        threshold = gamma * (1.0 - 1e-9)
        if edge_probability < threshold:
            return 1
        running = 0.0
        for t in range(len(self._pmf) - 1, 0, -1):
            running += self._pmf[t]
            if min(1.0, running) * edge_probability >= threshold:
                return t + 2
        return 2

    def remove_triangle(self, q):
        from repro.core.support_prob import _EPS, support_pmfs

        if not 0.0 <= q <= 1.0:
            raise ParameterError(
                f"triangle probability must be in [0, 1], got {q}")
        if len(self._pmf) == 1:
            raise ParameterError("no triangles left to remove")
        for idx in range(len(self._qs) - 1, -1, -1):
            if self._qs[idx] == q:
                break
        else:
            raise ParameterError(f"no tracked triangle has probability {q!r}")
        del self._qs[idx]
        spread = abs(1.0 - 2.0 * q)
        amplification = 1.0 / spread if spread > 1e-6 else 1e6
        self._err = self._err * amplification + 1e-15
        if self._err > 1e-10:
            self._pmf = support_pmfs([list(self._qs)])[0]
            self._err = 1e-16
            return
        old = self._pmf
        n = len(old) - 1
        new = [0.0] * n
        if q >= 1.0 - 1e-15:
            for i in range(n):
                new[i] = old[i + 1]
        elif q <= 0.0:
            new = old[:n]
        elif q < 0.5:
            prev = 0.0
            inv = 1.0 / (1.0 - q)
            for i in range(n):
                value = (old[i] - q * prev) * inv
                if value < 0.0:
                    value = 0.0 if value > -_EPS * len(old) else value
                prev = value
                new[i] = value
        else:
            inv = 1.0 / q
            rest = 1.0 - q
            prev = old[n] * inv
            if prev < 0.0 and prev > -_EPS * len(old):
                prev = 0.0
            new[n - 1] = prev
            for i in range(n - 1, 0, -1):
                value = (old[i] - rest * prev) * inv
                if value < 0.0:
                    value = 0.0 if value > -_EPS * len(old) else value
                prev = value
                new[i - 1] = value
        self._pmf = new


def _bits(values):
    return [float(x).hex() for x in values]


class TestLeanBodiesMatchEarlierBodies:
    SPECIAL = (0.0, 0.5, 1.0, 1.0 - 1e-16)
    TINY = (5e-324, 1e-310, 1e-300, 1e-17)
    LEVEL_ARGS = ((0.0, 0.0), (0.3, 0.9), (0.5, 0.5), (0.7, 1.0),
                  (1.0, 1.0), (0.99, 0.995), (1e-12, 1e-300))

    def _factor(self, rng):
        pick = rng.random()
        if pick < 0.3:
            return rng.choice(self.SPECIAL)
        if pick < 0.45:
            return rng.choice(self.TINY)
        return rng.random()

    def test_random_removal_sequences(self):
        import random

        rng = random.Random(22)
        for case in range(20_000):
            qs = [self._factor(rng) for _ in range(rng.randint(1, 9))]
            lean = SupportProbability(qs)
            earlier = _EarlierBodies(qs, lean.pmf)
            order = list(qs)
            rng.shuffle(order)
            for q in order[:rng.randint(1, len(order))]:
                lean.remove_triangle(q)
                earlier.remove_triangle(q)
                assert _bits(lean._pmf) == _bits(earlier._pmf), (qs, q)
                assert (_bits(live_factors(lean._qs, lean._dead))
                        == _bits(earlier._qs)), (qs, q)
                assert lean._err == earlier._err, (qs, q)
                for gamma, prob in self.LEVEL_ARGS:
                    assert (lean.level(gamma, prob)
                            == earlier.level(gamma, prob)), (qs, gamma, prob)

    def test_removing_from_an_empty_pmf_raises_alike(self):
        for sp in (SupportProbability.from_factors([0.5], [0.5, 0.5]),
                   _EarlierBodies([0.5], [0.5, 0.5])):
            sp.remove_triangle(0.5)
            with pytest.raises(ParameterError, match="no triangles left"):
                sp.remove_triangle(0.5)
