"""Differential correctness battery for (r, s)-nucleus decomposition.

The (2, 3)-nucleus *is* the local truss decomposition (docs/nucleus.md
walks the argument), and :func:`~repro.core.local.local_truss_decomposition`
is implemented as that instance of
:func:`~repro.core.nucleus.nucleus_decomposition` — so comparing the two
would test the engine against itself. The (2, 3) case is instead
checked against two references that share no peel code:
:func:`~repro.core.local_iterative.local_truss_decomposition_iterative`
(a work-list fixpoint iteration) and the brute-force ``bf_scores``
below. The (3, 4) case is checked three independent ways:

* against a definitional **brute-force fixpoint oracle** (``bf_scores``
  below) that re-derives every nucleus level from first principles,
  using the O(2^k) :func:`~repro.core.support_prob.support_pmf_bruteforce`
  enumeration instead of the Eq. 8 DP and iterated removal instead of
  bucket peeling;
* against **exhaustive possible-world enumeration**
  (:func:`~tests.strategies.exhaustive_sample_set`): on dyadic graphs
  the DP's initial support-tail probabilities must coincide exactly
  with world-by-world counting of s-cliques;
* via the **containment property**: at equal ``k`` and ``gamma`` every
  edge of the (3, 4)-nucleus lies in the (2, 3)-nucleus (each 4-clique
  through a triangle yields a triangle through each of its edges, so
  the stronger support requirement can only shrink the subgraph) —
  exercised as a hypothesis property over planted 4-clique graphs.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings

from repro import (
    ParameterError,
    ProbabilisticGraph,
    nucleus_decomposition,
    run_nucleus,
    structural_nucleus_decomposition,
    truss_decomposition,
)
from repro.core.local_iterative import local_truss_decomposition_iterative
from repro.core.nucleus import apex_factor, clique_probability
from repro.core.support_prob import support_pmf, support_pmf_bruteforce
from repro.runtime.result import serialize_nucleus_result
from repro.truss.nucleus import (
    SUPPORTED_RS,
    apex_candidates,
    clique_key,
    enumerate_r_cliques,
    max_nucleus_number,
    validate_rs,
)
from tests.strategies import (
    dyadic_random_graph,
    exhaustive_sample_set,
    planted_clique_graph,
    planted_clique_graphs,
    random_probabilistic_graph,
)

#: Non-dyadic thresholds (same rationale as tests/test_differential.py):
#: no exact dyadic probability can tie with these, so threshold
#: classification is unambiguous.
GAMMAS = (0.3, 0.55, 0.7)


def bf_scores(g, r, s, gamma):
    """Definitional nucleus oracle: iterated removal, brute-force PMFs.

    For each level ``k`` starting at 2, keep every r-clique whose
    existence probability times the probability of supporting at least
    ``k - 2`` s-cliques (among *surviving* r-cliques — all ``r``
    sub-r-cliques of a supporting s-clique must still be alive) clears
    ``gamma``, deleting until a fixpoint. The score of ``R`` is the
    largest ``k`` whose fixpoint retains it. Shares only the clique
    enumeration and per-apex factor arithmetic with the production
    code; the PMF, the tail, and the peeling logic are all independent.
    """
    thr = gamma * (1.0 - 1e-9)
    cliques = enumerate_r_cliques(g, r)
    scores = {R: 1 for R in cliques}
    k = 2
    while True:
        alive = {R for R in cliques if clique_probability(g, R) >= thr}
        changed = True
        while changed:
            changed = False
            for R in list(alive):
                qs = []
                for x in apex_candidates(g, R):
                    sibs = [clique_key(R[:i] + R[i + 1:] + (x,))
                            for i in range(r)]
                    if all(o in alive for o in sibs):
                        qs.append(apex_factor(g, R, x))
                pmf = support_pmf_bruteforce(qs)
                tail = sum(pmf[t] for t in range(k - 2, len(pmf)))
                if clique_probability(g, R) * tail < thr:
                    alive.discard(R)
                    changed = True
        if not alive:
            return scores
        for R in alive:
            scores[R] = k
        k += 1


class TestStructuralNucleus:
    def test_23_equals_truss_decomposition(self):
        for seed in range(8):
            g = random_probabilistic_graph(14, 0.35, seed)
            assert structural_nucleus_decomposition(g, 2, 3) == \
                truss_decomposition(g)

    def test_k5_34_levels(self):
        # In K5 every triangle lies in exactly two 4-cliques, so every
        # triangle has support 2 and nucleus number 4; the max over the
        # (3, 4) family is reported accordingly.
        g = ProbabilisticGraph()
        for i in range(5):
            for j in range(i):
                g.add_edge(i, j, 1.0)
        scores = structural_nucleus_decomposition(g, 3, 4)
        assert len(scores) == 10
        assert set(scores.values()) == {4}
        assert max_nucleus_number(g, 3, 4) == 4

    def test_triangle_free_graph_has_no_cells(self):
        g = ProbabilisticGraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        assert structural_nucleus_decomposition(g, 3, 4) == {}

    def test_unsupported_families_rejected(self):
        for r, s in ((2, 4), (3, 5), (4, 5), (3, 3), (1, 3)):
            with pytest.raises(ParameterError):
                validate_rs(r, s)
        for r, s in SUPPORTED_RS:
            validate_rs(r, s)


class TestTwoThreeEqualsLocalTruss:
    """(2, 3)-nucleus ≡ probabilistic local truss, against references
    that do not run the peel: the fixpoint iteration and brute force."""

    def test_scores_equal_trussness(self):
        for seed in range(6):
            g = random_probabilistic_graph(13, 0.4, seed)
            iterative = local_truss_decomposition_iterative(g, 0.3)
            assert bf_scores(g, 2, 3, 0.3) == iterative
            for method in ("dp", "baseline"):
                res = nucleus_decomposition(g, 2, 3, 0.3, method=method)
                assert res.scores == iterative

    def test_scores_equal_trussness_across_gammas(self):
        g = random_probabilistic_graph(15, 0.35, 11)
        for gamma in GAMMAS:
            iterative = local_truss_decomposition_iterative(g, gamma)
            assert bf_scores(g, 2, 3, gamma) == iterative
            assert nucleus_decomposition(g, 2, 3, gamma).scores == iterative

    def test_nucleus_edges_match_truss_subgraphs(self):
        g = random_probabilistic_graph(13, 0.4, 3)
        gamma = 0.3
        res = nucleus_decomposition(g, 2, 3, gamma)
        iterative = local_truss_decomposition_iterative(g, gamma)
        for k in range(2, res.k_max + 1):
            expected = {e for e, tau in iterative.items() if tau >= k}
            assert set(res.nucleus_edges(k)) == expected

    def test_workers_byte_identity(self, tmp_path):
        # The peel runs serially whatever ``workers`` says: the
        # serialized result is compared across workers {None, 1, 2}
        # for both families.
        g = planted_clique_graph(2, 5, 7)
        for r, s in SUPPORTED_RS:
            blobs = set()
            for workers in (None, 1, 2):
                partial = run_nucleus(
                    g, r, s, 0.3, workers=workers,
                    checkpoint_dir=tmp_path / f"w{r}{s}{workers}")
                assert partial.complete, partial.summary()
                blobs.add(serialize_nucleus_result(partial.result))
            assert len(blobs) == 1

    def test_checkpoint_resume_byte_identity(self, tmp_path):
        g = planted_clique_graph(2, 4, 5)
        direct = run_nucleus(g, 3, 4, 0.3)
        first = run_nucleus(g, 3, 4, 0.3, checkpoint_dir=tmp_path)
        resumed = run_nucleus(
            g, 3, 4, 0.3, checkpoint_dir=tmp_path, resume=True)
        assert resumed.complete
        assert serialize_nucleus_result(direct.result) == \
            serialize_nucleus_result(first.result) == \
            serialize_nucleus_result(resumed.result)


class TestThreeFourVsBruteForce:
    """(3, 4) against the definitional fixpoint oracle."""

    def test_dyadic_graphs_match_oracle(self):
        for seed in range(8):
            g = dyadic_random_graph(7, 0.7, seed)
            for gamma in (0.15, 0.35, 0.6):
                for r, s in SUPPORTED_RS:
                    got = nucleus_decomposition(g, r, s, gamma).scores
                    assert got == bf_scores(g, r, s, gamma), (seed, gamma, r, s)

    def test_planted_cliques_match_oracle(self):
        for seed in range(4):
            g = planted_clique_graph(2, 4, seed, extra_density=0.3)
            got = nucleus_decomposition(g, 3, 4, 0.3).scores
            assert got == bf_scores(g, 3, 4, 0.3), seed

    def test_methods_agree(self):
        for seed in range(5):
            g = planted_clique_graph(1, 5, seed)
            for gamma in GAMMAS:
                dp = nucleus_decomposition(g, 3, 4, gamma, method="dp")
                base = nucleus_decomposition(g, 3, 4, gamma,
                                             method="baseline")
                assert dp.scores == base.scores

    @pytest.mark.slow
    def test_oracle_sweep_slow(self):
        # The wide version of the differential: more seeds, denser
        # graphs, every supported family x gamma.
        for seed in range(25):
            g = dyadic_random_graph(7, 0.7, seed)
            for gamma in (0.15, 0.35, 0.6):
                for r, s in SUPPORTED_RS:
                    got = nucleus_decomposition(g, r, s, gamma).scores
                    assert got == bf_scores(g, r, s, gamma), (seed, gamma, r, s)


class TestWorldEnumeration:
    """Initial support tails vs exhaustive possible-world counting."""

    def _world_tail(self, sample_set, cell, apexes, t):
        """Pr[cell exists and >= t supporting s-cliques exist], exactly."""
        import numpy as np
        from itertools import combinations

        def all_present(pairs):
            bits = np.ones(sample_set.n_samples, dtype=bool)
            for u, v in pairs:
                bits &= sample_set.edge_bits(u, v)
            return bits

        cell_alive = all_present(combinations(cell, 2))
        support = np.zeros(sample_set.n_samples, dtype=np.int64)
        for x in apexes:
            support += all_present((x, y) for y in cell)
        hits = int((cell_alive & (support >= t)).sum())
        return hits / sample_set.n_samples

    def test_dp_tail_equals_enumeration(self):
        for seed in (0, 2, 4):
            g = dyadic_random_graph(6, 0.6, seed)
            if g.number_of_edges() > 14:
                continue
            worlds = exhaustive_sample_set(g)
            for r, s in SUPPORTED_RS:
                for cell in enumerate_r_cliques(g, r)[:6]:
                    apexes = sorted(apex_candidates(g, cell), key=repr)
                    qs = [apex_factor(g, cell, x) for x in apexes]
                    pmf = support_pmf(qs)
                    prob = clique_probability(g, cell)
                    for t in range(len(qs) + 1):
                        dp_mass = prob * sum(pmf[t:])
                        world_mass = self._world_tail(
                            worlds, cell, apexes, t)
                        assert math.isclose(
                            dp_mass, world_mass, rel_tol=0, abs_tol=1e-12), (
                            seed, r, s, cell, t)


def interleaved_apex_graphs() -> dict:
    """``{name: (graph, families)}`` whose r-clique enumeration
    interleaves apex counts. String-node (3, 4) order across hash seeds
    is pinned by :class:`TestTriangleOrderAcrossHashSeeds`."""
    ints = planted_clique_graph(3, 5, seed=2)
    strings = ProbabilisticGraph()
    for u, v, p in ints.edges_with_probabilities():
        strings.add_edge(f"n{u}", f"n{v}", p)
    return {"int": (ints, [(2, 3), (3, 4)]), "str": (strings, [(2, 3)])}


def score_orders() -> list:
    """``list(scores.items())`` of every graph/family above, in order."""
    return [
        list(nucleus_decomposition(g, r, s, 0.3).scores.items())
        for g, families in interleaved_apex_graphs().values()
        for r, s in families
    ]


class TestBatchedInitOrder:
    """The initial PMFs come from one batched DP per apex count, but the
    bucket queue pops in insertion order, so the peel — and with it the
    order of the score dict — must follow the r-clique enumeration, not
    the grouping. The graphs here interleave apex counts along that
    enumeration, so an init that filled levels group by group would
    reorder the peel."""

    def test_cells_interleave_apex_counts(self):
        for name, (g, families) in interleaved_apex_graphs().items():
            for r, _s in families:
                counts = [len(apex_candidates(g, cell))
                          for cell in enumerate_r_cliques(g, r)]
                runs = [c for i, c in enumerate(counts)
                        if i == 0 or c != counts[i - 1]]
                assert len(runs) > len(set(runs)), (name, r, counts)

    def test_queue_is_filled_in_enumeration_order(self, monkeypatch):
        import repro.core.nucleus as engine

        seen = []

        class Capture(engine._LevelBuckets):
            def __init__(self, levels):
                seen.append(list(levels))
                super().__init__(levels)

        monkeypatch.setattr(engine, "_LevelBuckets", Capture)
        for g, families in interleaved_apex_graphs().values():
            for r, s in families:
                seen.clear()
                nucleus_decomposition(g, r, s, 0.3)
                assert seen == [enumerate_r_cliques(g, r)]

    def test_score_order_is_hash_seed_independent(self):
        import os
        import pathlib
        import subprocess
        import sys

        repo_root = pathlib.Path(__file__).resolve().parent.parent
        script = (
            "from tests.test_nucleus_differential import score_orders\n"
            "print(score_orders())\n"
        )
        outputs = set()
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=str(repo_root / "src"))
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
                env=env, cwd=repo_root,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1


def string_34_orders() -> list:
    """(3, 4) item orders on a string-node graph: ``list(scores.items())``
    of both peel methods and of the structural peel. Its triangles were
    once enumerated in ``common_neighbors`` set order, which follows
    ``PYTHONHASHSEED`` for string nodes."""
    ints = planted_clique_graph(3, 6, seed=7)
    g = ProbabilisticGraph()
    for u, v, p in ints.edges_with_probabilities():
        g.add_edge(f"n{u}", f"n{v}", p)
    return [
        list(nucleus_decomposition(g, 3, 4, 0.3, method=m).scores.items())
        for m in ("dp", "baseline")
    ] + [list(structural_nucleus_decomposition(g, 3, 4).items())]


class TestTriangleOrderAcrossHashSeeds:
    def test_string_node_34_order_is_hash_seed_independent(self):
        import os
        import pathlib
        import subprocess
        import sys

        repo_root = pathlib.Path(__file__).resolve().parent.parent
        script = (
            "from tests.test_nucleus_differential import string_34_orders\n"
            "print(string_34_orders())\n"
        )
        outputs = set()
        for hash_seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=str(repo_root / "src"))
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
                env=env, cwd=repo_root, timeout=120,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1


def _relabelled(g: ProbabilisticGraph, label) -> ProbabilisticGraph:
    h = ProbabilisticGraph()
    for u, v, p in g.edges_with_probabilities():
        h.add_edge(label(u), label(v), p)
    return h


class TestIdIndexedPeel:
    """The peel retires each s-clique once, at the first pop of one of
    its r-subcliques, and both methods read the same retirement marks."""

    def test_each_s_clique_retires_once(self, monkeypatch):
        from repro.core.support_prob import SupportProbability
        from repro.datasets import load_dataset
        from repro.datasets.probability_models import assign_uniform

        removals = []
        remove = SupportProbability.remove_triangle

        def counting(self, q):
            removals.append(q)
            remove(self, q)

        monkeypatch.setattr(SupportProbability, "remove_triangle", counting)
        g = assign_uniform(load_dataset("wikivote", seed=2016).copy(), seed=1)
        totals = {}
        for r, s in SUPPORTED_RS:
            removals.clear()
            nucleus_decomposition(g, r, s, 0.3)
            apex_slots = sum(len(apex_candidates(g, cell))
                             for cell in enumerate_r_cliques(g, r))
            # Every s-clique has s = r + 1 apex slots, one per member,
            # and sheds one Eq. 8 factor from each of the r members
            # still queued when the first of them pops.
            assert apex_slots % s == 0
            assert len(removals) == r * (apex_slots // s), (r, s)
            totals[r, s] = len(removals)
        assert totals == {(1, 2): 2_938, (2, 3): 10_712, (3, 4): 28_830}

    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("labels", ["int", "str", "mixed"])
    def test_dp_equals_baseline(self, seed, labels):
        g = planted_clique_graph(3, 6, seed=seed)
        if labels == "str":
            g = _relabelled(g, lambda u: f"n{u}")
        elif labels == "mixed":
            g = _relabelled(g, lambda u: u if u % 2 else f"s{u}")
        for r, s in SUPPORTED_RS:
            for gamma in GAMMAS:
                dp = nucleus_decomposition(g, r, s, gamma)
                baseline = nucleus_decomposition(g, r, s, gamma,
                                                 method="baseline")
                assert (list(dp.scores.items())
                        == list(baseline.scores.items())), (r, s, gamma)


class TestContainmentMonotonicity:
    @settings(max_examples=15, deadline=None)
    @given(planted_clique_graphs)
    def test_34_edges_subset_of_23_edges(self, g):
        gamma = 0.3
        res34 = nucleus_decomposition(g, 3, 4, gamma)
        res23 = nucleus_decomposition(g, 2, 3, gamma)
        for k in range(2, res34.k_max + 1):
            edges34 = set(res34.nucleus_edges(k))
            edges23 = set(res23.nucleus_edges(k))
            assert edges34 <= edges23, (k, edges34 - edges23)


class TestResultApiAndValidation:
    def test_parameter_validation(self, k4):
        with pytest.raises(ParameterError):
            nucleus_decomposition(k4, 2, 4, 0.5)
        with pytest.raises(ParameterError):
            nucleus_decomposition(k4, 3, 4, 1.5)
        with pytest.raises(ParameterError):
            nucleus_decomposition(k4, 3, 4, 0.5, method="sampling")

    def test_score_of_arity(self, k4):
        res = nucleus_decomposition(k4, 3, 4, 0.1)
        assert res.score_of("a", "b", "c") >= 2
        with pytest.raises(ParameterError):
            res.score_of("a", "b")

    def test_nucleus_cliques_rejects_low_k(self, k4):
        res = nucleus_decomposition(k4, 3, 4, 0.1)
        with pytest.raises(ParameterError):
            res.nucleus_cliques(1)

    def test_k_max_empty(self):
        g = ProbabilisticGraph()
        g.add_edge(0, 1, 0.9)
        res = nucleus_decomposition(g, 3, 4, 0.5)
        assert res.k_max == 0
        assert res.nucleus_cliques(2) == []
        assert res.nucleus_edges(2) == []

    def test_12_nucleus_edges_are_the_induced_core(self):
        # A (1, 2) cell is a node: its k-nucleus edges are the ones the
        # surviving nodes induce, the (k - 2, gamma)-core subgraph.
        g = random_probabilistic_graph(25, 0.3, 4)
        res = nucleus_decomposition(g, 1, 2, 0.3)
        assert res.k_max >= 3
        for k in range(2, res.k_max + 1):
            nodes = [cell[0] for cell in res.nucleus_cliques(k)]
            expected = set(g.subgraph(nodes).edges())
            assert expected
            assert set(res.nucleus_edges(k)) == expected
