"""Harness semantics: equivalence, degradation, and fallback."""

from __future__ import annotations

import pytest

from repro.core.global_decomp import global_truss_decomposition
from repro.core.local import local_truss_decomposition
from repro.core.reliability import network_reliability_mc
from repro.exceptions import CheckpointError
from repro.graphs.generators import gnp_graph, running_example
from repro.graphs.sampling import (
    WorldSampleSet,
    hoeffding_epsilon,
    hoeffding_sample_size,
)
from repro.runtime import (
    Budget,
    run_global,
    run_local,
    run_reliability,
    serialize_global_result,
    serialize_local_result,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestEquivalence:
    """The harness changes *how* runs execute, never *what* they compute."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_batched_sampling_matches_single_shot(self, seed):
        graph = running_example()
        one_shot = WorldSampleSet.from_graph(graph, 100, seed=seed)
        batched = WorldSampleSet.from_graph(graph, 100, seed=seed,
                                            batch_size=17)
        for u, v in graph.edges():
            assert (one_shot.edge_bits(u, v) == batched.edge_bits(u, v)).all()

    @pytest.mark.parametrize("method", ["gbu", "gtd"])
    def test_global_harness_matches_direct_call(self, method):
        graph = running_example()
        direct = global_truss_decomposition(
            graph, 0.3, method=method, seed=11, n_samples=80)
        partial = run_global(graph, 0.3, method=method, seed=11,
                             n_samples=80, batch_size=25)
        assert partial.complete and not partial.degraded
        assert (serialize_global_result(partial.result)
                == serialize_global_result(direct))

    def test_local_harness_matches_direct_call(self):
        graph = gnp_graph(25, 0.3, seed=3)
        direct = local_truss_decomposition(graph, 0.4)
        partial = run_local(graph, 0.4)
        assert partial.complete
        assert (serialize_local_result(partial.result)
                == serialize_local_result(direct))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_reliability_harness_matches_direct_call(self, seed):
        graph = running_example()
        direct = network_reliability_mc(graph, n_samples=200, seed=seed)
        partial = run_reliability(graph, n_samples=200, batch_size=50,
                                  seed=seed)
        assert partial.complete
        assert partial.result == pytest.approx(direct)


class TestDegradation:
    def test_zero_deadline_still_returns_a_result(self):
        graph = running_example()
        partial = run_global(graph, 0.3, seed=1, n_samples=100,
                             batch_size=25, budget=Budget(deadline=0.0))
        assert partial.degraded and not partial.complete
        assert partial.n_samples_drawn >= 25  # one batch always lands
        assert "deadline" in partial.reason

    def test_epsilon_widens_per_hoeffding_on_truncation(self):
        graph = running_example()
        partial = run_global(graph, 0.3, seed=1, n_samples=100,
                             batch_size=25, budget=Budget(max_samples=50))
        drawn = partial.n_samples_drawn
        assert drawn < 100
        assert partial.effective_epsilon == pytest.approx(
            hoeffding_epsilon(drawn, 0.1))
        assert partial.result.epsilon == pytest.approx(
            partial.effective_epsilon)

    def test_full_run_keeps_requested_epsilon(self):
        graph = running_example()
        partial = run_global(graph, 0.3, seed=1, epsilon=0.1, delta=0.1)
        assert partial.n_samples_requested == hoeffding_sample_size(0.1, 0.1)
        assert partial.effective_epsilon == 0.1

    def test_summary_mentions_degradation(self):
        graph = running_example()
        partial = run_global(graph, 0.3, seed=1, n_samples=100,
                             batch_size=25, budget=Budget(deadline=0.0))
        line = partial.summary()
        assert "degraded" in line and "epsilon_effective" in line

    def test_deadline_overshoot_is_bounded_by_one_boundary(self):
        """A breach is detected at the first boundary past the deadline."""
        clock = FakeClock()
        budget = Budget(deadline=10.0, clock=clock)
        graph = running_example()

        def tick(event):
            clock.now += 4.0  # deadline crossed between boundaries

        partial = run_global(graph, 0.3, seed=1, n_samples=100,
                             batch_size=25, budget=budget, progress=tick)
        assert partial.degraded
        # Sampling crossed the deadline after the third batch boundary
        # (elapsed 12 > 10) and stopped right there: exactly three of
        # the four batches were drawn.
        assert partial.n_samples_drawn == 75
        # Each stage stops at its first boundary past the deadline, so
        # the total overshoot is bounded by one tick per stage.
        assert budget.elapsed() <= 10.0 + 2 * 4.0 + 1e-9


class TestGtdFallback:
    def test_soft_deadline_falls_back_to_gbu(self):
        graph = running_example()
        # gtd_fraction=0 gives GTD a zero share of the remaining
        # deadline, so its first explored state trips the soft budget
        # and the harness degrades to GBU deterministically.
        partial = run_global(graph, 0.3, method="gtd", seed=11,
                             n_samples=80, budget=Budget(deadline=3600.0),
                             gtd_fraction=0.0)
        assert partial.fallback == "gtd->gbu"
        assert partial.degraded
        assert partial.result.method == "gbu"
        pure_gbu = run_global(graph, 0.3, method="gbu", seed=11, n_samples=80)
        assert (serialize_global_result(partial.result)
                == serialize_global_result(pure_gbu.result))

    def test_state_explosion_falls_back_to_gbu(self):
        graph = running_example()
        partial = run_global(graph, 0.3, method="gtd", seed=11,
                             n_samples=80, max_states=1)
        assert partial.fallback == "gtd->gbu"
        assert partial.result.method == "gbu"

    def test_hard_deadline_breach_during_gtd_is_final(self):
        clock = FakeClock()
        budget = Budget(deadline=10.0, clock=clock)
        graph = running_example()
        clock_bump = [0.0]

        def tick(event):
            clock.now += clock_bump[0]
            if event.phase == "global-level":
                clock_bump[0] = 100.0  # hard breach once decomposition starts

        partial = run_global(graph, 0.3, method="gtd", seed=11,
                             n_samples=80, budget=budget, progress=tick,
                             gtd_fraction=0.9)
        assert partial.degraded and not partial.complete
        assert partial.fallback is None  # hard budget: no second chance


class TestLocalRun:
    def test_budget_breach_salvages_final_prefix(self):
        graph = gnp_graph(30, 0.3, seed=0)
        partial = run_local(graph, 0.3, budget=Budget(deadline=0.0))
        assert partial.degraded and not partial.complete
        full = run_local(graph, 0.3).result.trussness
        for edge, tau in partial.result.trussness.items():
            assert full[edge] == tau

    def test_checkpoint_memoises_finished_result(self, tmp_path):
        graph = gnp_graph(20, 0.3, seed=1)
        first = run_local(graph, 0.4, checkpoint_dir=tmp_path)
        resumed = run_local(graph, 0.4, checkpoint_dir=tmp_path, resume=True)
        assert resumed.complete
        assert (serialize_local_result(resumed.result)
                == serialize_local_result(first.result))

    def test_checkpoint_refuses_other_gamma(self, tmp_path):
        graph = gnp_graph(20, 0.3, seed=1)
        run_local(graph, 0.4, checkpoint_dir=tmp_path)
        with pytest.raises(CheckpointError, match="different parameters"):
            run_local(graph, 0.7, checkpoint_dir=tmp_path, resume=True)

    def test_checkpoint_resumes_across_worker_counts(self, tmp_path):
        # Serial and pooled runs fold the support factors in the same
        # canonical order, so they share one manifest format: each
        # resumes the other's checkpoint, byte for byte.
        graph = gnp_graph(20, 0.3, seed=1)
        for writer, reader in ((None, 2), (2, None)):
            ck = tmp_path / f"written-by-{writer}"
            first = run_local(graph, 0.4, checkpoint_dir=ck, workers=writer)
            resumed = run_local(graph, 0.4, checkpoint_dir=ck, resume=True,
                                workers=reader)
            assert resumed.complete
            assert (serialize_local_result(resumed.result)
                    == serialize_local_result(first.result))

    def test_older_manifests_are_refused_or_cleared(self, tmp_path):
        # Older local runs wrote kind="local" manifests, tagged
        # pmf_order="adjacency" when serial; older nucleus runs folded
        # factors in "canonical" (type name, str) order. Either raises
        # the typed error, or is cleared and recomputed under
        # on_corrupt="restart".
        from repro.runtime.checkpoint import CheckpointStore

        graph = gnp_graph(20, 0.3, seed=1)
        fresh = run_local(graph, 0.4, checkpoint_dir=tmp_path)
        store = CheckpointStore(tmp_path)
        current = store.load_manifest()
        params = dict(current["params"])
        del params["r"], params["s"]
        old_local = {**params, "kind": "local", "pmf_order": "adjacency"}
        old_nucleus = {**current["params"], "pmf_order": "canonical"}
        for old_params in (old_local, old_nucleus):
            store.save_manifest({**current, "params": old_params})
            with pytest.raises(CheckpointError, match="different parameters"):
                run_local(graph, 0.4, checkpoint_dir=tmp_path, resume=True)
            restarted = run_local(graph, 0.4, checkpoint_dir=tmp_path,
                                  resume=True, on_corrupt="restart")
            assert restarted.complete
            assert (serialize_local_result(restarted.result)
                    == serialize_local_result(fresh.result))
            assert store.load_manifest()["params"] == current["params"]


class TestCrossProcessDeterminism:
    def test_gbu_result_is_hash_seed_independent(self):
        """Checkpoint resume runs in a fresh process with a fresh
        PYTHONHASHSEED, so results must not depend on set iteration
        order (regression: GBU apex choice once did)."""
        import os
        import pathlib
        import subprocess
        import sys

        repo_root = pathlib.Path(__file__).resolve().parent.parent
        script = (
            "from repro.graphs.generators import running_example\n"
            "from repro.runtime import run_global, serialize_global_result\n"
            "import hashlib\n"
            "p = run_global(running_example(), 0.1, method='gbu', seed=3,\n"
            "               n_samples=200)\n"
            "print(hashlib.sha256(serialize_global_result(p.result))"
            ".hexdigest())\n"
        )
        digests = set()
        for hash_seed in ("0", "1", "1050100594"):
            env = dict(os.environ,
                       PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=str(repo_root / "src"))
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
                env=env, cwd=repo_root,
            )
            digests.add(proc.stdout.strip())
        assert len(digests) == 1

    def test_peel_output_is_hash_seed_independent(self, tmp_path):
        """The peel's bucket queue pops from hash-ordered sets; local
        truss, (3, 4)-nucleus and serial GTD output (truss listing
        order included) on a string-node graph must not depend on
        PYTHONHASHSEED."""
        import os
        import pathlib
        import subprocess
        import sys

        from repro.graphs.io import write_edge_list
        from repro.graphs.probabilistic import ProbabilisticGraph
        from tests.strategies import planted_clique_graph

        graph = ProbabilisticGraph()
        for u, v, p in planted_clique_graph(3, 5, seed=2).edges_with_probabilities():
            graph.add_edge(f"n{u}", f"n{v}", p)
        path = tmp_path / "strings.txt"
        write_edge_list(graph, path)
        # Exact GTD needs a smaller graph to finish in test time.
        small = ProbabilisticGraph()
        for u, v, p in planted_clique_graph(2, 5, seed=2).edges_with_probabilities():
            small.add_edge(f"n{u}", f"n{v}", p)
        small_path = tmp_path / "small.txt"
        write_edge_list(small, small_path)
        repo_root = pathlib.Path(__file__).resolve().parent.parent
        commands = (
            ["local", str(path), "--gamma", "0.3", "--verbose"],
            ["nucleus", str(path), "--gamma", "0.3", "--r", "3", "--s", "4",
             "--verbose"],
            ["global", str(small_path), "--gamma", "0.3", "--method", "gtd",
             "--verbose"],
        )
        for command in commands:
            outputs = set()
            for hash_seed in ("0", "1"):
                env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                           PYTHONPATH=str(repo_root / "src"))
                proc = subprocess.run(
                    [sys.executable, "-m", "repro", *command],
                    capture_output=True, text=True, check=True,
                    env=env, cwd=repo_root,
                )
                outputs.add(proc.stdout)
            assert len(outputs) == 1, command


class TestCheckpointSeedDiscipline:
    def test_generator_seed_with_checkpoint_is_rejected(self, tmp_path):
        import numpy as np

        graph = running_example()
        with pytest.raises(CheckpointError, match="reproducible seed"):
            run_global(graph, 0.3, seed=np.random.default_rng(0),
                       checkpoint_dir=tmp_path)

    def test_none_seed_with_checkpoint_is_rejected_when_serial(self,
                                                               tmp_path):
        # Serial GBU roots its per-seed streams like the pooled one: a
        # root drawn from a None seed would differ after resume.
        with pytest.raises(CheckpointError, match="int seed"):
            run_global(running_example(), 0.3, seed=None,
                       checkpoint_dir=tmp_path, workers=None)
