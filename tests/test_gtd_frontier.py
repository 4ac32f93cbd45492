"""Equivalence battery for intra-component frontier-sharded GTD.

The contract under test (see ``docs/performance.md``): the exact
top-down search peels each component in round-synchronous frontier
shards — and serialises to *the same bytes* for every worker count
(``None`` runs the shards on the inline executor), every shard
boundary, every repetition, and straight through worker death and
mid-peel kill/resume. Three structurally different families exercise it:

* the Lemma 2 windmill (exponentially many maximal answers, heavy
  answer dedup across shards),
* a planted high-probability truss in sparse background (one giant
  component, deep peel — the case inter-component parallelism cannot
  touch),
* a Holme–Kim power-law cluster graph (skewed degrees, many
  structural-pruning splits).

All probabilities are dyadic so no float product depends on evaluation
order anywhere in the pipeline.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.global_decomp import (
    _canonical_edge_list,
    _frontier_shards,
    _prune_to_structural_ktruss,
    global_truss_decomposition,
)
from repro.exceptions import CheckpointError, ComputationInterrupted
from repro.graphs.components import edge_connected_components
from repro.graphs.generators import (
    planted_truss_graph,
    powerlaw_cluster_graph,
    windmill_graph,
)
from repro.graphs.sampling import WorldSampleSet
from repro.parallel import ParallelExecutor
from repro.runtime import FaultPlan, run_global, serialize_global_result
from repro.runtime.checkpoint import CheckpointStore

N_SAMPLES = 64
BATCH = 32
MAX_STATES = 60_000


def _windmill():
    return windmill_graph(4, 0.5), 0.05


def _planted():
    graph, _ = planted_truss_graph(
        10, 5, background_density=0.25, clique_probability=0.9375,
        background_probability=0.25, seed=3,
    )
    return graph, 0.4


def _powerlaw():
    return powerlaw_cluster_graph(14, 2, 0.6, seed=5, probability=0.75), 0.3


FAMILIES = [("windmill", _windmill), ("planted", _planted),
            ("powerlaw", _powerlaw)]


def gtd_bytes(graph, gamma, workers, **kwargs):
    return serialize_global_result(global_truss_decomposition(
        graph, gamma, method="gtd", seed=9, n_samples=N_SAMPLES,
        max_states=MAX_STATES, workers=workers, **kwargs,
    ))


class TestWorkerCountEquivalence:
    @pytest.mark.parametrize("name,make", FAMILIES, ids=[f[0] for f in FAMILIES])
    def test_bit_identical_across_worker_counts(self, name, make):
        graph, gamma = make()
        reference = gtd_bytes(graph, gamma, None)
        for workers in (1, 2):
            assert gtd_bytes(graph, gamma, workers) == reference, (
                f"{name}: workers={workers} diverged from serial"
            )

    @pytest.mark.slow
    @pytest.mark.parametrize("name,make", FAMILIES, ids=[f[0] for f in FAMILIES])
    def test_bit_identical_at_four_workers_and_repeated(self, name, make):
        graph, gamma = make()
        reference = gtd_bytes(graph, gamma, None)
        assert gtd_bytes(graph, gamma, 4) == reference
        # Repetition: nothing hidden (hash seeds, pool scheduling,
        # shard completion order) leaks into the bytes.
        assert gtd_bytes(graph, gamma, 2) == gtd_bytes(graph, gamma, 2)
        assert gtd_bytes(graph, gamma, None) == reference


class TestFrontierSharding:
    """Unit properties of the canonical shard split."""

    @given(st.integers(min_value=0, max_value=200),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_shards_partition_in_order(self, n, workers):
        frontier = list(range(n))
        shards = _frontier_shards(frontier, workers)
        assert [x for shard in shards for x in shard] == frontier
        assert all(len(shard) > 0 for shard in shards)
        assert len(shards) <= max(1, workers) * 2

    def test_empty_frontier_yields_no_shards(self):
        assert _frontier_shards([], 4) == []

    def test_shard_never_returns_a_successor_twice(self):
        # gamma = 1 fails every candidate, so the whole shard expands.
        graph, _ = _planted()
        samples = WorldSampleSet.from_graph(graph, N_SAMPLES, seed=9)
        comp_edges = tuple(graph.edges())
        root = _canonical_edge_list(graph)
        shard = [root] + [
            [e for e in root if e != dropped] for dropped in root[:6]
        ]
        with ParallelExecutor(1, graph=graph, samples=samples) as executor:
            [result] = executor.map("gtd-frontier",
                                    [(comp_edges, shard, 3, 1.0)])
        emitted = [frozenset(map(tuple, succ))
                   for kind, data in result for succ in data]
        assert [kind for kind, _ in result] == ["exp"] * len(shard)
        assert len(emitted) == len(set(emitted))
        # Only repeats were dropped: the emitted set is the full
        # single-edge-deletion closure of the shard.
        closure = set()
        generated = 0
        for cand in shard:
            for dropped in cand:
                pruned = _prune_to_structural_ktruss(
                    graph, set(cand) - {dropped}, 3)
                for cluster in edge_connected_components(graph, pruned):
                    closure.add(frozenset(cluster))
                    generated += 1
        assert set(emitted) == closure
        assert generated > len(closure)  # the shard did repeat itself

    def test_canonical_edge_list_is_sorted(self):
        graph, _ = _planted()
        edges = _canonical_edge_list(graph)
        assert edges == sorted(edges, key=lambda e: (str(e[0]), str(e[1])))


class TestFrontierCheckpoint:
    """Round-trip and corruption behaviour of the mid-peel snapshot."""

    DETAIL = {
        "k": 3, "comp_index": 1, "round": 2,
        "found": [[(0, 1), (1, 2), (0, 2)]],
        "frontier": [[(0, 1), (0, 3), (1, 3)], [(2, 3), (2, 4), (3, 4)]],
        "visited": [[(0, 1), (1, 2), (0, 2)], [(0, 1), (0, 3), (1, 3)]],
    }

    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load_frontier() is None
        store.save_frontier(self.DETAIL)
        assert store.load_frontier() == self.DETAIL

    def test_clear_frontier(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.clear_frontier()  # no-op without a snapshot
        store.save_frontier(self.DETAIL)
        store.clear_frontier()
        assert store.load_frontier() is None

    def test_corruption_is_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save_frontier(self.DETAIL)
        body = store.frontier_path.read_bytes()
        store.frontier_path.write_bytes(body.replace(b'"k": 3', b'"k": 4'))
        with pytest.raises(CheckpointError, match="integrity|corrupt"):
            store.load_frontier()

    def test_truncation_is_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save_frontier(self.DETAIL)
        store.frontier_path.write_bytes(
            store.frontier_path.read_bytes()[:20]
        )
        with pytest.raises(CheckpointError):
            store.load_frontier()


@pytest.mark.crash
class TestFrontierFaults:
    """Worker death, quarantine, and mid-peel kill/resume."""

    def full_run(self, graph, gamma, **kwargs):
        return run_global(
            graph, gamma, method="gtd", seed=9, n_samples=N_SAMPLES,
            batch_size=BATCH, max_states=MAX_STATES, **kwargs,
        )

    def test_worker_death_mid_round_is_byte_identical(self):
        graph, gamma = _planted()
        undisturbed = self.full_run(graph, gamma, workers=2)
        assert undisturbed.complete and not undisturbed.degraded
        plan = FaultPlan().kill_worker(after_tasks=1)
        disturbed = self.full_run(graph, gamma, workers=2, faults=plan)
        assert disturbed.complete and not disturbed.degraded
        assert (serialize_global_result(disturbed.result)
                == serialize_global_result(undisturbed.result))

    def test_dead_frontier_shard_degrades_component_to_gbu(self):
        graph, gamma = _planted()
        plan = FaultPlan().hang_task("gtd-frontier", payload_index=0,
                                     times=10)
        partial = self.full_run(
            graph, gamma, workers=2, task_timeout=2.0, max_task_retries=1,
            faults=plan,
        )
        assert partial.complete
        assert partial.degraded
        quarantined = partial.detail["quarantined"]
        assert quarantined[0]["task"] == "gtd-frontier"
        assert quarantined[0]["fallback"] == "gbu"

    @pytest.mark.parametrize("resume_workers", [None, 2, 4])
    @pytest.mark.parametrize("killed_workers", [None, 2])
    def test_kill_resume_lands_on_round_boundary(self, tmp_path,
                                                 killed_workers,
                                                 resume_workers):
        graph, gamma = _planted()
        baseline = serialize_global_result(
            self.full_run(graph, gamma, workers=2).result
        )
        ck = tmp_path / "ck"
        plan = FaultPlan().sigint_at("gtd-frontier", 0)
        with pytest.raises(ComputationInterrupted):
            self.full_run(graph, gamma, workers=killed_workers,
                          checkpoint_dir=ck, faults=plan)
        assert plan.fired == [("gtd-frontier", 0)]
        # The interrupt landed after the round's snapshot was written.
        snapshot = CheckpointStore(ck).load_frontier()
        assert snapshot is not None and snapshot["round"] >= 1
        resumed = self.full_run(graph, gamma, workers=resume_workers,
                                checkpoint_dir=ck, resume=True)
        assert resumed.complete
        assert serialize_global_result(resumed.result) == baseline

    def test_finished_level_clears_frontier_snapshot(self, tmp_path):
        graph, gamma = _planted()
        ck = tmp_path / "ck"
        partial = self.full_run(graph, gamma, workers=2, checkpoint_dir=ck)
        assert partial.complete
        assert CheckpointStore(ck).load_frontier() is None
