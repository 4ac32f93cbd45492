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

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.global_decomp import (
    _canonical_edge_list,
    _frontier_shards,
    _mask_bits,
    global_truss_decomposition,
)
from repro.exceptions import (
    CheckpointError,
    CheckpointWriteError,
    ComputationInterrupted,
)
from repro.graphs.components import edge_connected_components
from repro.graphs.generators import (
    planted_truss_graph,
    powerlaw_cluster_graph,
    windmill_graph,
)
from repro.graphs.probabilistic import ProbabilisticGraph
from repro.graphs.sampling import WorldSampleSet
from repro.parallel import ParallelExecutor
from repro.runtime import FaultPlan, run_global, serialize_global_result
from repro.runtime.checkpoint import CheckpointStore, encode_node
from repro.truss.decomposition import k_truss_edges

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
        edges = tuple(_canonical_edge_list(graph))
        root = (1 << len(edges)) - 1
        shard = [root] + [root & ~(1 << j) for j in range(6)]
        with ParallelExecutor(1, graph=graph, samples=samples) as executor:
            [result] = executor.map("gtd-frontier",
                                    [(edges, shard, 3, 1.0)])
        emitted = [frozenset(edges[j] for j in _mask_bits(succ))
                   for kind, data in result for succ in data]
        assert [kind for kind, _ in result] == ["exp"] * len(shard)
        assert len(emitted) == len(set(emitted))
        # Only repeats were dropped: the emitted set is the full
        # single-edge-deletion closure of the shard.
        closure = set()
        generated = 0
        for mask in shard:
            cand = [edges[j] for j in _mask_bits(mask)]
            for dropped in cand:
                pruned = k_truss_edges(
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

    @given(st.integers(min_value=0, max_value=2**200))
    @settings(max_examples=200, deadline=None)
    def test_mask_bits_are_the_set_bits_ascending(self, mask):
        bits = _mask_bits(mask)
        assert bits == sorted(set(bits))
        assert sum(1 << j for j in bits) == mask

    def test_mask_decodes_to_the_sorted_edge_list(self):
        # Set bits ascending give the canonically sorted candidate list.
        graph, _ = _planted()
        edges = _canonical_edge_list(graph)
        mask = sum(1 << j for j in range(0, len(edges), 3))
        assert [edges[j] for j in _mask_bits(mask)] == edges[::3]


class TestFrontierCheckpoint:
    """Round-trip and corruption behaviour of the mid-peel snapshot."""

    DETAIL = {
        "k": 3, "comp_index": 1, "round": 2,
        "found": [[(0, 1), (1, 2), (0, 2)]],
        # Masks past 64 bits round-trip too: JSON ints are unbounded.
        "frontier": [0b1011, (1 << 70) | 0b110],
        "visited": [0b111, 0b1011, (1 << 70) | 0b110],
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

    def test_unspellable_mask_fails_like_a_full_disk(self, tmp_path):
        # Past the int-to-str digit limit JSON cannot write the mask; the
        # harness turns this error into "checkpointing disabled".
        store = CheckpointStore(tmp_path)
        huge = dict(self.DETAIL, frontier=[1 << 50_000])
        with pytest.raises(CheckpointWriteError):
            store.save_frontier(huge)
        assert store.load_frontier() is None

    def test_states_are_stored_as_plain_ints(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save_frontier(self.DETAIL)
        body = json.loads(store.frontier_path.read_text())["payload"]
        assert body["frontier"] == self.DETAIL["frontier"]
        assert body["visited"] == self.DETAIL["visited"]


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
    @pytest.mark.parametrize("step", [0, 1, 2])
    def test_kill_resume_lands_on_round_boundary(self, tmp_path, step,
                                                 killed_workers,
                                                 resume_workers):
        # The windmill's k = 2 peel runs nine rounds (the planted
        # family's levels finish in one), so every step interrupts a
        # search with a frontier and a visited set of many states.
        graph, gamma = _windmill()
        baseline = serialize_global_result(
            self.full_run(graph, gamma, workers=2).result
        )
        ck = tmp_path / "ck"
        plan = FaultPlan().sigint_at("gtd-frontier", step)
        with pytest.raises(ComputationInterrupted):
            self.full_run(graph, gamma, workers=killed_workers,
                          checkpoint_dir=ck, faults=plan)
        assert plan.fired == [("gtd-frontier", step)]
        # The interrupt landed after the round's snapshot was written.
        snapshot = CheckpointStore(ck).load_frontier()
        assert snapshot is not None and snapshot["round"] == step + 1
        assert snapshot["frontier"] and len(snapshot["visited"]) > 1
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


def _string_windmill():
    graph, gamma = _windmill()
    relabelled = ProbabilisticGraph()
    for u, v, p in graph.edges_with_probabilities():
        relabelled.add_edge(f"n{u}", f"n{v}", p)
    return relabelled, gamma


class TestFrontierResume:
    """Resuming a mid-peel snapshot: the bitmask format, the edge-list
    format before it, and a resume in a process with another hash seed."""

    def run(self, graph, gamma, **kwargs):
        return run_global(
            graph, gamma, method="gtd", seed=9, n_samples=N_SAMPLES,
            batch_size=BATCH, max_states=MAX_STATES, **kwargs,
        )

    def interrupted(self, ck, step=1):
        """Kill the windmill at ``step`` and rewrite its snapshot with
        edge-list states, as the format before bitmasks stored them."""
        graph, gamma = _windmill()
        with pytest.raises(ComputationInterrupted):
            self.run(graph, gamma, checkpoint_dir=ck,
                     faults=FaultPlan().sigint_at("gtd-frontier", step))
        store = CheckpointStore(ck)
        body = json.loads(store.frontier_path.read_text())["payload"]
        # At k = 2 the windmill's one component holds every edge.
        edges = _canonical_edge_list(graph)
        for name in ("frontier", "visited"):
            body[name] = [
                [[encode_node(u), encode_node(v)]
                 for u, v in (edges[j] for j in _mask_bits(mask))]
                for mask in body[name]
            ]
        store._save_sealed(store.frontier_path, "payload", body)
        return graph, gamma

    def test_edge_list_snapshot_is_refused(self, tmp_path):
        graph, gamma = self.interrupted(tmp_path / "ck")
        with pytest.raises(CheckpointError,
                           match="predates the bitmask format"):
            self.run(graph, gamma, checkpoint_dir=tmp_path / "ck",
                     resume=True)

    def test_restart_drops_edge_list_snapshot_and_reruns_level(self,
                                                               tmp_path):
        graph, gamma = self.interrupted(tmp_path / "ck")
        baseline = serialize_global_result(self.run(graph, gamma).result)
        resumed = self.run(graph, gamma, checkpoint_dir=tmp_path / "ck",
                           resume=True, on_corrupt="restart")
        assert resumed.complete
        assert serialize_global_result(resumed.result) == baseline

    def test_resume_in_another_hash_seed_is_byte_identical(self, tmp_path):
        """Kill a string-node run under PYTHONHASHSEED=0 two rounds into
        its peel and resume it under PYTHONHASHSEED=1."""
        repo_root = pathlib.Path(__file__).resolve().parent.parent
        ck = tmp_path / "ck"
        script = (
            "import hashlib, sys\n"
            "from repro.exceptions import ComputationInterrupted\n"
            "from repro.runtime import FaultPlan, run_global, "
            "serialize_global_result\n"
            "from tests.test_gtd_frontier import _string_windmill\n"
            "graph, gamma = _string_windmill()\n"
            "kw = dict(method='gtd', seed=9, n_samples=%d, batch_size=%d,\n"
            "          max_states=%d, checkpoint_dir=sys.argv[2])\n"
            "if sys.argv[1] == 'kill':\n"
            "    try:\n"
            "        run_global(graph, gamma, "
            "faults=FaultPlan().sigint_at('gtd-frontier', 2), **kw)\n"
            "    except ComputationInterrupted:\n"
            "        print('interrupted')\n"
            "else:\n"
            "    p = run_global(graph, gamma, resume=True, **kw)\n"
            "    print(hashlib.sha256(serialize_global_result(p.result))"
            ".hexdigest())\n"
        ) % (N_SAMPLES, BATCH, MAX_STATES)

        def child(mode, hash_seed):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=str(repo_root / "src"))
            return subprocess.run(
                [sys.executable, "-c", script, mode, str(ck)],
                capture_output=True, text=True, check=True, env=env,
                cwd=repo_root,
            ).stdout.strip()

        assert child("kill", "0") == "interrupted"
        snapshot = CheckpointStore(ck).load_frontier()
        assert snapshot["round"] == 3 and len(snapshot["visited"]) > 1
        graph, gamma = _string_windmill()
        baseline = hashlib.sha256(
            serialize_global_result(self.run(graph, gamma).result)
        ).hexdigest()
        assert child("resume", "1") == baseline
