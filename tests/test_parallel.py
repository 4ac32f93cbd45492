"""Parallel execution layer: bit-identical equivalence with serial runs.

The contract under test (see ``docs/performance.md``): every
``workers=`` value — ``None``, the inline ``workers=1``, and any pool
size — produces *identical* output, because the work is keyed by
deterministic per-seed RNG streams and canonical orderings rather
than by dispatch order. The serial path derives the same per-seed
streams as the pool, so there is one determinism family, not two.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.global_decomp import global_truss_decomposition
from repro.exceptions import (
    CheckpointError,
    ComputationInterrupted,
    ParameterError,
)
from repro.graphs.generators import gnp_graph, running_example
from repro.graphs.probabilistic import ProbabilisticGraph
from repro.graphs.sampling import WorldSampleSet
from repro.parallel import (
    ParallelExecutor,
    SharedWorldSamples,
    attach_samples,
    resolve_workers,
)
from repro.runtime import (
    FaultPlan,
    run_global,
    run_local,
    serialize_global_result,
)

GAMMA = 0.3
N_SAMPLES = 60
BATCH = 20


def mixed_graph() -> ProbabilisticGraph:
    """A triangle-rich graph mixing int and str node labels."""
    return ProbabilisticGraph([
        (1, 2, 0.9), (2, "a", 0.8), (1, "a", 0.85),
        ("a", "b", 0.9), (2, "b", 0.7), (1, "b", 0.6),
        ("b", "c", 0.9), ("c", 3, 0.8), ("b", 3, 0.75),
        (3, "d", 0.5), ("c", "d", 0.95), ("a", 3, 0.65),
        ("d", 1, 0.7), ("c", 1, 0.55),
    ])


def canon(result) -> str:
    return serialize_global_result(result)


class TestResolveWorkers:
    def test_explicit_counts_pass_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4

    @pytest.mark.parametrize("value", [0, "auto"])
    def test_auto_uses_cpu_count(self, value):
        assert resolve_workers(value) == max(1, os.cpu_count() or 1)

    @pytest.mark.parametrize("value", [True, False, -1, 1.5, "lots", None])
    def test_invalid_values_raise(self, value):
        with pytest.raises(ParameterError):
            resolve_workers(value)


class TestSharedMemory:
    def test_publish_view_round_trip(self):
        samples = WorldSampleSet.from_graph(running_example(), 50, seed=3)
        with SharedWorldSamples.publish(samples) as shared:
            view = shared.view()
            assert view.n_samples == samples.n_samples
            assert np.array_equal(view.packed_bits, samples.packed_bits)
            assert list(view.edge_index) == list(samples.edge_index)

    def test_attach_is_zero_copy_equal(self):
        samples = WorldSampleSet.from_graph(running_example(), 50, seed=3)
        shared = SharedWorldSamples.publish(samples)
        try:
            attached, shm = attach_samples(shared.handle)
            try:
                for u, v in running_example().edges():
                    assert np.array_equal(
                        attached.edge_bits(u, v), samples.edge_bits(u, v)
                    )
            finally:
                # Worker-side detach: unmap only, never unlink.
                del attached
                shm.close()
        finally:
            shared.close()

    def test_attach_after_unlink_raises(self):
        samples = WorldSampleSet.from_graph(running_example(), 8, seed=1)
        shared = SharedWorldSamples.publish(samples)
        handle = shared.handle
        shared.close()
        with pytest.raises(ParameterError, match="no longer exists"):
            attach_samples(handle)

    def test_edgeless_graph_publishes(self):
        samples = WorldSampleSet.from_graph(ProbabilisticGraph(), 5, seed=1)
        with SharedWorldSamples.publish(samples) as shared:
            view = shared.view()
            assert view.n_samples == 5
            assert view.n_edges == 0

    def test_handle_pickles_small(self):
        import pickle

        samples = WorldSampleSet.from_graph(running_example(), 1000, seed=2)
        with SharedWorldSamples.publish(samples) as shared:
            blob = pickle.dumps(shared.handle)
            assert len(blob) < 4096  # metadata only, never the bits
            clone = pickle.loads(blob)
            assert clone.name == shared.handle.name
            assert clone.n_samples == 1000


class TestInlineExecutor:
    """workers=1 runs every task in-process — no pool, same results."""

    def test_pool_workers_is_one(self):
        graph = running_example()
        with ParallelExecutor(1, graph=graph) as ex:
            assert ex.pool_workers == 1


class TestParallelEquivalence:
    """The headline property: identical output for workers in {1, 2, 4}."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_gbu_library_level(self, seed):
        graph = gnp_graph(13, 0.3, seed=seed)
        reference = None
        for workers in (1, 2, 4):
            result = global_truss_decomposition(
                graph, GAMMA, method="gbu", seed=seed,
                n_samples=N_SAMPLES, workers=workers,
            )
            if reference is None:
                reference = canon(result)
            else:
                assert canon(result) == reference, f"workers={workers}"

    def test_gtd_library_level(self):
        graph = running_example()
        results = [
            canon(global_truss_decomposition(
                graph, 0.125, method="gtd", seed=7,
                n_samples=N_SAMPLES, max_states=20000, workers=w,
            ))
            for w in (1, 2)
        ]
        assert results[0] == results[1]

    @pytest.mark.parametrize("make_graph", [running_example, mixed_graph])
    def test_harness_run_global(self, make_graph):
        graph = make_graph()
        results = [
            canon(run_global(
                graph, GAMMA, method="gbu", seed=4, n_samples=N_SAMPLES,
                batch_size=BATCH, workers=w,
            ).result)
            for w in (1, 2)
        ]
        assert results[0] == results[1]

    def test_harness_run_local(self):
        graph = mixed_graph()
        results = [
            run_local(graph, GAMMA, workers=w).result.trussness
            for w in (1, 2)
        ]
        assert results[0] == results[1]


class TestParallelResume:
    """Kill/resume composes with workers — even across worker counts."""

    def full_run(self, graph, **kwargs):
        return run_global(graph, GAMMA, method="gbu", seed=6,
                          n_samples=N_SAMPLES, batch_size=BATCH, **kwargs)

    def test_kill_resume_across_worker_counts(self, tmp_path):
        graph = running_example()
        baseline = canon(self.full_run(graph, workers=2).result)
        ck = tmp_path / "ck"
        plan = FaultPlan().sigint_at("gbu-seed", 0)
        with pytest.raises(ComputationInterrupted):
            self.full_run(graph, workers=2, checkpoint_dir=ck, progress=plan)
        resumed = self.full_run(graph, workers=4, checkpoint_dir=ck,
                                resume=True)
        assert resumed.complete
        assert canon(resumed.result) == baseline

    def test_checkpointed_parallel_requires_seed(self, tmp_path):
        with pytest.raises(CheckpointError, match="seed"):
            run_global(running_example(), GAMMA, method="gbu", seed=None,
                       n_samples=N_SAMPLES, workers=2,
                       checkpoint_dir=tmp_path / "ck")

    def test_rng_scheme_recorded_in_manifest(self, tmp_path):
        import json

        ck = tmp_path / "ck"
        self.full_run(running_example(), workers=1, checkpoint_dir=ck)
        wrapper = json.loads((ck / "manifest.json").read_text())
        assert wrapper["manifest"]["params"]["rng_scheme"] == "per-seed"
        # Worker COUNT is deliberately absent: resuming with a different
        # count must be allowed (and bit-identical).
        assert "workers" not in wrapper["manifest"]["params"]
