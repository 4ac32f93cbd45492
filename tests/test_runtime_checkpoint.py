"""Checkpoint store integrity and bit-identical kill-and-resume."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import (
    CheckpointError,
    ComputationInterrupted,
    ParameterError,
)
from repro.graphs.generators import running_example
from repro.graphs.sampling import SampleBatcher
from repro.runtime import (
    CheckpointStore,
    FaultPlan,
    decode_node,
    encode_node,
    run_global,
    run_reliability,
    serialize_global_result,
)

GAMMA = 0.3
N_SAMPLES = 60
BATCH = 20  # -> 3 sample batches


def full_run(graph, seed, **kwargs):
    return run_global(graph, GAMMA, method="gbu", seed=seed,
                      n_samples=N_SAMPLES, batch_size=BATCH, **kwargs)


class TestNodeCodec:
    @pytest.mark.parametrize("label", [0, 7, -3, "a", "", "läbel", True, False])
    def test_round_trip(self, label):
        out = decode_node(encode_node(label))
        assert out == label and type(out) is type(label)

    def test_bool_is_not_conflated_with_int(self):
        assert encode_node(True)[0] == "b"
        assert encode_node(1)[0] == "i"

    def test_unsupported_label_raises(self):
        with pytest.raises(CheckpointError, match="cannot be checkpointed"):
            encode_node((1, 2))

    def test_malformed_encoding_raises(self):
        with pytest.raises(CheckpointError):
            decode_node(["x", 1])
        with pytest.raises(CheckpointError):
            decode_node("not-a-pair")


class TestCheckpointStore:
    def test_manifest_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert not store.exists()
        store.save_manifest({"params": {"kind": "t"}, "status": "x"})
        assert store.exists()
        doc = store.load_manifest(expect_params={"kind": "t"})
        assert doc["status"] == "x"

    def test_param_mismatch_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save_manifest({"params": {"gamma": 0.3}})
        with pytest.raises(CheckpointError, match="different parameters"):
            store.load_manifest(expect_params={"gamma": 0.5})

    def test_version_gate(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save_manifest({"params": {}})
        wrapper = json.loads(store.manifest_path.read_text())
        wrapper["manifest"]["version"] = 999
        # Recompute the crc so only the version is "wrong".
        import zlib

        body = json.dumps(wrapper["manifest"], sort_keys=True,
                          separators=(",", ":"))
        wrapper["crc"] = zlib.crc32(body.encode())
        store.manifest_path.write_text(json.dumps(wrapper, sort_keys=True))
        with pytest.raises(CheckpointError, match="version"):
            store.load_manifest()

    def test_crc_detects_tampering(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save_manifest({"params": {"gamma": 0.3}})
        wrapper = json.loads(store.manifest_path.read_text())
        wrapper["manifest"]["params"]["gamma"] = 0.9
        store.manifest_path.write_text(json.dumps(wrapper, sort_keys=True))
        with pytest.raises(CheckpointError, match="crc mismatch"):
            store.load_manifest()

    def test_sample_batch_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        rng = np.random.default_rng(0)
        presence = rng.random((25, 11)) < 0.5
        store.save_sample_batch(0, presence)
        assert np.array_equal(store.load_sample_batch(0), presence)

    def test_sample_batch_corruption_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save_sample_batch(0, np.ones((4, 3), dtype=bool))
        path = tmp_path / "samples_0000.npz"
        path.write_bytes(b"\x00" * 10)
        with pytest.raises(CheckpointError, match="corrupt"):
            store.load_sample_batch(0)

    def test_missing_files_raise(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointError, match="no checkpoint manifest"):
            store.load_manifest()
        with pytest.raises(CheckpointError, match="missing"):
            store.load_sample_batch(3)
        with pytest.raises(CheckpointError, match="missing"):
            store.load_level(2)

    def test_level_round_trip(self, tmp_path):
        graph = running_example()
        store = CheckpointStore(tmp_path)
        sub = graph.edge_subgraph(list(graph.edges())[:4])
        store.save_level(2, [sub])
        [edges] = store.load_level(2)
        assert sorted(edges) == sorted(
            tuple(e) for e in sub.edges()
        )

    def test_clear(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save_manifest({"params": {}})
        store.save_sample_batch(0, np.ones((2, 2), dtype=bool))
        store.clear()
        assert not store.exists()
        assert list(tmp_path.glob("*")) == []


class TestCollectGarbage:
    """Pruning a finished checkpoint never touches what resume needs."""

    def test_removes_tmp_frontier_and_stale_batches(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save_manifest({"params": {}})
        for index in range(4):
            store.save_sample_batch(index, np.ones((2, 2), dtype=bool))
        store.save_frontier({"k": 3, "comp_index": 0, "round": 1,
                             "found": [], "frontier": [], "visited": []})
        torn = tmp_path / "samples_0009.npz.tmp"
        torn.write_bytes(b"partial")
        removed = store.collect_garbage(batches_drawn=2)
        assert torn in removed
        assert store.frontier_path in removed
        # Batches 2 and 3 are beyond the run that finished with 2.
        names = sorted(p.name for p in removed)
        assert "samples_0002.npz" in names and "samples_0003.npz" in names
        # What resume reads is untouched.
        assert store.exists()
        assert store.load_sample_batch(0) is not None
        assert store.load_sample_batch(1) is not None
        with pytest.raises(CheckpointError, match="missing"):
            store.load_sample_batch(2)

    def test_without_batches_drawn_keeps_all_batches(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save_sample_batch(0, np.ones((2, 2), dtype=bool))
        removed = store.collect_garbage()
        assert removed == []
        assert store.load_sample_batch(0) is not None

    def test_empty_directory_is_a_no_op(self, tmp_path):
        assert CheckpointStore(tmp_path).collect_garbage() == []

    def test_completed_global_run_leaves_no_garbage(self, tmp_path):
        """The harness GCs on completion: no *.tmp, no frontier, no
        out-of-range sample batches — and the pruned checkpoint still
        resumes byte-identically."""
        graph = running_example()
        first = full_run(graph, 7, checkpoint_dir=tmp_path)
        assert first.complete
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.suffix == ".tmp" or p.name == "frontier.json"]
        assert leftovers == []
        batches = sorted(p.name for p in tmp_path.glob("samples_*.npz"))
        assert len(batches) == N_SAMPLES // BATCH
        again = full_run(graph, 7, checkpoint_dir=tmp_path, resume=True)
        assert (serialize_global_result(again.result)
                == serialize_global_result(first.result))


class TestBatcherResume:
    """The checkpoint-resume path of :class:`SampleBatcher`."""

    def test_resume_via_load_batch_matches_direct_draw(self):
        graph = running_example()
        direct = SampleBatcher(graph, n_samples=40, batch_size=20, seed=0)
        batches = [direct.draw_next() for _ in range(2)]
        resumed = SampleBatcher(graph, n_samples=40, batch_size=20, seed=0)
        for batch in batches:
            resumed.load_batch(batch)
        assert np.array_equal(
            resumed.result().packed_bits, direct.result().packed_bits
        )

    def test_overfull_checkpoint_names_the_problem(self):
        # Regression: loading more batches than the run's parameters
        # allow used to fail inside batch_rows() with a misleading
        # "batch index out of range"; the real problem — an oversized or
        # mismatched checkpoint — is now named directly.
        graph = running_example()
        donor = SampleBatcher(graph, n_samples=60, batch_size=20, seed=0)
        extra = [donor.draw_next() for _ in range(3)]
        resumed = SampleBatcher(graph, n_samples=40, batch_size=20, seed=0)
        resumed.load_batch(extra[0])
        resumed.load_batch(extra[1])
        with pytest.raises(
            ParameterError,
            match="all 2 batches have already been drawn",
        ):
            resumed.load_batch(extra[2])

    def test_draw_next_past_the_end_raises(self):
        graph = running_example()
        batcher = SampleBatcher(graph, n_samples=20, batch_size=20, seed=0)
        batcher.draw_next()
        with pytest.raises(ParameterError, match="already been drawn"):
            batcher.draw_next()


#: Kill points covering all three stages of a global run: mid-sampling,
#: mid-level (GBU seed loop), and at a completed-level boundary.
KILL_POINTS = [
    ("sample-batch", 0),
    ("sample-batch", 1),
    ("gbu-seed", 0),
    ("global-level-done", 2),
]


class TestKillAndResume:
    """A killed run, resumed, is byte-identical to an uninterrupted one."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("phase,step", KILL_POINTS)
    def test_global_resume_is_bit_identical(self, tmp_path, seed, phase, step):
        graph = running_example()
        baseline = serialize_global_result(full_run(graph, seed).result)

        ck = tmp_path / "ck"
        plan = FaultPlan().sigint_at(phase, step)
        with pytest.raises(ComputationInterrupted) as exc_info:
            full_run(graph, seed, checkpoint_dir=ck, faults=plan)
        assert plan.fired == [(phase, step)]
        assert exc_info.value.checkpoint_path == str(ck)

        resumed = full_run(graph, seed, checkpoint_dir=ck, resume=True)
        assert resumed.complete
        assert serialize_global_result(resumed.result) == baseline

    def test_double_kill_then_resume(self, tmp_path):
        """Two successive kills at different boundaries still resume."""
        graph = running_example()
        baseline = serialize_global_result(full_run(graph, 5).result)
        ck = tmp_path / "ck"
        with pytest.raises(ComputationInterrupted):
            full_run(graph, 5, checkpoint_dir=ck,
                     faults=FaultPlan().sigint_at("sample-batch", 1))
        with pytest.raises(ComputationInterrupted):
            full_run(graph, 5, checkpoint_dir=ck, resume=True,
                     faults=FaultPlan().sigint_at("global-level-done", 2))
        resumed = full_run(graph, 5, checkpoint_dir=ck, resume=True)
        assert serialize_global_result(resumed.result) == baseline

    def test_resume_of_finished_run_returns_same_result(self, tmp_path):
        graph = running_example()
        first = full_run(graph, 2, checkpoint_dir=tmp_path)
        again = full_run(graph, 2, checkpoint_dir=tmp_path, resume=True)
        assert again.complete
        assert (serialize_global_result(again.result)
                == serialize_global_result(first.result))

    def test_resume_with_different_params_refuses(self, tmp_path):
        graph = running_example()
        full_run(graph, 2, checkpoint_dir=tmp_path)
        with pytest.raises(CheckpointError, match="different parameters"):
            run_global(graph, 0.7, method="gbu", seed=2,
                       n_samples=N_SAMPLES, batch_size=BATCH,
                       checkpoint_dir=tmp_path, resume=True)

    @pytest.mark.parametrize("seed", [1, 4])
    def test_reliability_resume_is_identical(self, tmp_path, seed):
        graph = running_example()
        baseline = run_reliability(graph, n_samples=120, batch_size=40,
                                   seed=seed)
        ck = tmp_path / "ck"
        with pytest.raises(ComputationInterrupted):
            run_reliability(graph, n_samples=120, batch_size=40, seed=seed,
                            checkpoint_dir=ck,
                            faults=FaultPlan().sigint_at(
                                "reliability-batch", 1))
        resumed = run_reliability(graph, n_samples=120, batch_size=40,
                                  seed=seed, checkpoint_dir=ck, resume=True)
        assert resumed.complete
        assert resumed.result == baseline.result
        assert resumed.detail["hits"] == baseline.detail["hits"]
