"""Fault injection: every error path of the runtime must be reachable."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    BudgetExceededError,
    CheckpointError,
    ComputationInterrupted,
    ParameterError,
)
from repro.graphs.generators import gnp_graph, running_example
from repro.runtime import (
    Budget,
    FaultPlan,
    corrupt_checkpoint,
    run_global,
    run_local,
    run_nucleus,
    run_reliability,
    serialize_global_result,
    serialize_local_result,
    serialize_nucleus_result,
)
from repro.runtime.progress import ProgressEvent


def global_run(graph, **kwargs):
    return run_global(graph, 0.3, method="gbu", seed=1, n_samples=60,
                      batch_size=20, **kwargs)


class TestFaultPlan:
    def test_fires_once_at_exact_boundary(self):
        plan = FaultPlan().raise_at("sample-batch", 2, RuntimeError("boom"))
        plan.check(ProgressEvent("sample-batch", step=0))
        plan.check(ProgressEvent("global-level", step=2))  # wrong phase
        with pytest.raises(RuntimeError, match="boom"):
            plan.check(ProgressEvent("sample-batch", step=2))
        plan.check(ProgressEvent("sample-batch", step=2))  # spent, silent now
        assert plan.fired == [("sample-batch", 2)]

    def test_exception_class_is_instantiated(self):
        plan = FaultPlan().raise_at("nucleus-peel", 64, MemoryError)
        with pytest.raises(MemoryError, match="injected fault"):
            plan.check(ProgressEvent("nucleus-peel", step=64))

    def test_plan_is_not_a_progress_hook(self):
        # A plan passed as progress= would leave its pool and disk
        # faults unarmed; the run refuses it before it starts.
        graph = gnp_graph(30, 0.3, seed=0)
        with pytest.raises(ParameterError, match="progress"):
            run_nucleus(graph, 2, 3, 0.3, progress=FaultPlan())

    def test_plan_as_progress_is_refused_without_events(self, tmp_path):
        # Nine edges peel under one progress interval, so no event
        # would ever reach the plan; the store is not touched either.
        graph = gnp_graph(8, 0.3, seed=0)
        ck = tmp_path / "ck"
        with pytest.raises(ParameterError, match="progress"):
            run_nucleus(graph, 2, 3, 0.3, checkpoint_dir=ck,
                        progress=FaultPlan())
        assert not ck.exists()

    def test_plan_as_progress_is_refused_on_finished_resume(self, tmp_path):
        graph = gnp_graph(8, 0.3, seed=0)
        run_nucleus(graph, 2, 3, 0.3, checkpoint_dir=tmp_path)
        with pytest.raises(ParameterError, match="progress"):
            run_nucleus(graph, 2, 3, 0.3, checkpoint_dir=tmp_path,
                        resume=True, progress=FaultPlan())

    def test_chaining(self):
        plan = (FaultPlan()
                .sigint_at("sample-batch", 0)
                .oom_at("gbu-seed", 3))
        with pytest.raises(ComputationInterrupted):
            plan.check(ProgressEvent("sample-batch", step=0))
        with pytest.raises(MemoryError):
            plan.check(ProgressEvent("gbu-seed", step=3))


class TestSimulatedSigint:
    def test_sigint_without_checkpoint_propagates(self):
        graph = running_example()
        with pytest.raises(ComputationInterrupted) as exc_info:
            global_run(graph, faults=FaultPlan().sigint_at("sample-batch", 0))
        assert exc_info.value.checkpoint_path is None

    def test_sigint_with_checkpoint_names_the_snapshot(self, tmp_path):
        graph = running_example()
        with pytest.raises(ComputationInterrupted) as exc_info:
            global_run(graph, checkpoint_dir=tmp_path,
                       faults=FaultPlan().sigint_at("global-level", 2))
        assert exc_info.value.checkpoint_path == str(tmp_path)

    def test_sigint_during_local_peel(self):
        # nucleus-peel events fire every 64 peeled edges; needs a graph
        # with more than 64 edges.
        graph = gnp_graph(30, 0.3, seed=0)
        assert graph.number_of_edges() > 64
        with pytest.raises(ComputationInterrupted):
            run_local(graph, 0.3,
                      faults=FaultPlan().sigint_at("nucleus-peel", 64))


class TestSimulatedOom:
    def test_oom_during_sampling_degrades(self):
        graph = running_example()
        partial = global_run(
            graph, faults=FaultPlan().oom_at("sample-batch", 0))
        # Decomposition still runs over the truncated sample set; the
        # outcome is degraded in accuracy, not aborted.
        assert partial.degraded
        assert "memory" in (partial.reason or "").lower()
        # Sampling was cut short -> honesty about epsilon.
        assert partial.n_samples_drawn < partial.n_samples_requested
        assert partial.effective_epsilon > partial.requested_epsilon

    def test_oom_during_decomposition_returns_completed_levels(self):
        graph = running_example()
        partial = global_run(
            graph, faults=FaultPlan().oom_at("global-level-done", 2))
        assert partial.degraded and not partial.complete
        assert partial.completed_k == 2  # level 2 was committed first
        assert partial.result.trusses.get(2)

    def test_oom_during_local_run(self):
        graph = gnp_graph(30, 0.3, seed=0)
        partial = run_local(graph, 0.3,
                            faults=FaultPlan().oom_at("nucleus-peel", 64))
        assert partial.degraded and not partial.complete
        assert "memory" in partial.reason.lower()
        # The salvaged prefix of trussness values is final.
        complete = run_local(graph, 0.3).result.trussness
        for edge, tau in partial.result.trussness.items():
            assert complete[edge] == tau

    def test_oom_during_reliability(self):
        graph = running_example()
        partial = run_reliability(
            graph, n_samples=120, batch_size=40, seed=0,
            faults=FaultPlan().oom_at("reliability-batch", 1))
        assert partial.degraded and not partial.complete
        assert partial.n_samples_drawn == 80  # two committed batches


class TestBudgetBreachPaths:
    def test_sample_budget_breach_is_not_an_exception(self):
        graph = running_example()
        partial = global_run(graph, budget=Budget(max_samples=30))
        assert partial.degraded
        assert partial.n_samples_drawn < 60
        assert partial.result is not None  # decomposition still ran

    def test_budget_error_escapes_raw_decomposition(self):
        """Without the harness, budgets raise - the documented contract."""
        from repro.core.global_decomp import global_truss_decomposition

        graph = running_example()
        with pytest.raises(BudgetExceededError):
            global_truss_decomposition(
                graph, 0.3, seed=1, n_samples=60,
                progress=Budget(deadline=0.0))


#: Every harness runner on a graph with triangles and 4-cliques, with the
#: serializer that makes its answer comparable byte for byte.
ENOSPC_RUNNERS = {
    "run_global": (lambda **kw: global_run(running_example(), **kw),
                   serialize_global_result),
    "run_local": (lambda **kw: run_local(gnp_graph(12, 0.5, seed=2), 0.3,
                                         **kw),
                  serialize_local_result),
    "run_nucleus": (lambda **kw: run_nucleus(gnp_graph(12, 0.5, seed=2),
                                             3, 4, 0.3, **kw),
                    serialize_nucleus_result),
    "run_reliability": (lambda **kw: run_reliability(
                            gnp_graph(12, 0.5, seed=2), n_samples=120,
                            seed=5, batch_size=20, **kw),
                        repr),
}


class TestDiskFaults:
    """Injected ENOSPC travels the real torn-write path end to end."""

    @pytest.mark.parametrize("runner", sorted(ENOSPC_RUNNERS))
    def test_enospc_degrades_checkpointing_but_finishes(self, tmp_path,
                                                        runner):
        run, serialize = ENOSPC_RUNNERS[runner]
        baseline = serialize(run().result)
        events: list[ProgressEvent] = []
        plan = FaultPlan().exhaust_disk()
        partial = run(checkpoint_dir=tmp_path, progress=events.append,
                      faults=plan)
        # The run completes and the answer is untouched...
        assert partial.complete
        assert serialize(partial.result) == baseline
        # ...but the degradation is on the record.
        assert partial.degraded
        assert "checkpoint write failed" in partial.reason
        assert "Errno 28" in partial.reason  # ENOSPC
        assert plan.fired == [("exhaust-disk", 0)]
        degraded = [e for e in events if e.phase == "checkpoint-degraded"]
        assert len(degraded) == 1
        assert "checkpoint_error" in degraded[0].detail
        assert degraded[0].detail["path"]
        # No torn temp file survives the failed write.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_checkpointing_stays_disabled_after_first_failure(
            self, tmp_path):
        graph = running_example()
        plan = FaultPlan().exhaust_disk()  # only the FIRST write fails
        partial = global_run(graph, checkpoint_dir=tmp_path, faults=plan)
        assert partial.complete and partial.degraded
        # Later writes would have succeeded, but the store is disabled:
        # a degraded checkpoint must not masquerade as a resumable one.
        assert not (tmp_path / "manifest.json").exists()

    def test_write_fault_raises_checkpoint_write_error(self, tmp_path):
        from repro.exceptions import CheckpointWriteError
        from repro.runtime import CheckpointStore

        store = CheckpointStore(tmp_path)
        store.write_fault = FaultPlan().exhaust_disk().take_disk_fault
        with pytest.raises(CheckpointWriteError) as exc_info:
            store.save_manifest({"params": {}})
        assert exc_info.value.path
        assert list(tmp_path.glob("*.tmp")) == []
        # The fault is consumed: the next write goes through.
        store.save_manifest({"params": {}})
        assert store.exists()


class TestCorruptCheckpoints:
    def make_checkpoint(self, tmp_path):
        graph = running_example()
        with pytest.raises(ComputationInterrupted):
            global_run(graph, checkpoint_dir=tmp_path,
                       faults=FaultPlan().sigint_at("sample-batch", 1))
        return graph

    @pytest.mark.parametrize("mode", ["garbage", "truncate"])
    def test_corrupt_manifest_raises_on_resume(self, tmp_path, mode):
        graph = self.make_checkpoint(tmp_path)
        corrupt_checkpoint(tmp_path, target="manifest", mode=mode)
        with pytest.raises(CheckpointError):
            global_run(graph, checkpoint_dir=tmp_path, resume=True)

    def test_corrupt_sample_batch_raises_on_resume(self, tmp_path):
        graph = self.make_checkpoint(tmp_path)
        corrupt_checkpoint(tmp_path, target="samples", mode="garbage")
        with pytest.raises(CheckpointError):
            global_run(graph, checkpoint_dir=tmp_path, resume=True)

    def test_on_corrupt_restart_recovers(self, tmp_path):
        graph = self.make_checkpoint(tmp_path)
        baseline = serialize_global_result(global_run(graph).result)
        corrupt_checkpoint(tmp_path, target="manifest", mode="garbage")
        partial = global_run(graph, checkpoint_dir=tmp_path, resume=True,
                             on_corrupt="restart")
        assert partial.complete
        assert serialize_global_result(partial.result) == baseline

    def test_corrupt_checkpoint_helper_validates_input(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            corrupt_checkpoint(tmp_path, target="manifest")
        with pytest.raises(CheckpointError, match="no checkpoint file"):
            corrupt_checkpoint(tmp_path, target="samples")
