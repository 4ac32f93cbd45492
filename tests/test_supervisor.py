"""Supervised parallel execution: crash recovery, timeouts, quarantine.

The contract under test (see ``docs/robustness.md``): a parallel map
survives worker death — real SIGKILL included — with byte-identical
output, a hung task is reclaimed by the ``task_timeout``, and a payload
that keeps killing workers is quarantined into an honest
:class:`PartialResult` instead of hanging the run or crashing it. The
shared-memory segment never leaks, not even when pool start fails, and
a corrupted segment is detected (CRC) and re-published without changing
the output.
"""

from __future__ import annotations

import gc
import os
import signal
import time

import numpy as np
import pytest

from repro.core.global_decomp import global_truss_decomposition
from repro.exceptions import (
    ComputationInterrupted,
    ParameterError,
    TaskQuarantinedError,
)
from repro.graphs.generators import gnp_graph, running_example
from repro.graphs.probabilistic import ProbabilisticGraph
from repro.graphs.sampling import WorldSampleSet, hoeffding_epsilon
from repro.parallel import (
    QUARANTINED,
    ParallelExecutor,
    SharedWorldSamples,
    SupervisedPool,
)
from repro.runtime import (
    FaultPlan,
    run_global,
    run_reliability,
    serialize_global_result,
)

# The whole battery SIGKILLs real worker processes; it runs in CI's
# crash-injection and full-battery jobs, not in the tier-1 gate.
pytestmark = pytest.mark.crash

GAMMA = 0.3
N_SAMPLES = 60
BATCH = 20
TIMEOUT = 0.35


def canon(result) -> str:
    return serialize_global_result(result)


def two_component_graph() -> ProbabilisticGraph:
    """Two disconnected triangle-rich components, ``a*`` and ``b*``
    (exercises the per-component GTD -> GBU fallback)."""
    graph = ProbabilisticGraph()
    for prefix, seed in (("a", 2), ("b", 3)):
        part = gnp_graph(7, 0.5, seed=seed)
        for u, v, p in part.edges_with_probabilities():
            graph.add_edge(f"{prefix}{u}", f"{prefix}{v}", p)
    return graph


def block_payloads(graph, blocks: int = 8, rows: int = 16) -> list:
    """``reliability-block`` payloads: seeded presence batches over the
    graph's edges. The task is a pure function of its payload, so an
    inline map is the reference every pooled map must reproduce."""
    nodes = list(graph.nodes())
    edges = [(u, v) for u, v, _ in graph.edges_with_probabilities()]
    rng = np.random.default_rng(0)
    return [
        (nodes, edges, rng.random((rows, len(edges))) < 0.8)
        for _ in range(blocks)
    ]


class Recorder:
    """Progress hook collecting every event it sees."""

    def __init__(self):
        self.events = []

    def __call__(self, event) -> None:
        self.events.append(event)

    def phases(self) -> set:
        return {e.phase for e in self.events}


def segment_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


# ----------------------------------------------------------------------
# Tunables: kwarg > environment > default, ParameterError on nonsense
# ----------------------------------------------------------------------
class TestKnobs:
    def test_defaults(self):
        ex = ParallelExecutor(2, graph=running_example())
        assert ex.task_timeout is None
        assert ex.task_cpu_timeout is None
        assert ex.max_task_retries == 2

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "7")
        monkeypatch.setenv("REPRO_TASK_CPU_TIMEOUT", "3")
        monkeypatch.setenv("REPRO_MAX_TASK_RETRIES", "5")
        ex = ParallelExecutor(2, graph=running_example())
        assert ex.task_timeout == pytest.approx(7.0)
        assert ex.task_cpu_timeout == pytest.approx(3.0)
        assert ex.max_task_retries == 5

    def test_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_TASK_RETRIES", "5")
        ex = ParallelExecutor(2, graph=running_example(),
                              max_task_retries=1)
        assert ex.max_task_retries == 1

    @pytest.mark.parametrize("env,value", [
        ("REPRO_TASK_TIMEOUT", "0"),
        ("REPRO_TASK_CPU_TIMEOUT", "0"),
        ("REPRO_TASK_CPU_TIMEOUT", "never"),
        ("REPRO_MAX_TASK_RETRIES", "-1"),
        ("REPRO_MAX_TASK_RETRIES", "2.5"),
    ])
    def test_bad_env_values_raise(self, monkeypatch, env, value):
        monkeypatch.setenv(env, value)
        with pytest.raises(ParameterError, match=env):
            ParallelExecutor(2, graph=running_example())

    @pytest.mark.parametrize("kwargs", [
        {"task_timeout": 0},
        {"task_timeout": -3},
        {"task_cpu_timeout": 0},
        {"task_cpu_timeout": "never"},
        {"max_task_retries": -1},
        {"max_task_retries": True},
    ])
    def test_bad_kwargs_raise(self, kwargs):
        with pytest.raises(ParameterError):
            ParallelExecutor(2, graph=running_example(), **kwargs)

    def test_bad_quarantine_policy_raises(self):
        with ParallelExecutor(1, graph=running_example()) as ex:
            with pytest.raises(ParameterError, match="on_quarantine"):
                ex.map("reliability-block",
                       block_payloads(running_example(), blocks=1),
                       on_quarantine="ignore")


# ----------------------------------------------------------------------
# Shared-memory leak guard
# ----------------------------------------------------------------------
class TestLeakGuard:
    def test_finalizer_unlinks_unclosed_segment(self):
        samples = WorldSampleSet.from_graph(running_example(), 30, seed=1)
        shared = SharedWorldSamples.publish(samples)
        name = shared.handle.name
        assert segment_exists(name)
        del shared  # owner forgot close(): the finalizer must unlink
        gc.collect()
        assert not segment_exists(name)

    def test_close_then_gc_is_clean(self):
        samples = WorldSampleSet.from_graph(running_example(), 30, seed=1)
        shared = SharedWorldSamples.publish(samples)
        name = shared.handle.name
        shared.close()
        assert not segment_exists(name)
        del shared
        gc.collect()  # finalizer was detached; no double-unlink error

    def test_failed_pool_start_leaves_no_segment(self, monkeypatch):
        """Regression: a partial start() must unlink what it published."""
        published = []
        real_publish = SharedWorldSamples.publish.__func__

        def capture(cls, samples):
            shared = real_publish(cls, samples)
            published.append(shared.handle.name)
            return shared

        monkeypatch.setattr(SharedWorldSamples, "publish",
                            classmethod(capture))
        monkeypatch.setattr(
            SupervisedPool, "start",
            lambda self: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        graph = running_example()
        samples = WorldSampleSet.from_graph(graph, 30, seed=2)
        with pytest.raises(RuntimeError, match="boom"):
            ParallelExecutor(2, graph=graph, samples=samples).start()
        assert published, "pool start never published a segment"
        for name in published:
            assert not segment_exists(name)

    def test_no_segment_survives_normal_close(self):
        graph = running_example()
        samples = WorldSampleSet.from_graph(graph, 30, seed=2)
        ex = ParallelExecutor(2, graph=graph, samples=samples).start()
        name = ex._shared.handle.name
        assert segment_exists(name)
        ex.close()
        assert not segment_exists(name)


# ----------------------------------------------------------------------
# Crash recovery: byte-identical replay after worker death
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_real_sigkill_replays_byte_identically(self):
        """Kill a live worker with os.kill(SIGKILL); the map must still
        return the inline reference result, and the pool must stay
        usable for the next map."""
        graph = gnp_graph(12, 0.35, seed=3)
        payloads = block_payloads(graph)
        with ParallelExecutor(1, graph=graph) as inline:
            reference = inline.map("reliability-block", payloads)
        with ParallelExecutor(2, graph=graph) as ex:
            pids = ex.pool_pids
            assert len(pids) == 2
            os.kill(pids[0], signal.SIGKILL)
            time.sleep(0.2)  # let the death reach the pipes
            assert ex.map("reliability-block", payloads) == reference
            assert len(ex.pool_pids) == 2
            assert pids[0] not in ex.pool_pids
            # Pool healthy: a second map on the same pool still works.
            assert ex.map("reliability-block", payloads[:3]) == reference[:3]
            assert ex.quarantined == []

    @pytest.mark.parametrize("workers", [2, 4])
    def test_kill_worker_fault_run_global_equivalence(self, workers):
        graph = gnp_graph(13, 0.3, seed=1)
        undisturbed = run_global(
            graph, GAMMA, method="gbu", seed=4, n_samples=N_SAMPLES,
            batch_size=BATCH, workers=workers,
        )
        assert undisturbed.complete and not undisturbed.degraded
        plan = FaultPlan().kill_worker(after_tasks=1)
        recorder = Recorder()
        disturbed = run_global(
            graph, GAMMA, method="gbu", seed=4, n_samples=N_SAMPLES,
            batch_size=BATCH, workers=workers,
            progress=recorder, faults=plan,
        )
        assert disturbed.complete
        assert canon(disturbed.result) == canon(undisturbed.result)
        # One worker really died and supervision reported it.
        assert "worker-died" in recorder.phases()
        assert "task-retried" in recorder.phases()
        # A replayed crash is not a degradation: nothing was lost.
        assert not disturbed.degraded

    def test_crash_between_checkpoint_batches(self, tmp_path):
        """A worker crash in a checkpointed run neither corrupts the
        checkpoint nor changes the output."""
        graph = running_example()
        undisturbed = run_global(
            graph, GAMMA, method="gbu", seed=6, n_samples=N_SAMPLES,
            batch_size=BATCH, workers=2,
        )
        plan = FaultPlan().kill_worker(after_tasks=0)
        disturbed = run_global(
            graph, GAMMA, method="gbu", seed=6, n_samples=N_SAMPLES,
            batch_size=BATCH, workers=2, checkpoint_dir=tmp_path / "ck",
            faults=plan,
        )
        assert disturbed.complete
        assert canon(disturbed.result) == canon(undisturbed.result)
        # The finished checkpoint resumes instantly and identically.
        resumed = run_global(
            graph, GAMMA, method="gbu", seed=6, n_samples=N_SAMPLES,
            batch_size=BATCH, workers=4, checkpoint_dir=tmp_path / "ck",
            resume=True,
        )
        assert resumed.complete
        assert canon(resumed.result) == canon(undisturbed.result)


# ----------------------------------------------------------------------
# Timeouts and the retry ladder
# ----------------------------------------------------------------------
class TestTimeouts:
    def test_hung_task_is_killed_and_retried(self):
        graph = gnp_graph(11, 0.35, seed=5)
        payloads = block_payloads(graph)
        with ParallelExecutor(1, graph=graph) as inline:
            reference = inline.map("reliability-block", payloads)
        plan = FaultPlan().hang_task("reliability-block", payload_index=0,
                                     times=1)
        recorder = Recorder()
        with ParallelExecutor(2, graph=graph, task_timeout=TIMEOUT,
                              faults=plan) as ex:
            results = ex.map("reliability-block", payloads, progress=recorder)
        assert results == reference
        assert "worker-died" in recorder.phases()
        assert "task-retried" in recorder.phases()
        retried = [e for e in recorder.events if e.phase == "task-retried"]
        assert retried[0].detail["payload_index"] == 0
        assert "timed out" in retried[0].detail["reason"]


# ----------------------------------------------------------------------
# CPU-time watchdog: wedged vs descheduled-but-busy workers
# ----------------------------------------------------------------------
class TestCpuStall:
    def test_wedged_task_is_killed_and_retried(self):
        """Zero CPU progress over task_cpu_timeout of wall time → the
        worker is reclaimed even though no wall-clock task_timeout is
        set, and the replay keeps the output byte-identical."""
        graph = gnp_graph(11, 0.35, seed=5)
        payloads = block_payloads(graph)
        with ParallelExecutor(1, graph=graph) as inline:
            reference = inline.map("reliability-block", payloads)
        plan = FaultPlan().stall_task_cpu("reliability-block",
                                          payload_index=0, times=1)
        recorder = Recorder()
        with ParallelExecutor(2, graph=graph, task_cpu_timeout=TIMEOUT,
                              faults=plan) as ex:
            results = ex.map("reliability-block", payloads, progress=recorder)
        assert results == reference
        assert "worker-died" in recorder.phases()
        retried = [e for e in recorder.events if e.phase == "task-retried"]
        assert retried[0].detail["payload_index"] == 0
        assert "CPU stalled" in retried[0].detail["reason"]

    def test_busy_task_gets_its_grace_extended(self):
        """A task that burns CPU for longer than task_cpu_timeout is
        *not* killed: advancing CPU time is proof of life, the exact
        case a pure wall-clock timeout misclassifies."""
        graph = gnp_graph(9, 0.35, seed=5)
        payloads = block_payloads(graph, blocks=4, rows=64)
        with ParallelExecutor(1, graph=graph) as inline:
            reference = inline.map("reliability-block", payloads)
        plan = FaultPlan().spin_task("reliability-block",
                                     seconds=4 * TIMEOUT, payload_index=0)
        recorder = Recorder()
        with ParallelExecutor(2, graph=graph, task_cpu_timeout=TIMEOUT,
                              faults=plan) as ex:
            results = ex.map("reliability-block", payloads, progress=recorder)
            # The spin really consumed CPU and the supervisor saw it.
            assert ex.worker_cpu_seconds() > TIMEOUT
        assert results == reference
        assert "worker-died" not in recorder.phases()
        assert "task-retried" not in recorder.phases()

    def test_stall_during_run_global_is_transparent(self):
        graph = gnp_graph(13, 0.3, seed=1)
        undisturbed = run_global(
            graph, GAMMA, method="gbu", seed=4, n_samples=N_SAMPLES,
            batch_size=BATCH, workers=2,
        )
        plan = FaultPlan().stall_task_cpu("gbu-seed", payload_index=0,
                                          times=1)
        recorder = Recorder()
        disturbed = run_global(
            graph, GAMMA, method="gbu", seed=4, n_samples=N_SAMPLES,
            batch_size=BATCH, workers=2, task_cpu_timeout=TIMEOUT,
            progress=recorder, faults=plan,
        )
        assert disturbed.complete and not disturbed.degraded
        assert canon(disturbed.result) == canon(undisturbed.result)
        assert "worker-died" in recorder.phases()


# ----------------------------------------------------------------------
# Poison-task quarantine
# ----------------------------------------------------------------------
class TestQuarantine:
    def make_executor(self, graph, **kwargs):
        # times=2 exhausts max_task_retries=1 exactly, so follow-up maps
        # on the surviving pool run clean.
        plan = FaultPlan().hang_task("reliability-block", payload_index=0,
                                     times=2)
        return ParallelExecutor(2, graph=graph, task_timeout=TIMEOUT,
                                max_task_retries=1, faults=plan, **kwargs)

    def test_skip_policy_yields_sentinel_and_record(self):
        graph = gnp_graph(11, 0.35, seed=5)
        payloads = block_payloads(graph)
        with ParallelExecutor(1, graph=graph) as inline:
            reference = inline.map("reliability-block", payloads)
        recorder = Recorder()
        with self.make_executor(graph) as ex:
            name = ex._shared.handle.name if ex._shared else None
            results = ex.map("reliability-block", payloads,
                             progress=recorder, on_quarantine="skip")
            assert results[0] is QUARANTINED
            assert results[1:] == reference[1:]
            assert len(ex.quarantined) == 1
            record = ex.quarantined[0]
            assert record.name == "reliability-block"
            assert record.index == 0
            assert record.attempts == 2  # max_task_retries=1 → 2 tries
            assert all("timed out" in r for r in record.reasons)
            assert "task-quarantined" in recorder.phases()
            # The pool survived the poison payload and keeps serving.
            assert ex.map("reliability-block", payloads[1:]) == reference[1:]
        if name is not None:
            assert not segment_exists(name)

    def test_raise_policy_raises_with_records(self):
        graph = gnp_graph(11, 0.35, seed=5)
        payloads = block_payloads(graph)
        with self.make_executor(graph) as ex:
            with pytest.raises(TaskQuarantinedError) as info:
                ex.map("reliability-block", payloads)
            assert info.value.quarantined[0].index == 0
            assert "reliability-block" in str(info.value)

    def test_gbu_seed_quarantine_degrades_run_global(self):
        graph = gnp_graph(13, 0.3, seed=1)
        plan = FaultPlan().hang_task("gbu-seed", payload_index=0, times=10)
        partial = run_global(
            graph, GAMMA, method="gbu", seed=4, n_samples=N_SAMPLES,
            batch_size=BATCH, workers=2, task_timeout=TIMEOUT,
            max_task_retries=1, faults=plan,
        )
        # The run finishes — no hang, no traceback — but says exactly
        # which payload it gave up on.
        assert partial.complete
        assert partial.degraded
        assert "quarantined" in partial.reason
        quarantined = partial.detail["quarantined"]
        assert quarantined[0]["task"] == "gbu-seed"
        assert quarantined[0]["payload_index"] == 0
        assert quarantined[0]["attempts"] == 2

    def test_gtd_component_falls_back_to_gbu(self):
        graph = two_component_graph()
        run = dict(method="gtd", seed=5, n_samples=40, batch_size=BATCH,
                   max_states=20000, workers=2)
        exact = run_global(graph, GAMMA, **run)
        # Two hangs exhaust max_task_retries=1 on the very first frontier
        # shard: the first round of component 0 (the ``a*`` nodes) at
        # k = 2. Every later shard runs normally.
        plan = FaultPlan().hang_task("gtd-frontier", payload_index=0,
                                     times=2)
        partial = run_global(graph, GAMMA, task_timeout=TIMEOUT,
                             max_task_retries=1, faults=plan, **run)
        assert partial.complete
        assert partial.degraded
        quarantined = partial.detail["quarantined"]
        assert len(quarantined) == 1
        assert quarantined[0]["task"] == "gtd-frontier"
        assert quarantined[0]["fallback"] == "gbu"

        def b_trusses(result):
            return sorted(
                (k, sorted(map(str, t.nodes())))
                for k, t in result.all_trusses()
                if all(str(n).startswith("b") for n in t.nodes())
            )

        # The other component's exact search is untouched by the fallback.
        assert b_trusses(exact.result)
        assert b_trusses(partial.result) == b_trusses(exact.result)


# ----------------------------------------------------------------------
# Shared-segment corruption: CRC detect, re-publish, replay
# ----------------------------------------------------------------------
class TestCorruptSegment:
    def test_corruption_is_detected_and_output_unchanged(self):
        graph = gnp_graph(13, 0.3, seed=2)
        undisturbed = run_global(
            graph, GAMMA, method="gbu", seed=7, n_samples=N_SAMPLES,
            batch_size=BATCH, workers=2,
        )
        plan = (FaultPlan()
                .corrupt_shared_segment()
                .kill_worker(after_tasks=0))
        disturbed = run_global(
            graph, GAMMA, method="gbu", seed=7, n_samples=N_SAMPLES,
            batch_size=BATCH, workers=2, faults=plan,
        )
        assert disturbed.complete
        assert canon(disturbed.result) == canon(undisturbed.result)
        assert ("corrupt-shared-segment", 0) in plan.fired

    def test_verify_detects_scribble(self):
        samples = WorldSampleSet.from_graph(running_example(), 40, seed=3)
        with SharedWorldSamples.publish(samples) as shared:
            assert shared.verify()
            shared._shm.buf[0] = shared._shm.buf[0] ^ 0xFF
            assert not shared.verify()


# ----------------------------------------------------------------------
# SIGINT mid-pool-map: checkpoint written, resume byte-identical
# ----------------------------------------------------------------------
class TestSigintMidMap:
    def test_interrupt_during_pool_map_resumes_identically(self, tmp_path):
        graph = gnp_graph(13, 0.3, seed=1)
        undisturbed = run_global(
            graph, GAMMA, method="gbu", seed=8, n_samples=N_SAMPLES,
            batch_size=BATCH, workers=2,
        )
        # The second task a worker takes kills it, and supervision
        # reports the death inside the map loop while the dead worker's
        # payload is still pending: the interrupt lands mid-map at the
        # same point on every machine, whatever the timing.
        plan = (FaultPlan()
                .kill_worker(after_tasks=1)
                .sigint_on_phase("worker-died"))
        ck = tmp_path / "ck"
        with pytest.raises(ComputationInterrupted) as info:
            run_global(
                graph, GAMMA, method="gbu", seed=8, n_samples=N_SAMPLES,
                batch_size=BATCH, workers=2, checkpoint_dir=ck,
                faults=plan,
            )
        assert info.value.checkpoint_path == str(ck)
        assert plan.fired == [("worker-died", 1)]
        assert (ck / "manifest.json").exists()
        resumed = run_global(
            graph, GAMMA, method="gbu", seed=8, n_samples=N_SAMPLES,
            batch_size=BATCH, workers=4, checkpoint_dir=ck, resume=True,
        )
        assert resumed.complete
        assert canon(resumed.result) == canon(undisturbed.result)


# ----------------------------------------------------------------------
# Parallel reliability: sequential RNG, fanned classification
# ----------------------------------------------------------------------
class TestReliabilityParallel:
    def test_equivalence_across_worker_counts(self):
        graph = gnp_graph(10, 0.3, seed=4)
        serial = run_reliability(graph, n_samples=120, seed=11,
                                 batch_size=25)
        assert serial.complete
        for workers in (1, 2, 4):
            parallel = run_reliability(graph, n_samples=120, seed=11,
                                       batch_size=25, workers=workers)
            assert parallel.complete
            assert parallel.result == serial.result
            assert parallel.detail["hits"] == serial.detail["hits"]
            assert parallel.n_samples_drawn == serial.n_samples_drawn

    def test_interrupt_mid_window_resumes_across_modes(self, tmp_path):
        graph = gnp_graph(10, 0.3, seed=4)
        serial = run_reliability(graph, n_samples=120, seed=12,
                                 batch_size=20)
        ck = tmp_path / "ck"
        plan = FaultPlan().sigint_at("reliability-batch", 1)
        with pytest.raises(ComputationInterrupted):
            run_reliability(graph, n_samples=120, seed=12, batch_size=20,
                            workers=2, checkpoint_dir=ck, faults=plan)
        # Resume *serially* from a parallel run's checkpoint: the RNG
        # stream is shared, so the estimate must match exactly.
        resumed = run_reliability(graph, n_samples=120, seed=12,
                                  batch_size=20, checkpoint_dir=ck,
                                  resume=True)
        assert resumed.complete
        assert resumed.result == serial.result
        assert resumed.detail["hits"] == serial.detail["hits"]

    def test_quarantined_batch_drops_rows_and_widens_epsilon(self):
        graph = gnp_graph(10, 0.3, seed=4)
        serial = run_reliability(graph, n_samples=120, seed=13,
                                 batch_size=20)
        # times=2: poisons payload 0 of the *first* window only —
        # payload_index restarts at 0 in each windowed map.
        plan = FaultPlan().hang_task("reliability-block", payload_index=0,
                                     times=2)
        partial = run_reliability(graph, n_samples=120, seed=13,
                                  batch_size=20, workers=2,
                                  task_timeout=TIMEOUT, max_task_retries=1,
                                  faults=plan)
        assert partial.complete
        assert partial.degraded
        assert partial.n_samples_drawn == 100  # one 20-row batch dropped
        assert partial.detail["rows_skipped"] == 20
        assert partial.detail["quarantined"][0]["task"] == "reliability-block"
        assert partial.effective_epsilon == pytest.approx(
            hoeffding_epsilon(100, 0.05)
        )
        assert partial.effective_epsilon > serial.effective_epsilon


# ----------------------------------------------------------------------
# FaultPlan extensions
# ----------------------------------------------------------------------
class TestFaultPlanExtensions:
    def test_raise_on_phase_fires_on_any_step(self):
        from repro.runtime.progress import ProgressEvent

        plan = FaultPlan().raise_on_phase("oracle-eval", RuntimeError)
        plan.check(ProgressEvent("sample-batch", step=3))  # no-op
        with pytest.raises(RuntimeError):
            plan.check(ProgressEvent("oracle-eval", step=17))
        # Fires once, then disarms.
        plan.check(ProgressEvent("oracle-eval", step=18))
        assert ("oracle-eval", 17) in plan.fired

    def test_pool_fault_specs_compose(self):
        plan = (FaultPlan()
                .kill_worker(after_tasks=2)
                .hang_task("gbu-seed", payload_index=1, times=3))
        assert plan.pool_faults == {
            "kill_after": 2,
            "hang_name": "gbu-seed",
            "hang_index": 1,
            "hang_limit": 3,
        }

    def test_take_segment_corruption_is_one_shot(self):
        plan = FaultPlan().corrupt_shared_segment()
        assert plan.take_segment_corruption()
        assert not plan.take_segment_corruption()
        assert ("corrupt-shared-segment", 0) in plan.fired
