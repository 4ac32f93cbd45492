"""Resource-pressure resilience: watchdog, spill directories, spill runs.

Covers the observation layer (:class:`ResourceWatchdog` probes and
alerts), the storage layer (:class:`SpillDirectory` ownership and
cleanup, :meth:`WorldSampleSet.spill_to` byte identity), and the policy
layer (a memory-budget breach during ``run_global`` sampling spills
and produces output byte-identical to an unpressured run, for every
worker count).
"""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError
from repro.graphs.sampling import WorldSampleSet
from repro.runtime import (
    Budget,
    FaultPlan,
    ResourceWatchdog,
    SpillDirectory,
    run_global,
    serialize_global_result,
)
from repro.runtime.progress import ProgressEvent
from tests.strategies import dyadic_random_graph


def tick(phase="sample-batch", step=0):
    return ProgressEvent(phase, step=step)


class Recorder:
    def __init__(self):
        self.events = []

    def __call__(self, event):
        self.events.append(event)

    def phases(self):
        return [e.phase for e in self.events]


class TestResourceWatchdog:
    def test_probe_records_memory_and_disk(self, tmp_path):
        dog = ResourceWatchdog(probe_dir=tmp_path, interval=0,
                               memory_probe=lambda: 123)
        sample = dog.probe()
        assert sample["peak_rss_bytes"] == 123
        assert sample["free_bytes"] > 0
        assert dog.samples == [sample]
        assert dog.alerts == []

    def test_cpu_probe_is_optional(self):
        dog = ResourceWatchdog(memory_probe=lambda: 1)
        assert "worker_cpu_seconds" not in dog.probe()
        dog = ResourceWatchdog(memory_probe=lambda: 1,
                               cpu_probe=lambda: 2.5)
        assert dog.probe()["worker_cpu_seconds"] == 2.5

    def test_memory_alert_emits_resource_pressure_event(self):
        recorder = Recorder()
        dog = ResourceWatchdog(memory_limit_bytes=100, emit=recorder,
                               memory_probe=lambda: 150)
        dog(tick())
        assert len(dog.alerts) == 1
        alert = dog.alerts[0]
        assert alert["resource"] == "memory"
        assert alert["observed"] == 150 and alert["threshold"] == 100
        assert recorder.phases() == ["resource-pressure"]
        detail = recorder.events[0].detail
        assert detail["action"] == "warn" and detail["resource"] == "memory"

    def test_disk_alert_below_min_free(self, tmp_path):
        dog = ResourceWatchdog(probe_dir=tmp_path,
                               min_free_bytes=2**62,  # nobody has this much
                               memory_probe=lambda: 1)
        dog(tick())
        assert [a["resource"] for a in dog.alerts] == ["disk"]

    def test_no_alert_below_thresholds(self):
        dog = ResourceWatchdog(memory_limit_bytes=100,
                               memory_probe=lambda: 99)
        dog(tick())
        assert dog.samples and not dog.alerts

    def test_interval_rate_limits_probes(self):
        now = [0.0]
        dog = ResourceWatchdog(interval=5.0, memory_probe=lambda: 1,
                               clock=lambda: now[0])
        dog(tick(step=0))          # first event always probes
        now[0] = 2.0
        dog(tick(step=1))          # too soon
        assert len(dog.samples) == 1
        now[0] = 6.0
        dog(tick(step=2))          # interval elapsed
        assert len(dog.samples) == 2

    def test_ignores_its_own_pressure_phases(self):
        dog = ResourceWatchdog(interval=0, memory_probe=lambda: 1)
        dog(tick(phase="resource-pressure"))
        dog(tick(phase="checkpoint-degraded"))
        assert dog.samples == []

    def test_negative_interval_rejected(self):
        with pytest.raises(ParameterError, match="interval"):
            ResourceWatchdog(interval=-1)

    def test_status_line(self):
        dog = ResourceWatchdog(memory_probe=lambda: 2**20)
        assert dog.status() == "watchdog: no probes taken"
        dog.probe()
        status = dog.status()
        assert "probes=1" in status and "peak_rss=1.0MiB" in status


class TestSpillDirectory:
    def test_owned_tempdir_is_removed_on_cleanup(self):
        store = SpillDirectory()
        path = store.path
        assert path.is_dir() and "repro-spill-" in path.name
        store.allocate("x.bits").write_bytes(b"data")
        store.cleanup()
        assert not path.exists()

    def test_caller_directory_survives_cleanup(self, tmp_path):
        target = tmp_path / "spill"
        with SpillDirectory(target) as store:
            assert target.is_dir()
            spill_file = store.allocate("samples.bits")
            spill_file.write_bytes(b"data")
            keep = target / "unrelated.txt"
            keep.write_text("mine")
        assert not spill_file.exists()  # allocated file removed
        assert keep.exists() and target.is_dir()  # directory kept

    def test_free_bytes_positive(self, tmp_path):
        assert SpillDirectory(tmp_path).free_bytes() > 0


class TestWorldSampleSetSpill:
    def make_set(self, seed=0, n=40):
        graph = dyadic_random_graph(8, 0.5, seed=seed)
        return WorldSampleSet.from_graph(graph, n, seed=seed)

    def test_spill_preserves_bytes_and_answers(self, tmp_path):
        ram = self.make_set()
        spilled = self.make_set()
        edges = list(ram.edge_index)
        before = ram.packed_bits.copy()
        path = spilled.spill_to(tmp_path / "s.bits")
        assert path is not None and path.exists()
        assert spilled.is_spilled and spilled.spill_path == path
        assert not ram.is_spilled
        # The mmap view is byte-for-byte the RAM matrix...
        assert np.array_equal(spilled.packed_bits, before)
        assert isinstance(spilled.packed_bits, np.memmap)
        # ...and every projection built from it matches.
        assert np.array_equal(spilled.presence_matrix(edges),
                              ram.presence_matrix(edges))
        for u, v in edges:
            assert spilled.edge_frequency(u, v) == ram.edge_frequency(u, v)

    def test_spill_is_idempotent(self, tmp_path):
        samples = self.make_set()
        first = samples.spill_to(tmp_path / "a.bits")
        again = samples.spill_to(tmp_path / "b.bits")
        assert again == first
        assert not (tmp_path / "b.bits").exists()

    def test_edgeless_set_declines_to_spill(self, tmp_path):
        empty = WorldSampleSet(np.zeros((1, 0), dtype=bool), [])
        assert empty.spill_to(tmp_path / "e.bits") is None
        assert not empty.is_spilled

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(1, 70))
    def test_spill_equivalence_property(self, tmp_path_factory, seed, n):
        tmp = tmp_path_factory.mktemp("spill-prop")
        ram = self.make_set(seed=seed, n=n)
        spilled = self.make_set(seed=seed, n=n)
        spilled.spill_to(tmp / f"s{seed}-{n}.bits")
        edges = list(ram.edge_index)
        assert np.array_equal(spilled.packed_bits, ram.packed_bits)
        assert np.array_equal(spilled.presence_matrix(edges),
                              ram.presence_matrix(edges))


def pressured_run(graph, workers, spill_dir, recorder=None):
    """A run that hits a memory-budget breach on the first sample batch."""
    return run_global(graph, 0.3, method="gbu", seed=1, n_samples=60,
                      batch_size=20, workers=workers, spill_dir=spill_dir,
                      progress=recorder,
                      faults=FaultPlan().memory_pressure("sample-batch", 0))


class TestSpillPolicy:
    """Spilling on memory pressure keeps the answer byte-identical."""

    @pytest.mark.parametrize("workers", [None, 1, 4])
    def test_spilled_run_matches_unpressured_baseline(
            self, tmp_path, workers):
        graph = dyadic_random_graph(10, 0.5, seed=3)
        baseline = run_global(graph, 0.3, method="gbu", seed=1,
                              n_samples=60, batch_size=20, workers=workers)
        recorder = Recorder()
        partial = pressured_run(graph, workers, tmp_path, recorder)
        assert partial.complete and not partial.degraded
        assert partial.n_samples_drawn == 60
        assert (serialize_global_result(partial.result)
                == serialize_global_result(baseline.result))
        pressure = [e for e in recorder.events
                    if e.phase == "resource-pressure"]
        assert len(pressure) == 1
        detail = pressure[0].detail
        assert detail["resource"] == "memory" and detail["action"] == "spill"
        assert detail["bytes"] > 0 and detail["free_bytes"] > 0
        assert str(tmp_path) in detail["path"]
        assert partial.detail["spilled_to"] == detail["path"]

    def test_spill_files_cleaned_up_after_run(self, tmp_path):
        graph = dyadic_random_graph(8, 0.5, seed=3)
        partial = pressured_run(graph, None, tmp_path)
        assert partial.complete
        assert list(tmp_path.iterdir()) == []  # spill file reclaimed

    def test_reused_budget_spills_every_run(self, tmp_path):
        """A spill lifts the memory limit for its own run only."""
        graph = dyadic_random_graph(8, 0.5, seed=3)
        budget = Budget(max_memory_bytes=1)  # trips at the first batch
        for run in range(2):
            partial = run_global(graph, 0.3, method="gbu", seed=1,
                                 n_samples=60, batch_size=20, budget=budget,
                                 spill_dir=tmp_path / str(run))
            assert partial.complete and not partial.degraded
            assert "spilled_to" in partial.detail, f"run {run} did not spill"
            assert budget.max_memory_bytes == 1

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 50))
    def test_spill_equivalence_across_workers_property(
            self, tmp_path_factory, seed):
        graph = dyadic_random_graph(8, 0.5, seed=seed)
        reference = serialize_global_result(
            run_global(graph, 0.3, method="gbu", seed=1, n_samples=40,
                       batch_size=20).result)
        for workers in (None, 1, 2):
            tmp = tmp_path_factory.mktemp(f"spill-w{workers or 0}")
            partial = run_global(
                graph, 0.3, method="gbu", seed=1, n_samples=40,
                batch_size=20, workers=workers, spill_dir=tmp,
                faults=FaultPlan().memory_pressure("sample-batch", 0))
            assert partial.complete and not partial.degraded
            assert serialize_global_result(partial.result) == reference
