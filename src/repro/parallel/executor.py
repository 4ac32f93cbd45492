"""The pool front end: dispatch, supervision policy, cancellation.

:class:`ParallelExecutor` owns everything the parallel mode needs for
one run: the supervised worker pool (:mod:`repro.parallel.supervisor`),
the shared-memory sample segment, the shared cancel flag, and the
counter block workers tick progress into. ``workers=1`` (or an
environment without ``fork``) degrades to *inline* mode — the same task
functions run synchronously in the parent process, which is both the
zero-overhead special case and the reference the equivalence tests
compare worker counts against.

Supervision policy lives here: the executor decides what a quarantined
payload means for each call site through ``map``'s ``on_quarantine``
argument. ``"raise"`` (the default) surfaces a
:class:`~repro.exceptions.TaskQuarantinedError`; ``"skip"`` returns the
:data:`~repro.parallel.supervisor.QUARANTINED` sentinel in that
payload's slot so degradable stages (GBU seeds, GTD frontier shards,
reliability batches) can skip the payload, widen their error bounds or
fall back per-component instead of failing the run.

Tunables
--------
``task_timeout``, ``task_cpu_timeout`` and ``max_task_retries`` accept
keyword overrides, then the ``REPRO_TASK_TIMEOUT`` /
``REPRO_TASK_CPU_TIMEOUT`` / ``REPRO_MAX_TASK_RETRIES`` environment
variables, then the defaults — all validated through
:class:`~repro.exceptions.ParameterError`. The progress-pump cadence
and the abort grace are constants of :mod:`repro.parallel.supervisor`.
"""

from __future__ import annotations

import multiprocessing as mp
import os

from repro.exceptions import ParameterError, TaskQuarantinedError
from repro.parallel.shared import SharedWorldSamples
from repro.parallel.supervisor import (
    QUARANTINED,
    PoolFaultState,
    SupervisedPool,
)
from repro.parallel.work import COUNTER_PHASES, TASKS, WorkerState

__all__ = ["ParallelExecutor", "resolve_workers"]

#: Default strike limit before a payload is quarantined.
_MAX_TASK_RETRIES = 2


def resolve_workers(workers) -> int:
    """Normalise a ``--workers`` value to a positive worker count.

    ``0`` and ``"auto"`` mean one worker per available core; anything
    else must be a positive integer.
    """
    if not isinstance(workers, bool) and workers in (0, "auto"):
        return max(1, os.cpu_count() or 1)
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ParameterError(
            f"workers must be a positive integer, 0 or 'auto', got {workers!r}"
        )
    if workers < 1:
        raise ParameterError(f"workers must be at least 1, got {workers}")
    return workers


def _float_knob(value, env_name, *, name):
    """Resolve kwarg > environment for an optional positive float;
    None (or ``"none"``) when neither is set."""
    source = f"{name} keyword"
    if value is None:
        value = os.environ.get(env_name)
        if value is None:
            return None
        source = f"environment variable {env_name}"
    if isinstance(value, str) and value.strip().lower() in ("none", ""):
        return None
    try:
        result = float(value)
    except (TypeError, ValueError):
        raise ParameterError(
            f"{source} must be a number, got {value!r}"
        ) from None
    if not result > 0.0:  # also rejects NaN
        raise ParameterError(f"{source} must be > 0, got {result!r}")
    return result


def _int_knob(value, env_name, default, *, name):
    """Resolve kwarg > environment > default for a non-negative int."""
    source = f"{name} keyword"
    if value is None:
        raw = os.environ.get(env_name)
        if raw is None:
            return default
        source = f"environment variable {env_name}"
        value = raw
    if isinstance(value, bool):
        raise ParameterError(f"{source} must be an integer, got {value!r}")
    try:
        result = int(value)
    except (TypeError, ValueError):
        raise ParameterError(
            f"{source} must be an integer, got {value!r}"
        ) from None
    if result < 0:
        raise ParameterError(f"{source} must be >= 0, got {result}")
    return result


class ParallelExecutor:
    """Runs named tasks over payload lists, in-process or across a pool.

    Parameters
    ----------
    workers:
        Requested worker count (see :func:`resolve_workers`).
    graph:
        The host graph; workers rebuild it once at pool start.
    samples:
        Optional :class:`~repro.graphs.sampling.WorldSampleSet` to
        publish into shared memory for the workers. The executor keeps
        the parent copy pristine — it is the recovery source when a
        crashing worker corrupts the shared segment.
    oracle:
        Optional parent-side oracle for inline mode (warm cache). Can
        be attached later with :meth:`attach_oracle` when the oracle is
        created after the executor (the harness does this).
    task_timeout:
        Seconds one payload may run on a worker before that worker is
        killed and the payload charged a strike; ``None`` disables.
    task_cpu_timeout:
        Seconds a worker's self-reported CPU clock may stand still
        (while wall time advances) before the worker is presumed wedged
        and reclaimed; CPU progress extends the grace window, so a
        merely descheduled-but-busy worker survives. ``None`` disables.
        Environment fallback: ``REPRO_TASK_CPU_TIMEOUT``.
    max_task_retries:
        Strikes (crashes or timeouts) a payload survives before it is
        quarantined; default 2, i.e. three attempts total.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan`; its pool
        faults (``kill_worker``, ``hang_task``,
        ``corrupt_shared_segment``) are armed at pool start.

    Use as a context manager, or call :meth:`start`/:meth:`close`.
    ``pool_workers`` is 1 until a pool is actually live — callers gate
    "is parallelism real?" decisions on it, not on ``workers``.

    After any map, :attr:`quarantined` accumulates the
    :class:`~repro.parallel.supervisor.QuarantinedTask` records of every
    poison payload seen so far.
    """

    def __init__(self, workers, *, graph, samples=None, oracle=None,
                 task_timeout=None, task_cpu_timeout=None,
                 max_task_retries=None, faults=None):
        self.workers = resolve_workers(workers)
        self.pool_workers = 1
        #: Always None: no dispatch threshold is measured any more. Kept
        #: only because ``perfbench/tracer.py::_count_start`` reads it at
        #: every pool start.
        self.parallel_min_cells = None
        self.task_timeout = _float_knob(
            task_timeout, "REPRO_TASK_TIMEOUT", name="task_timeout",
        )
        self.task_cpu_timeout = _float_knob(
            task_cpu_timeout, "REPRO_TASK_CPU_TIMEOUT",
            name="task_cpu_timeout",
        )
        self.max_task_retries = _int_knob(
            max_task_retries, "REPRO_MAX_TASK_RETRIES", _MAX_TASK_RETRIES,
            name="max_task_retries",
        )
        self._graph = graph
        self._samples = samples
        self._oracle = oracle
        self._faults = faults
        self._pool = None
        self._shared = None
        self._cancel = None
        self._counters = None
        self._fault_state = None
        self._triples = None
        self._inline_state = None
        self._started = False
        self.quarantined = []

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ParallelExecutor":
        if self._started:
            return self
        self._started = True
        if self.workers > 1:
            try:
                ctx = mp.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                ctx = None
            if ctx is not None:
                try:
                    if self._samples is not None:
                        self._shared = SharedWorldSamples.publish(
                            self._samples
                        )
                    self._cancel = ctx.Event()
                    self._counters = {
                        phase: ctx.Value("q", 0) for phase in COUNTER_PHASES
                    }
                    self._triples = list(
                        self._graph.edges_with_probabilities()
                    )
                    if self._faults is not None and self._faults.pool_faults:
                        self._fault_state = PoolFaultState(
                            ctx, **self._faults.pool_faults
                        )
                    verify = rebuild = None
                    if self._shared is not None:
                        verify = self._verify_segment
                        rebuild = self._republish_segment
                    self._pool = SupervisedPool(
                        ctx, self.workers, self._worker_args,
                        cancel=self._cancel, counters=self._counters,
                        task_timeout=self.task_timeout,
                        task_cpu_timeout=self.task_cpu_timeout,
                        max_task_retries=self.max_task_retries,
                        verify_segment=verify, rebuild_segment=rebuild,
                    ).start()
                    self.pool_workers = self.workers
                except BaseException:
                    # Partial start must not leak the shared segment (or
                    # half a pool): tear down whatever got built.
                    self.close()
                    raise
        self._inline_state = WorkerState(
            self._graph, self._samples, oracle=self._oracle
        )
        return self

    def close(self) -> None:
        if self._pool is not None:
            self._last_pool_stats = dict(self._pool.stats)
            self._pool.close()
            self._pool = None
        if self._shared is not None:
            self._shared.close()
            self._shared = None
        self.pool_workers = 1

    def __enter__(self) -> "ParallelExecutor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- wiring ---------------------------------------------------------
    def _worker_args(self):
        """Current worker-init tuple; re-read at every (re)spawn so a
        re-published segment's new handle reaches replacement workers."""
        handle = self._shared.handle if self._shared is not None else None
        return (self._triples, handle, self._cancel, self._counters,
                self._fault_state)

    def _verify_segment(self) -> bool:
        return self._shared is None or self._shared.verify()

    def _republish_segment(self) -> None:
        if self._shared is not None and self._shared._shm is None:
            # A spilled publication is a read-only file mapping: workers
            # physically cannot scribble over it, and there is no
            # pristine RAM copy to republish from. A CRC mismatch here
            # means the spill file itself was damaged on disk.
            from repro.exceptions import WorkerPoolError

            raise WorkerPoolError(
                "spilled sample file failed its integrity check and "
                "cannot be re-published from memory"
            )
        old = self._shared
        self._shared = SharedWorldSamples.publish(self._samples)
        old.close()

    def supervision_stats(self) -> dict:
        """Lifetime supervision counters of this executor's pool.

        A copy of :attr:`SupervisedPool.stats <repro.parallel.supervisor
        .SupervisedPool.stats>` (``maps``, ``workers_respawned``,
        ``tasks_retried``, ``tasks_quarantined``) plus ``quarantined``,
        the number of poison payloads accumulated across maps. All
        zeros in inline mode. The last live pool's counters survive
        :meth:`close`, so the harness can fold them into its
        :class:`~repro.runtime.result.PartialResult` after teardown.
        """
        if self._pool is not None:
            stats = dict(self._pool.stats)
        else:
            stats = dict(getattr(self, "_last_pool_stats", None) or {
                "maps": 0, "workers_respawned": 0,
                "tasks_retried": 0, "tasks_quarantined": 0,
            })
        stats["quarantined"] = len(self.quarantined)
        return stats

    def worker_cpu_seconds(self) -> float:
        """Aggregate worker CPU time (0.0 inline or before first report).

        Fed to :class:`~repro.runtime.pressure.ResourceWatchdog` as its
        ``cpu_probe`` so resource-pressure samples can record how much
        CPU the pool is actually consuming.
        """
        return 0.0 if self._pool is None else self._pool.worker_cpu_seconds()

    @property
    def pool_pids(self) -> list[int]:
        """Live worker PIDs (empty in inline mode); tests kill these."""
        return [] if self._pool is None else self._pool.pids

    def attach_oracle(self, oracle) -> None:
        """Hand the parent-side oracle to inline mode (warm cache)."""
        self._oracle = oracle
        if self._inline_state is not None:
            self._inline_state.oracle = oracle

    def cache_component(self, edges, graph) -> None:
        """Let inline mode reuse an already-materialised component."""
        if self._inline_state is not None:
            self._inline_state.seed_component(
                tuple(map(tuple, edges)), graph
            )

    # -- dispatch -------------------------------------------------------
    def map(self, name: str, payloads, progress=None, *,
            on_quarantine: str = "raise") -> list:
        """Run task ``name`` over ``payloads``; results in payload order.

        Inline mode runs synchronously (hooks fire from inside the
        tasks, exactly as in the serial code). Pool mode dispatches
        through the supervised pool: worker crashes and timeouts are
        replayed transparently, and a payload that exhausts its retries
        is quarantined. With ``on_quarantine="raise"`` that surfaces a
        :class:`TaskQuarantinedError`; with ``"skip"`` the payload's
        result slot holds the :data:`QUARANTINED` sentinel and the
        caller degrades around it. Application exceptions (a task that
        *raised* rather than died) abort the rest and re-raise here,
        exactly like the serial loop.
        """
        if on_quarantine not in ("raise", "skip"):
            raise ParameterError(
                f"on_quarantine must be 'raise' or 'skip', "
                f"got {on_quarantine!r}"
            )
        payloads = list(payloads)
        if not payloads:
            return []
        if self._pool is None:
            state = self._inline_state
            state.progress = progress
            try:
                return [TASKS[name](state, p) for p in payloads]
            finally:
                state.progress = None
        self._maybe_corrupt_segment()
        results, quarantined = self._pool.map(name, payloads, progress)
        if quarantined:
            self.quarantined.extend(quarantined)
            if on_quarantine == "raise":
                raise TaskQuarantinedError(quarantined)
        return results

    def _maybe_corrupt_segment(self) -> None:
        """Arm the ``corrupt_shared_segment`` fault: scribble over the
        shared pages so the next recovery event's CRC check trips."""
        if (self._faults is None or self._shared is None
                or not self._faults.take_segment_corruption()):
            return
        rows, cols = self._shared.handle.packed_shape
        if rows * cols == 0 or self._shared._shm is None:
            return  # spilled sets are mapped read-only: nothing to scribble
        buf = self._shared._shm.buf
        buf[0] = buf[0] ^ 0xFF
