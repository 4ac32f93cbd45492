"""Deterministic fault injection for exercising every recovery path.

A :class:`FaultPlan` schedules an exception for the first time a given
``(phase, step)`` boundary is reached — simulated SIGINT
(:class:`~repro.exceptions.ComputationInterrupted`), simulated OOM
(:class:`MemoryError`), or any caller-supplied exception. A run takes
its plan as ``faults=`` and chains :meth:`FaultPlan.check` right after
its ``progress`` hook, so the plan sees every event that hook sees.
Because faults key on the same batch boundaries the checkpoints use,
tests can kill a run at *every* boundary and assert that resuming
reproduces the uninterrupted output byte for byte. The ``*_on_phase``
variants fire on the first event of a phase regardless of step — handy
for supervision phases (``worker-died``, ``task-quarantined``) whose
step numbering depends on recovery order.

A plan can also carry *pool faults*, which do not raise in the parent
but sabotage the worker pool itself: :meth:`kill_worker` makes one
worker SIGKILL itself mid-run (a real, uncatchable death),
:meth:`hang_task` makes a matching task sleep forever (so only the
supervision timeout can reclaim it), and :meth:`corrupt_shared_segment`
scribbles over the shared sample pages so crash recovery must detect
the CRC mismatch and re-publish. The executor consumes these at pool
start; fork inheritance carries the shared fire-once tokens into every
worker.

:func:`corrupt_checkpoint` damages an on-disk checkpoint in controlled
ways so the :class:`~repro.exceptions.CheckpointError` paths are
testable too.
"""

from __future__ import annotations

import errno
import os
from pathlib import Path

from repro.exceptions import (
    BudgetExceededError,
    CheckpointError,
    ComputationInterrupted,
)
from repro.runtime.progress import ProgressEvent

__all__ = ["FaultPlan", "corrupt_checkpoint"]


class FaultPlan:
    """A schedule of deterministic faults keyed by ``(phase, step)``.

    Each fault fires at most once; ``fired`` records what actually
    triggered so tests can assert the plan was exercised.
    """

    def __init__(self):
        self._faults: dict[tuple[str, int], Exception | type] = {}
        self._phase_faults: dict[str, Exception | type] = {}
        self.fired: list[tuple[str, int]] = []
        #: Pool-fault spec consumed by the executor at pool start
        #: (keyword arguments of ``PoolFaultState``), or None.
        self.pool_faults: dict | None = None
        self._corrupt_segment = False
        self._disk_faults = 0
        #: Service-side fault tokens consumed by the ``repro serve``
        #: HTTP layer: kind -> remaining fire count (plus
        #: ``slow_client_seconds`` for the stall duration).
        self.service_faults: dict = {}

    def raise_at(self, phase: str, step: int,
                 exc: Exception | type) -> "FaultPlan":
        """Schedule ``exc`` (instance or class) at ``(phase, step)``."""
        self._faults[(phase, step)] = exc
        return self

    def sigint_at(self, phase: str, step: int) -> "FaultPlan":
        """Simulate a SIGINT delivered at ``(phase, step)``."""
        return self.raise_at(
            phase, step,
            ComputationInterrupted(
                f"simulated SIGINT at {phase} step {step}"
            ),
        )

    def oom_at(self, phase: str, step: int) -> "FaultPlan":
        """Simulate an out-of-memory condition at ``(phase, step)``."""
        return self.raise_at(
            phase, step,
            MemoryError(f"simulated OOM at {phase} step {step}"),
        )

    def memory_pressure(self, phase: str, step: int) -> "FaultPlan":
        """Simulate a memory-budget breach at ``(phase, step)``.

        Raises the same :class:`BudgetExceededError` (``resource ==
        "memory"``) a real :class:`~repro.runtime.Budget` produces when
        peak RSS crosses its limit, so the harness's spill to disk is
        exercised without actually allocating gigabytes.
        """
        err = BudgetExceededError(
            "memory", 0, 1,
            message=f"injected memory pressure at {phase} step {step}",
        )
        return self.raise_at(phase, step, err)

    def raise_on_phase(self, phase: str,
                       exc: Exception | type) -> "FaultPlan":
        """Schedule ``exc`` for the first event of ``phase``, any step."""
        self._phase_faults[phase] = exc
        return self

    def sigint_on_phase(self, phase: str) -> "FaultPlan":
        """Simulate a SIGINT at the first event of ``phase``, any step."""
        return self.raise_on_phase(
            phase,
            ComputationInterrupted(f"simulated SIGINT at {phase}"),
        )

    # -- pool faults (consumed by the executor, fire inside workers) ----
    def kill_worker(self, after_tasks: int = 0) -> "FaultPlan":
        """Make one worker SIGKILL itself once it has completed
        ``after_tasks`` tasks and receives the next one.

        Exactly one worker fires (a shared token coordinates the pool),
        so the run loses one in-flight payload — which supervision must
        replay byte-identically.
        """
        self.pool_faults = dict(self.pool_faults or {},
                                kill_after=int(after_tasks))
        return self

    def hang_task(self, matching: str, payload_index: int | None = None,
                  times: int = 1) -> "FaultPlan":
        """Make task ``matching`` (optionally only payload
        ``payload_index``) sleep forever, ``times`` times.

        Only a supervision ``task_timeout`` can reclaim the worker;
        with ``times`` greater than ``max_task_retries`` the payload
        ends up quarantined.
        """
        self.pool_faults = dict(
            self.pool_faults or {},
            hang_name=str(matching),
            hang_index=None if payload_index is None else int(payload_index),
            hang_limit=None if times is None else int(times),
        )
        return self

    def stall_task_cpu(self, matching: str, payload_index: int | None = None,
                       times: int = 1) -> "FaultPlan":
        """Make task ``matching`` wedge with *zero* CPU progress.

        A wedged task is exactly a hang: wall clock advances, CPU does
        not — the signature the supervisor's ``task_cpu_timeout``
        distinguishes from a merely descheduled-but-busy worker (see
        :meth:`spin_task` for that opposite case).
        """
        return self.hang_task(matching, payload_index, times)

    def spin_task(self, matching: str, seconds: float,
                  payload_index: int | None = None,
                  times: int = 1) -> "FaultPlan":
        """Make task ``matching`` burn CPU for ``seconds`` before running.

        Wall clock *and* CPU advance, so a ``task_cpu_timeout`` must
        keep extending the worker's grace instead of killing it — the
        oversubscribed-machine case a pure wall-clock timeout
        misclassifies.
        """
        self.pool_faults = dict(
            self.pool_faults or {},
            spin_name=str(matching),
            spin_index=None if payload_index is None else int(payload_index),
            spin_seconds=float(seconds),
            spin_limit=None if times is None else int(times),
        )
        return self

    def exhaust_disk(self, times: int = 1) -> "FaultPlan":
        """Make the next ``times`` checkpoint writes fail with ENOSPC.

        The harness arms :attr:`CheckpointStore.write_fault` with
        :meth:`take_disk_fault`, so the injected failure travels the
        exact path a real full disk does: torn temp file unlinked,
        :class:`~repro.exceptions.CheckpointWriteError` raised,
        computation continuing with checkpointing disabled.
        """
        self._disk_faults = int(times)
        return self

    def take_disk_fault(self) -> OSError | None:
        """Store-side: consume one scheduled disk fault, or None.

        Returns a *constructed* ``ENOSPC`` :class:`OSError` (the write
        path raises it mid-write, inside its own ``except OSError``
        conversion) rather than raising here.
        """
        if self._disk_faults <= 0:
            return None
        self._disk_faults -= 1
        self.fired.append(("exhaust-disk", self._disk_faults))
        return OSError(
            errno.ENOSPC, "injected disk exhaustion (fault plan)"
        )

    # -- service faults (consumed by the ``repro serve`` HTTP layer) ----
    def drop_connection(self, times: int = 1) -> "FaultPlan":
        """Abruptly close the next ``times`` client connections just
        before the response bytes would be written.

        The client observes a reset/empty reply — exactly what a
        crashed proxy or a yanked network cable produces — and the
        chaos battery asserts the server itself stays healthy: the
        admission slot is released, the trace records the request, and
        the next request on a fresh connection succeeds.
        """
        self.service_faults["drop_connection"] = (
            self.service_faults.get("drop_connection", 0) + int(times)
        )
        return self

    def slow_client(self, seconds: float, times: int = 1) -> "FaultPlan":
        """Stall the response write of the next ``times`` requests for
        ``seconds``, simulating a client that stops draining its socket.

        The stalled request holds its admission slot the whole time, so
        this is also how tests fill the in-flight limit
        deterministically and prove load shedding (typed 503 +
        ``Retry-After``) for the requests behind it.
        """
        self.service_faults["slow_client"] = (
            self.service_faults.get("slow_client", 0) + int(times)
        )
        self.service_faults["slow_client_seconds"] = float(seconds)
        return self

    def refuse_accept(self, times: int = 1) -> "FaultPlan":
        """Refuse the next ``times`` incoming connections at accept
        time (the server closes them without reading the request).

        Models accept-queue exhaustion; the server emits a
        ``service-shed`` event per refusal and keeps serving later
        connections normally.
        """
        self.service_faults["refuse_accept"] = (
            self.service_faults.get("refuse_accept", 0) + int(times)
        )
        return self

    def take_service_fault(self, kind: str) -> float | None:
        """Server-side: consume one scheduled service fault of ``kind``.

        Returns None when no fault of that kind is pending; otherwise
        records the firing and returns the stall duration for
        ``slow_client`` (0.0 for the other kinds).
        """
        remaining = self.service_faults.get(kind, 0)
        if remaining <= 0:
            return None
        self.service_faults[kind] = remaining - 1
        self.fired.append((kind, remaining - 1))
        if kind == "slow_client":
            return float(self.service_faults.get("slow_client_seconds", 0.0))
        return 0.0

    def corrupt_shared_segment(self) -> "FaultPlan":
        """Scribble over the shared sample segment at the next pool map.

        Harmless on its own until a recovery event (pair it with
        :meth:`kill_worker`): the supervisor's CRC check then detects
        the damage, re-publishes from the parent's pristine copy, and
        replays the map.
        """
        self._corrupt_segment = True
        return self

    def take_segment_corruption(self) -> bool:
        """Executor-side: consume the one-shot corruption fault."""
        if not self._corrupt_segment:
            return False
        self._corrupt_segment = False
        self.fired.append(("corrupt-shared-segment", 0))
        return True

    def check(self, event: ProgressEvent) -> None:
        """Fire (once) the fault scheduled for this boundary, if any."""
        exc = self._phase_faults.pop(event.phase, None)
        key = (event.phase, event.step)
        if exc is None:
            exc = self._faults.pop(key, None)
        if exc is None:
            return
        self.fired.append(key)
        if isinstance(exc, type):
            raise exc(f"injected fault at {key[0]} step {key[1]}")
        raise exc


def corrupt_checkpoint(directory, target: str = "manifest",
                       mode: str = "garbage") -> Path:
    """Deterministically damage a checkpoint; returns the damaged file.

    ``target`` is ``"manifest"`` or a file-name prefix (e.g.
    ``"samples"`` picks the first sample batch); ``mode`` is
    ``"garbage"`` (overwrite with non-JSON/non-npz bytes) or
    ``"truncate"`` (cut the file in half, as a crash mid-write would).
    """
    directory = Path(directory)
    if target == "manifest":
        victim = directory / "manifest.json"
    else:
        matches = sorted(directory.glob(f"{target}*"))
        if not matches:
            raise CheckpointError(
                f"no checkpoint file matching {target!r} in {directory}"
            )
        victim = matches[0]
    if not victim.exists():
        raise CheckpointError(f"checkpoint file {victim} does not exist")
    if mode == "garbage":
        victim.write_bytes(b"\x00corrupt\xff" * 4)
    elif mode == "truncate":
        size = victim.stat().st_size
        with open(victim, "rb+") as handle:
            handle.truncate(size // 2)
        os.utime(victim)
    else:
        raise CheckpointError(f"unknown corruption mode {mode!r}")
    return victim
