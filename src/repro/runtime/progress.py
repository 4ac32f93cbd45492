"""The progress-hook protocol shared by all long-running computations.

A *progress hook* is any callable taking a single :class:`ProgressEvent`.
The sampling engine, the nucleus peeling loop, both global searches, and
the Monte-Carlo oracle call their hook at natural batch boundaries; a
hook observes progress and may *abort* the computation by raising —
typically :class:`~repro.exceptions.BudgetExceededError` (from a
:class:`~repro.runtime.budget.Budget`) or
:class:`~repro.exceptions.ComputationInterrupted` (from an
:class:`~repro.runtime.interrupts.InterruptGuard` or an injected fault).

Emitted phases
--------------
==================  =====================================================
``sample-batch``    one batch of possible worlds drawn (``step`` = batch
                    index; ``detail["samples_drawn"]`` = cumulative N')
``global-level``    Algorithm 3 is starting level k (``step`` = k)
``global-level-done``  level k finished; ``detail["trusses"]`` holds the
                    maximal trusses found at k (``step`` = k)
``gtd-state``       Algorithm 4 tested another frontier candidate
                    (``step`` = its index within the frontier shard)
``gtd-frontier``    Algorithm 4 merged one sharded peel round
                    (``step`` = round index); ``detail``
                    carries the complete mid-peel snapshot — level
                    ``k``, component index, next round, answers found,
                    outstanding frontier and visited states — which the
                    harness checkpoints so kill/resume lands on a round
                    boundary
``gbu-seed``        Algorithm 5 is processing seed ``step`` of ``total``
``oracle-eval``     the Monte-Carlo oracle classified another block of
                    candidate evaluations
``reliability-batch``  one batch of reliability samples classified
``reliability-rows``  (workers only) cumulative reliability sample rows
                    classified inside the pool, re-emitted by the pump
``parallel-heartbeat``  the worker pool is alive but no counter moved
                    during one pump interval (``step`` = heartbeat
                    count); lets deadline budgets fire while workers
                    grind on a long task
``worker-died``     supervision replaced a crashed or timed-out worker
                    (``detail``: task, reason, exitcode, payload_index)
``task-retried``    a payload whose worker died/timed out was requeued
                    (``step`` = that payload's attempt count so far)
``task-quarantined``  a payload exhausted ``max_task_retries`` and was
                    quarantined (``step`` = quarantine count this map;
                    ``detail``: task, payload_index, attempts, reason)
``nucleus-peel``    a block of r-cliques peeled by the probabilistic
                    (r, s)-nucleus engine — Algorithm 1's edges when
                    r = 2 (``step`` = cliques scored so far, ``total``
                    = r-clique count)
``resource-pressure``  a resource probe crossed a pressure threshold or
                    a pressure response fired (``detail``: resource —
                    ``memory``/``disk``/``cpu`` —, action, observed
                    bytes/seconds); emitted by the
                    :class:`~repro.runtime.pressure.ResourceWatchdog`
                    and by the harness when the sample matrix spills
                    to disk
``checkpoint-degraded``  an atomic checkpoint write failed at the OS
                    level (ENOSPC, quota, ...); the run continues with
                    checkpointing disabled (``detail``:
                    checkpoint_error, path)
``service-request``  (``repro serve`` only) an admitted query began
                    processing (``detail``: endpoint, request id,
                    deadline)
``service-response``  a query's response was written (``detail``:
                    endpoint, status, elapsed, degraded)
``service-shed``    admission control refused a request — queue full,
                    in-flight limit not acquired before the deadline,
                    watchdog pressure, or an injected accept refusal
                    (``detail``: endpoint, reason, retry_after)
``service-degraded``  a degraded payload was served: a deadline-capped
                    partial, or the last-good cached index under an
                    open circuit breaker (``detail``: endpoint, reason)
``service-build``   a background index build changed state (``detail``:
                    key token, action — queued/started/finished/
                    failed/interrupted —, and for failures the reason)
``service-breaker``  an index's circuit breaker transitioned
                    (``detail``: key token, state — open/half-open/
                    closed —, failures, retry_after)
``service-drain``   graceful shutdown progress (``detail``: action —
                    begin/idle/done —, in-flight count, signal)
==================  =====================================================

Checkpoints are written *before* the hook runs at each boundary, so a
hook that raises never loses the batch it was notified about.

With ``workers=N`` the in-worker phases (``oracle-eval``, ``gtd-state``,
``reliability-rows``) are counted in shared counters and re-emitted by
the parent's pump thread as *coalesced* events: ``step`` then carries
the counter delta since the previous pump rather than a per-call index.
Hooks that only rate-limit or abort (budgets, interrupt guards) are
unaffected; hooks that assume ``step`` is a dense sequence should treat
parallel runs as sampled.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

__all__ = ["KNOWN_PHASES", "ProgressEvent", "ProgressHook", "chain_hooks"]

#: The machine-readable progress-event vocabulary — the single source of
#: truth behind the docstring table above. ``reprolint``'s EVT rules
#: check every emitted phase literal against this set (and that every
#: entry here still has an emitter), and ``tests/test_reprolint.py``
#: asserts the table and this registry agree. Adding a phase means
#: adding it in both places.
KNOWN_PHASES = frozenset({
    "sample-batch",
    "nucleus-peel",
    "global-level",
    "global-level-done",
    "gtd-state",
    "gtd-frontier",
    "gbu-seed",
    "oracle-eval",
    "reliability-batch",
    "reliability-rows",
    "parallel-heartbeat",
    "worker-died",
    "task-retried",
    "task-quarantined",
    "resource-pressure",
    "checkpoint-degraded",
    "service-request",
    "service-response",
    "service-shed",
    "service-degraded",
    "service-build",
    "service-breaker",
    "service-drain",
})

#: Debug-mode event validation, read once at import: with ``REPRO_DEBUG``
#: set (to anything non-empty) every constructed event must carry a
#: registered phase. Off by default — the hot loops construct events at
#: batch boundaries and production hooks must accept forward-compatible
#: phases from newer emitters.
_VALIDATE_PHASES = bool(os.environ.get("REPRO_DEBUG"))


@dataclass(frozen=True)
class ProgressEvent:
    """One batch-boundary notification from a long-running computation.

    Attributes
    ----------
    phase:
        Which loop emitted the event (see the module table).
    step:
        Monotone position within the phase (batch index, k level, ...).
    total:
        Known endpoint of ``step``, or None when open-ended.
    detail:
        Phase-specific payload (e.g. ``samples_drawn``, ``k``,
        ``trusses``).
    """

    phase: str
    step: int
    total: int | None = None
    detail: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if _VALIDATE_PHASES and self.phase not in KNOWN_PHASES:
            from repro.exceptions import ParameterError

            raise ParameterError(
                f"unknown progress phase {self.phase!r}; registered "
                f"phases are {', '.join(sorted(KNOWN_PHASES))} "
                "(REPRO_DEBUG validation)"
            )


ProgressHook = Callable[[ProgressEvent], None]


def chain_hooks(*hooks: ProgressHook | None) -> ProgressHook | None:
    """Compose hooks left-to-right into one; None entries are skipped.

    Returns None when no hook remains, so callers can pass the result
    straight to a ``progress=`` parameter.
    """
    live = [h for h in hooks if h is not None]
    if not live:
        return None
    if len(live) == 1:
        return live[0]

    def chained(event: ProgressEvent) -> None:
        for hook in live:
            hook(event)

    return chained
