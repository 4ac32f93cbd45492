"""The supervised worker pool: crash recovery, timeouts, quarantine.

PR 2's executor dispatched through :class:`concurrent.futures.
ProcessPoolExecutor`, which treats any worker death — OOM kill, segfault
in a native extension, an operator's ``kill -9`` — as fatal: every
in-flight future fails with ``BrokenProcessPool`` and the whole run dies
with them. This module replaces that pool with one built for the
opposite assumption: workers *will* die, and the map must survive them.

Design
------
Each worker is an ``mp.Process`` (fork start method) with its own duplex
pipe; the parent therefore always knows exactly which payload a worker
is running and since when. That explicit assignment is what makes the
three supervision behaviours possible:

* **Crash recovery.** A dead worker (EOF on its pipe, or a failed
  liveness check) is reaped and replaced; only the single payload it was
  running is re-dispatched. Tasks are pure functions of
  ``(name, payload)`` with :class:`numpy.random.SeedSequence`-derived
  RNG, so the replay is byte-identical by construction. A buffered
  result found in the dead worker's pipe is salvaged first — a worker
  that died *after* answering costs nothing.
* **Per-task timeouts.** With ``task_timeout`` set, a worker that holds
  one payload longer than the limit is SIGKILLed and replaced, and the
  payload is charged a strike. (``concurrent.futures`` cannot do this:
  it neither knows which worker runs a task nor can it kill one without
  breaking the pool.)
* **Poison-task quarantine.** A payload that crashes its worker or
  times out more than ``max_task_retries`` times is quarantined instead
  of re-dispatched: its slot in the result list becomes the
  :data:`QUARANTINED` sentinel and a :class:`QuarantinedTask` record
  names it. The pool stays healthy and keeps serving later maps — never
  a hang, never a silent gap.

Shared-segment integrity: a crashing worker may scribble over the
shared-memory sample pages before dying, so every recovery event
re-verifies the segment's publish-time CRC (through a callback the
executor provides). On mismatch the segment is re-published from the
parent's pristine copy, every worker is restarted against the new
segment, and the current map is replayed from scratch — replay of pure
tasks is free of observable effects, so the output is still
byte-identical.

Supervision is reported through the ordinary progress-hook protocol as
``worker-died``, ``task-retried``, and ``task-quarantined`` events, so
budgets, interrupt guards, and fault plans observe recovery exactly like
any other batch boundary.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection

from repro.exceptions import WorkerPoolError
from repro.parallel.work import CANCELLED, TASKS, build_worker_state

__all__ = ["QUARANTINED", "QuarantinedTask", "SupervisedPool"]

#: Seconds between progress pumps while a map is in flight (also the
#: CPU reporter's cadence under ``task_cpu_timeout``).
_PUMP_INTERVAL = 0.05

#: Seconds an abort waits for workers to notice the cancel flag before
#: SIGKILLing them.
_ABORT_GRACE = 30.0

#: Minimum CPU-seconds advance that counts as progress between stall
#: checks — the reporter thread itself burns a few microseconds per
#: report, which must not keep a wedged worker alive forever.
_CPU_EPSILON = 0.02


class _Quarantined:
    """Singleton placeholder for a quarantined payload's result slot."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<QUARANTINED>"


#: Result-slot sentinel returned by ``map(..., on_quarantine="skip")``
#: for payloads that were quarantined. Parent-side only (never pickled).
QUARANTINED = _Quarantined()


def _describe_payload(payload) -> str:
    """A short, log-safe summary of a task payload."""
    text = repr(payload)
    if len(text) > 120:
        text = text[:117] + "..."
    return text


@dataclass
class QuarantinedTask:
    """One poison payload: what it was and why it was quarantined.

    ``fallback`` is filled in by callers that degrade around the gap
    (e.g. ``"gbu"`` when a quarantined GTD component was re-searched
    with the bottom-up heuristic).
    """

    name: str
    index: int
    attempts: int
    reasons: list = field(default_factory=list)
    payload_summary: str = ""
    fallback: str | None = None

    def to_dict(self) -> dict:
        return {
            "task": self.name,
            "payload_index": self.index,
            "attempts": self.attempts,
            "reasons": list(self.reasons),
            "payload": self.payload_summary,
            "fallback": self.fallback,
        }

    def describe(self) -> str:
        tail = f"; fallback={self.fallback}" if self.fallback else ""
        return (
            f"{self.name}[{self.index}] after {self.attempts} attempts "
            f"({'; '.join(self.reasons)}){tail}"
        )


class PoolFaultState:
    """Deterministic fault switches inherited by every worker (fork).

    Built by the executor from a :class:`repro.runtime.faults.FaultPlan`
    carrying pool faults. The ``Value`` tokens coordinate "fire at most
    N times" across worker processes.
    """

    __slots__ = ("kill_after", "kill_token", "hang_name", "hang_index",
                 "hang_limit", "hang_count", "spin_name", "spin_index",
                 "spin_seconds", "spin_limit", "spin_count")

    def __init__(self, ctx, *, kill_after=None, hang_name=None,
                 hang_index=None, hang_limit=None, spin_name=None,
                 spin_index=None, spin_seconds=None, spin_limit=None):
        self.kill_after = kill_after
        self.kill_token = ctx.Value("i", 0) if kill_after is not None else None
        self.hang_name = hang_name
        self.hang_index = hang_index
        self.hang_limit = hang_limit
        self.hang_count = ctx.Value("i", 0) if hang_name is not None else None
        self.spin_name = spin_name
        self.spin_index = spin_index
        self.spin_seconds = spin_seconds
        self.spin_limit = spin_limit
        self.spin_count = ctx.Value("i", 0) if spin_name is not None else None


def _maybe_inject_fault(fault: PoolFaultState | None, tasks_done: int,
                        name: str, index: int) -> None:
    """Worker-side: die or hang per the injected fault plan."""
    if fault is None:
        return
    if fault.kill_after is not None and tasks_done >= fault.kill_after:
        fire = False
        with fault.kill_token.get_lock():
            if fault.kill_token.value == 0:
                fault.kill_token.value = 1
                fire = True
        if fire:
            # A real, uncatchable death — exactly what an OOM kill or a
            # segfaulting native extension looks like from the parent.
            os.kill(os.getpid(), signal.SIGKILL)
    if fault.hang_name == name and (
            fault.hang_index is None or fault.hang_index == index):
        fire = False
        with fault.hang_count.get_lock():
            if (fault.hang_limit is None
                    or fault.hang_count.value < fault.hang_limit):
                fault.hang_count.value += 1
                fire = True
        if fire:
            while True:  # until the supervisor's timeout SIGKILLs us
                time.sleep(3600)
    if fault.spin_name == name and (
            fault.spin_index is None or fault.spin_index == index):
        fire = False
        with fault.spin_count.get_lock():
            if (fault.spin_limit is None
                    or fault.spin_count.value < fault.spin_limit):
                fault.spin_count.value += 1
                fire = True
        if fire:
            # Busy-burn CPU before running the task: wall clock and CPU
            # both advance, so a CPU-aware timeout must extend grace.
            deadline = time.monotonic() + fault.spin_seconds
            while time.monotonic() < deadline:
                sum(range(1000))


def _is_cpu_report(msg) -> bool:
    """True for a reporter-thread ``("cpu", seconds)`` side-channel tuple."""
    return isinstance(msg, tuple) and len(msg) == 2 and msg[0] == "cpu"


def _sendable_exception(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives a pickle round trip, else a stand-in.

    Exceptions with non-trivial constructors can pickle but fail to
    *unpickle*; surfacing those as a worker "crash" would misclassify an
    application error as a pool failure and replay it forever.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    # repro: allow[EXC003] __reduce__ of arbitrary exceptions raises anything
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_cpu_seconds() -> float:
    """This worker's cumulative CPU time (self + reaped children)."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# repro: owned-by[cpu-reporter]
def _cpu_report_loop(conn, send_lock, interval: float) -> None:
    """Body of the reporter thread: periodic CPU sends until the pipe dies."""
    while True:
        time.sleep(interval)
        try:
            with send_lock:
                conn.send(("cpu", _worker_cpu_seconds()))
        except (BrokenPipeError, OSError, ValueError):
            return  # pipe gone: the worker is shutting down


def _start_cpu_reporter(conn, send_lock, interval: float):
    """Side-channel CPU self-reports over the worker's existing pipe.

    A daemon thread sends ``("cpu", seconds)`` every ``interval``
    seconds. It keeps running even while the main thread is wedged in a
    hung task (``time.sleep`` and long numpy kernels release the GIL),
    which is the whole point: the parent sees wall clock advancing with
    CPU standing still — a stall — versus CPU advancing — a busy worker
    on an oversubscribed machine that deserves more grace.
    """
    import threading

    thread = threading.Thread(
        target=_cpu_report_loop, args=(conn, send_lock, interval),
        daemon=True, name="repro-cpu-report",
    )
    thread.start()
    return thread


# repro: owned-by[pool-worker]
def _worker_main(worker_id: int, conn, edge_triples, handle, cancel,
                 counters, fault: PoolFaultState | None,
                 cpu_interval: float | None = None) -> None:
    """The worker process loop: build state once, then serve tasks.

    SIGINT and SIGTERM are ignored — the parent handles Ctrl-C and
    orchestrator shutdowns, writes its checkpoint, and winds the pool
    down; a worker dying mid-task to the same signal would turn a clean
    resumable exit into a replay.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    import threading

    send_lock = threading.Lock()  # results and CPU reports share the pipe
    if cpu_interval is not None:
        _start_cpu_reporter(conn, send_lock, cpu_interval)
    state = build_worker_state(edge_triples, handle, cancel, counters)
    tasks_done = 0
    from repro.parallel.work import _WorkerCancelled

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        epoch, index, name, payload = msg
        _maybe_inject_fault(fault, tasks_done, name, index)
        try:
            ok, value = True, TASKS[name](state, payload)
        except _WorkerCancelled:
            ok, value = True, CANCELLED
        # repro: allow[EXC003] the task boundary: any failure must cross
        except BaseException as exc:
            ok, value = False, _sendable_exception(exc)
        try:
            with send_lock:
                conn.send((epoch, index, ok, value))
        except (BrokenPipeError, OSError):
            break
        # repro: allow[EXC003] pickling a task result can raise anything
        except Exception as exc:  # result failed to pickle
            try:
                with send_lock:
                    conn.send((epoch, index, False, RuntimeError(
                        f"task {name!r} produced an unpicklable "
                        f"result/exception: {exc}"
                    )))
            # repro: allow[EXC003] pipe unusable; parent reaps us via EOF
            except Exception:
                break
        tasks_done += 1
    conn.close()


class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = ("id", "proc", "conn", "current", "started_at", "served",
                 "cpu_seen", "cpu_mark", "stall_since")

    def __init__(self, wid, proc, conn):
        self.id = wid
        self.proc = proc
        self.conn = conn
        self.current: int | None = None  # payload index in flight
        self.started_at: float | None = None
        self.served = 0
        self.cpu_seen: float | None = None  # latest CPU self-report
        self.cpu_mark: float | None = None  # CPU at last observed progress
        self.stall_since: float | None = None  # wall time CPU stopped moving


class SupervisedPool:
    """A crash-tolerant process pool with explicit task assignment.

    Parameters
    ----------
    ctx:
        A ``fork`` multiprocessing context.
    workers:
        Number of worker processes to keep alive.
    make_worker_args:
        Callable returning the current ``(edge_triples, handle, cancel,
        counters, fault_state)`` tuple for a fresh worker — consulted at
        every (re)spawn so a re-published segment reaches replacements.
    cancel / counters:
        The shared cancel flag and progress counters (also passed to
        workers through ``make_worker_args``).
    task_timeout / max_task_retries:
        Supervision knobs; ``task_timeout=None`` disables timeouts.
    task_cpu_timeout:
        CPU-time stall limit: a worker whose self-reported CPU clock
        stands still for this many wall seconds while it holds a task is
        presumed wedged and reclaimed (kill, strike, respawn) — while a
        worker whose CPU keeps advancing gets its grace extended, so a
        busy task on an oversubscribed machine is not misclassified as
        hung. ``None`` disables CPU supervision (and its reporter
        thread).
    verify_segment / rebuild_segment:
        Optional shared-segment CRC check and re-publisher, called on
        every recovery event (see module docstring).
    """

    def __init__(self, ctx, workers: int, make_worker_args, *, cancel,
                 counters, task_timeout=None, task_cpu_timeout=None,
                 max_task_retries=2, verify_segment=None,
                 rebuild_segment=None):
        self._ctx = ctx
        self._n_workers = workers
        self._make_worker_args = make_worker_args
        self._cancel = cancel
        self._counters = counters or {}
        self._task_timeout = task_timeout
        self._task_cpu_timeout = task_cpu_timeout
        self._max_task_retries = max_task_retries
        self._verify_segment = verify_segment
        self._rebuild_segment = rebuild_segment
        self._workers: dict[int, _Worker] = {}
        self._next_id = 0
        self._epoch = 0
        self._consecutive_deaths = 0
        self._closed = False
        #: Lifetime supervision counters, monotone across maps — the
        #: query service reports these per build and aggregates them in
        #: its health endpoint. Keys: ``maps``, ``workers_respawned``
        #: (crash, timeout, and CPU-stall recoveries alike),
        #: ``tasks_retried``, ``tasks_quarantined``.
        self.stats: dict[str, int] = {
            "maps": 0,
            "workers_respawned": 0,
            "tasks_retried": 0,
            "tasks_quarantined": 0,
        }

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "SupervisedPool":
        for _ in range(self._n_workers):
            self._spawn()
        return self

    @property
    def pids(self) -> list[int]:
        """PIDs of the live worker processes (tests kill these)."""
        return [w.proc.pid for w in self._workers.values()]

    def _spawn(self) -> _Worker:
        wid = self._next_id
        self._next_id += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        args = self._make_worker_args()
        cpu_interval = (_PUMP_INTERVAL
                        if self._task_cpu_timeout is not None else None)
        proc = self._ctx.Process(
            target=_worker_main, args=(wid, child_conn, *args, cpu_interval),
            daemon=True, name=f"repro-worker-{wid}",
        )
        proc.start()
        child_conn.close()
        worker = _Worker(wid, proc, parent_conn)
        self._workers[wid] = worker
        return worker

    def _kill(self, worker: _Worker) -> None:
        """SIGKILL a worker and reap it; its pipe is discarded."""
        try:
            if worker.proc.pid is not None and worker.proc.is_alive():
                os.kill(worker.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, OSError):  # pragma: no cover - raced
            pass
        worker.proc.join(timeout=5.0)
        self._discard(worker)

    def _discard(self, worker: _Worker) -> None:
        self._workers.pop(worker.id, None)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if not worker.proc.is_alive():
            worker.proc.join(timeout=1.0)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 5.0
        for worker in list(self._workers.values()):
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():
                self._kill(worker)
            else:
                self._discard(worker)
        self._workers.clear()

    # -- the supervised map --------------------------------------------
    def map(self, name: str, payloads: list, progress=None):
        """Run ``name`` over ``payloads``; returns ``(results, quarantined)``.

        ``results`` is in payload order with :data:`QUARANTINED`
        sentinels in the slots of quarantined payloads; ``quarantined``
        lists their :class:`QuarantinedTask` records in index order.
        The first *application* exception (a task that raised, rather
        than a worker that died) aborts the rest and re-raises here,
        exactly like the serial loop.
        """
        self._epoch += 1
        self.stats["maps"] += 1
        epoch = self._epoch
        n = len(payloads)
        results: dict[int, object] = {}
        attempts: dict[int, int] = {}
        reasons: dict[int, list] = {}
        quarantined: dict[int, QuarantinedTask] = {}
        pending = deque(range(n))
        last_counts: dict[str, int] = {}
        last_pump = time.monotonic()
        heartbeat = 0

        def emit(phase: str, step: int, detail: dict) -> None:
            if progress is None:
                return
            from repro.runtime.progress import ProgressEvent

            progress(ProgressEvent(phase, step=step, detail=detail))

        def strike(index: int, reason: str) -> None:
            attempts[index] = attempts.get(index, 0) + 1
            reasons.setdefault(index, []).append(reason)
            if attempts[index] > self._max_task_retries:
                record = QuarantinedTask(
                    name=name, index=index, attempts=attempts[index],
                    reasons=list(reasons[index]),
                    payload_summary=_describe_payload(payloads[index]),
                )
                quarantined[index] = record
                self.stats["tasks_quarantined"] += 1
                emit("task-quarantined", len(quarantined), {
                    "task": name, "payload_index": index,
                    "attempts": attempts[index], "reason": reason,
                })
            else:
                pending.appendleft(index)
                self.stats["tasks_retried"] += 1
                emit("task-retried", attempts[index], {
                    "task": name, "payload_index": index,
                    "reason": reason,
                })

        def salvage(worker: _Worker) -> None:
            """Drain a complete buffered answer out of a dying worker."""
            try:
                while worker.conn.poll():
                    self._on_message(worker, worker.conn.recv(), epoch,
                                     results, quarantined)
            # repro: allow[EXC003] salvage is best-effort over a dying pipe
            except Exception:
                pass  # partial write / EOF: nothing to salvage

        def replay_whole_map() -> None:
            """Segment was re-published: every completed result of this
            map may derive from corrupt bits — recompute all of them."""
            for other in list(self._workers.values()):
                self._kill(other)
            results.clear()
            pending.clear()
            pending.extend(i for i in range(n) if i not in quarantined)
            while len(self._workers) < self._n_workers:
                self._spawn()

        def recover(worker: _Worker, reason: str, *,
                    salvageable: bool = True) -> None:
            """Shared crash/timeout path: reap, verify, strike, respawn."""
            if salvageable:
                salvage(worker)
            index = worker.current
            exitcode = worker.proc.exitcode
            self._discard(worker)
            self._consecutive_deaths += 1
            if self._consecutive_deaths > max(8, 3 * self._n_workers):
                raise WorkerPoolError(
                    f"worker pool is not making progress: "
                    f"{self._consecutive_deaths} consecutive worker "
                    f"deaths without a completed task (last: {reason})"
                )
            self.stats["workers_respawned"] += 1
            emit("worker-died", self._consecutive_deaths, {
                "task": name, "reason": reason, "exitcode": exitcode,
                "payload_index": index,
            })
            segment_ok = (self._verify_segment is None
                          or self._verify_segment())
            if index is not None and index not in results:
                if segment_ok:
                    strike(index, reason)
                elif index not in quarantined:
                    # Casualty of the rebuild below, not a poison task.
                    pending.append(index)
            if not segment_ok:
                self._rebuild_segment()
                replay_whole_map()
            else:
                self._spawn()

        def dispatch() -> None:
            for worker in list(self._workers.values()):
                if not pending:
                    return
                if worker.current is not None:
                    continue
                index = pending.popleft()
                try:
                    worker.conn.send((epoch, index, name, payloads[index]))
                except (BrokenPipeError, OSError):
                    pending.appendleft(index)
                    recover(worker, "worker died before dispatch")
                    continue
                worker.current = index
                worker.started_at = time.monotonic()
                worker.cpu_mark = worker.cpu_seen
                worker.stall_since = None

        def collect() -> None:
            conns = {w.conn: w for w in self._workers.values()}
            ready = connection.wait(list(conns), timeout=_PUMP_INTERVAL)
            for conn in ready:
                worker = conns[conn]
                if worker.id not in self._workers:
                    continue  # discarded by an earlier recovery this round
                try:
                    while worker.conn.poll():
                        self._on_message(worker, worker.conn.recv(), epoch,
                                         results, quarantined, pending)
                except (EOFError, OSError, pickle.UnpicklingError) as err:
                    recover(
                        worker,
                        f"worker crashed "
                        f"(exit {worker.proc.exitcode}, {type(err).__name__})",
                        salvageable=False,
                    )

        def reap() -> None:
            for worker in list(self._workers.values()):
                if not worker.proc.is_alive():
                    recover(worker,
                            f"worker died (exit {worker.proc.exitcode})")

        def check_timeouts() -> None:
            if self._task_timeout is None and self._task_cpu_timeout is None:
                return
            now = time.monotonic()
            for worker in list(self._workers.values()):
                if worker.current is None or worker.started_at is None:
                    continue
                verdict = None
                if (self._task_timeout is not None
                        and now - worker.started_at > self._task_timeout):
                    verdict = f"timed out after {self._task_timeout:.3g}s"
                elif self._task_cpu_timeout is not None:
                    seen = worker.cpu_seen
                    if seen is not None and (
                            seen > (worker.cpu_mark or 0.0) + _CPU_EPSILON):
                        # CPU advanced since we last looked: the task is
                        # busy (perhaps descheduled, not wedged) — extend
                        # its grace window instead of killing it.
                        worker.cpu_mark = seen
                        worker.stall_since = now
                    elif (now - (worker.stall_since or worker.started_at)
                            > self._task_cpu_timeout):
                        verdict = (
                            f"CPU stalled: no CPU progress in "
                            f"{self._task_cpu_timeout:.3g}s of wall time"
                        )
                if verdict is None:
                    continue
                index = worker.current
                self._kill(worker)
                self._consecutive_deaths = 0  # intentional, not a crash
                self.stats["workers_respawned"] += 1
                emit("worker-died", 0, {
                    "task": name, "reason": "task timeout",
                    "payload_index": index,
                })
                if index not in results:
                    strike(index, verdict)
                segment_ok = (self._verify_segment is None
                              or self._verify_segment())
                if not segment_ok:
                    self._rebuild_segment()
                    replay_whole_map()
                else:
                    self._spawn()

        def pump() -> None:
            nonlocal last_pump, heartbeat
            now = time.monotonic()
            if progress is None or now - last_pump < _PUMP_INTERVAL:
                return
            last_pump = now
            from repro.runtime.progress import ProgressEvent

            moved = False
            for phase, counter in self._counters.items():
                value = counter.value
                if value != last_counts.get(phase, 0):
                    last_counts[phase] = value
                    moved = True
                    progress(ProgressEvent(phase, step=value))
            if not moved:
                heartbeat += 1
                progress(ProgressEvent("parallel-heartbeat", step=heartbeat))

        try:
            while len(results) + len(quarantined) < n:
                dispatch()
                collect()
                reap()
                check_timeouts()
                pump()
        except BaseException:
            self.abort()
            raise
        return (
            [results.get(i, QUARANTINED) for i in range(n)],
            [quarantined[i] for i in sorted(quarantined)],
        )

    def _on_message(self, worker: _Worker, msg, epoch: int,
                    results: dict, quarantined: dict,
                    pending: deque | None = None) -> None:
        if _is_cpu_report(msg):
            worker.cpu_seen = float(msg[1])
            return
        m_epoch, index, ok, value = msg
        if m_epoch != epoch:
            return  # stale answer from an aborted map
        if worker.current == index:
            worker.current = None
            worker.started_at = None
        worker.served += 1
        self._consecutive_deaths = 0
        if not ok:
            raise value
        if value is CANCELLED:
            # A cancel leaked through (flag cleared while the task was
            # finishing); the payload was never evaluated — requeue it
            # without a strike.
            if (pending is not None and index not in results
                    and index not in quarantined):
                pending.append(index)
            return
        if index not in results and index not in quarantined:
            results[index] = value

    def worker_cpu_seconds(self) -> float:
        """Total CPU-seconds self-reported by the live workers.

        Zero until the first reports arrive (or with CPU supervision
        off); a freshly respawned worker restarts its own clock, so the
        total is a floor, not an exact account across recoveries.
        """
        return sum(w.cpu_seen or 0.0 for w in self._workers.values())

    # -- abort ----------------------------------------------------------
    def abort(self) -> None:
        """Flag running work, wait out the grace period, kill stragglers.

        The cancel flag is cleared afterwards so the pool stays usable —
        the harness reuses one executor across stages (and across the
        GTD-to-GBU fallback) after catching the raised exception.
        """
        if self._cancel is not None:
            self._cancel.set()
        deadline = time.monotonic() + _ABORT_GRACE
        while (any(w.current is not None for w in self._workers.values())
               and time.monotonic() < deadline):
            conns = {w.conn: w for w in self._workers.values()
                     if w.current is not None}
            ready = connection.wait(list(conns), timeout=0.05)
            for conn in ready:
                worker = conns[conn]
                try:
                    while worker.conn.poll():
                        if _is_cpu_report(worker.conn.recv()):
                            continue  # side-channel, not the task's answer
                        worker.current = None
                        worker.started_at = None
                except (EOFError, OSError, pickle.UnpicklingError):
                    self._discard(worker)
                    self._spawn()
            for worker in list(self._workers.values()):
                if not worker.proc.is_alive():
                    self._discard(worker)
                    self._spawn()
        for worker in list(self._workers.values()):
            if worker.current is not None:
                self._kill(worker)
                self._spawn()
        if self._cancel is not None:
            self._cancel.clear()
