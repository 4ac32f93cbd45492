"""The resilient execution harness: budgeted, checkpointed, degradable.

This module wraps the paper's three expensive computations —
Monte-Carlo possible-world sampling, the global decompositions (GTD /
GBU), and network reliability estimation — with:

* **cooperative budgets** — a :class:`~repro.runtime.budget.Budget` is
  checked at every batch boundary via the progress-hook protocol;
* **deterministic checkpoint/resume** — sample batches, per-k truss
  levels, and RNG states are snapshotted through a
  :class:`~repro.runtime.checkpoint.CheckpointStore` *before* hooks can
  abort, so a killed run resumes bit-identically from the last boundary;
* **graceful degradation** — on budget breach the harness returns a
  :class:`~repro.runtime.result.PartialResult` instead of raising:
  truncated sampling widens epsilon per the Hoeffding rule, GTD falls
  back to GBU when its soft share of the deadline runs out, and an
  exhausted run reports every fully-completed truss level.

Only a cooperative *interrupt* (SIGINT, real or injected) escapes as an
exception — :class:`~repro.exceptions.ComputationInterrupted`, carrying
the checkpoint path — because an interrupted run has no result to hand
back, only a snapshot to resume from.
"""

from __future__ import annotations

import zlib
from dataclasses import replace

import numpy as np

from repro.core.global_decomp import (
    GlobalTrussResult,
    global_truss_decomposition,
)
from repro.core.local import LocalTrussResult, local_truss_decomposition
from repro.core.nucleus import NucleusResult, nucleus_decomposition
from repro.exceptions import (
    BudgetExceededError,
    CheckpointError,
    CheckpointWriteError,
    ComputationInterrupted,
    DecompositionError,
    ParameterError,
    TaskQuarantinedError,
)
from repro.graphs.probabilistic import ProbabilisticGraph
from repro.graphs.sampling import (
    SampleBatcher,
    hoeffding_epsilon,
    hoeffding_sample_size,
)
from repro.runtime.budget import Budget
from repro.runtime.checkpoint import CheckpointStore, decode_node, encode_node
from repro.runtime.progress import ProgressEvent, chain_hooks
from repro.runtime.result import PartialResult
from repro.runtime.spill import SpillDirectory

__all__ = ["run_global", "run_local", "run_nucleus", "run_reliability",
           "DEFAULT_BATCH_SIZE"]

#: Sampling batch rows between checkpoint/budget boundaries. 25 rows
#: keeps the overshoot of a cooperative deadline under a fraction of a
#: second on the bundled datasets while amortising the npz write cost.
DEFAULT_BATCH_SIZE = 25

#: Fraction of the remaining deadline the exact GTD search may spend
#: before the harness degrades to the GBU heuristic.
DEFAULT_GTD_FRACTION = 0.5


def _graph_fingerprint(graph: ProbabilisticGraph) -> dict:
    """A cheap, order-independent identity of a graph for checkpoints."""
    crc = 0
    for triple in sorted(
        (str(u), str(v), repr(float(p)))
        for u, v, p in graph.edges_with_probabilities()
    ):
        crc = zlib.crc32("|".join(triple).encode("utf-8"), crc)
    return {
        "nodes": graph.number_of_nodes(),
        "edges": graph.number_of_edges(),
        "crc": crc,
    }


def _require_plain_seed(seed, checkpointing: bool):
    if checkpointing and seed is not None and not isinstance(seed, int):
        raise CheckpointError(
            "checkpointed runs need a reproducible seed: pass an int (or "
            "None), not a Generator instance"
        )
    return seed


class _Degradations:
    """Accumulates degradation reasons applied during one run."""

    def __init__(self):
        self.reasons: list[str] = []
        self.fallback: str | None = None

    def note(self, reason: str) -> None:
        self.reasons.append(reason)

    @property
    def degraded(self) -> bool:
        return bool(self.reasons) or self.fallback is not None

    @property
    def reason(self) -> str | None:
        return "; ".join(self.reasons) if self.reasons else None


def _resume_or_clear(store: CheckpointStore, params: dict,
                     on_corrupt: str) -> dict | None:
    """Load a resumable manifest, honouring the corruption policy."""
    if not store.exists():
        return None
    try:
        return store.load_manifest(expect_params=params)
    except CheckpointError:
        if on_corrupt == "restart":
            store.clear()
            return None
        raise


def _attach_checkpoint(err: ComputationInterrupted,
                       store: CheckpointStore | None) -> None:
    if store is not None and err.checkpoint_path is None:
        err.checkpoint_path = str(store.path)


class _DegradableStore:
    """A checkpoint store whose *writes* degrade instead of failing.

    The first :class:`~repro.exceptions.CheckpointWriteError` (a full
    disk, a torn atomic write) disables checkpointing for the rest of
    the run: the error is recorded as a degradation reason, a
    ``checkpoint-degraded`` event is emitted through the user's progress
    hooks, and every later write becomes a no-op — the computation keeps
    going and still produces its result, it just loses resumability.
    Reads are never degraded: a corrupt *existing* checkpoint still
    raises, because silently ignoring one would resume the wrong run.
    """

    def __init__(self, store: CheckpointStore, note, progress):
        self._store = store
        self._note = note
        self._progress = progress
        self.degraded = False
        self.write_error: CheckpointWriteError | None = None

    def __getattr__(self, name):
        # Reads, paths, clears, GC: straight through to the real store.
        return getattr(self._store, name)

    def _disable(self, err: CheckpointWriteError) -> None:
        self.degraded = True
        self.write_error = err
        self._note(
            f"checkpoint write failed ({err}); checkpointing disabled "
            "for the rest of the run"
        )
        if self._progress is not None:
            self._progress(ProgressEvent(
                "checkpoint-degraded", step=0,
                detail={"checkpoint_error": str(err), "path": err.path},
            ))

    def _write(self, method, *args) -> None:
        if self.degraded:
            return
        try:
            getattr(self._store, method)(*args)
        except CheckpointWriteError as err:
            self._disable(err)

    def save_manifest(self, manifest: dict) -> None:
        self._write("save_manifest", manifest)

    def save_sample_batch(self, index: int, presence) -> None:
        self._write("save_sample_batch", index, presence)

    def save_level(self, k: int, trusses) -> None:
        self._write("save_level", k, trusses)

    def save_frontier(self, detail) -> None:
        self._write("save_frontier", detail)


def _wrap_store(store: CheckpointStore | None, note,
                progress) -> _DegradableStore | None:
    """Wrap a store (arming any injected disk faults) or pass None."""
    if store is None:
        return None
    plan = _disk_faults_of(progress)
    if plan is not None:
        store.write_fault = plan.take_disk_fault
    return _DegradableStore(store, note, progress)


def _disk_faults_of(progress):
    """Extract a FaultPlan with armed disk faults from a progress hook.

    Mirrors :func:`_pool_faults_of`: a FaultPlan carrying
    ``exhaust_disk`` faults is found anywhere in the (possibly chained)
    progress hook and handed to the checkpoint store as its
    ``write_fault`` supplier.
    """
    if progress is None:
        return None
    if getattr(progress, "_disk_faults", 0) > 0:
        return progress
    for sub in getattr(progress, "hooks", ()):  # chain_hooks composition
        found = _disk_faults_of(sub)
        if found is not None:
            return found
    return None


def _pool_faults_of(progress):
    """Extract a FaultPlan carrying pool faults from a progress hook.

    A :class:`~repro.runtime.faults.FaultPlan` doubles as a progress
    hook; when one with armed pool faults (``kill_worker`` etc.) is
    passed as ``progress``, the harness hands it to the executor so the
    faults reach the worker pool.
    """
    if progress is None:
        return None
    if (getattr(progress, "pool_faults", None) is not None
            or getattr(progress, "_corrupt_segment", False)):
        return progress
    for sub in getattr(progress, "hooks", ()):  # chain_hooks composition
        found = _pool_faults_of(sub)
        if found is not None:
            return found
    return None


def _quarantine_report(executor) -> tuple[list, int]:
    """The quarantine records and worst-case sample-row loss so far."""
    if executor is None:
        return [], 0
    return (
        list(getattr(executor, "quarantined", [])),
        int(getattr(executor, "sample_rows_lost", 0)),
    )


# ----------------------------------------------------------------------
# Global decomposition
# ----------------------------------------------------------------------
def run_global(
    graph: ProbabilisticGraph,
    gamma: float,
    *,
    epsilon: float = 0.1,
    delta: float = 0.1,
    method: str = "gbu",
    seed: int | None = None,
    n_samples: int | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    max_k: int | None = None,
    max_states: int | None = None,
    budget: Budget | None = None,
    checkpoint_dir=None,
    resume: bool = False,
    progress=None,
    gtd_fraction: float = DEFAULT_GTD_FRACTION,
    on_corrupt: str = "raise",
    workers: int | str | None = None,
    task_timeout: float | None = None,
    task_cpu_timeout: float | None = None,
    max_task_retries: int | None = None,
    on_memory_pressure: str = "spill",
    spill_dir=None,
) -> PartialResult:
    """Run a global (k, gamma)-truss decomposition under the harness.

    Parameters mirror
    :func:`~repro.core.global_decomp.global_truss_decomposition`, plus:

    budget:
        Cooperative limits; breaching them degrades the run instead of
        raising (see module docstring).
    workers:
        One :class:`~repro.parallel.ParallelExecutor` (created after
        sampling, over the shared sample set; inline when ``workers`` is
        None or 1) is threaded through the local pruning and the k loop.
        GBU always draws from per-seed RNG streams rooted at the int
        ``seed``, so results are byte-identical for every ``workers``
        value, including None; a resumed run may change ``workers``
        freely. Checkpointed runs therefore require an int seed (a None
        seed's stream root cannot be re-derived on resume).
    task_timeout / max_task_retries:
        Supervision knobs forwarded to the executor: seconds one payload
        may hold a worker before it is killed and retried, and how many
        strikes (crashes or timeouts) a payload survives before being
        quarantined. Quarantines degrade honestly — the result notes
        every poison payload, oracle evaluations that lost sample rows
        widen the effective epsilon, and a quarantined GTD component
        falls back to GBU for that component only.
    checkpoint_dir / resume:
        Snapshot directory; with ``resume`` an existing compatible
        checkpoint is continued bit-identically.
    progress:
        Extra hook chained before the budget (fault plans and interrupt
        guards go here).
    gtd_fraction:
        Share of the remaining deadline GTD may spend before degrading
        to GBU.
    on_corrupt:
        ``"raise"`` (default) surfaces a corrupt checkpoint as
        :class:`CheckpointError`; ``"restart"`` clears it and starts
        fresh.
    on_memory_pressure / spill_dir:
        Policy for a *memory*-budget breach during sampling.
        ``"spill"`` (default) bit-packs the batches drawn so far, keeps
        sampling, and moves the finished packed matrix into a read-only
        ``np.memmap`` file under ``spill_dir`` (a private temp directory
        when None) — output stays byte-identical for every worker
        count, so this is reported as a ``resource-pressure`` event, not
        a degradation. ``"abort"`` restores the old behaviour: stop
        sampling early and degrade via the widened Hoeffding epsilon.
    task_cpu_timeout:
        CPU-stall supervision (see
        :class:`~repro.parallel.ParallelExecutor`): a worker whose CPU
        clock stands still this many wall seconds is presumed wedged
        and reclaimed; CPU progress extends its grace.

    Returns
    -------
    PartialResult
        With ``result`` a :class:`GlobalTrussResult` over every
        completed level (possibly empty), never an exception for budget
        breaches.
    """
    store = CheckpointStore(checkpoint_dir) if checkpoint_dir else None
    seed = _require_plain_seed(seed, store is not None)
    if store is not None and seed is None:
        raise CheckpointError(
            "checkpointed global runs need an int seed: the per-seed "
            "RNG streams are rooted at it, and a root derived from a "
            "None seed cannot be re-derived on resume"
        )
    n_requested = (
        n_samples if n_samples is not None
        else hoeffding_sample_size(epsilon, delta)
    )
    params = {
        "kind": "global",
        "gamma": gamma,
        "epsilon": epsilon,
        "delta": delta,
        "method": method,
        "seed": seed,
        "n_samples": n_requested,
        "batch_size": batch_size,
        "max_k": max_k,
        "max_states": max_states,
        "graph": _graph_fingerprint(graph),
        # One determinism family: serial GBU uses the same per-seed RNG
        # streams the parallel mode fans out, so results are
        # byte-identical for workers in {None, 1, 2, 4, ...}. The worker
        # *count* is deliberately absent — any count resumes any
        # compatible run. (Pre-unification "sequential" checkpoints are
        # a different family and correctly refuse to resume.)
        "rng_scheme": "per-seed",
    }
    if on_memory_pressure not in ("abort", "spill"):
        raise ParameterError(
            f"on_memory_pressure must be 'abort' or 'spill', "
            f"got {on_memory_pressure!r}"
        )
    degr = _Degradations()
    store = _wrap_store(store, degr.note, progress)
    if budget is not None:
        budget.start()
    hook = chain_hooks(progress, budget)

    rng = np.random.default_rng(seed)
    batcher = SampleBatcher(graph, n_requested, batch_size, seed=rng)

    completed: dict[int, list[ProbabilisticGraph]] = {}
    decomp_finished = False
    sampling_stopped_early: str | None = None
    manifest = None
    if store is not None and resume:
        manifest = _resume_or_clear(store, params, on_corrupt)
    if manifest is not None:
        sampling_state = manifest["sampling"]
        for index in range(sampling_state["batches_drawn"]):
            batcher.load_batch(store.load_sample_batch(index))
        sampling_stopped_early = sampling_state.get("stopped_early")
        if sampling_stopped_early:
            degr.note(sampling_stopped_early)
        rng.bit_generator.state = manifest["rng_state"]
        decomp_state = manifest.get("decomp") or {}
        for k in decomp_state.get("levels", []):
            completed[int(k)] = [
                graph.edge_subgraph(truss_edges)
                for truss_edges in store.load_level(int(k))
            ]
        decomp_finished = bool(decomp_state.get("finished"))
        if decomp_state.get("fallback"):
            degr.fallback = decomp_state["fallback"]

    # Mid-peel GTD snapshot (sharded frontier rounds): resume continues
    # the interrupted level from its last round boundary instead of
    # restarting it. Only meaningful while the run is still on the exact
    # search — a recorded GTD->GBU fallback supersedes it.
    frontier_state = None
    if manifest is not None and method == "gtd" and degr.fallback is None:
        try:
            frontier_state = store.load_frontier()
        except CheckpointError:
            if on_corrupt != "restart":
                raise
            store.clear_frontier()

    # Mutable decomposition state shared with the compute stages (which
    # run in a helper function): the manifest writer must observe method
    # fallbacks and completion as they happen.
    state = {
        "method": method if degr.fallback is None else "gbu",
        "finished": decomp_finished,
    }

    def write_manifest(status: str = "in-progress") -> None:
        if store is None:
            return
        store.save_manifest({
            "params": params,
            "rng_state": rng.bit_generator.state,
            "sampling": {
                "n_target": n_requested,
                "batch_size": batch_size,
                "batches_drawn": batcher.batches_drawn,
                "samples_drawn": batcher.samples_drawn,
                "stopped_early": sampling_stopped_early,
            },
            "decomp": {
                "levels": sorted(completed),
                "finished": state["finished"],
                "method": state["method"],
                "fallback": degr.fallback,
            },
            "status": status,
        })

    # Filled in once the executor exists (after sampling); `finish`
    # reads it to fold quarantine degradation into the result. The
    # spill block below records where the samples went, if anywhere.
    supervision = {"executor": None}
    spill_info: dict = {}

    def finish(result, complete: bool) -> PartialResult:
        quarantined, rows_lost = _quarantine_report(supervision["executor"])
        # The worst single oracle evaluation bounds the accuracy claim:
        # it classified only N - rows_lost samples, so epsilon widens to
        # that effective sample count, exactly like truncated sampling.
        eff_n = max(batcher.samples_drawn - rows_lost, 1)
        eff_eps = (
            epsilon if eff_n >= n_requested
            else hoeffding_epsilon(eff_n, delta)
        )
        reasons = list(degr.reasons)
        if quarantined:
            reasons.append(
                f"{len(quarantined)} parallel payload(s) quarantined: "
                + "; ".join(q.describe() for q in quarantined)
            )
        if rows_lost:
            reasons.append(
                f"worst oracle evaluation lost {rows_lost} sample rows "
                "to quarantined blocks; epsilon widened to the "
                f"{eff_n}-sample Hoeffding bound"
            )
        detail = {}
        if quarantined:
            detail["quarantined"] = [q.to_dict() for q in quarantined]
        if supervision["executor"] is not None:
            detail["supervision"] = (
                supervision["executor"].supervision_stats()
            )
        detail.update(spill_info)
        if complete and store is not None and not store.degraded:
            # The run is done: stale mid-peel snapshots, torn temp
            # files, and out-of-range sample batches are dead weight.
            store.collect_garbage(batches_drawn=batcher.batches_drawn)
        return PartialResult(
            kind="global",
            result=result,
            complete=complete,
            degraded=degr.degraded or bool(quarantined),
            reason="; ".join(reasons) if reasons else None,
            fallback=degr.fallback,
            requested_epsilon=epsilon,
            effective_epsilon=eff_eps,
            n_samples_requested=n_requested,
            n_samples_drawn=batcher.samples_drawn,
            completed_k=max(completed, default=None),
            checkpoint_path=str(store.path) if store else None,
            elapsed_seconds=budget.elapsed() if budget else None,
            detail=detail,
        )

    # -- stage 1: sampling --------------------------------------------
    spill_pending = False
    while (batcher.batches_drawn < batcher.n_batches
           and not sampling_stopped_early):
        index = batcher.batches_drawn
        try:
            presence = batcher.draw_next()
        except MemoryError:
            sampling_stopped_early = (
                f"out of memory drawing sample batch {index}"
            )
            degr.note(sampling_stopped_early)
            break
        if store is not None:
            store.save_sample_batch(index, presence)
            write_manifest()
        if hook is None:
            continue
        try:
            hook(ProgressEvent(
                "sample-batch", step=index, total=batcher.n_batches,
                detail={"samples_drawn": batcher.samples_drawn},
            ))
        except BudgetExceededError as err:
            if (err.resource == "memory" and on_memory_pressure == "spill"
                    and not spill_pending):
                # Memory pressure under the spill policy: bit-pack the
                # batches already drawn (8x smaller in place), lift the
                # memory limit — peak RSS is monotone, so the tripped
                # probe would re-fire forever — and finish sampling;
                # the packed matrix moves to a read-only memmap below.
                # Output is byte-identical, so this is *not* degraded.
                batcher.compact()
                if err.budget is not None:
                    err.budget.max_memory_bytes = None
                spill_pending = True
                continue
            sampling_stopped_early = str(err)
            degr.note(sampling_stopped_early)
            write_manifest()
            break
        except MemoryError as err:
            sampling_stopped_early = f"out of memory after batch {index}: {err}"
            degr.note(sampling_stopped_early)
            write_manifest()
            break
        except ComputationInterrupted as err:
            _attach_checkpoint(err, store)
            raise

    if batcher.samples_drawn == 0:
        write_manifest()
        return finish(None, complete=False)
    world_set = batcher.result(partial_ok=True)
    n_drawn = batcher.samples_drawn
    effective_epsilon = (
        epsilon if n_drawn >= n_requested
        else hoeffding_epsilon(n_drawn, delta)
    )

    # The executor (and its shared-memory sample segment) lives for the
    # compute stages only; the sampling stage above is sequential-RNG
    # and stays out of it by design. A spilled sample set's memmap file
    # (and its directory, when privately created) lives exactly as long.
    executor = None
    spill_store = None
    try:
        if spill_pending:
            spill_store = SpillDirectory(spill_dir)
            spilled_path = world_set.spill_to(
                spill_store.allocate("samples.bits")
            )
            if spilled_path is not None:
                spill_info["spilled_to"] = str(spilled_path)
            if spilled_path is not None and progress is not None:
                try:
                    progress(ProgressEvent(
                        "resource-pressure", step=0, detail={
                            "resource": "memory", "action": "spill",
                            "path": str(spilled_path),
                            "bytes": int(world_set.packed_bits.nbytes),
                            "free_bytes": spill_store.free_bytes(),
                        },
                    ))
                except ComputationInterrupted as err:
                    _attach_checkpoint(err, store)
                    raise
        from repro.parallel import ParallelExecutor

        # None means serial: the inline executor (0 would mean "auto").
        executor = ParallelExecutor(
            1 if workers is None else workers, graph=graph,
            samples=world_set, task_timeout=task_timeout,
            task_cpu_timeout=task_cpu_timeout,
            max_task_retries=max_task_retries,
            faults=_pool_faults_of(progress),
        ).start()
        supervision["executor"] = executor
        return _run_global_compute(
            graph, gamma, delta, seed, max_k, max_states, budget, store,
            progress, gtd_fraction, degr, hook, rng, completed, state,
            write_manifest, finish,
            effective_epsilon=effective_epsilon, n_drawn=n_drawn,
            world_set=world_set, executor=executor,
            frontier_state=frontier_state,
        )
    finally:
        if executor is not None:
            executor.close()
        if spill_store is not None:
            spill_store.cleanup()


def _run_global_compute(
    graph, gamma, delta, seed, max_k, max_states, budget, store,
    progress, gtd_fraction, degr, hook, rng, completed, state,
    write_manifest, finish, *,
    effective_epsilon, n_drawn, world_set, executor,
    frontier_state=None,
):
    """Stages 2-3 of :func:`run_global` (split out for executor scoping).

    ``state`` is the mutable ``{"method", "finished"}`` dict shared with
    the caller's manifest writer. ``frontier_state`` is an optional
    mid-peel GTD snapshot restored from the checkpoint; it is consumed
    by the first (and only the first) GTD stage.
    """
    # -- stage 2: local pruning (Eq. 11 candidate generation) ---------
    try:
        local_result = local_truss_decomposition(graph, gamma, progress=hook)
    except BudgetExceededError as err:
        degr.note(f"budget exhausted during local pruning: {err}")
        write_manifest()
        return finish(None, complete=False)
    except MemoryError as err:
        degr.note(f"out of memory during local pruning: {err}")
        write_manifest()
        return finish(None, complete=False)
    except ComputationInterrupted as err:
        _attach_checkpoint(err, store)
        raise

    # -- stage 3: the k loop ------------------------------------------
    def level_checkpoint(event: ProgressEvent) -> None:
        if event.phase == "gtd-frontier":
            # Mid-peel round boundary: snapshot before any other hook
            # (fault plan, budget) can abort, so a kill here resumes
            # from this exact round.
            if store is not None:
                store.save_frontier(event.detail)
            return
        if event.phase != "global-level-done":
            return
        k = event.detail["k"]
        completed[k] = list(event.detail["trusses"])
        if store is not None:
            store.save_level(k, completed[k])
            # The finished level supersedes any mid-peel snapshot.
            store.clear_frontier()
            write_manifest()

    def build_result() -> GlobalTrussResult:
        return GlobalTrussResult(
            graph=graph, gamma=gamma, epsilon=effective_epsilon,
            delta=delta, n_samples=n_drawn, method=state["method"],
            trusses={k: list(v) for k, v in sorted(completed.items())},
        )

    if state["finished"]:
        return finish(build_result(), complete=True)

    def run_stage(stage_method: str, extra_hook=None) -> GlobalTrussResult:
        stage_hook = chain_hooks(level_checkpoint, progress, budget,
                                 extra_hook)
        return global_truss_decomposition(
            graph, gamma, epsilon=effective_epsilon, delta=delta,
            method=stage_method, seed=rng, n_samples=n_drawn,
            local_result=local_result, samples=world_set, max_k=max_k,
            max_states=max_states, progress=stage_hook,
            start_k=max(completed, default=1) + 1,
            initial_trusses={k: list(v) for k, v in completed.items()},
            executor=executor,
            # Per-seed streams root at the int seed, so a resumed run
            # (and a GTD->GBU fallback stage) derives the exact same
            # streams regardless of where the main generator's state
            # was when the run was killed or degraded. A None seed
            # falls back to drawing the root from ``rng``, which is
            # fine: every checkpointed run requires an int seed.
            rng_root=seed,
            frontier_state=(frontier_state if stage_method == "gtd"
                            else None),
        )

    soft_budget = None
    if (state["method"] == "gtd" and budget is not None
            and budget.remaining() is not None):
        soft_budget = Budget(
            deadline=budget.remaining() * gtd_fraction,
            clock=budget._clock,
        ).start()

    try:
        try:
            result = run_stage(state["method"], extra_hook=soft_budget)
        except BudgetExceededError as err:
            if (soft_budget is not None and err.budget is soft_budget
                    and state["method"] == "gtd"):
                degr.fallback = "gtd->gbu"
                degr.note(
                    "exact top-down search exceeded its share of the "
                    f"deadline ({err}); degrading to the bottom-up heuristic"
                )
                state["method"] = "gbu"
                write_manifest()
                result = run_stage("gbu")
            else:
                raise
        except DecompositionError as err:
            if state["method"] == "gtd":
                degr.fallback = "gtd->gbu"
                degr.note(
                    f"exact top-down search gave up ({err}); degrading "
                    "to the bottom-up heuristic"
                )
                state["method"] = "gbu"
                write_manifest()
                result = run_stage("gbu")
            else:
                raise
    except BudgetExceededError as err:
        degr.note(f"budget exhausted during decomposition: {err}")
        write_manifest()
        return finish(build_result(), complete=False)
    except MemoryError as err:
        degr.note(f"out of memory during decomposition: {err}")
        write_manifest()
        return finish(build_result(), complete=False)
    except TaskQuarantinedError as err:
        # Degradable stages quarantine with the "skip" policy and never
        # raise; this is the backstop for a non-degradable map.
        degr.note(f"decomposition quarantined poison payloads: {err}")
        write_manifest()
        return finish(build_result(), complete=False)
    except ComputationInterrupted as err:
        _attach_checkpoint(err, store)
        write_manifest()
        raise

    state["finished"] = True
    write_manifest(status="complete")
    return finish(result, complete=True)


# ----------------------------------------------------------------------
# Peel decompositions: local truss and (r, s)-nucleus
# ----------------------------------------------------------------------
def run_local(
    graph: ProbabilisticGraph,
    gamma: float,
    *,
    method: str = "dp",
    budget: Budget | None = None,
    checkpoint_dir=None,
    resume: bool = False,
    progress=None,
    on_corrupt: str = "raise",
    workers: int | str | None = None,
) -> PartialResult:
    """Run a local decomposition under the harness.

    The local truss decomposition is the (2, 3) case of
    :func:`run_nucleus`, which does all the work — budgets, checkpoints
    (a (2, 3) manifest), salvage; this adapter only reports the scores
    as ``kind="local"``, a :class:`~repro.core.local.LocalTrussResult`,
    and ``edges_assigned``/``edges_total`` in ``detail``. ``workers``
    is validated and otherwise unused, as in :func:`run_nucleus`.
    """
    run = run_nucleus(
        graph, 2, 3, gamma, method=method, budget=budget,
        checkpoint_dir=checkpoint_dir, resume=resume, progress=progress,
        on_corrupt=on_corrupt, workers=workers,
    )
    assert isinstance(run.result, NucleusResult)
    trussness = run.result.scores
    return replace(
        run, kind="local",
        result=LocalTrussResult(graph=graph, gamma=gamma,
                                trussness=trussness, method=method),
        detail={"edges_assigned": len(trussness),
                "edges_total": graph.number_of_edges()},
    )


def run_nucleus(
    graph: ProbabilisticGraph,
    r: int,
    s: int,
    gamma: float,
    *,
    method: str = "dp",
    budget: Budget | None = None,
    checkpoint_dir=None,
    resume: bool = False,
    progress=None,
    on_corrupt: str = "raise",
    workers: int | str | None = None,
) -> PartialResult:
    """Run a probabilistic (r, s)-nucleus decomposition under the harness.

    Peeling is not internally resumable (retiring a clique mutates every
    neighbouring support PMF), so the checkpoint stores the *finished*
    score map: ``resume`` returns it instantly, and a budget breach
    salvages the scores assigned so far — which are final, since peeling
    emits them in nondecreasing order — as a degraded partial result.

    The whole run is serial and starts no worker pool: the initial
    support DPs are one batched dynamic program per apex count, cheaper
    than a pool start, and the peel is a sequential bucket-queue scan.
    A non-None ``workers`` is validated like everywhere else
    (:func:`~repro.parallel.resolve_workers`) and otherwise unused, so
    callers that pass one keep working.
    """
    if workers is not None:
        from repro.parallel import resolve_workers

        resolve_workers(workers)
    store = CheckpointStore(checkpoint_dir) if checkpoint_dir else None
    params = {
        "kind": "nucleus",
        "r": r,
        "s": s,
        "gamma": gamma,
        "method": method,
        "graph": _graph_fingerprint(graph),
        # Apex factors fold in natural node order. Manifests from runs
        # that folded them in another order ("adjacency": serial local
        # runs; "canonical": (type name, str) order) must not resume.
        "pmf_order": "natural",
    }
    degr = _Degradations()
    store = _wrap_store(store, degr.note, progress)
    if budget is not None:
        budget.start()
    hook = chain_hooks(progress, budget)

    def to_partial(scores, complete, reason=None):
        result = NucleusResult(
            graph=graph, r=r, s=s, gamma=gamma, scores=scores, method=method,
        )
        reasons = [x for x in (reason, degr.reason) if x]
        reason = "; ".join(reasons) if reasons else None
        return PartialResult(
            kind="nucleus", result=result, complete=complete,
            degraded=reason is not None, reason=reason,
            checkpoint_path=str(store.path) if store else None,
            elapsed_seconds=budget.elapsed() if budget else None,
            detail={"r": r, "s": s, "cliques_assigned": len(scores)},
        )

    if store is not None and resume:
        manifest = _resume_or_clear(store, params, on_corrupt)
        if manifest is not None and manifest.get("status") == "complete":
            scores = {
                tuple(decode_node(x) for x in row[:-1]): int(row[-1])
                for row in manifest["scores"]
            }
            return to_partial(scores, complete=True)

    try:
        result = nucleus_decomposition(graph, r, s, gamma, method=method,
                                       progress=hook)
    except BudgetExceededError as err:
        partial = err.partial or {}
        return to_partial(
            dict(partial), complete=False,
            reason=f"{err}; {len(partial)} cliques scored",
        )
    except MemoryError as err:
        partial = getattr(err, "partial", None) or {}
        return to_partial(
            dict(partial), complete=False,
            reason=f"out of memory during peeling: {err}",
        )
    except ComputationInterrupted as err:
        _attach_checkpoint(err, store)
        raise

    if store is not None:
        store.save_manifest({
            "params": params,
            "status": "complete",
            "scores": sorted(
                [encode_node(x) for x in cell] + [nu]
                for cell, nu in result.scores.items()
            ),
        })
        if not store.degraded:
            store.collect_garbage()
    return to_partial(result.scores, complete=True)


# ----------------------------------------------------------------------
# Network reliability
# ----------------------------------------------------------------------
def run_reliability(
    graph: ProbabilisticGraph,
    *,
    n_samples: int = 1000,
    delta: float = 0.05,
    seed: int | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE * 4,
    budget: Budget | None = None,
    checkpoint_dir=None,
    resume: bool = False,
    progress=None,
    on_corrupt: str = "raise",
    workers: int | str | None = None,
    task_timeout: float | None = None,
    task_cpu_timeout: float | None = None,
    max_task_retries: int | None = None,
) -> PartialResult:
    """Estimate network reliability under the harness.

    Fully resumable: only the running hit count, batch index, and RNG
    state need snapshotting, so checkpoints are tiny. A budget breach
    returns the estimate over the samples drawn so far with the
    honestly widened epsilon for the given ``delta``.

    Every batch is classified by the ``reliability-block`` task. With
    ``workers`` > 1 the pool takes windows of ``2 * workers`` batches;
    ``workers=None`` runs the same task on an inline executor, one batch
    per window. The RNG *draws* stay strictly sequential in the parent,
    so the sample stream, and hence the estimate, is byte-identical for
    every worker count (checkpoints are interchangeable between all of
    them). Hit counts are additive over disjoint batches, so merge order
    cannot matter. The parent captures the RNG state before each draw,
    so a budget breach or interrupt mid-window still writes a
    per-batch-accurate checkpoint. A quarantined batch (supervision gave
    up on it) is dropped from both numerator and denominator — the
    estimate stays unbiased over the rows actually classified and
    epsilon widens accordingly.
    """
    store = CheckpointStore(checkpoint_dir) if checkpoint_dir else None
    seed = _require_plain_seed(seed, store is not None)
    params = {
        "kind": "reliability",
        "n_samples": n_samples,
        "batch_size": batch_size,
        "seed": seed,
        "delta": delta,
        "graph": _graph_fingerprint(graph),
    }
    degr = _Degradations()
    store = _wrap_store(store, degr.note, progress)
    if budget is not None:
        budget.start()
    hook = chain_hooks(progress, budget)

    rng = np.random.default_rng(seed)
    batcher = SampleBatcher(graph, n_samples, batch_size, seed=rng)
    edges = batcher.edges
    hits = 0
    batches_done = 0
    rows_skipped = 0

    manifest = None
    if store is not None and resume:
        manifest = _resume_or_clear(store, params, on_corrupt)
    if manifest is not None:
        hits = int(manifest["hits"])
        batches_done = int(manifest["batches_done"])
        samples_done = int(manifest["samples_done"])
        rng.bit_generator.state = manifest["rng_state"]
    else:
        samples_done = 0

    def write_manifest(status: str = "in-progress") -> None:
        if store is None:
            return
        store.save_manifest({
            "params": params,
            "hits": hits,
            "batches_done": batches_done,
            "samples_done": samples_done,
            "rng_state": rng.bit_generator.state,
            "status": status,
        })

    def finish(complete: bool) -> PartialResult:
        estimate = hits / samples_done if samples_done else None
        quarantined, _ = _quarantine_report(executor)
        detail = {"hits": hits}
        if quarantined:
            detail["quarantined"] = [q.to_dict() for q in quarantined]
            detail["rows_skipped"] = rows_skipped
        return PartialResult(
            kind="reliability", result=estimate, complete=complete,
            degraded=degr.degraded, reason=degr.reason,
            effective_epsilon=(
                hoeffding_epsilon(samples_done, delta) if samples_done else None
            ),
            requested_epsilon=hoeffding_epsilon(n_samples, delta),
            n_samples_requested=n_samples,
            n_samples_drawn=samples_done,
            checkpoint_path=str(store.path) if store else None,
            elapsed_seconds=budget.elapsed() if budget else None,
            detail=detail,
        )

    from repro.parallel import ParallelExecutor
    from repro.parallel.supervisor import QUARANTINED

    # None means serial: the inline executor (0 would mean "auto").
    executor = ParallelExecutor(
        1 if workers is None else workers, graph=graph,
        task_timeout=task_timeout, task_cpu_timeout=task_cpu_timeout,
        max_task_retries=max_task_retries,
        faults=_pool_faults_of(progress),
    ).start()
    nodes = list(graph.nodes())
    # Inline there is nothing to overlap: one batch per window keeps the
    # budget check between every two draws.
    window = 1 if executor.pool_workers == 1 else 2 * executor.pool_workers
    try:
        while batches_done < batcher.n_batches:
            first = batches_done
            limit = min(batcher.n_batches, first + window)
            # Draw the whole window sequentially in the parent — the RNG
            # stream is identical for every worker count — capturing the
            # state before each batch so the per-batch manifests below
            # stay resume-accurate mid-window.
            states = []
            rows_list = []
            payloads = []
            for j in range(first, limit):
                states.append(batcher.rng_state())
                rows = batcher.batch_rows(j)
                rows_list.append(rows)
                payloads.append((nodes, edges, batcher.draw_presence(rows)))
            end_state = batcher.rng_state()
            try:
                counts = executor.map(
                    "reliability-block", payloads, progress=hook,
                    on_quarantine="skip",
                )
            except MemoryError as err:
                # Nothing from this window was merged; rewind the RNG so
                # the manifest matches `batches_done` drawn batches.
                batcher.set_rng_state(states[0])
                degr.note(
                    f"out of memory classifying batch {first}: {err}"
                )
                write_manifest()
                return finish(complete=False)

            # Merge strictly in batch order: manifests and hook events
            # fire per batch, whatever the window.
            for offset, count in enumerate(counts):
                j = first + offset
                rows = rows_list[offset]
                after = (states[offset + 1] if offset + 1 < len(states)
                         else end_state)
                if count is QUARANTINED:
                    rows_skipped += rows
                    degr.note(
                        f"reliability batch {j} quarantined after "
                        f"repeated worker failures; {rows} rows dropped "
                        "from the estimate"
                    )
                else:
                    hits += count
                    samples_done += rows
                batches_done += 1
                batcher.set_rng_state(after)
                write_manifest()
                if hook is None:
                    continue
                try:
                    hook(ProgressEvent(
                        "reliability-batch", step=j,
                        total=batcher.n_batches,
                        detail={"samples_drawn": samples_done},
                    ))
                except BudgetExceededError as err:
                    degr.note(str(err))
                    write_manifest()
                    return finish(complete=False)
                except MemoryError as err:
                    degr.note(f"out of memory after batch {j}: {err}")
                    write_manifest()
                    return finish(complete=False)
                except ComputationInterrupted as err:
                    _attach_checkpoint(err, store)
                    raise
    finally:
        executor.close()

    write_manifest(status="complete")
    if store is not None and not store.degraded:
        store.collect_garbage()
    return finish(complete=True)
