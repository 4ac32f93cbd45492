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

Every runner drives one shell, :class:`_Run`, which owns the lifecycle
they share: checkpoint set-up and resume-or-clear, degradable checkpoint
writes, the executor's lifetime, the mapping of breaches to degraded
results, and the assembly of the :class:`PartialResult`.
"""

from __future__ import annotations

import zlib
from contextlib import ExitStack
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
from repro.runtime.faults import FaultPlan
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


def _widened_epsilon(epsilon, delta, n_requested, n_used):
    """Theorem 3's accuracy over ``n_used`` of ``n_requested`` samples.

    The requested ``epsilon`` holds when every requested sample counted;
    fewer widen it to the Hoeffding bound of the samples that did, and
    none leave no bound at all (None).
    """
    if n_used >= n_requested:
        return epsilon
    return hoeffding_epsilon(n_used, delta) if n_used > 0 else None


class _Run:
    """The lifecycle every harnessed run shares.

    Construction is the set-up: the checkpoint store (armed with the
    disk faults of ``faults``), the int-seed check, the budget's clock,
    the hook chains, and resume-or-clear — :attr:`manifest` is the
    resumable manifest, or None. :attr:`progress` is the user's hook
    followed by the fault plan's :meth:`~repro.runtime.FaultPlan.check`;
    :attr:`hook` adds the budget after them.

    Checkpoint writes go through :meth:`save`. The first
    :class:`~repro.exceptions.CheckpointWriteError` (a full disk, a torn
    atomic write) disables checkpointing for the rest of the run: it is
    noted as a degradation, a ``checkpoint-degraded`` event goes to the
    user's hooks, and later writes are no-ops — the computation still
    produces its result, it just loses resumability. Reads never
    degrade: a corrupt *existing* checkpoint still raises, because
    silently ignoring one would resume the wrong run.

    The runner's computation runs as ``with run:``. Leaving the block
    closes what the run opened (the executor, a spill directory) and
    restores a lifted memory limit. A budget breach, a ``MemoryError``
    or a :class:`~repro.exceptions.TaskQuarantinedError` inside the
    block is noted as ``"<cause> during <stage>"``, snapshotted with
    :meth:`write_manifest`, kept in :attr:`error` and suppressed, so
    control reaches the statement after the block, which returns the
    incomplete result. A
    :class:`~repro.exceptions.ComputationInterrupted` gets the
    checkpoint path attached and propagates.
    """

    def __init__(self, kind: str, params: dict, *, graph, budget, progress,
                 faults: FaultPlan | None, checkpoint_dir, resume: bool,
                 on_corrupt: str, seed=None):
        if progress is not None and not callable(progress):
            # A fault plan here would leave its pool and disk faults
            # unarmed; it belongs in faults=.
            raise ParameterError(
                f"progress must be a callable hook or None, got "
                f"{type(progress).__name__}"
            )
        self.kind = kind
        self.params = params
        self.budget = budget
        self.faults = faults
        self.progress = chain_hooks(
            progress, None if faults is None else faults.check)
        self.store = CheckpointStore(checkpoint_dir) if checkpoint_dir else None
        if self.store is not None:
            # Only the manifest reads the fingerprint, and it costs a
            # sort of every edge: a store-less run skips it.
            params["graph"] = _graph_fingerprint(graph)
        if (self.store is not None and seed is not None
                and not isinstance(seed, int)):
            raise CheckpointError(
                "checkpointed runs need a reproducible seed: pass an int (or "
                "None), not a Generator instance"
            )
        self.reasons: list[str] = []
        self.fallback: str | None = None
        #: What the run is doing, for the degradation note of a breach.
        self.stage = kind
        #: Runner-supplied ``() -> dict``: the resumable state that
        #: :meth:`write_manifest` stores beside the params and status.
        self.snapshot = None
        self.executor = None
        self.error: BaseException | None = None
        self._checkpointing = self.store is not None
        self._exit = ExitStack()
        if self.store is not None and faults is not None:
            self.store.write_fault = faults.take_disk_fault
        if budget is not None:
            budget.start()
        self.hook = chain_hooks(self.progress, budget)
        self.manifest = None
        if self.store is not None and resume and self.store.exists():
            try:
                self.manifest = self.store.load_manifest(expect_params=params)
            except CheckpointError:
                if on_corrupt != "restart":
                    raise
                self.store.clear()

    def note(self, reason: str) -> None:
        self.reasons.append(reason)

    # -- checkpoint writes ---------------------------------------------
    def save(self, method: str, *args) -> None:
        """Call the store's ``method`` unless checkpointing is off."""
        if not self._checkpointing:
            return
        try:
            getattr(self.store, method)(*args)
        except CheckpointWriteError as err:
            self._checkpointing = False
            self.note(
                f"checkpoint write failed ({err}); checkpointing disabled "
                "for the rest of the run"
            )
            if self.progress is not None:
                self.progress(ProgressEvent(
                    "checkpoint-degraded", step=0,
                    detail={"checkpoint_error": str(err), "path": err.path},
                ))

    def write_manifest(self, status: str = "in-progress") -> None:
        if self._checkpointing and self.snapshot is not None:
            self.save("save_manifest", {
                "params": self.params, **self.snapshot(), "status": status,
            })

    # -- resources -----------------------------------------------------
    def open_executor(self, graph, workers, **options):
        """Start the run's executor; it closes when the run's block exits."""
        from repro.parallel import ParallelExecutor

        # None means serial: the inline executor (0 would mean "auto").
        self.executor = ParallelExecutor(
            1 if workers is None else workers, graph=graph,
            faults=self.faults, **options,
        ).start()
        self._exit.callback(self.executor.close)
        return self.executor

    def on_exit(self, callback) -> None:
        """Run ``callback()`` when the run's block exits."""
        self._exit.callback(callback)

    def lift_memory_limit(self, budget: Budget) -> None:
        """Drop ``budget``'s memory limit until the run's block exits.

        Peak RSS is monotone, so once the probe tripped it would re-fire
        at every later boundary; the caller's limit comes back for its
        next run.
        """
        limit = budget.max_memory_bytes
        budget.max_memory_bytes = None
        self._exit.callback(setattr, budget, "max_memory_bytes", limit)

    def __enter__(self) -> "_Run":
        return self

    def __exit__(self, kind, err, traceback) -> bool:
        with self._exit:
            if isinstance(err, ComputationInterrupted):
                if self.store is not None and err.checkpoint_path is None:
                    err.checkpoint_path = str(self.store.path)
                return False
            if isinstance(err, BudgetExceededError):
                cause = "budget exhausted"
            elif isinstance(err, MemoryError):
                cause = "out of memory"
            elif isinstance(err, TaskQuarantinedError):
                # Degradable stages quarantine with the "skip" policy and
                # never raise; this is the backstop for the others.
                cause = "quarantined poison payloads"
            else:
                return False
            self.error = err
            self.note(f"{cause} during {self.stage}: {err}")
            self.write_manifest()
            return True

    # -- result --------------------------------------------------------
    def finish(self, result, complete: bool, *, epsilon=None, delta=None,
               n_requested=None, n_drawn=None, batches_drawn=None,
               detail=None, **fields) -> PartialResult:
        """Assemble the run's :class:`PartialResult`.

        Folds in the executor's quarantine records and its worst
        sample-row loss: the worst single oracle evaluation classified
        only ``n_drawn - rows_lost`` samples, so epsilon widens to that
        count exactly like truncated sampling. A complete run's
        checkpoint is garbage-collected (``batches_drawn`` bounds the
        sample batches kept).
        """
        quarantined = self.executor.quarantined if self.executor else []
        rows_lost = self.executor.sample_rows_lost if self.executor else 0
        reasons = list(self.reasons)
        if quarantined:
            reasons.append(
                f"{len(quarantined)} parallel payload(s) quarantined: "
                + "; ".join(q.describe() for q in quarantined)
            )
            detail = {"quarantined": [q.to_dict() for q in quarantined],
                      **(detail or {})}
        effective = epsilon
        if n_requested is not None:
            n_used = n_drawn - rows_lost
            effective = _widened_epsilon(epsilon, delta, n_requested, n_used)
            if rows_lost:
                reasons.append(
                    f"worst oracle evaluation lost {rows_lost} sample rows "
                    "to quarantined blocks; epsilon widened to the "
                    f"{n_used}-sample Hoeffding bound"
                )
        if complete and self._checkpointing:
            # The run is done: stale mid-peel snapshots, torn temp
            # files, and out-of-range sample batches are dead weight.
            self.store.collect_garbage(batches_drawn=batches_drawn)
        return PartialResult(
            kind=self.kind,
            result=result,
            complete=complete,
            degraded=bool(reasons) or self.fallback is not None,
            reason="; ".join(reasons) if reasons else None,
            fallback=self.fallback,
            requested_epsilon=epsilon,
            effective_epsilon=effective,
            n_samples_requested=n_requested,
            n_samples_drawn=n_drawn,
            checkpoint_path=str(self.store.path) if self.store else None,
            elapsed_seconds=self.budget.elapsed() if self.budget else None,
            detail=detail or {},
            **fields,
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
    faults: FaultPlan | None = None,
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
        Extra hook chained before the budget (interrupt guards go here).
    faults:
        A :class:`~repro.runtime.FaultPlan`: its step faults check every
        event after ``progress``, its pool faults arm the executor and
        its disk faults the checkpoint store.
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
        The breached budget's memory limit is lifted for the rest of
        this run only.
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
    if checkpoint_dir and seed is None:
        raise CheckpointError(
            "checkpointed global runs need an int seed: the per-seed "
            "RNG streams are rooted at it, and a root derived from a "
            "None seed cannot be re-derived on resume"
        )
    if on_memory_pressure not in ("abort", "spill"):
        raise ParameterError(
            f"on_memory_pressure must be 'abort' or 'spill', "
            f"got {on_memory_pressure!r}"
        )
    n_requested = (
        n_samples if n_samples is not None
        else hoeffding_sample_size(epsilon, delta)
    )
    run = _Run("global", {
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
        # One determinism family: serial GBU uses the same per-seed RNG
        # streams the parallel mode fans out, so results are
        # byte-identical for workers in {None, 1, 2, 4, ...}. The worker
        # *count* is deliberately absent — any count resumes any
        # compatible run. (Pre-unification "sequential" checkpoints are
        # a different family and correctly refuse to resume.)
        "rng_scheme": "per-seed",
    }, graph=graph, budget=budget, progress=progress, faults=faults,
        checkpoint_dir=checkpoint_dir, resume=resume, on_corrupt=on_corrupt,
        seed=seed)
    store = run.store

    rng = np.random.default_rng(seed)
    batcher = SampleBatcher(graph, n_requested, batch_size, seed=rng)

    completed: dict[int, list[ProbabilisticGraph]] = {}
    finished = False
    sampling_stopped_early: str | None = None
    manifest = run.manifest
    if manifest is not None:
        sampling_state = manifest["sampling"]
        decomp_state = manifest.get("decomp") or {}
        finished = bool(decomp_state.get("finished"))
        if not finished:
            # A finished run's result needs only the sample counts,
            # which the manifest holds; the batches stay on disk.
            for index in range(sampling_state["batches_drawn"]):
                batcher.load_batch(store.load_sample_batch(index))
        sampling_stopped_early = sampling_state.get("stopped_early")
        if sampling_stopped_early:
            run.note(sampling_stopped_early)
        rng.bit_generator.state = manifest["rng_state"]
        for k in decomp_state.get("levels", []):
            completed[int(k)] = [
                graph.edge_subgraph(truss_edges)
                for truss_edges in store.load_level(int(k))
            ]
        if decomp_state.get("fallback"):
            run.fallback = decomp_state["fallback"]

    # Mid-peel GTD snapshot (sharded frontier rounds): resume continues
    # the interrupted level from its last round boundary instead of
    # restarting it. Only meaningful while the run is still on the exact
    # search — a recorded GTD->GBU fallback supersedes it.
    frontier_state = None
    if manifest is not None and method == "gtd" and run.fallback is None:
        try:
            frontier_state = store.load_frontier()
        except CheckpointError:
            if on_corrupt != "restart":
                raise
            store.clear_frontier()

    current_method = method if run.fallback is None else "gbu"
    run.snapshot = lambda: {
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
            "finished": finished,
            "method": current_method,
            "fallback": run.fallback,
        },
    }
    # Where the samples went under memory pressure, if anywhere.
    spill_info: dict = {}

    def finish(result, complete: bool, drawn=None) -> PartialResult:
        detail = {}
        if run.executor is not None:
            detail["supervision"] = run.executor.supervision_stats()
        detail.update(spill_info)
        batches, samples = drawn or (batcher.batches_drawn,
                                     batcher.samples_drawn)
        return run.finish(
            result, complete, epsilon=epsilon, delta=delta,
            n_requested=n_requested, n_drawn=samples, batches_drawn=batches,
            completed_k=max(completed, default=None), detail=detail,
        )

    def build_result() -> GlobalTrussResult:
        return GlobalTrussResult(
            graph=graph, gamma=gamma, epsilon=effective_epsilon,
            delta=delta, n_samples=n_drawn, method=current_method,
            trusses={k: list(v) for k, v in sorted(completed.items())},
        )

    with run:
        if finished:
            # A resumed run whose decomposition already completed: its
            # levels are the result, so no sample batch is read, no pool
            # starts and nothing is pruned or searched again.
            n_drawn = sampling_state["samples_drawn"]
            effective_epsilon = _widened_epsilon(epsilon, delta, n_requested,
                                                 n_drawn)
            return finish(build_result(), complete=True,
                          drawn=(sampling_state["batches_drawn"], n_drawn))

        # -- stage 1: sampling ----------------------------------------
        run.stage = "sampling"
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
                run.note(sampling_stopped_early)
                break
            if store is not None:
                run.save("save_sample_batch", index, presence)
                run.write_manifest()
            if run.hook is None:
                continue
            try:
                run.hook(ProgressEvent(
                    "sample-batch", step=index, total=batcher.n_batches,
                    detail={"samples_drawn": batcher.samples_drawn},
                ))
            except BudgetExceededError as err:
                if (err.resource == "memory"
                        and on_memory_pressure == "spill"
                        and not spill_pending):
                    # Memory pressure under the spill policy: bit-pack
                    # the batches already drawn (8x smaller in place),
                    # lift the memory limit and finish sampling; the
                    # packed matrix moves to a read-only memmap below.
                    # Output is byte-identical, so this is *not*
                    # degraded.
                    batcher.compact()
                    if err.budget is not None:
                        run.lift_memory_limit(err.budget)
                    spill_pending = True
                    continue
                sampling_stopped_early = str(err)
                run.note(sampling_stopped_early)
                run.write_manifest()
                break
            except MemoryError as err:
                sampling_stopped_early = (
                    f"out of memory after batch {index}: {err}"
                )
                run.note(sampling_stopped_early)
                run.write_manifest()
                break

        if batcher.samples_drawn == 0:
            run.write_manifest()
            return finish(None, complete=False)
        n_drawn = batcher.samples_drawn
        effective_epsilon = _widened_epsilon(epsilon, delta, n_requested,
                                             n_drawn)
        world_set = batcher.result(partial_ok=True)

        # The executor (and its shared-memory sample segment) lives for
        # the compute stages only; the sampling stage above is
        # sequential-RNG and stays out of it by design. A spilled sample
        # set's memmap file (and its directory, when privately created)
        # lives exactly as long.
        if spill_pending:
            spill_store = SpillDirectory(spill_dir)
            run.on_exit(spill_store.cleanup)
            spilled_path = world_set.spill_to(
                spill_store.allocate("samples.bits")
            )
            if spilled_path is not None:
                spill_info["spilled_to"] = str(spilled_path)
                if run.progress is not None:
                    run.progress(ProgressEvent(
                        "resource-pressure", step=0, detail={
                            "resource": "memory", "action": "spill",
                            "path": str(spilled_path),
                            "bytes": int(world_set.packed_bits.nbytes),
                            "free_bytes": spill_store.free_bytes(),
                        },
                    ))
        executor = run.open_executor(
            graph, workers, samples=world_set, task_timeout=task_timeout,
            task_cpu_timeout=task_cpu_timeout,
            max_task_retries=max_task_retries,
        )

        # -- stage 2: local pruning (Eq. 11 candidate generation) -----
        run.stage = "local pruning"
        local_result = local_truss_decomposition(graph, gamma,
                                                 progress=run.hook)

        # -- stage 3: the k loop --------------------------------------
        run.stage = "decomposition"

        def level_checkpoint(event: ProgressEvent) -> None:
            if event.phase == "gtd-frontier":
                # Mid-peel round boundary: snapshot before any other hook
                # (fault plan, budget) can abort, so a kill here resumes
                # from this exact round.
                run.save("save_frontier", event.detail)
                return
            if event.phase != "global-level-done":
                return
            k = event.detail["k"]
            completed[k] = list(event.detail["trusses"])
            if store is not None:
                run.save("save_level", k, completed[k])
                # The finished level supersedes any mid-peel snapshot.
                store.clear_frontier()
                run.write_manifest()

        def run_stage(stage_method: str, extra_hook=None):
            return global_truss_decomposition(
                graph, gamma, epsilon=effective_epsilon, delta=delta,
                method=stage_method, seed=rng, n_samples=n_drawn,
                local_result=local_result, samples=world_set, max_k=max_k,
                max_states=max_states,
                progress=chain_hooks(level_checkpoint, run.hook, extra_hook),
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
        if (current_method == "gtd" and budget is not None
                and budget.remaining() is not None):
            soft_budget = Budget(
                deadline=budget.remaining() * gtd_fraction,
                clock=budget._clock,
            ).start()

        try:
            result = run_stage(current_method, extra_hook=soft_budget)
        except (BudgetExceededError, DecompositionError) as err:
            if isinstance(err, BudgetExceededError):
                if soft_budget is None or err.budget is not soft_budget:
                    raise
                why = f"exceeded its share of the deadline ({err})"
            elif current_method == "gtd":
                why = f"gave up ({err})"
            else:
                raise
            run.fallback = "gtd->gbu"
            run.note(f"exact top-down search {why}; degrading to the "
                     "bottom-up heuristic")
            current_method = "gbu"
            run.write_manifest()
            result = run_stage("gbu")

        finished = True
        run.write_manifest(status="complete")
        return finish(result, complete=True)
    return finish(build_result() if run.stage == "decomposition" else None,
                  complete=False)


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
    faults: FaultPlan | None = None,
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
        faults=faults, on_corrupt=on_corrupt, workers=workers,
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
    faults: FaultPlan | None = None,
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
    run = _Run("nucleus", {
        "kind": "nucleus",
        "r": r,
        "s": s,
        "gamma": gamma,
        "method": method,
        # Apex factors fold in natural node order. Manifests from runs
        # that folded them in another order ("adjacency": serial local
        # runs; "canonical": (type name, str) order) must not resume.
        "pmf_order": "natural",
    }, graph=graph, budget=budget, progress=progress, faults=faults,
        checkpoint_dir=checkpoint_dir, resume=resume, on_corrupt=on_corrupt)
    run.stage = "peeling"

    def finish(scores, complete: bool) -> PartialResult:
        return run.finish(
            NucleusResult(graph=graph, r=r, s=s, gamma=gamma, scores=scores,
                          method=method),
            complete,
            detail={"r": r, "s": s, "cliques_assigned": len(scores)},
        )

    if run.manifest is not None and run.manifest.get("status") == "complete":
        return finish({
            tuple(decode_node(x) for x in row[:-1]): int(row[-1])
            for row in run.manifest["scores"]
        }, complete=True)

    with run:
        result = nucleus_decomposition(graph, r, s, gamma, method=method,
                                       progress=run.hook)
        run.snapshot = lambda: {"scores": sorted(
            [encode_node(x) for x in cell] + [nu]
            for cell, nu in result.scores.items()
        )}
        run.write_manifest(status="complete")
        return finish(result.scores, complete=True)
    return finish(dict(getattr(run.error, "partial", None) or {}),
                  complete=False)


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
    faults: FaultPlan | None = None,
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
    cannot matter. The parent captures the RNG state after each draw,
    so a budget breach or interrupt mid-window still writes a
    per-batch-accurate checkpoint. A quarantined batch (supervision gave
    up on it) is dropped from both numerator and denominator — the
    estimate stays unbiased over the rows actually classified and
    epsilon widens accordingly.
    """
    from repro.parallel.supervisor import QUARANTINED

    run = _Run("reliability", {
        "kind": "reliability",
        "n_samples": n_samples,
        "batch_size": batch_size,
        "seed": seed,
        "delta": delta,
    }, graph=graph, budget=budget, progress=progress, faults=faults,
        checkpoint_dir=checkpoint_dir, resume=resume, on_corrupt=on_corrupt,
        seed=seed)

    rng = np.random.default_rng(seed)
    batcher = SampleBatcher(graph, n_samples, batch_size, seed=rng)
    hits = batches_done = samples_done = rows_skipped = 0
    if run.manifest is not None:
        hits = int(run.manifest["hits"])
        batches_done = int(run.manifest["batches_done"])
        samples_done = int(run.manifest["samples_done"])
        rng.bit_generator.state = run.manifest["rng_state"]
    # The RNG state after the last merged batch: the parent draws a
    # whole window ahead, so the live generator runs ahead of it.
    rng_state = rng.bit_generator.state
    run.snapshot = lambda: {
        "hits": hits,
        "batches_done": batches_done,
        "samples_done": samples_done,
        "rng_state": rng_state,
    }

    def finish(complete: bool) -> PartialResult:
        detail = {"hits": hits}
        if rows_skipped:
            detail["rows_skipped"] = rows_skipped
        return run.finish(
            hits / samples_done if samples_done else None, complete,
            epsilon=hoeffding_epsilon(n_samples, delta), delta=delta,
            n_requested=n_samples, n_drawn=samples_done, detail=detail,
        )

    with run:
        executor = run.open_executor(
            graph, workers, task_timeout=task_timeout,
            task_cpu_timeout=task_cpu_timeout,
            max_task_retries=max_task_retries,
        )
        nodes = list(graph.nodes())
        edges = batcher.edges
        # Inline there is nothing to overlap: one batch per window keeps
        # the budget check between every two draws.
        window = 1 if executor.pool_workers == 1 else 2 * executor.pool_workers
        while batches_done < batcher.n_batches:
            first = batches_done
            run.stage = f"reliability batch {first}"
            batches = range(first, min(batcher.n_batches, first + window))
            # Draw the whole window sequentially in the parent — the RNG
            # stream is identical for every worker count — capturing the
            # state after each batch so the per-batch manifests below
            # stay resume-accurate mid-window.
            rows_list = [batcher.batch_rows(j) for j in batches]
            payloads = []
            states = []
            for rows in rows_list:
                payloads.append((nodes, edges, batcher.draw_presence(rows)))
                states.append(batcher.rng_state())
            counts = executor.map(
                "reliability-block", payloads, progress=run.hook,
                on_quarantine="skip",
            )
            # Merge strictly in batch order: manifests and hook events
            # fire per batch, whatever the window, each manifest with
            # the RNG state after its batch.
            for j, rows, count, rng_state in zip(batches, rows_list, counts,
                                                 states):
                if count is QUARANTINED:
                    rows_skipped += rows
                else:
                    hits += count
                    samples_done += rows
                batches_done += 1
                run.write_manifest()
                if run.hook is None:
                    continue
                run.stage = f"reliability batch {j}"
                run.hook(ProgressEvent(
                    "reliability-batch", step=j, total=batcher.n_batches,
                    detail={"samples_drawn": samples_done},
                ))

        run.write_manifest(status="complete")
        return finish(complete=True)
    return finish(complete=False)
