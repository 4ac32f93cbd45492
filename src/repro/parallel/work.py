"""Worker-process state and task functions for the parallel executor.

Each worker process is initialised once (:func:`build_worker_state`,
called from the supervised pool's worker loop): it rebuilds the host
graph from edge triples, attaches the shared-memory world sample view,
and constructs its own :class:`GlobalTrussOracle` over that view. Tasks
then arrive as ``(name, payload)`` pairs and run against this
per-process state — no per-task graph or sample shipping.

Determinism contract
--------------------
Every task is a pure function of its payload plus the (identical)
per-process state, so results do not depend on which worker runs a task
or in which order tasks complete:

* ``gbu-seed`` derives its RNG from an explicit
  :class:`numpy.random.SeedSequence` entropy tuple carried in the
  payload — never from shared stream state;
* graphs rebuilt inside workers insert edges in the exact order the
  parent used (``edge_subgraph`` canonicalises construction order);
* anything order-sensitive (successor clusters, GBU edge lists) is
  sorted by a canonical edge key before use.

The same task functions run *inline* in the parent process when
``workers=1`` — that is the reference the equivalence tests compare
worker counts against.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.probabilistic import ProbabilisticGraph, edge_key
from repro.core.global_truss import GlobalTrussOracle
from repro.core.kernels import classify_worlds_packed, deletion_clusters
from repro.core.reliability import count_connected_rows
from repro.parallel.shared import SharedSamplesHandle, attach_samples

__all__ = [
    "CANCELLED",
    "WorkerState",
    "TASKS",
    "build_worker_state",
]

#: Returned by :func:`run_task` in place of a result when the shared
#: cancel flag was observed mid-task. The parent only sees these on the
#: abort path, where results are discarded anyway.
CANCELLED = "__repro-parallel-cancelled__"

#: Shared counters the parent's progress pump reads; one slot per
#: worker-emitted phase.
COUNTER_PHASES = ("oracle-eval", "gtd-state", "reliability-rows")


class _WorkerCancelled(Exception):
    """Internal: the parent set the cancel flag; abandon the task."""


class WorkerState:
    """Per-process execution state shared by all tasks of one worker.

    The same class backs the parent-side *inline* mode (``workers=1``):
    there ``counters``/``cancel`` stay None (ticks become no-ops), the
    oracle is the parent's own (warm cache), and ``progress`` is set by
    the executor to the currently active parent hook before each map.
    """

    def __init__(self, graph: ProbabilisticGraph, samples=None, *,
                 oracle=None, cancel=None, counters=None):
        self.graph = graph
        self.samples = samples
        self.cancel = cancel
        self.counters = counters
        self.progress = None
        if oracle is not None:
            self.oracle = oracle
        elif samples is not None:
            self.oracle = GlobalTrussOracle(samples, progress=self.hook)
        else:
            self.oracle = None
        self._components: dict[tuple, ProbabilisticGraph] = {}
        self._shm = None  # keeps the shared mapping alive in workers

    # -- progress plumbing ---------------------------------------------
    def hook(self, event) -> None:
        """Progress hook handed to oracle/search code inside a worker.

        Counts events into the shared counters (the parent's pump turns
        them back into :class:`ProgressEvent` s) and polls the cancel
        flag — the cooperative cancellation point inside a level.
        """
        if self.counters is not None:
            counter = self.counters.get(event.phase)
            if counter is not None:
                with counter.get_lock():
                    counter.value += 1
        if self.progress is not None:
            self.progress(event)
        self.check_cancel()

    def bump(self, phase: str, amount: int = 1) -> None:
        """Add ``amount`` to the shared counter for ``phase`` (if any)."""
        if self.counters is not None:
            counter = self.counters.get(phase)
            if counter is not None:
                with counter.get_lock():
                    counter.value += amount

    def check_cancel(self) -> None:
        if self.cancel is not None and self.cancel.is_set():
            raise _WorkerCancelled()

    # -- component cache -----------------------------------------------
    def component(self, edges: tuple) -> ProbabilisticGraph:
        """Materialise (and cache) the subgraph over ``edges``.

        ``edges`` must be the exact ordered edge tuple the parent's
        component carries — ``edge_subgraph`` canonicalises construction
        order, so the result is structurally identical to the parent's.
        """
        cached = self._components.get(edges)
        if cached is None:
            cached = self.graph.edge_subgraph(list(edges))
            if len(self._components) >= 8:
                # Levels revisit one component for many seeds; a handful
                # of slots is plenty and bounds worker memory.
                self._components.pop(next(iter(self._components)))
            self._components[edges] = cached
        return cached

    def seed_component(self, edges: tuple, graph: ProbabilisticGraph) -> None:
        """Pre-populate the cache (inline mode reuses the parent's piece)."""
        if len(self._components) >= 8:
            self._components.pop(next(iter(self._components)))
        self._components[edges] = graph


# ----------------------------------------------------------------------
# Task functions. Each takes (state, payload) and returns plain
# picklable data; the parent re-materialises graphs on its side.


def _gbu_seed(state: WorkerState, payload):
    """Evaluate one GBU seed: grow, test, extend; return sorted edges.

    Payload: ``(component_edges, seed_edge, k, gamma, entropy)`` where
    ``entropy`` is the SeedSequence tuple ``(root, k, comp_idx,
    seed_idx)`` — the per-seed RNG stream that makes the evaluation
    independent of scheduling.
    """
    from repro.core.global_decomp import (
        _edge_sort_key,
        _extend_to_maximal,
        _grow_candidate,
    )

    comp_edges, seed_edge, k, gamma, entropy = payload
    component = state.component(tuple(map(tuple, comp_edges)))
    rng = np.random.default_rng(np.random.SeedSequence(list(entropy)))
    grown = _grow_candidate(component, tuple(seed_edge), k, rng)
    if grown is None:
        return None
    if not state.oracle.satisfies(grown, k, gamma):
        return None
    extended = _extend_to_maximal(state.oracle, component, grown, k, gamma)
    return sorted(
        (edge_key(u, v) for u, v in extended.edges()), key=_edge_sort_key
    )


def _gtd_frontier(state: WorkerState, payload):
    """Evaluate one shard of a GTD peel round's frontier (Algorithm 4).

    Payload: ``(component_edges, shard, k, gamma)`` where ``shard`` is a
    list of candidate edge lists, each canonically sorted. For every
    candidate the (k, gamma)-truss test runs against the shared sample
    set; a satisfying candidate yields ``("sat", edges)`` and a failing
    one ``("exp", successors)``.

    The successors of all failing candidates come from one batched pass
    (:func:`~repro.core.kernels.deletion_clusters`). A candidate's edges
    become canonically sorted columns, its row ``i`` deletes the
    ``i``-th edge of ``candidate.edges()``, and every row is pruned to
    its maximal structural k-truss and split into connected components.
    Each successor is a canonically sorted edge list, in deletion order
    and then by first edge: the lists and order that pruning and
    splitting each deletion on its own gives, since the maximal k-truss
    of an edge set is unique. A successor already emitted earlier in
    the shard is left out: the parent's merge would drop it as visited
    anyway. The result is a pure function of the payload: the parent's
    merge (shard-index order, then within-shard candidate order) is
    therefore identical for every shard boundary and worker count.
    """
    from repro.core.global_decomp import _edge_sort_key
    from repro.runtime.progress import ProgressEvent

    comp_edges, shard, k, gamma = payload
    component = state.component(tuple(map(tuple, comp_edges)))
    out = []
    failing, pending = [], []
    for index, cand_edges in enumerate(shard):
        candidate = component.edge_subgraph([tuple(e) for e in cand_edges])
        state.hook(ProgressEvent("gtd-state", step=index, detail={"k": k}))
        if state.oracle.satisfies(candidate, k, gamma):
            out.append(("sat", [tuple(e) for e in cand_edges]))
            continue
        columns = sorted(candidate.edges(), key=_edge_sort_key)
        column_of = {e: j for j, e in enumerate(columns)}
        failing.append((columns, list(candidate.nodes()),
                        [column_of[e] for e in candidate.edges()]))
        pending.append([])
        out.append(("exp", pending[-1]))
    emitted: set[frozenset] = set()
    for successors, clusters in zip(pending, deletion_clusters(failing, k)):
        for cluster in clusters:
            cluster_key = frozenset(cluster)
            if cluster_key not in emitted:
                emitted.add(cluster_key)
                successors.append(cluster)
    return out


def _oracle_block(state: WorkerState, payload):
    """Classify one block of sample rows for a single oracle evaluation.

    Payload: ``(edges, nodes, k, packed, rows)`` where ``packed`` is the
    byte-aligned slice of the parent's *packed* column projection
    covering this block and ``rows`` the block's sample indices relative
    to the slice start. The parent projects once and ships each worker
    only its own bytes — the old payload made every worker re-project
    the full boolean ``presence_matrix`` (8x unpacked) for its block.
    Returns integer counts in ``edges`` order; the parent sums the
    blocks (counts are additive over disjoint row sets).
    """
    state.check_cancel()
    edges, nodes, k, packed, rows = payload
    edges = [tuple(e) for e in edges]
    counts = classify_worlds_packed(
        edges, nodes, k, np.asarray(packed, dtype=np.uint8),
        np.asarray(rows, dtype=np.int64),
    )
    return [counts[e] for e in edges]


def _calibrate(state: WorkerState, payload):
    """No-op round-trip probe for the dispatch-cost calibration.

    The executor times a pool-wide map of these at startup to measure
    what one payload's serialize/queue/wake/return actually costs on
    this machine, replacing the fixed ``_PARALLEL_MIN_CELLS`` guess.
    """
    state.check_cancel()
    return None


def _reliability_block(state: WorkerState, payload):
    """Count connected worlds in one batch of reliability samples.

    Payload: ``(nodes, edges, presence)`` where ``presence`` is the
    boolean batch matrix and ``nodes`` is the *parent's* node list —
    the worker's rebuilt graph lacks isolated nodes, which matter for
    connectivity. Hit counts are additive over disjoint batches, so the
    parent's sum is identical for every worker count.
    """
    state.check_cancel()
    nodes, edges, presence = payload
    presence = np.asarray(presence, dtype=bool)
    hits = count_connected_rows(list(nodes), [tuple(e) for e in edges],
                                presence)
    state.bump("reliability-rows", presence.shape[0])
    return hits


TASKS = {
    "calibrate": _calibrate,
    "gbu-seed": _gbu_seed,
    "gtd-frontier": _gtd_frontier,
    "oracle-block": _oracle_block,
    "reliability-block": _reliability_block,
}


def build_worker_state(edge_triples, handle: SharedSamplesHandle | None,
                       cancel, counters) -> WorkerState:
    """Build the per-process execution state (worker side, once).

    Called from the supervised pool's worker loop right after fork; the
    returned state keeps the shared-memory mapping alive for as long as
    the worker runs tasks against it.
    """
    graph = ProbabilisticGraph()
    for u, v, p in edge_triples:
        graph.add_edge(u, v, p)
    samples = shm = None
    if handle is not None:
        samples, shm = attach_samples(handle)
    state = WorkerState(graph, samples, cancel=cancel, counters=counters)
    state._shm = shm
    return state
