"""Global (k, gamma)-truss decomposition (Section 5.3).

Implements the paper's backbone Algorithm 3 with both search
sub-procedures:

* **GTD** — :func:`top_down_search` (Algorithm 4): exact search that
  removes one edge at a time and continues in the k-truss-pruned
  connected components, one round-synchronous peel round at a time. We
  memoise visited edge sets, each an edge-id bitmask — without this the
  search revisits the same residual graphs exponentially often.
* **GBU** — :func:`bottom_up_search` (Algorithm 5): the heuristic that
  grows a candidate from a single high-probability seed edge, adding
  k - 2 supporting triangles per deficient edge, then extends satisfying
  candidates to maximality.

Both searches run their per-candidate work as executor tasks
(:mod:`repro.parallel.work`); ``workers=None`` runs them on an inline
executor, so every worker count executes the same code.

Candidate pruning follows Eq. (11): an edge can only appear in an
(eps, delta)-approximate global (k, gamma)-truss if it lies in a maximal
local (k, gamma)-truss *and* in some approximate global
(k-1, gamma)-truss; for k > 2 edges with fewer than k - 2 structural
triangles in the candidate graph are removed as well.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DecompositionError, ParameterError
from repro.graphs.components import edge_connected_components
from repro.graphs.probabilistic import ProbabilisticGraph, edge_key
from repro.graphs.sampling import WorldSampleSet, hoeffding_sample_size
from repro.core.global_truss import GlobalTrussOracle
from repro.core.local import LocalTrussResult, local_truss_decomposition
from repro.parallel.supervisor import QUARANTINED
from repro.truss.decomposition import k_truss_edges

__all__ = [
    "GlobalTrussResult",
    "global_truss_decomposition",
    "top_down_search",
    "bottom_up_search",
]

Node = Hashable
Edge = tuple[Node, Node]

_METHODS = ("gtd", "gbu")


@dataclass
class GlobalTrussResult:
    """Outcome of an approximate global (k, gamma)-truss decomposition.

    Attributes
    ----------
    graph:
        The input probabilistic graph.
    gamma, epsilon, delta:
        The quality parameters; ``n_samples`` worlds were used.
    trusses:
        ``{k: [maximal approximate global (k, gamma)-trusses]}``; each
        entry is an edge-subgraph of ``graph``.
    method:
        ``"gtd"`` or ``"gbu"``.
    """

    graph: ProbabilisticGraph
    gamma: float
    epsilon: float
    delta: float
    n_samples: int
    method: str
    trusses: dict[int, list[ProbabilisticGraph]] = field(default_factory=dict)

    @property
    def k_max(self) -> int:
        """Largest k with at least one satisfying truss (0 if none)."""
        return max((k for k, ts in self.trusses.items() if ts), default=0)

    def all_trusses(self) -> list[tuple[int, ProbabilisticGraph]]:
        """Return every (k, truss) pair, ascending in k."""
        out: list[tuple[int, ProbabilisticGraph]] = []
        for k in sorted(self.trusses):
            out.extend((k, t) for t in self.trusses[k])
        return out


def _edge_sort_key(e: Edge):
    """Canonical edge ordering shared by every frontier/merge path,
    the pool tasks of :mod:`repro.parallel.work` included."""
    return (str(e[0]), str(e[1]))


def _edge_subgraphs_of_components(
    graph: ProbabilisticGraph, edges: set[Edge]
) -> list[ProbabilisticGraph]:
    """Split ``edges`` into connected clusters and materialise subgraphs.

    Clusters and their edges are sorted before materialisation so the
    component processing order — and hence each component's index in
    GBU's per-seed stream entropy and in GTD's mid-peel snapshots —
    depends only on the edge *contents*, never on set iteration order.
    Checkpoint resume relies on this: a run restarted in a fresh
    process must number the components exactly as the uninterrupted
    run did.
    """
    ordered = [
        sorted(cluster, key=_edge_sort_key)
        for cluster in edge_connected_components(graph, edges)
    ]
    ordered.sort(key=lambda cluster: _edge_sort_key(cluster[0]))
    return [graph.edge_subgraph(cluster) for cluster in ordered]


def _frontier_shards(frontier: list, workers: int) -> list[list]:
    """Split a peel round's frontier into canonical contiguous shards.

    Shard size is ``ceil(len(frontier) / (2 * workers))`` — oversplit
    two-fold so one slow shard cannot serialise a round. The boundaries
    depend on the worker count, but the merge preserves global candidate
    order (shard index, then within-shard position), so the merged round
    outcome is a pure function of the frontier contents alone.
    """
    if not frontier:
        return []
    shards = min(len(frontier), max(1, workers) * 2)
    size = -(-len(frontier) // shards)
    return [frontier[i:i + size] for i in range(0, len(frontier), size)]


def _canonical_edge_list(component: ProbabilisticGraph) -> list[Edge]:
    return sorted(
        (edge_key(u, v) for u, v in component.edges()), key=_edge_sort_key
    )


def _mask_bits(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending: a GTD state's edge ids."""
    return [j for j, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def top_down_search(
    executor,
    k: int,
    component: ProbabilisticGraph,
    gamma: float,
    max_states: int | None = None,
    progress=None,
    *,
    comp_index: int = 0,
    level_found: dict | None = None,
    resume_state: dict | None = None,
) -> list[ProbabilisticGraph] | None:
    """Algorithm 4: exact search for all satisfying trusses in ``component``.

    Explores the state closure of ``component`` — the residual
    edge-subsets, each one int bitmask over :func:`_canonical_edge_list`
    (bit ``j`` set: edge ``j`` present), reachable by repeated
    single-edge deletion, structural k-truss pruning and splitting into
    connected components, where only *non-satisfying* states expand;
    every satisfying state is an answer (maximal by construction). The
    search is round-synchronous: each
    peel round evaluates the whole outstanding frontier, dispatched
    through ``executor`` as canonical contiguous shards (``gtd-frontier``
    task, which tests each candidate against the executor's oracle),
    then merges in shard-index order and within-shard candidate order.
    The merged rounds are therefore a pure function of ``component``,
    identical for every worker count, including the inline executor
    that ``workers=None`` runs on.

    ``max_states`` bounds the number of distinct residual states merged
    into the visited set; exceeding it raises
    :class:`DecompositionError` — this is how callers emulate the
    paper's "GTD cannot finish in reasonable time" observations without
    hanging. The closure size alone decides the outcome, so every worker
    count agrees on it.

    ``progress`` (a hook taking a
    :class:`~repro.runtime.progress.ProgressEvent`) sees a
    ``"gtd-state"`` event per evaluated candidate, and after each merged
    round a ``"gtd-frontier"`` event carrying the complete mid-peel
    state: the level's answers so far as edge lists (``level_found``
    from earlier components plus this component's), the next frontier
    and the sorted visited masks. The harness checkpoints it, so
    kill/resume lands on a round boundary; ``resume_state`` restores
    exactly that snapshot, and ``comp_index`` names the component in it.
    A hook may abort the search by raising.

    Returns None when a frontier shard was quarantined (the payload
    kept killing workers): the caller degrades this component to the
    GBU heuristic.
    """
    edges = tuple(_canonical_edge_list(component))
    executor.cache_component(edges, component)
    answers: dict[int, ProbabilisticGraph] = {}
    # A fresh search is the round-0 snapshot holding only the full state.
    root = (1 << len(edges)) - 1
    start = resume_state or {"round": 0, "frontier": [root], "visited": [root]}
    frontier, visited = list(start["frontier"]), set(start["visited"])
    round_no = int(start["round"])
    if max_states is not None and len(visited) > max_states:
        raise DecompositionError(
            f"top-down search exceeded {max_states} explored states at k={k}"
        )
    while frontier:
        payloads = [
            (edges, shard, k, gamma)
            for shard in _frontier_shards(frontier, executor.pool_workers)
        ]
        mark = len(executor.quarantined)
        results = executor.map("gtd-frontier", payloads, progress=progress,
                               on_quarantine="skip")
        if any(res is QUARANTINED for res in results):
            # Honest degradation: some shard of this component's frontier
            # kept killing workers (or timing out). The exact search
            # cannot soundly skip states, so the whole component falls
            # back to the bottom-up heuristic.
            for rec in executor.quarantined[mark:]:
                rec.fallback = "gbu"
            return None
        next_frontier: list[int] = []
        for res in results:  # shard-index order
            for kind, data in res:  # within-shard candidate order
                if kind == "sat":
                    answers[data] = component.edge_subgraph(
                        [edges[j] for j in _mask_bits(data)])
                    continue
                for succ in data:  # canonical generation order
                    if succ in visited:
                        continue
                    visited.add(succ)
                    if max_states is not None and len(visited) > max_states:
                        raise DecompositionError(
                            f"top-down search exceeded {max_states} "
                            f"explored states at k={k}"
                        )
                    next_frontier.append(succ)
        frontier = next_frontier
        if progress is not None:
            from repro.runtime.progress import ProgressEvent

            # Emitted *after* the round is merged, carrying everything a
            # resumed run needs to continue from the next round — a hook
            # that raises here (checkpointing first, as the harness
            # chains them) loses no completed work.
            found_lists = [
                _canonical_edge_list(t)
                for t in [*(level_found or {}).values(), *answers.values()]
            ]
            progress(ProgressEvent(
                "gtd-frontier", step=round_no,
                detail={
                    "k": k, "comp_index": comp_index,
                    "round": round_no + 1,
                    "found": found_lists,
                    "frontier": frontier,
                    # Sorted: `visited` is a set, whose iteration order
                    # must never leak into checkpoint bytes.
                    "visited": sorted(visited),
                    "states": len(visited),
                },
            ))
        round_no += 1
    return list(answers.values())


def bottom_up_search(
    executor,
    oracle: GlobalTrussOracle,
    k: int,
    component: ProbabilisticGraph,
    gamma: float,
    root: int,
    progress=None,
    *,
    comp_index: int = 0,
    seed_order: str = "probability-desc",
) -> list[ProbabilisticGraph]:
    """Algorithm 5: heuristic bottom-up growth of satisfying trusses.

    Seeds are the component's edges in descending probability order (the
    paper's heuristic; ``seed_order`` exposes "probability-asc" and
    "random" for ablation, the latter shuffled by
    ``SeedSequence([root, k, comp_index])``). Each seed grows by adding
    supporting triangles (k - 2 per deficient edge, chosen at random
    among the available apexes, as the paper prescribes); satisfying
    candidates are greedily extended to maximality. Incomplete by design
    — the speed-for-completeness trade of Section 5.3. Edges already
    contained in some answer are not re-seeded: every reported truss is
    still a satisfying maximal truss, the pass just avoids rediscovering
    the same answer from each of its edges.

    Each seed draws from its own stream
    ``SeedSequence([root, k, comp_index, seed_index])``, so its
    evaluation (the ``gbu-seed`` task on ``executor``) is a pure
    function of the seed — independent of worker count, scheduling and
    batch boundaries. With a live pool, seeds are dispatched in batches
    of ``2 * pool_workers``; covered-seed skipping happens cheaply at
    dispatch and again at merge, in seed order, which discards exactly
    the speculative evaluations a one-seed-at-a-time pass would never
    have started. Inline (``workers`` None or 1) each batch is one seed,
    so nothing is evaluated speculatively. Results are identical for
    every worker count.
    """
    if seed_order == "probability-desc":
        ranked = sorted(
            component.edges_with_probabilities(),
            key=lambda t: (-t[2], _edge_sort_key(t)),
        )
    elif seed_order == "probability-asc":
        ranked = sorted(
            component.edges_with_probabilities(),
            key=lambda t: (t[2], _edge_sort_key(t)),
        )
    elif seed_order == "random":
        ranked = list(component.edges_with_probabilities())
        np.random.default_rng(
            np.random.SeedSequence([root, k, comp_index])
        ).shuffle(ranked)
    else:
        raise ParameterError(
            "seed_order must be 'probability-desc', 'probability-asc' "
            f"or 'random', got {seed_order!r}"
        )
    comp_edges = tuple(component.edges())
    executor.cache_component(comp_edges, component)
    threshold = gamma * (1.0 - 1e-9)
    answers: dict[frozenset[Edge], ProbabilisticGraph] = {}
    covered: set[Edge] = set()
    # Speculative batches only pay off when a pool runs them in parallel.
    workers = executor.pool_workers
    chunk = 2 * workers if workers > 1 else 1
    total = len(ranked)
    index = 0
    while index < total:
        batch: list[tuple[int, Edge]] = []
        while index < total and len(batch) < chunk:
            u0, v0, _ = ranked[index]
            if progress is not None:
                from repro.runtime.progress import ProgressEvent

                progress(ProgressEvent(
                    "gbu-seed", step=index, total=total, detail={"k": k},
                ))
            seed_index = index
            index += 1
            if edge_key(u0, v0) in covered:
                continue
            # alpha_hat(seed) can never exceed the seed's world frequency.
            if oracle.edge_frequency(u0, v0) < threshold:
                continue
            batch.append((seed_index, (u0, v0)))
        if not batch:
            continue
        payloads = [
            (comp_edges, seed_edge, k, gamma, (root, k, comp_index, s_idx))
            for s_idx, seed_edge in batch
        ]
        results = executor.map("gbu-seed", payloads, progress=progress,
                               on_quarantine="skip")
        for (s_idx, seed_edge), res in zip(batch, results):
            if res is None or isinstance(res, str):
                continue
            if res is QUARANTINED:
                # Honest degradation: the seed's evaluation kept killing
                # workers, so its candidate truss (if any) is simply not
                # reported; the quarantine record in the PartialResult
                # names the seed.
                continue
            # Merge-order discard: a seed covered by an answer accepted
            # earlier in seed order was evaluated speculatively; dropping
            # it here reproduces the one-seed-at-a-time skip exactly.
            if edge_key(*seed_edge) in covered:
                continue
            truss = component.edge_subgraph(list(res))
            key = frozenset(truss.edges())
            if key not in answers:
                answers[key] = truss
                covered |= key
    return list(answers.values())


def _grow_candidate(
    component: ProbabilisticGraph,
    seed_edge: Edge,
    k: int,
    rng: np.random.Generator,
) -> ProbabilisticGraph | None:
    """Grow a candidate from ``seed_edge`` until every edge has support k - 2.

    Returns None when some edge's support cannot reach k - 2 using the
    component's triangles (the seed is then hopeless for this k).
    """
    u0, v0 = seed_edge
    candidate = component.edge_subgraph([(u0, v0)])
    pending = [(u0, v0)]
    while pending:
        u, v = pending.pop()
        if not candidate.has_edge(u, v):
            continue
        deficit = (k - 2) - candidate.support(u, v)
        if deficit <= 0:
            continue
        # Apexes available in the component but not yet forming a
        # triangle with (u, v) inside the candidate.
        in_candidate = candidate.common_neighbors(u, v)
        # Canonical order: common_neighbors returns a set, whose
        # iteration order varies with PYTHONHASHSEED — left unsorted,
        # rng.choice would pick different apexes in different processes,
        # breaking cross-process run reproducibility (and checkpoint
        # resume, which always happens in a fresh process).
        available = sorted(
            (w for w in component.common_neighbors(u, v)
             if w not in in_candidate),
            key=lambda w: (str(type(w).__name__), str(w)),
        )
        if len(available) < deficit:
            return None
        # Paper: when more than k - 2 triangles are available, pick k - 2
        # of them at random.
        chosen = list(
            rng.choice(np.array(available, dtype=object), size=deficit,
                       replace=False)
        ) if len(available) > deficit else available
        for w in chosen:
            for a, b in ((u, w), (v, w)):
                if not candidate.has_edge(a, b):
                    candidate.add_edge(a, b, component.probability(a, b))
                    pending.append((a, b))
        pending.append((u, v))
    return candidate


def _extend_to_maximal(
    oracle: GlobalTrussOracle,
    component: ProbabilisticGraph,
    candidate: ProbabilisticGraph,
    k: int,
    gamma: float,
) -> ProbabilisticGraph:
    """Greedily add adjacent component edges while the truss test still passes."""
    current_edges = [edge_key(u, v) for u, v in candidate.edges()]
    edge_set = set(current_edges)
    current_nodes = set(candidate.nodes())
    rejected: set[Edge] = set()
    need_support = k - 2
    improved = True
    while improved:
        improved = False
        fringe: list[tuple[Edge, float]] = []
        for u in list(current_nodes):
            for v in component.neighbors(u):
                e = edge_key(u, v)
                if e in edge_set or e in rejected:
                    continue
                rejected.add(e)  # provisional; removed again if accepted
                # Two sound prescreens, both upper bounds on the new
                # edge's alpha in any trial: its world frequency, and
                # (for k >= 3) whether it can even reach k - 2 triangles
                # within the trial's node set.
                if oracle.edge_frequency(*e) < gamma * (1.0 - 1e-9):
                    continue
                if need_support > 0:
                    apexes = sum(
                        1
                        for w in component.common_neighbors(e[0], e[1])
                        if w in current_nodes
                    )
                    if apexes < need_support:
                        continue
                fringe.append((e, component.probability(e[0], e[1])))
        # Try high-probability extensions first for a denser result.
        fringe.sort(key=lambda t: (-t[1], _edge_sort_key(t[0])))
        for e, _p in fringe:
            trial_nodes = current_nodes | {e[0], e[1]}
            if oracle.satisfies_edges(current_edges + [e], trial_nodes,
                                      k, gamma):
                current_edges.append(e)
                edge_set.add(e)
                current_nodes = trial_nodes
                rejected.discard(e)
                improved = True
            # Edges that failed stay in `rejected`: adding more edges
            # only makes the per-edge test harder in practice, so they
            # are not retried in later passes.
    return component.edge_subgraph(current_edges)


def global_truss_decomposition(
    graph: ProbabilisticGraph,
    gamma: float,
    epsilon: float = 0.1,
    delta: float = 0.1,
    method: str = "gbu",
    seed: int | np.random.Generator | None = None,
    n_samples: int | None = None,
    local_result: LocalTrussResult | None = None,
    samples: WorldSampleSet | None = None,
    max_k: int | None = None,
    max_states: int | None = None,
    progress=None,
    start_k: int = 2,
    initial_trusses: dict[int, list[ProbabilisticGraph]] | None = None,
    workers: int | str | None = None,
    executor=None,
    rng_root: int | None = None,
    frontier_state: dict | None = None,
) -> GlobalTrussResult:
    """Algorithm 3: find all maximal (eps, delta)-approximate global trusses.

    Parameters
    ----------
    graph:
        Input probabilistic graph.
    gamma:
        Probability threshold of Definition 3.
    epsilon, delta:
        Hoeffding accuracy parameters; the sample count is
        ``ceil(ln(2/delta) / (2 epsilon^2))`` unless ``n_samples``
        overrides it (the paper uses N = 150 for eps = delta = 0.1).
    method:
        ``"gtd"`` (Algorithm 4, exact w.r.t. the samples) or ``"gbu"``
        (Algorithm 5, heuristic).
    seed:
        RNG seed for world sampling and GBU tie-breaking.
    local_result:
        Optional precomputed local decomposition at the same gamma.
    samples:
        Optional pre-drawn world sample set (must cover ``graph``).
    max_k:
        Stop after this k even if candidates remain.
    max_states:
        GTD state budget per component (see :func:`top_down_search`).
    progress:
        Optional progress hook (see :mod:`repro.runtime.progress`),
        notified with ``"global-level"`` at the start of each k,
        ``"global-level-done"`` (carrying the level's trusses in
        ``detail``) after each k, and forwarded into the searches and
        the Monte-Carlo oracle. A hook that raises aborts the
        decomposition at that boundary.
    start_k, initial_trusses:
        Checkpoint-resume support: begin the k loop at ``start_k`` with
        ``initial_trusses`` (``{k: [trusses]}`` for every level below
        ``start_k``) taken as already computed. The default runs from
        scratch.
    workers, executor, rng_root:
        Execution. Both searches run on a
        :class:`~repro.parallel.ParallelExecutor`: ``executor`` supplies
        an externally managed one (the harness shares one across
        stages); otherwise this call starts a private one with
        ``workers`` processes (an int, 0 or ``"auto"``), inline when
        ``workers`` is None or 1. GBU draws from *per-seed* RNG streams
        rooted at ``rng_root`` (default: the int ``seed``, else one draw
        from the main stream), so results are identical for every
        worker count, including None.
    frontier_state:
        Mid-peel resume support: the snapshot of a ``"gtd-frontier"``
        progress event's detail as restored by
        :meth:`~repro.runtime.checkpoint.CheckpointStore.load_frontier`.
        The level it names continues from that round boundary instead of
        restarting; a snapshot naming any other level is ignored.

    Returns
    -------
    GlobalTrussResult
        Maximal satisfying trusses per k. Every reported subgraph passes
        the per-edge ``alpha_hat >= gamma`` test against the shared
        sample set, hence is a maximal global (k, gamma +- eps)-truss
        with probability at least 1 - delta per edge (Theorem 3).
    """
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must be in [0, 1], got {gamma}")
    if method not in _METHODS:
        raise ParameterError(f"method must be one of {_METHODS}, got {method!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    if start_k < 2:
        raise ParameterError(f"start_k must be at least 2, got {start_k}")
    if start_k > 2 and initial_trusses is None:
        raise ParameterError(
            "resuming at start_k > 2 requires initial_trusses"
        )

    if n_samples is None:
        n_samples = hoeffding_sample_size(epsilon, delta)
    if samples is None:
        samples = WorldSampleSet.from_graph(graph, n_samples, seed=rng,
                                            progress=progress)
    oracle = GlobalTrussOracle(samples, progress=progress)

    own_executor = None
    if executor is None:
        from repro.parallel import ParallelExecutor

        # None means serial: the inline executor (0 would mean "auto").
        own_executor = ParallelExecutor(
            1 if workers is None else workers, graph=graph,
            samples=samples, oracle=oracle,
        ).start()
        executor = own_executor
    else:
        executor.attach_oracle(oracle)
    if rng_root is not None:
        root = int(rng_root)
    elif isinstance(seed, int):
        root = seed
    else:
        # One draw from the main stream anchors every per-seed stream of
        # this run; Generator/None seeds are therefore reproducible
        # within a run but not across checkpoint resume — the harness
        # enforces an int seed for every checkpointed run. Every worker
        # count derives the root identically (same rng state at this
        # point), which keeps GBU output byte-identical across workers.
        root = int(rng.integers(0, np.iinfo(np.int64).max))
    try:
        if local_result is None:
            local_result = local_truss_decomposition(graph, gamma)
        elif abs(local_result.gamma - gamma) > 1e-15:
            raise ParameterError(
                "local_result was computed for a different gamma "
                f"({local_result.gamma} != {gamma})"
            )
        return _decomposition_levels(
            graph, gamma, epsilon, delta, method, samples, oracle,
            local_result, max_k, max_states, progress, start_k,
            initial_trusses, executor, root, frontier_state,
        )
    finally:
        if own_executor is not None:
            own_executor.close()


def _decomposition_levels(
    graph: ProbabilisticGraph,
    gamma: float,
    epsilon: float,
    delta: float,
    method: str,
    samples: WorldSampleSet,
    oracle: GlobalTrussOracle,
    local_result: LocalTrussResult,
    max_k: int | None,
    max_states: int | None,
    progress,
    start_k: int,
    initial_trusses: dict[int, list[ProbabilisticGraph]] | None,
    executor,
    root: int,
    frontier_state: dict | None = None,
) -> GlobalTrussResult:
    """The Algorithm 3 k-loop: one search per connected piece per level."""

    result = GlobalTrussResult(
        graph=graph, gamma=gamma, epsilon=epsilon, delta=delta,
        n_samples=samples.n_samples, method=method,
    )
    if initial_trusses:
        for level, trusses in initial_trusses.items():
            result.trusses[level] = list(trusses)

    if start_k == 2:
        # S_1 = all edges of G (Eq. 11's base case).
        prev_union: set[Edge] = {edge_key(u, v) for u, v in graph.edges()}
    else:
        prev_union = set()
        for t in result.trusses.get(start_k - 1, []):
            prev_union |= {edge_key(u, v) for u, v in t.edges()}
    k = start_k
    while prev_union:
        if max_k is not None and k > max_k:
            break
        if progress is not None:
            from repro.runtime.progress import ProgressEvent

            progress(ProgressEvent(
                "global-level", step=k, detail={"method": method},
            ))
        # Finished levels are never revisited: drop their memoised
        # evaluations (and the recomputable frequency memo) so the
        # oracle's footprint is bounded by one level, not the whole run.
        oracle.trim_level_cache(k)
        local_edges = {e for e, tau in local_result.trussness.items() if tau >= k}
        candidates = local_edges & prev_union
        candidates = k_truss_edges(graph, candidates, k)
        if not candidates:
            break
        found: dict[frozenset[Edge], ProbabilisticGraph] = {}
        pieces = _edge_subgraphs_of_components(graph, candidates)
        level_frontier = None
        resume_comp = -1
        if (method == "gtd" and frontier_state is not None
                and int(frontier_state["k"]) == k):
            # One-shot: the snapshot belongs to exactly this level.
            level_frontier, frontier_state = frontier_state, None
            resume_comp = int(level_frontier["comp_index"])
            for t_edges in level_frontier["found"]:
                t = graph.edge_subgraph(list(t_edges))
                found.setdefault(frozenset(t.edges()), t)
        for comp_index, piece in enumerate(pieces):
            if comp_index < resume_comp:
                # Fully searched before the snapshot; its answers were
                # restored from the snapshot's `found` above.
                continue
            trusses = None
            if method == "gtd":
                trusses = top_down_search(
                    executor, k, piece, gamma, max_states, progress,
                    comp_index=comp_index, level_found=found,
                    resume_state=(level_frontier
                                  if comp_index == resume_comp else None),
                )
            if trusses is None:
                # GBU, or a quarantined GTD frontier shard: this piece
                # degrades to the bottom-up heuristic (top_down_search
                # records the fallback on the quarantine records).
                trusses = bottom_up_search(
                    executor, oracle, k, piece, gamma, root, progress,
                    comp_index=comp_index,
                )
            for t in trusses:
                found.setdefault(frozenset(t.edges()), t)
        # Line 12: keep only the maximal answers.
        maximal = _filter_maximal(found)
        if not maximal:
            break
        result.trusses[k] = list(maximal.values())
        if progress is not None:
            from repro.runtime.progress import ProgressEvent

            # Emitted *after* the level is recorded: a hook that raises
            # here (budget, interrupt) loses no completed work, and a
            # checkpointing hook sees the finished level in ``detail``.
            progress(ProgressEvent(
                "global-level-done", step=k,
                detail={"k": k, "trusses": list(maximal.values()),
                        "method": method},
            ))
        prev_union = set().union(*maximal.keys())
        k += 1
    return result


def _filter_maximal(
    found: dict[frozenset[Edge], ProbabilisticGraph]
) -> dict[frozenset[Edge], ProbabilisticGraph]:
    """Drop answers whose edge set is a proper subset of another answer's."""
    keys = sorted(found, key=len, reverse=True)
    kept: dict[frozenset[Edge], ProbabilisticGraph] = {}
    for key in keys:
        if any(key < other for other in kept):
            continue
        kept[key] = found[key]
    return kept
