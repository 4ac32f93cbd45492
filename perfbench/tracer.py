"""Spans around the public functions of each layer, installed from outside.

The benchmark never edits ``src/``: it replaces a layer's public
function (or method) with a wrapper that records a span and restores
the original afterwards.  A module function is also rebound wherever
another ``repro`` module imported it by name, so every call site sees
the wrapper.

A span is ``[id, parent, name, start, end, tag, counts]``.  ``parent``
comes from a per-thread stack, so nested calls form a tree; ``tag``
carries a request id on the service side.  Spans stay in memory until
:meth:`Tracer.dump` writes them out once.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import threading
import time

# span name -> layer; the per-layer metrics are computed per layer.
LAYER_OF = {
    "sampling.from_graph": "sampling",
    "sampling.draw_next": "sampling",
    "oracle.satisfies_edges": "oracle",
    "oracle.alpha_estimates": "oracle",
    "kernels.row_sums": "kernels",
    "kernels.masked_column_counts": "kernels",
    "kernels.dedup_candidate_patterns": "kernels",
    "kernels.classify_worlds_packed": "kernels",
    "kernels.connected_mask": "kernels",
    "kernels.truss_ok": "kernels",
    "search.global_truss_decomposition": "search",
    "dp.from_edge": "dp",
    "dp.from_factors": "dp",
    "dp.remove_triangle": "dp",
    "local.local_truss_decomposition": "local",
    "nucleus.nucleus_decomposition": "nucleus",
    "pool.start": "pool",
    "pool.map": "pool",
    "pool.close": "pool",
    "harness.run_global": "harness",
    "harness.run_local": "harness",
    "harness.run_nucleus": "harness",
    "checkpoint.save": "checkpoint",
    "service.acquire": "service",
    "service.handle": "service",
    "service.handle_http": "service",
}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _cells(rows, cols) -> dict:
    return {"cells": int(rows) * int(cols)}


def _count_row_sums(args, kwargs, result) -> dict:
    packed = _arg(args, kwargs, 0, "packed")
    return _cells(_arg(args, kwargs, 1, "n_samples"), packed.shape[1])


def _count_masked(args, kwargs, result) -> dict:
    packed = _arg(args, kwargs, 0, "packed")
    return _cells(packed.shape[0] * 8, packed.shape[1])


def _count_dedup(args, kwargs, result) -> dict:
    packed = _arg(args, kwargs, 0, "packed")
    return _cells(len(_arg(args, kwargs, 1, "candidate_rows")),
                  packed.shape[1])


def _count_classify(args, kwargs, result) -> dict:
    return _cells(len(_arg(args, kwargs, 4, "candidate_rows")),
                  len(_arg(args, kwargs, 0, "edges")))


def _count_connected(args, kwargs, result) -> dict:
    patterns = _arg(args, kwargs, 1, "patterns")
    return _cells(patterns.shape[0], patterns.shape[1])


def _count_truss_ok(args, kwargs, result) -> dict:
    return {"cells": len(_arg(args, kwargs, 1, "present_columns"))}


def _count_from_graph(args, kwargs, result) -> dict:
    return {"worlds": int(result.n_samples)}


def _count_draw_next(args, kwargs, result) -> dict:
    return {"worlds": int(result.shape[0])}


def _count_map(args, kwargs, result) -> dict:
    live = getattr(args[0], "pool_workers", 1) > 1
    payloads = _arg(args, kwargs, 2, "payloads")
    return {"tasks": len(payloads) if live else 0, "live": int(live)}


def _count_start(args, kwargs, result) -> dict:
    executor = args[0]
    live = getattr(executor, "pool_workers", 1) > 1
    return {"min_cells": executor.parallel_min_cells or 0, "live": int(live)}


def _count_search(args, kwargs, result) -> dict:
    return {"levels": len(result.trusses)}


def layer_targets():
    """``(owner, attribute, span name, counter)`` for every wrapped call."""
    from repro.core import global_decomp, kernels, local, nucleus
    from repro.core.global_truss import GlobalTrussOracle
    from repro.core.support_prob import SupportProbability
    from repro.graphs.sampling import SampleBatcher, WorldSampleSet
    from repro.parallel.executor import ParallelExecutor
    from repro.runtime import harness
    from repro.runtime.checkpoint import CheckpointStore
    from repro.service.admission import AdmissionController
    from repro.service.server import TrussService

    targets = [
        (WorldSampleSet, "from_graph", "sampling.from_graph",
         _count_from_graph),
        (SampleBatcher, "draw_next", "sampling.draw_next", _count_draw_next),
        (GlobalTrussOracle, "satisfies_edges", "oracle.satisfies_edges",
         None),
        (GlobalTrussOracle, "alpha_estimates", "oracle.alpha_estimates",
         None),
        (kernels, "row_sums", "kernels.row_sums", _count_row_sums),
        (kernels, "masked_column_counts", "kernels.masked_column_counts",
         _count_masked),
        (kernels, "dedup_candidate_patterns",
         "kernels.dedup_candidate_patterns", _count_dedup),
        (kernels, "classify_worlds_packed", "kernels.classify_worlds_packed",
         _count_classify),
        (kernels.WorldClassifier, "connected_mask", "kernels.connected_mask",
         _count_connected),
        (kernels.WorldClassifier, "truss_ok", "kernels.truss_ok",
         _count_truss_ok),
        (global_decomp, "global_truss_decomposition",
         "search.global_truss_decomposition", _count_search),
        (SupportProbability, "from_edge", "dp.from_edge", None),
        (SupportProbability, "from_factors", "dp.from_factors", None),
        (SupportProbability, "remove_triangle", "dp.remove_triangle", None),
        (local, "local_truss_decomposition",
         "local.local_truss_decomposition", None),
        (nucleus, "nucleus_decomposition", "nucleus.nucleus_decomposition",
         None),
        (ParallelExecutor, "map", "pool.map", _count_map),
        (ParallelExecutor, "close", "pool.close", None),
        (harness, "run_global", "harness.run_global", None),
        (harness, "run_local", "harness.run_local", None),
        (harness, "run_nucleus", "harness.run_nucleus", None),
        (AdmissionController, "acquire", "service.acquire", None),
        (TrussService, "handle", "service.handle", None),
        (TrussService, "handle_http", "service.handle_http", None),
    ]
    targets.extend(
        (CheckpointStore, name, "checkpoint.save", None)
        for name in ("save_manifest", "save_sample_batch", "save_level",
                     "save_frontier")
    )
    return targets + pool_start_targets()


class Tracer:
    """In-memory span recorder; only the creating process records."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._pid = os.getpid()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, tag=None) -> list | None:
        """Open a span on this thread; None in forked pool workers."""
        if os.getpid() != self._pid:
            return None
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span = [self._next_id, stack[-1][0] if stack else 0, name,
                    time.perf_counter(), 0.0, tag, None]
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list | None, counts: dict | None = None) -> None:
        if span is None:
            return
        span[4] = time.perf_counter()
        span[6] = counts
        self._stack().pop()

    def wrap(self, fn, name: str, counter=None, tagger=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(
                name, tagger(args) if tagger is not None else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(span)
                raise
            tracer.end(span, counter(args, kwargs, result)
                       if counter is not None and span is not None else None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path: str) -> None:
        """Write every span once, as gzipped JSON lines."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def load_spans(path: str) -> list[list]:
    with gzip.open(path, "rt") as src:
        return [json.loads(line) for line in src]


class Patches:
    """Installs wrappers on the layer boundaries and restores them."""

    def __init__(self, tracer: Tracer, targets, taggers=None) -> None:
        self.tracer = tracer
        self.targets = targets
        self.taggers = taggers or {}
        self._undo: list[tuple] = []

    def install(self) -> "Patches":
        for owner, attr, name, counter in self.targets:
            raw = owner.__dict__[attr]
            tagger = self.taggers.get(name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.tracer.wrap(
                    raw.__func__, name, _skip_cls(counter), tagger))
            else:
                wrapped = self.tracer.wrap(raw, name, counter, tagger)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            if isinstance(owner, type(sys)):
                # Rebind ``from module import name`` copies elsewhere.
                for module in list(sys.modules.values()):
                    if (module is not owner and module is not None
                            and getattr(module, "__name__", "").startswith(
                                "repro")
                            and module.__dict__.get(attr) is raw):
                        self._undo.append((module, attr, raw))
                        setattr(module, attr, wrapped)
        return self

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def __enter__(self) -> "Patches":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


def _skip_cls(counter):
    """Adapt a counter to a classmethod's ``(cls, *args)`` call."""
    if counter is None:
        return None
    return lambda args, kwargs, result: counter(args[1:], kwargs, result)


def pool_start_targets():
    """Just ``ParallelExecutor.start``: O(1) per pool, so untraced runs
    use it to record each pool's calibrated dispatch threshold."""
    from repro.parallel.executor import ParallelExecutor

    return [(ParallelExecutor, "start", "pool.start", _count_start)]


# ---------------------------------------------------------------------
# per-layer metrics from a span list

#: Per-layer metrics fed by batch ops (``serve.service_metrics`` gives
#: the service ones).  Values are per op, averaged over the traced ops.
BATCH_LAYER_METRICS = (
    "sampling.busy_s", "sampling.worlds",
    "oracle.calls", "oracle.self_s", "oracle.classify_ratio",
    "kernels.busy_s", "kernels.calls", "kernels.cells",
    "search.self_s", "search.levels",
    "dp.init_s", "dp.updates", "dp.update_s",
    "local.self_s", "nucleus.self_s",
    "pool.start_s", "pool.maps", "pool.tasks", "pool.wait_s",
    "pool.min_cells",
    "harness.self_s", "checkpoint.writes", "checkpoint.busy_s",
)

_REACHES_CLASSIFY = ("kernels.dedup_candidate_patterns",
                     "kernels.classify_worlds_packed", "pool.map")


class SpanTree:
    """Parent/child index over spans, with durations and self times."""

    def __init__(self, spans: list[list]) -> None:
        self.by_id = {s[0]: s for s in spans}
        self.children: dict[int, list[list]] = {}
        for s in spans:
            self.children.setdefault(s[1], []).append(s)

    @staticmethod
    def duration(span: list) -> float:
        return span[4] - span[3]

    def self_time(self, span: list) -> float:
        return self.duration(span) - sum(
            self.duration(c) for c in self.children.get(span[0], ()))

    def layer_of_parent(self, span: list) -> str | None:
        parent = self.by_id.get(span[1])
        return LAYER_OF.get(parent[2]) if parent is not None else None

    def ancestor_in(self, span: list, layer: str) -> list | None:
        parent = self.by_id.get(span[1])
        while parent is not None:
            if LAYER_OF.get(parent[2]) == layer:
                return parent
            parent = self.by_id.get(parent[1])
        return None

    def descendants(self, span: list):
        todo = list(self.children.get(span[0], ()))
        while todo:
            child = todo.pop()
            yield child
            todo.extend(self.children.get(child[0], ()))


def batch_layer_metrics(tree: SpanTree, serial_ops: list[list],
                        pool_ops: list[list]) -> dict[str, float]:
    """Per-op layer metrics: pool.* from the pool ops' parent side,
    everything else from the serial ops (worker spans are out of reach)."""
    totals = dict.fromkeys(BATCH_LAYER_METRICS, 0.0)
    oracle_reaching = 0
    for op in serial_ops:
        for span in tree.descendants(op):
            name, counts = span[2], span[6] or {}
            layer = LAYER_OF.get(name)
            top = tree.layer_of_parent(span) != layer
            dur = tree.duration(span)
            if layer == "sampling" and top:
                totals["sampling.busy_s"] += dur
                totals["sampling.worlds"] += counts.get("worlds", 0)
            elif layer == "oracle":
                totals["oracle.self_s"] += tree.self_time(span)
                if top:
                    totals["oracle.calls"] += 1
                    if any(d[2] in _REACHES_CLASSIFY
                           for d in tree.descendants(span)):
                        oracle_reaching += 1
            elif layer == "kernels" and top:
                totals["kernels.busy_s"] += dur
                totals["kernels.calls"] += 1
                totals["kernels.cells"] += counts.get("cells", 0)
            elif layer == "search":
                totals["search.self_s"] += tree.self_time(span)
                totals["search.levels"] += counts.get("levels", 0)
            elif name == "dp.remove_triangle":
                totals["dp.updates"] += 1
                totals["dp.update_s"] += dur
            elif layer == "dp":
                totals["dp.init_s"] += dur
            elif layer in ("local", "nucleus", "harness"):
                totals[f"{layer}.self_s"] += tree.self_time(span)
            elif layer == "checkpoint":
                totals["checkpoint.writes"] += 1
                totals["checkpoint.busy_s"] += dur
    min_cells = []
    for op in pool_ops:
        for span in tree.descendants(op):
            counts = span[6] or {}
            if not counts.get("live"):
                continue
            if span[2] in ("pool.start", "pool.close"):
                totals["pool.start_s"] += tree.duration(span)
            if span[2] == "pool.start":
                min_cells.append(counts["min_cells"])
            elif span[2] == "pool.map":
                totals["pool.maps"] += 1
                totals["pool.tasks"] += counts["tasks"]
                totals["pool.wait_s"] += tree.duration(span)
    n_serial, n_pool = max(len(serial_ops), 1), max(len(pool_ops), 1)
    out = {}
    for name, value in totals.items():
        out[name] = value / (n_pool if name.startswith("pool.") else n_serial)
    out["oracle.classify_ratio"] = (
        oracle_reaching / totals["oracle.calls"]
        if totals["oracle.calls"] else 0.0)
    out["pool.min_cells"] = max(min_cells, default=0)
    return out


def coverage(tree: SpanTree, ops: list[list]) -> float:
    """Share of the ops' wall time covered by their top-level spans."""
    wall = sum(tree.duration(op) for op in ops)
    covered = sum(tree.duration(c) for op in ops
                  for c in tree.children.get(op[0], ()))
    return covered / wall if wall else 0.0
