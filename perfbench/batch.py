"""The batch workloads: one decomposition call per op, serial and pooled.

Each run makes a fresh input graph per op pair from ``(seed, pair)``,
times the ``workers=None`` op and the ``workers=2`` op back to back
(alternating which goes first, so machine drift hits both modes
alike), checks both results, and reports medians over the pairs.

The dataset stand-ins keep one topology per workload, drawn from a
fixed structural seed as a real dataset would be fixed; the run seed
seeds the algorithms and, on ``peel-dense``, draws each input's edge
probabilities from the dataset's own probability model (``gbu-dblp``
keeps fixed ones, see ``GbuDblp``).  The planted graphs of
``gtd-planted`` come wholly from the run seed: their cost is set by the
planted clique, which every seed shares.

Run as a script, this module performs one set-up in a fresh
interpreter (``--setup``); ``run.py`` times several of those.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import common
import tracer

GAMMA_GTD = 0.45
GAMMA_GBU = 0.5
GAMMA_PEEL = 0.3
GTD_SAMPLES = 1000


class Workload:
    """One batch workload: inputs, the op, and its output checks."""

    name = ""

    def __init__(self, tiny: bool) -> None:
        self.tiny = tiny

    def make_input(self, seed: int):
        raise NotImplementedError

    def warm_input(self, seed: int):
        """A small graph of the same family, for the warm-up ops."""
        raise NotImplementedError

    def op(self, graph, seed: int, workers, scratch: str):
        """Run the op; returns ``(canonical bytes, problems, result)``."""
        raise NotImplementedError

    def check_graph(self, graph, seed: int, result) -> list[str]:
        """Untimed checks of one input's result (run once per input)."""
        return []

    def check_run(self, graph, seed: int) -> list[str]:
        """Untimed checks made once per run."""
        return []


class GtdPlanted(Workload):
    name = "gtd-planted"

    def _graph(self, seed: int, clique: int):
        from repro.graphs.generators import planted_truss_graph

        graph, _ = planted_truss_graph(
            n_background=16, clique_size=clique, background_density=0.12,
            clique_probability=0.75, background_probability=0.375,
            seed=seed)
        return graph

    def make_input(self, seed):
        return self._graph(seed, 5 if self.tiny else 6)

    def warm_input(self, seed):
        return self._graph(seed, 5)

    def op(self, graph, seed, workers, scratch):
        from repro.core.global_decomp import global_truss_decomposition
        from repro.runtime.result import serialize_global_result

        result = global_truss_decomposition(
            graph, GAMMA_GTD, method="gtd", n_samples=GTD_SAMPLES,
            max_states=60000, seed=seed, workers=workers)
        problems = [] if result.method == "gtd" else [
            f"method fell back to {result.method}"]
        return serialize_global_result(result), problems, result

    def check_graph(self, graph, seed, result):
        import numpy as np

        from repro.core.global_truss import GlobalTrussOracle
        from repro.graphs.sampling import WorldSampleSet

        samples = WorldSampleSet.from_graph(
            graph, GTD_SAMPLES, seed=np.random.default_rng(seed))
        oracle = GlobalTrussOracle(samples)
        return [
            f"k={k} truss fails a fresh oracle"
            for k, trusses in sorted(result.trusses.items())
            for truss in trusses
            if not oracle.satisfies(truss, k, GAMMA_GTD)
        ]


@functools.lru_cache(maxsize=None)
def _topology(name: str, scale: float):
    from repro.datasets import load_dataset

    return load_dataset(name, seed=common.TOPOLOGY_SEED, scale=scale)


def _dataset_input(name: str, scale: float, assign, seed: int):
    """The fixed topology of ``name`` with probabilities from ``seed``."""
    return assign(_topology(name, scale).copy(), seed=seed)


def _partial_problems(partial) -> list[str]:
    if partial.complete and not partial.degraded and partial.reason is None:
        return []
    return [f"{partial.kind} run degraded: {partial.summary()}"]


class GbuDblp(Workload):
    """Its edge probabilities are fixed too, drawn from the topology seed.

    How far GBU explores depends on them: redrawn per input, they spread
    op times by 13-19% (coefficient of variation), against 5-7% when
    fixed.  The run seed still seeds every op's sampling.
    """

    name = "gbu-dblp"

    def _input(self, scale):
        from repro.datasets.probability_models import (
            assign_exponential_collaboration)

        return _dataset_input("dblp", scale, assign_exponential_collaboration,
                              common.TOPOLOGY_SEED)

    def make_input(self, seed):
        return self._input(0.1 if self.tiny else 0.3)

    def warm_input(self, seed):
        return self._input(0.1)

    def op(self, graph, seed, workers, scratch):
        from repro.runtime import run_global
        from repro.runtime.result import serialize_global_result

        checkpoint = tempfile.mkdtemp(prefix="ckpt-", dir=scratch)
        try:
            partial = run_global(graph, GAMMA_GBU, method="gbu", seed=seed,
                                 checkpoint_dir=checkpoint, workers=workers)
        finally:
            shutil.rmtree(checkpoint, ignore_errors=True)
        return (serialize_global_result(partial.result),
                _partial_problems(partial), partial)


class PeelDense(Workload):
    name = "peel-dense"

    def _input(self, seed, scale):
        from repro.datasets.probability_models import assign_uniform

        return _dataset_input("wikivote", scale, assign_uniform, seed)

    def make_input(self, seed):
        return self._input(seed, 0.1 if self.tiny else 1.0)

    def warm_input(self, seed):
        return self._input(seed, 0.1)

    def op(self, graph, seed, workers, scratch):
        from repro.runtime import run_local, run_nucleus
        from repro.runtime.result import (serialize_local_result,
                                          serialize_nucleus_result)

        local = run_local(graph, GAMMA_PEEL, workers=workers)
        nucleus = run_nucleus(graph, 3, 4, GAMMA_PEEL, workers=workers)
        return (serialize_local_result(local.result) + b"\n"
                + serialize_nucleus_result(nucleus.result),
                _partial_problems(local) + _partial_problems(nucleus), None)

    def check_run(self, graph, seed):
        from repro.runtime import run_local, run_nucleus
        from repro.runtime.result import (serialize_local_result,
                                          serialize_nucleus_result)

        local = run_local(graph, GAMMA_PEEL)
        nucleus = run_nucleus(graph, 2, 3, GAMMA_PEEL)
        truss = json.loads(serialize_local_result(local.result))["trussness"]
        scores = json.loads(serialize_nucleus_result(nucleus.result))["scores"]
        if truss != scores:
            return ["(2,3)-nucleus scores differ from the local trussness"]
        return []


WORKLOADS = {w.name: w for w in (GtdPlanted, GbuDblp, PeelDense)}


def warm_up(workload: Workload, seed: int, scratch: str) -> None:
    sub = common.sub_seed(seed, -1)
    graph = workload.warm_input(sub)
    for workers in (None, 2):
        workload.op(graph, sub, workers, scratch)


def setup_once(name: str, seed: int, tiny: bool) -> None:
    """One set-up, as a user pays it: imports, input, warm-up per mode."""
    workload = WORKLOADS[name](tiny)
    with common.scratch_dir("setup-") as scratch:
        workload.make_input(common.sub_seed(seed, 0))
        warm_up(workload, seed, scratch)


def time_setups(name: str, seed: int, tiny: bool, reps: int,
                watch: common.Stopwatch) -> tuple[list, list]:
    """Raw and scaled seconds of set-ups, each in a fresh interpreter."""
    raw, scaled = [], []
    for _ in range(reps):
        _, elapsed, factor = watch.run(functools.partial(
            subprocess.run,
            [sys.executable, os.path.abspath(__file__), "--setup", name,
             str(seed), "1" if tiny else "0"],
            check=True, env=common.child_env(), timeout=120))
        raw.append(elapsed)
        scaled.append(elapsed * factor)
    return raw, scaled


def measure(name: str, seed: int, seconds: float, tiny: bool,
            setup_reps: int) -> dict:
    """The untraced run: end-to-end metrics of one batch workload."""
    workload = WORKLOADS[name](tiny)
    watch = common.Stopwatch()
    raw = {"setup_s": [], "serial_s": [], "pool_s": []}
    scaled = {key: [] for key in raw}
    raw["setup_s"], scaled["setup_s"] = time_setups(
        name, seed, tiny, setup_reps, watch)
    probe = tracer.Tracer()
    attempted = failed = 0
    problems_seen: list[str] = []
    with common.scratch_dir("batch-") as scratch, \
            tracer.Patches(probe, tracer.pool_start_targets()):
        warm_up(workload, seed, scratch)
        deadline = time.perf_counter() + seconds
        pair = 0
        first_graph = None
        while pair < 2 or time.perf_counter() < deadline:
            sub = common.sub_seed(seed, pair)
            graph = workload.make_input(sub)
            if first_graph is None:
                first_graph = graph
            results = {}
            for workers in ((None, 2) if pair % 2 == 0 else (2, None)):
                (result_bytes, problems, result), elapsed, factor = watch.run(
                    workload.op, graph, sub, workers, scratch)
                if workers is None:
                    problems = problems + workload.check_graph(
                        graph, sub, result)
                key = "serial_s" if workers is None else "pool_s"
                raw[key].append(elapsed)
                scaled[key].append(elapsed * factor)
                results[workers] = result_bytes
                attempted += 1
                failed += bool(problems)
                problems_seen.extend(problems)
            if results[None] != results[2]:
                failed += 1
                problems_seen.append(
                    f"pair {pair}: workers=None and workers=2 bytes differ")
            pair += 1
        run_problems = workload.check_run(first_graph, common.sub_seed(seed, 0))
        attempted += 1
        failed += bool(run_problems)
        problems_seen.extend(run_problems)
        peak_rss_mb = common.peak_rss_mb(os.getpid())
        peak_alloc_mb = _peak_alloc_mb(workload, first_graph,
                                       common.sub_seed(seed, 0), scratch)
    min_cells = sorted({s[6]["min_cells"] for s in probe.spans
                        if s[2] == "pool.start" and s[6] and s[6]["live"]})
    return {
        "metrics": {
            "setup_s": statistics.median(scaled["setup_s"]),
            "serial_s": statistics.median(scaled["serial_s"]),
            "pool_s": statistics.median(scaled["pool_s"]),
            "peak_alloc_mb": peak_alloc_mb,
            "peak_rss_mb": peak_rss_mb,
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems_seen,
        "samples": {"pairs": pair, "setups": setup_reps},
        "pool_min_cells": min_cells,
        "raw": raw,
        "scale_median": statistics.median(watch.factors),
    }


def _peak_alloc_mb(workload, graph, seed, scratch) -> float:
    """``tracemalloc`` peak of one serial op, in its own repetition."""
    tracemalloc.start()
    try:
        workload.op(graph, seed, None, scratch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def trace(name: str, seed: int, pairs: int, tiny: bool) -> dict:
    """The traced run: a fixed number of pairs, so counts repeat exactly.

    Every pair also runs each op untraced (alternating which goes
    first), which gives the tracing overhead on the same inputs, in
    reference-scaled seconds like the untraced run's.
    """
    workload = WORKLOADS[name](tiny)
    spans = tracer.Tracer()
    patches = tracer.Patches(spans, tracer.layer_targets())
    ops = {None: [], 2: []}
    wall = {False: 0.0, True: 0.0}
    attempted = failed = 0

    watch = common.Stopwatch()

    def traced_op(graph, sub, workers, scratch):
        with patches:
            span = spans.begin("op.serial" if workers is None else "op.pool")
            try:
                return workload.op(graph, sub, workers, scratch)
            finally:
                spans.end(span)
                ops[workers].append(span)

    def run_op(graph, sub, workers, traced, scratch):
        (_, problems, _), elapsed, factor = watch.run(
            traced_op if traced else workload.op, graph, sub, workers,
            scratch)
        wall[traced] += elapsed * factor
        return problems

    with common.scratch_dir("trace-") as scratch:
        warm_up(workload, seed, scratch)
        for pair in range(pairs):
            sub = common.sub_seed(seed, pair)
            graph = workload.make_input(sub)
            for workers in (None, 2):
                for traced in (pair % 2 == 1, pair % 2 == 0):
                    attempted += 1
                    failed += bool(run_op(graph, sub, workers, traced,
                                          scratch))
    spans.dump(os.path.join(common.OUT_DIR, f"trace-{name}-{seed}.jsonl.gz"))
    tree = tracer.SpanTree(spans.spans)
    metrics = tracer.batch_layer_metrics(tree, ops[None], ops[2])
    metrics["trace.coverage"] = tracer.coverage(tree, ops[None] + ops[2])
    metrics["trace.overhead_frac"] = (wall[True] - wall[False]) / wall[False]
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "samples": {"pairs": pairs}}


if __name__ == "__main__" and sys.argv[1:2] == ["--setup"]:
    try:
        setup_once(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1")
    finally:
        common.end_children()
