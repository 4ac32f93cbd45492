"""Parallel scaling — ``--workers`` speedup at bit-identical output.

Two scenarios, each asserting the correctness claim unconditionally
(byte-identical serialised results for every worker count) and the
speedup claim only when the machine actually has cores to scale onto:

* **GBU / inter-component** — the Figure 6 mid-size configuration
  (FruitFly, gamma = 0.7): seed evaluations fan out across components.
* **GTD / intra-component frontier sharding** — a planted-truss graph
  that is one giant component, where inter-component fan-out has
  nothing to parallelise: speedup must come entirely from sharding each
  peel round's frontier (see docs/performance.md).

Besides the CSV rows, per-phase wall-clock attributions (sampling /
oracle / frontier / other, measured between progress events) are
written to ``bench_results/parallel_scaling.json`` so scaling
regressions can be pinned to a phase, not just a total.
"""

import json
import os
import time
from pathlib import Path

from repro import global_truss_decomposition
from repro.graphs.generators import planted_truss_graph
from repro.runtime import serialize_global_result

from benchmarks.conftest import (
    bench_scale,
    cached_dataset,
    print_header,
    run_once,
    save_rows,
)

_GAMMA = 0.7
_WORKER_COUNTS = (1, 4)

#: Cores needed before the speedup assertions are meaningful for 4
#: workers.
_MIN_CORES_FOR_SPEEDUP = 4

#: Single-component GTD scenario: ~45 edges, closure of a few hundred
#: residual states with peel rounds up to ~280 candidates wide — wide
#: enough that frontier shards keep 4 workers busy — and a sample set
#: large enough that the per-candidate oracle test dominates.
_GTD_GRAPH = dict(n_background=16, clique_size=6, background_density=0.12,
                  clique_probability=0.75, background_probability=0.375,
                  seed=11)
_GTD_GAMMA = 0.45
_GTD_SAMPLES = 2000
_GTD_MAX_STATES = 60_000

#: Progress phase -> timing bucket for the per-phase attribution.
_PHASE_BUCKETS = {
    "sample-batch": "sampling",
    "oracle-eval": "oracle",
    "gtd-state": "frontier",
    "gtd-frontier": "frontier",
}


class PhaseTimer:
    """Progress hook attributing inter-event wall time to coarse buckets.

    The elapsed time since the previous event is charged to the bucket
    of the *current* event's phase (the work that just finished emitted
    it). With workers the in-pool phases arrive coalesced through the
    pump, so parallel attributions are sampled rather than exact —
    fine for the macro question "which phase stopped scaling".
    """

    def __init__(self):
        self.buckets = {"sampling": 0.0, "oracle": 0.0, "frontier": 0.0,
                        "other": 0.0}
        self._last = time.perf_counter()

    def __call__(self, event) -> None:
        now = time.perf_counter()
        bucket = _PHASE_BUCKETS.get(event.phase, "other")
        self.buckets[bucket] += now - self._last
        self._last = now

    def rounded(self) -> dict:
        return {name: round(seconds, 4)
                for name, seconds in self.buckets.items()}


def _save_phase_json(scenario: str, entries: dict) -> str:
    """Merge one scenario's timings into parallel_scaling.json."""
    out_dir = Path(__file__).resolve().parent.parent / "bench_results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / "parallel_scaling.json"
    doc = {}
    if path.exists():
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            doc = {}
    doc[scenario] = entries
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return str(path)


def _sweep(graph, worker_counts, **kwargs):
    """Run the decomposition once per worker count, timing each pass."""
    rows = []
    for workers in worker_counts:
        timer = PhaseTimer()
        t0 = time.perf_counter()
        result = global_truss_decomposition(
            graph, workers=workers, progress=timer, **kwargs,
        )
        elapsed = time.perf_counter() - t0
        rows.append((workers, elapsed, timer.rounded(), result.k_max,
                     serialize_global_result(result)))
    return rows


def _report(scenario, rows, title):
    serial_t = rows[0][1]
    save_rows(f"parallel_scaling_{scenario}",
              ["workers", "seconds", "k_max", "speedup"],
              [(w, t, k, serial_t / t) for w, t, _, k, _ in rows])
    path = _save_phase_json(scenario, {
        str(workers): {"seconds": round(elapsed, 4),
                       "speedup": round(serial_t / elapsed, 3),
                       "phases": phases}
        for workers, elapsed, phases, _, _ in rows
    })
    print_header(
        f"{title} ({os.cpu_count()} cores)",
        f"{'workers':>8} {'seconds':>9} {'speedup':>8} {'k_max':>6}  phases",
    )
    for workers, elapsed, phases, k_max, _ in rows:
        summary = " ".join(f"{k}={v:.2f}s" for k, v in phases.items() if v)
        print(f"{workers:>8} {elapsed:>9.2f} {serial_t / elapsed:>8.2f} "
              f"{k_max:>6}  {summary}")
    print(f"per-phase timings -> {path}")

    # Correctness is unconditional: every worker count, same bytes.
    blobs = {blob for _, _, _, _, blob in rows}
    assert len(blobs) == 1, f"{scenario}: workers disagree on the result"
    return serial_t


def test_parallel_scaling_gbu(benchmark):
    graph = cached_dataset("fruitfly", scale=bench_scale(0.35))
    rows = run_once(benchmark, _sweep, graph, _WORKER_COUNTS,
                    gamma=_GAMMA, method="gbu", seed=1)
    serial_t = _report("gbu", rows, f"GBU scaling (fruitfly, gamma={_GAMMA})")

    cores = os.cpu_count() or 1
    if cores >= _MIN_CORES_FOR_SPEEDUP:
        parallel_t = rows[-1][1]
        assert serial_t / parallel_t >= 2.0, (
            f"expected >= 2x with {_WORKER_COUNTS[-1]} workers on "
            f"{cores} cores, got {serial_t / parallel_t:.2f}x"
        )


def test_parallel_scaling_gtd_frontier(benchmark):
    graph, _ = planted_truss_graph(**_GTD_GRAPH)
    rows = run_once(benchmark, _sweep, graph, _WORKER_COUNTS,
                    gamma=_GTD_GAMMA, method="gtd", seed=9,
                    n_samples=_GTD_SAMPLES, max_states=_GTD_MAX_STATES)
    serial_t = _report(
        "gtd_frontier", rows,
        f"GTD frontier sharding (planted truss, single component, "
        f"gamma={_GTD_GAMMA})",
    )

    # One component: any speedup here is intra-component by construction.
    cores = os.cpu_count() or 1
    if cores >= _MIN_CORES_FOR_SPEEDUP:
        parallel_t = rows[-1][1]
        assert serial_t / parallel_t >= 1.5, (
            f"expected >= 1.5x from frontier sharding with "
            f"{_WORKER_COUNTS[-1]} workers on {cores} cores, got "
            f"{serial_t / parallel_t:.2f}x"
        )
