"""The ``serve-mixed`` workload: a closed-loop client against ``repro serve``.

Set-up writes the input graphs to disk, starts the server and warms
three indexes; it is timed from process start until every warmed URL
answers.  The load then alternates blocks: one client sending one
request at a time, and two client threads in a closed loop.  Requests
go round-robin over ``/local``, ``/nucleus``, ``/global`` and
``/stats``; each opens its own connection (the server speaks HTTP/1.0).
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from urllib.parse import quote

import common
import tracer

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "serve_launcher.py")
ENDPOINTS = ("local", "nucleus", "global", "stats")
SINGLE_BLOCK = 40       # requests per one-client block
DUAL_BLOCK = 40         # requests per client per two-client block
TRACE_BLOCKS = 2        # block pairs in a traced run (a fixed count)


def write_graphs(seed: int, folder: str, tiny: bool) -> dict[str, str]:
    """The fixed topologies, wikivote's probabilities redrawn from ``seed``.

    The server's ``--seed`` (a sub-seed of the run seed) seeds the GBU
    sampling of the fruitfly index.
    """
    from repro.datasets import load_dataset
    from repro.datasets.probability_models import assign_uniform
    from repro.graphs.io import write_edge_list

    scale = 0.2 if tiny else 1.0
    graphs = {name: load_dataset(name, seed=common.TOPOLOGY_SEED, scale=scale)
              for name in ("wikivote", "fruitfly")}
    assign_uniform(graphs["wikivote"], seed=common.sub_seed(seed, 0))
    paths = {}
    for name, graph in graphs.items():
        paths[name] = os.path.join(folder, f"{name}.txt")
        write_edge_list(graph, paths[name])
    return paths


def urls(graphs: dict[str, str]) -> dict[str, str]:
    wv, ff = quote(graphs["wikivote"]), quote(graphs["fruitfly"])
    return {
        "local": f"/local?graph={wv}&gamma=0.3",
        "nucleus": f"/nucleus?graph={wv}&gamma=0.3&r=3&s=4",
        "global": f"/global?graph={ff}&gamma=0.5&method=gbu",
        "stats": f"/stats?graph={ff}",
    }


def request(port: int, url: str, headers: dict | None = None):
    """One GET on a fresh connection: ``(seconds, status, body)``."""
    started = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", url, headers=headers or {})
        response = conn.getresponse()
        body = response.read()
    finally:
        conn.close()
    return time.perf_counter() - started, response.status, body


class Server:
    """One launcher process; ``stop`` sends SIGTERM and waits for it."""

    def __init__(self, seed: int, folder: str, trace: bool) -> None:
        self.out = os.path.join(folder, "launcher.json")
        state = os.path.join(folder, "state")
        self.proc = subprocess.Popen(
            [sys.executable, LAUNCHER, self.out, "1" if trace else "0", "--",
             "--seed", str(common.sub_seed(seed, 1)), "serve",
             "--state-dir", state,
             "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=common.child_env(),
            cwd=common.ROOT)
        line = self.proc.stdout.readline()
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def warm(self, targets: dict[str, str]) -> None:
        """Build the three indexes and answer every URL once."""
        for name in ("local", "nucleus", "global"):
            request(self.port, targets[name])        # queue the builds
        for name in ENDPOINTS:
            url = targets[name]
            if name != "stats":
                url += "&wait=1&deadline=60"
            _, status, body = request(self.port, url)
            if status != 200 or json.loads(body).get("degraded"):
                raise RuntimeError(f"warm-up of {name} failed: {status}")

    def stop(self) -> dict:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        if not os.path.exists(self.out):
            return {}
        with open(self.out) as src:
            return json.load(src)


def start_warm(seed: int, folder: str, targets: dict, trace: bool) -> Server:
    """Start one server and warm it."""
    server = Server(seed, folder, trace)
    try:
        server.warm(targets)
    except BaseException:
        server.stop()
        raise
    return server


class Load:
    """Closed-loop request blocks with per-request records."""

    def __init__(self, port: int, targets: dict[str, str]) -> None:
        self.port = port
        self.targets = targets
        self.first: dict[str, bytes] = {}
        #: [mode, endpoint, rid, seconds, scaled seconds]
        self.records: list[list] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.dual_wall = 0.0
        self._rid = 0
        self._lock = threading.Lock()

    def _one(self, mode: str, endpoint: str) -> None:
        with self._lock:
            self._rid += 1
            self.attempted += 1
            rid = self._rid
        url = self.targets[endpoint]
        try:
            seconds, status, body = request(
                self.port, url, {"X-Bench-Rid": str(rid)})
        except OSError as err:
            with self._lock:
                self.failed += 1
                self.problems.append(f"{endpoint}: {err}")
            return
        problem = None
        if status != 200:
            problem = f"{endpoint}: status {status}"
        elif json.loads(body).get("degraded"):
            problem = f"{endpoint}: degraded answer"
        with self._lock:
            if problem is None and self.first.setdefault(url, body) != body:
                problem = f"{endpoint}: answer differs from the first"
            self.records.append([mode, endpoint, rid, seconds, None])
            if problem is not None:
                self.failed += 1
                self.problems.append(problem)

    def _stream(self, mode: str, offset: int, count: int) -> None:
        for i in range(count):
            self._one(mode, ENDPOINTS[(offset + i) % len(ENDPOINTS)])

    def single_block(self) -> None:
        self._stream("single", 0, SINGLE_BLOCK)

    def dual_block(self) -> None:
        threads = [threading.Thread(target=self._stream,
                                    args=("dual", offset, DUAL_BLOCK))
                   for offset in (0, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            if thread.is_alive():
                raise RuntimeError("client thread did not finish")

    def timed_block(self, watch: common.Stopwatch, block) -> None:
        """Run a block between reference samples and scale its records."""
        _, elapsed, factor = watch.run(block)
        for record in self.records:
            if record[4] is None:
                record[4] = record[3] * factor
        if block == self.dual_block:
            self.dual_wall += elapsed * factor

    def latencies(self, mode: str, endpoint: str | None = None,
                  scaled: bool = True) -> list:
        column = 4 if scaled else 3
        return [r[column] for r in self.records
                if r[0] == mode and endpoint in (None, r[1])]


def alloc_probe(server: Server, targets: dict) -> None:
    for url in targets.values():
        request(server.port, url, {"X-Bench-Alloc": "1"})


def _percentile_with_tail(values: list[float], share: float):
    """The ``share`` quantile of ``values`` and the count of samples above
    it; p99 needs 1000 samples for ten to lie above."""
    ordered = sorted(values)
    index = min(int(share * len(ordered)), len(ordered) - 1)
    return ordered[index], len(ordered) - 1 - index


def measure(seed: int, seconds: float, tiny: bool, setup_reps: int) -> dict:
    watch = common.Stopwatch()
    with common.scratch_dir("serve-") as folder:
        targets = urls(write_graphs(seed, folder, tiny))
        setups, raw_setups = [], []
        for rep in range(setup_reps):
            run_dir = os.path.join(folder, f"run{rep}")
            os.makedirs(run_dir)
            server, elapsed, factor = watch.run(
                start_warm, seed, run_dir, targets, False)
            raw_setups.append(elapsed)
            setups.append(elapsed * factor)
            if rep < setup_reps - 1:
                server.stop()
        try:
            load = Load(server.port, targets)
            deadline = time.perf_counter() + seconds
            while not load.records or time.perf_counter() < deadline:
                load.timed_block(watch, load.single_block)
                load.timed_block(watch, load.dual_block)
            peak_rss_mb = common.peak_rss_mb(server.proc.pid)
            alloc_probe(server, targets)
        finally:
            launcher = server.stop()
    single, dual = load.latencies("single"), load.latencies("dual")
    p99, above = _percentile_with_tail(dual, 0.99)
    peaks = launcher.get("alloc_peaks", {})
    if len(peaks) != len(targets):
        load.failed += 1
        load.problems.append("allocation probe incomplete")
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "serial_s": statistics.median(single),
            "pool_s": statistics.median(dual),
            "peak_alloc_mb": max(peaks.values(), default=0) / 2**20,
            "peak_rss_mb": peak_rss_mb,
        },
        "query": {
            "query_p50_ms": statistics.median(dual) * 1000,
            "query_p99_ms": p99 * 1000,
            "query_rps": len(dual) / load.dual_wall,
            "samples": len(dual),
            "samples_above_p99": above,
        },
        "attempted": load.attempted,
        "failed": load.failed,
        "problems": load.problems,
        "samples": {"single": len(single), "dual": len(dual),
                    "setups": len(setups)},
        "pool_min_cells": [],
        "raw": {"setup_s": raw_setups,
                "serial_s": [statistics.median(
                    load.latencies("single", scaled=False))],
                "pool_s": [statistics.median(
                    load.latencies("dual", scaled=False))]},
        "scale_median": statistics.median(watch.factors),
    }


def _fixed_load(server: Server, targets: dict,
                watch: common.Stopwatch) -> Load:
    load = Load(server.port, targets)
    for _ in range(TRACE_BLOCKS):
        load.timed_block(watch, load.single_block)
        load.timed_block(watch, load.dual_block)
    return load


def trace(seed: int, tiny: bool) -> dict:
    """Fixed load against an untraced server, then a traced one; the
    overhead compares their reference-scaled latencies."""
    watch = common.Stopwatch()
    with common.scratch_dir("serve-trace-") as folder:
        targets = urls(write_graphs(seed, folder, tiny))
        loads = {}
        for traced in (False, True):
            run_dir = os.path.join(folder, "traced" if traced else "plain")
            os.makedirs(run_dir)
            server = start_warm(seed, run_dir, targets, traced)
            try:
                loads[traced] = _fixed_load(server, targets, watch)
            finally:
                server.stop()
            if traced:
                spans = tracer.load_spans(server.out + ".spans.gz")
                shutil.copy(server.out + ".spans.gz", os.path.join(
                    common.OUT_DIR, f"trace-serve-mixed-{seed}.jsonl.gz"))
    load = loads[True]
    tree = tracer.SpanTree(spans)
    metrics = dict.fromkeys(tracer.BATCH_LAYER_METRICS, 0.0)
    metrics.update(service_metrics(tree, load))
    plain = sum(loads[False].latencies("single")
                + loads[False].latencies("dual"))
    traced_total = sum(load.latencies("single") + load.latencies("dual"))
    metrics["trace.overhead_frac"] = (traced_total - plain) / plain
    return {"metrics": metrics,
            "attempted": load.attempted + loads[False].attempted,
            "failed": load.failed + loads[False].failed,
            "samples": {"requests": len(load.records)}}


def service_metrics(tree, load: Load) -> dict:
    """Service-layer metrics from the server spans and client records."""
    ms = 1000.0
    by_rid = {}
    for span in tree.by_id.values():
        if span[2] == "service.handle_http" and span[5] is not None:
            by_rid[int(span[5])] = span
    admission, handle, write, http = [], [], [], []
    covered = client_total = 0.0
    for _, _, rid, seconds, _ in load.records:
        span = by_rid.get(rid)
        if span is None:
            continue
        outer = tree.duration(span)
        kids = {c[2]: tree.duration(c) for c in tree.children.get(span[0], ())}
        wait = kids.get("service.acquire", 0.0)
        inner = kids.get("service.handle", 0.0)
        admission.append(wait * ms)
        handle.append(inner * ms)
        write.append((outer - inner - wait) * ms)
        http.append((seconds - outer) * ms)
        covered += outer
        client_total += seconds
    out = {f"service.{e}.p50_ms": statistics.median(load.latencies("dual", e))
           * ms for e in ENDPOINTS}
    out.update({
        "service.admission_wait_ms": statistics.median(admission),
        "service.handle_ms": statistics.median(handle),
        "service.write_ms": statistics.median(write),
        "service.http_ms": statistics.median(http),
        "service.shed": sum(1 for p in load.problems if "status 503" in p),
        "trace.coverage": covered / client_total,
    })
    return out
