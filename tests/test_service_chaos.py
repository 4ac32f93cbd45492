"""Chaos battery for ``repro serve`` (crash-marked; CI ``service-chaos``).

Proves the robustness headline of the service against a *real* server:

* a real ``kill -TERM`` mid-index-build exits 143 with a resumable
  checkpoint, and the warm-restarted build reproduces the uninterrupted
  result **byte for byte** — across worker counts {None, 1, 2};
* a worker SIGKILLed mid-build (``FaultPlan.kill_worker``) is replaced
  by supervision and the served payload reports it;
* injected ENOSPC during a build degrades checkpointing, not the
  service — the query still answers, honestly marked;
* a storm of concurrent queries under dropped-connection and
  slow-client injection produces only well-formed JSON responses with
  documented status codes, no hangs past the deadline, and a healthy
  server afterwards.
"""

from __future__ import annotations

import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from urllib.parse import quote

import pytest

from repro.graphs.generators import running_example
from repro.graphs.io import read_edge_list, write_edge_list
from repro.runtime import run_global
from repro.runtime.faults import FaultPlan
from repro.runtime.result import serialize_global_result

from tests.test_service import Recorder, http_get, live_service, _wait_until

pytestmark = pytest.mark.crash

GAMMA, EPSILON, DELTA, SAMPLES, BATCH = 0.3, 0.5, 0.5, 30, 10


@pytest.fixture
def example_path(tmp_path):
    path = tmp_path / "example.txt"
    write_edge_list(running_example(), path)
    return path


@pytest.fixture
def baseline_bytes(example_path):
    """The canonical bytes an uninterrupted build must reproduce."""
    graph = read_edge_list(example_path)
    partial = run_global(graph, GAMMA, epsilon=EPSILON, delta=DELTA,
                         seed=42, n_samples=SAMPLES, batch_size=BATCH)
    assert partial.complete
    return serialize_global_result(partial.result)


def _global_query(example_path, extra=""):
    spec = quote(str(example_path), safe="")
    return (f"/global?graph={spec}&gamma={GAMMA}&epsilon={EPSILON}"
            f"&delta={DELTA}&samples={SAMPLES}{extra}")


class _ServeProc:
    """A ``repro serve`` subprocess with a pumped stdout line queue."""

    def __init__(self, state_dir, *flags):
        repo_root = Path(__file__).resolve().parents[1]
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", str(state_dir), "--trace",
             "--batch-size", str(BATCH), "--grace", "20", *flags],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(repo_root / "src"),
                     PYTHONUNBUFFERED="1"),
            cwd=repo_root,
        )
        self.lines: queue.Queue[str | None] = queue.Queue()
        self._pump = threading.Thread(target=self._read, daemon=True)
        self._pump.start()
        banner = self.expect(r"serving on http://", timeout=30)
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        self.base = f"http://{match.group(1)}:{match.group(2)}"

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def expect(self, pattern, timeout=60.0) -> str:
        """Next stdout line matching ``pattern`` (regex search)."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise AssertionError(f"no line matching {pattern!r}")
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                raise AssertionError(
                    f"no line matching {pattern!r}") from None
            if line is None:
                raise AssertionError(
                    f"stdout closed before {pattern!r} matched")
            if re.search(pattern, line):
                return line

    def get(self, path, timeout=30.0):
        try:
            with urllib.request.urlopen(self.base + path,
                                        timeout=timeout) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def terminate_and_wait(self, timeout=60.0) -> int:
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=timeout)
        return self.proc.returncode


@pytest.mark.parametrize("workers", [None, 1, 2])
def test_kill_term_mid_build_resumes_byte_identical(
        tmp_path, example_path, baseline_bytes, workers):
    state = tmp_path / f"state-w{workers}"
    worker_flags = [] if workers is None else ["--workers", str(workers)]

    server = _ServeProc(state, "--build-throttle", "0.3", *worker_flags)
    try:
        code, body = server.get(_global_query(example_path))
        assert code == 503
        assert body["error"]["building"] is True
        server.expect(r"\[serve\] service-build .*started")
        # Demonstrably mid-sampling: the checkpointed batch boundary
        # the resume must land on.
        server.expect(r"\[serve\] sample-batch")
        code = server.terminate_and_wait()
    finally:
        if server.proc.poll() is None:
            server.proc.kill()
    assert code == 143

    index_dirs = list((state / "indexes").glob("global-*"))
    assert len(index_dirs) == 1
    meta = json.loads((index_dirs[0] / "meta.json").read_text())
    assert meta["status"] == "interrupted"
    assert (index_dirs[0] / "checkpoint" / "manifest.json").exists()

    # Warm restart (no throttle): the build resumes from the checkpoint
    # and must reproduce the uninterrupted bytes exactly.
    server = _ServeProc(state, *worker_flags)
    try:
        server.expect(r"\[serve\] service-build .*finished", timeout=120)
        code, listing = server.get("/indexes")
        assert code == 200
        statuses = [e["status"] for e in listing["indexes"]]
        assert statuses == ["ready"]
        code = server.terminate_and_wait()
        assert code == 143
    finally:
        if server.proc.poll() is None:
            server.proc.kill()
    resumed = (index_dirs[0] / "result.bin").read_bytes()
    assert resumed == baseline_bytes


def test_worker_killed_mid_build_is_supervised_and_reported(
        tmp_path, example_path, baseline_bytes):
    plan = FaultPlan().kill_worker()
    rec = Recorder()
    with live_service(tmp_path / "state", progress=rec, faults=plan,
                      workers=2, batch_size=BATCH) as svc:
        code, body, _ = http_get(
            svc, _global_query(example_path, "&wait=1&deadline=120"),
            timeout=150)
        assert code == 200
        assert rec.find("worker-died"), "the injected kill must fire"
        supervision = body.get("supervision")
        assert supervision and supervision["workers_respawned"] >= 1
        token = body["token"]
        stored = svc.store.get(token).result_path.read_bytes()
    # Crash recovery must not change a single byte of the result.
    assert stored == baseline_bytes


def test_enospc_mid_build_degrades_checkpointing_not_service(
        tmp_path, example_path, baseline_bytes):
    plan = FaultPlan().exhaust_disk()
    rec = Recorder()
    with live_service(tmp_path / "state", progress=rec, faults=plan,
                      batch_size=BATCH) as svc:
        code, body, _ = http_get(
            svc, _global_query(example_path, "&wait=1&deadline=120"),
            timeout=150)
        assert code == 200
        assert ("exhaust-disk", 0) in plan.fired
        assert rec.find("checkpoint-degraded")
        # Honestly degraded — but the decomposition itself is intact.
        assert body["degraded"] is True
        assert any("checkpoint" in r for r in body["reasons"])
        token = body["token"]
        stored = svc.store.get(token).result_path.read_bytes()
    assert stored == baseline_bytes


def test_concurrent_storm_yields_only_wellformed_bounded_responses(
        tmp_path, example_path):
    plan = FaultPlan().drop_connection(3).slow_client(0.4, times=2)
    deadline = 6.0
    with live_service(tmp_path / "state", faults=plan,
                      max_inflight=4, max_queue=2,
                      default_deadline=deadline,
                      batch_size=BATCH) as svc:
        spec = quote(str(example_path), safe="")
        paths = [
            "/healthz",
            f"/stats?graph={spec}",
            f"/local?graph={spec}&gamma=0.3&wait=1",
            _global_query(example_path, "&wait=1"),
            "/indexes",
            "/unknown-endpoint",
            f"/local?graph={spec}&gamma=42",
            "/local?graph=missing.txt&gamma=0.3",
        ] * 2
        results: list = [None] * len(paths)

        def hit(i, path):
            started = time.monotonic()
            try:
                results[i] = ("ok", http_get(svc, path, timeout=60),
                              time.monotonic() - started)
            except (ConnectionError, urllib.error.URLError, OSError) as e:
                results[i] = ("dropped", e, time.monotonic() - started)

        threads = [threading.Thread(target=hit, args=(i, p), daemon=True)
                   for i, p in enumerate(paths)]
        for t in threads:
            t.start()
        for t in threads:
            # No hangs: every request resolves well within a small
            # multiple of the deadline (admission wait + compute +
            # injected stalls are each bounded by it).
            t.join(timeout=4 * deadline)
        assert all(r is not None for r in results), "a request hung"

        dropped = [r for r in results if r[0] == "dropped"]
        assert len(dropped) <= 3  # at most the injected connection drops
        for kind, payload, elapsed in results:
            assert elapsed < 3 * deadline
            if kind != "ok":
                continue
            status, body, _ = payload
            # Documented status codes only, and every body is a dict
            # that decoded as JSON (http_get already parsed it).
            assert status in (200, 400, 404, 503)
            assert isinstance(body, dict)
            if status != 200:
                assert body["error"]["type"] in (
                    "ParameterError", "DatasetError", "OverloadedError",
                    "IndexUnavailableError")

        # The server is healthy after the storm: slots all released,
        # and a fresh request succeeds.
        assert _wait_until(lambda: svc.admission.inflight == 0,
                           timeout=10.0)
        code, body, _ = http_get(svc, "/healthz")
        assert code == 200 and body["status"] == "ok"
        # No torn index files: everything on disk is consistent.
        for entry in svc.store.entries():
            if entry.status == "ready":
                assert entry.result_path.exists()
                assert entry.payload is not None
