"""Unit and live-loopback tests of the ``repro serve`` query service.

Covers the service building blocks (circuit breaker, admission control,
index store), the pure dispatch layer, the builder's failure handling,
and a real :class:`~http.server.ThreadingHTTPServer` on a loopback
socket — including fault-plan service injections (dropped connections,
stalled clients, accept refusals) and an in-process drain/warm-restart
byte-identity check. The subprocess ``kill -TERM`` battery lives in
``tests/test_service_chaos.py`` (crash-marked).
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from urllib.parse import quote

import pytest

from repro.exceptions import (
    DatasetError,
    GraphParseError,
    IndexUnavailableError,
    OverloadedError,
    ParameterError,
    ServiceError,
    http_status_of,
)
from repro.graphs.generators import running_example
from repro.graphs.io import write_edge_list
from repro.runtime import Budget
from repro.runtime.faults import FaultPlan
from repro.service import (
    AdmissionController,
    CircuitBreaker,
    IndexBuilder,
    IndexKey,
    IndexStore,
    ServeConfig,
    TrussService,
)


@pytest.fixture
def example_path(tmp_path):
    path = tmp_path / "example.txt"
    write_edge_list(running_example(), path)
    return path


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCircuitBreaker:
    def test_opens_at_threshold_and_backs_off_exponentially(self):
        clk = FakeClock()
        b = CircuitBreaker(threshold=2, backoff_base=1.0, backoff_cap=8.0,
                           clock=clk)
        assert b.state == "closed" and b.allow()
        assert b.record_failure() == "closed"
        assert b.record_failure() == "open"
        assert not b.allow()
        assert b.retry_after() == pytest.approx(1.0)
        # Each further failure doubles the backoff, up to the cap.
        clk.advance(1.0)
        assert b.allow() and b.state == "half-open"
        assert b.record_failure() == "open"
        assert b.retry_after() == pytest.approx(2.0)
        clk.advance(2.0)
        assert b.allow()
        b.record_failure()
        b.record_failure()
        b.record_failure()
        assert b.retry_after() <= 8.0

    def test_half_open_admits_exactly_one_probe(self):
        clk = FakeClock()
        b = CircuitBreaker(threshold=1, backoff_base=1.0, clock=clk)
        b.record_failure()
        assert not b.allow()
        clk.advance(1.5)
        assert b.allow()          # the probe
        assert not b.allow()      # no second probe while half-open
        assert b.state == "half-open"

    def test_success_closes_and_resets(self):
        clk = FakeClock()
        b = CircuitBreaker(threshold=1, backoff_base=1.0, clock=clk)
        b.record_failure()
        clk.advance(1.0)
        assert b.allow()
        assert b.record_success() == "closed"
        assert b.failures == 0
        assert b.retry_after() == 0.0
        assert b.allow()


class TestAdmissionController:
    def test_sheds_typed_503_when_queue_full(self):
        a = AdmissionController(max_inflight=1, max_queue=0)
        a.acquire(timeout=0)
        with pytest.raises(OverloadedError) as exc:
            a.acquire(timeout=0)
        assert exc.value.retry_after > 0
        assert http_status_of(exc.value) == 503
        assert a.stats["shed_queue_full"] == 1
        a.release()

    def test_sheds_when_no_slot_frees_before_deadline(self):
        a = AdmissionController(max_inflight=1, max_queue=4)
        a.acquire(timeout=0)
        with pytest.raises(OverloadedError):
            a.acquire(timeout=0)
        assert a.stats["shed_wait_deadline"] == 1
        assert a.queued == 0
        a.release()
        assert a.inflight == 0

    def test_queued_request_proceeds_when_slot_frees(self):
        a = AdmissionController(max_inflight=1, max_queue=4)
        a.acquire(timeout=0)
        got = threading.Event()

        def waiter():
            with a.slot(timeout=10.0):
                got.set()

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        time.sleep(0.05)
        assert not got.is_set()
        a.release()
        t.join(timeout=5.0)
        assert got.is_set()
        assert a.stats["admitted"] == 2

    def test_wait_idle_observes_drain(self):
        a = AdmissionController(max_inflight=2, max_queue=0)
        a.acquire(timeout=0)
        assert not a.wait_idle(grace=0.05)
        a.release()
        assert a.wait_idle(grace=1.0)


def _key(kind="local", **overrides) -> IndexKey:
    base = dict(kind=kind, graph="g.txt", graph_nodes=4, graph_edges=5,
                graph_crc=12345, gamma=0.3, method="dp", seed=7)
    if kind == "global":
        base.update(method="gbu", epsilon=0.5, delta=0.5, n_samples=20)
    base.update(overrides)
    return IndexKey(**base)


class TestIndexStore:
    def test_token_is_stable_and_parameter_sensitive(self):
        assert _key().token == _key().token
        assert _key().token != _key(gamma=0.4).token
        assert _key().token != _key(graph_crc=99).token

    def test_complete_then_load_round_trips(self, tmp_path):
        store = IndexStore(tmp_path / "idx")
        entry, created = store.ensure(_key())
        assert created
        store.mark_building(entry.token)
        store.complete(entry.token, {"k_max": 3}, b"bytes-1",
                       degraded=False, reason=None)
        reloaded = IndexStore(tmp_path / "idx")
        pending = reloaded.load()
        assert pending == []
        again = reloaded.get(entry.token)
        assert again.status == "ready"
        assert again.payload == {"k_max": 3}
        assert again.result_path.read_bytes() == b"bytes-1"

    def test_ready_meta_without_result_bytes_means_interrupted(
            self, tmp_path):
        store = IndexStore(tmp_path / "idx")
        entry, _ = store.ensure(_key())
        store.complete(entry.token, {"k_max": 3}, b"x",
                       degraded=False, reason=None)
        entry.result_path.unlink()
        reloaded = IndexStore(tmp_path / "idx")
        pending = reloaded.load()
        assert [e.token for e in pending] == [entry.token]
        assert reloaded.get(entry.token).status == "interrupted"

    def test_failed_rebuild_keeps_last_good_payload(self, tmp_path):
        store = IndexStore(tmp_path / "idx")
        entry, _ = store.ensure(_key())
        store.complete(entry.token, {"k_max": 3}, b"x",
                       degraded=False, reason=None)
        store.fail(entry.token, "worker pool exploded")
        assert entry.status == "ready"
        assert entry.degraded
        assert entry.payload == {"k_max": 3}
        assert entry.failures == 1

    def test_build_in_progress_reloads_as_interrupted(self, tmp_path):
        store = IndexStore(tmp_path / "idx")
        entry, _ = store.ensure(_key())
        store.mark_building(entry.token)
        reloaded = IndexStore(tmp_path / "idx")
        pending = reloaded.load()
        assert [e.status for e in pending] == ["interrupted"]


class TestHttpStatusTable:
    def test_explicit_entry_beats_ancestor(self):
        # GraphParseError subclasses DatasetError (404) but is a client
        # error (400); the MRO walk must find the explicit entry first.
        assert http_status_of(GraphParseError("bad")) == 400
        assert http_status_of(DatasetError("missing")) == 404

    def test_service_errors(self):
        assert http_status_of(OverloadedError()) == 503
        assert http_status_of(IndexUnavailableError()) == 503
        assert http_status_of(ServiceError("boom")) == 500
        assert http_status_of(ParameterError("bad")) == 400

    def test_foreign_exception_defaults_to_500(self):
        assert http_status_of(RuntimeError("?")) == 500


class _FakeBuildService:
    """Just enough service surface for exercising IndexBuilder."""

    def __init__(self, tmp_path, fail_first: int = 0,
                 breaker: CircuitBreaker | None = None):
        self.store = IndexStore(tmp_path / "idx")
        self.entry, _ = self.store.ensure(_key())
        self.entry.breaker = breaker
        self.fail_remaining = fail_first
        self.builds = 0
        self.events = []

    def emit(self, phase, step, detail):
        self.events.append((phase, dict(detail)))

    def run_build(self, entry, extra_hooks=()):
        self.builds += 1
        if self.fail_remaining > 0:
            self.fail_remaining -= 1
            raise ServiceError(f"injected build failure {self.builds}")
        from repro.runtime.result import PartialResult

        class _R:
            pass

        partial = PartialResult(kind="local", result=_R(), complete=True,
                                degraded=False)
        return partial

    def payload_of(self, key, partial):
        return {"k_max": 3, "build": self.builds}, b"payload-bytes"


class TestIndexBuilder:
    def test_failures_trip_breaker_and_serve_last_good(self, tmp_path):
        breaker = CircuitBreaker(threshold=2, backoff_base=0.01,
                                 backoff_cap=0.05)
        fake = _FakeBuildService(tmp_path, breaker=breaker)
        builder = IndexBuilder(fake)
        builder.start()
        builder.request(fake.entry.token)
        self._wait(lambda: fake.entry.status == "ready")
        assert fake.entry.payload == {"k_max": 3, "build": 1}

        fake.fail_remaining = 10**9  # every rebuild fails from now on
        builder.request(fake.entry.token)
        self._wait(lambda: breaker.state == "open")
        # Last good payload survives, marked degraded with the reason.
        assert fake.entry.status == "ready"
        assert fake.entry.degraded
        assert "injected build failure" in fake.entry.reason
        opened = [d for p, d in fake.events
                  if p == "service-breaker" and d["state"] == "open"]
        assert opened and opened[0]["retry_after"] > 0
        builder.stop(grace=5.0)

    def test_half_open_probe_recovers_and_closes(self, tmp_path):
        clk = FakeClock()
        breaker = CircuitBreaker(threshold=1, backoff_base=0.01, clock=clk)
        fake = _FakeBuildService(tmp_path, fail_first=1, breaker=breaker)
        builder = IndexBuilder(fake)
        builder.start()
        builder.request(fake.entry.token)
        self._wait(lambda: breaker.state == "open")
        clk.advance(1.0)  # expire the backoff: next attempt is the probe
        self._wait(lambda: breaker.state == "closed")
        assert fake.entry.status == "ready"
        closed = [d for p, d in fake.events
                  if p == "service-breaker" and d["state"] == "closed"]
        assert closed
        builder.stop(grace=5.0)

    def test_builder_survives_store_commit_failure(self, tmp_path):
        # ENOSPC in store.mark_building/complete escapes _build's try
        # block; the _run guard must keep the loop alive and retry.
        breaker = CircuitBreaker(threshold=100, backoff_base=0.01)
        fake = _FakeBuildService(tmp_path, breaker=breaker)
        builder = IndexBuilder(fake)
        real_complete = fake.store.complete
        failures = {"left": 2}

        def flaky_complete(*args, **kwargs):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise ServiceError("index write failed: disk full")
            return real_complete(*args, **kwargs)

        fake.store.complete = flaky_complete
        builder.start()
        builder.request(fake.entry.token)
        self._wait(lambda: fake.entry.status == "ready")
        assert builder._thread.is_alive()
        crashed = [d for p, d in fake.events
                   if p == "service-build" and d["action"] == "crashed"]
        assert len(crashed) == 2
        assert all("disk full" in d["reason"] for d in crashed)
        assert fake.entry.payload is not None
        builder.stop(grace=5.0)

    def _wait(self, predicate, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return
            time.sleep(0.01)
        raise AssertionError("condition not reached within timeout")


# ----------------------------------------------------------------------
# live loopback server
@contextmanager
def live_service(state_dir, progress=None, faults=None, **overrides):
    overrides.setdefault("default_deadline", 10.0)
    cfg = ServeConfig(state_dir=str(state_dir), **overrides)
    svc = TrussService(cfg, progress=progress, faults=faults)
    svc.start()
    thread = threading.Thread(
        target=svc.http_server.serve_forever,
        kwargs={"poll_interval": 0.02}, daemon=True)
    thread.start()
    try:
        yield svc
    finally:
        if not svc.draining:
            svc.drain(signal.SIGTERM)
        thread.join(timeout=5.0)


def http_get(svc, path, timeout=30.0):
    host, port = svc.address
    try:
        with urllib.request.urlopen(
                f"http://{host}:{port}{path}", timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)


class Recorder:
    """Thread-safe progress-event recorder."""

    def __init__(self):
        self._lock = threading.Lock()
        self.events = []

    def __call__(self, event):
        with self._lock:
            self.events.append(event)

    def phases(self):
        with self._lock:
            return [e.phase for e in self.events]

    def find(self, phase):
        with self._lock:
            return [e for e in self.events if e.phase == phase]


def _wait_until(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestLiveServer:
    def test_index_lifecycle_and_payload(self, tmp_path, example_path):
        rec = Recorder()
        with live_service(tmp_path / "state", progress=rec) as svc:
            spec = quote(str(example_path), safe="")
            code, body, headers = http_get(
                svc, f"/local?graph={spec}&gamma=0.3")
            assert code == 503
            assert body["error"]["type"] == "IndexUnavailableError"
            assert body["error"]["building"] is True
            assert int(headers["Retry-After"]) >= 1
            code, body, _ = http_get(
                svc, f"/local?graph={spec}&gamma=0.3&wait=1&deadline=30")
            assert code == 200
            assert body["degraded"] is False
            assert body["k_max"] >= 2
            assert body["truss_counts"]
            # Served straight from the store the second time.
            code, again, _ = http_get(svc, f"/local?graph={spec}&gamma=0.3")
            assert code == 200 and again["k_max"] == body["k_max"]
            code, listing, _ = http_get(svc, "/indexes")
            assert [e["status"] for e in listing["indexes"]] == ["ready"]
        assert "service-request" in rec.phases()
        assert "service-build" in rec.phases()
        assert "service-drain" in rec.phases()

    def test_nucleus_endpoint(self, tmp_path, example_path):
        with live_service(tmp_path / "state") as svc:
            spec = quote(str(example_path), safe="")
            # (2, 3) is the truss family: its k_max must agree with the
            # /local index for the same graph and gamma.
            code, body, _ = http_get(
                svc, f"/nucleus?graph={spec}&gamma=0.3&r=2&s=3"
                     "&wait=1&deadline=30")
            assert code == 200
            assert (body["r"], body["s"]) == (2, 3)
            code, local, _ = http_get(
                svc, f"/local?graph={spec}&gamma=0.3&wait=1&deadline=30")
            assert code == 200
            assert body["k_max"] == local["k_max"]
            # The default family is (3, 4) with its own clique counts.
            code, body34, _ = http_get(
                svc, f"/nucleus?graph={spec}&gamma=0.1&wait=1&deadline=30")
            assert code == 200
            assert (body34["r"], body34["s"]) == (3, 4)
            assert body34["clique_counts"]
            # Unsupported families are a client error, not a build.
            code, err, _ = http_get(
                svc, f"/nucleus?graph={spec}&gamma=0.3&r=2&s=4")
            assert code == 400
            assert err["error"]["type"] == "ParameterError"

    def test_core_family_serves_run_nucleus_bytes(self, tmp_path,
                                                  example_path):
        # (1, 2), the (k, eta)-core family, needs no service code of its
        # own: its index holds run_nucleus's canonical bytes, cold and
        # after a warm restart.
        from repro.graphs.io import read_edge_list
        from repro.runtime import run_nucleus
        from repro.runtime.result import serialize_nucleus_result

        expected = serialize_nucleus_result(
            run_nucleus(read_edge_list(example_path), 1, 2, 0.3).result)
        spec = quote(str(example_path), safe="")
        query = f"/nucleus?graph={spec}&gamma=0.3&r=1&s=2"
        with live_service(tmp_path / "state") as svc:
            code, cold, _ = http_get(svc, query + "&wait=1&deadline=30")
            assert code == 200
            assert (cold["r"], cold["s"]) == (1, 2)
            assert svc.store.get(cold["token"]).result_path.read_bytes() \
                == expected
        with live_service(tmp_path / "state") as svc:
            code, warm, _ = http_get(svc, query)
            assert code == 200 and warm == cold
            assert svc.store.get(warm["token"]).result_path.read_bytes() \
                == expected
            assert svc.builder.stats["builds"] == 0

    def test_stats_deadline_degrades_honestly(self, tmp_path, example_path):
        rec = Recorder()
        with live_service(tmp_path / "state", progress=rec) as svc:
            spec = quote(str(example_path), safe="")
            code, body, _ = http_get(
                svc, f"/stats?graph={spec}&deadline=0.05")
            assert code == 200
            assert body["degraded"] is True
            assert "deadline" in body["reason"]
            assert "clustering" not in body
            code, body, _ = http_get(svc, f"/stats?graph={spec}")
            assert code == 200 and body["degraded"] is False
            assert "clustering" in body
        assert rec.find("service-degraded")

    def test_typed_errors_and_status_codes(self, tmp_path):
        with live_service(tmp_path / "state") as svc:
            code, body, _ = http_get(svc, "/local?graph=nope.txt&gamma=0.3")
            assert (code, body["error"]["type"]) == (404, "DatasetError")
            code, body, _ = http_get(svc, "/local?graph=fruitfly&gamma=7")
            assert (code, body["error"]["type"]) == (400, "ParameterError")
            code, body, _ = http_get(svc, "/warp")
            assert (code, body["error"]["type"]) == (400, "ParameterError")
            code, body, _ = http_get(svc, "/local?gamma=0.3")
            assert (code, body["error"]["type"]) == (400, "ParameterError")

    def test_breaker_serves_stale_degraded_after_failures(
            self, tmp_path, example_path, monkeypatch):
        rec = Recorder()
        with live_service(tmp_path / "state", progress=rec,
                          breaker_threshold=1, backoff_base=30.0) as svc:
            spec = quote(str(example_path), safe="")
            code, body, _ = http_get(
                svc, f"/local?graph={spec}&gamma=0.3&wait=1&deadline=30")
            assert code == 200 and body["degraded"] is False

            def broken(entry, extra_hooks=()):
                raise ServiceError("injected rebuild failure")

            monkeypatch.setattr(svc, "run_build", broken)
            code, body, _ = http_get(
                svc, f"/local?graph={spec}&gamma=0.3&refresh=1")
            assert code == 200  # stale-while-revalidate
            token = body["token"]
            assert _wait_until(
                lambda: svc.store.get(token).breaker.state == "open")
            code, body, _ = http_get(svc, f"/local?graph={spec}&gamma=0.3")
            assert code == 200
            assert body["degraded"] is True
            assert body["breaker"] == "open"
            assert any("circuit open" in r for r in body["reasons"])
            assert body["k_max"] >= 2  # last good result still served
        assert rec.find("service-breaker")
        assert rec.find("service-degraded")

    def test_breaker_mutations_stay_on_builder_thread(
            self, tmp_path, example_path):
        # Regression: the request path used to call breaker.allow(),
        # consuming the open->half-open probe permit on a handler
        # thread and wedging the breaker half-open forever. Handlers
        # may only *read* the breaker.
        with live_service(tmp_path / "state") as svc:
            spec = quote(str(example_path), safe="")
            code, body, _ = http_get(
                svc, f"/local?graph={spec}&gamma=0.3&wait=1&deadline=30")
            assert code == 200
            entry = svc.store.get(body["token"])
            calls: list[str] = []
            orig_allow = entry.breaker.allow

            def spy_allow():
                calls.append(threading.current_thread().name)
                return orig_allow()

            entry.breaker.allow = spy_allow
            builds_before = entry.builds
            code, _, _ = http_get(
                svc, f"/local?graph={spec}&gamma=0.3&refresh=1"
                     "&wait=1&deadline=30")
            assert code == 200
            assert _wait_until(lambda: entry.builds > builds_before)
            assert calls, "the rebuild must consult the breaker"
            assert set(calls) == {"repro-serve-builder"}

    def test_open_breaker_recovers_through_probe(
            self, tmp_path, example_path):
        # Queries against an open breaker must not prevent the
        # half-open probe from running once the backoff expires; a
        # healthy probe closes the breaker and refreshes the index.
        with live_service(tmp_path / "state", breaker_threshold=1,
                          backoff_base=0.1, backoff_cap=0.2) as svc:
            spec = quote(str(example_path), safe="")
            code, body, _ = http_get(
                svc, f"/local?graph={spec}&gamma=0.3&wait=1&deadline=30")
            assert code == 200
            entry = svc.store.get(body["token"])

            def broken(e, extra_hooks=()):
                raise ServiceError("injected rebuild failure")

            svc.run_build = broken
            code, _, _ = http_get(
                svc, f"/local?graph={spec}&gamma=0.3&refresh=1")
            assert code == 200  # stale-while-revalidate
            assert _wait_until(lambda: entry.breaker.state == "open")
            # Hammer the open index the way a client would; none of
            # these handler hits may consume the probe permit.
            for _ in range(5):
                code, body, _ = http_get(
                    svc, f"/local?graph={spec}&gamma=0.3&refresh=1")
                assert code == 200 and body["degraded"] is True
                time.sleep(0.05)
            del svc.__dict__["run_build"]  # heal the build path
            assert _wait_until(lambda: entry.breaker.state == "closed")
            code, body, _ = http_get(svc, f"/local?graph={spec}&gamma=0.3")
            assert code == 200
            assert body["breaker"] == "closed"

    def test_drop_connection_fault_leaves_server_healthy(self, tmp_path):
        plan = FaultPlan().drop_connection()
        rec = Recorder()
        with live_service(tmp_path / "state",
                          progress=rec, faults=plan) as svc:
            host, port = svc.address
            with pytest.raises((ConnectionError, urllib.error.URLError,
                                OSError)):
                urllib.request.urlopen(
                    f"http://{host}:{port}/healthz", timeout=10)
            assert ("drop_connection", 0) in plan.fired
            code, body, _ = http_get(svc, "/healthz")
            assert code == 200 and body["status"] == "ok"
            assert svc.stats["dropped_writes"] == 1
            dropped = [e for e in rec.find("service-response")
                       if e.detail.get("dropped")]
            assert dropped

    def test_slow_client_holds_slot_and_sheds_followers(self, tmp_path):
        plan = FaultPlan().slow_client(1.0)
        with live_service(tmp_path / "state", faults=plan,
                          max_inflight=1, max_queue=0) as svc:
            results = {}

            def stalled():
                results["stalled"] = http_get(svc, "/healthz")

            t = threading.Thread(target=stalled, daemon=True)
            t.start()
            assert _wait_until(lambda: svc.admission.inflight == 1,
                               timeout=5.0)
            code, body, headers = http_get(svc, "/healthz")
            assert code == 503
            assert body["error"]["type"] == "OverloadedError"
            assert "Retry-After" in headers
            t.join(timeout=10.0)
            assert results["stalled"][0] == 200
            code, _, _ = http_get(svc, "/healthz")
            assert code == 200
            assert svc.admission.stats["shed_queue_full"] >= 1

    def test_refuse_accept_fault_then_recovers(self, tmp_path):
        plan = FaultPlan().refuse_accept()
        rec = Recorder()
        with live_service(tmp_path / "state",
                          progress=rec, faults=plan) as svc:
            host, port = svc.address
            with pytest.raises((ConnectionError, urllib.error.URLError,
                                OSError)):
                urllib.request.urlopen(
                    f"http://{host}:{port}/healthz", timeout=10)
            assert ("refuse_accept", 0) in plan.fired
            code, _, _ = http_get(svc, "/healthz")
            assert code == 200
            shed = rec.find("service-shed")
            assert any(e.detail["reason"] == "refuse-accept-fault"
                       for e in shed)

    def test_watchdog_pressure_sheds_with_503(self, tmp_path):
        cfg_extra = {"memory_probe": lambda: 10 * 2**30}  # 10 GiB "RSS"
        with live_service(tmp_path / "state", watchdog_interval=0.0,
                          max_memory_mb=64.0, extra=cfg_extra) as svc:
            code, body, headers = http_get(svc, "/indexes")
            assert code == 503
            assert body["error"]["type"] == "OverloadedError"
            assert "memory" in body["error"]["message"]
            assert "Retry-After" in headers
            # /healthz is exempt from pressure shedding — monitoring
            # must not go blind exactly when operators need it — and
            # reports the pressure state in its payload instead.
            code, body, _ = http_get(svc, "/healthz")
            assert code == 200
            assert body["status"] == "ok"
            assert body["pressure"] == "memory"

    def test_drain_then_warm_restart_is_byte_identical(
            self, tmp_path, example_path):
        spec = quote(str(example_path), safe="")
        query = (f"/global?graph={spec}&gamma=0.3&epsilon=0.5&delta=0.5"
                 "&samples=30")

        # Uninterrupted baseline.
        with live_service(tmp_path / "a", batch_size=10) as svc:
            code, body, _ = http_get(svc, query + "&wait=1&deadline=60")
            assert code == 200
            token = body["token"]
            baseline = svc.store.get(token).result_path.read_bytes()

        # Same build, drained mid-sampling.
        rec = Recorder()
        with live_service(tmp_path / "b", progress=rec, batch_size=10,
                          build_throttle=0.2) as svc:
            code, _, _ = http_get(svc, query)
            assert code == 503
            assert _wait_until(lambda: rec.find("sample-batch"))
            code = svc.drain(signal.SIGTERM)
            assert code == 143
            entry = svc.store.get(token)
            assert entry.status == "interrupted"
            assert (entry.checkpoint_dir / "manifest.json").exists()
            drain = rec.find("service-drain")
            assert [e.detail["action"] for e in drain] == [
                "begin", "idle", "done"]

        # Warm restart resumes the checkpointed build byte-identically.
        with live_service(tmp_path / "b", batch_size=10) as svc:
            assert _wait_until(
                lambda: svc.store.get(token).status == "ready")
            resumed = svc.store.get(token).result_path.read_bytes()
        assert resumed == baseline

    def test_draining_server_refuses_new_connections(self, tmp_path):
        with live_service(tmp_path / "state") as svc:
            code, _, _ = http_get(svc, "/healthz")
            assert code == 200
            svc.drain(signal.SIGINT)
            host, port = svc.address
            with pytest.raises((ConnectionError, urllib.error.URLError,
                                OSError)):
                urllib.request.urlopen(
                    f"http://{host}:{port}/healthz", timeout=5)


class TestGraphCache:
    """Warm queries read the graph's fingerprint and ``/stats`` payload
    from the cached graph record instead of recomputing them."""

    #: Index tokens of the running example written to ``example.txt``
    #: under the default seed, as earlier releases computed them: a
    #: changed token would orphan every persisted index on warm restart.
    PINNED_TOKENS = {
        "local": "local-4bfac7747620868c",
        "nucleus": "nucleus-fb0a5e0b88ae5455",
        "global": "global-c644c5281da9c450",
    }
    QUERIES = {
        "local": {"gamma": ["0.3"]},
        "nucleus": {"gamma": ["0.3"]},
        "global": {"gamma": ["0.3"], "epsilon": ["0.5"], "delta": ["0.5"],
                   "samples": ["30"]},
    }

    @staticmethod
    def _query(kind):
        params = TestGraphCache.QUERIES[kind]
        return f"/{kind}?graph=example.txt&" + "&".join(
            f"{name}={values[0]}" for name, values in params.items())

    def test_index_tokens_are_pinned(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_edge_list(running_example(), "example.txt")
        svc = TrussService(ServeConfig(state_dir=str(tmp_path / "state")))
        for kind, token in self.PINNED_TOKENS.items():
            key = svc._index_key(
                kind, {"graph": ["example.txt"], **self.QUERIES[kind]})
            assert key.token == token
            assert (key.graph_nodes, key.graph_edges, key.graph_crc) == (
                6, 11, 4239023355)

    def test_warm_restart_serves_persisted_indexes_without_rebuild(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_edge_list(running_example(), "example.txt")
        built = {}
        with live_service(tmp_path / "state") as svc:
            for kind in self.PINNED_TOKENS:
                code, body, _ = http_get(
                    svc, self._query(kind) + "&wait=1&deadline=60")
                assert code == 200 and body["degraded"] is False
                built[kind] = body
        rec = Recorder()
        with live_service(tmp_path / "state", progress=rec) as svc:
            for kind, token in self.PINNED_TOKENS.items():
                assert svc.store.get(token).status == "ready"
                code, body, _ = http_get(svc, self._query(kind))
                assert code == 200
                assert body == built[kind]
                assert body["token"] == token
            assert svc.builder.stats["builds"] == 0
        assert not rec.find("service-build")

    def test_cached_fingerprint_survives_every_build(self, tmp_path,
                                                     monkeypatch):
        from repro.runtime.harness import _graph_fingerprint

        monkeypatch.chdir(tmp_path)
        write_edge_list(running_example(), "example.txt")
        with live_service(tmp_path / "state") as svc:
            for kind in self.PINNED_TOKENS:
                code, _, _ = http_get(
                    svc, self._query(kind) + "&wait=1&deadline=60")
                assert code == 200
                # No engine may mutate the cached graph under its
                # cached fingerprint.
                record = svc._graph("example.txt")
                assert record.fingerprint == _graph_fingerprint(
                    record.graph)

    def test_stats_answer_is_cached_and_equals_a_fresh_profile(
            self, tmp_path, example_path):
        from repro.core.stats import profile_graph
        from repro.datasets import dataset_statistics
        from repro.graphs.io import read_edge_list

        graph = read_edge_list(example_path)
        profile = profile_graph(graph)
        expected = dict(dataset_statistics(graph))
        expected.update({
            "mean_degree": profile.mean_degree,
            "expected_triangles": profile.expected_triangles,
            "density": profile.density,
            "pcc": profile.pcc,
            "clustering": profile.clustering,
            "degraded": False,
        })
        expected = json.loads(json.dumps(expected, default=str))
        rec = Recorder()
        with live_service(tmp_path / "state", progress=rec) as svc:
            spec = quote(str(example_path), safe="")
            # A degraded answer before the first full one is not kept.
            code, body, _ = http_get(
                svc, f"/stats?graph={spec}&deadline=0.05")
            assert code == 200 and body["degraded"] is True
            code, first, _ = http_get(svc, f"/stats?graph={spec}")
            assert code == 200 and first == expected
            # After the first full answer even a tight deadline is
            # served the cached, complete payload.
            code, tight, _ = http_get(
                svc, f"/stats?graph={spec}&deadline=0.05")
            assert code == 200 and tight == expected
            code, again, _ = http_get(svc, f"/stats?graph={spec}")
            assert code == 200 and again == expected
        assert len(rec.find("service-degraded")) == 1

    def test_concurrent_first_loads_share_one_graph(
            self, tmp_path, example_path, monkeypatch):
        import repro.graphs.io as graph_io

        real_read = graph_io.read_edge_list
        gate = threading.Barrier(4)

        def slow_read(path):
            graph = real_read(path)
            # Every thread has missed the cache before any stores.
            gate.wait(timeout=10)
            return graph

        monkeypatch.setattr(graph_io, "read_edge_list", slow_read)
        svc = TrussService(ServeConfig(state_dir=str(tmp_path / "state")))
        records = []
        lock = threading.Lock()

        def load():
            record = svc._graph(str(example_path))
            with lock:
                records.append(record)

        threads = [threading.Thread(target=load) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert len(records) == 4
        assert len({id(r.graph) for r in records}) == 1
        assert svc._graph(str(example_path)) is records[0]


class TestServeCli:
    def test_serve_flags_reach_config(self, tmp_path, monkeypatch):
        import repro.service as service_module
        from repro.cli import main

        captured = {}

        def fake_serve(config, progress=None, *, ready=None):
            captured["config"] = config
            return 0

        monkeypatch.setattr(service_module, "serve", fake_serve)
        code = main([
            "serve", "--state-dir", str(tmp_path / "state"),
            "--max-deadline", "12", "--backoff-cap", "7.5",
            "--min-free", "128",
        ])
        assert code == 0
        cfg = captured["config"]
        assert cfg.max_deadline == 12.0
        assert cfg.backoff_cap == 7.5
        assert cfg.min_free_mb == 128.0
