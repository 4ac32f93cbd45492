"""The ``repro serve`` HTTP query service.

A :class:`TrussService` answers decomposition queries from an
:class:`~repro.service.store.IndexStore` of precomputed results, building
missing indexes in the background through the existing execution harness.
The HTTP layer is a stdlib :class:`~http.server.ThreadingHTTPServer` —
no new dependencies — and every robustness mechanism in the runtime is
wired in:

* per-request **deadlines** become :class:`~repro.runtime.Budget`
  objects for inline computations, so a slow query returns an honestly
  ``degraded`` partial payload instead of hanging;
* **admission control** (:class:`~repro.service.admission.AdmissionController`)
  sheds load with typed ``503`` + ``Retry-After`` once the in-flight
  limit and bounded queue are exceeded, or when the
  :class:`~repro.runtime.pressure.ResourceWatchdog` reports pressure;
* a per-index **circuit breaker**
  (:class:`~repro.service.breaker.CircuitBreaker`) suppresses rebuilds
  of repeatedly-failing indexes while the last good cached result keeps
  being served, marked ``degraded``;
* **graceful drain** on SIGINT/SIGTERM: stop accepting, finish
  in-flight requests within a grace period, checkpoint the in-progress
  build, and exit with the conventional 130/143 status — a warm restart
  resumes the build byte-identically.

Error responses are JSON bodies whose status codes come from the single
:data:`~repro.exceptions.HTTP_STATUS_BY_ERROR` table; see
``docs/serving.md`` for the endpoint reference.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import (
    IndexUnavailableError,
    OverloadedError,
    ParameterError,
    ReproError,
    http_status_of,
)
from repro.runtime import Budget, FaultPlan, InterruptGuard, chain_hooks
from repro.runtime.harness import _graph_fingerprint
from repro.runtime.progress import ProgressEvent
from repro.service.admission import AdmissionController
from repro.service.breaker import CircuitBreaker
from repro.service.builder import IndexBuilder
from repro.service.store import IndexEntry, IndexKey, IndexStore

if TYPE_CHECKING:
    from repro.apps.team_formation import CollaborationNetwork
    from repro.graphs.probabilistic import ProbabilisticGraph
    from repro.runtime.result import PartialResult

__all__ = ["ServeConfig", "TrussService", "serve"]


def _mib(value: float | None) -> int | None:
    return None if value is None else int(value * 1024 * 1024)


@dataclass
class ServeConfig:
    """Knobs of one ``repro serve`` process (CLI flags map 1:1)."""

    state_dir: str
    host: str = "127.0.0.1"
    port: int = 0
    seed: int = 42
    workers: int | str | None = None
    default_deadline: float = 5.0
    max_deadline: float = 60.0
    max_inflight: int = 8
    max_queue: int = 16
    grace: float = 10.0
    breaker_threshold: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 30.0
    watchdog_interval: float | None = None
    max_memory_mb: float | None = None
    min_free_mb: float | None = None
    batch_size: int = 25
    #: Seconds slept per sample batch during builds; tests raise it so a
    #: SIGTERM reliably lands mid-build.
    build_throttle: float = 0.0
    trace: bool = False
    extra: dict = field(default_factory=dict)


class _GraphRecord:
    """One cached graph and the values the service derives from it once.

    ``fingerprint`` (the content identity index keys carry) is computed
    when the graph is loaded. The full ``/stats`` payload is filled by
    the first ``/stats`` request with deadline enough for the triangle
    profile; a deadline-degraded answer is never kept. The graph cache
    never re-reads a file, so neither value goes stale.
    ``_graph_lock`` is the owning service's graph-cache lock.
    """

    def __init__(self, graph: "ProbabilisticGraph",
                 lock: threading.Lock) -> None:
        self.graph = graph
        self.fingerprint = _graph_fingerprint(graph)
        self._graph_lock = lock
        self._stats: dict | None = None  # repro: guarded-by[self._graph_lock]

    def cached_stats(self) -> dict | None:
        with self._graph_lock:
            return self._stats

    def keep_stats(self, payload: dict) -> dict:
        """Store the full ``/stats`` payload unless one is already kept;
        returns the kept one."""
        with self._graph_lock:
            if self._stats is None:
                self._stats = payload
            return self._stats


class TrussService:
    """The query service: dispatch, indexes, builds, and drain."""

    def __init__(self, config: ServeConfig,
                 progress: Callable[[ProgressEvent], None] | None = None,
                 faults: FaultPlan | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config
        self._clock = clock
        self._progress = progress
        #: Service faults fire in the HTTP layer; step, pool and disk
        #: faults travel to every index build as ``faults=``.
        self._faults = faults
        # Serializes the trace stream, the user's hook and the watchdog.
        # A build's fault plan checks events outside it: FaultPlan.check
        # only pops dict entries and appends to ``fired``. Re-entrant: a
        # watchdog alert raised *inside* emit_event (the watchdog is
        # itself an emit target) re-enters to deliver its
        # resource-pressure event.
        self._emit_lock = threading.RLock()
        self.store = IndexStore(f"{config.state_dir}/indexes")
        self.admission = AdmissionController(
            max_inflight=config.max_inflight, max_queue=config.max_queue,
            clock=clock)
        self.builder = IndexBuilder(self, clock=clock)
        self.watchdog = None
        if config.watchdog_interval is not None:
            from repro.runtime.pressure import ResourceWatchdog

            self.watchdog = ResourceWatchdog(
                probe_dir=config.state_dir,
                interval=config.watchdog_interval,
                memory_limit_bytes=_mib(config.max_memory_mb),
                min_free_bytes=_mib(config.min_free_mb),
                emit=self.emit_event, clock=clock,
                memory_probe=config.extra.get("memory_probe"),
            )
        # (spec, seed) -> _GraphRecord
        self._graphs: dict = {}  # repro: guarded-by[self._graph_lock]
        self._graph_lock = threading.Lock()
        self._network = None  # repro: guarded-by[self._graph_lock]
        self.draining = False  # repro: owned-by[main]
        self._request_seq = 0  # repro: guarded-by[self._seq_lock]
        self._seq_lock = threading.Lock()
        self.http_server: ThreadingHTTPServer | None = None
        self._stats_lock = threading.Lock()
        # repro: guarded-by[self._stats_lock]
        self.stats = {"requests": 0, "responses": 0, "shed": 0,
                      "degraded_served": 0, "dropped_writes": 0}

    # ------------------------------------------------------------------
    # events
    def emit(self, phase: str, step: int, detail: dict) -> None:
        self.emit_event(ProgressEvent(phase, step, detail=detail))

    def emit_event(self, event: ProgressEvent) -> None:
        """Serialize event delivery: handler threads and the builder
        share the trace stream, the user's hook and the watchdog."""
        with self._emit_lock:
            if self.config.trace:
                print(f"[serve] {event.phase} step={event.step} "
                      f"{json.dumps(event.detail, sort_keys=True, default=str)}",
                      flush=True)
            if self._progress is not None:
                self._progress(event)
            if self.watchdog is not None:
                self.watchdog(event)

    def _take_fault(self, kind: str) -> float | None:
        if self._faults is None:
            return None
        return self._faults.take_service_fault(kind)

    def _next_request_id(self) -> int:
        with self._seq_lock:
            self._request_seq += 1
            return self._request_seq

    def _bump(self, name: str) -> int:
        """Thread-safe stats increment; returns the new count.

        Handler threads race on these counters, and several double as
        progress-event steps — unlocked read-modify-write would both
        undercount and collide steps.
        """
        with self._stats_lock:
            self.stats[name] += 1
            return self.stats[name]

    # ------------------------------------------------------------------
    # lifecycle
    def start(self) -> None:
        """Warm start: reload indexes, requeue unfinished builds, bind."""
        pending = self.store.load()
        for entry in self.store.entries():
            self._arm_breaker(entry)
        self.builder.start()
        for entry in pending:
            self.builder.request(entry.token)
        self.http_server = _ServiceHTTPServer(
            (self.config.host, self.config.port), _Handler, self)

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.http_server.server_address[:2]
        return host, port

    def drain(self, signum: int) -> int:
        """Graceful shutdown; returns the conventional exit code."""
        self.draining = True
        self.emit("service-drain", 0,
                  {"action": "begin", "in_flight": self.admission.inflight,
                   "signal": int(signum)})
        if self.http_server is not None:
            self.http_server.shutdown()
        idle = self.admission.wait_idle(self.config.grace)
        self.emit("service-drain", 1,
                  {"action": "idle", "in_flight": self.admission.inflight,
                   "timed_out": not idle})
        if self.http_server is not None:
            self.http_server.server_close()
        self.builder.stop(signum=signum, grace=self.config.grace)
        self.emit("service-drain", 2,
                  {"action": "done",
                   "pending_builds": self.builder.pending(),
                   "signal": int(signum)})
        return 128 + int(signum)

    # ------------------------------------------------------------------
    # graphs
    def _graph(self, spec: str) -> _GraphRecord:
        """The cached record of ``spec``, loading the graph on first use.

        Concurrent first loads of one spec may each read the file, but
        the first record stored wins and every caller gets it, so index
        keys and builds always see one graph object.
        """
        from repro.datasets import DATASET_NAMES, load_dataset
        from repro.exceptions import DatasetError
        from repro.graphs.io import read_edge_list, read_json_graph

        cache_key = (spec, self.config.seed)
        with self._graph_lock:
            record = self._graphs.get(cache_key)
        if record is not None:
            return record
        if spec.lower() in DATASET_NAMES:
            graph = load_dataset(spec, seed=self.config.seed)
        else:
            from pathlib import Path

            path = Path(spec)
            if not path.exists():
                raise DatasetError(
                    f"{spec!r} is neither a dataset name nor an "
                    "existing graph file")
            if path.suffix == ".json":
                graph = read_json_graph(path)
            else:
                graph = read_edge_list(path)
        record = _GraphRecord(graph, self._graph_lock)
        with self._graph_lock:
            return self._graphs.setdefault(cache_key, record)

    def _collaboration_network(self) -> "CollaborationNetwork":
        from repro.apps.team_formation import generate_collaboration_network

        with self._graph_lock:
            if self._network is None:
                self._network = generate_collaboration_network(
                    seed=self.config.seed)
            return self._network

    # ------------------------------------------------------------------
    # index builds (called from the builder thread)
    def _arm_breaker(self, entry: IndexEntry) -> None:
        if entry.breaker is None:
            entry.breaker = CircuitBreaker(
                threshold=self.config.breaker_threshold,
                backoff_base=self.config.backoff_base,
                backoff_cap=self.config.backoff_cap, clock=self._clock)

    def run_build(self, entry: IndexEntry,
                  extra_hooks: Iterable[Callable] = ()) -> "PartialResult":
        """Run one index build through the execution harness."""
        from repro.runtime import run_global, run_local, run_nucleus

        key = entry.key
        graph = self._graph(key.graph).graph
        throttle = None
        if self.config.build_throttle > 0:
            pause = self.config.build_throttle

            def throttle(event: ProgressEvent) -> None:
                if event.phase == "sample-batch":
                    time.sleep(pause)

        hook = chain_hooks(self.emit_event, throttle, *extra_hooks)
        if key.kind == "global":
            return run_global(
                graph, key.gamma, epsilon=key.epsilon, delta=key.delta,
                method=key.method, seed=key.seed,
                n_samples=key.n_samples,
                batch_size=self.config.batch_size,
                checkpoint_dir=entry.checkpoint_dir, resume=True,
                progress=hook, faults=self._faults,
                workers=self.config.workers, on_corrupt="restart",
            )
        if key.kind == "nucleus":
            assert key.r is not None and key.s is not None
            return run_nucleus(
                graph, key.r, key.s, key.gamma, method=key.method,
                checkpoint_dir=entry.checkpoint_dir, resume=True,
                progress=hook, faults=self._faults, on_corrupt="restart",
            )
        return run_local(
            graph, key.gamma, method=key.method,
            checkpoint_dir=entry.checkpoint_dir, resume=True,
            progress=hook, faults=self._faults, on_corrupt="restart",
        )

    def payload_of(self, key: IndexKey,
                   partial: "PartialResult") -> tuple[dict, bytes]:
        """The JSON summary served to clients + the canonical bytes."""
        from repro.runtime.result import (
            serialize_global_result,
            serialize_local_result,
            serialize_nucleus_result,
        )

        result = partial.result
        base = {
            "kind": key.kind,
            "graph": key.graph,
            "gamma": key.gamma,
            "method": key.method,
            "seed": key.seed,
            "complete": partial.complete,
            "build_degraded": partial.degraded,
            "build_reason": partial.reason,
            "k_max": result.k_max,
        }
        if key.kind == "global":
            base.update({
                "epsilon": key.epsilon,
                "delta": key.delta,
                "n_samples": result.n_samples,
                "effective_epsilon": partial.effective_epsilon,
                "trusses": {
                    str(k): [
                        {"nodes": sorted(map(str, t.nodes())),
                         "edges": t.number_of_edges()}
                        for t in trusses
                    ]
                    for k, trusses in sorted(result.trusses.items())
                },
            })
            if partial.detail.get("supervision"):
                base["supervision"] = partial.detail["supervision"]
            return base, serialize_global_result(result)
        if key.kind == "nucleus":
            base.update({
                "r": key.r,
                "s": key.s,
                "clique_counts": {
                    str(k): len(result.nucleus_cliques(k))
                    for k in range(2, result.k_max + 1)
                },
            })
            return base, serialize_nucleus_result(result)
        base["truss_counts"] = {
            str(k): len(result.maximal_trusses(k))
            for k in range(2, result.k_max + 1)
        }
        return base, serialize_local_result(result)

    # ------------------------------------------------------------------
    # request handling (pure dispatch; HTTP layer calls this)
    def handle(self, endpoint: str, params: dict,
               budget: Budget) -> tuple[int, dict, dict]:
        """Dispatch one query; returns (status, payload, headers).

        ``params`` maps names to lists of strings (query-string style);
        typed :class:`~repro.exceptions.ReproError` subclasses raised
        here are rendered by the HTTP layer via
        :func:`~repro.exceptions.http_status_of`.
        """
        if endpoint == "healthz":
            # Exempt from pressure shedding (handle_http skips the
            # check) so monitoring keeps working under pressure; the
            # payload carries the pressure state instead.
            return 200, {
                "status": "draining" if self.draining else "ok",
                "in_flight": self.admission.inflight,
                "indexes": len(self.store.entries()),
                "pending_builds": self.builder.pending(),
                "pressure": self._pressure_state(),
            }, {}
        if endpoint == "stats":
            return self._handle_stats(params, budget)
        if endpoint == "indexes":
            return 200, {
                "indexes": [e.describe() for e in self.store.entries()],
            }, {}
        if endpoint in ("local", "global", "nucleus"):
            return self._handle_index_query(endpoint, params, budget)
        if endpoint == "team":
            return self._handle_team(params, budget)
        raise ParameterError(
            f"unknown endpoint {endpoint!r}; see docs/serving.md")

    def _handle_stats(self, params: dict, budget: Budget) -> tuple:
        record = self._graph(_one(params, "graph", required=True))
        cached = record.cached_stats()
        if cached is not None:
            return 200, dict(cached), {}
        from repro.datasets import dataset_statistics

        payload: dict = dict(dataset_statistics(record.graph))
        remaining = budget.remaining()
        if remaining is None or remaining > 0.25:
            from repro.core.stats import profile_graph

            profile = profile_graph(record.graph)
            payload.update({
                "mean_degree": profile.mean_degree,
                "expected_triangles": profile.expected_triangles,
                "density": profile.density,
                "pcc": profile.pcc,
                "clustering": profile.clustering,
                "degraded": False,
            })
            return 200, dict(record.keep_stats(payload)), {}
        # Not enough deadline left for the triangle profile: serve the
        # cheap statistics honestly marked partial, and keep nothing.
        self.emit("service-degraded", self._bump("degraded_served"),
                  {"endpoint": "stats", "reason": "deadline"})
        payload["degraded"] = True
        payload["reason"] = "deadline: profile skipped"
        return 200, payload, {}

    def _index_key(self, kind: str, params: dict) -> IndexKey:
        from repro.graphs.sampling import hoeffding_sample_size

        spec = _one(params, "graph", required=True)
        fp = self._graph(spec).fingerprint
        gamma = _float(params, "gamma", required=True)
        if not 0.0 <= gamma <= 1.0:
            raise ParameterError(f"gamma must be in [0, 1], got {gamma}")
        if kind == "local":
            method = _one(params, "method", default="dp")
            if method not in ("dp", "baseline"):
                raise ParameterError(
                    f"local method must be dp|baseline, got {method!r}")
            return IndexKey(
                kind="local", graph=spec, graph_nodes=fp["nodes"],
                graph_edges=fp["edges"], graph_crc=fp["crc"],
                gamma=gamma, method=method, seed=self.config.seed)
        if kind == "nucleus":
            from repro.truss.nucleus import validate_rs

            method = _one(params, "method", default="dp")
            if method not in ("dp", "baseline"):
                raise ParameterError(
                    f"nucleus method must be dp|baseline, got {method!r}")
            r = _int(params, "r", default=3)
            s = _int(params, "s", default=4)
            assert r is not None and s is not None
            validate_rs(r, s)
            return IndexKey(
                kind="nucleus", graph=spec, graph_nodes=fp["nodes"],
                graph_edges=fp["edges"], graph_crc=fp["crc"],
                gamma=gamma, method=method, seed=self.config.seed,
                r=r, s=s)
        method = _one(params, "method", default="gbu")
        if method not in ("gbu", "gtd"):
            raise ParameterError(
                f"global method must be gbu|gtd, got {method!r}")
        epsilon = _float(params, "epsilon", default=0.1)
        delta = _float(params, "delta", default=0.1)
        n_samples = _int(params, "samples", default=None)
        if n_samples is None:
            n_samples = hoeffding_sample_size(epsilon, delta)
        return IndexKey(
            kind="global", graph=spec, graph_nodes=fp["nodes"],
            graph_edges=fp["edges"], graph_crc=fp["crc"], gamma=gamma,
            method=method, seed=self.config.seed, epsilon=epsilon,
            delta=delta, n_samples=n_samples)

    def _handle_index_query(self, kind: str, params: dict,
                            budget: Budget) -> tuple:
        key = self._index_key(kind, params)
        entry, created = self.store.ensure(key)
        self._arm_breaker(entry)
        refresh = _flag(params, "refresh")
        breaker = entry.breaker
        if created or refresh or entry.status in ("failed", "interrupted"):
            # Request unconditionally: ``builder.request`` dedups, and
            # the builder thread — the breaker's sole writer — makes
            # the one mutating ``allow()`` decision. Calling ``allow()``
            # here would consume the open→half-open probe permit on a
            # handler thread and wedge the breaker half-open forever.
            self.builder.request(entry.token)
        wait = _flag(params, "wait")
        if wait and entry.payload is None:
            self._wait_for_index(entry, budget)
        payload = entry.payload
        if payload is not None:
            breaker_open = breaker.state != "closed"
            stale = entry.degraded
            degraded = bool(payload.get("build_degraded") or stale
                            or breaker_open)
            reasons = [r for r in (
                payload.get("build_reason"),
                entry.reason if stale else None,
                f"circuit {breaker.state}" if breaker_open else None,
            ) if r]
            doc = dict(payload)
            doc["degraded"] = degraded
            doc["reasons"] = sorted(set(reasons))
            doc["breaker"] = breaker.state
            doc["token"] = entry.token
            if degraded:
                self.emit("service-degraded",
                          self._bump("degraded_served"),
                          {"endpoint": kind,
                           "reason": "; ".join(doc["reasons"]) or "stale"})
            return 200, doc, {}
        retry_after = 1.0
        if breaker.state != "closed":
            retry_after = max(retry_after, breaker.retry_after())
        building = entry.status in ("queued", "building", "interrupted")
        raise IndexUnavailableError(
            f"index {entry.token} is "
            f"{'building' if building else 'unavailable'} "
            f"(status {entry.status})",
            retry_after=retry_after, building=building)

    def _wait_for_index(self, entry: IndexEntry, budget: Budget) -> None:
        """Block (bounded by the request deadline) for a fresh build."""
        while entry.payload is None:
            remaining = budget.remaining()
            if remaining is None or remaining <= 0.05:
                return
            if entry.status == "failed" and self.builder.pending() == 0:
                return
            time.sleep(min(0.05, remaining))

    def _handle_team(self, params: dict, budget: Budget) -> tuple:
        from repro.apps.team_formation import team_by_local_truss
        from repro.runtime import run_local

        gamma = _float(params, "gamma", default=1e-3)
        query = params.get("query") or []
        keywords = params.get("keywords") or ["data", "algorithm"]
        if not query:
            raise ParameterError(
                "team queries need at least one ?query= member")
        network = self._collaboration_network()
        task_graph = network.task_graph(keywords)
        # A fresh budget over the deadline *remaining* after admission,
        # so queue time counts against the request like everything else.
        compute = Budget(deadline=max(0.05, budget.remaining() or 0.05),
                         clock=self._clock)
        partial = run_local(task_graph, gamma, budget=compute)
        team = None
        if partial.result is not None:
            team = team_by_local_truss(
                task_graph, query, gamma, local_result=partial.result)
        payload: dict = {
            "query": list(query),
            "keywords": list(keywords),
            "gamma": gamma,
            "degraded": partial.degraded or not partial.complete,
        }
        if partial.degraded or not partial.complete:
            payload["reason"] = partial.reason or "partial decomposition"
            self.emit("service-degraded", self._bump("degraded_served"),
                      {"endpoint": "team",
                       "reason": payload["reason"]})
        if team is None:
            payload["team"] = None
        else:
            payload["team"] = {
                "k": team.k,
                "members": sorted(map(str, team.subgraph.nodes())),
                "n_members": team.n_members,
                "n_edges": team.n_edges,
                "density": team.density,
                "pcc": team.pcc,
                "contains_query": team.contains_query,
            }
        return 200, payload, {}

    # ------------------------------------------------------------------
    # HTTP plumbing
    def accepting(self) -> bool:
        """accept()-time gate: drain state and injected refusals."""
        if self.draining:
            return False
        if self._take_fault("refuse_accept") is not None:
            self.emit("service-shed", self._bump("shed"),
                      {"endpoint": None, "reason": "refuse-accept-fault",
                       "retry_after": self.admission.retry_after})
            return False
        return True

    def _pressure_state(self) -> str | None:
        """``"memory"``/``"disk"`` when a watchdog threshold is
        crossed, None when unconfigured or healthy."""
        watchdog = self.watchdog
        if watchdog is None:
            return None
        sample = watchdog.probe()
        rss = sample.get("peak_rss_bytes")
        free = sample.get("free_bytes")
        if (watchdog.memory_limit_bytes is not None
                and rss is not None
                and rss > watchdog.memory_limit_bytes):
            return "memory"
        if (watchdog.min_free_bytes is not None
                and free is not None
                and free < watchdog.min_free_bytes):
            return "disk"
        return None

    def _check_pressure(self) -> None:
        """Shed when the watchdog's latest probe crossed a threshold."""
        pressure = self._pressure_state()
        if pressure is not None:
            raise OverloadedError(
                f"resource pressure: {pressure}",
                retry_after=max(1.0, self.watchdog.interval))

    # repro: owned-by[handler]
    def handle_http(self, handler: "_Handler") -> None:
        """One request, end to end: admission, dispatch, response."""
        started = self._clock()
        request_id = self._next_request_id()
        url = urlsplit(handler.path)
        endpoint = url.path.strip("/") or "healthz"
        params = parse_qs(url.query)
        deadline = _float(params, "deadline",
                          default=self.config.default_deadline)
        deadline = max(0.05, min(deadline, self.config.max_deadline))
        budget = Budget(deadline=deadline, clock=self._clock).start()
        status, payload, headers = 500, {"error": {
            "type": "ServiceError", "message": "unhandled"}}, {}
        try:
            if endpoint != "healthz":
                # /healthz stays answerable under resource pressure —
                # shedding it would blind monitoring exactly when
                # operators need it; the payload reports the pressure.
                self._check_pressure()
            with self.admission.slot(timeout=deadline):
                self._bump("requests")
                self.emit("service-request", request_id,
                          {"endpoint": endpoint, "id": request_id,
                           "deadline": deadline})
                status, payload, headers = self.handle(
                    endpoint, params, budget)
                self._write_json(handler, endpoint, request_id, started,
                                 status, payload, headers)
                return
        except OverloadedError as err:
            self.emit("service-shed", self._bump("shed"),
                      {"endpoint": endpoint, "reason": str(err),
                       "retry_after": err.retry_after})
            status, payload, headers = _error_response(err)
        except ReproError as err:
            status, payload, headers = _error_response(err)
        except Exception as err:  # repro: allow[EXC003] last-resort guard: a serving bug must become a well-formed 500 response, never a hung socket or a torn body
            payload = {"error": {"type": type(err).__name__,
                                 "message": str(err)}}
            status, headers = 500, {}
        self._write_json(handler, endpoint, request_id, started,
                         status, payload, headers)

    def _write_json(self, handler: BaseHTTPRequestHandler,
                    endpoint: str, request_id: int,
                    started: float, status: int, payload: dict,
                    headers: dict) -> None:
        body = json.dumps(payload, sort_keys=True, default=str).encode()
        elapsed = round(self._clock() - started, 4)
        if self._take_fault("drop_connection") is not None:
            self._bump("dropped_writes")
            handler.close_connection = True
            try:
                handler.connection.close()
            except OSError:
                pass
            self.emit("service-response", request_id,
                      {"endpoint": endpoint, "status": 0,
                       "elapsed": elapsed, "dropped": True})
            return
        stall = self._take_fault("slow_client")
        try:
            handler.send_response(status)
            handler.send_header("Content-Type", "application/json")
            handler.send_header("Content-Length", str(len(body)))
            handler.send_header("Connection", "close")
            for name, value in headers.items():
                handler.send_header(name, str(value))
            handler.end_headers()
            if stall:
                half = len(body) // 2
                handler.wfile.write(body[:half])
                handler.wfile.flush()
                time.sleep(stall)
                handler.wfile.write(body[half:])
            else:
                handler.wfile.write(body)
            handler.wfile.flush()
        except (OSError, ValueError):
            # The client vanished mid-write (or closed its socket);
            # nothing to salvage — the slot is still released and the
            # response is recorded as dropped.
            self._bump("dropped_writes")
            self.emit("service-response", request_id,
                      {"endpoint": endpoint, "status": 0,
                       "elapsed": elapsed, "dropped": True})
            return
        self._bump("responses")
        self.emit("service-response", request_id,
                  {"endpoint": endpoint, "status": status,
                   "elapsed": elapsed,
                   "degraded": bool(payload.get("degraded"))})


def _error_response(err: ReproError) -> tuple[int, dict, dict]:
    status = http_status_of(err)
    payload: dict = {"error": {"type": type(err).__name__,
                               "message": str(err)}}
    headers: dict = {}
    retry_after = getattr(err, "retry_after", None)
    if retry_after is not None:
        headers["Retry-After"] = max(1, int(round(retry_after + 0.5)))
        payload["error"]["retry_after"] = retry_after
    if getattr(err, "building", False):
        payload["error"]["building"] = True
    return status, payload, headers


def _one(params: dict, name: str, default: str | None = None,
         required: bool = False) -> str | None:
    values = params.get(name)
    if not values:
        if required:
            raise ParameterError(f"missing required parameter {name!r}")
        return default
    return values[-1]


def _float(params: dict, name: str, default: float | None = None,
           required: bool = False) -> float | None:
    raw = _one(params, name, required=required)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ParameterError(
            f"parameter {name!r} must be a number, got {raw!r}"
        ) from None


def _int(params: dict, name: str, default: int | None = None) -> int | None:
    raw = _one(params, name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(
            f"parameter {name!r} must be an integer, got {raw!r}"
        ) from None


def _flag(params: dict, name: str) -> bool:
    raw = _one(params, name)
    return raw not in (None, "", "0", "false", "no")


class _ServiceHTTPServer(ThreadingHTTPServer):
    """Threading server that consults the service at accept time."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple, handler: type,
                 service: TrussService) -> None:
        self.service = service
        super().__init__(address, handler)

    def verify_request(self, request: object,
                       client_address: object) -> bool:
        return self.service.accepting()


class _Handler(BaseHTTPRequestHandler):
    """Thin adapter: all logic lives in :meth:`TrussService.handle_http`."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.0"
    #: Bound read so a stalled *request* cannot pin a thread forever.
    timeout = 30

    # repro: owned-by[handler]
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self.server.service.handle_http(self)

    do_POST = do_GET

    def log_message(self, format: str, *args: object) -> None:
        # Access logging goes through service-request/service-response
        # trace events instead of stderr.
        pass


def serve(config: ServeConfig,
          progress: Callable[[ProgressEvent], None] | None = None, *,
          ready: "Callable[[TrussService], None] | None" = None) -> int:
    """Run the service until SIGINT/SIGTERM; returns the exit code.

    Installs an :class:`~repro.runtime.InterruptGuard` on the main
    thread, runs ``serve_forever`` on a daemon thread, and on the first
    signal performs the graceful drain (stop accepting, finish
    in-flight within the grace period, checkpoint the in-progress
    build) before returning 130/143.
    """
    service = TrussService(config, progress=progress)
    service.start()
    host, port = service.address
    print(f"serving on http://{host}:{port}", flush=True)
    if ready is not None:
        ready(service)
    with InterruptGuard() as guard:
        thread = threading.Thread(
            target=service.http_server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-accept", daemon=True)
        thread.start()
        try:
            while not guard.triggered:
                time.sleep(0.05)
        except KeyboardInterrupt:
            guard.trigger(signal.SIGINT)
    signum = guard.signum or signal.SIGTERM
    code = service.drain(signum)
    try:
        thread.join(timeout=config.grace)
    except RuntimeError:  # pragma: no cover - thread never started
        pass
    name = "SIGTERM" if signum == signal.SIGTERM else "SIGINT"
    print(f"drained on {name}; state in {config.state_dir}", flush=True)
    return code
