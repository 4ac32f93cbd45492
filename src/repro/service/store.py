"""Persistent decomposition indexes for the ``repro serve`` service.

An :class:`IndexKey` pins everything that determines a decomposition's
bytes: the kind (global/local/nucleus), the graph (spec string *and*
content fingerprint), the quality parameters, the seed, and the RNG
scheme. The
:class:`IndexStore` persists one directory per key token under
``<state_dir>/indexes/``::

    <token>/key.json        the key, for warm-start discovery
    <token>/meta.json       status, degradations, build accounting,
                            and the JSON summary payload served to
                            clients
    <token>/result.bin      the canonical serialized result bytes
                            (:func:`~repro.runtime.result.serialize_global_result`
                            / ``serialize_local_result``) — the
                            byte-identity contract the drain/resume
                            tests compare
    <token>/checkpoint/     the harness's resumable snapshot for
                            in-progress builds

Every file is written atomically (temp + fsync + rename) and
``result.bin`` is committed *before* the ``meta.json`` that declares the
index ready, so a crash at any point leaves either the old consistent
state or the new one — never a torn index.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.exceptions import ServiceError
from repro.runtime import checkpoint

__all__ = ["IndexKey", "IndexEntry", "IndexStore"]


@dataclass(frozen=True)
class IndexKey:
    """Identity of one precomputed decomposition.

    ``graph`` is the CLI-style spec (dataset name or file path);
    ``graph_nodes``/``graph_edges``/``graph_crc`` fingerprint the actual
    content so a changed file under the same path gets a fresh index
    (once a restarted server re-reads it: a running service loads each
    graph once).
    ``rng_scheme`` names the determinism family (``"per-seed"``), the
    same tag the checkpoint manifests pin.
    """

    kind: str
    graph: str
    graph_nodes: int
    graph_edges: int
    graph_crc: int
    gamma: float
    method: str
    seed: int
    rng_scheme: str = "per-seed"
    epsilon: float | None = None
    delta: float | None = None
    n_samples: int | None = None
    #: Nucleus-only: the (r, s) family; None for global/local keys so
    #: their canonical dicts (and hence tokens) stay versioned together.
    r: int | None = None
    s: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def token(self) -> str:
        """Stable directory name: a short hash of the canonical key."""
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")).encode()
        return f"{self.kind}-{hashlib.sha256(blob).hexdigest()[:16]}"

    @classmethod
    def from_dict(cls, doc: dict) -> "IndexKey":
        return cls(**doc)


class IndexEntry:
    """In-memory state of one index, mirrored to ``meta.json``.

    ``status`` is one of ``queued`` (build requested, not started),
    ``building``, ``ready`` (payload + result bytes on disk),
    ``failed`` (no good result yet), or ``interrupted`` (a drain
    checkpointed a partial build; a warm restart resumes it). A failed
    rebuild of a previously-ready index keeps ``status == "ready"`` —
    the last good result keeps being served, marked degraded.
    """

    def __init__(self, key: IndexKey, directory: Path) -> None:
        self.key = key
        self.directory = directory
        self.status = "queued"
        self.payload: dict | None = None
        self.degraded = False
        self.reason: str | None = None
        self.builds = 0
        self.failures = 0
        #: Set by the service at registration time.
        self.breaker = None

    @property
    def token(self) -> str:
        return self.key.token

    @property
    def checkpoint_dir(self) -> Path:
        return self.directory / "checkpoint"

    @property
    def result_path(self) -> Path:
        return self.directory / "result.bin"

    def describe(self) -> dict:
        """The ``/indexes`` listing row."""
        doc = {
            "token": self.token,
            "key": self.key.to_dict(),
            "status": self.status,
            "degraded": self.degraded,
            "reason": self.reason,
            "builds": self.builds,
            "failures": self.failures,
        }
        if self.breaker is not None:
            doc["breaker"] = {
                "state": self.breaker.state,
                "failures": self.breaker.failures,
                "retry_after": round(self.breaker.retry_after(), 3),
            }
        return doc

    def _meta(self) -> dict:
        return {
            "status": self.status,
            "payload": self.payload,
            "degraded": self.degraded,
            "reason": self.reason,
            "builds": self.builds,
            "failures": self.failures,
        }


def _write_atomic(path: Path, data: bytes) -> None:
    """Temp + fsync + rename so readers never observe a torn file."""
    try:
        checkpoint._write_atomic(path, data)
    except OSError as err:
        raise ServiceError(
            f"index write to {path} failed: {err}"
        ) from err


class IndexStore:
    """Thread-safe registry of :class:`IndexEntry` objects on disk."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._entries: dict[str, IndexEntry] = {}  # repro: guarded-by[self._lock]

    def load(self) -> list[IndexEntry]:
        """Warm start: rebuild the registry from disk.

        Returns the entries that need a (re)build — anything not
        cleanly ``ready``, including builds a drain interrupted.
        """
        pending: list[IndexEntry] = []
        with self._lock:
            for key_file in sorted(self.root.glob("*/key.json")):
                try:
                    key = IndexKey.from_dict(
                        json.loads(key_file.read_text(encoding="utf-8")))
                except (OSError, ValueError, TypeError, KeyError):
                    # A torn or foreign directory: skip, never crash the
                    # warm start over one damaged index.
                    continue
                entry = IndexEntry(key, key_file.parent)
                meta_file = entry.directory / "meta.json"
                try:
                    meta = json.loads(meta_file.read_text(encoding="utf-8"))
                except (OSError, ValueError):
                    meta = {}
                entry.status = meta.get("status", "interrupted")
                entry.payload = meta.get("payload")
                entry.degraded = bool(meta.get("degraded", False))
                entry.reason = meta.get("reason")
                entry.builds = int(meta.get("builds", 0))
                entry.failures = int(meta.get("failures", 0))
                if entry.status == "ready" and not entry.result_path.exists():
                    # meta says ready but the result bytes are missing:
                    # treat as interrupted and rebuild.
                    entry.status = "interrupted"
                if entry.status in ("queued", "building"):
                    # The previous process died mid-build; the
                    # checkpoint (if any) makes the resume cheap.
                    entry.status = "interrupted"
                self._entries[entry.token] = entry
                if entry.status != "ready":
                    pending.append(entry)
        return pending

    def get(self, token: str) -> IndexEntry | None:
        with self._lock:
            return self._entries.get(token)

    def entries(self) -> list[IndexEntry]:
        with self._lock:
            return sorted(self._entries.values(), key=lambda e: e.token)

    def ensure(self, key: IndexKey) -> tuple[IndexEntry, bool]:
        """Get or register the entry for ``key``; True when created."""
        with self._lock:
            entry = self._entries.get(key.token)
            if entry is not None:
                return entry, False
            entry = IndexEntry(key, self.root / key.token)
            entry.directory.mkdir(parents=True, exist_ok=True)
            _write_atomic(
                entry.directory / "key.json",
                json.dumps(key.to_dict(), sort_keys=True,
                           indent=1).encode(),
            )
            self._entries[key.token] = entry
            self._persist_meta(entry)
            return entry, True

    def _persist_meta(self, entry: IndexEntry) -> None:
        _write_atomic(
            entry.directory / "meta.json",
            json.dumps(entry._meta(), sort_keys=True, indent=1).encode(),
        )

    def mark_building(self, token: str) -> None:
        with self._lock:
            entry = self._entries[token]
            entry.status = "building"
            entry.builds += 1
            self._persist_meta(entry)

    def complete(self, token: str, payload: dict, result_bytes: bytes,
                 *, degraded: bool, reason: str | None) -> None:
        """Commit a finished build: result bytes first, then the meta
        that declares them ready (crash-ordering, see module doc)."""
        with self._lock:
            entry = self._entries[token]
            _write_atomic(entry.result_path, result_bytes)
            entry.status = "ready"
            entry.payload = payload
            entry.degraded = bool(degraded)
            entry.reason = reason
            self._persist_meta(entry)

    def fail(self, token: str, reason: str) -> None:
        """A build failed; keep serving the last good payload if any."""
        with self._lock:
            entry = self._entries[token]
            entry.failures += 1
            entry.reason = reason
            if entry.payload is not None:
                entry.status = "ready"
                entry.degraded = True
            else:
                entry.status = "failed"
            self._persist_meta(entry)

    def interrupt(self, token: str) -> None:
        """A drain stopped the build; the checkpoint makes it resumable."""
        with self._lock:
            entry = self._entries[token]
            entry.status = "interrupted"
            self._persist_meta(entry)
