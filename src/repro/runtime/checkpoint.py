"""Versioned, integrity-checked checkpoints for resumable runs.

A checkpoint is a directory::

    <dir>/manifest.json      format tag, version, parameters, RNG states
    <dir>/samples_0000.npz   one bit-packed batch of possible worlds
    <dir>/level_0003.json    maximal trusses found at k = 3
    <dir>/frontier.json      mid-peel GTD snapshot (states as bitmasks)

Every file is written atomically (temp file + rename) and carries a
CRC-32 of its payload, so a crash mid-write leaves the previous
consistent snapshot behind and silent corruption is detected at load
time as a :class:`~repro.exceptions.CheckpointError`. The manifest's
``version`` gates the format: loading a checkpoint written by an
incompatible release fails loudly instead of mis-resuming.

Node labels are encoded with a type tag (``["i", 7]`` / ``["s", "a"]``)
so int and str labels round-trip exactly; other label types are not
checkpointable and raise :class:`CheckpointError` up front.
"""

from __future__ import annotations

import contextlib
import json
import os
import zlib
from pathlib import Path

import numpy as np

from repro.exceptions import CheckpointError, CheckpointWriteError

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointStore",
    "encode_node",
    "decode_node",
]

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 1

#: The ``frontier.json`` fields stored as they come; ``found`` is encoded.
_FRONTIER_KEYS = ("k", "comp_index", "round", "frontier", "visited")


def encode_node(node):
    """Encode a node label as a JSON-safe ``[tag, value]`` pair."""
    if isinstance(node, bool):
        return ["b", bool(node)]
    if isinstance(node, (int, np.integer)):
        return ["i", int(node)]
    if isinstance(node, str):
        return ["s", node]
    raise CheckpointError(
        f"node label {node!r} of type {type(node).__name__} cannot be "
        "checkpointed (only int, str, and bool labels round-trip)"
    )


def decode_node(pair):
    """Invert :func:`encode_node`."""
    try:
        tag, value = pair
    except (TypeError, ValueError):
        raise CheckpointError(f"malformed node encoding {pair!r}") from None
    if tag == "b":
        return bool(value)
    if tag == "i":
        return int(value)
    if tag == "s":
        return str(value)
    raise CheckpointError(f"unknown node tag {tag!r}")


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _write_atomic(path: Path, data: bytes, fault: OSError | None = None):
    """Write ``data`` to ``path`` via temp file + fsync + rename.

    Readers never observe a torn file: any :class:`OSError` along the
    way — short write, failed fsync, failed rename; ENOSPC, quota,
    read-only filesystem — unlinks the partial temp file and propagates
    for the caller to convert. ``fault`` is raised mid-write, after the
    data went to the temp file, exactly where a full disk fails.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            if fault is not None:
                raise fault
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        # Unlinking frees space rather than needing it, so this
        # succeeds even on the full disk that got us here.
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


class CheckpointStore:
    """Read/write access to one checkpoint directory."""

    def __init__(self, directory):
        self.path = Path(directory)
        self.path.mkdir(parents=True, exist_ok=True)
        #: Fault-injection hook: a callable returning an exception to
        #: raise mid-write, or None. Armed by the harness from
        #: :meth:`repro.runtime.FaultPlan.exhaust_disk` so the ENOSPC
        #: path is deterministically testable.
        self.write_fault = None

    def _write_atomic(self, path: Path, data: bytes) -> None:
        """Module :func:`_write_atomic`, armed with :attr:`write_fault`.

        A failure surfaces as a
        :class:`~repro.exceptions.CheckpointWriteError`, which the
        harness downgrades to "continue without checkpointing".
        """
        try:
            _write_atomic(path, data, None if self.write_fault is None
                          else self.write_fault())
        except OSError as err:
            raise CheckpointWriteError(
                f"checkpoint write to {path} failed: {err}", path=path
            ) from err

    def _save_sealed(self, path: Path, key: str, body: dict) -> None:
        """Write ``{"crc": CRC-32 of body, key: body}`` atomically."""
        try:
            text = _canonical_json(body)
        except ValueError as err:  # an int past the int-to-str limit
            raise CheckpointWriteError(
                f"checkpoint write to {path} failed: {err}", path=path
            ) from err
        wrapper = {"crc": zlib.crc32(text.encode("utf-8")), key: body}
        self._write_atomic(
            path, json.dumps(wrapper, sort_keys=True).encode("utf-8")
        )

    def _load_sealed(self, path: Path, key: str, what: str) -> dict:
        """Read and verify a :meth:`_save_sealed` file; returns the body.

        ``what`` names the file in the :class:`CheckpointError` raised
        for unparsable JSON, a missing body, or a CRC mismatch.
        """
        try:
            wrapper = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise CheckpointError(
                f"corrupt checkpoint {what} {path}: {err}"
            ) from err
        if not isinstance(wrapper, dict) or key not in wrapper:
            raise CheckpointError(
                f"corrupt checkpoint {what} {path}: missing {key} body"
            )
        body = wrapper[key]
        crc = zlib.crc32(_canonical_json(body).encode("utf-8"))
        if crc != wrapper.get("crc"):
            raise CheckpointError(
                f"checkpoint {what} {path} failed its integrity check "
                "(crc mismatch)"
            )
        return body

    # -- manifest ------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.path / "manifest.json"

    def exists(self) -> bool:
        """True iff a manifest has been written here."""
        return self.manifest_path.exists()

    def save_manifest(self, manifest: dict) -> None:
        """Atomically persist ``manifest`` (format/version stamped)."""
        doc = dict(manifest)
        doc["format"] = CHECKPOINT_FORMAT
        doc["version"] = CHECKPOINT_VERSION
        self._save_sealed(self.manifest_path, "manifest", doc)

    def load_manifest(self, expect_params: dict | None = None) -> dict:
        """Load and validate the manifest.

        Raises :class:`CheckpointError` on a missing file, corrupt JSON,
        checksum mismatch, wrong format tag, unsupported version, or —
        when ``expect_params`` is given — a parameter fingerprint that
        differs from the one the checkpoint was created with.
        """
        if not self.manifest_path.exists():
            raise CheckpointError(f"no checkpoint manifest at {self.manifest_path}")
        doc = self._load_sealed(self.manifest_path, "manifest", "manifest")
        if doc.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"{self.manifest_path} is not a repro checkpoint"
            )
        if doc.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {doc.get('version')!r} is not "
                f"supported (expected {CHECKPOINT_VERSION})"
            )
        if expect_params is not None and doc.get("params") != expect_params:
            raise CheckpointError(
                "checkpoint was created with different parameters; "
                "refusing to resume (delete the checkpoint directory or "
                "rerun with the original parameters)"
            )
        return doc

    # -- sample batches ------------------------------------------------
    def _batch_path(self, index: int) -> Path:
        return self.path / f"samples_{index:04d}.npz"

    def save_sample_batch(self, index: int, presence: np.ndarray) -> None:
        """Persist one ``(rows, n_edges)`` boolean presence batch."""
        presence = np.asarray(presence, dtype=bool)
        packed = np.packbits(presence, axis=1) if presence.size else (
            np.zeros((presence.shape[0], 0), dtype=np.uint8)
        )
        import io

        buffer = io.BytesIO()
        np.savez(
            buffer,
            packed=packed,
            shape=np.array(presence.shape, dtype=np.int64),
            crc=np.array([zlib.crc32(packed.tobytes())], dtype=np.uint64),
        )
        self._write_atomic(self._batch_path(index), buffer.getvalue())

    def load_sample_batch(self, index: int) -> np.ndarray:
        """Load one presence batch, verifying shape and checksum."""
        path = self._batch_path(index)
        if not path.exists():
            raise CheckpointError(f"missing checkpoint sample batch {path}")
        try:
            with np.load(path) as doc:
                packed = doc["packed"]
                rows, cols = (int(x) for x in doc["shape"])
                crc = int(doc["crc"][0])
        # repro: allow[EXC003] any np.load failure means corruption; rewrapped
        except Exception as err:
            raise CheckpointError(
                f"corrupt checkpoint sample batch {path}: {err}"
            ) from err
        if zlib.crc32(packed.tobytes()) != crc:
            raise CheckpointError(
                f"checkpoint sample batch {path} failed its integrity "
                "check (crc mismatch)"
            )
        if cols:
            # repro: allow[PAR004] one batch_size-bounded batch restore (axis=1)
            presence = np.unpackbits(packed, axis=1, count=cols).astype(bool)
        else:
            presence = np.zeros((rows, 0), dtype=bool)
        if presence.shape != (rows, cols):
            raise CheckpointError(
                f"checkpoint sample batch {path} has inconsistent shape"
            )
        return presence

    # -- decomposition levels ------------------------------------------
    def _level_path(self, k: int) -> Path:
        return self.path / f"level_{k:04d}.json"

    def save_level(self, k: int, trusses) -> None:
        """Persist the maximal trusses found at level ``k``.

        ``trusses`` is a list of probabilistic subgraphs; only their
        edge sets are stored (probabilities live in the host graph).
        Edge lists are sorted so the bytes on disk do not depend on set
        iteration order.
        """
        payload = {
            "k": k,
            "trusses": [
                sorted(
                    [encode_node(u), encode_node(v)]
                    for u, v in truss.edges()
                )
                for truss in trusses
            ],
        }
        self._save_sealed(self._level_path(k), "payload", payload)

    def load_level(self, k: int):
        """Load level ``k`` as a list of edge lists (decoded labels)."""
        path = self._level_path(k)
        if not path.exists():
            raise CheckpointError(f"missing checkpoint level file {path}")
        payload = self._load_sealed(path, "payload", "level file")
        return [
            [(decode_node(u), decode_node(v)) for u, v in truss]
            for truss in payload["trusses"]
        ]

    # -- mid-peel GTD frontier -----------------------------------------
    @property
    def frontier_path(self) -> Path:
        return self.path / "frontier.json"

    def save_frontier(self, detail) -> None:
        """Persist the mid-peel GTD state of one round boundary.

        ``detail`` is a ``"gtd-frontier"`` progress event's payload: the
        level ``k``, the component index, the next round number, the
        level's answers so far (``found``, edge lists), and the
        ``frontier`` and sorted ``visited`` states, bitmasks stored as
        plain JSON ints. Written atomically with a CRC like every other
        checkpoint file, so a kill mid-write leaves the previous round's
        snapshot behind and resume always lands on a round boundary.
        """
        payload = {key: detail[key] for key in _FRONTIER_KEYS}
        payload["found"] = [[[encode_node(u), encode_node(v)] for u, v in t]
                            for t in detail["found"]]
        self._save_sealed(self.frontier_path, "payload", payload)

    def load_frontier(self):
        """Load the mid-peel snapshot, or None when none was saved.

        Returns the ``{"k", "comp_index", "round", "found", "frontier",
        "visited"}`` dict with node labels restored — exactly the
        ``frontier_state`` shape
        :func:`~repro.core.global_decomp.global_truss_decomposition`
        accepts. Corruption raises :class:`CheckpointError`, and so does
        a snapshot from before the bitmask format (states as edge lists).
        """
        path = self.frontier_path
        if not path.exists():
            return None
        payload = self._load_sealed(path, "payload", "frontier file")
        try:
            snapshot = {key: payload[key] for key in _FRONTIER_KEYS}
            snapshot["found"] = [[(decode_node(u), decode_node(v)) for u, v in t]
                                 for t in payload["found"]]
            states = [*snapshot["frontier"], *snapshot["visited"]]
        except (KeyError, TypeError, ValueError) as err:
            raise CheckpointError(
                f"corrupt checkpoint frontier file {path}: {err}"
            ) from err
        if not all(type(state) is int for state in states):
            raise CheckpointError(
                f"checkpoint frontier file {path} predates the bitmask "
                "format (its GTD states are edge lists) and cannot be "
                "resumed; delete it to re-run that level"
            )
        return snapshot

    def clear_frontier(self) -> None:
        """Delete the mid-peel snapshot (a finished level supersedes it)."""
        self.frontier_path.unlink(missing_ok=True)

    # -- garbage collection --------------------------------------------
    def collect_garbage(self, batches_drawn: int | None = None) -> list:
        """Prune files a completed run no longer needs; returns them.

        Removes orphaned ``*.tmp`` partial writes (a crash between
        temp-file creation and rename leaves one behind), the stale
        mid-peel ``frontier.json`` (a finished run supersedes it), and —
        when ``batches_drawn`` is given — sample-batch files with an
        index at or beyond it (left over from an earlier, larger run in
        the same directory). Everything a finished checkpoint still
        resumes from — the manifest, in-range sample batches, and level
        files — is kept, so ``resume=True`` of a completed run keeps
        returning the identical result.
        """
        removed = []
        for path in sorted(self.path.glob("*.tmp")):
            path.unlink()
            removed.append(path)
        if self.frontier_path.exists():
            self.frontier_path.unlink()
            removed.append(self.frontier_path)
        if batches_drawn is not None:
            for path in sorted(self.path.glob("samples_*.npz")):
                try:
                    index = int(path.stem.split("_", 1)[1])
                except (IndexError, ValueError):
                    continue
                if index >= batches_drawn:
                    path.unlink()
                    removed.append(path)
        return removed

    # -- misc ----------------------------------------------------------
    def clear(self) -> None:
        """Delete every file of this checkpoint (directory stays)."""
        for path in self.path.glob("*"):
            if path.is_file():
                path.unlink()
