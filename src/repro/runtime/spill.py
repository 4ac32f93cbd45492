"""On-disk home for spilled sample matrices.

When a global run crosses its memory budget while sampling, the packed
possible-world presence matrix moves out of RAM into a file-backed
``np.memmap`` (see
:meth:`repro.graphs.sampling.WorldSampleSet.spill_to`). A
:class:`SpillDirectory` owns where those files live: a caller-supplied
directory (kept afterwards — only the spill files themselves are
removed) or a private temporary directory deleted wholesale on
cleanup. It also answers "how much disk is left here", which the
:class:`~repro.runtime.pressure.ResourceWatchdog` probes.

The bit-packed layout is unchanged on disk — ``(ceil(N/8), m)`` uint8,
bits packed along the sample axis — so a spilled set is byte-identical
to its RAM twin and sequential column reads (the access pattern of
``presence_matrix``) stay cache- and readahead-friendly.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

__all__ = ["SpillDirectory"]


class SpillDirectory:
    """Owns the directory spilled sample files are allocated in.

    With ``directory=None`` a private temporary directory is created
    (prefix ``repro-spill-``) and removed entirely by :meth:`cleanup`;
    a caller-supplied directory is created if missing but only the
    files handed out by :meth:`allocate` are removed on cleanup.
    """

    def __init__(self, directory=None):
        if directory is None:
            self.path = Path(tempfile.mkdtemp(prefix="repro-spill-"))
            self._owned = True
        else:
            self.path = Path(directory)
            self.path.mkdir(parents=True, exist_ok=True)
            self._owned = False
        self._allocated: list[Path] = []

    def free_bytes(self) -> int:
        """Free bytes on the filesystem holding this directory."""
        return int(shutil.disk_usage(self.path).free)

    def allocate(self, name: str) -> Path:
        """Reserve a file path for one spilled matrix (tracked for GC)."""
        path = self.path / name
        self._allocated.append(path)
        return path

    def cleanup(self) -> None:
        """Remove allocated spill files (and the tempdir, if owned).

        On Linux, unlinking a file that live workers still have mapped
        is safe — the pages stay valid until the last mapping goes.
        """
        for path in self._allocated:
            if path.exists():
                path.unlink()
        self._allocated.clear()
        if self._owned:
            shutil.rmtree(self.path, ignore_errors=True)

    def __enter__(self) -> "SpillDirectory":
        return self

    def __exit__(self, *exc_info) -> None:
        self.cleanup()
