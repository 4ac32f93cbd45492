"""Shared helpers: paths, seeds, scratch space and the environment stamp."""

from __future__ import annotations

import contextlib
import hashlib
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

#: The checkout root (the directory holding ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Everything a run leaves behind (traces, scratch) goes under here.
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: Seed of the fixed dataset topologies (the paper's year) and of the
#: fixed dblp probabilities.
TOPOLOGY_SEED = 2016

if SRC not in sys.path:
    sys.path.insert(0, SRC)


def have_sources() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def child_env() -> dict:
    """Environment for child interpreters: the sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def sub_seed(seed: int, index: int) -> int:
    """A 32-bit seed for input ``index`` of the run seeded ``seed``."""
    import numpy as np

    return int(np.random.SeedSequence(
        [abs(seed), int(seed < 0), index + 1]).generate_state(1)[0])


@contextlib.contextmanager
def scratch_dir(prefix: str):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of its orphaned descendants.

    A child's own children (the ``multiprocessing`` resource tracker of a
    set-up interpreter, say) then stay ours to wait for, so
    :func:`end_children` can reap every process the run started.
    """
    import ctypes

    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _child_pids() -> list[int]:
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            if ppid == me:
                pids.append(int(entry))
    return pids


def end_children(grace: float = 10.0) -> None:
    """Stop the resource tracker and wait until every child has ended.

    ``multiprocessing.shared_memory`` starts a resource tracker that
    otherwise outlives this process.  Closing its pipe ends it; children
    still running after ``grace`` seconds are killed, and all are reaped.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _child_pids():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.01)


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _git_rev() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """SHA-256 over ``src/repro``, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    base = os.path.join(SRC, "repro")
    for folder, dirs, files in sorted(os.walk(base)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as src:
                    digest.update(src.read())
    return digest.hexdigest()[:16]


def environment(pool_min_cells) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": _git_rev(),
        "src_sha256": _source_digest(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "pool.min_cells": pool_min_cells,
    }


class Stopwatch:
    """Times ops next to a fixed reference workload.

    The machines this runs on drift: the same op can take 1.5x longer
    for minutes at a time.  Each time is therefore reported rescaled,
    ``raw * NOMINAL_S / reference``, where ``reference`` is the mean of
    the reference samples taken just before and just after the op:
    seconds on a machine where one reference pass takes ``NOMINAL_S``
    (about what it took on the 2-vCPU VM the benchmark was tuned on).
    The raw seconds stay in the report line.

    A pass sorts 300,000 floats (2.4 MB).  Over four minutes of
    interleaved timings its speed tracked the drift of a GTD op and of a
    local decomposition better than pure-Python loops, a cache-resident
    ``unique`` or a memory-bound sum did: scaled by it, medians of ten
    ops varied about 3% instead of 12-15%.

    Pool ops and two-client blocks are scaled by the same one-core
    sample.  A two-core sample (the passes run at once in two processes)
    tracked them worse: how much of the second vCPU is free changes from
    one second to the next.
    """

    NOMINAL_S = 0.0028
    PASSES = 15
    #: A sample older than this (untimed work ran since) is retaken.
    STALE_S = 0.25

    def __init__(self) -> None:
        import numpy as np

        self._values = np.random.default_rng(0).random(300_000)
        self._np = np
        self.sample()                      # first calls pay lazy set-up
        self._before = self.sample()
        self._taken_at = time.perf_counter()
        self.factors: list[float] = []

    def sample(self) -> float:
        """Median seconds of one pass."""
        times = []
        for _ in range(self.PASSES):
            started = time.perf_counter()
            self._np.sort(self._values)
            times.append(time.perf_counter() - started)
        return statistics.median(times)

    def run(self, fn, *args):
        """``(result, raw seconds, scale factor)`` of ``fn(*args)``.

        Consecutive calls share the sample taken between them.
        """
        if time.perf_counter() - self._taken_at > self.STALE_S:
            self._before = self.sample()
        started = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - started
        after = self.sample()
        self._taken_at = time.perf_counter()
        factor = self.NOMINAL_S / ((self._before + after) / 2)
        self._before = after
        self.factors.append(factor)
        return result, elapsed, factor
