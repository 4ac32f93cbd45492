"""Possible-world sampling (Section 5.1 of the paper).

The global decomposition estimates the #P-hard quantity ``alpha_k(H, e)``
by Monte-Carlo sampling. Theorem 3 lets us sample ``N`` possible worlds of
the *whole* graph once and re-use their projections ``G_i ↓ H`` for every
candidate subgraph ``H`` considered during the decomposition; the number
of samples needed for an (epsilon, delta) guarantee comes from Hoeffding's
inequality: ``N >= ln(2/delta) / (2 epsilon^2)``.

:class:`WorldSampleSet` stores the samples bit-packed, one bit per
(edge, sample) pair — the layout the paper reports as 192 bits per edge
for N = 150 samples.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Iterator
from pathlib import Path

import numpy as np

from repro.exceptions import EdgeNotFoundError, ParameterError
from repro.graphs.probabilistic import ProbabilisticGraph, edge_key

__all__ = [
    "hoeffding_sample_size",
    "hoeffding_epsilon",
    "sample_possible_world",
    "sample_possible_worlds",
    "SampleBatcher",
    "WorldSampleSet",
]

Node = Hashable
Edge = tuple[Node, Node]


def hoeffding_sample_size(epsilon: float, delta: float) -> int:
    """Return the smallest ``N`` with ``N >= ln(2/delta) / (2 epsilon^2)``.

    This is the sample count guaranteeing, via Hoeffding's inequality
    (Proposition 1), that the Monte-Carlo estimate of any alpha_k(H, e)
    deviates from the truth by more than ``epsilon`` with probability at
    most ``delta``.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ParameterError(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0.0 < delta <= 1.0:
        raise ParameterError(f"delta must be in (0, 1], got {delta}")
    return math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))


def hoeffding_epsilon(n_samples: int, delta: float) -> float:
    """Invert the Hoeffding bound: the epsilon that ``N`` samples buy.

    ``epsilon = sqrt(ln(2/delta) / (2 N))`` — this is how a run cut
    short after ``N' < N`` samples reports its honestly widened accuracy
    instead of pretending to the requested one.
    """
    if n_samples <= 0:
        raise ParameterError(f"n_samples must be positive, got {n_samples}")
    if not 0.0 < delta <= 1.0:
        raise ParameterError(f"delta must be in (0, 1], got {delta}")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n_samples))


def sample_possible_world(
    graph: ProbabilisticGraph, rng: np.random.Generator
) -> set[Edge]:
    """Sample one possible world; return the set of edges present in it."""
    present: set[Edge] = set()
    for u, v, p in graph.edges_with_probabilities():
        if rng.random() < p:
            present.add((u, v))
    return present


def sample_possible_worlds(
    graph: ProbabilisticGraph,
    n_samples: int,
    seed: int | np.random.Generator | None = None,
) -> "WorldSampleSet":
    """Sample ``n_samples`` independent possible worlds of ``graph``.

    Convenience wrapper around :meth:`WorldSampleSet.from_graph`.
    """
    return WorldSampleSet.from_graph(graph, n_samples, seed=seed)


class _PackedBatch:
    """One retained batch, bit-packed along the edge axis (8x RAM cut).

    Stands in for the boolean batch array inside
    :class:`SampleBatcher`: it keeps the original ``shape`` so row
    accounting is unchanged, and :meth:`unpack` restores the exact
    boolean matrix (``packbits``/``unpackbits`` round-trip bit-exactly).
    """

    __slots__ = ("_packed", "shape")

    def __init__(self, presence: np.ndarray):
        self.shape = presence.shape
        if presence.size:
            self._packed = np.packbits(presence, axis=1)
        else:
            self._packed = np.zeros((presence.shape[0], 0), dtype=np.uint8)

    def unpack(self) -> np.ndarray:
        rows, cols = self.shape
        if cols:
            # repro: allow[PAR004] one batch_size-bounded batch (axis=1), not a projection
            return np.unpackbits(self._packed, axis=1, count=cols).astype(bool)
        return np.zeros((rows, 0), dtype=bool)


class SampleBatcher:
    """Incremental, checkpointable possible-world sampler.

    Draws the ``n_samples x m`` presence matrix in row batches. Because
    numpy's ``Generator.random`` fills arrays from one sequential
    stream, drawing in batches is *bit-identical* to a single-shot draw
    with the same seed — the property the checkpoint/resume machinery
    relies on: a run killed between batches resumes from the serialised
    RNG state (:meth:`rng_state`/:meth:`set_rng_state`) and produces the
    same worlds as an uninterrupted run.
    """

    def __init__(
        self,
        graph: ProbabilisticGraph,
        n_samples: int,
        batch_size: int,
        seed: int | np.random.Generator | None = None,
    ):
        if n_samples <= 0:
            raise ParameterError(f"n_samples must be positive, got {n_samples}")
        if batch_size <= 0:
            raise ParameterError(f"batch_size must be positive, got {batch_size}")
        self._rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        self._edges: list[Edge] = []
        probs: list[float] = []
        for u, v, p in graph.edges_with_probabilities():
            self._edges.append((u, v))
            probs.append(p)
        self._probs = np.asarray(probs)
        self.n_samples = n_samples
        self.batch_size = batch_size
        self._batches: list[np.ndarray] = []

    @property
    def edges(self) -> list[Edge]:
        """Column order of the presence matrices (copy)."""
        return list(self._edges)

    @property
    def n_batches(self) -> int:
        """Total number of batches a full draw takes."""
        return -(-self.n_samples // self.batch_size)

    @property
    def batches_drawn(self) -> int:
        return len(self._batches)

    @property
    def samples_drawn(self) -> int:
        return sum(b.shape[0] for b in self._batches)

    def batch_rows(self, index: int) -> int:
        """Row count of batch ``index`` (the last one may be short)."""
        if not 0 <= index < self.n_batches:
            raise ParameterError(
                f"batch index {index} out of range [0, {self.n_batches})"
            )
        return min(self.batch_size, self.n_samples - index * self.batch_size)

    def rng_state(self) -> dict:
        """JSON-serialisable RNG state (valid between batches)."""
        return self._rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        """Restore an RNG state captured by :meth:`rng_state`."""
        self._rng.bit_generator.state = state

    def load_batch(self, presence: np.ndarray) -> None:
        """Append a previously drawn batch (checkpoint resume path)."""
        presence = np.asarray(presence, dtype=bool)
        if self.batches_drawn >= self.n_batches:
            # Without this check the batch_rows() call below would fail
            # with a misleading "index out of range" — the real problem
            # is a checkpoint holding more batches than the run needs
            # (oversized, corrupt, or from different parameters).
            raise ParameterError(
                f"all {self.n_batches} batches have already been drawn; "
                "cannot load another resumed batch (the checkpoint holds "
                "more sample batches than this run's parameters allow)"
            )
        expected = (self.batch_rows(self.batches_drawn), len(self._edges))
        if presence.shape != expected:
            raise ParameterError(
                f"resumed batch has shape {presence.shape}, expected {expected}"
            )
        self._batches.append(presence)

    def draw_presence(self, rows: int) -> np.ndarray:
        """Draw ``rows`` worlds from the RNG stream without retaining them.

        Streaming consumers (e.g. reliability estimation) classify each
        batch and discard it; this keeps the draw order — hence the
        bit-exact RNG stream — identical to :meth:`draw_next`.
        """
        if self._edges:
            return self._rng.random((rows, len(self._edges))) < self._probs
        return np.zeros((rows, 0), dtype=bool)

    def draw_next(self) -> np.ndarray:
        """Draw and retain the next batch; returns its presence matrix."""
        if self.batches_drawn >= self.n_batches:
            raise ParameterError("all batches have already been drawn")
        presence = self.draw_presence(self.batch_rows(self.batches_drawn))
        self._batches.append(presence)
        return presence

    def compact(self) -> int:
        """Bit-pack the retained batches in place; returns bytes freed.

        This is the first, cheap response to memory pressure: the
        ``n x m`` boolean batches shrink 8x without touching the RNG
        stream or the assembled result — ``packbits``/``unpackbits``
        round-trip bit-exactly, so :meth:`result` is unchanged.
        Idempotent; newly drawn batches stay unpacked until the next
        call.
        """
        freed = 0
        for i, batch in enumerate(self._batches):
            if isinstance(batch, _PackedBatch):
                continue
            packed = _PackedBatch(batch)
            freed += int(batch.nbytes) - int(packed._packed.nbytes)
            self._batches[i] = packed
        return freed

    def result(self, partial_ok: bool = False) -> "WorldSampleSet":
        """Assemble the drawn batches into a :class:`WorldSampleSet`.

        With ``partial_ok`` a prefix of the batches suffices (the
        graceful-degradation path); otherwise all batches are required.
        """
        if not partial_ok and self.batches_drawn < self.n_batches:
            raise ParameterError(
                f"only {self.batches_drawn} of {self.n_batches} batches drawn"
            )
        if not self._batches:
            raise ParameterError("no sample batches drawn yet")
        batches = [
            b.unpack() if isinstance(b, _PackedBatch) else b
            for b in self._batches
        ]
        presence = (
            batches[0]
            if len(batches) == 1
            else np.concatenate(batches, axis=0)
        )
        return WorldSampleSet(presence, self._edges)


class WorldSampleSet:
    """``N`` independent possible worlds of a probabilistic graph, bit-packed.

    The presence bits form an ``N x m`` boolean matrix (``m`` = number of
    edges), stored packed as ``uint8``. Column order is fixed at creation
    time and exposed through :attr:`edge_index`, so the same sample set
    can be projected onto any subgraph by column selection — the
    projection strategy justified by Theorem 3.
    """

    __slots__ = ("_packed", "_n_samples", "_edge_index", "_edges",
                 "_spill_path")

    def __init__(self, presence: np.ndarray, edges: list[Edge]):
        presence = np.asarray(presence, dtype=bool)
        if presence.ndim != 2 or presence.shape[1] != len(edges):
            raise ParameterError(
                "presence must be an (n_samples, n_edges) boolean matrix"
            )
        if presence.shape[0] < 1:
            # An empty sample set would make every downstream frequency
            # (c / n_samples) a division by zero.
            raise ParameterError(
                "a WorldSampleSet needs at least one sampled world, got "
                f"a ({presence.shape[0]}, {presence.shape[1]}) presence matrix"
            )
        self._n_samples = presence.shape[0]
        self._edges = list(edges)
        self._edge_index = {e: i for i, e in enumerate(self._edges)}
        if len(self._edge_index) != len(self._edges):
            raise ParameterError("duplicate edges in sample-set column order")
        # Pack along the sample axis: one column of bits per edge.
        self._packed = np.packbits(presence, axis=0)
        self._spill_path = None

    @classmethod
    def from_packed(
        cls, packed: np.ndarray, n_samples: int, edges: list[Edge]
    ) -> "WorldSampleSet":
        """Wrap an already bit-packed ``(ceil(N/8), m)`` matrix, zero-copy.

        ``packed`` must be laid out exactly as :attr:`packed_bits`
        produces it (bits packed along the sample axis). The array is
        *not* copied — this is how worker processes view a sample set
        published in shared memory without duplicating it.
        """
        if n_samples < 1:
            raise ParameterError(
                f"a WorldSampleSet needs at least one sampled world, "
                f"got n_samples={n_samples}"
            )
        packed = np.asarray(packed, dtype=np.uint8)
        expected = (-(-n_samples // 8), len(edges))
        if packed.ndim != 2 or packed.shape != expected:
            raise ParameterError(
                f"packed presence bits have shape {packed.shape}, "
                f"expected {expected} for {n_samples} samples over "
                f"{len(edges)} edges"
            )
        obj = cls.__new__(cls)
        obj._n_samples = int(n_samples)
        obj._edges = list(edges)
        obj._edge_index = {e: i for i, e in enumerate(obj._edges)}
        if len(obj._edge_index) != len(obj._edges):
            raise ParameterError("duplicate edges in sample-set column order")
        obj._packed = packed
        obj._spill_path = None
        return obj

    @property
    def packed_bits(self) -> np.ndarray:
        """The raw ``(ceil(N/8), m)`` bit-packed presence matrix (no copy).

        One column of packed bits per edge, samples along axis 0 — the
        layout :meth:`from_packed` accepts back. Treat as read-only.
        """
        return self._packed

    # -- spill-to-disk backend -----------------------------------------
    @property
    def is_spilled(self) -> bool:
        """True iff the packed bits live in a file-backed memmap."""
        return self._spill_path is not None

    @property
    def spill_path(self) -> Path | None:
        """The memmap file backing the packed bits, or None (RAM)."""
        return self._spill_path

    def spill_to(self, path) -> Path | None:
        """Move the packed bits into a read-only ``np.memmap`` at ``path``.

        The on-disk bytes are exactly :attr:`packed_bits` — same dtype,
        shape, and C order — so every downstream read is byte-identical
        to the RAM backing; only the residency changes. The mapping is
        reopened read-only so no consumer (this process or a worker
        mapping the same file) can scribble on the samples. Idempotent:
        an already spilled set returns its existing path. Returns None
        without spilling when there is nothing to spill (an edgeless
        matrix maps to a zero-byte file, which mmap rejects).
        """
        if self._spill_path is not None:
            return self._spill_path
        packed = np.ascontiguousarray(self._packed)
        if packed.size == 0:
            return None
        path = Path(path)
        mapped = np.memmap(path, dtype=np.uint8, mode="w+",
                           shape=packed.shape)
        mapped[:] = packed
        mapped.flush()
        del mapped  # close the writable mapping before reopening
        self._packed = np.memmap(path, dtype=np.uint8, mode="r",
                                 shape=packed.shape)
        self._spill_path = path
        return path

    @classmethod
    def from_graph(
        cls,
        graph: ProbabilisticGraph,
        n_samples: int,
        seed: int | np.random.Generator | None = None,
        batch_size: int | None = None,
        progress=None,
    ) -> "WorldSampleSet":
        """Draw ``n_samples`` worlds from ``graph`` with a seedable RNG.

        The draw runs through a :class:`SampleBatcher` in row batches of
        ``batch_size`` (default: one batch of ``n_samples``), and
        ``progress`` (a hook taking a
        :class:`~repro.runtime.progress.ProgressEvent`) is called after
        each batch — the cooperative cancellation point budgets and
        interrupt guards use. Every batch size gives bit-identical
        worlds for the same seed.
        """
        from repro.runtime.progress import ProgressEvent

        batcher = SampleBatcher(
            graph, n_samples, batch_size or n_samples, seed=seed
        )
        while batcher.batches_drawn < batcher.n_batches:
            batcher.draw_next()
            if progress is not None:
                progress(ProgressEvent(
                    "sample-batch",
                    step=batcher.batches_drawn - 1,
                    total=batcher.n_batches,
                    detail={"samples_drawn": batcher.samples_drawn},
                ))
        return batcher.result()

    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Number of sampled worlds ``N``."""
        return self._n_samples

    @property
    def n_edges(self) -> int:
        """Number of edges covered by the sample set."""
        return len(self._edges)

    @property
    def edge_index(self) -> dict[Edge, int]:
        """Mapping from canonical edge key to column index (copy)."""
        return dict(self._edge_index)

    def nbytes(self) -> int:
        """Size of the packed presence bits in bytes."""
        return int(self._packed.nbytes)

    def has_edge(self, u: Node, v: Node) -> bool:
        """Return True iff edge (u, v) has a column in this sample set."""
        return edge_key(u, v) in self._edge_index

    def edge_bits(self, u: Node, v: Node) -> np.ndarray:
        """Return the length-``N`` boolean presence vector of edge (u, v)."""
        from repro.core import kernels

        key = edge_key(u, v)
        try:
            col = self._edge_index[key]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None
        return kernels.unpack_matrix(
            self._packed[:, col:col + 1], self._n_samples
        )[:, 0]

    def _columns(self, edges: Iterable[Edge]) -> list[int]:
        """Resolve edges to column indices, raising on unknown edges."""
        cols: list[int] = []
        for u, v in edges:
            key = edge_key(u, v)
            try:
                cols.append(self._edge_index[key])
            except KeyError:
                raise EdgeNotFoundError(u, v) from None
        return cols

    def packed_columns(self, edges: Iterable[Edge]) -> np.ndarray:
        """Return the packed ``(ceil(N/8), len(edges))`` column submatrix.

        The bit-packed projection ``G_i ↓ H`` for every sample at once —
        8x smaller than :meth:`presence_matrix` and the only copy a
        spilled (memmapped) sample set's classification brings into RAM.
        Bit layout follows the :mod:`repro.core.kernels` contract.
        """
        cols = self._columns(edges)
        if not cols:
            return np.zeros((-(-self._n_samples // 8), 0), dtype=np.uint8)
        return np.ascontiguousarray(self._packed[:, cols])

    def presence_matrix(self, edges: Iterable[Edge]) -> np.ndarray:
        """Return the ``N x len(edges)`` presence submatrix for ``edges``.

        This is the projection ``G_i ↓ H`` for every sample at once, for a
        subgraph ``H`` with the given edge set. The result is the fully
        unpacked boolean matrix — 8x the packed bits; hot paths use
        :meth:`packed_columns` with the :mod:`repro.core.kernels`
        popcount kernels instead and never materialise this.
        """
        from repro.core import kernels

        cols = self._columns(edges)
        if not cols:
            return np.zeros((self._n_samples, 0), dtype=bool)
        return kernels.unpack_matrix(self._packed[:, cols], self._n_samples)

    def world_edges(
        self, sample: int, restrict_to: Iterable[Edge] | None = None
    ) -> set[Edge]:
        """Return the edges present in world ``sample``.

        With ``restrict_to``, only those edges are reported — i.e. the
        edge set of the projected world ``G_sample ↓ H``.
        """
        from repro.core import kernels

        if not 0 <= sample < self._n_samples:
            raise ParameterError(
                f"sample index {sample} out of range [0, {self._n_samples})"
            )
        if restrict_to is None:
            candidates = list(self._edges)
        else:
            candidates = [edge_key(u, v) for u, v in restrict_to]
        packed = self.packed_columns(candidates)
        row = kernels.gather_rows(packed, np.array([sample]))[0]
        return {candidates[j] for j in np.flatnonzero(row)}

    #: Samples per chunk when iterating worlds; bounds the unpacked
    #: working set to ``chunk x m`` bools regardless of N (spilled sets
    #: stream through this window instead of materialising 8x N x m).
    _ITER_CHUNK = 1024

    def iter_worlds(
        self, restrict_to: Iterable[Edge] | None = None
    ) -> Iterator[set[Edge]]:
        """Yield the (optionally projected) edge set of every sampled world.

        Worlds are unpacked in bounded row chunks, so iteration over a
        spilled (memmapped) sample set never materialises the full
        boolean matrix.
        """
        from repro.core import kernels

        if restrict_to is None:
            candidates = list(self._edges)
        else:
            candidates = [edge_key(u, v) for u, v in restrict_to]
        packed = self.packed_columns(candidates)
        for lo in range(0, self._n_samples, self._ITER_CHUNK):
            hi = min(lo + self._ITER_CHUNK, self._n_samples)
            chunk = kernels.gather_rows(packed, np.arange(lo, hi))
            for i in range(hi - lo):
                yield {candidates[j] for j in np.flatnonzero(chunk[i])}

    def edge_frequency(self, u: Node, v: Node) -> float:
        """Return the fraction of sampled worlds containing edge (u, v).

        Computed by popcount on the packed column — the boolean
        presence vector is never materialised.
        """
        from repro.core import kernels

        key = edge_key(u, v)
        try:
            col = self._edge_index[key]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None
        count = kernels.column_counts(self._packed[:, col:col + 1])[0]
        return float(count) / self._n_samples
