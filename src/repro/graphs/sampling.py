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
import numbers
from collections.abc import Hashable, Iterable
from pathlib import Path

import numpy as np

from repro.exceptions import EdgeNotFoundError, ParameterError
from repro.graphs.probabilistic import ProbabilisticGraph, edge_key

__all__ = [
    "hoeffding_sample_size",
    "hoeffding_epsilon",
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


class SampleBatcher:
    """Incremental, checkpointable possible-world sampler.

    Draws the ``n_samples x m`` presence matrix in row batches. Because
    numpy's ``Generator.random`` fills arrays from one sequential
    stream, drawing in batches is *bit-identical* to a single-shot draw
    with the same seed — the property the checkpoint/resume machinery
    relies on: a run killed between batches reloads the saved batches
    with :meth:`load_batch`, restores the state :meth:`rng_state`
    captured into the generator it passed in, and produces the same
    worlds as an uninterrupted run.

    Each batch is folded into one ``(ceil(N/8), m)`` uint8 array in the
    :attr:`WorldSampleSet.packed_bits` layout as soon as it arrives;
    only the fewer than 8 rows that do not yet fill a packed byte wait
    between batches as booleans.
    """

    def __init__(
        self,
        graph: ProbabilisticGraph,
        n_samples: int,
        batch_size: int,
        seed: int | np.random.Generator | None = None,
    ):
        for name, value in (("n_samples", n_samples),
                            ("batch_size", batch_size)):
            if isinstance(value, bool) or not isinstance(value,
                                                         numbers.Integral):
                raise ParameterError(
                    f"{name} must be an integer, got {value!r}"
                )
            if value <= 0:
                raise ParameterError(f"{name} must be positive, got {value}")
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
        self.n_samples = int(n_samples)
        self.batch_size = int(batch_size)
        self._batches_drawn = 0
        # Allocated by the first batch: a streaming consumer that only
        # calls draw_presence never holds the whole matrix.
        self._packed: np.ndarray | None = None
        self._carry = np.zeros((0, len(self._edges)), dtype=bool)

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
        return self._batches_drawn

    @property
    def samples_drawn(self) -> int:
        return min(self._batches_drawn * self.batch_size, self.n_samples)

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

    def _fold(self, presence: np.ndarray) -> None:
        """Pack ``presence`` after the rows drawn so far."""
        if self._packed is None:
            self._packed = np.zeros(
                (-(-self.n_samples // 8), len(self._edges)), dtype=np.uint8
            )
        rows = (np.concatenate((self._carry, presence)) if len(self._carry)
                else presence)
        whole = len(rows) - len(rows) % 8
        at = self.samples_drawn // 8
        self._packed[at:at + whole // 8] = np.packbits(rows[:whole], axis=0)
        # The carry and the count change together, after everything that
        # can fail, so a MemoryError leaves the batcher as it was.
        self._carry, self._batches_drawn = (
            rows[whole:].copy(), self._batches_drawn + 1
        )

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
        self._fold(presence)

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
        self._fold(presence)
        return presence

    def result(self, partial_ok: bool = False) -> "WorldSampleSet":
        """The drawn worlds as a :class:`WorldSampleSet`.

        With ``partial_ok`` a prefix of the batches suffices (the
        graceful-degradation path); otherwise all batches are required.
        The set views the batcher's packed array without copying it, so
        draw no further batch while it is in use.
        """
        if not partial_ok and self.batches_drawn < self.n_batches:
            raise ParameterError(
                f"only {self.batches_drawn} of {self.n_batches} batches drawn"
            )
        if self._packed is None:
            raise ParameterError("no sample batches drawn yet")
        n_drawn = self.samples_drawn
        packed = self._packed[:-(-n_drawn // 8)]
        if len(self._carry):
            packed[-1] = np.packbits(self._carry, axis=0)[0]
        return WorldSampleSet.from_packed(packed, n_drawn, self._edges)


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
