"""Bit-parallel kernels over the packed presence matrix.

The sampling oracle stores its ``N`` possible worlds bit-packed: one
``uint8`` column of ``ceil(N / 8)`` bytes per edge (see
:class:`~repro.graphs.sampling.WorldSampleSet`). Historically every
oracle evaluation immediately undid that packing with
``np.unpackbits(...).astype(bool)`` — an 8x memory blow-up per candidate
that also defeated the spill-to-disk backend by re-materialising the
memmapped samples in RAM, and that each worker process paid again for
its own block of rows.

This module is the one place allowed to cross the packed/unpacked
boundary. Everything here operates on the packed ``(ceil(N/8), m)``
layout directly — popcounts instead of boolean sums, byte AND-reduction
instead of row scans — and unpacks only the (usually few) *partial*
candidate rows that per-pattern classification genuinely needs. Each
kernel has a pure-numpy unpacked counterpart next to its tests; results
are exactly equal (integer counts) or bit-identical (float estimates),
so the packed path is a drop-in replacement everywhere, including under
the parallel row-block split.

The classifier's triangle and component machinery also serves exact
GTD: :func:`deletion_clusters` prunes and splits every single-edge
deletion of a batch of failing states at once, with the per-deletion
:func:`~repro.truss.decomposition.k_truss_edges` as its reference.

Bit layout contract (from ``np.packbits(presence, axis=0)``): sample
``i`` of column ``j`` lives in byte ``packed[i >> 3, j]`` at bit
``7 - (i & 7)`` (MSB first); tail padding bits beyond ``N`` are zero.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from typing import NamedTuple

import numpy as np

from repro.exceptions import ParameterError

__all__ = [
    "popcount",
    "column_counts",
    "masked_column_counts",
    "row_sums",
    "and_reduce_columns",
    "pack_row_mask",
    "bits_at_rows",
    "gather_rows",
    "unpack_matrix",
    "dedup_candidate_patterns",
    "classify_worlds_packed",
    "deletion_clusters",
    "WorldClassifier",
]

Node = Hashable
Edge = tuple[Node, Node]

#: Beyond this many edges nearly every sampled world pattern is unique
#: and deduplication is pure overhead (mirrors the classifier's policy).
DEDUP_MAX_EDGES = 48

if hasattr(np, "bitwise_count"):
    def popcount(a: np.ndarray) -> np.ndarray:
        """Per-element popcount of a uint8 array (hardware-backed)."""
        return np.bitwise_count(a)
else:  # pragma: no cover - numpy < 2.0 fallback
    _POPCOUNT_TABLE = np.array(
        [bin(i).count("1") for i in range(256)], dtype=np.uint8
    )

    def popcount(a: np.ndarray) -> np.ndarray:
        """Per-element popcount of a uint8 array (table lookup)."""
        return _POPCOUNT_TABLE[a]


def column_counts(packed: np.ndarray) -> np.ndarray:
    """Per-column set-bit counts of a packed ``(B, m)`` matrix.

    Equals ``unpacked.sum(axis=0)`` of the boolean matrix: tail padding
    bits are zero by the packing contract, so no mask is needed.
    """
    return popcount(packed).sum(axis=0, dtype=np.int64)


def masked_column_counts(
    packed: np.ndarray, row_mask: np.ndarray
) -> np.ndarray:
    """Per-column counts restricted to the rows set in ``row_mask``.

    ``row_mask`` is a packed ``(B,)`` bit vector (see
    :func:`pack_row_mask`). Equals ``unpacked[rows].sum(axis=0)``.
    """
    if packed.ndim != 2:
        raise ParameterError("packed must be a 2-D (bytes, columns) matrix")
    return popcount(packed & row_mask[:, None]).sum(axis=0, dtype=np.int64)


#: ``_LANE_TABLE[b]`` spreads the bits of byte ``b`` over the bytes of
#: one little-endian ``uint64``: lane ``j`` holds bit ``7 - j``, which
#: is sample ``8 * row + j`` under the packing contract.
_LANE_TABLE = np.array(
    [sum(((b >> (7 - j)) & 1) << (8 * j) for j in range(8))
     for b in range(256)],
    dtype="<u8",
)

#: Table lookups summed per ``uint64`` before the lanes are added to
#: the output; each lane then holds at most 255, so none carries.
_LANE_COLUMNS = 255

#: Packed bytes per :func:`row_sums` block; bounds the ``uint64``
#: lookups (and their index cast) whatever ``N * m``.
_ROW_SUM_BLOCK_CELLS = 1 << 14

#: Deletion rows x ``max(edges, triangles)`` per
#: :func:`deletion_clusters` block. A cell costs up to ~100 bytes of
#: transients (triangle slot triples, the labelling arrays and their
#: Python lists), so a block stays near 0.2 MiB.
_DELETION_BLOCK_CELLS = 1 << 11


def row_sums(packed: np.ndarray, n_samples: int) -> np.ndarray:
    """Per-sample (row) set-bit counts; equals ``unpacked.sum(axis=1)``.

    A byte-lane (SWAR) sum: each packed byte is looked up in
    ``_LANE_TABLE``, and summing the lookups of up to ``_LANE_COLUMNS``
    columns in ``uint64`` counts the eight samples of a byte row in
    eight parallel one-byte lanes, none of which can carry into the
    next. Viewed as bytes, the sum is the counts in sample order. Rows
    are taken in blocks of ``_ROW_SUM_BLOCK_CELLS`` packed bytes, so the
    temporaries stay a fixed size, far below the unpacked boolean
    matrix the naive ``unpackbits(...).sum(axis=1)`` builds.
    """
    n_bytes, m = packed.shape
    out = np.zeros(n_bytes * 8, dtype=np.int64)
    step = max(1, _ROW_SUM_BLOCK_CELLS // max(1, min(m, _LANE_COLUMNS)))
    for lo in range(0, n_bytes, step):
        block = packed[lo:lo + step]
        lanes = out[8 * lo:8 * (lo + step)]
        for c in range(0, m, _LANE_COLUMNS):
            sums = np.add.reduce(
                _LANE_TABLE[block[:, c:c + _LANE_COLUMNS]], axis=1)
            lanes += sums.astype("<u8", copy=False).view(np.uint8)
    return out[:n_samples]


def and_reduce_columns(packed: np.ndarray) -> np.ndarray:
    """Byte-wise AND over all columns: the packed all-edges-present mask.

    Bit ``i`` of the result is set iff sample ``i`` contains *every*
    edge of the projection. An empty column set yields all-ones over the
    byte span (vacuous truth), matching ``unpacked.all(axis=1)``.
    """
    if packed.shape[1] == 0:
        return np.full(packed.shape[0], 0xFF, dtype=np.uint8)
    return np.bitwise_and.reduce(packed, axis=1)


def pack_row_mask(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean row mask of length ``N`` into a ``(B,)`` bit vector."""
    return np.packbits(np.asarray(mask, dtype=bool))


def bits_at_rows(bit_vector: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Read individual bits of a packed ``(B,)`` vector at ``rows``.

    Returns a boolean array, ``out[t] = bit rows[t] of bit_vector``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.zeros(0, dtype=bool)
    shifts = (7 - (rows & 7)).astype(np.uint8)
    return ((bit_vector[rows >> 3] >> shifts) & 1).astype(bool)


def gather_rows(packed: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Unpack only the given sample rows of a packed ``(B, m)`` matrix.

    Returns the boolean ``(len(rows), m)`` sub-matrix — equal to
    ``unpacked[rows]`` without ever materialising the full unpacked
    matrix. This is the only row-level unpacking the packed
    classification path performs.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.zeros((0, packed.shape[1]), dtype=bool)
    byte_rows = packed[rows >> 3]  # (len(rows), m) gathered bytes
    shifts = (7 - (rows & 7)).astype(np.uint8)[:, None]
    return ((byte_rows >> shifts) & 1).astype(bool)


def unpack_matrix(packed: np.ndarray, n_samples: int) -> np.ndarray:
    """Fully unpack a ``(B, m)`` matrix to boolean ``(N, m)``.

    The sanctioned compatibility unpacker — reference paths and
    small-N conveniences only; hot paths must stay packed. This is the
    one ``np.unpackbits`` call site the PAR004 lint rule whitelists.
    """
    return np.unpackbits(packed, axis=0, count=n_samples).astype(bool)


def dedup_candidate_patterns(
    packed: np.ndarray, candidate_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unique candidate presence patterns with multiplicities, packed-side.

    Returns ``(patterns, multiplicity)`` exactly equal to
    ``np.unique(unpacked[candidate_rows], axis=0, return_counts=True)``
    when ``m <= DEDUP_MAX_EDGES``, and to
    ``(unpacked[candidate_rows], ones)`` otherwise — the same policy the
    boolean reference classifier applies.

    The all-edges-present rows (typically the vast majority for
    high-probability candidates) are counted by a popcount of the
    column-AND byte mask and never unpacked; only the *partial* rows are
    gathered. Each partial row is packed into one big-endian ``uint64``
    key, column 0 most significant (``m <= 48`` bits always fit), and
    deduplicated with a 1-D integer ``np.unique`` instead of the
    row-wise ``axis=0`` comparison sort. Ascending keys are ascending
    lexicographic rows, and the all-ones pattern is appended last, which
    is where ``np.unique`` sorts it — so even the pattern *order*
    matches the reference bit for bit.
    """
    candidate_rows = np.asarray(candidate_rows, dtype=np.int64)
    m = packed.shape[1]
    if m > DEDUP_MAX_EDGES:
        patterns = gather_rows(packed, candidate_rows)
        return patterns, np.ones(patterns.shape[0], dtype=np.int64)
    full_bits = and_reduce_columns(packed)
    is_full = bits_at_rows(full_bits, candidate_rows)
    n_full = int(is_full.sum())
    partial = gather_rows(packed, candidate_rows[~is_full])
    if partial.shape[0]:
        keys, multiplicity = np.unique(
            _row_keys(partial), return_counts=True
        )
        patterns = _key_rows(keys, m)
        multiplicity = multiplicity.astype(np.int64)
    else:
        patterns = np.zeros((0, m), dtype=bool)
        multiplicity = np.zeros(0, dtype=np.int64)
    if n_full:
        patterns = np.concatenate(
            [patterns, np.ones((1, m), dtype=bool)], axis=0
        )
        multiplicity = np.concatenate(
            [multiplicity, np.array([n_full], dtype=np.int64)]
        )
    return patterns, multiplicity


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One ``uint64`` per boolean row of at most 64 columns, order-keeping.

    Column 0 lands in the most significant bit, so comparing keys
    compares the rows lexicographically.
    """
    n_bytes = -(-rows.shape[1] // 8)
    buf = np.zeros((rows.shape[0], 8), dtype=np.uint8)
    buf[:, :n_bytes] = np.packbits(rows, axis=1)
    return buf.view(">u8").ravel()


def _key_rows(keys: np.ndarray, m: int) -> np.ndarray:
    """Inverse of :func:`_row_keys`: the boolean ``(len(keys), m)`` rows."""
    shifts = np.arange(63, 63 - m, -1, dtype=np.uint64)
    return ((keys[:, None] >> shifts) & np.uint64(1)).astype(bool)


class WorldClassifier:
    """Fast per-candidate classifier for sampled world patterns.

    Nodes and edges are mapped to integer indices once per candidate.
    Spanning connectivity of *all* patterns is decided in one shot by
    stacking them into one disjoint union and labelling its components
    with whole-array root hooking and pointer jumping
    (:meth:`connected_mask`); the k-truss condition (k >= 3) is then
    checked for all surviving patterns at once from the candidate's
    triangle incidence (:meth:`truss_mask`). Semantically identical to
    :func:`repro.core.global_truss.world_is_connected_ktruss`, orders of
    magnitude faster in the Monte-Carlo oracle's inner loop.
    """

    __slots__ = ("n", "ends_u", "ends_v", "k")

    #: Rows x triangles per :meth:`truss_mask` block; bounds the
    #: per-block transients whatever the pattern count.
    _TRUSS_BLOCK_CELLS = 1 << 14

    def __init__(self, edges: Sequence[Edge], nodes: Sequence[Node], k: int):
        index = {u: i for i, u in enumerate(nodes)}
        self.n = len(nodes)
        self.ends_u = np.array([index[u] for u, _ in edges], dtype=np.int64)
        self.ends_v = np.array([index[v] for _, v in edges], dtype=np.int64)
        self.k = k

    def connected_mask(self, patterns: np.ndarray) -> np.ndarray:
        """Boolean mask: which patterns connect all ``n`` nodes.

        ``patterns`` is a (P, m) boolean matrix. Patterns are stacked
        into one disjoint union (pattern t's nodes live at offset t*n),
        its components are labelled by :func:`_component_labels`, and a
        pattern is connected when all ``n`` of its nodes share a label.
        The result is a fresh array the caller may overwrite.
        """
        n_patterns = patterns.shape[0]
        if self.n == 0:
            return np.zeros(n_patterns, dtype=bool)
        t_idx, j_idx = np.nonzero(patterns)
        rows = t_idx * self.n + self.ends_u[j_idx]
        cols = t_idx * self.n + self.ends_v[j_idx]
        labels, _ = _component_labels(rows, cols, n_patterns * self.n)
        blocks = labels.reshape(n_patterns, self.n)
        return (blocks == blocks[:, :1]).all(axis=1)

    def truss_ok(self, present_columns: np.ndarray) -> bool:
        """k-truss condition over the present edges (k >= 3 only).

        The per-pattern reference for :meth:`truss_mask`.
        """
        need = self.k - 2
        if need <= 0:
            return True
        adj: list[set[int]] = [set() for _ in range(self.n)]
        us = self.ends_u[present_columns]
        vs = self.ends_v[present_columns]
        for a, b in zip(us, vs):
            adj[a].add(b)
            adj[b].add(a)
        return all(
            len(adj[a] & adj[b]) >= need for a, b in zip(us, vs)
        )

    def _triangle_columns(self) -> np.ndarray:
        """The candidate's triangles as ``(t, 3)`` edge-index triples.

        Each triangle is listed once: its apex node is larger than both
        ends of the edge in column 0.
        """
        us, vs = self.ends_u.tolist(), self.ends_v.tolist()
        column: dict[tuple[int, int], int] = {}
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for j, (a, b) in enumerate(zip(us, vs)):
            column[a, b] = column[b, a] = j
            adj[a].add(b)
            adj[b].add(a)
        triples = [
            (j, column[a, w], column[b, w])
            for j, (a, b) in enumerate(zip(us, vs))
            for w in adj[a] & adj[b]
            if w > a and w > b
        ]
        return np.array(triples, dtype=np.int64).reshape(-1, 3)

    def truss_mask(self, patterns: np.ndarray) -> np.ndarray:
        """Boolean mask: which patterns are k-trusses (k >= 3 only).

        Row ``i`` equals ``truss_ok(np.flatnonzero(patterns[i]))``. The
        candidate's triangles are enumerated once per call; a triangle
        is present in a row when all three of its edges are, and each
        present edge's support is the number of present triangles
        incident to it, counted for a whole block of rows with one
        ``bincount`` over the (row, edge) incidences.
        """
        n_patterns, m = patterns.shape
        need = self.k - 2
        if need <= 0 or n_patterns == 0:
            return np.ones(n_patterns, dtype=bool)
        tri = self._triangle_columns()
        if tri.shape[0] == 0:
            return ~patterns.any(axis=1)
        out = np.empty(n_patterns, dtype=bool)
        step = max(1, self._TRUSS_BLOCK_CELLS // tri.shape[0])
        for lo in range(0, n_patterns, step):
            block = patterns[lo:lo + step]
            present = (
                block[:, tri[:, 0]] & block[:, tri[:, 1]] & block[:, tri[:, 2]]
            )
            row, t = np.nonzero(present)
            support = np.bincount(
                (row[:, None] * m + tri[t]).ravel(),
                minlength=block.shape[0] * m,
            ).reshape(block.shape[0], m)
            out[lo:lo + step] = ((support >= need) | ~block).all(axis=1)
        return out


def deletion_clusters(
    candidates: Sequence[tuple[Sequence[Edge], Sequence[Node], Sequence[int]]],
    k: int,
) -> list[list[list[Edge]]]:
    """The successors of every single-edge deletion of each candidate.

    Algorithm 4's expansion of failing states, batched. A candidate is
    ``(edges, nodes, deleted)``: its edges are the columns, and its
    deletion row ``i`` is the candidate minus column ``deleted[i]``.
    Every row is pruned to its maximal k-truss (supports counted for
    all rows with one ``bincount`` over (row, edge) slots, as in
    :meth:`WorldClassifier.truss_mask`; every edge below ``k - 2``
    goes, until no row changes) and split into connected components by
    labelling all rows stacked as one disjoint union
    (:func:`_component_labels`). The maximal k-truss of an edge set is
    unique, so dropping a round's weak edges all at once reaches the
    fixpoint of a one-edge-at-a-time peel.

    Returns, per candidate, its clusters row by row and, within a row,
    ordered by first column; each cluster lists its edges in column
    order. A row that prunes to nothing, or to the edge set of an
    earlier row of the same candidate, adds nothing: its clusters would
    all be repeats. The rows of all candidates share each pass, cut
    into blocks of ``_DELETION_BLOCK_CELLS`` cells, where a row costs
    ``max(edges, triangles)`` of its candidate; so no transient grows
    with a candidate's deletion count times its triangle count.
    """
    need = k - 2
    out: list[list[list[Edge]]] = [[] for _ in candidates]
    block: list[_DeletionRows] = []
    cells = 0
    for clusters, (edges, nodes, deleted) in zip(out, candidates):
        classifier = WorldClassifier(edges, nodes, k)
        tri = (classifier._triangle_columns() if need > 0
               else np.zeros((0, 3), dtype=np.int64))
        width = max(1, len(edges), tri.shape[0])
        seen: set[bytes] = set()
        step = max(1, _DELETION_BLOCK_CELLS // width)
        for lo in range(0, len(deleted), step):
            cut = np.asarray(deleted[lo:lo + step], dtype=np.int64)
            if block and cells + cut.size * width > _DELETION_BLOCK_CELLS:
                _expand_block(block, need)
                block, cells = [], 0
            block.append(_DeletionRows(
                clusters, edges, classifier, tri, cut, seen))
            cells += cut.size * width
    if block:
        _expand_block(block, need)
    return out


class _DeletionRows(NamedTuple):
    """Consecutive deletion rows of one candidate, within one block."""

    clusters: list  # the candidate's output list
    edges: Sequence[Edge]
    classifier: WorldClassifier
    tri: np.ndarray
    deleted: np.ndarray  # the deleted column of each row
    seen: set  # pruned row keys of the candidate so far


def _expand_block(block: list[_DeletionRows], need: int) -> None:
    """Prune, deduplicate and split one block of deletion rows.

    The rows of all parts are laid out flat, one slot per (row,
    column) and one node id per (row, node), and the clusters of every
    fresh row are appended to its part's ``clusters``.
    """
    n_rows = np.array([part.deleted.size for part in block])
    widths = np.array([len(part.edges) for part in block])
    sizes = np.array([part.classifier.n for part in block])
    slot_starts = np.cumsum(n_rows * widths) - n_rows * widths
    node_starts = np.cumsum(n_rows * sizes) - n_rows * sizes
    presence = np.ones(int((n_rows * widths).sum()), dtype=bool)
    slots = []
    for part, start, m in zip(block, slot_starts, widths):
        row_starts = start + m * np.arange(part.deleted.size)
        presence[row_starts + part.deleted] = False
        slots.append((row_starts[:, None, None] + part.tri).reshape(-1, 3))
    if need > 0:
        live = np.concatenate(slots)
        del slots  # the parts would double the block's footprint
        # A triangle counts while all three of its slots are present; a
        # dead one never returns, so each pass drops it for good.
        while True:
            live = live[presence[live].all(axis=1)]
            support = np.bincount(live.ravel(), minlength=presence.size)
            weak = presence & (support < need)
            if not weak.any():
                break
            presence &= ~weak
    # Clear every row that repeats an earlier row of its candidate.
    for part, start, m in zip(block, slot_starts, widths):
        rows = presence[start:start + part.deleted.size * m]
        rows = rows.reshape(part.deleted.size, m)
        keys = np.packbits(rows, axis=1)
        width = keys.shape[1]
        flat = keys.tobytes()
        for i in np.flatnonzero(rows.any(axis=1)).tolist():
            key = flat[i * width:(i + 1) * width]
            if key in part.seen:
                rows[i] = False
            else:
                part.seen.add(key)
    kept = np.flatnonzero(presence)
    if kept.size == 0:
        return
    owner = np.searchsorted(slot_starts, kept, side="right") - 1
    row, column = np.divmod(kept - slot_starts[owner], widths[owner])
    base = node_starts[owner] + row * sizes[owner]
    edge = (np.cumsum(widths) - widths)[owner] + column
    ends_u = base + np.concatenate([p.classifier.ends_u for p in block])[edge]
    ends_v = base + np.concatenate([p.classifier.ends_v for p in block])[edge]
    labels, _ = _component_labels(ends_u, ends_v, int((n_rows * sizes).sum()))
    # A label names one (row, component), and slots come row-major, so
    # first-seen order is row order, then column order.
    groups: dict[int, list[Edge]] = {}
    for label, p, j in zip(labels[ends_u].tolist(), owner.tolist(),
                           column.tolist()):
        cluster = groups.get(label)
        if cluster is None:
            cluster = groups[label] = []
            block[p].clusters.append(cluster)
        cluster.append(block[p].edges[j])


def _component_labels(
    rows: np.ndarray, cols: np.ndarray, total: int
) -> tuple[np.ndarray, int]:
    """Connected components of the graph on ``range(total)`` with edges
    ``rows[i] -- cols[i]``: ``(labels, rounds)``.

    Root hooking with full pointer jumping (Shiloach--Vishkin style).
    Every round starts from stars (each node labelled with its tree's
    root) and reads both end labels of every edge; it stops once they
    agree on every edge, so two nodes share a label exactly when they
    are connected. Otherwise each root hooks onto the smallest root
    adjacent to it (``np.minimum.at`` in both edge directions), and
    ``labels = labels[labels]`` repeats until the trees are stars again.
    Labels only ever decrease, so no cycle forms. ``rounds`` counts the
    passes over the edges, the final agreeing one included.

    Round bound: a tree that nothing hooks onto in one round has only
    smaller roots around it afterwards, so it hooks in the next. After
    ``j`` rounds every local-minimum tree of an unfinished component
    thus holds at least ``F(j + 2)`` nodes (Fibonacci, ``F(1) = F(2) =
    1``), and a component of ``n`` nodes is done within ``r`` passes
    for the largest ``r`` with ``F(r + 1) <= n`` -- about ``1.44 log2(n)
    + 2``, reached by an 8-node tree that takes 5. A path contracts to a
    path whose local minima are at most half its nodes, so paths take
    at most ``ceil(log2(n)) + 1`` passes.
    """
    labels = np.arange(total)
    rounds = 0
    while True:
        rounds += 1
        lu, lv = labels[rows], labels[cols]
        if (lu == lv).all():
            return labels, rounds
        np.minimum.at(labels, lu, lv)
        np.minimum.at(labels, lv, lu)
        jumped = labels[labels]
        while (jumped != labels).any():
            labels = jumped
            jumped = labels[labels]


def classify_worlds_packed(
    edges: Sequence[Edge], nodes: Sequence[Node], k: int,
    packed: np.ndarray, candidate_rows: np.ndarray,
) -> dict[Edge, int]:
    """Count qualifying worlds containing each edge, from packed columns.

    Packed-domain equivalent of
    :func:`repro.core.global_truss.classify_worlds` — same counts, same
    dedup policy, without the full boolean projection. ``packed`` is the
    candidate's ``(B, m)`` packed column matrix (one column per entry of
    ``edges``) and ``candidate_rows`` the sample indices to classify.

    Counts are additive over disjoint row sets — the property the
    parallel oracle uses to classify row blocks in worker processes and
    sum the integer counts with no change in the result.
    """
    edges = list(edges)
    counts = {e: 0 for e in edges}
    candidate_rows = np.asarray(candidate_rows, dtype=np.int64)
    if candidate_rows.size == 0 or not edges:
        return counts
    classifier = WorldClassifier(edges, list(nodes), k)
    patterns, multiplicity = dedup_candidate_patterns(packed, candidate_rows)
    qualifying = classifier.connected_mask(patterns)
    if k > 2:
        qualifying[qualifying] = classifier.truss_mask(patterns[qualifying])
    if qualifying.any():
        counts_vec = patterns[qualifying].astype(np.int64).T @ (
            multiplicity[qualifying]
        )
        counts = {e: int(counts_vec[j]) for j, e in enumerate(edges)}
    return counts
