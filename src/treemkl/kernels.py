"""Elementary kernels, combined tree kernels, Gram matrices, gradients.

Two videos are compared through their pooled trees. With node weights
``beta`` (canonical node order) and an elementary kernel ``kappa``:

* concatenation variant:  ``K(A, B) = sum_m beta[m] * kappa(a_m, b_m)``,
  aligned node pairs only — assumes content is temporally aligned;
* averaging variant:      ``K(A, B) = sum_{m,n} beta[m] beta[n] *
  kappa(a_m, b_n)``, all cross pairs — tolerant to misalignment.

Both are the weighted sum ``table @ node_weights(beta, variant)`` of
node kernels; the variant enters only through which node pairs the
table holds and their weights. Since ``beta' K beta = beta' sym(K)
beta`` with ``sym(K) = (K + K') / 2``, an averaging table holds each
unordered node pair once: the upper triangle of ``sym(K)``, diagonal
included, ``nodes * (nodes + 1) / 2`` entries per video pair, whose
off-diagonal weights ``node_weights`` doubles. Both are positive
semi-definite for any non-negative ``beta`` because sums and products
preserve PSD-ness; with an RBF elementary kernel and ``beta`` on the
simplex all combined values stay in [0, 1].

Computing a Gram matrix re-weights a fixed set of elementary node
kernels, so :class:`NodeKernelCache` evaluates them once per (tree set,
kernel config) and every ``beta``-dependent quantity afterwards is a
cheap contraction. Every table is stored pair-major, ``(rows, cols,
...)``: one video pair's node kernels are contiguous, so a contraction
with the weights is one matrix-vector product.

The node kernels come from one stream of tiles of row videos by column
videos, each reduced as it is made; no route holds the node kernels of
every video pair whole. At each tile position the stream makes one tile
per node group in turn, in one array it allocates once: concatenation
reads its aligned kernels as one-node groups, averaging its cross
kernels as one group. Each consumer reduces a tile into arrays of its
own before the next one is made. A tile spans at least ``_TILE_ROWS``
kernel rows, so each kernel product has a panel shape BLAS runs at full
rate, and as many column videos as keep it within ``_BLOCK_ELEMENTS``.
Every product is a general matrix product of a copied row panel, so a
value's bits do not depend on which nodes the trees hold or which
weights are zero. There is one reducer,
``level_table(tie, variant)``: it contracts each node axis with
``tie``, evaluating only the nodes whose ``tie`` row is non-zero. The
alternating route ties the node weights per level, ``beta = M gamma``,
and builds the fixed table at ``tie = M``, with ``levels`` (concatenation)
or ``levels * (levels + 1) / 2`` (averaging) entries per pair; combined
kernel values are the same contraction at ``tie = beta[:, None]``.
That level table is the largest table any route allocates, and the
cache refuses one above ``_DENSE_LIMIT`` elements with a
:class:`ValidationError`. Contrastive training reads the node table
itself, (rows, cols, nodes) or (rows, cols, nodes * (nodes + 1) / 2),
only in tiles, each written to a new array at its tile position.

Over one tree set (training) the node kernels are symmetric,
``kappa(a_im, a_ju) = kappa(a_ju, a_im)``, so the row videos ``r0:r1``
are computed only against the videos from ``r0`` on: each video pair
once, plus the lower half of the tiles' square on the diagonal. An
aligned or symmetrized entry reads the same either way round, so a
level table holds each unordered video pair once, packed
(:func:`_pair_start`) from the tiles' upper triangle, and its
contractions are written into exactly symmetric n x n values
(:func:`contract_pairs`); combined values' tiles are written straight
to the upper triangle of the n x n values, mirrored the same way.
Between two tree sets (test columns) the tiles of each row range cover
every column video, and only combined values are computed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .choices import AVERAGING, CONCATENATION, KERNEL_KINDS, VARIANT_ALIASES
from .errors import (
    DegenerateData,
    IdMismatch,
    ShapeMismatch,
    ValidationError,
)
from .hierarchy import PooledTree

# largest packed (pairs, width) level table, (rows, cols) combined-kernel
# values, or (q, q) moment matrix contrastive training allocates, in
# elements; larger ones are refused before allocation
_DENSE_LIMIT = 2 ** 25

# elements of one tile of a kernel table (at least one column video), the
# unit in which tables are built or streamed, and of one chunk of
# median_gamma's sample; bounds the working memory beside the table itself
_BLOCK_ELEMENTS = 2 ** 16

# elements of the one temporary with which the rbf kernel turns a tile's
# product into kernel values in place, a chunk of the tile's rows at a time.
# Per call overhead sets its size: one 75 x 870 tile at dim 16 (2-core Xeon
# VM, OpenBLAS on one thread, best of 7 runs of 200 calls into one buffer)
# took 415 / 339 / 325 / 289 us in chunks of 2^12 / 2^13 / 2^14 / 2^16
# elements, so a quarter block costs 12% over one whole-tile pass
_KERNEL_CHUNK = 2 ** 14

# fewest kernel rows of a tile, when the row set has that many: panel shape,
# not flop count, sets a GEMM's speed. The upper-triangle kernel GEMMs of 280
# videos x 15 nodes at dim 128 (2-core Xeon VM, OpenBLAS on one thread, min /
# median of 7 interleaved runs) took 0.096 / 0.101 s in panels 15 rows tall,
# 0.057 / 0.079 s at 30 rows, 0.049 / 0.061 s at 60 and at 75 rows, and
# 0.047 / 0.053 s in tiles of 75 rows by 58 column videos
_TILE_ROWS = 64

# most (video pair, node) samples median_gamma draws its median from
_MEDIAN_GAMMA_CAP = 10_000


def canonical_variant(name: str) -> str:
    try:
        return VARIANT_ALIASES[name]
    except KeyError:
        raise ValidationError(f"unknown combine variant {name!r}") from None


def node_weights(beta: np.ndarray, variant: str) -> np.ndarray:
    """The variant's weight on each node pair of its table: ``beta`` for
    concatenation; for averaging, the packed upper triangle (see
    :func:`_packed_sym`) of ``outer(beta, beta)`` with its off-diagonal
    entries doubled, since the table holds each unordered pair once."""
    if canonical_variant(variant) == CONCATENATION:
        return beta
    i, j = _upper_pairs(beta.size)
    w = beta[i] * beta[j]
    w[i != j] *= 2.0
    return w


def node_weights_pullback(g: np.ndarray, beta: np.ndarray,
                          variant: str) -> np.ndarray:
    """Gradient in ``beta`` of ``g @ node_weights(beta, variant)``: ``g``
    for concatenation, ``2 G @ beta`` for averaging, with ``G`` the
    symmetric (nodes, nodes) matrix whose packed upper triangle is
    ``g``."""
    if canonical_variant(variant) == CONCATENATION:
        return g
    i, j = _upper_pairs(beta.size)
    G = np.empty((beta.size, beta.size))
    G[i, j] = g
    G[j, i] = g
    return 2.0 * (G @ beta)


@functools.cache
def _upper_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(k)``, read-only: the row and column of each pair
    ``i <= j`` of k nodes or levels, in the packed order. Made once per
    ``k``, since making them takes about as long as packing one tile."""
    i, j = np.triu_indices(k)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _pair_start(i, n: int):
    """Where row ``i`` of the pairs i <= j of n videos, packed row by row
    from i = 0, starts (elementwise for an int array): the one rule for
    that layout. Pair (i, j) is at ``_pair_start(i, n) + j - i``. The
    pairs i < j of n videos are the pairs i <= j - 1 of n - 1."""
    return i * n - i * (i - 1) // 2


def _pair_of(p: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(i, j)`` of the packed positions ``p`` among the pairs i <= j of
    n videos: the inverse of :func:`_pair_start`."""
    starts = _pair_start(np.arange(n), n)
    i = np.searchsorted(starts, p, side="right") - 1
    return i, p - starts[i] + i


def _packed_sym(square: np.ndarray, out: np.ndarray | None = None
                ) -> np.ndarray:
    """The averaging tables' layout of ``square`` (..., k, k): the upper
    triangle, diagonal included, of ``sym(S) = (S + S') / 2`` over the
    last two axes of ``S = square``, row by row, shape (..., k * (k + 1)
    / 2), written to ``out`` when given. The diagonal keeps its bits, so
    a one-column (k = 1) table is ``square`` itself."""
    i, j = _upper_pairs(square.shape[-1])
    out = np.add(square[..., i, j], square[..., j, i], out=out)
    out *= 0.5
    return out


@dataclass(frozen=True)
class KernelConfig:
    """Elementary node kernel: linear, or rbf with a finite gamma > 0."""

    kind: str = "rbf"
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValidationError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and (self.gamma is None
                                   or not 0 < self.gamma < np.inf):
            raise ValidationError(
                f"rbf kernel needs a finite gamma > 0, got {self.gamma}")


def _kernel_matrix(X: np.ndarray, Y: np.ndarray, cfg: KernelConfig,
                   y_sq: np.ndarray | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Pairwise kappa between rows of X (..., a, d) and rows of Y
    (..., b, d), shape (..., a, b), written to ``out`` when given (a
    view of a stream's one tile array) and else to a new array. The
    product goes into the output, and the rbf kernel turns it into distances
    and kernel values in place, ``_KERNEL_CHUNK`` elements of rows at a
    time, so its only other array is one chunk of ``x_sq + y_sq``: the
    squared row norms of Y are computed here unless a caller that reuses
    Y passes them as ``y_sq``. Each element goes through the same
    operations whatever the chunk, so the bits do not depend on it."""
    out = np.matmul(X, np.swapaxes(Y, -1, -2), out=out)
    if cfg.kind == "linear":
        return out
    if y_sq is None:
        y_sq = np.sum(Y * Y, axis=-1)
    x_sq = np.sum(X * X, axis=-1)
    step = max(1, _KERNEL_CHUNK // out.shape[-1])
    for s in range(0, out.shape[-2], step):
        part = out[..., s:s + step, :]
        part *= 2.0
        sq = x_sq[..., s:s + step, None] + y_sq[..., None, :]
        np.subtract(sq, part, out=part)
        np.maximum(part, 0.0, out=part)
        part *= -cfg.gamma
        np.exp(part, out=part)
    return out


def stack_trees(trees: list[PooledTree]) -> tuple[np.ndarray, list[str]]:
    """Stack homogeneous trees, same depth, dim and held nodes, into an
    (n, nodes, dim) array + id list. Trees whose vectors are exactly the
    rows of one array, in order, as :func:`treemkl.loading.load_trees`
    pools them and as scoring views a model's stored support rows, are
    that array, returned as a read-only view and not copied; any other
    list is stacked into a new array."""
    if not trees:
        raise ShapeMismatch("empty tree list")
    first = trees[0]
    for t in trees:
        if t.depth != first.depth or t.dim != first.dim:
            raise ShapeMismatch(
                f"tree {t.video_id}: depth/dim ({t.depth},{t.dim}) != "
                f"({first.depth},{first.dim})")
        if t.nodes != first.nodes:
            raise ShapeMismatch(
                f"tree {t.video_id} holds nodes {t.nodes}, tree "
                f"{first.video_id} holds {first.nodes}")
    ids = [t.video_id for t in trees]
    if _rows_of(first.vectors.base, trees):
        stacked = first.vectors.base.reshape(len(trees),
                                             *first.vectors.shape)
        stacked.flags.writeable = False
        return stacked, ids
    return np.stack([t.vectors for t in trees]), ids


def _rows_of(base, trees: list[PooledTree]) -> bool:
    """Whether the trees' vectors are the rows of the C-contiguous
    float64 array ``base``, all of them, in order: ``base`` holds them
    as an (n, nodes, dim) block, as ``load_trees`` pools one, or flat,
    as ``np.load`` reads one."""
    if not (isinstance(base, np.ndarray) and base.flags.c_contiguous
            and base.dtype == np.float64
            and base.size == len(trees) * trees[0].vectors.size):
        return False
    start, step = base.ctypes.data, trees[0].vectors.nbytes
    return all(t.vectors.base is base
               and t.vectors.ctypes.data == start + k * step
               for k, t in enumerate(trees))


def _check_pair(a: PooledTree, b: PooledTree, beta: np.ndarray) -> np.ndarray:
    if a.depth != b.depth or a.dim != b.dim:
        raise ShapeMismatch(
            f"trees {a.video_id}/{b.video_id} have mismatched shapes")
    if a.nodes != b.nodes:
        raise ShapeMismatch(
            f"tree {a.video_id} holds nodes {a.nodes}, tree {b.video_id} "
            f"holds {b.nodes}")
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (a.node_count,):
        raise ShapeMismatch(
            f"beta has {beta.size} entries for {a.node_count} nodes")
    return beta


def combined_kernel(a: PooledTree, b: PooledTree, beta: np.ndarray,
                    variant: str, cfg: KernelConfig) -> float:
    """The combined kernel of one tree pair, straight from its node
    kernels; the per-pair reference the cached, batched paths are
    checked against."""
    variant = canonical_variant(variant)
    beta = _check_pair(a, b, beta)
    cross = _kernel_matrix(a.vectors, b.vectors, cfg)
    if variant == CONCATENATION:
        return float(np.diag(cross) @ beta)
    return float(beta @ cross @ beta)


def check_symmetric(values: np.ndarray) -> None:
    """Refuse float64 ``values`` that are not square (:class:`ShapeMismatch`)
    or not finite and symmetric within 1e-10 (:class:`ValidationError`),
    the rule of every kernel matrix, in row blocks of at most
    ``_BLOCK_ELEMENTS`` elements, all checked finite first: no check
    makes an n x n temporary."""
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ShapeMismatch(f"gram must be square, got {values.shape}")
    n = values.shape[0]
    step = max(1, _BLOCK_ELEMENTS // max(1, n))
    starts = range(0, n, step)
    if not all(np.isfinite(values[r0:r0 + step]).all() for r0 in starts):
        raise ValidationError("gram contains non-finite entries")
    for r0 in starts:
        # rows r0:r0 + step right of the diagonal against their mirror
        upper = values[r0:r0 + step, r0:]
        mirror = values[r0:, r0:r0 + step].T
        if (upper == mirror).all():
            continue
        diff = upper - mirror
        if np.abs(diff, out=diff).max() > 1e-10:
            raise ValidationError("gram is not symmetric within 1e-10")


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Symmetric combined-kernel matrix over an ordered video set: its
    values pass :func:`check_symmetric` and are marked read-only, uncopied."""

    values: np.ndarray
    ids: tuple[str, ...]

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        check_symmetric(v)
        if len(self.ids) != v.shape[0]:
            raise ShapeMismatch(f"{len(self.ids)} ids for {v.shape[0]} rows")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "ids", tuple(self.ids))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def min_eigenvalue(self) -> float:
        """The smallest eigenvalue; no route calls it. Kept for the PSD
        closure check of acceptance criterion c02 and its demo."""
        return float(np.linalg.eigvalsh(self.values)[0])


class NodeKernelCache:
    """Elementary node kernels between two tree sets, streamed in tiles.

    The tables are pair-major, and the cache keeps none but ``cross()``.
    Every consumer reads the one stream that computes node kernels,
    ``_cross_blocks(groups, stack)``, which makes each node group's tile
    of a tile position in turn, each a general matrix product, in one
    array that it allocates once; a yielded tile is valid only until the
    next one is requested, so each consumer reduces it as it is made,
    into arrays of its own. ``level_table(tie, variant)`` contracts each
    node axis with ``tie`` into a fixed table, from the nodes whose
    ``tie`` row is non-zero only, and ``combined(beta, variant)`` writes
    the same contraction at ``tie = beta[:, None]`` as (rows, cols)
    values; both reduce each tile position to one new tile and write it
    once (``_place``). Contrastive training
    (:func:`treemkl.dmkl._pair_rows`) writes each position's node table,
    the aligned kernels of every node or the packed symmetrized cross
    kernels, to a new tile of its own. So a run holds at most one table,
    and beside it tiles. Every table is refused above ``_DENSE_LIMIT``
    elements before allocation.
    ``cross()`` and ``pair_blocks`` are test oracles that no route calls.
    The trees are stacked by :func:`stack_trees`, which copies none that
    :func:`treemkl.loading.load_trees` loaded.

    A cache over two tree sets streams every column video for each row
    tile, and gives combined values only. A cache over one tree set
    streams, for the row videos ``r0:r1``, only the column videos from
    ``r0`` on, so every consumer covers the upper triangle of video
    pairs: the level table holds each of those pairs once, packed
    (:func:`contract_pairs`), ``combined`` writes its tiles into the
    upper triangle of the n x n values and mirrors them, holding no
    packed column, and ``cross()`` fills each pair below the diagonal
    from its mirror.
    """

    def __init__(self, row_trees: list[PooledTree], cfg: KernelConfig,
                 col_trees: list[PooledTree] | None = None):
        self.cfg = cfg
        self.rows, self.row_ids = stack_trees(row_trees)
        if col_trees is None:
            self.cols, self.col_ids = self.rows, self.row_ids
        else:
            self.cols, self.col_ids = stack_trees(col_trees)
            if (self.cols.shape[1:] != self.rows.shape[1:]
                    or col_trees[0].nodes != row_trees[0].nodes):
                raise ShapeMismatch(
                    "row/col trees have mismatched shapes or node sets")
        self.nodes = self.rows.shape[1]
        self._cross: np.ndarray | None = None

    def _check_beta(self, beta: np.ndarray) -> np.ndarray:
        beta = np.asarray(beta, dtype=np.float64)
        if beta.shape != (self.nodes,):
            raise ShapeMismatch(
                f"beta has {beta.size} entries for {self.nodes} nodes")
        return beta

    def _empty_table(self, width: int, what: str,
                     packed: bool) -> np.ndarray:
        """An uninitialized table of ``width`` entries per video pair:
        ``packed`` (one tree set only), one row per unordered video pair,
        (n * (n + 1) / 2, width) (:func:`_pair_start`); else (rows, cols,
        width). Refused with :class:`ValidationError` above ``_DENSE_LIMIT``
        elements; ``what`` names the trailing axis in the message."""
        nr, nc = self.rows.shape[0], self.cols.shape[0]
        if packed:
            pairs = nr * (nr + 1) // 2
            shape, videos = (pairs, width), f"{pairs} pairs of {nr} videos"
        else:
            shape, videos = (nr, nc, width), f"{nr} x {nc} videos"
        size = math.prod(shape)
        if size > _DENSE_LIMIT:
            raise ValidationError(
                f"{videos} and {width} {what} need a node-kernel table of "
                f"{size * 8} bytes, above the {_DENSE_LIMIT * 8}-byte limit")
        return np.empty(shape)

    def _cross_blocks(self, groups: list, stack: int = 1):
        """Yield ``(r0, r1, c0, c1, tiles)`` at each tile position: the
        only loop that computes node kernels. ``tiles`` yields, for each
        node group ``g`` of ``groups`` in turn (all of one size ``a``: a
        slice of nodes, whose columns are viewed, or an index array, whose
        columns are copied once), ``tile[i, u, j, v] =
        kappa(row_{r0+i}[g][u], col_{c0+j}[g][v])``, shape (r1 - r0, a,
        c1 - c0, a). The row videos are split evenly into tiles of at least
        ``_TILE_ROWS`` kernel rows (all of them when there are fewer), and
        each row tile's columns into tiles of at most ``_BLOCK_ELEMENTS /
        stack`` elements, at least one column video wide, so that a
        consumer may stack ``stack`` of them. A one-set cache starts the
        column tiles of row tile ``r0:r1`` at ``c0 = r0``, else at 0.
        Every tile is a view of one flat array, allocated once at the size
        of the grid's largest tile: it is valid only until the next one is
        requested, and ``tiles`` is read to its end before the next
        position. A consumer that keeps values past that writes them to
        arrays of its own."""
        nr, nc, d = self.rows.shape[0], self.cols.shape[0], self.rows.shape[2]
        cols = [(self.cols[:, g] if isinstance(g, slice) else np.take(
            self.cols, g, axis=1)).reshape(-1, d) for g in groups]
        # squared norms in row chunks of about one block each
        cols_sq = [np.concatenate([
            np.sum(p * p, axis=-1)
            for p in np.array_split(c, -(-c.size // _BLOCK_ELEMENTS))])
            for c in cols]
        a = cols[0].shape[0] // nc
        count = max(1, nr // -(-_TILE_ROWS // a))
        width = max(1, _BLOCK_ELEMENTS // (-(-nr // count) * a * a * stack))
        buffer = np.empty(-(-nr // count) * a * min(width, nc) * a)

        def tiles(r0, r1, c0, c1):
            for g, flat, sq in zip(groups, cols, cols_sq):
                # a copy, so that a one-set tile whose row and column videos
                # coincide is not one array times its own transpose, which
                # BLAS would run as a symmetric rank-k update and round
                # otherwise; dropped before the yield: one panel at a time
                x = self.rows[r0:r1, g].reshape(-1, d).copy()
                shape = x.shape[0], (c1 - c0) * a
                tile = buffer[:math.prod(shape)].reshape(shape)
                _kernel_matrix(x, flat[c0 * a:c1 * a], self.cfg,
                               sq[c0 * a:c1 * a], tile)
                del x
                yield tile.reshape(r1 - r0, a, c1 - c0, a)

        for t in range(count):
            r0, r1 = t * nr // count, (t + 1) * nr // count
            for c0 in range(r0 if self.cols is self.rows else 0, nc, width):
                c1 = min(c0 + width, nc)
                yield r0, r1, c0, c1, tiles(r0, r1, c0, c1)

    def cross(self) -> np.ndarray:
        """The whole cross tensor, built once and kept, each tile copied
        in as it is made, and over one tree set each pair below the
        tiles' upper triangle from its mirror; no route reads it. The
        dense oracle the streamed tables are checked against."""
        if self._cross is None:
            m, nr, nc = self.nodes, self.rows.shape[0], self.cols.shape[0]
            out = np.empty((nr, nc, m, m))
            for r0, r1, c0, c1, (tile,) in self._cross_blocks([slice(None)]):
                out[r0:r1, c0:c1] = tile.transpose(0, 2, 1, 3)
            if self.cols is self.rows:
                for i in range(nr):
                    out[i, :i] = out[:i, i].transpose(0, 2, 1)
            self._cross = out
        return self._cross

    def level_table(self, tie: np.ndarray, variant: str) -> np.ndarray:
        """The variant's node kernels of a one-set cache with each node
        axis contracted with ``tie``, shape (nodes, k): a pair-major table
        whose contraction with ``node_weights(gamma, variant)`` is the
        combined kernel at ``beta = tie @ gamma``, from the node kernels
        of the nodes whose ``tie`` row is non-zero only. Concatenation
        gives ``T[i, j] = sum_m kappa(row_i[m], row_j[m]) tie[m]``, k
        entries per video pair; averaging gives ``T[i, j, l, l'] =
        sum_{m,n} tie[m, l] tie[n, l'] kappa(row_i[m], row_j[n])``, stored
        as its ``_packed_sym``, k * (k + 1) / 2 entries. Since ``T[j, i]``
        equals ``T[i, j]``, the table holds each unordered video pair
        once, (n * (n + 1) / 2, entries), packed (:func:`_pair_start`).
        A two-set cache is refused, and so is a table above
        ``_DENSE_LIMIT`` elements, before allocation."""
        if self.cols is not self.rows:
            raise ShapeMismatch("level_table needs a single tree set")
        tie = np.asarray(tie, dtype=np.float64)
        if tie.ndim != 2 or tie.shape[0] != self.nodes:
            raise ShapeMismatch(
                f"tie has shape {tie.shape} for {self.nodes} nodes")
        k = tie.shape[1]
        if canonical_variant(variant) == CONCATENATION:
            out = self._empty_table(k, "levels", True)
        else:
            out = self._empty_table(k * (k + 1) // 2, "level pairs", True)
        return self._contract(tie, variant, out)

    def _contract(self, tie: np.ndarray, variant: str,
                  out: np.ndarray) -> np.ndarray:
        """Write :meth:`level_table`'s entries for ``tie`` to ``out``, a
        table of :meth:`_empty_table`, and return it: zeros, with no kernel
        computed, when every ``tie`` row is zero. Each tile position is
        reduced to one new tile, which :meth:`_place` writes once and which
        is dropped before the next position's is made: concatenation sums
        the weighted nodes' one-node tiles in node order, from zeros, into
        the levels ``tie`` weighs them in; averaging contracts the weighted
        nodes' tile on the column-node axis, then on the row-node one, and
        packs it (``_packed_sym``)."""
        held = np.flatnonzero(tie.any(axis=1))
        if not held.size:
            out.fill(0.0)
            return out
        k = tie.shape[1]
        aligned = canonical_variant(variant) == CONCATENATION
        if aligned:
            groups = [slice(m, m + 1) for m in held]
        else:
            groups = [slice(None) if held.size == self.nodes else held]
            tie = tie[groups[0]]
        for r0, r1, c0, c1, tiles in self._cross_blocks(groups):
            reduced = np.empty((r1 - r0, c1 - c0, out.shape[-1]))
            if aligned:
                reduced.fill(0.0)
                for tile, node in zip(tiles, held):
                    *first, last = np.flatnonzero(tie[node])
                    kernels = tile[:, 0, :, 0]
                    for level in first:
                        into = reduced[..., level]
                        into += kernels * tie[node, level]
                    # the last level scales the stream's tile in place
                    kernels *= tie[node, last]
                    into = reduced[..., last]
                    into += kernels
                del kernels, into
            else:
                (tile,) = tiles
                r, a, c, m = tile.shape
                # (r, a, c, m) -> (r, a, c k) -> (r, k, c k) -> (r, c, k, k)
                partial = (tile.reshape(-1, m) @ tie).reshape(r, a, c * k)
                square = np.matmul(tie.T, partial).reshape(r, k, c, k)
                _packed_sym(square.transpose(0, 2, 1, 3), reduced)
                del partial, square
            self._place(out, r0, r1, c0, c1, reduced)
            # dropped before the next position's is made: one at a time
            del reduced
        return out

    def _place(self, out: np.ndarray, r0: int, r1: int, c0: int, c1: int,
               tile: np.ndarray) -> None:
        """Write ``tile``, the entries of the video pairs ``r0:r1`` x
        ``c0:c1``, into ``out``, a table of :meth:`_empty_table`: the one
        writer of both layouts. A (rows, cols, width) table takes it whole
        at ``[r0:r1, c0:c1]`` (over one tree set the caller mirrors over a
        diagonal tile's pairs j < i); a packed one takes each tile row's
        pairs j >= i, one slice per row video (:func:`_pair_start`)."""
        if out.ndim == 3:
            out[r0:r1, c0:c1] = tile
            return
        n = self.rows.shape[0]
        for i in range(r0, min(r1, c1)):
            j0, at = max(c0, i), _pair_start(i, n) - i
            out[at + j0:at + c1] = tile[i - r0, j0 - c0:]

    def combined(self, beta: np.ndarray, variant: str) -> np.ndarray:
        """Combined-kernel values, shape (rows, cols): ``level_table``'s
        contraction at ``tie = beta[:, None]``, so only the nodes with
        non-zero weight are evaluated. Over one tree set the tiles' values
        are written straight to the upper triangle of the (n, n) values,
        which is then mirrored in place (:func:`_mirror_upper`), so they
        are exactly symmetric and no packed column is held beside them;
        the values are refused above ``_DENSE_LIMIT`` before any kernel
        is computed. Beside the values the pass holds the stream's tile
        array (``_cross_blocks``) and one position's contraction."""
        beta = self._check_beta(beta)
        values = self._contract(beta[:, None], variant, self._empty_table(
            1, "levels", False))[:, :, 0]
        return _mirror_upper(values) if self.cols is self.rows else values

    def pair_blocks(self, i_idx: np.ndarray, j_idx: np.ndarray,
                    variant: str) -> np.ndarray:
        """The variant's node kernels for row/row index pairs, one flat
        row per pair, computed from the feature vectors; both index
        arrays address ``row_trees``. The per-pair oracle for the rows
        :func:`treemkl.dmkl._pair_rows` reads off the stream."""
        if self.cols is not self.rows:
            raise ShapeMismatch("pair_blocks needs a single tree set")
        k = _kernel_matrix(self.rows[np.asarray(i_idx)],
                           self.rows[np.asarray(j_idx)], self.cfg)
        if canonical_variant(variant) == CONCATENATION:
            return k.diagonal(axis1=1, axis2=2).copy()
        return _packed_sym(k)


def kernel_columns(row_trees: list[PooledTree], col_trees: list[PooledTree],
                   beta: np.ndarray, variant: str,
                   cfg: KernelConfig) -> np.ndarray:
    """Combined-kernel values between two tree lists, shape (rows, cols).
    ``beta`` weighs the nodes the trees hold, one entry per held node:
    trees pooled at the non-zero positions of a full weight vector give,
    with those entries, the bits of the full trees and the full vector."""
    cache = NodeKernelCache(row_trees, cfg, col_trees)
    return cache.combined(beta, variant)


def gram_matrix(trees: list[PooledTree], beta: np.ndarray, variant: str,
                cfg: KernelConfig) -> GramMatrix:
    """Pairwise combined kernel over one tree list, exactly symmetric
    (each video pair computed once)."""
    cache = NodeKernelCache(trees, cfg)
    return GramMatrix(values=cache.combined(beta, variant), ids=cache.row_ids)


def contract_pairs(table: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The symmetric (n, n) matrix whose video pairs i <= j, packed as
    :func:`_pair_start` lays them out, are ``table @ weights`` for a
    one-set :meth:`NodeKernelCache.level_table`: the one product fills its
    last n(n+1)/2 entries, row i's pairs move forward to ``[i, i:]``, ending
    before any unread pair, and it is mirrored (:func:`_mirror_upper`)."""
    pairs = table.shape[0] if table.ndim == 2 else 0
    n = (math.isqrt(8 * pairs + 1) - 1) // 2
    if table.ndim != 2 or n * (n + 1) // 2 != pairs:
        raise ShapeMismatch(
            f"{table.shape} table is not the packed pairs of n videos")
    out = np.empty((n, n))
    packed = out.reshape(-1)[n * n - pairs:]
    np.matmul(table, weights, out=packed)
    for i in range(n):
        out[i, i:] = packed[_pair_start(i, n):_pair_start(i + 1, n)]
    return _mirror_upper(out)


def _mirror_upper(values: np.ndarray) -> np.ndarray:
    """``values`` (n, n) with its strict lower triangle overwritten, in
    place, by the mirror of its upper one, one column at a time, so that
    every entry has the bits of its mirror and no index array is made."""
    for i in range(values.shape[0]):
        values[i + 1:, i] = values[i, i + 1:]
    return values


def median_gamma(trees: list[PooledTree]) -> float:
    """Bandwidth heuristic: 1 / median squared distance between aligned
    node vectors of distinct trees, over at most ``_MEDIAN_GAMMA_CAP``
    (pair, node) entries spaced evenly along the pair-major index (all
    when fewer), so no random numbers are drawn. The sampled differences
    are squared in chunks of at most ``_BLOCK_ELEMENTS`` elements, so its
    memory beside the stacked trees does not grow with the feature
    dimension."""
    if len(trees) < 2:
        raise ShapeMismatch("median_gamma needs at least 2 trees")
    vectors, _ = stack_trees(trees)
    n, m = vectors.shape[0], vectors.shape[1]
    total = n * (n - 1) // 2 * m
    size = min(total, _MEDIAN_GAMMA_CAP)
    # int64 overflows once size * total > 2**63: ~2.7M videos at depth 8
    picks = np.arange(size) * total // size
    pair_idx, node_idx = np.divmod(picks, m)
    i_idx, j_idx = _pair_of(pair_idx, n - 1)
    j_idx += 1
    # squared distances in chunks of at most one block; each row's sum is
    # the same whatever the chunk
    dist = np.empty(picks.size)
    step = max(1, _BLOCK_ELEMENTS // vectors.shape[2])
    for s in range(0, picks.size, step):
        at = slice(s, s + step)
        diff = vectors[i_idx[at], node_idx[at]]
        diff -= vectors[j_idx[at], node_idx[at]]
        diff *= diff
        dist[at] = np.sum(diff, axis=1)
    # the median as np.median takes it, without np.median's lazy numpy.ma
    # import
    half = dist.size // 2
    part = np.partition(dist, (half - 1, half))
    med = float(part[half] if dist.size % 2
                else (part[half - 1] + part[half]) / 2.0)
    if med <= 0.0:
        raise DegenerateData("median aligned node distance is zero")
    return 1.0 / med


def fuse_kernels(gram_a: GramMatrix, gram_b: GramMatrix,
                 weight: float = 0.5) -> GramMatrix:
    """Convex combination ``w * A + (1 - w) * B``; PSD is preserved."""
    if gram_a.ids != gram_b.ids:
        raise IdMismatch("gram matrices cover different video sets")
    if not (0.0 <= weight <= 1.0):
        raise ValidationError(f"fusion weight {weight} outside [0, 1]")
    # the bits of w * A + (1 - w) * B, holding two n x n arrays, not three
    values = weight * gram_a.values
    values += (1.0 - weight) * gram_b.values
    return GramMatrix(values=values, ids=gram_a.ids)

