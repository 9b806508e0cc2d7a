"""Elementary kernels, combined tree kernels, Gram matrices, gradients.

Two videos are compared through their pooled trees. With node weights
``beta`` (canonical node order) and an elementary kernel ``kappa``:

* concatenation variant:  ``K(A, B) = sum_m beta[m] * kappa(a_m, b_m)``,
  aligned node pairs only — assumes content is temporally aligned;
* averaging variant:      ``K(A, B) = sum_{m,n} beta[m] beta[n] *
  kappa(a_m, b_n)``, all cross pairs — tolerant to misalignment.

Both are the weighted sum ``table @ node_weights(beta, variant)`` of
node kernels; the variant enters only through which node pairs the
table holds and their weights. Both are positive semi-definite for any
non-negative ``beta`` because sums and products preserve PSD-ness; with
an RBF elementary kernel and ``beta`` on the simplex all combined values
stay in [0, 1].

Computing a Gram matrix re-weights a fixed set of elementary node
kernels, so :class:`NodeKernelCache` evaluates them once per (tree set,
kernel config) and every ``beta``-dependent quantity afterwards is a
cheap contraction. This pairwise table is the quadratic-cost core of the
whole method. Every table is stored pair-major, ``(rows, cols, ...)``:
one video pair's node kernels are contiguous, so a contraction with the
weights is one matrix-vector product.

The averaging variant's cross kernels have ``nodes**2`` entries per
pair, and no route holds them whole: they are computed one block of row
videos at a time and reduced as each block is made. The alternating
route ties the node weights per level, ``beta = M gamma``, and
contracts each block with ``M`` on both node axes into a fixed level
table with ``levels**2`` entries per pair, whose contraction with
``outer(gamma, gamma)`` is ``K``; concatenation's level table is
``aligned() @ M``. The largest table any route allocates is therefore
(rows, cols, nodes) or (rows, cols, levels**2), and the cache refuses
one above ``_DENSE_LIMIT`` elements with a :class:`ValidationError`.

Over one tree set (training) the cross kernels are symmetric,
``kappa(a_im, a_ju) = kappa(a_ju, a_im)``, so a block of row videos
``r0:r1`` is computed only against the videos from ``r0`` on: each
video pair once, plus the lower half of the block's own square. The
pairs ``(j, i)`` with ``j >= r1`` are read from the same block with the
node axes swapped. Between two tree sets (test columns) every block
covers every column video.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateData,
    IdMismatch,
    ShapeMismatch,
    ValidationError,
)
from .hierarchy import PooledTree

CONCATENATION = "concatenation"
AVERAGING = "averaging"
KERNEL_KINDS = ("rbf", "linear")

# alias map accepted on CLI surfaces
VARIANT_ALIASES = {"concat": CONCATENATION, "avg": AVERAGING,
                   CONCATENATION: CONCATENATION, AVERAGING: AVERAGING}

# largest (rows, cols, nodes) table the cache allocates, or (q, q) moment
# matrix contrastive training allocates, in elements; larger ones are
# refused before allocation
_DENSE_LIMIT = 2 ** 25

# elements of one row block of a kernel table (at least one row video),
# the unit in which tables are built or streamed, and of one chunk of
# median_gamma's sample; bounds the working memory beside the table itself
_BLOCK_ELEMENTS = 2 ** 16

# most (video pair, node) samples median_gamma draws its median from
_MEDIAN_GAMMA_CAP = 10_000


def canonical_variant(name: str) -> str:
    try:
        return VARIANT_ALIASES[name]
    except KeyError:
        raise ValidationError(f"unknown combine variant {name!r}") from None


def node_weights(beta: np.ndarray, variant: str) -> np.ndarray:
    """The variant's weight on each node pair of its table: ``beta`` for
    concatenation, ``outer(beta, beta).ravel()`` for averaging."""
    if canonical_variant(variant) == CONCATENATION:
        return beta
    return np.outer(beta, beta).ravel()


def node_weights_pullback(g: np.ndarray, beta: np.ndarray,
                          variant: str) -> np.ndarray:
    """Gradient in ``beta`` of ``g @ node_weights(beta, variant)``: ``g``
    for concatenation, ``G @ beta + beta @ G`` with ``G`` the (nodes,
    nodes) reshape of ``g`` for averaging."""
    if canonical_variant(variant) == CONCATENATION:
        return g
    G = g.reshape(beta.size, beta.size)
    return G @ beta + beta @ G


@dataclass(frozen=True)
class KernelConfig:
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
                   y_sq: np.ndarray | None = None) -> np.ndarray:
    """Pairwise kappa between rows of X (..., a, d) and rows of Y
    (..., b, d), shape (..., a, b). The rbf kernel is evaluated in two
    output-sized buffers beside the squared row norms of Y, which a
    caller that reuses Y computes once and passes as ``y_sq``."""
    dot = X @ np.swapaxes(Y, -1, -2)
    if cfg.kind == "linear":
        return dot
    dot *= 2.0
    if y_sq is None:
        y_sq = np.sum(Y * Y, axis=-1)
    sq = np.sum(X * X, axis=-1)[..., :, None] + y_sq[..., None, :]
    np.subtract(sq, dot, out=sq)
    np.maximum(sq, 0.0, out=sq)
    sq *= -cfg.gamma
    return np.exp(sq, out=sq)


def stack_trees(trees: list[PooledTree]) -> tuple[np.ndarray, list[str]]:
    """Stack homogeneous trees into an (n, nodes, dim) array + id list."""
    if not trees:
        raise ShapeMismatch("empty tree list")
    depth, dim = trees[0].depth, trees[0].dim
    for t in trees:
        if t.depth != depth or t.dim != dim:
            raise ShapeMismatch(
                f"tree {t.video_id}: depth/dim ({t.depth},{t.dim}) != "
                f"({depth},{dim})")
    return np.stack([t.vectors for t in trees]), [t.video_id for t in trees]


def _check_pair(a: PooledTree, b: PooledTree, beta: np.ndarray) -> np.ndarray:
    if a.depth != b.depth or a.dim != b.dim:
        raise ShapeMismatch(
            f"trees {a.video_id}/{b.video_id} have mismatched shapes")
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


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric combined-kernel matrix over an ordered video set."""

    values: np.ndarray
    ids: tuple[str, ...]

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ShapeMismatch(f"gram must be square, got {v.shape}")
        if len(self.ids) != v.shape[0]:
            raise ShapeMismatch(
                f"{len(self.ids)} ids for {v.shape[0]} rows")
        if not np.isfinite(v).all():
            raise ValidationError("gram contains non-finite entries")
        if np.abs(v - v.T).max(initial=0.0) > 1e-10:
            raise ValidationError("gram is not symmetric within 1e-10")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "ids", tuple(self.ids))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.values)[0])


class NodeKernelCache:
    """Elementary node kernels between two tree sets, computed once.

    The tables are pair-major. ``aligned()[i, j, m] = kappa(row_i[m],
    col_j[m])`` is built once and kept. The averaging variant's cross
    kernels ``kappa(row_i[m], col_j[n])`` are never kept: the one loop
    that computes them streams row blocks of about ``_BLOCK_ELEMENTS``
    elements, and each consumer reduces a block as it is made.
    ``table_blocks`` yields them pair-major, ``level_table(M, variant)``
    contracts each node axis with ``M`` into a fixed table, and
    ``combined(beta, AVERAGING)`` reduces each block to kernel values.
    So a training run holds at most one table, and beside it row
    blocks. ``combined`` evaluates only the nodes whose weight is
    non-zero: the columns of ``aligned()`` for concatenation, both
    node axes of the cross kernels for averaging. Every table is refused
    above ``_DENSE_LIMIT`` elements before it is allocated. ``cross()``
    and ``pair_blocks`` are test oracles that no route calls.

    A cache over two tree sets streams every column video in each block.
    A cache over one tree set streams, for the block of row videos
    ``r0:r1``, only the column videos from ``r0`` on: ``table_blocks``,
    the averaging ``level_table`` and the averaging ``combined`` cover
    the upper triangle of video pairs, and the latter two fill the lower
    one from the same blocks. ``cross()`` still streams every column
    video.
    """

    def __init__(self, row_trees: list[PooledTree], cfg: KernelConfig,
                 col_trees: list[PooledTree] | None = None):
        self.cfg = cfg
        self.rows, self.row_ids = stack_trees(row_trees)
        if col_trees is None:
            self.cols, self.col_ids = self.rows, self.row_ids
        else:
            self.cols, self.col_ids = stack_trees(col_trees)
            if self.cols.shape[1:] != self.rows.shape[1:]:
                raise ShapeMismatch("row/col trees have mismatched shapes")
        self.nodes = self.rows.shape[1]
        self._aligned: np.ndarray | None = None
        self._cross: np.ndarray | None = None

    def _check_beta(self, beta: np.ndarray) -> np.ndarray:
        beta = np.asarray(beta, dtype=np.float64)
        if beta.shape != (self.nodes,):
            raise ShapeMismatch(
                f"beta has {beta.size} entries for {self.nodes} nodes")
        return beta

    def _empty_table(self, width: int, what: str = "nodes") -> np.ndarray:
        """An uninitialized (rows, cols, width) table, refused with
        :class:`ValidationError` above ``_DENSE_LIMIT`` elements; ``what``
        names the trailing axis in the message."""
        nr, nc = self.rows.shape[0], self.cols.shape[0]
        if nr * nc * width > _DENSE_LIMIT:
            raise ValidationError(
                f"{nr} x {nc} videos and {width} {what} need a node-kernel "
                f"table of {nr * nc * width * 8} bytes, above the "
                f"{_DENSE_LIMIT * 8}-byte limit")
        return np.empty((nr, nc, width))

    def aligned(self) -> np.ndarray:
        if self._aligned is None:
            self._aligned = self._aligned_nodes(range(self.nodes))
        return self._aligned

    def _aligned_nodes(self, nodes) -> np.ndarray:
        """The columns ``nodes`` of ``aligned()``, computed afresh."""
        out = self._empty_table(len(nodes))
        for k, node in enumerate(nodes):
            out[:, :, k] = _kernel_matrix(self.rows[:, node, :],
                                          self.cols[:, node, :], self.cfg)
        return out

    def _cross_blocks(self, row_nodes=slice(None), col_nodes=slice(None),
                      all_cols: bool = False):
        """Yield ``(r0, r1, c0, block)`` with ``block[i, a, j, n] =
        kappa(row_{r0+i}[row_nodes][a], col_{c0+j}[col_nodes][n])``, shape
        (r1 - r0, row nodes, cols - c0, col nodes): the only loop that
        computes cross kernels. ``c0 = r0`` for a one-set cache unless
        ``all_cols``, else 0; the upper triangle of video pairs covers
        every pair only when both node selections are the same."""
        rows, cols = self.rows[:, row_nodes], self.cols[:, col_nodes]
        nr, a, d = rows.shape
        nc, m = cols.shape[:2]
        upper = self.cols is self.rows and not all_cols
        flat_c = cols.reshape(nc * m, d)
        # squared norms in row chunks of about one block each
        parts = np.array_split(flat_c, -(-flat_c.size // _BLOCK_ELEMENTS))
        col_sq = np.concatenate([np.sum(p * p, axis=-1) for p in parts])
        step = max(1, _BLOCK_ELEMENTS // (nc * m * a))
        for r0 in range(0, nr, step):
            r1 = min(r0 + step, nr)
            c0 = r0 if upper else 0
            k = _kernel_matrix(rows[r0:r1].reshape(-1, d), flat_c[c0 * m:],
                               self.cfg, col_sq[c0 * m:])
            yield r0, r1, c0, k.reshape(r1 - r0, a, nc - c0, m)

    def table_blocks(self, variant: str):
        """Yield ``(r0, block)``: the variant's pair-major table of a
        one-set cache from row video r0 on, pair (i, j) with ``j >= r0``
        at ``block[i - r0, j - r0]``, shape (row videos, videos - r0, q),
        q = ``node_weights``' length: ``aligned()`` whole (r0 = 0, q =
        nodes) or the cross kernels one row block at a time (q =
        nodes**2), never held whole."""
        if self.cols is not self.rows:
            raise ShapeMismatch("table_blocks needs a single tree set")
        if canonical_variant(variant) == CONCATENATION:
            yield 0, self.aligned()
            return
        for r0, r1, _, block in self._cross_blocks():
            yield r0, block.transpose(0, 2, 1, 3).reshape(r1 - r0, -1,
                                                          self.nodes ** 2)

    def cross(self) -> np.ndarray:
        """The whole cross tensor, built once and kept; no route reads
        it. The dense oracle the streamed tables are checked against."""
        if self._cross is None:
            m, nr, nc = self.nodes, self.rows.shape[0], self.cols.shape[0]
            out = np.empty((nr, nc, m, m))
            for r0, r1, _, block in self._cross_blocks(all_cols=True):
                out[r0:r1] = block.transpose(0, 2, 1, 3)
            self._cross = out
        return self._cross

    def level_table(self, tie: np.ndarray, variant: str) -> np.ndarray:
        """The variant's node kernels with each node axis contracted with
        ``tie``, shape (nodes, k): a pair-major table whose contraction
        with ``node_weights(gamma, variant)`` is the combined kernel at
        ``beta = tie @ gamma``. Concatenation gives ``aligned() @ tie``,
        (rows, cols, k), accumulated one node at a time; averaging gives
        ``T[i, j, l, l'] = sum_{m,n} tie[m, l] tie[n, l'] kappa(row_i[m],
        col_j[n])``, flattened to (rows, cols, k * k), from the streamed
        cross kernels contracted block by block on the column-node axis,
        then on the row-node one. A one-set cache fills ``T[j, i]`` for
        ``j >= r1`` from block ``r0:r1`` with the level axes swapped.
        Refused above ``_DENSE_LIMIT`` elements before allocation."""
        tie = np.asarray(tie, dtype=np.float64)
        if tie.ndim != 2 or tie.shape[0] != self.nodes:
            raise ShapeMismatch(
                f"tie has shape {tie.shape} for {self.nodes} nodes")
        k = tie.shape[1]
        if canonical_variant(variant) == CONCATENATION:
            out = self._empty_table(k, "levels")
            out.fill(0.0)
            for node in range(self.nodes):
                out += _kernel_matrix(self.rows[:, node, :],
                                      self.cols[:, node, :],
                                      self.cfg)[:, :, None] * tie[node]
            return out
        out = self._empty_table(k * k, "level pairs")
        nr, nc = out.shape[:2]
        table = out.reshape(nr, nc, k, k)
        mirror = self.cols is self.rows
        for r0, r1, c0, block in self._cross_blocks():
            # (r, nodes, c, nodes) -> (r, nodes, c, k) -> (r, c, k, k)
            partial = (block.reshape(-1, self.nodes) @ tie).reshape(
                *block.shape[:3], k)
            table[r0:r1, c0:] = np.tensordot(tie, partial, axes=(0, 1)
                                             ).transpose(1, 2, 0, 3)
            if mirror:
                table[r1:, r0:r1] = table[r0:r1, r1:].transpose(1, 0, 3, 2)
        return out

    def combined(self, beta: np.ndarray, variant: str) -> np.ndarray:
        """Combined-kernel values, shape (rows, cols), from the node
        kernels of the nodes with non-zero weight only; exactly symmetric
        for an averaging one-set cache, whose upper triangle is computed
        and mirrored."""
        variant = canonical_variant(variant)
        beta = self._check_beta(beta)
        nodes = np.flatnonzero(beta)
        dense = nodes.size == self.nodes
        if variant == CONCATENATION:
            if dense:
                return contract_table(self.aligned(), beta)
            return contract_table(self._aligned_nodes(nodes), beta[nodes])
        if dense:
            nodes = slice(None)         # views of every node, not copies
        weights = beta[nodes]
        out = np.empty((self.rows.shape[0], self.cols.shape[0]))
        for r0, r1, c0, block in self._cross_blocks(nodes, nodes):
            out[r0:r1, c0:] = contract_table(
                np.tensordot(weights, block, axes=(0, 1)), weights)
        return _mirror_upper(out) if self.cols is self.rows else out

    def pair_blocks(self, i_idx: np.ndarray, j_idx: np.ndarray,
                    variant: str) -> np.ndarray:
        """The variant's node kernels for row/row index pairs, one flat
        row per pair, computed from the feature vectors; both index
        arrays address ``row_trees``. The per-pair oracle for the
        streamed ``table_blocks``."""
        if self.cols is not self.rows:
            raise ShapeMismatch("pair_blocks needs a single tree set")
        k = _kernel_matrix(self.rows[np.asarray(i_idx)],
                           self.rows[np.asarray(j_idx)], self.cfg)
        if canonical_variant(variant) == CONCATENATION:
            return k.diagonal(axis1=1, axis2=2).copy()
        return k.reshape(k.shape[0], -1)


def kernel_columns(row_trees: list[PooledTree], col_trees: list[PooledTree],
                   beta: np.ndarray, variant: str,
                   cfg: KernelConfig) -> np.ndarray:
    """Combined-kernel values between two tree lists, shape (rows, cols)."""
    cache = NodeKernelCache(row_trees, cfg, col_trees)
    return cache.combined(beta, variant)


def gram_matrix(trees: list[PooledTree], beta: np.ndarray, variant: str,
                cfg: KernelConfig) -> GramMatrix:
    """Pairwise combined kernel over one tree list, exactly symmetric
    (upper triangle mirrored)."""
    cache = NodeKernelCache(trees, cfg)
    return mirrored_gram(cache.combined(beta, variant), cache.row_ids)


def contract_table(table: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``table @ weights`` over the flattened trailing axes of a
    pair-major (rows, cols, ...) table, shape (rows, cols)."""
    rows, cols = table.shape[:2]
    return (table.reshape(rows * cols, -1) @ weights).reshape(rows, cols)


def mirrored_gram(values: np.ndarray, ids) -> GramMatrix:
    """The Gram matrix of square combined-kernel ``values``, made exactly
    symmetric by mirroring the upper triangle (in place); the one Gram
    builder of ``gram_matrix`` and both training routes."""
    return GramMatrix(values=_mirror_upper(values), ids=tuple(ids))


def _mirror_upper(values: np.ndarray) -> np.ndarray:
    """Square ``values`` with the upper triangle copied onto the lower
    one, in place."""
    iu = np.triu_indices(values.shape[0], k=1)
    values[(iu[1], iu[0])] = values[iu]
    return values


def median_gamma(trees: list[PooledTree], seed: int = 0) -> float:
    """Bandwidth heuristic: 1 / median squared distance between aligned
    node vectors of distinct trees, over a seeded sample of at most
    ``_MEDIAN_GAMMA_CAP`` (pair, node) entries (all when fewer). The
    sampled differences are squared in chunks of at most
    ``_BLOCK_ELEMENTS`` elements, so its memory beside the stacked trees
    does not grow with the feature dimension."""
    if len(trees) < 2:
        raise ShapeMismatch("median_gamma needs at least 2 trees")
    vectors, _ = stack_trees(trees)
    n, m = vectors.shape[0], vectors.shape[1]
    total = n * (n - 1) // 2 * m
    if total <= _MEDIAN_GAMMA_CAP:
        picks = np.arange(total)
    else:
        rng = np.random.default_rng(seed)
        picks = rng.choice(total, size=_MEDIAN_GAMMA_CAP, replace=False)
    pair_idx, node_idx = np.divmod(picks, m)
    # linear upper-triangle index -> (i, j), row-major: row i holds the
    # pairs (i, i + 1) .. (i, n - 1) from index start[i] on
    start = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    i_idx = np.searchsorted(start, pair_idx, side="right") - 1
    j_idx = pair_idx - start[i_idx] + i_idx + 1
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
    return GramMatrix(values=weight * gram_a.values
                      + (1.0 - weight) * gram_b.values,
                      ids=gram_a.ids)

