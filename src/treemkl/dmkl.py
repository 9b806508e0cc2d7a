"""Contrastive learning of the node weights, decoupled from the SVMs.

Instead of alternating with dual solves, the node weights are fit
directly to pairwise supervision: a pair of videos is positive when the
labels match, and the loss pushes the combined kernel value toward 1 on
positive pairs and below a margin on negative pairs::

    loss(k, +1) = (1 - k)^2        loss(k, -1) = max(0, k - margin)^2

With n videos there are n(n-1)/2 supervised pairs, far more signal than
n labels. Training sums the loss over every pair with weights ``c_p``.
With the rbf kernel every kernel value is > 0, so at margin 0 the hinge
never binds and the loss is exactly quadratic in ``w = node_weights(beta)``:
``L(w) = w^T A w - 2 b^T w + c``, with ``A = sum_p c_p F_p F_p^T``,
``b`` and ``c`` the sums of ``c_p F_p`` and ``c_p`` over positive pairs,
and ``F_p`` pair p's row of node kernels. These moments are built once;
each step then costs O(q^2) for q = nodes (concatenation) or
nodes(nodes+1)/2 (averaging, whose rows hold each unordered node pair
once), whatever the number of videos, and is a pairwise Frank-Wolfe
step of exact length (Lacoste-Julien & Jaggi, NeurIPS 2015).
``dmkl_fit`` then frees the moments, builds one Gram matrix from the
frozen weights and its own node-kernel cache, and trains the one-vs-rest
machines on it in a single step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choices import CONCATENATION
from .errors import ShapeMismatch, TooFewVideos, ValidationError
from .hierarchy import PooledTree
from .kernels import (
    _DENSE_LIMIT,
    GramMatrix,
    KernelConfig,
    NodeKernelCache,
    _packed_sym,
    _pair_of,
    _pair_start,
    canonical_variant,
    node_weights,
    node_weights_pullback,
)
from .simplex import (
    INIT_SCHEMES,
    SimplexPoint,
    SimplexWeights,
    backprop_through_simplex,
)
from .svm import SvmModel, TrainConfig, one_vs_rest_classes, train_one_vs_rest


# dmkl_fit stops once its Frank-Wolfe gap grad @ beta - min(grad) is at
# most FW_GAP_TOL ("gap"), or at the step cap ("max_iters"). The gap
# bounds L - min L for concatenation, whose L is convex (Jaggi, ICML
# 2013), and measures first-order stationarity for averaging.
FW_GAP_TOL = 1e-12
STOP_REASONS = ("gap", "max_iters")

# fewest pairs whose rows pair_moments adds to A in one product, and the
# rows of A each product fills. A tile of depth-6 averaging kernels holds
# 16 pairs, and a product per tile is bound by the traffic of the
# (2016, 2016) A: on the README appearance data at depth 6 (2-core Xeon VM,
# OpenBLAS on one thread) the moments took 5.9 s per tile, and 3.1 / 2.1 /
# 1.8 / 1.8 / 1.7 s in batches of at least 64 / 128 / 256 / 512 / 1,024
# pairs, then 1.5 s at 256 with only the upper triangle computed
_MOMENT_PANEL = 256


@dataclass(frozen=True)
class ContrastiveConfig:
    iterations: int = 4000          # the step cap
    seed: int = 0
    positive_fraction: float | None = None
    beta_init: str = "uniform"

    def __post_init__(self):
        if self.iterations < 0:
            raise ValidationError("iterations must be >= 0")
        if self.positive_fraction is not None and not (
                0.0 < self.positive_fraction < 1.0):
            raise ValidationError("positive_fraction must be in (0, 1)")
        if self.beta_init not in INIT_SCHEMES:
            raise ValidationError(f"unknown beta_init {self.beta_init!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


def _same_class(labels: np.ndarray) -> np.ndarray:
    """Whether each pair i < j of ``labels`` shares a class, one byte a
    pair, in the packed order of ``kernels._pair_start``."""
    n = labels.size
    same = np.empty(n * (n - 1) // 2, dtype=bool)
    for i in range(n - 1):
        row = slice(_pair_start(i, n - 1), _pair_start(i + 1, n - 1))
        same[row] = labels[i + 1:] == labels[i]
    return same


class _PairTable:
    """Every pair i < j of a label vector, packed, with its +/-1 label: the
    int32 videos ``i``, ``j`` and int8 labels ``y`` that the per-pair
    oracle :func:`loss_grad` reads. No route builds one."""

    def __init__(self, labels: np.ndarray):
        n = labels.size
        i, j = _pair_of(np.arange(n * (n - 1) // 2), n - 1)
        self.i, self.j = i.astype(np.int32), (j + 1).astype(np.int32)
        self.y = np.where(_same_class(labels), 1, -1).astype(np.int8)


def loss_grad(i: np.ndarray, j: np.ndarray, y: np.ndarray,
              cache: NodeKernelCache, weights: SimplexWeights, variant: str,
              margin: float = 0.0) -> tuple[float, np.ndarray]:
    """Loss over the pairs ``(i[p], j[p])`` with +/-1 labels ``y`` and
    its gradient w.r.t. the raw (pre-softmax) parameters, composing the
    pair losses, the kernel's weight dependence, and the simplex
    Jacobian. A pair's residual, whose square is its loss, is ``k - 1``
    on a positive pair and the hinge ``max(0, k - margin)`` on a negative
    one. The per-pair oracle for ``pair_moments``."""
    variant = canonical_variant(variant)
    beta = weights.beta
    flat = cache.pair_blocks(i, j, variant)
    k_vals = flat @ node_weights(beta, variant)
    resid = np.where(y > 0, k_vals - 1.0, np.maximum(0.0, k_vals - margin))
    loss = float(np.mean(resid ** 2))
    de_dbeta = node_weights_pullback((2.0 * resid / y.size) @ flat,
                                     beta, variant)
    return loss, backprop_through_simplex(de_dbeta, beta)


@dataclass(frozen=True)
class DmklResult:
    weights: SimplexPoint
    model: SvmModel
    loss_trace: np.ndarray
    beta_trace: np.ndarray          # weights at start plus after each step
    stop_reason: str                # one of STOP_REASONS
    fw_gap: float                   # grad @ beta - min(grad) at the weights
    kernel_table: tuple             # name and shape of the moment matrix


def pair_moments(cache: NodeKernelCache, labels: np.ndarray, variant: str,
                 positive_fraction: float | None
                 ) -> tuple[np.ndarray, np.ndarray, float]:
    """``A``, ``b``, ``c`` of the margin-0 loss over the pairs i < j of the
    cache's videos, of polarity set by ``labels``, weighted ``f / |pos|``
    or ``(1 - f) / |neg|`` for ``positive_fraction = f``, else ``1 /
    |pairs|``. Each pair's row of q = ``len(node_weights)`` node kernels
    and its polarity are read off the tiles (:func:`_pair_rows`), and the
    rows summed into ``A`` in batches of at least ``_MOMENT_PANEL`` pairs,
    one panel of ``_MOMENT_PANEL`` rows of ``A`` at a time from its
    diagonal on; the blocks left of the diagonal panels are copied from
    those above them. Only ``c`` sums the :func:`_same_class` bytes of
    every pair at once. A (q, q) ``A`` over ``_DENSE_LIMIT`` is refused,
    as are ``labels`` that are not one per cache video."""
    variant = canonical_variant(variant)
    if np.shape(labels) != (len(cache.row_ids),):
        raise ShapeMismatch(f"{np.size(labels)} labels for "
                            f"{len(cache.row_ids)} videos")
    q = node_weights(np.ones(cache.nodes), variant).size
    if q * q > _DENSE_LIMIT:
        raise ValidationError(
            f"{variant} contrastive training needs a ({q}, {q}) moment "
            f"matrix of {q * q * 8} bytes, above the {_DENSE_LIMIT * 8} limit")
    same = _same_class(labels)
    pairs, f = same.size, positive_fraction
    positives = int(np.count_nonzero(same))
    if f is not None and positives in (0, pairs):
        raise TooFewVideos("rebalancing needs both pair polarities")
    # each pair's weight by polarity: positive, negative
    if f is None:
        coef = (1.0 / pairs, 1.0 / pairs)
    else:
        coef = (f / positives, (1.0 - f) / (pairs - positives))
    A, b = np.zeros((q, q)), np.zeros(q)
    for pos, rows in _pair_rows(cache, labels, variant):
        weighted = np.where(pos, *coef)[:, None] * rows
        # each panel of rows from its diagonal block on
        for s in range(0, q, _MOMENT_PANEL):
            e = s + _MOMENT_PANEL
            A[s:e, s:] += rows[:, s:e].T @ weighted[:, s:]
        b += np.where(pos, coef[0], 0.0) @ rows
        # dropped before the next tile is made
        del pos, rows, weighted
    for s in range(_MOMENT_PANEL, q, _MOMENT_PANEL):
        A[s:s + _MOMENT_PANEL, :s] = A[:s, s:s + _MOMENT_PANEL].T
    # summed over every pair at once, zeros included, so that numpy's
    # pairwise summation orders it as it always has: c keeps its bits
    return A, b, float(np.where(same, coef[0], 0.0).sum())


def _pair_rows(cache: NodeKernelCache, labels: np.ndarray, variant: str):
    """Yield ``(pos, rows)``: whether each pair i < j of a one-set cache
    is positive, and its row of the variant's node table, q =
    ``len(node_weights)`` entries, row by row, from whole tile positions
    until a batch holds at least ``_MOMENT_PANEL`` pairs (the last batch
    may hold fewer). Each position of ``cache._cross_blocks`` is written
    to a new C-contiguous (rows, cols, q) table: concatenation puts each
    one-node group's tile in its node's column, on the grid narrowed by
    the node count, averaging packs its one group's symmetrized cross
    kernels (``_packed_sym``). The rows are that table's pairs above the
    diagonal, so every batch is C-contiguous: the layout that keeps the
    bits of ``b``'s product."""
    if cache.cols is not cache.rows:
        raise ShapeMismatch("pair rows need a single tree set")
    if variant == CONCATENATION:
        groups = [slice(m, m + 1) for m in range(cache.nodes)]
    else:
        groups = [slice(None)]
    q = node_weights(np.ones(cache.nodes), variant).size
    batch = []
    for r0, r1, c0, c1, tiles in cache._cross_blocks(groups, len(groups)):
        table = np.empty((r1 - r0, c1 - c0, q))
        if variant == CONCATENATION:
            for m, tile in enumerate(tiles):
                table[:, :, m] = tile[:, 0, :, 0]
        else:
            (tile,) = tiles
            _packed_sym(tile.transpose(0, 2, 1, 3), table)
        same = labels[r0:r1, None] == labels[None, c0:c1]
        if c0 >= r1:
            batch.append((same.ravel(), table.reshape(-1, q)))
        else:
            upper = np.arange(c0, c1) > np.arange(r0, r1)[:, None]
            batch.append((same[upper], table[upper]))
        # dropped before the next position's table is made
        del same, table
        if sum(p.size for p, _ in batch) >= _MOMENT_PANEL:
            yield _joined(batch)
    if batch:
        yield _joined(batch)


def _joined(batch: list) -> tuple[np.ndarray, np.ndarray]:
    """The ``(pos, rows)`` of a batch of tile positions joined, or of its
    one position as it is, with ``batch`` emptied so that its parts are
    freed before the joined batch is used."""
    joined = (batch[0] if len(batch) == 1
              else tuple(map(np.concatenate, zip(*batch))))
    batch.clear()
    return joined


def segment_quartic(A: np.ndarray, b: np.ndarray, c: float, beta: np.ndarray,
                    d: np.ndarray, variant: str) -> np.ndarray:
    """Coefficients, constant first, of the quartic ``L(beta + t d)``:
    ``w(t) = W[0] + t W[1] + t^2 W[2]``, read off ``w(-1), w(0), w(1)``,
    and the ``t^k`` term of ``w' A w`` sums ``(W A W')[i, j]``, i+j = k."""
    w0 = node_weights(beta, variant)
    up, down = node_weights(beta + d, variant), node_weights(beta - d, variant)
    W = np.stack([w0, 0.5 * (up - down), 0.5 * (up + down) - w0])
    M = np.fliplr(W @ (A @ W.T))
    coeffs = np.array([M.trace(2 - k) for k in range(5)])
    coeffs[:3] -= 2.0 * (W @ b)
    coeffs[0] += c
    return coeffs


def quartic_argmin(coeffs: np.ndarray, t_max: float) -> float:
    """The lowest of ``t_max`` and the derivative's roots in ``(0, t_max)``
    for the polynomial ``coeffs``, constant first, with a negative slope
    at 0. Real parts keep a double root that rounding split into a
    complex pair."""
    roots = np.roots((coeffs[1:] * np.arange(1, coeffs.size))[::-1]).real
    candidates = np.append(roots[(roots > 0) & (roots < t_max)], t_max)
    return float(candidates[np.argmin(np.polyval(coeffs[::-1], candidates))])


def require_rbf(kind: str) -> None:
    """Contrastive training's kernel rule: only the rbf kernel, whose
    values are > 0, makes the loss quadratic in the node weights."""
    if kind != "rbf":
        raise ValidationError("contrastive training needs the rbf kernel, "
                              f"got kernel {kind!r}")


def dmkl_fit(trees: list[PooledTree], labels: np.ndarray, variant: str,
             cfg: ContrastiveConfig, kernel_cfg: KernelConfig,
             svm_cfg: TrainConfig = TrainConfig()) -> DmklResult:
    """Minimize the contrastive loss over the simplex, then train the
    one-vs-rest machines on the Gram matrix of the frozen weights. Each
    step moves weight from the support node of largest gradient to the
    node of smallest, by the exact minimizer along that segment, so it
    can drop a node to 0. The trace holds the loss before and after each
    step. The seed only draws a random start. Needs the rbf kernel."""
    require_rbf(kernel_cfg.kind)
    variant = canonical_variant(variant)
    labels = np.asarray(labels)
    one_vs_rest_classes(labels, len(trees))
    cache = NodeKernelCache(trees, kernel_cfg)
    A, b, c = pair_moments(cache, labels, variant, cfg.positive_fraction)
    beta = SimplexWeights.init(cache.nodes, cfg.beta_init, cfg.seed).beta.copy()
    loss_trace, beta_trace = [], [beta.copy()]
    for step in range(cfg.iterations + 1):
        w = node_weights(beta, variant)
        Aw = A @ w
        loss_trace.append(float(w @ Aw - 2.0 * (b @ w) + c))
        grad = node_weights_pullback(2.0 * (Aw - b), beta, variant)
        toward = int(np.argmin(grad))
        fw_gap = float(grad @ beta - grad[toward])
        if fw_gap <= FW_GAP_TOL or step == cfg.iterations:
            break
        # a positive gap puts a support entry above grad[toward]
        away = int(np.argmax(np.where(beta > 0, grad, -np.inf)))
        d = np.zeros_like(beta)
        d[toward], d[away] = 1.0, -1.0
        t_max = beta[away]
        t = quartic_argmin(segment_quartic(A, b, c, beta, d, variant), t_max)
        beta[toward] += t
        beta[away] = 0.0 if t == t_max else beta[away] - t
        beta_trace.append(beta.copy())
    stop_reason = "gap" if fw_gap <= FW_GAP_TOL else "max_iters"
    weights = SimplexPoint(beta)
    kernel_table = ("moments", A.shape)
    del A, b  # free the moments first: averaging's A is 32.5 MB at depth 6
    gram = GramMatrix(values=cache.combined(weights.beta, variant),
                      ids=cache.row_ids)
    return DmklResult(weights=weights,
                      model=train_one_vs_rest(gram, labels, svm_cfg),
                      loss_trace=np.asarray(loss_trace),
                      beta_trace=np.asarray(beta_trace),
                      stop_reason=stop_reason, fw_gap=fw_gap,
                      kernel_table=kernel_table)


def dmkl_then_svm(trees: list[PooledTree], labels: np.ndarray, variant: str,
                  cfg: ContrastiveConfig, kernel_cfg: KernelConfig,
                  svm_cfg: TrainConfig = TrainConfig()) -> DmklResult:
    """:func:`dmkl_fit` under the name ``bench/tracer.py`` still wraps."""
    return dmkl_fit(trees, labels, variant, cfg, kernel_cfg, svm_cfg)
