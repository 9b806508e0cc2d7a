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
each step then costs O(q^2) for q = nodes or nodes**2, whatever the
number of videos, and stays on the simplex through its softmax
reparametrization. ``dmkl_fit`` then frees the moments, builds one Gram
matrix from the frozen weights and its own node-kernel cache, and trains
the one-vs-rest machines on it in a single step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, TooFewVideos, ValidationError
from .hierarchy import PooledTree
from .kernels import (
    _DENSE_LIMIT,
    KernelConfig,
    NodeKernelCache,
    canonical_variant,
    mirrored_gram,
    node_weights,
    node_weights_pullback,
)
from .simplex import (
    INIT_SCHEMES,
    SimplexWeights,
    backprop_through_simplex,
    check_on_simplex,
)
from .svm import SvmModel, TrainConfig, one_vs_rest_classes, train_one_vs_rest


@dataclass(frozen=True)
class ContrastiveConfig:
    learning_rate: float = 0.0005
    iterations: int = 4000
    seed: int = 0
    positive_fraction: float | None = None
    beta_init: str = "uniform"

    def __post_init__(self):
        if not (0 <= self.learning_rate < np.inf):
            raise ValidationError(f"learning_rate must be finite and >= 0, "
                                  f"got {self.learning_rate}")
        if self.iterations < 0:
            raise ValidationError("iterations must be >= 0")
        if self.positive_fraction is not None and not (
                0.0 < self.positive_fraction < 1.0):
            raise ValidationError("positive_fraction must be in (0, 1)")
        if self.beta_init not in INIT_SCHEMES:
            raise ValidationError(f"unknown beta_init {self.beta_init!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


class _PairTable:
    """Every pair i < j of a label vector, row-major, with its +/-1
    same-class label; the contrastive route's one source of pairs."""

    def __init__(self, labels: np.ndarray):
        self.i, self.j = np.triu_indices(labels.size, k=1)
        self.y = np.where(labels[self.i] == labels[self.j], 1.0, -1.0)


def contrastive_loss(k_vals: np.ndarray, y: np.ndarray,
                     margin: float = 0.0) -> float:
    """Mean squared disagreement between kernel values and pair labels;
    zero exactly when positives sit at 1 and negatives at or below the
    margin. A per-pair oracle for the moment form."""
    k_vals = np.asarray(k_vals, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if k_vals.shape != y.shape:
        raise ShapeMismatch(f"{k_vals.shape} kernel values vs {y.shape} labels")
    return float(np.mean(_residual(k_vals, y, margin) ** 2))


def _residual(k_vals: np.ndarray, y: np.ndarray, margin: float) -> np.ndarray:
    """Per-pair residual whose square is the pair loss: ``k - 1`` on
    positive pairs, the hinge ``max(0, k - margin)`` on negative ones."""
    return np.where(y > 0, k_vals - 1.0, np.maximum(0.0, k_vals - margin))


def loss_grad(i: np.ndarray, j: np.ndarray, y: np.ndarray,
              cache: NodeKernelCache, weights: SimplexWeights, variant: str,
              margin: float = 0.0) -> tuple[float, np.ndarray]:
    """Loss over the pairs ``(i[p], j[p])`` with +/-1 labels ``y`` and
    its gradient w.r.t. the raw (pre-softmax) parameters, composing the
    pair losses, the kernel's weight dependence, and the simplex
    Jacobian. The per-pair oracle for ``pair_moments``."""
    variant = canonical_variant(variant)
    beta = weights.beta
    flat = cache.pair_blocks(i, j, variant)
    resid = _residual(flat @ node_weights(beta, variant), y, margin)
    loss = float(np.mean(resid ** 2))
    de_dbeta = node_weights_pullback((2.0 * resid / y.size) @ flat,
                                     beta, variant)
    return loss, backprop_through_simplex(de_dbeta, beta)


# Adam's moment decay rates and denominator guard, at their published
# defaults (Kingma & Ba, ICLR 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators for the raw parameters."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n))

    def update(self, grad: np.ndarray, learning_rate: float) -> np.ndarray:
        if grad.shape != self.m.shape:
            raise ShapeMismatch(f"gradient {grad.shape} vs state {self.m.shape}")
        self.step += 1
        self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * grad ** 2
        m_hat = self.m / (1.0 - ADAM_BETA1 ** self.step)
        v_hat = self.v / (1.0 - ADAM_BETA2 ** self.step)
        return -learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass(frozen=True)
class DmklResult:
    weights: SimplexWeights
    model: SvmModel
    loss_trace: np.ndarray
    beta_trace: np.ndarray          # weights at start plus after each step


def pair_moments(cache: NodeKernelCache, table: _PairTable, variant: str,
                 positive_fraction: float | None
                 ) -> tuple[np.ndarray, np.ndarray, float]:
    """``A``, ``b``, ``c`` of the margin-0 loss over the pairs of ``table``,
    weighted ``f / |pos|`` or ``(1 - f) / |neg|`` by polarity for
    ``positive_fraction = f``, else ``1 / |pairs|``. Pair (i, j)'s row of q
    node kernels, q = ``len(node_weights)``, is ``block[i - r0, j]`` of the
    ``cache.table_blocks`` block from row video r0 on. A (q, q) ``A`` over
    ``_DENSE_LIMIT`` is refused."""
    variant = canonical_variant(variant)
    q = node_weights(np.ones(cache.nodes), variant).size
    if q * q > _DENSE_LIMIT:
        raise ValidationError(
            f"{variant} contrastive training needs a ({q}, {q}) moment "
            f"matrix of {q * q * 8} bytes, above the {_DENSE_LIMIT * 8} limit")
    pos, f = table.y > 0, positive_fraction
    if f is not None and (pos.all() or not pos.any()):
        raise TooFewVideos("rebalancing needs both pair polarities")
    coef = (np.full(pos.size, 1.0 / pos.size) if f is None
            else np.where(pos, f / pos.sum(), (1.0 - f) / (~pos).sum()))
    coef_pos = np.where(pos, coef, 0.0)
    A, b = np.zeros((q, q)), np.zeros(q)
    for r0, block in cache.table_blocks(variant):
        lo, hi = np.searchsorted(table.i, (r0, r0 + len(block)))
        rows = block[table.i[lo:hi] - r0, table.j[lo:hi]]
        A += rows.T @ (coef[lo:hi, None] * rows)
        b += coef_pos[lo:hi] @ rows
    return A, b, float(coef_pos.sum())


def dmkl_fit(trees: list[PooledTree], labels: np.ndarray, variant: str,
             cfg: ContrastiveConfig, kernel_cfg: KernelConfig,
             svm_cfg: TrainConfig = TrainConfig()) -> DmklResult:
    """Minimize the contrastive loss over the simplex by Adam steps on its
    exact gradient, then train the one-vs-rest machines on the Gram matrix
    of the frozen weights; the trace holds the loss before and after each
    step. The seed only draws a random start. Needs the rbf kernel."""
    if kernel_cfg.kind != "rbf":
        raise ValidationError("contrastive training needs the rbf kernel, "
                              f"got kernel {kernel_cfg.kind!r}")
    variant = canonical_variant(variant)
    labels = np.asarray(labels)
    one_vs_rest_classes(labels, len(trees))
    cache = NodeKernelCache(trees, kernel_cfg)
    A, b, c = pair_moments(cache, _PairTable(labels), variant,
                           cfg.positive_fraction)
    weights = SimplexWeights.init(cache.nodes, cfg.beta_init, cfg.seed)
    adam = AdamState.zeros(cache.nodes)
    loss_trace, beta_trace = [], [weights.beta]
    for step in range(cfg.iterations + 1):
        w = node_weights(weights.beta, variant)
        Aw = A @ w
        loss_trace.append(float(w @ Aw - 2.0 * (b @ w) + c))
        if step == cfg.iterations:
            break
        grad = backprop_through_simplex(node_weights_pullback(
            2.0 * (Aw - b), weights.beta, variant), weights.beta)
        delta = adam.update(grad, cfg.learning_rate)
        weights = SimplexWeights(weights.raw + delta)
        beta_trace.append(weights.beta)
    check_on_simplex(weights.beta)
    del A, b  # free the moments first: averaging's A is 126 MB at depth 6
    gram = mirrored_gram(cache.combined(weights.beta, variant), cache.row_ids)
    return DmklResult(weights=weights,
                      model=train_one_vs_rest(gram, labels, svm_cfg),
                      loss_trace=np.asarray(loss_trace),
                      beta_trace=np.asarray(beta_trace))


def dmkl_then_svm(trees: list[PooledTree], labels: np.ndarray, variant: str,
                  cfg: ContrastiveConfig, kernel_cfg: KernelConfig,
                  svm_cfg: TrainConfig = TrainConfig()) -> DmklResult:
    """:func:`dmkl_fit` under the name ``bench/tracer.py`` still wraps."""
    return dmkl_fit(trees, labels, variant, cfg, kernel_cfg, svm_cfg)
