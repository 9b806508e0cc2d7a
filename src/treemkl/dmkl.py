"""Contrastive learning of the node weights, decoupled from the SVMs.

Instead of alternating with dual solves, the node weights are fit
directly to pairwise supervision: a pair of videos is positive when the
labels match, and the loss pushes the combined kernel value toward 1 on
positive pairs and below a margin on negative pairs::

    loss(k, +1) = (1 - k)^2        loss(k, -1) = max(0, k - margin)^2

averaged over a batch. With n videos there are n(n-1)/2 supervised
pairs, far more signal than n labels. Gradients flow through the
combined kernel's weight dependence and then through the simplex
reparametrization, so every optimizer step stays on the simplex. Once
trained, the weights are frozen, the Gram matrix is built once, and the
one-vs-rest machines are trained in a single step.

The recorded loss trace is evaluated on a fixed, seeded evaluation
batch (the full pair set when small enough), so it reflects progress
rather than batch noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch, SingleClass, TooFewVideos, ValidationError
from .hierarchy import PooledTree
from .kernels import (
    KernelConfig,
    NodeKernelCache,
    canonical_variant,
    gram_from_cache,
    node_weights,
    node_weights_pullback,
)
from .simplex import (
    INIT_SCHEMES,
    SimplexWeights,
    backprop_through_simplex,
    check_on_simplex,
)
from .svm import SvmModel, TrainConfig, train_one_vs_rest


@dataclass(frozen=True)
class ContrastiveConfig:
    learning_rate: float = 0.0005
    batch_pairs: int = 2048
    iterations: int = 4000
    margin: float = 0.0
    seed: int = 0
    positive_fraction: float | None = None
    optimizer: str = "adam"
    beta_init: str = "uniform"

    def __post_init__(self):
        if not (0 <= self.learning_rate < np.inf):
            raise ValidationError(f"learning_rate must be finite and >= 0, "
                                  f"got {self.learning_rate}")
        if self.batch_pairs < 1 or self.iterations < 0:
            raise ValidationError("batch_pairs must be >= 1, iterations >= 0")
        if not (0.0 <= self.margin < 1.0):
            raise ValidationError(f"margin must be in [0, 1), got {self.margin}")
        if self.positive_fraction is not None and not (
                0.0 < self.positive_fraction < 1.0):
            raise ValidationError("positive_fraction must be in (0, 1)")
        if self.optimizer not in ("adam", "sgd"):
            raise ValidationError(f"unknown optimizer {self.optimizer!r}")
        if self.beta_init not in INIT_SCHEMES:
            raise ValidationError(f"unknown beta_init {self.beta_init!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


class _PairTable:
    """Every pair i < j of a label vector with its +/-1 same-class label
    and the positive and negative pair positions; built once, sampled
    many times. The one source of pairs for the contrastive route."""

    def __init__(self, labels: np.ndarray):
        self.i, self.j = np.triu_indices(labels.size, k=1)
        self.y = np.where(labels[self.i] == labels[self.j], 1.0, -1.0)
        self.pos = np.flatnonzero(self.y > 0)
        self.neg = np.flatnonzero(self.y < 0)

    def sample(self, n_pairs: int, rng: np.random.Generator,
               positive_fraction: float | None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row indices, column indices and +/-1 labels of a batch.

        Every pair (the table's own arrays) when ``positive_fraction``
        is unset and ``n_pairs`` covers them; otherwise ``n_pairs``
        draws with replacement, rebalanced to ``positive_fraction``
        same-class pairs when it is set.
        """
        if positive_fraction is None and n_pairs >= self.i.size:
            # batch budget covers every pair: deterministic full batch,
            # which turns plain gradient descent into exact (monotone)
            # descent
            return self.i, self.j, self.y
        if positive_fraction is None:
            picks = rng.integers(0, self.i.size, size=n_pairs)
        else:
            if self.pos.size == 0 or self.neg.size == 0:
                raise TooFewVideos("rebalancing needs both pair polarities")
            n_pos = int(round(positive_fraction * n_pairs))
            n_pos = min(max(n_pos, 1), n_pairs - 1)
            picks = np.concatenate([
                self.pos[rng.integers(0, self.pos.size, size=n_pos)],
                self.neg[rng.integers(0, self.neg.size, size=n_pairs - n_pos)],
            ])
        return self.i[picks], self.j[picks], self.y[picks]


def contrastive_loss(k_vals: np.ndarray, y: np.ndarray,
                     margin: float = 0.0) -> float:
    """Mean squared disagreement between kernel values and pair labels;
    zero exactly when positives sit at 1 and negatives at or below the
    margin."""
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
    Jacobian."""
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
    loss_trace: np.ndarray
    beta_trace: np.ndarray          # weights at start plus after each step
    cache: NodeKernelCache = field(repr=False, compare=False, default=None)


def dmkl_fit(trees: list[PooledTree], labels: np.ndarray, variant: str,
             cfg: ContrastiveConfig, kernel_cfg: KernelConfig) -> DmklResult:
    """Minimize the contrastive disagreement over the simplex.

    Deterministic given the seed: the evaluation batch, every training
    batch, and any random initialization all derive from it. The trace
    holds the evaluation-batch loss before training and after each of
    the ``iterations`` steps.
    """
    variant = canonical_variant(variant)
    labels = np.asarray(labels)
    if labels.size < 2:
        raise TooFewVideos(f"need >= 2 videos, got {labels.size}")
    if np.unique(labels).size < 2:
        raise SingleClass("need at least 2 classes")
    cache = NodeKernelCache(trees, kernel_cfg)

    eval_ss, batch_ss, init_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    table = _PairTable(labels)
    # fixed eval batch drawn the same way training batches are (the full
    # pair set when the budget covers it), so the trace measures the
    # objective actually being minimized
    eval_i, eval_j, eval_y = table.sample(
        cfg.batch_pairs, np.random.default_rng(eval_ss), cfg.positive_fraction)
    eval_rows = cache.pair_blocks(eval_i, eval_j, variant)

    weights = SimplexWeights.init(
        cache.nodes, cfg.beta_init,
        seed=int(np.random.default_rng(init_ss).integers(2 ** 31)))
    batch_rng = np.random.default_rng(batch_ss)
    adam = AdamState.zeros(cache.nodes)

    beta_trace = [weights.beta]
    for _ in range(cfg.iterations):
        i, j, y = table.sample(cfg.batch_pairs, batch_rng,
                               cfg.positive_fraction)
        _, grad = loss_grad(i, j, y, cache, weights, variant, cfg.margin)
        if cfg.optimizer == "adam":
            delta = adam.update(grad, cfg.learning_rate)
        else:
            delta = -cfg.learning_rate * grad
        weights = SimplexWeights(weights.raw + delta)
        beta_trace.append(weights.beta)
    trace = [contrastive_loss(eval_rows @ node_weights(beta, variant),
                              eval_y, cfg.margin) for beta in beta_trace]
    check_on_simplex(weights.beta)
    return DmklResult(weights=weights, loss_trace=np.asarray(trace),
                      beta_trace=np.asarray(beta_trace), cache=cache)


@dataclass(frozen=True)
class DmklPipelineResult:
    weights: SimplexWeights
    model: SvmModel
    loss_trace: np.ndarray
    beta_trace: np.ndarray = field(repr=False, default=None)


def dmkl_then_svm(trees: list[PooledTree], labels: np.ndarray, variant: str,
                  cfg: ContrastiveConfig, kernel_cfg: KernelConfig,
                  svm_cfg: TrainConfig = TrainConfig()) -> DmklPipelineResult:
    """Freeze the contrastively-learned weights, build the Gram matrix,
    and train the one-vs-rest machines in one step."""
    fit = dmkl_fit(trees, labels, variant, cfg, kernel_cfg)
    gram = gram_from_cache(fit.cache, fit.weights.beta,
                           canonical_variant(variant))
    model = train_one_vs_rest(gram, np.asarray(labels), svm_cfg)
    return DmklPipelineResult(weights=fit.weights, model=model,
                              loss_trace=fit.loss_trace,
                              beta_trace=fit.beta_trace)
