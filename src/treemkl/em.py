"""Alternating kernel-weight / SVM optimization over the simplex.

The alternation from a weight vector ``beta``:

1. solve one SVM dual per class on the combined kernel (``beta`` fixed);
2. move ``beta`` toward the hierarchy node whose elementary kernel is
   most aligned with the current classifiers (``alpha`` fixed), damped
   by ``eta`` and backtracked so the traced objective never increases.

The traced objective is the sum over classes of the optimal dual values
(equivalently the regularized primal optima) at the current ``beta`` —
the quantity the alternation actually descends; it is non-increasing at
every accepted iteration by construction. The alignment coefficients
are one quadratic form per node pair of the variant's node-kernel table:
a vector over nodes for concatenation (the weight subproblem is then a
simplex LP) and a PSD node-by-node matrix for averaging (a simplex QP).

``em_fit`` takes a damped Frank-Wolfe step on the alternation
objective. The objective is linear in the weight map
``node_weights(beta, variant)`` with coefficients ``-c``, so its
gradient in ``beta`` at the current ``alpha`` is
``-node_weights_pullback(c, beta, variant)``; the step moves toward the
vertex of the smallest gradient entry and backtracks its length until
the traced objective does not rise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, SingleClass, ValidationError
from .hierarchy import PooledTree
from .kernels import (
    KernelConfig,
    NodeKernelCache,
    canonical_variant,
    gram_from_cache,
    node_weights_pullback,
)
from .simplex import INIT_SCHEMES, SimplexWeights
from .svm import SvmModel, TrainConfig, dual_objective, train_one_vs_rest

# step-length halvings tried before an iteration gives up
MAX_HALVINGS = 12


@dataclass(frozen=True)
class EmConfig:
    max_iters: int = 50
    param_tol: float = 1e-4
    eta: float = 0.5
    beta_init: str = "uniform"
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValidationError(f"max_iters must be >= 0, got {self.max_iters}")
        if not (self.param_tol > 0):
            raise ValidationError(f"param_tol must be > 0, got {self.param_tol}")
        if not (0.0 < self.eta <= 1.0):
            raise ValidationError(f"eta must be in (0, 1], got {self.eta}")
        if self.beta_init not in INIT_SCHEMES:
            raise ValidationError(f"unknown beta_init {self.beta_init!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class EmResult:
    beta: np.ndarray
    model: SvmModel
    objective_trace: np.ndarray
    beta_trace: np.ndarray          # weights at start plus after each step
    iterations: int


def beta_objective_coeffs(alpha: np.ndarray, labels: np.ndarray,
                          table: np.ndarray) -> np.ndarray:
    """Alignment of each node kernel with the current dual solutions.

    ``table`` is a pair-major node-kernel table of shape (n, n, ...),
    ``NodeKernelCache.table(variant)``. For each node pair ``p`` it
    gives ``0.5 * sum_c (alpha_c * y_c)' kappa_p (alpha_c * y_c)``, in
    the shape of the table's trailing axes: a vector over nodes for the
    aligned table (non-negative since each kappa_m is PSD) and a
    node-by-node matrix for the cross tensor (symmetric PSD, a Gram
    matrix of per-node function components).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    labels = np.asarray(labels)
    class_ids = np.unique(labels)
    n = labels.size
    if alpha.ndim != 2 or alpha.shape != (class_ids.size, n):
        raise ShapeMismatch(
            f"alpha shape {alpha.shape}, expected "
            f"({class_ids.size}, {n})")
    table = np.asarray(table)
    if table.shape[:2] != (n, n):
        raise ShapeMismatch(
            f"table shape {table.shape} is not pair-major over {n} videos")
    signed = alpha * np.stack(
        [np.where(labels == c, 1.0, -1.0) for c in class_ids])
    # contract the row videos in one GEMM, then the column videos
    partial = signed @ table.reshape(n, -1)
    quad = np.einsum("ci,cik->k", signed, partial.reshape(len(signed), n, -1))
    return 0.5 * quad.reshape(table.shape[2:])


def em_fit(trees: list[PooledTree], labels: np.ndarray, variant: str,
           kernel_cfg: KernelConfig, em_cfg: EmConfig = EmConfig(),
           svm_cfg: TrainConfig = TrainConfig()) -> EmResult:
    """Alternate dual solves and damped alignment steps on ``beta``.

    Stops when the iteration budget is exhausted, when both ``beta``
    and every ``alpha`` move less than ``param_tol`` in max-norm, or
    when no backtracked step length still decreases the objective.
    """
    variant = canonical_variant(variant)
    labels = np.asarray(labels)
    if np.unique(labels).size < 2:
        raise SingleClass("need at least 2 classes")
    cache = NodeKernelCache(trees, kernel_cfg)
    table = cache.table(variant)
    m = cache.nodes

    beta = SimplexWeights.init(m, em_cfg.beta_init, em_cfg.seed).beta

    def solve(b):
        # objective: sum over classes of the optimal (negated) dual values
        gram = gram_from_cache(cache, b, variant)
        model = train_one_vs_rest(gram, labels, svm_cfg)
        return model, -sum(dual_objective(gram, model.alpha[ci],
                                          model.signs_for(c))
                           for ci, c in enumerate(model.class_ids))

    model, objective = solve(beta)
    trace = [objective]
    beta_trace = [beta.copy()]
    iterations = 0

    for _ in range(em_cfg.max_iters):
        if m == 1:
            break
        coeffs = beta_objective_coeffs(model.alpha, labels, table)
        # descend the alternation objective, linear in the weight map
        grad = -node_weights_pullback(coeffs, beta, variant)
        vertex = np.zeros(m)
        vertex[int(np.argmin(grad))] = 1.0
        if np.allclose(vertex, beta):
            break

        accepted = False
        eta = em_cfg.eta
        for _ in range(MAX_HALVINGS + 1):
            candidate = (1.0 - eta) * beta + eta * vertex
            cand_model, cand_objective = solve(candidate)
            if cand_objective <= objective + 1e-10:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break

        beta_delta = float(np.max(np.abs(candidate - beta)))
        alpha_delta = float(np.max(np.abs(cand_model.alpha - model.alpha)))
        beta, model, objective = candidate, cand_model, cand_objective
        trace.append(objective)
        beta_trace.append(beta.copy())
        iterations += 1
        if beta_delta < em_cfg.param_tol and alpha_delta < em_cfg.param_tol:
            break

    return EmResult(beta=beta, model=model,
                    objective_trace=np.asarray(trace),
                    beta_trace=np.asarray(beta_trace),
                    iterations=iterations)
