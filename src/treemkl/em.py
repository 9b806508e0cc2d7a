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
come in two shapes: a vector of per-node quadratic forms for the
concatenation variant (the weight subproblem is then a simplex LP) and
a PSD node-by-node matrix for the averaging variant (a simplex QP).

``beta_step_concat`` and ``beta_step_averaging`` are the generic damped
simplex minimizers for those subproblem shapes: a damped move to the
best vertex for a linear objective, and a Frank-Wolfe step with exact
line search for a PSD quadratic. ``em_fit`` descends the alternation
objective by feeding the linear minimizer the objective's gradient,
whose node entries are the negated alignment coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonFinite,
    NotPSD,
    ShapeMismatch,
    SingleClass,
    ValidationError,
)
from .hierarchy import PooledTree
from .kernels import (
    CONCATENATION,
    KernelConfig,
    NodeKernelCache,
    canonical_variant,
    gram_from_cache,
)
from .simplex import check_on_simplex
from .svm import SvmModel, TrainConfig, train_one_vs_rest


@dataclass(frozen=True)
class EmConfig:
    max_iters: int = 50
    param_tol: float = 1e-4
    eta: float = 0.5
    max_halvings: int = 12
    beta_init: str = "uniform"
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValidationError(f"max_iters must be >= 0, got {self.max_iters}")
        if not (self.param_tol > 0):
            raise ValidationError(f"param_tol must be > 0, got {self.param_tol}")
        if not (0.0 < self.eta <= 1.0):
            raise ValidationError(f"eta must be in (0, 1], got {self.eta}")


@dataclass(frozen=True)
class EmResult:
    beta: np.ndarray
    model: SvmModel
    objective_trace: np.ndarray
    beta_trace: np.ndarray          # weights at start plus after each step
    iterations: int
    converged: bool


def beta_objective_coeffs(alpha: np.ndarray, labels: np.ndarray,
                          node_grams: np.ndarray, variant: str) -> np.ndarray:
    """Alignment of each node kernel with the current dual solutions.

    Concatenation (``node_grams`` of shape (nodes, n, n)): vector with
    ``c[m] = 0.5 * sum_c (alpha_c * y_c)' kappa_m (alpha_c * y_c)`` —
    non-negative since each kappa_m is PSD. Averaging (``node_grams`` the
    pair-major cross tensor of shape (n, n, nodes, nodes)): the matrix of
    the same quadratic forms over node pairs, symmetric PSD (a Gram
    matrix of per-node function components).
    """
    variant = canonical_variant(variant)
    alpha = np.asarray(alpha, dtype=np.float64)
    labels = np.asarray(labels)
    class_ids = np.unique(labels)
    n = labels.size
    if alpha.ndim != 2 or alpha.shape != (class_ids.size, n):
        raise ShapeMismatch(
            f"alpha shape {alpha.shape}, expected "
            f"({class_ids.size}, {n})")
    node_grams = np.asarray(node_grams)
    if variant == CONCATENATION:
        ok = node_grams.ndim == 3 and node_grams.shape[1:] == (n, n)
    else:
        ok = (node_grams.ndim == 4 and node_grams.shape[:2] == (n, n)
              and node_grams.shape[2] == node_grams.shape[3])
    if not ok:
        raise ShapeMismatch(
            f"node_grams shape {node_grams.shape} wrong for {variant}")
    signed = alpha * np.stack(
        [np.where(labels == c, 1.0, -1.0) for c in class_ids])
    if variant == CONCATENATION:
        return 0.5 * np.einsum("ci,mij,cj->m", signed, node_grams, signed,
                               optimize=True)
    m = node_grams.shape[2]
    # contract the row videos in one GEMM, then the column videos
    partial = signed @ node_grams.reshape(n, n * m * m)
    quad = np.einsum("ci,cik->k", signed, partial.reshape(-1, n, m * m))
    return 0.5 * quad.reshape(m, m)


def beta_step_concat(coeffs: np.ndarray, beta_prev: np.ndarray,
                     eta: float) -> np.ndarray:
    """Damped LP step: move toward the vertex minimizing ``<coeffs, .>``
    (ties to the smallest index). The objective is linear, so the damped
    point is never worse than ``beta_prev``."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if not np.isfinite(coeffs).all():
        raise NonFinite("LP coefficients contain non-finite values")
    beta_prev = check_on_simplex(beta_prev)
    if coeffs.shape != beta_prev.shape:
        raise ShapeMismatch(f"{coeffs.shape} coeffs vs beta {beta_prev.shape}")
    vertex = np.zeros_like(beta_prev)
    vertex[int(np.argmin(coeffs))] = 1.0
    return (1.0 - eta) * beta_prev + eta * vertex


def beta_step_averaging(quad: np.ndarray, beta_prev: np.ndarray,
                        eta: float, psd_tol: float = 1e-8) -> np.ndarray:
    """One Frank-Wolfe step on ``0.5 * beta' Q beta`` over the simplex.

    Direction is the vertex minimizing the gradient; the exact line
    search for the quadratic is clipped to ``[0, eta]``, so the
    objective never increases.
    """
    quad = np.asarray(quad, dtype=np.float64)
    beta_prev = check_on_simplex(beta_prev)
    n = beta_prev.size
    if quad.shape != (n, n):
        raise ShapeMismatch(f"quadratic {quad.shape} vs beta size {n}")
    if np.abs(quad - quad.T).max(initial=0.0) > 1e-8:
        raise ValidationError("quadratic term is not symmetric")
    if float(np.linalg.eigvalsh(quad)[0]) < -psd_tol:
        raise NotPSD(
            f"min eigenvalue {np.linalg.eigvalsh(quad)[0]:.3e} < -{psd_tol}")
    grad = quad @ beta_prev
    vertex = np.zeros(n)
    vertex[int(np.argmin(grad))] = 1.0
    direction = vertex - beta_prev
    curvature = direction @ quad @ direction
    slope = grad @ direction
    if curvature > 1e-15:
        t = float(np.clip(-slope / curvature, 0.0, eta))
    else:
        t = eta if slope < 0 else 0.0
    return beta_prev + t * direction


def frank_wolfe_gap(quad: np.ndarray, beta: np.ndarray) -> float:
    """Duality gap of the simplex QP at ``beta`` (0 at the optimum)."""
    grad = np.asarray(quad) @ np.asarray(beta)
    return float(grad @ beta - grad.min())


def _classifier_objective(gram, model: SvmModel) -> float:
    """Sum over classes of the optimal dual values (primal optima)."""
    total = 0.0
    for ci, c in enumerate(model.class_ids):
        ay = model.alpha[ci] * model.signs_for(c)
        total += model.alpha[ci].sum() - 0.5 * ay @ gram.values @ ay
    return float(total)


def em_fit(trees: list[PooledTree], labels: np.ndarray, variant: str,
           kernel_cfg: KernelConfig, em_cfg: EmConfig = EmConfig(),
           svm_cfg: TrainConfig = TrainConfig(),
           beta_init: np.ndarray | None = None) -> EmResult:
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
    node_grams = cache.aligned() if variant == CONCATENATION else cache.cross()
    m = cache.nodes

    if beta_init is not None:
        beta = check_on_simplex(np.asarray(beta_init, dtype=np.float64)).copy()
    elif em_cfg.beta_init == "uniform":
        beta = np.full(m, 1.0 / m)
    elif em_cfg.beta_init == "random":
        from .simplex import to_simplex
        beta = to_simplex(np.random.default_rng(em_cfg.seed).standard_normal(m))
    else:
        raise ValidationError(f"unknown beta_init {em_cfg.beta_init!r}")

    def solve(b):
        gram = gram_from_cache(cache, b, variant)
        model = train_one_vs_rest(gram, labels, svm_cfg)
        return model, _classifier_objective(gram, model)

    model, objective = solve(beta)
    trace = [objective]
    beta_trace = [beta.copy()]
    converged = False
    iterations = 0

    for _ in range(em_cfg.max_iters):
        if m == 1:
            converged = True
            break
        coeffs = beta_objective_coeffs(model.alpha, labels, node_grams, variant)
        # descend the alternation objective: its beta-gradient at the
        # current alpha is -coeffs (vector case) / -coeffs @ beta (matrix)
        if variant == CONCATENATION:
            grad = -coeffs
        else:
            grad = -(coeffs @ beta)
        vertex = np.zeros(m)
        vertex[int(np.argmin(grad))] = 1.0
        if np.allclose(vertex, beta):
            converged = True
            break

        accepted = False
        eta = em_cfg.eta
        for _ in range(em_cfg.max_halvings + 1):
            candidate = (1.0 - eta) * beta + eta * vertex
            cand_model, cand_objective = solve(candidate)
            if cand_objective <= objective + 1e-10:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            converged = True
            break

        beta_delta = float(np.max(np.abs(candidate - beta)))
        alpha_delta = float(np.max(np.abs(cand_model.alpha - model.alpha)))
        beta, model, objective = candidate, cand_model, cand_objective
        trace.append(objective)
        beta_trace.append(beta.copy())
        iterations += 1
        if beta_delta < em_cfg.param_tol and alpha_delta < em_cfg.param_tol:
            converged = True
            break

    return EmResult(beta=beta, model=model,
                    objective_trace=np.asarray(trace),
                    beta_trace=np.asarray(beta_trace),
                    iterations=iterations, converged=converged)
