"""Alternating kernel-weight / SVM optimization over the simplex.

The alternation from a weight vector ``beta``:

1. solve one SVM dual per class on the combined kernel (``beta`` fixed);
2. move ``beta`` toward the hierarchy node whose elementary kernel is
   most aligned with the current classifiers (``alpha`` fixed), with a
   step length found by a line search that never lets the traced
   objective increase.

The traced objective is the sum over classes of the optimal dual values
(equivalently the regularized primal optima) at the current ``beta`` —
the quantity the alternation actually descends; it is non-increasing at
every accepted iteration by construction.

Both variants keep one pair-major (n, n, nodes) table ``T`` whose
contraction ``T @ beta`` is the Gram matrix: the aligned node kernels
for concatenation, and for averaging the half-contracted table
``P[i, j, u] = sum_m beta[m] kappa(x_im, x_ju)``, which moves with
``beta``. The alignment coefficients ``c = beta_objective_coeffs(model,
T)`` give the gradient of the objective in ``beta`` at the current
``alpha``: ``-c`` for concatenation, which is linear in ``beta``, and
``-2 c`` for averaging, which is quadratic in it.

``em_fit`` takes Frank-Wolfe steps (Jaggi, ICML 2013): it moves along
``d = e_v - beta`` toward the vertex of the largest alignment
coefficient, in both variants the smallest gradient entry (negation and
doubling are exact, so ties pick the same index). The line search tries
the full step ``eta = 1`` first. A candidate whose objective rises is
rejected, and the next ``eta`` minimizes the quadratic through ``J(0)``,
``J(eta)`` and the exact slope ``J'(0) = -k (c_v - c @ beta)`` (Danskin:
the gradient at the current ``alpha``, ``k = 1`` for concatenation and
2 for averaging), clamped to ``[0.1 eta, 0.5 eta]`` (SimpleMKL's line
search along its descent direction: Rakotomamonjy et al., JMLR 2008).

A candidate's Gram is linear (concatenation) or quadratic (averaging)
in ``eta``, so ``stepped_gram`` builds it from the last accepted Gram
and n x n slices, never by contracting a whole table. Once a step is
accepted, ``NodeKernelCache.step_half_contracted`` moves the averaging
table in place to ``(1 - eta) P + eta S_v``, ``S_v[i, j, u] =
kappa(x_iv, x_ju)``, streaming ``S_v`` in row blocks. So averaging
holds one (n, n, nodes) table, as concatenation does, and the (n, n,
nodes, nodes) cross tensor is never built.

Every candidate's dual solves start from the last accepted model's
``alpha``, which is feasible for any kernel and close to the candidate's
optimum (SimpleMKL); only the first solve starts from zero. ``EmResult``
counts the dual solves and their pair updates, candidates included, the
rejected candidates, and says why the alternation stopped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, ValidationError
from .hierarchy import PooledTree
from .kernels import (
    AVERAGING,
    KernelConfig,
    NodeKernelCache,
    canonical_variant,
    contract_table,
    mirrored_gram,
)
from .simplex import INIT_SCHEMES, SimplexWeights
from .svm import (SvmModel, TrainConfig, dual_objective, one_vs_rest_classes,
                  train_one_vs_rest)

# rejected candidates an iteration tries before it gives up
MAX_BACKTRACKS = 12
# an interpolated step length is clamped to this share of the rejected one
BACKTRACK_RANGE = (0.1, 0.5)

# why em_fit stopped: one node, beta at the step's vertex, every candidate
# rejected, beta and alpha settled, the iteration budget spent
STOP_REASONS = ("single_node", "vertex", "no_accepted_step", "param_tol",
                "max_iters")


@dataclass(frozen=True)
class EmConfig:
    max_iters: int = 50
    param_tol: float = 1e-4
    beta_init: str = "uniform"
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValidationError(f"max_iters must be >= 0, got {self.max_iters}")
        if not (self.param_tol > 0):
            raise ValidationError(f"param_tol must be > 0, got {self.param_tol}")
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
    dual_solves: int                # binary duals solved, candidates included
    pair_updates: int               # over all those dual solves
    backtracks: int                 # rejected candidates
    stop_reason: str                # one of STOP_REASONS


def backtracked_eta(eta: float, rise: float, slope: float) -> float:
    """The step length to try after ``eta`` was rejected: the minimizer
    of the quadratic ``q(t) = J(0) + slope t + a t^2`` with ``q(eta) =
    J(0) + rise``, clamped to ``BACKTRACK_RANGE`` times ``eta``. A
    rejected candidate has ``rise > 0`` and a descent direction ``slope
    <= 0``, so the curvature ``a`` is positive."""
    lo, hi = BACKTRACK_RANGE
    curvature = (rise - slope * eta) / (eta * eta)
    return float(np.clip(-slope / (2.0 * curvature), lo * eta, hi * eta))


def stepped_gram(gram: np.ndarray, table_v: np.ndarray, eta: float,
                 vertex_gram: np.ndarray | None = None) -> np.ndarray:
    """The Gram at ``(1 - eta) beta + eta e_v`` from ``gram``, the Gram at
    ``beta``: ``(1 - eta) gram + eta table_v`` with ``table_v = T[:, :,
    v]`` for concatenation, or ``(1 - eta)^2 gram + eta (1 - eta) table_v
    + eta^2 vertex_gram`` for averaging, with ``vertex_gram[i, j] =
    kappa(x_iv, x_jv)`` and ``table_v = P_v + P_v'`` (``P_v = P[:, :,
    v]``), which holds both cross terms since kappa is symmetric."""
    if vertex_gram is None:
        return (1.0 - eta) * gram + eta * table_v
    values = (1.0 - eta) ** 2 * gram
    values += eta * (1.0 - eta) * table_v
    values += eta * eta * vertex_gram
    return values


def beta_objective_coeffs(model: SvmModel, table: np.ndarray) -> np.ndarray:
    """Alignment of each node kernel with the dual solutions of ``model``.

    ``table`` is a pair-major node-kernel table of shape (n, n, ...)
    over the model's training videos. With ``s_c`` row c of ``model.alpha
    * model.signs``, each trailing index ``p`` gives ``0.5 * sum_c s_c'
    table[:, :, p] s_c``, in the shape of the table's trailing axes: a
    vector over nodes for the aligned table (non-negative since each
    kappa_m is PSD), a node-by-node matrix for the cross tensor
    (symmetric PSD, a Gram matrix of per-node function components), and
    that matrix times ``beta`` for the half-contracted table
    ``NodeKernelCache.half_contracted(beta)``.
    """
    n = model.n_train
    table = np.asarray(table)
    if table.shape[:2] != (n, n):
        raise ShapeMismatch(
            f"table shape {table.shape} is not pair-major over {n} videos")
    signed = model.alpha * model.signs
    # contract the row videos in one GEMM, then the column videos
    partial = signed @ table.reshape(n, -1)
    quad = np.einsum("ci,cik->k", signed, partial.reshape(len(signed), n, -1))
    return 0.5 * quad.reshape(table.shape[2:])


def em_fit(trees: list[PooledTree], labels: np.ndarray, variant: str,
           kernel_cfg: KernelConfig, em_cfg: EmConfig = EmConfig(),
           svm_cfg: TrainConfig = TrainConfig()) -> EmResult:
    """Alternate dual solves and line-searched alignment steps on ``beta``.

    Stops when the iteration budget is exhausted, when ``beta`` is the
    vertex the next step would move to, when both ``beta`` and every
    ``alpha`` move less than ``param_tol`` in max-norm, or when no
    candidate of the line search keeps the objective from rising.
    Each variant holds one (n, n, nodes) table and, beside it, n x n
    Grams and row blocks only; ``NodeKernelCache`` raises
    :class:`ValidationError` before allocating a table above
    ``kernels._DENSE_LIMIT`` elements.
    """
    variant = canonical_variant(variant)
    labels = np.asarray(labels)
    one_vs_rest_classes(labels, len(trees))
    cache = NodeKernelCache(trees, kernel_cfg)
    averaging = variant == AVERAGING
    m = cache.nodes

    beta = SimplexWeights.init(m, em_cfg.beta_init, em_cfg.seed).beta
    table = cache.half_contracted(beta) if averaging else cache.aligned()

    dual_solves = pair_updates = backtracks = 0

    def solve(values, start):
        nonlocal dual_solves, pair_updates
        # objective: sum over classes of the optimal (negated) dual values
        gram = mirrored_gram(values, cache.row_ids)
        model = train_one_vs_rest(gram, labels, svm_cfg, start)
        dual_solves += model.class_ids.size
        pair_updates += model.pair_updates
        return gram, model, -sum(dual_objective(gram, a, y)
                                 for a, y in zip(model.alpha, model.signs))

    gram, model, objective = solve(contract_table(table, beta), None)
    trace = [objective]
    beta_trace = [beta.copy()]
    iterations = 0
    stop_reason = "max_iters"

    for _ in range(em_cfg.max_iters):
        if m == 1:
            stop_reason = "single_node"
            break
        coeffs = beta_objective_coeffs(model, table)
        # the smallest entry of the gradient, -c or -2 c
        v = int(np.argmax(coeffs))
        vertex = np.zeros(m)
        vertex[v] = 1.0
        if np.allclose(vertex, beta):
            stop_reason = "vertex"
            break
        # J'(0) along vertex - beta: the gradient -k c dotted with it
        slope = -(2.0 if averaging else 1.0) * (coeffs[v] - coeffs @ beta)
        # the Gram moves along the step through n x n slices only
        table_v, vertex_gram = table[:, :, v], None
        if averaging:
            # (S_v beta)[i, j] = P[j, i, v], kappa being symmetric
            table_v = table_v + table_v.T
            vertex_gram = cache.combined(vertex, AVERAGING)

        eta = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            candidate = (1.0 - eta) * beta + eta * vertex
            cand_gram, cand_model, cand_objective = solve(
                stepped_gram(gram.values, table_v, eta, vertex_gram), model)
            if cand_objective <= objective + 1e-10:
                break
            backtracks += 1
            eta = backtracked_eta(eta, cand_objective - objective, slope)
        else:
            stop_reason = "no_accepted_step"
            break
        if averaging:
            cache.step_half_contracted(table, v, eta)

        beta_delta = float(np.max(np.abs(candidate - beta)))
        alpha_delta = float(np.max(np.abs(cand_model.alpha - model.alpha)))
        beta, gram, model, objective = (candidate, cand_gram, cand_model,
                                        cand_objective)
        trace.append(objective)
        beta_trace.append(beta.copy())
        iterations += 1
        if beta_delta < em_cfg.param_tol and alpha_delta < em_cfg.param_tol:
            stop_reason = "param_tol"
            break

    return EmResult(beta=beta, model=model,
                    objective_trace=np.asarray(trace),
                    beta_trace=np.asarray(beta_trace),
                    iterations=iterations, dual_solves=dual_solves,
                    pair_updates=pair_updates, backtracks=backtracks,
                    stop_reason=stop_reason)
