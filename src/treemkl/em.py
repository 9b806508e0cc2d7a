"""Alternating kernel-weight / SVM optimization over the simplex.

The alternation from a weight vector ``beta``:

1. solve one SVM dual per class on the combined kernel (``beta`` fixed);
2. move ``beta`` toward the hierarchy node whose elementary kernel is
   most aligned with the current classifiers (``alpha`` fixed), damped
   by ``eta`` and backtracked so the traced objective never increases.

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

``em_fit`` takes a damped Frank-Wolfe step (Jaggi, ICML 2013): it moves
toward the vertex ``e_v`` of the largest alignment coefficient, in both
variants the smallest gradient entry (negation and doubling are exact,
so ties pick the same index), and backtracks the step length until the
traced objective does not rise. Along the averaging step ``(1 - eta)
beta + eta e_v`` the table moves to ``(1 - eta) P + eta S_v``, where
``S_v = NodeKernelCache.node_slice(v)``, so a candidate's Gram is ``(1 -
eta) P @ b + eta S_v @ b`` for the candidate weights ``b``. The (n, n,
nodes, nodes) cross tensor is never built.
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
    """Alternate dual solves and damped alignment steps on ``beta``.

    Stops when the iteration budget is exhausted, when both ``beta``
    and every ``alpha`` move less than ``param_tol`` in max-norm, or
    when no backtracked step length still decreases the objective.
    Each variant holds one (n, n, nodes) table, averaging a second while
    it steps; ``NodeKernelCache`` raises :class:`ValidationError` before
    allocating one above ``kernels._DENSE_LIMIT`` elements.
    """
    variant = canonical_variant(variant)
    labels = np.asarray(labels)
    one_vs_rest_classes(labels, len(trees))
    cache = NodeKernelCache(trees, kernel_cfg)
    averaging = variant == AVERAGING
    m = cache.nodes

    beta = SimplexWeights.init(m, em_cfg.beta_init, em_cfg.seed).beta
    table = cache.half_contracted(beta) if averaging else cache.aligned()

    def solve(values):
        # objective: sum over classes of the optimal (negated) dual values
        gram = mirrored_gram(values, cache.row_ids)
        model = train_one_vs_rest(gram, labels, svm_cfg)
        return model, -sum(dual_objective(gram, a, y)
                           for a, y in zip(model.alpha, model.signs))

    model, objective = solve(contract_table(table, beta))
    trace = [objective]
    beta_trace = [beta.copy()]
    iterations = 0
    slice_vertex, node_slice = -1, None

    for _ in range(em_cfg.max_iters):
        if m == 1:
            break
        # the smallest entry of the gradient, -c or -2 c
        v = int(np.argmax(beta_objective_coeffs(model, table)))
        vertex = np.zeros(m)
        vertex[v] = 1.0
        if np.allclose(vertex, beta):
            break
        if averaging and v != slice_vertex:
            node_slice = None           # free the old slice before the new
            node_slice, slice_vertex = cache.node_slice(v), v

        accepted = False
        eta = em_cfg.eta
        for _ in range(MAX_HALVINGS + 1):
            candidate = (1.0 - eta) * beta + eta * vertex
            values = contract_table(table, candidate)
            if averaging:
                values *= 1.0 - eta
                values += eta * contract_table(node_slice, candidate)
            cand_model, cand_objective = solve(values)
            if cand_objective <= objective + 1e-10:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        if averaging:
            # half_contracted(candidate) = (1 - eta) P + eta S_v, written
            # as (P - S_v)(1 - eta) + S_v to need no third table
            table -= node_slice
            table *= 1.0 - eta
            table += node_slice

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
