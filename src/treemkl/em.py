"""Alternating kernel-weight / SVM optimization over the level simplex.

The route learns one weight per hierarchy level, ``gamma`` on the
D-simplex, shared evenly by the level's nodes: ``beta = M gamma`` with
``M = Hierarchy.level_matrix``, as the pyramid match kernel (Grauman &
Darrell, ICCV 2005) and spatial pyramid matching (Lazebnik, Schmid &
Ponce, CVPR 2006) weight their levels. From a weight vector ``gamma``:

1. solve one SVM dual per class on the combined kernel (``gamma``
   fixed);
2. take a Frank-Wolfe step (Jaggi, ICML 2013) along ``d = e_v - gamma``
   toward the level v of the smallest gradient entry (``alpha`` fixed).

The traced objective ``J`` is the sum over classes of the optimal dual
values at the current ``gamma``; it is non-increasing at every accepted
iteration by construction. The line search tries the full step ``eta =
1`` first. A candidate whose objective rises is rejected, and the next
``eta`` minimizes the quadratic through ``J(0)``, ``J(eta)`` and the
exact slope ``J'(0) = grad @ d``, clamped to ``[0.1 eta, 0.5 eta]``
(SimpleMKL: Rakotomamonjy et al., JMLR 2008).

Both variants hold one fixed table ``T = cache.level_table(M,
variant)``, built once, that holds each unordered pair of training
videos once, and the variant enters only through ``node_weights`` and
its pullback: every Gram, start and candidates alike, is written from
``T @ node_weights(gamma, variant)``, and the gradient in ``gamma`` at
the current ``alpha`` is ``-node_weights_pullback(c, gamma, variant)``
with ``c = beta_objective_coeffs(model, T)`` (Danskin).

Every candidate's dual solves start from the last accepted ``alpha``,
which is feasible for any kernel and close to the candidate's optimum
(SimpleMKL). ``EmResult`` carries the node weights ``beta = M gamma``
and their trace, counts the dual solves and their pair updates,
candidates included, and the rejected candidates, and says why the
alternation stopped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, ValidationError
from .hierarchy import Hierarchy, PooledTree
from .kernels import (
    GramMatrix,
    KernelConfig,
    NodeKernelCache,
    _pair_start,
    canonical_variant,
    contract_pairs,
    node_weights,
    node_weights_pullback,
)
from .simplex import INIT_SCHEMES, SimplexWeights
from .svm import SvmModel, TrainConfig, one_vs_rest_classes, train_one_vs_rest

# rejected candidates an iteration tries before it gives up
MAX_BACKTRACKS = 12
# an interpolated step length is clamped to this share of the rejected one
BACKTRACK_RANGE = (0.1, 0.5)

# why em_fit stopped: one level, gamma at the step's vertex, every
# candidate rejected, gamma and alpha settled, the iteration budget spent
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
    kernel_table: tuple             # name and shape of the fixed table held


def backtracked_eta(eta: float, rise: float, slope: float) -> float:
    """The step length to try after ``eta`` was rejected: the minimizer
    of the quadratic ``q(t) = J(0) + slope t + a t^2`` with ``q(eta) =
    J(0) + rise``, clamped to ``BACKTRACK_RANGE`` times ``eta``. A
    rejected candidate has ``rise > 0`` and a descent direction ``slope
    <= 0``, so the curvature ``a`` is positive."""
    lo, hi = BACKTRACK_RANGE
    curvature = (rise - slope * eta) / (eta * eta)
    return float(np.clip(-slope / (2.0 * curvature), lo * eta, hi * eta))


def beta_objective_coeffs(model: SvmModel, table: np.ndarray) -> np.ndarray:
    """Alignment of each kernel of a packed table over the model's
    training videos with its dual solutions. ``table`` holds one row per
    unordered video pair, ``(n * (n + 1) / 2, ...)``, packed as
    ``kernels._pair_start`` lays them out, as a one-set
    ``NodeKernelCache.level_table`` does: with ``T_p`` the symmetric n x
    n matrix whose packed pairs are ``table[:, p]`` and ``s_c`` row c of
    ``model.alpha * model.signs``, the result is ``0.5 * sum_c s_c' T_p
    s_c`` for each trailing index ``p``, in the shape of the trailing
    axes. It is summed one row video at a time, each pair off the
    diagonal counted twice. For the concatenation level table that is a
    non-negative vector, one entry per level. For the averaging level
    table it is the packed upper triangle, one entry per unordered
    level pair, of a symmetric PSD matrix: the Gram matrix of the
    per-level function components. Minus its ``node_weights_pullback``
    is ``em_fit``'s gradient.
    """
    n = model.n_train
    table = np.asarray(table)
    if table.ndim < 2 or table.shape[0] != n * (n + 1) // 2:
        raise ShapeMismatch(
            f"table shape {table.shape} does not hold the "
            f"{n * (n + 1) // 2} video pairs of {n} videos")
    signed = model.alpha * model.signs
    flat = table.reshape(table.shape[0], -1)
    quad = np.zeros(flat.shape[1])
    for i in range(n):
        # 0.5 sum_c s_c' T s_c = sum_{i <= j} g_ij T_ij, g_ij = sum_c s_ci
        # s_cj off the diagonal and half that on it: row i's pairs (i, j)
        weights = signed[:, i] @ signed[:, i:]
        weights[0] *= 0.5
        quad += weights @ flat[_pair_start(i, n):_pair_start(i + 1, n)]
    return quad.reshape(table.shape[1:])


def em_fit(trees: list[PooledTree], labels: np.ndarray, variant: str,
           kernel_cfg: KernelConfig, em_cfg: EmConfig = EmConfig(),
           svm_cfg: TrainConfig = TrainConfig()) -> EmResult:
    """Alternate dual solves and line-searched alignment steps on the
    level weights ``gamma``; returns node weights ``beta = M gamma``.

    Stops when the iteration budget is exhausted, when ``gamma`` is the
    vertex the next step would move to, when both ``gamma`` and every
    ``alpha`` move less than ``param_tol`` in max-norm, or when no
    candidate of the line search keeps the objective from rising.
    Holds one fixed level table, one row per unordered video pair,
    (n * (n + 1) / 2, levels) for concatenation or (n * (n + 1) / 2,
    levels * (levels + 1) / 2) for averaging, and, beside it, one n x n
    Gram at a time, its contraction written in place (``contract_pairs``),
    whose rows the dual solves read without a copy. ``NodeKernelCache``
    refuses a table above ``kernels._DENSE_LIMIT`` elements before
    allocating it (:class:`ValidationError`).
    """
    variant = canonical_variant(variant)
    labels = np.asarray(labels)
    one_vs_rest_classes(labels, len(trees))
    cache = NodeKernelCache(trees, kernel_cfg)
    tie = Hierarchy(trees[0].depth).level_matrix
    table = cache.level_table(tie, variant)
    levels = tie.shape[1]

    gamma = SimplexWeights.init(levels, em_cfg.beta_init, em_cfg.seed).beta
    dual_solves = pair_updates = backtracks = 0

    def solve(weights, start):
        nonlocal dual_solves, pair_updates
        # objective: sum over classes of the optimal (negated) dual values
        gram = GramMatrix(
            values=contract_pairs(table, node_weights(weights, variant)),
            ids=cache.row_ids)
        model = train_one_vs_rest(gram, labels, svm_cfg, start)
        dual_solves += model.class_ids.size
        pair_updates += model.pair_updates
        return model, -sum(sol.objective for sol in model.duals)

    model, objective = solve(gamma, None)
    trace = [objective]
    gamma_trace = [gamma]
    iterations = 0
    stop_reason = "max_iters"

    for _ in range(em_cfg.max_iters):
        if levels == 1:
            stop_reason = "single_node"
            break
        # the objective's gradient in gamma is -coeffs
        coeffs = node_weights_pullback(
            beta_objective_coeffs(model, table).ravel(), gamma, variant)
        v = int(np.argmax(coeffs))
        vertex = np.zeros(levels)
        vertex[v] = 1.0
        if np.allclose(vertex, gamma):
            stop_reason = "vertex"
            break
        # J'(0) along vertex - gamma
        slope = -(coeffs[v] - coeffs @ gamma)

        eta = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            candidate = (1.0 - eta) * gamma + eta * vertex
            cand_model, cand_objective = solve(candidate, model)
            if cand_objective <= objective + 1e-10:
                break
            backtracks += 1
            eta = backtracked_eta(eta, cand_objective - objective, slope)
        else:
            stop_reason = "no_accepted_step"
            break

        gamma_delta = float(np.max(np.abs(candidate - gamma)))
        alpha_delta = float(np.max(np.abs(cand_model.alpha - model.alpha)))
        gamma, model, objective = candidate, cand_model, cand_objective
        trace.append(objective)
        gamma_trace.append(gamma)
        iterations += 1
        if gamma_delta < em_cfg.param_tol and alpha_delta < em_cfg.param_tol:
            stop_reason = "param_tol"
            break

    return EmResult(beta=tie @ gamma, model=model,
                    objective_trace=np.asarray(trace),
                    beta_trace=np.asarray(gamma_trace) @ tie.T,
                    iterations=iterations, dual_solves=dual_solves,
                    pair_updates=pair_updates, backtracks=backtracks,
                    stop_reason=stop_reason,
                    kernel_table=("level_table", table.shape))
