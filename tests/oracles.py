"""Independent reference implementations used only to check the library.

Nothing here shares code with the package: the elementary kernel is
evaluated one vector pair at a time, and so is the concatenation
variant's whole node table, a dense node table is packed one node pair
at a time and a pair-major table one video pair at a time, packed video
pairs are unpacked one row at a time, the contrastive loss is the mean
of its per-pair terms, the kernel matrix is formed over whole arrays,
the QP oracles enumerate active sets or supports, gradients come from
central finite differences, the softmax Jacobian is written out entry
by entry, artifact scores are summed one class and one support video
list at a time, and the reference dual solver rebuilds every KKT
quantity from the gradient at each update.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


def elementary(x: np.ndarray, y: np.ndarray, cfg) -> float:
    """kappa(x, y) of one vector pair under a kernel config ``cfg``
    (``kind``, ``gamma``): rbf = exp(-gamma * ||x - y||^2), linear =
    <x, y>. The per-pair reference for every batched kernel path."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"vector shapes differ: {x.shape} vs {y.shape}")
    if cfg.kind == "linear":
        return float(x @ y)
    d = x - y
    return float(np.exp(-cfg.gamma * (d @ d)))


def aligned(cache) -> np.ndarray:
    """The concatenation variant's whole node table of a node-kernel
    ``cache`` (its stacked ``rows`` and ``cols`` of shape (videos, nodes,
    dim) and its kernel config ``cfg``): ``out[i, j, m] =
    kappa(row_i[m], col_j[m])``, shape (rows, cols, nodes), one
    :func:`elementary` kernel at a time. The dense reference the streamed
    concatenation tiles and level tables are checked against."""
    return np.array([[[elementary(a_m, b_m, cache.cfg)
                       for a_m, b_m in zip(a, b)]
                      for b in cache.cols] for a in cache.rows])


def contrastive_loss(k_vals: np.ndarray, y: np.ndarray,
                     margin: float = 0.0) -> float:
    """Mean over pairs of the contrastive pair loss of kernel values
    ``k_vals`` under +/-1 labels ``y``: ``(1 - k)^2`` on a positive pair,
    ``max(0, k - margin)^2`` on a negative one. Zero exactly when
    positives sit at 1 and negatives at or below the margin."""
    k_vals = np.asarray(k_vals, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if k_vals.shape != y.shape:
        raise ValueError(f"{k_vals.shape} kernel values vs {y.shape} labels")
    terms = [(1.0 - k) ** 2 if label > 0 else max(0.0, k - margin) ** 2
             for k, label in zip(k_vals.ravel(), y.ravel())]
    return float(np.mean(terms))


def whole_array_kernels(X: np.ndarray, Y: np.ndarray, cfg) -> np.ndarray:
    """kappa between the rows of X (..., a, d) and of Y (..., b, d), each
    step over whole arrays: ``2 X Y'``, then ``(|x|^2 + |y|^2) - 2 X
    Y'``, clipped at 0, times ``-gamma``, exponentiated (rbf), or ``X
    Y'`` (linear). The bits the library's in-place, chunked kernel tiles
    keep."""
    dot = X @ np.swapaxes(Y, -1, -2)
    if cfg.kind == "linear":
        return dot
    dot *= 2.0
    sq = (np.sum(X * X, axis=-1)[..., :, None]
          + np.sum(Y * Y, axis=-1)[..., None, :])
    sq -= dot
    sq = np.maximum(sq, 0.0)
    sq *= -cfg.gamma
    return np.exp(sq)


def pack_sym(K: np.ndarray) -> np.ndarray:
    """Dense to packed: the averaging tables' layout of a table ``K`` of
    shape (..., m, m). Entry p of the last axis is ``(K[..., a, c] +
    K[..., c, a]) / 2`` for the p-th node pair a <= c, row by row
    (a = 0 first), so the result has shape (..., m * (m + 1) / 2). With
    ``beta``'s weights ``beta[a] * beta[c]``, doubled off the diagonal,
    the packed entries sum to ``beta' K beta``."""
    K = np.asarray(K, dtype=np.float64)
    m = K.shape[-1]
    return np.stack([(K[..., a, c] + K[..., c, a]) / 2.0
                     for a in range(m) for c in range(a, m)], axis=-1)


def pack_pairs(T: np.ndarray) -> np.ndarray:
    """Dense to packed over video pairs: the one-set tables' layout of a
    pair-major table ``T`` of shape (n, n, ...). Row p is ``(T[i, j] +
    T[j, i]) / 2`` for the p-th video pair i <= j, row by row (i = 0
    first), so the result has shape (n * (n + 1) / 2, ...). A quadratic
    form ``s' T[:, :, ...] s`` is the sum over the packed rows weighted
    ``s_i s_j``, doubled off the diagonal, and a symmetric ``T`` is its
    upper triangle."""
    T = np.asarray(T, dtype=np.float64)
    n = T.shape[0]
    return np.stack([(T[i, j] + T[j, i]) / 2.0
                     for i in range(n) for j in range(i, n)])


def unpack_pairs(values: np.ndarray) -> np.ndarray:
    """Packed to dense over video pairs: the symmetric (n, n) matrix whose
    upper triangle, row by row (i = 0 first), is the 1-d ``values`` of
    length n * (n + 1) / 2; the inverse of :func:`pack_pairs` on a
    symmetric matrix. Each row is copied in, then each entry below the
    diagonal from its mirror, so every entry has the bits of its packed
    pair and no index array is made. The bit oracle of
    ``kernels.contract_pairs`` at ``unpack_pairs(table @ w)``."""
    values = np.asarray(values)
    pairs = values.size
    n = (math.isqrt(8 * pairs + 1) - 1) // 2
    if values.ndim != 1 or n * (n + 1) // 2 != pairs:
        raise ValueError(
            f"{values.shape} values are not the packed pairs of n videos")
    out = np.empty((n, n))
    at = 0
    for i in range(n):
        out[i, i:] = values[at:at + n - i]
        at += n - i
    for j in range(n):
        out[j + 1:, j] = out[j, j + 1:]
    return out


def central_difference(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for k in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[k] += step
        lo[k] -= step
        grad[k] = (f(hi) - f(lo)) / (2.0 * step)
    return grad


def qp_enumeration_oracle(K: np.ndarray, y: np.ndarray, c_box: float):
    """Global optimum of the SVM dual by exhaustive active-set search.

    min 0.5 a'Qa - 1'a  s.t. 0 <= a <= c_box, y'a = 0, Q = yy' * K.

    Every variable is pinned to 0, pinned to c_box, or left free; for
    each of the 3^n (or 2^n for an infinite box) patterns the free block
    plus the equality multiplier is solved as a linear system and the
    candidate kept if it is feasible. The convex optimum satisfies
    stationarity on its own active set, so the best feasible candidate
    is the global optimum.
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    Q = K * np.outer(y, y)

    def objective(a):
        return 0.5 * a @ Q @ a - a.sum()

    bounded = math.isfinite(c_box)
    states = (0, 1, 2) if bounded else (0, 2)  # 0 -> 0, 1 -> c_box, 2 -> free
    best_alpha = np.zeros(n)
    best_obj = objective(best_alpha)

    for pattern in itertools.product(states, repeat=n):
        pattern = np.array(pattern)
        alpha = np.zeros(n)
        alpha[pattern == 1] = c_box
        free = np.flatnonzero(pattern == 2)
        if free.size:
            # stationarity on free block with equality multiplier nu:
            # Q_ff a_f + nu y_f = 1 - Q_f,fixed a_fixed ; y_f' a_f = -y_fixed' a_fixed
            A = np.zeros((free.size + 1, free.size + 1))
            A[:free.size, :free.size] = Q[np.ix_(free, free)]
            A[:free.size, -1] = y[free]
            A[-1, :free.size] = y[free]
            rhs = np.concatenate([1.0 - Q[free] @ alpha, [-(alpha @ y)]])
            sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
            if not np.allclose(A @ sol, rhs, atol=1e-8):
                continue
            alpha[free] = sol[:free.size]
        if alpha.min() < -1e-9:
            continue
        if bounded and alpha.max() > c_box + 1e-9:
            continue
        if abs(alpha @ y) > 1e-8:
            continue
        obj = objective(alpha)
        if obj < best_obj:
            best_obj = obj
            best_alpha = alpha.copy()
    return best_alpha, best_obj


def simplex_qp_oracle(A: np.ndarray, b: np.ndarray, c: float):
    """Global minimum of ``L(w) = w'Aw - 2 b'w + c`` over the simplex, for
    a PSD ``A`` of order m <= 7, by exhaustive support search.

    For each of the 2^m - 1 supports S, stationarity on the face of S,
    ``A_SS w_S - b_S = mu 1`` with ``1'w_S = 1``, is solved as one linear
    system and the candidate kept if it is consistent and non-negative.
    The minimizer of smallest support is the unique stationary point of
    its face, so the best kept candidate is the global minimum. Returns
    the minimizer and its value.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m = b.size
    if m > 7:
        raise ValueError(f"support enumeration needs m <= 7, got {m}")
    best_w, best_val = None, math.inf
    for size in range(1, m + 1):
        for support in itertools.combinations(range(m), size):
            s = list(support)
            K = np.zeros((size + 1, size + 1))
            K[:size, :size] = A[np.ix_(s, s)]
            K[:size, -1] = -1.0
            K[-1, :size] = 1.0
            rhs = np.concatenate([b[s], [1.0]])
            sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
            if not np.allclose(K @ sol, rhs, atol=1e-10):
                continue
            if sol[:size].min() < -1e-12:
                continue
            w = np.zeros(m)
            w[s] = np.maximum(sol[:size], 0.0)
            w /= w.sum()
            val = float(w @ A @ w - 2.0 * (b @ w) + c)
            if val < best_val:
                best_w, best_val = w, val
    return best_w, best_val


@dataclass(frozen=True)
class ReferenceDual:
    """Outcome of :func:`solve_dual_reference`; ``objective`` is None
    when the update budget ran out (``converged`` False)."""

    alpha: np.ndarray
    b: float
    updates: int
    kkt_residual: float
    objective: float | None
    converged: bool


def solve_dual_reference(K: np.ndarray, y: np.ndarray, c_box: float,
                         kkt_tol: float, max_passes: int,
                         alpha0: np.ndarray | None = None) -> ReferenceDual:
    """The textbook maximal-violating-pair loop for the SVM dual.

    Same problem, start, pair choice, step and shift as
    ``svm.solve_dual``, but every update forms the gradient ``Q @ alpha
    - 1`` and rebuilds both KKT index masks and both masked value arrays
    from scratch. The package's solver must agree with it bit for bit.
    Inputs are assumed valid: a finite (n, n) ``K``, labels of +/-1 with
    both signs and a feasible start ``alpha0`` (zeros when None).
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    alpha = np.zeros(n) if alpha0 is None else np.array(alpha0, dtype=float)
    # gradient of the dual objective: Q @ alpha - 1, Q = yy' * K
    grad = y * (K @ (alpha * y)) - 1.0
    vals = np.empty(n)
    max_updates = max_passes * n
    updates = 0
    residual = math.inf

    while True:
        # -y * grad, the quantity whose spread measures KKT violation
        np.multiply(y, grad, out=vals)
        np.negative(vals, out=vals)
        up = ((y > 0) & (alpha < c_box)) | ((y < 0) & (alpha > 0))
        low = ((y < 0) & (alpha < c_box)) | ((y > 0) & (alpha > 0))
        up_vals = np.where(up, vals, -np.inf)
        low_vals = np.where(low, vals, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        residual = float(up_vals[i] - low_vals[j])
        if residual <= kkt_tol:
            break
        if updates >= max_updates:
            b = _reference_shift(alpha, grad, y, vals, c_box)
            return ReferenceDual(alpha=alpha, b=b, updates=updates,
                                 kkt_residual=residual, objective=None,
                                 converged=False)

        # step along d = y_i e_i - y_j e_j (keeps sum(y * alpha) fixed)
        quad = K[i, i] + K[j, j] - 2.0 * K[i, j]
        t_max_i = (c_box - alpha[i]) if y[i] > 0 else alpha[i]
        t_max_j = (c_box - alpha[j]) if y[j] < 0 else alpha[j]
        t_max = min(t_max_i, t_max_j)
        if quad > 1e-12:
            t = min(residual / quad, t_max)
        else:
            t = t_max
        alpha[i] += t * y[i]
        alpha[j] -= t * y[j]
        grad += t * y * (K[:, i] - K[:, j])
        updates += 1

    np.clip(alpha, 0.0, c_box if math.isfinite(c_box) else None, out=alpha)
    b = _reference_shift(alpha, grad, y, vals, c_box)
    ay = alpha * y
    return ReferenceDual(alpha=alpha, b=b, updates=updates,
                         kkt_residual=residual,
                         objective=float(0.5 * ay @ K @ ay - alpha.sum()),
                         converged=True)


def _reference_shift(alpha, grad, y, vals, c_box, bound_tol=1e-9):
    interior = (alpha > bound_tol) & (alpha < c_box - bound_tol)
    if interior.any():
        # stationarity gives b = -y_i * grad_i on unbounded support vectors
        return float(np.mean(-y[interior] * grad[interior]))
    up = ((y > 0) & (alpha < c_box)) | ((y < 0) & (alpha > 0))
    low = ((y < 0) & (alpha < c_box)) | ((y > 0) & (alpha > 0))
    hi = np.max(np.where(up, vals, -np.inf))
    lo = np.min(np.where(low, vals, np.inf))
    return float((hi + lo) / 2.0)


def averaging_coeffs_oracle(alpha: np.ndarray, labels: np.ndarray,
                            vectors: np.ndarray, gamma: float) -> np.ndarray:
    """Averaging-variant alignment matrix, one node pair at a time.

    ``out[p, q] = 0.5 * sum_c s_c' K_pq s_c`` with ``K_pq[i, j] =
    exp(-gamma * ||x_i[p] - x_j[q]||^2)`` over the (n, nodes, dim) node
    vectors and ``s_c = alpha[c] * (+1 for class c, -1 otherwise)``,
    classes in sorted order.
    """
    classes = np.unique(labels)
    nodes = vectors.shape[1]
    out = np.zeros((nodes, nodes))
    for p in range(nodes):
        for q in range(nodes):
            diff = vectors[:, None, p, :] - vectors[None, :, q, :]
            K = np.exp(-gamma * np.sum(diff * diff, axis=2))
            for ci, c in enumerate(classes):
                s = alpha[ci] * np.where(labels == c, 1.0, -1.0)
                out[p, q] += 0.5 * (s @ K @ s)
    return out


def softmax_jacobian(beta: np.ndarray) -> np.ndarray:
    """d(beta)/d(raw) of ``beta = softmax(raw)`` at the point ``beta``:
    entry [p, k] = beta[k] * (delta(p, k) - beta[p])."""
    beta = np.asarray(beta, dtype=np.float64)
    return beta[None, :] * (np.eye(beta.size) - beta[:, None])


def artifact_scores_oracle(artifact: dict, cols: np.ndarray,
                           support_ids: list[str],
                           support_labels: np.ndarray):
    """Decision scores (tests x classes) of a model artifact and its
    sorted class ids, class by class over each class's own support list.

    ``cols`` holds the combined kernel between the test videos and the
    videos ``support_ids`` (labels ``support_labels``), in that order.
    """
    pos = {v: i for i, v in enumerate(support_ids)}
    class_ids = np.array(sorted(int(c) for c in artifact["classes"]))
    scores = np.empty((cols.shape[0], class_ids.size))
    for ci, c in enumerate(class_ids):
        info = artifact["classes"][str(c)]
        idx = np.array([pos[e["video_id"]] for e in info["support"]],
                       dtype=int)
        if idx.size:
            alpha = np.array([e["alpha"] for e in info["support"]])
            signs = np.where(support_labels[idx] == c, 1.0, -1.0)
            scores[:, ci] = cols[:, idx] @ (alpha * signs) + info["b"]
        else:
            scores[:, ci] = info["b"]
    return scores, class_ids
