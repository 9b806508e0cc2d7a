"""Independent reference implementations used only to check the library.

Nothing here shares code with the package: the QP oracle enumerates
active sets, gradients come from central finite differences, the softmax
Jacobian is written out entry by entry, and artifact scores are summed
one class and one support video list at a time.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


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
