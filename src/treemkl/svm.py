"""Max-margin dual solver and one-vs-rest kernel classification.

The binary dual solved here, for labels ``y in {-1, +1}`` and a PSD
kernel matrix ``K``::

    min_alpha  0.5 * sum_ij alpha_i alpha_j y_i y_j K_ij - sum_i alpha_i
    s.t.       0 <= alpha_i <= c_box,   sum_i y_i alpha_i = 0

solved by sequential two-coordinate updates along directions that keep
the equality constraint satisfied, always picking the maximally
KKT-violating pair (deterministic given input order). ``c_box = inf``
removes the upper bound, matching the hard-margin formulation exactly;
the finite default exists because real data is rarely separable.

Each pair update costs a fixed number of length-n array operations.
The textbook loop forms the gradient ``grad = Q @ alpha - 1``, then
rebuilds the KKT index masks and the masked values of ``-y * grad``
from scratch, although only two coordinates of ``alpha`` changed. Here
the loop keeps ``vals = -y * grad`` itself and moves it by
``t * (K[:, i] - K[:, j])``. Since ``y`` is +/-1 and rounding is
symmetric in sign, this is bit for bit the negation of the textbook
gradient update. The masks become two penalty vectors (0 or -inf, 0 or
+inf), rewritten only at ``i`` and ``j``. Adding a penalty to a finite
value gives that value or the infinity that ``np.where`` would have
put there. So the pair choices, steps, ``alpha``, update count and
objective equal the textbook loop's bit for bit, and ``b`` and the
KKT residual equal its values (an exact zero may come out +0.0 where
the textbook loop has -0.0). ``tests/oracles.py`` keeps that loop as
``solve_dual_reference``. This needs finite values, so a kernel with a
non-finite entry is rejected up front.

The decision function of class ``c`` is
``g_c(v) = sum_i alpha_i^c y_ic K(v, v_i) + b_c`` and prediction takes
the class with the highest score (ties break to the smallest class id).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (NotConverged, ShapeMismatch, SingleClass, TooFewVideos,
                     ValidationError)
from .kernels import GramMatrix


@dataclass(frozen=True)
class TrainConfig:
    c_box: float = 10.0
    kkt_tol: float = 1e-6
    max_passes: int = 200

    def __post_init__(self):
        if not (self.c_box > 0):
            raise ValidationError(f"c_box must be positive, got {self.c_box}")
        if not (0 < self.kkt_tol < math.inf):
            raise ValidationError(
                f"kkt_tol must be positive and finite, got {self.kkt_tol}")
        if self.max_passes < 1:
            raise ValidationError(f"max_passes must be >= 1, got {self.max_passes}")


@dataclass(frozen=True)
class DualSolution:
    alpha: np.ndarray
    b: float
    updates: int
    kkt_residual: float
    objective: float


def _as_matrix(kernel) -> np.ndarray:
    values = getattr(kernel, "values", kernel)
    return np.asarray(values, dtype=np.float64)


def dual_objective(K, alpha: np.ndarray, y: np.ndarray) -> float:
    K = _as_matrix(K)
    ay = alpha * y
    return float(0.5 * ay @ K @ ay - alpha.sum())


def solve_dual(K, y: np.ndarray, cfg: TrainConfig = TrainConfig()) -> DualSolution:
    """Solve the box-constrained dual; see the module docstring.

    The dual objective decreases at every pair update. The shift ``b``
    averages the stationarity values of unbounded support vectors, with
    a midpoint-of-KKT-bounds fallback when every support vector sits on
    a bound.

    Each update costs a fixed number of length-n array operations. The
    loop keeps ``vals = -y * grad`` itself (``grad = Q @ alpha - 1``)
    and two penalty vectors, ``up_pen`` (0 where ``y * alpha`` may rise
    within the box, else -inf) and ``low_pen`` (0 where it may fall,
    else +inf), rewritten only at the two updated coordinates. The
    columns of ``K`` are read from one contiguous copy of ``K.T``.

    Raises :class:`ValidationError` for a kernel with a non-finite
    entry, :class:`SingleClass` when only one label is present and
    :class:`NotConverged` (carrying the best iterate) when the KKT
    residual is still above ``kkt_tol`` after ``max_passes * n`` pair
    updates, or when ``c_box = inf`` and a step is unbounded.
    """
    K = _as_matrix(K)
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    if K.shape != (n, n):
        raise ShapeMismatch(f"kernel {K.shape} vs {n} labels")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise SingleClass("labels are all one class")
    if not np.all(np.abs(y) == 1.0):
        raise ValidationError("labels must be +/-1")
    if not np.all(np.isfinite(K)):
        raise ValidationError("kernel matrix has a non-finite entry")

    c_box = cfg.c_box
    cols = np.ascontiguousarray(K.T)  # row k holds column k of K
    diag = K.diagonal().tolist()
    signs = y.tolist()
    # alpha as Python floats: the same IEEE arithmetic, cheaper per scalar
    alpha = [0.0] * n
    vals = y.copy()  # -y * grad at alpha = 0, where grad = -1
    up_pen = np.empty(n)
    low_pen = np.empty(n)
    for k in range(n):
        up_pen[k], low_pen[k] = _penalties(alpha[k], signs[k], c_box)
    up_vals = np.empty(n)
    low_vals = np.empty(n)
    step = np.empty(n)
    max_updates = cfg.max_passes * n
    updates = 0
    stop = None

    while True:
        np.add(vals, up_pen, out=up_vals)
        np.add(vals, low_pen, out=low_vals)
        i = int(up_vals.argmax())
        j = int(low_vals.argmin())
        residual = float(up_vals[i] - low_vals[j])
        if residual <= cfg.kkt_tol:
            break
        if updates >= max_updates:
            stop = (f"KKT residual {residual:.3e} > tol {cfg.kkt_tol:.3e} "
                    f"after {updates} pair updates")
            break

        # step along d = y_i e_i - y_j e_j (keeps sum(y * alpha) fixed)
        y_i, y_j = signs[i], signs[j]
        quad = diag[i] + diag[j] - 2.0 * float(K[i, j])
        t_max_i = (c_box - alpha[i]) if y_i > 0 else alpha[i]
        t_max_j = (c_box - alpha[j]) if y_j < 0 else alpha[j]
        t_max = min(t_max_i, t_max_j)
        if quad > 1e-12:
            t = min(residual / quad, t_max)
        else:
            t = t_max
        if not math.isfinite(t):
            # only c_box = inf leaves t_max unbounded: no hard margin exists
            stop = (f"dual unbounded along pair ({i}, {j}) after {updates} "
                    f"pair updates: no hard margin separates the labels; "
                    f"use a finite c_box")
            break
        alpha[i] += t * y_i
        alpha[j] -= t * y_j
        # grad moves by t * y * (K[:, i] - K[:, j]); as y is +/-1 and
        # rounding is symmetric in sign, vals moves by exactly the negation
        np.subtract(cols[i], cols[j], out=step)
        step *= t
        vals -= step
        up_pen[i], low_pen[i] = _penalties(alpha[i], y_i, c_box)
        up_pen[j], low_pen[j] = _penalties(alpha[j], y_j, c_box)
        updates += 1

    alpha = np.array(alpha)
    if stop is not None:
        raise NotConverged(stop, alpha=alpha,
                           b=_shift(alpha, vals, up_pen, low_pen, c_box),
                           residual=residual, updates=updates)
    np.clip(alpha, 0.0, c_box if math.isfinite(c_box) else None, out=alpha)
    b = _shift(alpha, vals, up_pen, low_pen, c_box)
    return DualSolution(alpha=alpha, b=b, updates=updates,
                        kkt_residual=residual,
                        objective=dual_objective(K, alpha, y))


def _penalties(a, y, c_box) -> tuple[float, float]:
    """(up, low) penalties of one coordinate with ``alpha = a``: up is
    0 when ``y * a`` may rise within the box, else -inf; low is 0 when
    it may fall, else +inf."""
    rise = a < c_box if y > 0 else a > 0
    fall = a > 0 if y > 0 else a < c_box
    return (0.0 if rise else -math.inf), (0.0 if fall else math.inf)


def _shift(alpha, vals, up_pen, low_pen, c_box, bound_tol=1e-9):
    interior = (alpha > bound_tol) & (alpha < c_box - bound_tol)
    if interior.any():
        # stationarity gives b = -y_i * grad_i = vals_i on unbounded
        # support vectors
        return float(np.mean(vals[interior]))
    hi = np.max(vals + up_pen)
    lo = np.min(vals + low_pen)
    return float((hi + lo) / 2.0)


def one_vs_rest_classes(labels: np.ndarray, n: int) -> np.ndarray:
    """Sorted class ids of ``labels`` for ``n`` videos; the label rule of
    every trainer: one label per video, >= 2 videos, >= 2 classes."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeMismatch(f"{labels.size} labels for {n} videos")
    if n < 2:
        raise TooFewVideos(f"need >= 2 videos, got {n}")
    class_ids = np.unique(labels)
    if class_ids.size < 2:
        raise SingleClass(f"need >= 2 classes, got {class_ids.size}")
    return class_ids


def _one_vs_rest_signs(labels, class_ids) -> np.ndarray:
    """(classes, n) targets: +1 where a video's label is the row's class."""
    return np.where(labels == class_ids[:, None], 1.0, -1.0)


@dataclass(frozen=True)
class SvmModel:
    """One binary machine per class over a shared training set; row c of
    ``signs``, derived and never passed, holds class c's +/-1 targets."""

    train_ids: tuple[str, ...]
    labels: np.ndarray              # class id per training video
    class_ids: np.ndarray           # sorted distinct class ids
    alpha: np.ndarray               # (classes, n) dual coefficients
    b: np.ndarray                   # (classes,) shifts
    signs: np.ndarray = field(init=False, repr=False)  # (classes, n)

    def __post_init__(self):
        object.__setattr__(self, "train_ids", tuple(self.train_ids))
        object.__setattr__(self, "signs", _one_vs_rest_signs(
            np.asarray(self.labels), np.asarray(self.class_ids)))
        for name in ("labels", "class_ids", "alpha", "b", "signs"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.alpha.shape != (self.class_ids.size, len(self.train_ids)):
            raise ShapeMismatch("alpha shape inconsistent with ids/classes")

    @property
    def n_train(self) -> int:
        return len(self.train_ids)


def train_one_vs_rest(gram: GramMatrix, labels: np.ndarray,
                      cfg: TrainConfig = TrainConfig()) -> SvmModel:
    """Train one binary dual per class (positive = that class).

    Per-class failures are re-raised with the class id attached.
    """
    labels = np.asarray(labels)
    class_ids = one_vs_rest_classes(labels, gram.n)
    alpha = np.zeros((class_ids.size, gram.n))
    b = np.zeros(class_ids.size)
    signs = _one_vs_rest_signs(labels, class_ids)
    for ci, (c, y) in enumerate(zip(class_ids, signs)):
        try:
            sol = solve_dual(gram, y, cfg)
        except NotConverged as exc:
            raise NotConverged(f"class {c}: {exc}", alpha=exc.alpha, b=exc.b,
                               residual=exc.residual, updates=exc.updates) from exc
        alpha[ci] = sol.alpha
        b[ci] = sol.b
    return SvmModel(train_ids=gram.ids, labels=labels,
                    class_ids=class_ids, alpha=alpha, b=b)


def decision_scores(model: SvmModel, k_cols: np.ndarray) -> np.ndarray:
    """Scores for a batch: rows are videos, columns follow
    ``model.class_ids``."""
    k_cols = np.atleast_2d(np.asarray(k_cols, dtype=np.float64))
    if k_cols.shape[1] != model.n_train:
        raise ShapeMismatch(
            f"kernel columns have {k_cols.shape[1]} entries for "
            f"{model.n_train} training videos")
    return k_cols @ (model.alpha * model.signs).T + model.b


def predict(model: SvmModel, k_cols: np.ndarray) -> np.ndarray:
    """Highest-scoring class per video; ties go to the smallest class id."""
    scores = decision_scores(model, k_cols)
    return model.class_ids[np.argmax(scores, axis=1)]
