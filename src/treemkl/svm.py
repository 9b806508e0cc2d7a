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
The textbook loop forms the gradient ``grad = Q @ alpha - 1`` and
rebuilds the KKT masks and the masked values of ``-y * grad`` from
scratch, although only two coordinates of ``alpha`` changed. Here the
loop keeps the two masked vectors it searches: ``up`` (``-y * grad``
where ``y * alpha`` may rise within the box, -inf elsewhere) and
``low`` (the same where ``y * alpha`` may fall, +inf elsewhere). Both move by
``t * (K[:, i] - K[:, j])``, which leaves the infinities as they are,
and only ``i`` and ``j`` are masked again. As ``y`` is +/-1 and
rounding is symmetric in sign, the finite entries move bit for bit as
the negated textbook gradient update.

Each update reads two columns of ``K`` as the rows they equal, as
LIBSVM reads rows of its symmetric Q (Chang & Lin, ACM TIST 2011): ``K``
must pass :func:`~treemkl.kernels.check_symmetric`, and is never copied.
On a ``K`` whose rows have its columns' bits (every Gram built here),
every result equals the textbook loop's bit for bit from the same start;
``tests/oracles.py`` keeps that loop as ``solve_dual_reference``.

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
from .kernels import GramMatrix, check_symmetric


@dataclass(frozen=True)
class TrainConfig:
    """Settings of one dual solve: box bound, KKT tolerance, pass budget."""

    c_box: float = 10.0
    kkt_tol: float = 1e-6
    max_passes: int = 200

    def __post_init__(self):
        if not (self.c_box > 0):
            raise ValidationError(f"c_box must be positive, got {self.c_box}")
        if not (0 < self.kkt_tol < 2):
            raise ValidationError(
                f"kkt_tol must be in (0, 2), got {self.kkt_tol}: at alpha = 0 "
                f"the KKT residual is 2, so every dual would stop untrained")
        if self.max_passes < 1:
            raise ValidationError(f"max_passes must be >= 1, got {self.max_passes}")


@dataclass(frozen=True, eq=False)
class DualSolution:
    """A converged dual solve, its work and its objective."""

    alpha: np.ndarray
    b: float
    updates: int
    kkt_residual: float
    objective: float


def dual_objective(K, alpha: np.ndarray, y: np.ndarray) -> float:
    K = np.asarray(getattr(K, "values", K), dtype=np.float64)
    ay = alpha * y
    return float(0.5 * ay @ K @ ay - alpha.sum())


def solve_dual(K, y: np.ndarray, cfg: TrainConfig = TrainConfig(),
               alpha0: np.ndarray | None = None) -> DualSolution:
    """Solve the box-constrained dual; see the module docstring.

    The loop starts from ``alpha0``, a feasible point (``0 <= alpha0 <=
    c_box``, ``y @ alpha0 = 0``), or from ``alpha = 0`` when it is None.
    A start near the optimum, such as the solution on a nearby kernel,
    needs fewer pair updates. The dual objective decreases at every pair
    update. The shift ``b`` averages the stationarity values of
    unbounded support vectors, with a midpoint-of-KKT-bounds fallback
    when every support vector sits on a bound.

    Each update costs six length-n array operations: the two searches,
    the row difference, its scaling and its subtraction from ``up`` and
    from ``low``. Both start as ``-y * grad = y - K @ (alpha0 * y)``
    (exactly ``y`` at the zero start), masked where ``y * alpha`` cannot
    rise or fall; an update masks its two coordinates again from
    whichever entry is finite (``c_box > 0`` leaves one). A
    ``GramMatrix`` was checked when built; any other ``K`` is checked
    here.

    Raises :class:`ValidationError` for a kernel that fails
    :func:`~treemkl.kernels.check_symmetric` or an infeasible
    ``alpha0``, :class:`SingleClass` when only one label is present and
    :class:`NotConverged` (carrying the best iterate) when the KKT
    residual is still above ``kkt_tol`` after ``max_passes * n`` pair
    updates, or when ``c_box = inf`` and a step is unbounded.
    """
    if isinstance(K, GramMatrix):
        K = K.values
    else:
        K = np.asarray(K, dtype=np.float64)
        check_symmetric(K)
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    if K.shape != (n, n):
        raise ShapeMismatch(f"kernel {K.shape} vs {n} labels")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise SingleClass("labels are all one class")
    if not np.all(np.abs(y) == 1.0):
        raise ValidationError("labels must be +/-1")

    c_box = cfg.c_box
    start = _feasible_start(alpha0, y, c_box)
    diag = K.diagonal().tolist()
    signs = y.tolist()
    # alpha as Python floats: the same IEEE arithmetic, cheaper per scalar
    alpha = start.tolist()
    # -y * grad = y - y * y * (K @ (alpha * y)), and y * y is exactly 1
    up = y - K @ (start * y)
    low = up.copy()
    up[np.where(y > 0, start >= c_box, start <= 0)] = -np.inf
    low[np.where(y > 0, start <= 0, start >= c_box)] = np.inf
    step = np.empty(n)
    max_updates = cfg.max_passes * n
    updates = 0
    stop = None

    while True:
        i = int(up.argmax())
        j = int(low.argmin())
        residual = float(up[i] - low[j])
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
        # -y * grad moves by exactly -t * (K[:, i] - K[:, j]), read as rows
        # (see the module docstring); a finite step leaves the infinities
        np.subtract(K[i], K[j], out=step)
        step *= t
        up -= step
        low -= step
        for k, y_k in ((i, y_i), (j, y_j)):
            # c_box > 0, so y_k * alpha_k may rise or fall: one is finite
            v = low.item(k) if up.item(k) == -math.inf else up.item(k)
            a = alpha[k]
            up[k] = v if (a < c_box if y_k > 0 else a > 0) else -math.inf
            low[k] = v if (a > 0 if y_k > 0 else a < c_box) else math.inf
        updates += 1

    alpha = np.array(alpha)
    if stop is not None:
        raise NotConverged(stop, alpha=alpha,
                           b=_shift(alpha, up, low, c_box),
                           residual=residual, updates=updates)
    np.clip(alpha, 0.0, c_box if math.isfinite(c_box) else None, out=alpha)
    b = _shift(alpha, up, low, c_box)
    return DualSolution(alpha=alpha, b=b, updates=updates,
                        kkt_residual=residual,
                        objective=dual_objective(K, alpha, y))


def _feasible_start(alpha0, y: np.ndarray, c_box: float) -> np.ndarray:
    """``alpha0`` as a float array, zeros when None; an entry outside
    ``[0, c_box]`` or ``|y @ alpha0|`` above ``1e-9 * max(1, sum)``
    raises :class:`ValidationError`."""
    if alpha0 is None:
        return np.zeros(y.size)
    start = np.array(alpha0, dtype=np.float64)
    if start.shape != y.shape:
        raise ShapeMismatch(f"start alpha {start.shape} vs {y.size} labels")
    if not (np.isfinite(start).all() and start.min() >= 0.0
            and start.max() <= c_box):
        raise ValidationError(f"start alpha leaves the box [0, {c_box}]")
    if abs(y @ start) > 1e-9 * max(1.0, start.sum()):
        raise ValidationError(
            f"start alpha has y @ alpha = {y @ start:.3e}, not 0")
    return start


def _shift(alpha, up, low, c_box, bound_tol=1e-9):
    interior = (alpha > bound_tol) & (alpha < c_box - bound_tol)
    if interior.any():
        # stationarity gives b = -y_i * grad_i on unbounded support
        # vectors, which ``up`` holds there
        return float(np.mean(up[interior]))
    return float((up.max() + low.min()) / 2.0)


def one_vs_rest_classes(labels: np.ndarray, n: int) -> np.ndarray:
    """Sorted class ids of ``labels`` for ``n`` videos; the label rule of
    every trainer: one label per video, >= 2 videos, >= 2 classes."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeMismatch(f"{labels.size} labels for {n} videos")
    if n < 2:
        raise TooFewVideos(f"need >= 2 videos, got {n}")
    # sorted distinct labels, as np.unique gives them without its lazy
    # numpy.ma import
    ordered = np.sort(labels)
    class_ids = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    if class_ids.size < 2:
        raise SingleClass(f"need >= 2 classes, got {class_ids.size}")
    return class_ids


def _one_vs_rest_signs(labels, class_ids) -> np.ndarray:
    """(classes, n) targets: +1 where a video's label is the row's class."""
    return np.where(labels == class_ids[:, None], 1.0, -1.0)


@dataclass(frozen=True, eq=False)
class SvmModel:
    """One binary machine per class over a shared training set; row c of
    ``signs``, derived and never passed, holds class c's +/-1 targets.
    ``duals`` holds the solutions that trained it, one per class, or
    none for a model assembled from an artifact."""

    train_ids: tuple[str, ...]
    labels: np.ndarray              # class id per training video
    class_ids: np.ndarray           # sorted distinct class ids
    alpha: np.ndarray               # (classes, n) dual coefficients
    b: np.ndarray                   # (classes,) shifts
    duals: tuple[DualSolution, ...] = field(default=(), repr=False)
    signs: np.ndarray = field(init=False, repr=False)  # (classes, n)

    def __post_init__(self):
        object.__setattr__(self, "train_ids", tuple(self.train_ids))
        object.__setattr__(self, "duals", tuple(self.duals))
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

    @property
    def pair_updates(self) -> int:
        """Pair updates over the classes' dual solves."""
        return sum(sol.updates for sol in self.duals)


def train_one_vs_rest(gram: GramMatrix, labels: np.ndarray,
                      cfg: TrainConfig = TrainConfig(),
                      start: SvmModel | None = None) -> SvmModel:
    """Train one binary dual per class (positive = that class), each
    from row c of ``start.alpha`` when a ``start`` model over the same
    videos and labels is given, else from zero.

    Per-class failures are re-raised with the class id attached.
    """
    labels = np.asarray(labels)
    class_ids = one_vs_rest_classes(labels, gram.n)
    alpha = np.zeros((class_ids.size, gram.n))
    b = np.zeros(class_ids.size)
    signs = _one_vs_rest_signs(labels, class_ids)
    if start is not None and (start.train_ids != gram.ids
                              or not np.array_equal(start.signs, signs)):
        raise ValidationError("start model covers other videos or labels")
    duals = []
    for ci, (c, y) in enumerate(zip(class_ids, signs)):
        try:
            sol = solve_dual(gram, y, cfg,
                             None if start is None else start.alpha[ci])
        except NotConverged as exc:
            raise NotConverged(f"class {c}: {exc}", alpha=exc.alpha, b=exc.b,
                               residual=exc.residual, updates=exc.updates) from exc
        alpha[ci] = sol.alpha
        b[ci] = sol.b
        duals.append(sol)
    return SvmModel(train_ids=gram.ids, labels=labels, class_ids=class_ids,
                    alpha=alpha, b=b, duals=duals)


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
