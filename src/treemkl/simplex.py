"""Node weights on the simplex: the softmax point, its backward pass,
and a checked holder for points with exact zeros.

Node weights live on the probability simplex (entries in [0, 1], summing
to 1). ``SimplexWeights`` holds free real parameters ``raw`` and the
point ``beta = exp(raw) / sum(exp(raw))`` they induce; the trainers
draw their start from it, and the contrastive loss's softmax gradient
(``dmkl.loss_grad``) is pulled back through it. The softmax Jacobian has
the closed form ``J[p, k] = beta[k] * (delta(p, k) - beta[p])``; its
columns sum to zero, which is why gradients of any loss that is constant
on the simplex vanish after the backward pass. A softmax point is never
exactly 0, so weights that a step drops to zero are held by
``SimplexPoint``, which stores ``beta`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .choices import INIT_SCHEMES
from .errors import NonFinite, NotOnSimplex, ShapeMismatch, ValidationError

SIMPLEX_TOL = 1e-9


def to_simplex(raw: np.ndarray) -> np.ndarray:
    """Normalized exponentials of ``raw`` with max-subtraction for
    overflow safety; invariant under adding a constant to ``raw``."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 1 or raw.size == 0:
        raise ShapeMismatch(f"raw must be a non-empty vector, got {raw.shape}")
    if not np.isfinite(raw).all():
        raise NonFinite("raw parameters contain non-finite values")
    shifted = raw - raw.max()
    e = np.exp(shifted)
    return e / e.sum()


def check_on_simplex(beta: np.ndarray) -> np.ndarray:
    beta = np.asarray(beta, dtype=np.float64)
    if beta.ndim != 1 or beta.size == 0:
        raise ShapeMismatch(f"beta must be a non-empty vector, got {beta.shape}")
    if not np.isfinite(beta).all():
        raise NotOnSimplex("beta contains non-finite values")
    if beta.min() < -SIMPLEX_TOL or beta.max() > 1 + SIMPLEX_TOL:
        raise NotOnSimplex(f"beta entries outside [0, 1]: "
                           f"min={beta.min()}, max={beta.max()}")
    if abs(beta.sum() - 1.0) > SIMPLEX_TOL:
        raise NotOnSimplex(f"beta sums to {beta.sum()}, not 1")
    return beta


def backprop_through_simplex(de_dbeta: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. ``beta`` back to the raw parameters.

    Closed form of the chain rule through the softmax:
    ``de_draw[k] = beta[k] * (de_dbeta[k] - <de_dbeta, beta>)``.
    """
    beta = check_on_simplex(beta)
    de_dbeta = np.asarray(de_dbeta, dtype=np.float64)
    if de_dbeta.shape != beta.shape:
        raise ShapeMismatch(
            f"gradient shape {de_dbeta.shape} != beta shape {beta.shape}")
    return beta * (de_dbeta - de_dbeta @ beta)


@dataclass(frozen=True)
class SimplexPoint:
    """A read-only ``beta`` that passed :func:`check_on_simplex`."""

    beta: np.ndarray

    def __post_init__(self):
        beta = check_on_simplex(np.array(self.beta, dtype=np.float64))
        beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class SimplexWeights:
    """Raw parameters and the simplex point they induce; ``beta`` is
    derived from ``raw`` on construction, so the two always agree."""

    raw: np.ndarray
    beta: np.ndarray = field(init=False)

    def __post_init__(self):
        raw = np.array(self.raw, dtype=np.float64)
        beta = to_simplex(raw)
        raw.flags.writeable = False
        beta.flags.writeable = False
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def uniform(cls, n: int) -> "SimplexWeights":
        return cls(np.zeros(n))

    @classmethod
    def random(cls, n: int, seed: int) -> "SimplexWeights":
        rng = np.random.default_rng(seed)
        return cls(rng.standard_normal(n))

    @classmethod
    def init(cls, n: int, scheme: str, seed: int = 0) -> "SimplexWeights":
        if scheme not in INIT_SCHEMES:
            raise ValidationError(f"unknown init scheme {scheme!r}")
        return cls.uniform(n) if scheme == "uniform" else cls.random(n, seed)

    def with_raw(self, raw: np.ndarray) -> "SimplexWeights":
        return SimplexWeights(raw)
