"""Exception hierarchy.

Two branches matter to callers: :class:`ValidationError` (bad inputs,
files, or configuration; CLI exit code 2) and :class:`NumericalError`
(a solver did not converge; CLI exit code 3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class TreemklError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TreemklError):
    """Input data, file, or configuration is invalid."""


class NumericalError(TreemklError):
    """A numerical procedure failed beyond its tolerances."""


# --- file formats -----------------------------------------------------------

class BadMagic(ValidationError):
    pass


class Truncated(ValidationError):
    pass


class TrailingData(ValidationError):
    pass


class NonFinite(ValidationError):
    pass


class ZeroFrames(ValidationError):
    pass


class ZeroDim(ValidationError):
    pass


# --- manifests and datasets -------------------------------------------------

class DuplicateId(ValidationError):
    pass


class UnknownLabel(ValidationError):
    pass


class MissingPath(ValidationError):
    pass


class SpecInvalid(ValidationError):
    pass


class ShiftTooLarge(ValidationError):
    pass


class TooFewVideos(ValidationError):
    pass


# --- numerics: shapes and domains -------------------------------------------

class ShapeMismatch(ValidationError):
    pass


class IdMismatch(ValidationError):
    pass


class InsufficientFrames(ValidationError):
    pass


class NotOnSimplex(ValidationError):
    pass


class DegenerateData(ValidationError):
    pass


class SingleClass(ValidationError):
    pass


# --- evaluation / CLI surfaces ----------------------------------------------

class MissingFeatures(ValidationError):
    pass


class ArtifactMismatch(ValidationError):
    pass


class ConfigMismatch(ValidationError):
    pass


class EmptySplit(ValidationError):
    pass


class NoRuns(ValidationError):
    pass


# --- numerical failures ------------------------------------------------------

class NotConverged(NumericalError):
    """Solver hit its iteration budget with the KKT residual above tolerance.

    Carries the best iterate so callers can inspect or salvage it.
    """

    def __init__(self, message: str, alpha: np.ndarray, b: float,
                 residual: float, updates: int):
        super().__init__(message)
        self.alpha = alpha
        self.b = b
        self.residual = residual
        self.updates = updates
