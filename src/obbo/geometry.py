"""Bregman geometry for the outer step: distance generators, composite
regularizers, feasible sets, the proximal map, and the generalized projection.

All prox problems handled here are coordinate-separable (Euclidean or
diagonal-quadratic generator, zero or L1 regularizer, full-space or box
constraint), so every operation has a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DistanceGenerator",
    "Regularizer",
    "FeasibleSet",
    "prox_step",
    "generalized_projection",
]


def _as_vector(name: str, x, d: int | None = None) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {x.shape}")
    if d is not None and x.size != d:
        raise ValueError(f"{name} has length {x.size}, expected {d}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite entries")
    return x


@dataclass(frozen=True)
class DistanceGenerator:
    """Strongly convex generator of a Bregman divergence.

    ``euclidean`` is phi(x) = ||x||^2 / 2 with modulus 1. ``diagonal`` is
    phi(x) = x' diag(h) x / 2 for a positive vector h; its strong-convexity
    modulus ``rho`` is min(h).
    """

    kind: str
    diag: np.ndarray | None = None
    rho: float = 1.0

    @staticmethod
    def euclidean() -> "DistanceGenerator":
        return DistanceGenerator(kind="euclidean", diag=None, rho=1.0)

    @staticmethod
    def diagonal(diag) -> "DistanceGenerator":
        diag = _as_vector("diag", diag)
        if np.any(diag <= 0):
            raise ValueError("diag entries must be strictly positive")
        return DistanceGenerator(kind="diagonal", diag=diag, rho=float(diag.min()))

    def __post_init__(self):
        if self.kind not in ("euclidean", "diagonal"):
            raise ValueError(f"unknown distance generator kind {self.kind!r}")
        if self.kind == "diagonal" and self.diag is None:
            raise ValueError("diagonal generator requires a diag vector")

    def scaling(self, d: int) -> np.ndarray | float:
        """Coordinate scaling h with phi(x) = sum_i h_i x_i^2 / 2."""
        if self.kind == "euclidean":
            return 1.0
        if self.diag.size != d:
            raise ValueError(f"generator has dimension {self.diag.size}, expected {d}")
        return self.diag


@dataclass(frozen=True)
class Regularizer:
    """Convex, possibly nonsmooth, outer regularizer: zero or a weighted L1."""

    kind: str
    weight: float = 0.0

    @staticmethod
    def zero() -> "Regularizer":
        return Regularizer(kind="zero", weight=0.0)

    @staticmethod
    def l1(weight: float) -> "Regularizer":
        if weight < 0:
            raise ValueError("l1 weight must be nonnegative")
        return Regularizer(kind="l1", weight=float(weight))

    def __post_init__(self):
        if self.kind not in ("zero", "l1"):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")

    def value(self, x) -> float:
        if self.kind == "zero":
            return 0.0
        x = _as_vector("x", x)
        return self.weight * float(np.abs(x).sum())


@dataclass(frozen=True)
class FeasibleSet:
    """Decision set for the outer variable: the full space or an axis box."""

    kind: str
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    @staticmethod
    def full_space() -> "FeasibleSet":
        return FeasibleSet(kind="full")

    @staticmethod
    def box(lower, upper) -> "FeasibleSet":
        lower = _as_vector("lower", lower)
        upper = _as_vector("upper", upper, lower.size)
        if np.any(lower >= upper):
            raise ValueError("box requires lower < upper coordinate-wise")
        return FeasibleSet(kind="box", lower=lower, upper=upper)

    def __post_init__(self):
        if self.kind not in ("full", "box"):
            raise ValueError(f"unknown feasible set kind {self.kind!r}")

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            return False
        if self.kind == "full":
            return True
        if x.size != self.lower.size:
            return False
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def project(self, x) -> np.ndarray:
        x = _as_vector("x", x)
        if self.kind == "full":
            return x
        return np.clip(x, self.lower, self.upper)

    def center(self) -> np.ndarray | None:
        if self.kind == "full":
            return None
        return 0.5 * (self.lower + self.upper)


def _soft_threshold(z: np.ndarray, tau) -> np.ndarray:
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


def prox_step(
    q,
    u,
    alpha: float,
    phi: DistanceGenerator,
    h: Regularizer,
    X: FeasibleSet,
) -> np.ndarray:
    """Minimize <q, x> + h(x) + D_phi(x, u) / alpha over X.

    The objective is separable per coordinate, so the minimizer is computed in
    closed form: a gradient step in the h-scaled metric, soft-thresholding for
    L1, then clamping to the box. Clamp-after-threshold is exact because each
    coordinate problem is convex in one variable.
    """
    q = _as_vector("q", q)
    u = _as_vector("u", u, q.size)
    if not np.isfinite(alpha) or alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not X.contains(u):
        raise ValueError("reference point u lies outside the feasible set")
    scale = phi.scaling(q.size)
    z = u - alpha * q / scale
    if h.kind == "l1" and h.weight > 0:
        z = _soft_threshold(z, alpha * h.weight / scale)
    if X.kind == "box":
        z = np.clip(z, X.lower, X.upper)
    return z


def generalized_projection(
    u,
    q,
    alpha: float,
    phi: DistanceGenerator,
    h: Regularizer,
    X: FeasibleSet,
) -> np.ndarray:
    """Scaled prox displacement (u - prox(q, u, alpha)) / alpha.

    Acts as a stationarity surrogate for the composite constrained problem.
    Unconstrained and unregularized it reduces to q in the Euclidean case and
    to q / diag for a diagonal generator; that reduction is returned exactly.
    """
    if X.kind == "full" and (h.kind == "zero" or h.weight == 0):
        q = _as_vector("q", q)
        _as_vector("u", u, q.size)
        if not np.isfinite(alpha) or alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        return q / phi.scaling(q.size)
    return (np.asarray(u, dtype=float) - prox_step(q, u, alpha, phi, h, X)) / alpha
