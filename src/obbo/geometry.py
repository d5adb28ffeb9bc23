"""Bregman geometry for the outer step: distance generators, composite
regularizers, feasible sets, the proximal map, and the generalized projection.

All prox problems handled here are coordinate-separable (Euclidean or
diagonal-quadratic generator, zero or L1 regularizer, full-space or box
constraint), so every operation has a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems.base import _all_finite, check_array, check_number

__all__ = [
    "DistanceGenerator",
    "Regularizer",
    "FeasibleSet",
    "prox_step",
    "generalized_projection",
]


@dataclass(frozen=True)
class DistanceGenerator:
    """Strongly convex generator of a Bregman divergence, held as its diagonal.

    ``diag`` None is the Euclidean phi(x) = ||x||^2 / 2 with modulus 1; a
    positive vector h is phi(x) = x' diag(h) x / 2, whose strong-convexity
    modulus ``rho`` is min(h).
    """

    diag: np.ndarray | None = None

    @staticmethod
    def euclidean() -> "DistanceGenerator":
        return DistanceGenerator()

    @staticmethod
    def diagonal(diag) -> "DistanceGenerator":
        diag = check_array("diag", diag, (None,))
        if np.any(diag <= 0):
            raise ValueError("diag entries must be strictly positive")
        return DistanceGenerator(diag)

    @property
    def rho(self) -> float:
        """Strong-convexity modulus: 1, or min(h) for a diagonal generator."""
        return 1.0 if self.diag is None else float(self.diag.min())

    def scaling(self, d: int) -> np.ndarray | float:
        """Coordinate scaling h with phi(x) = sum_i h_i x_i^2 / 2."""
        if self.diag is None:
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
        check_number("l1 weight", weight)
        return Regularizer(kind="l1", weight=float(weight))

    def __post_init__(self):
        if self.kind not in ("zero", "l1"):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")

    def value(self, x) -> float:
        if self.kind == "zero":
            return 0.0
        return self.weight * float(np.abs(check_array("x", x, (None,))).sum())


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
        lower = check_array("lower", lower, (None,))
        upper = check_array("upper", upper, lower.shape)
        if np.any(lower >= upper):
            raise ValueError("box requires lower < upper coordinate-wise")
        return FeasibleSet(kind="box", lower=lower, upper=upper)

    def __post_init__(self):
        if self.kind not in ("full", "box"):
            raise ValueError(f"unknown feasible set kind {self.kind!r}")

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if not _all_finite(x.ravel()):
            return False
        if self.kind == "full":
            return True
        if x.size != self.lower.size:
            return False
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def project(self, x) -> np.ndarray:
        x = check_array("x", x, (None,))
        return x if self.kind == "full" else np.clip(x, self.lower, self.upper)

    def center(self) -> np.ndarray | None:
        if self.kind == "full":
            return None
        return 0.5 * (self.lower + self.upper)


def _prox_inputs(q, u, alpha) -> tuple[np.ndarray, np.ndarray]:
    """The input guard ``prox_step`` and ``generalized_projection`` share."""
    q = check_array("q", q, (None,))
    u = check_array("u", u, q.shape)
    check_number("alpha", alpha, open_low=True)
    return q, u


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
    q, u = _prox_inputs(q, u, alpha)
    # u is a finite vector now, so it lies in the full space.
    if X.kind == "box" and not X.contains(u):
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
        q, _ = _prox_inputs(q, u, alpha)
        return q / phi.scaling(q.size)
    return (np.asarray(u, dtype=float) - prox_step(q, u, alpha, phi, h, X)) / alpha
