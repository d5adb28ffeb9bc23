"""Bregman geometry for the outer step: composite regularizers, feasible
sets, the proximal map, and the generalized projection.

The prox maps take the distance generator phi(x) = x' diag(h) x / 2 as its
positive diagonal h (``np.ones(d)`` is the Euclidean phi; min(h) is phi's
modulus). With a zero or L1 regularizer and a full-space or box constraint
every prox problem is coordinate-separable, so each has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems.base import _FLOAT64, _all_finite, check_array, check_number

__all__ = ["Regularizer", "FeasibleSet", "prox_step", "generalized_projection"]


@dataclass(frozen=True)
class Regularizer:
    """Convex, possibly nonsmooth, outer regularizer: zero or a weighted L1."""

    kind: str
    weight: float = 0.0

    @staticmethod
    def zero() -> "Regularizer":
        return Regularizer("zero")

    @staticmethod
    def l1(weight: float) -> "Regularizer":
        return Regularizer("l1", weight)

    def __post_init__(self):
        if self.kind not in ("zero", "l1"):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        check_number(f"{self.kind} weight", self.weight)
        if self.kind == "zero" and self.weight != 0:
            raise ValueError(f"the zero regularizer takes no weight, got {self.weight!r}")
        object.__setattr__(self, "weight", float(self.weight))

    def value(self, x) -> float:
        return self.weight * float(np.abs(check_array("x", x, (None,))).sum())


@dataclass(frozen=True)
class FeasibleSet:
    """Decision set for the outer variable: the full space or an axis box."""

    kind: str
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    @staticmethod
    def full_space() -> "FeasibleSet":
        return FeasibleSet("full")

    @staticmethod
    def box(lower, upper) -> "FeasibleSet":
        return FeasibleSet("box", lower, upper)

    def __post_init__(self):
        if self.kind not in ("full", "box"):
            raise ValueError(f"unknown feasible set kind {self.kind!r}")
        if self.kind == "full":
            if self.lower is not None or self.upper is not None:
                raise ValueError("the full space takes no bounds")
            return
        lower = check_array("lower", self.lower, (None,))
        upper = check_array("upper", self.upper, lower.shape)
        if np.any(lower >= upper):
            raise ValueError("box requires lower < upper coordinate-wise")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

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


def _prox_inputs(q, u, alpha, diag) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The input guard ``prox_step`` and ``generalized_projection`` share. Float64
    vectors of one shape and a positive finite float alpha are proved by one scan;
    other inputs, and any the scan fails, take the checks that name the fault."""
    if (type(alpha) is float and 0 < alpha < math.inf
            and type(q) is type(u) is type(diag) is np.ndarray
            and q.dtype is u.dtype is diag.dtype is _FLOAT64
            and len(q.shape) == 1 and q.shape == u.shape == diag.shape):
        d = diag.tolist()
        if all(map(math.isfinite, q.tolist() + u.tolist() + d)) and d and min(d) > 0:
            return q, u, diag
    q = check_array("q", q, (None,))
    u = check_array("u", u, q.shape)
    check_number("alpha", alpha, open_low=True)
    diag = check_array("diag", diag, q.shape)
    if q.size and min(diag.tolist()) <= 0:  # finite, so min sees numbers
        raise ValueError("diag entries must be strictly positive")
    return q, u, diag


def _soft_threshold(z: np.ndarray, tau) -> np.ndarray:
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


def prox_step(q, u, alpha: float, diag, h: Regularizer, X: FeasibleSet) -> np.ndarray:
    """Minimize <q, x> + h(x) + D_phi(x, u) / alpha over X, where
    phi(x) = x' diag(diag) x / 2 and ``diag`` is positive (ones: Euclidean).

    The objective is separable per coordinate, so the minimizer is computed in
    closed form: a gradient step in the diag-scaled metric, soft-thresholding
    for L1, then clamping to the box. Clamp-after-threshold is exact because
    each coordinate problem is convex in one variable.
    """
    q, u, diag = _prox_inputs(q, u, alpha, diag)
    # u is a finite vector now, so it lies in the full space.
    if X.kind == "box" and not X.contains(u):
        raise ValueError("reference point u lies outside the feasible set")
    z = u - alpha * q / diag
    if h.weight > 0:
        z = _soft_threshold(z, alpha * h.weight / diag)
    if X.kind == "box":
        z = np.clip(z, X.lower, X.upper)
    return z


def generalized_projection(u, q, alpha: float, diag, h: Regularizer, X: FeasibleSet) -> np.ndarray:
    """Scaled prox displacement (u - prox_step(q, u, alpha, diag, h, X)) / alpha.

    Acts as a stationarity surrogate for the composite constrained problem.
    Unconstrained and unregularized it reduces to q / diag (q itself for the
    Euclidean ones); that reduction is returned exactly.
    """
    if X.kind == "full" and h.weight == 0:
        q, _, diag = _prox_inputs(q, u, alpha, diag)
        return q / diag
    return (np.asarray(u, dtype=float) - prox_step(q, u, alpha, diag, h, X)) / alpha
