"""Time-indexed bilevel problem oracles.

A stream is a sequence of per-round oracle bundles: the outer objective f_t,
the first derivatives of f_t and of the strongly convex inner objective g_t,
its Hessian-vector products and its inner Hessian. Each round is one
instance of a ``ProblemInstant`` subclass that holds the round's data and
defines the oracles as its methods. The exact-solution oracles
(``inner_opt`` and ``exact_hypergradient``) are required too, since every
regret metric needs them, but only metrics, tests and the ``exact``
estimator call them; solvers call the others. On ``QuadraticData`` inner GD,
ITD and the Neumann estimator run kernels instead, those of its stream's
``InnerQuadratic``, and a quadratic stream forms its regret rows.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

import numpy as np

__all__ = [
    "ProblemInstant",
    "DriftSpec",
    "Stream",
    "outer_grad_lipschitz",
]

Vector = np.ndarray
Scalar = float


# The oracles each ProblemInstant subclass defines as methods.
_ORACLES = ("f_value", "grad_f_lambda", "grad_f_beta", "grad_g_beta", "hvp_g_lambdabeta",
            "hvp_g_betabeta", "hess_g_betabeta", "inner_opt", "exact_hypergradient")


# ProblemInstant's sampled gradients, read through the class as methods. Each adds
# noise to its class's deterministic oracle; sigma itself is tested, not the scale,
# so a subnormal sigma still draws. The noise is scaled and summed in the array
# drawn; addition commutes, so the bits are those of g + xi.
def _sampled_g_beta(inst, lam, beta, s, rng):
    if inst.sigma_g_beta == 0.0:
        return type(inst).grad_g_beta(inst, lam, beta)
    xi = rng.standard_normal(inst.d2)
    xi *= inst.sigma_g_beta / math.sqrt(inst.d2 * s)
    xi += type(inst).grad_g_beta(inst, lam, beta)
    return xi


def _noisy(g, rng, n, sigma):
    if sigma == 0.0:
        return g
    xi = rng.standard_normal(n)
    xi *= sigma / math.sqrt(n)
    xi += g
    return xi


def _sampled_f_lambda(inst, lam, beta, rng):
    return _noisy(type(inst).grad_f_lambda(inst, lam, beta), rng, inst.d1, inst.sigma_f)


def _sampled_f_beta(inst, lam, beta, rng):
    return _noisy(type(inst).grad_f_beta(inst, lam, beta), rng, inst.d2, inst.sigma_f)


def _oracle_field():
    return field(default=None, init=False, repr=False)


@dataclass
class ProblemInstant:
    """Oracle bundle for one round: its constants, and nine oracle fields, None
    here, that each subclass (``@dataclass(eq=False, repr=False, kw_only=True)``)
    defines as methods over its round's data, its own fields, so an instant stores
    no callable. A subclass lacking one, or a bare ``ProblemInstant``, is a
    ``TypeError``; oracles call each other as ``type(self).<oracle>(self, ...)``.

    Gradient and HVP oracles take (lam, beta) plus, for HVPs, the vector to
    multiply. ``hvp_g_lambdabeta(lam, beta, v)`` maps a d2-vector through the
    mixed second derivative of g into a d1-vector; ``hvp_g_betabeta`` stays in
    d2. ``hess_g_betabeta(lam, beta)`` is its (d2, d2) matrix, which the
    implicit estimator solves with; the quadratic and meta streams' is read-only.
    Every shipped stream's g is quadratic in beta, so its Hessian ignores ``beta``;
    hand-built subclasses may use it. ``mu_g`` and ``l_g1`` bound the spectrum
    of the inner Hessian. They hold for every lam in ``lambda_box``, a pair
    (lower, upper) that bounds each coordinate, or everywhere when it is None:
    the spline stream declares its task's box, the quadratic and meta streams
    none, and a run's feasible set must lie inside it. ``inner_opt(lam)`` is
    the inner optimum and ``exact_hypergradient(lam)`` the true hypergradient.
    Ranges: integer (not bool) ``t >= 1``; finite ``0 < mu_g <= l_g1``,
    ``l_f1 > 0``, noise scales ``>= 0`` and a box's finite lower below its upper.

    ``l_f1``, the smoothness constant of f, sets the default outer step
    through ``outer_grad_lipschitz``, whose bound holds only when g has
    constant second derivatives. A stream declares ``l_f1`` only then: the
    quadratic and meta streams do; the spline stream does not, because its
    cross Hessian 2 Omega beta depends on beta, so a spline run needs an
    explicit ``alpha``.

    The sampled gradients are derived, not passed in. They add Gaussian noise
    of scale ``sigma_g_beta`` (inner) or ``sigma_f`` (outer) to the exact ones,
    so they are unbiased with E||sampled - exact||^2 = sigma^2 / s for a batch
    of s (``grad_g_beta_sampled(lam, beta, s, rng)``; the outer gradients take
    no batch, s = 1). A kind whose own sigma is 0.0, the default, returns the
    deterministic values bit for bit and draws nothing, so every stream runs
    the stochastic solvers. They are the class's methods, and call its
    oracles through the class: wrapping or reassigning an oracle field of an
    instant does not reach them, nor another oracle, and wrapping a sampled
    field wraps it on that instance. No HVP has a sampled form.

    On ``QuadraticData`` (b, c, amp, phases and ``inner``, the stream's record
    of A and Q that sets d1, d2, mu_g and l_g1), inner GD, ITD and the Neumann
    estimator run the kernels of the instant and its ``inner``, as the regret
    series of a ``QuadraticStream`` runs its ``regret_rows``; so wrapping or reassigning an
    instant's ``grad_g_beta``, ``f_value``, ``exact_hypergradient`` or an HVP
    field does not reach them. Noisy inner SGD, the implicit estimator and the
    other metrics call the fields.
    """

    t: int
    d1: int
    d2: int
    f_value: Callable[[Vector, Vector], Scalar] = _oracle_field()
    grad_f_lambda: Callable[[Vector, Vector], Vector] = _oracle_field()
    grad_f_beta: Callable[[Vector, Vector], Vector] = _oracle_field()
    grad_g_beta: Callable[[Vector, Vector], Vector] = _oracle_field()
    hvp_g_lambdabeta: Callable[[Vector, Vector, Vector], Vector] = _oracle_field()
    hvp_g_betabeta: Callable[[Vector, Vector, Vector], Vector] = _oracle_field()
    hess_g_betabeta: Callable[[Vector, Vector], np.ndarray] = _oracle_field()
    mu_g: float
    l_g1: float
    inner_opt: Callable[[Vector], Vector] = _oracle_field()
    exact_hypergradient: Callable[[Vector], Vector] = _oracle_field()
    l_f1: float | None = None
    sigma_g_beta: float = 0.0
    sigma_f: float = 0.0
    lambda_box: tuple[float, float] | None = None
    grad_g_beta_sampled: Callable = field(default=_sampled_g_beta, init=False, repr=False)
    grad_f_lambda_sampled: Callable = field(default=_sampled_f_lambda, init=False, repr=False)
    grad_f_beta_sampled: Callable = field(default=_sampled_f_beta, init=False, repr=False)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name in _ORACLES:
            if not callable(getattr(cls, name)):
                raise TypeError(f"instant class {cls.__name__} has no oracle {name!r}")

    def __post_init__(self):
        if type(self) is ProblemInstant:
            raise TypeError("ProblemInstant has no oracles: build an instance of a subclass")
        check_count("time index t", self.t)
        check_number("mu_g", self.mu_g, open_low=True)
        check_number("l_g1", self.l_g1, open_low=True)
        if self.l_g1 < self.mu_g:
            raise ValueError("l_g1 must be at least mu_g")
        if self.l_f1 is not None:
            check_number("l_f1", self.l_f1, open_low=True)
        if self.lambda_box is not None:
            low, high = self.lambda_box
            check_number("lambda_box lower", low, -math.inf, open_low=True)
            check_number("lambda_box upper", high, low, open_low=True)
        check_number("noise sigma_g_beta", self.sigma_g_beta)
        check_number("noise sigma_f", self.sigma_f)


# numpy's names looked up once
_INTEGERS, _BOOLS, _FLOAT64 = (int, np.integer), (bool, np.bool_), np.dtype(float)


def check_count(what: str, value, least: int = 1) -> None:
    """Raise ``TypeError`` unless ``value`` is a Python or numpy integer, and
    not a bool; raise ``ValueError`` when it is below ``least``."""
    if type(value) is bool or not isinstance(value, _INTEGERS):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{what} must be at least {least}, got {value!r}")


def check_number(what: str, value, low=0.0, high=math.inf, *, open_low=False) -> None:
    """Raise ``TypeError`` for a bool or a value that is not a real number, such
    as a str or None, and ``ValueError`` unless ``low <= value < high``
    (``low < value < high`` with ``open_low``), which NaN and +-inf fail (pass
    low -inf only with ``open_low``). A Python float takes one type test."""
    if type(value) is not float and (type(value) in _BOOLS or not isinstance(value, numbers.Real)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    if not (low < value < high if open_low else low <= value < high):
        if low == 0 and high == math.inf:
            span = f"be {'positive' if open_low else 'nonnegative'} and finite"
        else:
            span = f"lie in {'(' if open_low else '['}{low:g}, {high:g})"
        raise ValueError(f"{what} must {span}, got {value!r}")


def check_array(what: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a float64 array of ``shape``, where None takes any length. Raise
    ``TypeError`` for a bool entry or one that is not a real number, such as a str
    (only input other than a float ndarray is scanned), ``ValueError`` for another
    shape or a NaN or +-inf entry."""
    x = value
    if type(x) is not np.ndarray or x.dtype is not _FLOAT64:
        if type(x) is not np.ndarray or x.dtype.kind != "f":
            for e in np.asarray(x, dtype=object).flat:
                if type(e) in _BOOLS or not isinstance(e, numbers.Real):
                    kind = "numbers, not bools" if type(e) in _BOOLS else "real numbers"
                    raise TypeError(f"{what} must hold {kind}, got {value!r}")
        x = np.asarray(x, dtype=float)
    dims = x.shape  # an all-None shape, the common one, fixes only the dimension count
    if dims != shape and (len(dims) != len(shape) or shape.count(None) < len(shape) and any(
            n is not None and n != m for n, m in zip(shape, dims))):
        raise ValueError(f"{what} must have shape {str(shape).replace('None', 'n')}, got {dims}")
    if not _all_finite(x if len(dims) == 1 else x.ravel()):
        raise ValueError(f"{what} must have finite entries")
    return x


def _all_finite(x: np.ndarray) -> bool:
    """``np.isfinite(x).all()`` of a float vector, exact, without numpy's dispatch."""
    return all(map(math.isfinite, x.tolist()))


Stream = Sequence[ProblemInstant]


@dataclass(frozen=True)
class DriftSpec:
    """How inner minimizers move over time.

    ``static`` keeps the round-t data fixed and takes no rate or scale.
    ``decaying`` moves it by scale * t^(-rate) at the transition from round t
    to t+1. ``sublinear`` moves it by scale * t^(rate-1) for rate < 1, so the
    cumulative path grows like T^rate: unbounded but slower than T. An unset
    rate takes its kind's entry in ``RATES`` and an unset scale is 1.
    """

    RATES: ClassVar[dict] = {"static": None, "decaying": 1.0, "sublinear": 0.5}

    kind: str = "static"
    rate: float | None = None
    scale: float | None = None

    def __post_init__(self):
        if self.kind not in self.RATES:
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if self.kind == "static":
            if self.rate is not None or self.scale is not None:
                raise ValueError("static drift takes no rate or scale")
            return
        if self.rate is None:
            object.__setattr__(self, "rate", self.RATES[self.kind])
        if self.scale is None:
            object.__setattr__(self, "scale", 1.0)
        high = 1.0 if self.kind == "sublinear" else math.inf
        check_number(f"{self.kind} drift rate", self.rate, high=high, open_low=True)
        check_number("drift scale", self.scale)

    @staticmethod
    def static() -> "DriftSpec":
        return DriftSpec()

    @staticmethod
    def decaying(rate=None, scale=None) -> "DriftSpec":
        return DriftSpec("decaying", rate, scale)

    @staticmethod
    def sublinear(rate=None, scale=None) -> "DriftSpec":
        return DriftSpec("sublinear", rate, scale)

    def step_size(self, t: int) -> float:
        """Drift step magnitude applied between rounds t and t+1 (t >= 1)."""
        if self.kind == "static":
            return 0.0
        if self.kind == "decaying":
            return self.scale * t ** (-self.rate)
        return self.scale * t ** (self.rate - 1.0)


def outer_grad_lipschitz(mu_g: float, l_g1: float, l_f1: float) -> float:
    """Smoothness constant of the reparameterized outer objective.

    Combines the declared constants of f and g through the implicit solution
    map of an inner problem with constant second derivatives.
    """
    kappa = l_g1 / mu_g
    m_f = l_f1 * (1.0 + kappa)
    return m_f + m_f * kappa
