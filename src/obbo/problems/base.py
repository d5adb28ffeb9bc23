"""Time-indexed bilevel problem oracles.

A stream is a sequence of per-round oracle bundles. Each bundle exposes the
outer objective f_t, the first derivatives of f_t and of the strongly convex
inner objective g_t, and Hessian-vector products of g_t. Exact-solution oracles
(``inner_opt`` and ``exact_hypergradient``) are optional and reserved for
metrics and tests; solvers work from the gradient and HVP oracles alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ProblemInstant",
    "StochasticInstant",
    "DriftSpec",
    "StreamConfig",
    "Stream",
    "outer_grad_lipschitz",
]

Vector = np.ndarray
Scalar = float


@dataclass
class ProblemInstant:
    """Oracle bundle for one round.

    Gradient and HVP callables take (lam, beta) plus, for HVPs, the vector to
    multiply. ``hvp_g_lambdabeta(lam, beta, v)`` maps a d2-vector through the
    mixed second derivative of g into a d1-vector; ``hvp_g_betabeta`` stays in
    d2. ``mu_g`` and ``l_g1`` bound the spectrum of the inner Hessian.

    ``l_f1``, the smoothness constant of f, sets the default outer step
    through ``outer_grad_lipschitz``, whose bound holds only when g has
    constant second derivatives. A stream declares ``l_f1`` only then: the
    quadratic and meta streams do; the spline stream does not, because its
    cross Hessian 2 Omega beta depends on beta, so a spline run needs an
    explicit ``alpha``.
    """

    t: int
    d1: int
    d2: int
    f_value: Callable[[Vector, Vector], Scalar]
    grad_f_lambda: Callable[[Vector, Vector], Vector]
    grad_f_beta: Callable[[Vector, Vector], Vector]
    grad_g_beta: Callable[[Vector, Vector], Vector]
    hvp_g_lambdabeta: Callable[[Vector, Vector, Vector], Vector]
    hvp_g_betabeta: Callable[[Vector, Vector, Vector], Vector]
    mu_g: float
    l_g1: float
    inner_opt: Callable[[Vector], Vector] | None = None
    exact_hypergradient: Callable[[Vector], Vector] | None = None
    l_f1: float | None = None

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("time index starts at 1")
        if self.mu_g <= 0:
            raise ValueError("mu_g must be positive")
        if self.l_g1 < self.mu_g:
            raise ValueError("l_g1 must be at least mu_g")


@dataclass
class StochasticInstant(ProblemInstant):
    """Problem instant with sampled gradient oracles.

    The sampled gradients add Gaussian noise to the deterministic ones, so they
    are unbiased with E||sampled - exact||^2 = sigma^2 / s for a batch of s
    (``grad_g_beta_sampled(lam, beta, s, rng)``; the outer gradients take no
    batch, s = 1). At zero noise they return the deterministic values bit for
    bit and draw nothing. The Hessian-vector products stay exact.
    """

    sigma_g_beta: float = 0.0
    sigma_f: float = 0.0
    grad_g_beta_sampled: Callable[..., Vector] = field(init=False, repr=False)
    grad_f_lambda_sampled: Callable[..., Vector] = field(init=False, repr=False)
    grad_f_beta_sampled: Callable[..., Vector] = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        if self.sigma_g_beta < 0 or self.sigma_f < 0:
            raise ValueError("noise scales must be nonnegative")
        # The oracles the instant was built with: reassigning or wrapping a
        # deterministic field later does not reach the sampled ones.
        g_beta, f_lambda, f_beta = self.grad_g_beta, self.grad_f_lambda, self.grad_f_beta
        d1, d2, sigma_g, sigma_f = self.d1, self.d2, self.sigma_g_beta, self.sigma_f
        if sigma_g == 0.0:
            self.grad_g_beta_sampled = lambda lam, beta, s, rng: g_beta(lam, beta)
        else:

            def grad_g_beta_sampled(lam, beta, s, rng):
                xi = rng.standard_normal(d2) * (sigma_g / np.sqrt(d2 * s))
                return g_beta(lam, beta) + xi

            self.grad_g_beta_sampled = grad_g_beta_sampled
        if sigma_f == 0.0:
            self.grad_f_lambda_sampled = lambda lam, beta, rng: f_lambda(lam, beta)
            self.grad_f_beta_sampled = lambda lam, beta, rng: f_beta(lam, beta)
        else:
            scale_1, scale_2 = sigma_f / np.sqrt(d1), sigma_f / np.sqrt(d2)
            self.grad_f_lambda_sampled = (
                lambda lam, beta, rng: f_lambda(lam, beta) + rng.standard_normal(d1) * scale_1
            )
            self.grad_f_beta_sampled = (
                lambda lam, beta, rng: f_beta(lam, beta) + rng.standard_normal(d2) * scale_2
            )


Stream = Sequence[ProblemInstant]


@dataclass(frozen=True)
class DriftSpec:
    """How inner minimizers move over time.

    ``static`` keeps the round-t data fixed. ``decaying`` moves it by
    scale * t^(-rate) at the transition from round t to t+1. ``sublinear``
    moves it by scale * t^(rate-1) for rate < 1, so the cumulative path grows
    like T^rate: unbounded but slower than T.
    """

    kind: str = "static"
    rate: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("static", "decaying", "sublinear"):
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if self.kind == "decaying" and self.rate <= 0:
            raise ValueError("decaying drift requires rate > 0")
        if self.kind == "sublinear" and not 0.0 < self.rate < 1.0:
            raise ValueError("sublinear drift requires rate in (0, 1)")
        if self.scale < 0:
            raise ValueError("drift scale must be nonnegative")

    @staticmethod
    def static() -> "DriftSpec":
        return DriftSpec(kind="static")

    @staticmethod
    def decaying(rate: float = 1.0, scale: float = 1.0) -> "DriftSpec":
        return DriftSpec(kind="decaying", rate=rate, scale=scale)

    @staticmethod
    def sublinear(rate: float = 0.5, scale: float = 1.0) -> "DriftSpec":
        return DriftSpec(kind="sublinear", rate=rate, scale=scale)

    def step_size(self, t: int) -> float:
        """Drift step magnitude applied between rounds t and t+1 (t >= 1)."""
        if self.kind == "static":
            return 0.0
        if self.kind == "decaying":
            return self.scale * t ** (-self.rate)
        return self.scale * t ** (self.rate - 1.0)


@dataclass(frozen=True)
class StreamConfig:
    """Generator knobs for synthetic streams.

    ``kappa_target`` sets the inner Hessian condition number (and, for the
    quadratic stream, the axis-aligned anisotropy of the induced outer
    curvature). ``noise`` is (sigma_g_beta, sigma_f). ``cos_amplitude`` scales
    the bounded nonconvex perturbation of the outer objective; zero gives the
    convex instance.
    """

    d1: int
    d2: int
    T: int
    kappa_target: float = 10.0
    drift: DriftSpec = DriftSpec()
    noise: tuple[float, float] = (0.0, 0.0)
    seed: int = 0
    cos_amplitude: float = 0.5

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError("dimensions must be positive")
        if self.T < 1:
            raise ValueError("horizon must be positive")
        if self.kappa_target < 1.0:
            raise ValueError("kappa_target must be at least 1")
        if len(self.noise) != 2 or min(self.noise) < 0:
            raise ValueError("noise must be a nonnegative pair (sigma_g_beta, sigma_f)")
        if self.cos_amplitude < 0:
            raise ValueError("cos_amplitude must be nonnegative")


def outer_grad_lipschitz(mu_g: float, l_g1: float, l_f1: float) -> float:
    """Smoothness constant of the reparameterized outer objective.

    Combines the declared constants of f and g through the implicit solution
    map of an inner problem with constant second derivatives.
    """
    kappa = l_g1 / mu_g
    m_f = l_f1 * (1.0 + kappa)
    return m_f + m_f * kappa
