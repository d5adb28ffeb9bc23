"""Outer-loop optimizers over problem streams.

Every optimizer runs the round written once in ``_run``: estimate, clip the
window average on its squared norm, check it, step, check the new iterate
and the generator's diagonal, record. Two strategies vary. The estimate is
inner GD with the ITD or implicit estimator, the closed-form ``exact`` solve,
or inner SGD with the Neumann estimator, each averaged over a
``WindowBuffer``; OAGD re-evaluates the last w objectives at the current pair
instead. The step is a prox under the round's Euclidean or adaptive diagonal
generator, or an Adam/SGDM step plus projection.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .geometry import DistanceGenerator, FeasibleSet, Regularizer, prox_step
from .hypergrad import (
    DivergenceError,
    NeumannParams,
    WindowBuffer,
    implicit_hypergradient,
    inner_gd,
    inner_sgd,
    itd_hypergradient,
    stochastic_hypergradient,
)
from .problems.base import (
    ProblemInstant,
    StochasticInstant,
    Stream,
    outer_grad_lipschitz,
)

__all__ = [
    "ObboConfig",
    "SobboConfig",
    "RunTrace",
    "run_obbo",
    "run_sobbo",
    "run_oagd",
    "run_sobow",
    "run_single_level",
    "default_neumann_bound",
    "default_inner_step",
]

@dataclass
class ObboConfig:
    """Outer/inner step sizes, window, geometry mode, and initial iterates.

    ``alpha`` and ``eta`` may be left unset to derive conservative defaults
    from the stream's declared smoothness constants. ``estimator`` selects how
    per-round hypergradients are formed: ``itd`` (default) backpropagates the
    inner trajectory, ``implicit`` solves the inner Hessian system at the
    current pair, and ``exact`` uses the inner-solution oracle directly
    (closed-form mode, skips the inner loop).
    """

    alpha: float | None = None
    eta: float | None = None
    K: int | None = None
    w: int = 1
    phi_mode: str = "euclidean"
    adapt_beta: float = 0.9
    adapt_epsilon: float = 1e-8
    regularizer: Regularizer = field(default_factory=Regularizer.zero)
    feasible: FeasibleSet = field(default_factory=FeasibleSet.full_space)
    clip_threshold: float | None = None
    lambda0: np.ndarray | None = None
    beta0: np.ndarray | None = None
    estimator: str = "itd"

    def __post_init__(self):
        if self.w < 1:
            raise ValueError("window size must be at least 1")
        if self.K is not None and self.K < 1:
            raise ValueError("inner iteration count must be at least 1")
        if self.alpha is not None and self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.eta is not None and self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.phi_mode not in ("euclidean", "adaptive"):
            raise ValueError(f"unknown phi mode {self.phi_mode!r}")
        if not 0.0 < self.adapt_beta < 1.0:
            raise ValueError("adapt_beta must lie in (0, 1)")
        if self.adapt_epsilon <= 0:
            raise ValueError("adapt_epsilon must be positive")
        if self.clip_threshold is not None and self.clip_threshold <= 0:
            raise ValueError("clip threshold must be positive")
        if self.estimator not in ("itd", "implicit", "exact"):
            raise ValueError(f"unknown estimator {self.estimator!r}")


@dataclass
class SobboConfig(ObboConfig):
    """Stochastic variant: inner batch size s and Neumann bound m.

    Defaults follow the analysis-guided choices s = w and
    m = ceil(log(w) / log(1 / (1 - mu_g / l_g1))) + 1.
    """

    s: int | None = None
    m: int | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.s is not None and self.s < 1:
            raise ValueError("batch size s must be at least 1")
        if self.m is not None and self.m < 1:
            raise ValueError("Neumann bound m must be at least 1")


@dataclass
class RunTrace:
    """Per-round record of a run plus the terminal iterates.

    ``lambdas[t]`` is the iterate the round-t estimate was formed at;
    ``betas[t]`` is the final inner iterate handed to round t+1. ``smoothed``
    stores the window average after clipping, ``phi_diags`` the diagonal of
    the distance generator used for the round's step. ``s`` and ``m`` are the
    batch size and Neumann bound a stochastic run resolved (None otherwise).
    """

    lambdas: np.ndarray
    betas: np.ndarray
    estimates: np.ndarray
    smoothed: np.ndarray
    gen_proj_norm_sq: np.ndarray
    phi_diags: np.ndarray
    outer_loss: np.ndarray
    inner_residual: np.ndarray
    lambda_final: np.ndarray
    beta_final: np.ndarray
    alpha: float
    eta: float
    w: int
    config: ObboConfig
    s: int | None = None
    m: int | None = None

    @property
    def T(self) -> int:
        return self.lambdas.shape[0]


def default_neumann_bound(w: int, mu_g: float, l_g1: float) -> int:
    """Truncation bound matching the window size to the series contraction."""
    ratio = 1.0 - mu_g / l_g1
    if w <= 1 or ratio <= 0.0:
        return 1
    return int(math.ceil(math.log(w) / math.log(1.0 / ratio))) + 1


def default_inner_step(algorithm: str, mu_g: float, l_g1: float) -> float:
    """Inner step size when the config leaves ``eta`` unset.

    OAGD takes the contraction-optimal 2 / (l_g1 + mu_g); every other
    optimizer the conservative 1 / (2 l_g1).
    """
    if algorithm == "oagd":
        return 2.0 / (l_g1 + mu_g)
    return 1.0 / (2.0 * l_g1)


def _resolve_steps(
    stream: Stream, config: ObboConfig, algorithm: str
) -> tuple[float, float, int]:
    if len(stream) == 0:
        raise ValueError("empty stream")
    instant = stream[0]
    eta = config.eta
    if eta is None:
        eta = default_inner_step(algorithm, instant.mu_g, instant.l_g1)
    alpha = config.alpha
    if alpha is None:
        if instant.l_f1 is None:
            raise ValueError(
                "stream declares no outer smoothness constants; set alpha explicitly"
            )
        l_F1 = outer_grad_lipschitz(instant.mu_g, instant.l_g1, instant.l_f1)
        alpha = 3.0 / (8.0 * l_F1)
    K = config.K
    if K is None:
        K = 1 if algorithm == "oagd" else 10
    return alpha, eta, K


def _initial_iterates(
    stream: Stream, config: ObboConfig
) -> tuple[np.ndarray, np.ndarray]:
    d1, d2 = stream[0].d1, stream[0].d2
    if config.lambda0 is None:
        center = config.feasible.center()
        lam = np.zeros(d1) if center is None else center.copy()
    else:
        lam = np.asarray(config.lambda0, dtype=float).copy()
    if lam.shape != (d1,):
        raise ValueError(f"lambda0 must have shape ({d1},)")
    if not config.feasible.contains(lam):
        raise ValueError("lambda0 lies outside the feasible set")
    if config.beta0 is None:
        beta = np.zeros(d2)
    else:
        beta = np.asarray(config.beta0, dtype=float).copy()
    if beta.shape != (d2,):
        raise ValueError(f"beta0 must have shape ({d2},)")
    return lam, beta


def _clip(q: np.ndarray, threshold: float | None) -> np.ndarray:
    if threshold is None:
        return q
    norm_sq = float(q @ q)
    if norm_sq > threshold:
        return q * math.sqrt(threshold / norm_sq)
    return q


def _check_finite(name: str, x: np.ndarray, t: int) -> None:
    if not np.isfinite(x).all():
        raise DivergenceError(f"{name} became non-finite at t={t}; aborting run")


def _run(
    stream: Stream, config: ObboConfig, alpha: float, eta: float, estimate, step
) -> RunTrace:
    """The shared round, one pass over the stream.

    ``estimate(instant, lam, beta)`` returns (beta_next, raw estimate, window
    average); ``step(q, lam)`` returns (lam_next, the generator's diagonal).
    The rounds run with floating-point warnings ignored: the estimate, the
    iterate and the diagonal are checked every round, and the recorded
    per-round quantities once after the loop, so a finite run never records
    inf.
    """
    lam, beta = _initial_iterates(stream, config)
    T, d1, d2 = len(stream), lam.size, beta.size
    lambdas, estimates, smoothed, phi_diags = (np.empty((T, d1)) for _ in range(4))
    betas = np.empty((T, d2))
    gen_proj_norm_sq, outer_loss, inner_residual = (np.empty(T) for _ in range(3))

    with np.errstate(over="ignore", invalid="ignore"):
        for i, instant in enumerate(stream):
            beta_next, est, average = estimate(instant, lam, beta)
            q = _clip(average, config.clip_threshold)
            _check_finite("hypergradient estimate", q, instant.t)
            lam_next, phi_diags[i] = step(q, lam)
            _check_finite("outer iterate", lam_next, instant.t)
            _check_finite("adaptive diagonal", phi_diags[i], instant.t)
            lambdas[i], betas[i], estimates[i], smoothed[i] = lam, beta_next, est, q
            gen_proj_norm_sq[i] = (((lam - lam_next) / alpha) ** 2).sum()
            outer_loss[i] = instant.f_value(lam, beta_next)
            inner_residual[i] = np.linalg.norm(instant.grad_g_beta(lam, beta_next))
            lam, beta = lam_next, beta_next
    finite = np.isfinite((gen_proj_norm_sq, outer_loss, inner_residual)).all(axis=0)
    if not finite.all():
        t = stream[int(np.argmin(finite))].t
        raise DivergenceError(
            f"recorded round quantities became non-finite at t={t}; aborting run"
        )
    return RunTrace(
        lambdas=lambdas,
        betas=betas,
        estimates=estimates,
        smoothed=smoothed,
        gen_proj_norm_sq=gen_proj_norm_sq,
        phi_diags=phi_diags,
        outer_loss=outer_loss,
        inner_residual=inner_residual,
        lambda_final=lam,
        beta_final=beta,
        alpha=alpha,
        eta=eta,
        w=config.w,
        config=config,
    )


def _windowed(w: int, solve_and_estimate: Callable) -> Callable:
    """Push each round's estimate into a window buffer and return its average."""
    buffer = WindowBuffer(w)

    def estimate(instant, lam, beta):
        beta_next, est = solve_and_estimate(instant, lam, beta)
        buffer.push(est)
        return beta_next, est, buffer.average()

    return estimate


def _gd_estimate(config: ObboConfig, eta: float, K: int) -> Callable:
    """Inner GD plus the configured estimator, windowed.

    The ``exact`` estimator replaces inner GD by the closed-form inner solve.
    """
    mode = config.estimator

    def solve_and_estimate(instant, lam, beta):
        if mode == "exact":
            if instant.inner_opt is None:
                raise ValueError("exact estimator requires the inner_opt oracle")
            beta_next = instant.inner_opt(lam)
            return beta_next, implicit_hypergradient(instant, lam, beta_next)
        solve = inner_gd(instant, lam, beta, eta, K)
        if mode == "itd":
            return solve.final, itd_hypergradient(instant, lam, solve)
        return solve.final, implicit_hypergradient(instant, lam, solve.final)

    return _windowed(config.w, solve_and_estimate)


def _bregman_step(config: ObboConfig, alpha: float, d1: int) -> Callable:
    """Prox step under the round's Euclidean or adaptive diagonal generator.

    The adaptive diagonal is sqrt(avg) + eps, where avg is the running average
    of the squared steps q. It is positive, and only an overflowing average
    makes it non-finite, which ``_run`` rejects.
    """
    phi, diag = DistanceGenerator.euclidean(), np.ones(d1)
    adaptive = config.phi_mode == "adaptive"
    b, eps, avg = config.adapt_beta, config.adapt_epsilon, np.zeros(d1)

    def step(q, lam):
        nonlocal phi, diag, avg
        if adaptive:
            avg = b * avg + (1.0 - b) * q**2
            diag = np.sqrt(avg) + eps
            phi = DistanceGenerator("diagonal", diag, float(diag.min()))
        return prox_step(q, lam, alpha, phi, config.regularizer, config.feasible), diag

    return step


def run_obbo(stream: Stream, config: ObboConfig) -> RunTrace:
    """Deterministic online Bregman bilevel optimizer.

    Per round: warm-started inner gradient descent, a hypergradient estimate
    stored into the window buffer, the zero-padded window average (optionally
    clipped on its squared norm), and a proximal step under the round's
    distance generator. In ``exact`` estimator mode the inner loop is replaced
    by the closed-form inner solve.
    """
    alpha, eta, K = _resolve_steps(stream, config, "obbo")
    estimate = _gd_estimate(config, eta, K)
    step = _bregman_step(config, alpha, stream[0].d1)
    return _run(stream, config, alpha, eta, estimate, step)


def run_sobbo(
    stream: Stream, config: SobboConfig, rng: np.random.Generator
) -> RunTrace:
    """Stochastic online Bregman bilevel optimizer.

    Same skeleton as the deterministic loop with a batched stochastic inner
    solver and the randomized Neumann estimator evaluated at (lam_t, beta_{t+1}).
    Unset ``s`` and ``m`` resolve to s = w and ``default_neumann_bound``; the
    trace records the values used.
    """
    alpha, eta, K = _resolve_steps(stream, config, "sobbo")
    first = stream[0]
    if not isinstance(first, StochasticInstant):
        raise ValueError("stochastic optimizer requires a stochastic stream")
    s = config.s if config.s is not None else config.w
    m = config.m
    if m is None:
        m = default_neumann_bound(config.w, first.mu_g, first.l_g1)

    def solve_and_estimate(instant, lam, beta):
        beta_next = inner_sgd(instant, lam, beta, eta, K, s, rng).final
        params = NeumannParams(m=m, l_g1=instant.l_g1)
        est = stochastic_hypergradient(instant, lam, beta_next, params, rng)
        return beta_next, est

    estimate = _windowed(config.w, solve_and_estimate)
    step = _bregman_step(config, alpha, first.d1)
    return replace(_run(stream, config, alpha, eta, estimate, step), s=s, m=m)


def run_oagd(stream: Stream, config: ObboConfig) -> RunTrace:
    """Alternating gradient descent baseline with window re-evaluation.

    Keeps handles to the last w instants and re-evaluates their implicit
    hypergradient estimates at the current iterate pair every round (w oracle
    evaluations per step), then takes a Euclidean proximal step. Defaults to a
    single inner step with eta = 2 / (l_g1 + mu_g).
    """
    alpha, eta, K = _resolve_steps(stream, config, "oagd")
    window: deque[ProblemInstant] = deque(maxlen=config.w)

    def estimate(instant, lam, beta):
        beta_next = inner_gd(instant, lam, beta, eta, K).final
        window.append(instant)
        total = np.zeros(instant.d1)
        for past in window:
            est = implicit_hypergradient(past, lam, beta_next)
            total = total + est
        # The loop ends on the current instant, so est is this round's own.
        return beta_next, est, total / config.w

    step = _bregman_step(replace(config, phi_mode="euclidean"), alpha, stream[0].d1)
    return _run(stream, config, alpha, eta, estimate, step)


def run_sobow(stream: Stream, config: ObboConfig) -> RunTrace:
    """Window-averaging baseline: the Euclidean unconstrained reduction.

    Identical to ``run_obbo`` with the Euclidean generator, no regularizer,
    and the full space; the config is normalized to that restriction.
    """
    restricted = replace(
        config,
        phi_mode="euclidean",
        regularizer=Regularizer.zero(),
        feasible=FeasibleSet.full_space(),
    )
    return run_obbo(stream, restricted)


def run_single_level(stream: Stream, method: str, config: ObboConfig) -> RunTrace:
    """Adam or SGDM applied to the windowed hypergradient estimates.

    Uses the same inner solve / estimate / window pipeline as the bilevel
    loops, then takes the named first-order step and projects back onto the
    feasible set. Adam uses (0.9, 0.999, eps 1e-8); SGDM momentum 0.9.
    """
    if method not in ("adam", "sgdm"):
        raise ValueError(f"unknown single-level method {method!r}")
    alpha, eta, K = _resolve_steps(stream, config, "single")
    d1 = stream[0].d1
    beta1, beta2, eps_adam, momentum = 0.9, 0.999, 1e-8, 0.9
    m_state, v_state, ones = np.zeros(d1), np.zeros(d1), np.ones(d1)
    step_idx = 0

    def step(q, lam):
        nonlocal m_state, v_state, step_idx
        step_idx += 1
        if method == "adam":
            m_state = beta1 * m_state + (1.0 - beta1) * q
            v_state = beta2 * v_state + (1.0 - beta2) * q**2
            m_hat = m_state / (1.0 - beta1**step_idx)
            v_hat = v_state / (1.0 - beta2**step_idx)
            delta = m_hat / (np.sqrt(v_hat) + eps_adam)
        else:
            m_state = momentum * m_state + q
            delta = m_state
        return config.feasible.project(lam - alpha * delta), ones

    estimate = _gd_estimate(config, eta, K)
    return _run(stream, config, alpha, eta, estimate, step)
