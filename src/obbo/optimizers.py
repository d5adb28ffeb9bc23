"""Outer-loop optimizers over problem streams.

Every optimizer runs the round written once in ``_run``: estimate, clip the
window average on its squared norm, check it, step (an adaptive step checks
its diagonal first), check the new iterate, record. Two strategies vary. The
estimate is inner GD with the ITD or implicit estimator, the closed-form
``exact`` solve, or inner SGD with the Neumann estimator, each averaged over a
``WindowBuffer``; OAGD re-evaluates the last w objectives at the current pair
instead. The step is a prox under the round's Euclidean or adaptive diagonal
generator, or an Adam/SGDM step plus projection.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, ClassVar

import numpy as np

from .geometry import FeasibleSet, Regularizer, prox_step
from .hypergrad import (
    DivergenceError,
    WindowBuffer,
    implicit_hypergradient,
    inner_gd,
    inner_sgd,
    itd_hypergradient,
    stochastic_hypergradient,
)
from .problems.base import (ProblemInstant, Stream, _all_finite, check_array, check_count,
                            check_number, outer_grad_lipschitz)

__all__ = [
    "CONFIGS",
    "Euclidean",
    "Adaptive",
    "StepConfig",
    "ObboConfig",
    "SobboConfig",
    "OagdConfig",
    "SobowConfig",
    "SingleLevelConfig",
    "RunTrace",
    "run_obbo",
    "run_sobbo",
    "run_oagd",
    "run_sobow",
    "run_single_level",
    "default_neumann_bound",
    "eta_bound",
    "alpha_bound",
]

@dataclass(frozen=True)
class Euclidean:
    """The generator ||x||^2 / 2 on every round."""


@dataclass(frozen=True)
class Adaptive:
    """The round's diagonal generator sqrt(avg) + epsilon, where avg is the
    running average of the squared steps with weight ``beta`` on the past."""

    beta: float = 0.9
    epsilon: float = 1e-8

    def __post_init__(self):
        check_number("adaptive beta", self.beta, high=1.0, open_low=True)
        check_number("adaptive epsilon", self.epsilon, open_low=True)


@dataclass
class StepConfig:
    """The fields every optimizer reads. An unset ``alpha`` or ``eta`` is
    derived from the stream's declared smoothness constants. Ranges: integer
    (not bool) ``w`` and ``K >= 1``; finite ``alpha``, ``eta``, ``clip_threshold > 0``;
    finite vectors ``lambda0`` and ``beta0``, whose lengths the run checks.

    Each kind's config adds the fields its run reads. What a kind fixes is a
    class constant, read like a field: the Euclidean generator, no
    regularizer and the full space.
    """

    alpha: float | None = None
    eta: float | None = None
    K: int | None = None
    w: int = 1
    clip_threshold: float | None = None
    lambda0: np.ndarray | None = None
    beta0: np.ndarray | None = None

    phi: ClassVar[Euclidean | Adaptive] = Euclidean()
    regularizer: ClassVar[Regularizer] = Regularizer.zero()
    feasible: ClassVar[FeasibleSet] = FeasibleSet.full_space()

    def __post_init__(self):
        check_count("window size", self.w)
        if self.K is not None:
            check_count("inner iteration count", self.K)
        for what, value in (("alpha", self.alpha), ("eta", self.eta),
                            ("clip threshold", self.clip_threshold)):
            if value is not None:
                check_number(what, value, open_low=True)
        for what, value in (("lambda0", self.lambda0), ("beta0", self.beta0)):
            if value is not None:
                check_array(what, value, (None,))
        if not isinstance(self.phi, (Euclidean, Adaptive)):
            raise TypeError(f"phi must be Euclidean() or Adaptive(...), got {self.phi!r}")
        # Only the kinds that read an estimator have the field.
        estimator = getattr(self, "estimator", "itd")
        if estimator not in ("itd", "implicit", "exact"):
            raise ValueError(f"unknown estimator {estimator!r}")


@dataclass
class ObboConfig(StepConfig):
    """OBBO. ``estimator`` is ``itd`` (backpropagate the inner trajectory),
    ``implicit`` (solve the inner Hessian system at the current pair) or
    ``exact`` (the closed-form inner solution, which skips the inner loop)."""

    phi: Euclidean | Adaptive = StepConfig.phi
    regularizer: Regularizer = StepConfig.regularizer
    feasible: FeasibleSet = StepConfig.feasible
    estimator: str = "itd"


@dataclass
class SobboConfig(StepConfig):
    """SOBBO: inner batch size s and Neumann bound m, by default s = w and
    m = ceil(log(w) / log(1 / (1 - mu_g / l_g1))) + 1."""

    phi: Euclidean | Adaptive = StepConfig.phi
    regularizer: Regularizer = StepConfig.regularizer
    feasible: FeasibleSet = StepConfig.feasible
    s: int | None = None
    m: int | None = None

    def __post_init__(self):
        super().__post_init__()
        for what, value in (("batch size s", self.s), ("Neumann bound m", self.m)):
            if value is not None:
                check_count(what, value)


@dataclass
class OagdConfig(StepConfig):
    """OAGD: Euclidean steps, the implicit estimator at every window pair."""

    regularizer: Regularizer = StepConfig.regularizer
    feasible: FeasibleSet = StepConfig.feasible


@dataclass
class SobowConfig(StepConfig):
    """SOBOW: the Euclidean, unregularized, unconstrained reduction of OBBO."""

    estimator: str = "itd"


@dataclass
class SingleLevelConfig(StepConfig):
    """Adam and SGDM: a first-order step, projected onto the feasible set."""

    regularizer: Regularizer = StepConfig.regularizer
    feasible: FeasibleSet = StepConfig.feasible
    estimator: str = "itd"


# The config of each optimizer kind.
CONFIGS = {
    "obbo": ObboConfig,
    "sobbo": SobboConfig,
    "oagd": OagdConfig,
    "sobow": SobowConfig,
    **dict.fromkeys(("adam", "sgdm"), SingleLevelConfig),
}


@dataclass
class RunTrace:
    """What the round loop produced: per-round rows plus the last outer iterate.

    ``lambdas[t]`` is the iterate the round-t estimate was formed at;
    ``betas[t]`` is the final inner iterate handed to round t+1, so
    ``betas[-1]`` is the run's last. ``smoothed`` stores the window average
    after clipping, ``phi_diags`` the positive diagonal of the distance
    generator the round's step took (ones for a Euclidean run), as
    ``prox_step`` and ``generalized_projection`` take it. ``config`` is the
    config the run resolved: its alpha, eta and K (and a stochastic run's s
    and m) hold the values used.
    """

    lambdas: np.ndarray
    betas: np.ndarray
    estimates: np.ndarray
    smoothed: np.ndarray
    phi_diags: np.ndarray
    lambda_final: np.ndarray
    config: StepConfig

    @property
    def T(self) -> int:
        return self.lambdas.shape[0]


# The largest Neumann bound m a SOBBO run takes: above it a round averages 50,000
# HVPs or more, and the quadratic kernel caches as many (d1, d2) matrices as m.
MAX_NEUMANN_BOUND = 100_000


def default_neumann_bound(w: int, mu_g: float, l_g1: float) -> int:
    """Truncation bound matching the window size to the series contraction;
    where ``1 - mu_g / l_g1`` rounds to 1, far above ``MAX_NEUMANN_BOUND``."""
    ratio = 1.0 - mu_g / l_g1
    if w <= 1 or ratio <= 0.0:
        return 1
    if ratio == 1.0:  # the true log(1 / ratio), -log1p(-mu_g / l_g1), is mu_g / l_g1
        return int(min(math.log(w) * l_g1 / mu_g, 1e18)) + 1
    return int(math.ceil(math.log(w) / math.log(1.0 / ratio))) + 1


def eta_bound(mu_g: float, l_g1: float) -> float:
    """The largest inner step SOBBO's and OAGD's guarantees allow,
    2 / (l_g1 + mu_g): the contraction-optimal GD step, OAGD's default eta."""
    return 2.0 / (l_g1 + mu_g)


def alpha_bound(mu_g: float, l_g1: float, l_f1: float) -> float:
    """The largest outer step the regret guarantee allows at modulus rho = 1,
    3 / (4 l_F1); an unset alpha takes half of it."""
    return 3.0 / (4.0 * outer_grad_lipschitz(mu_g, l_g1, l_f1))


def _resolve_steps(stream: Stream, config: StepConfig, kind: str) -> StepConfig:
    """``config`` with alpha, eta and K (and SOBBO's s and m) filled in for
    ``kind``; a config of another kind raises ``TypeError``.

    Unset, alpha is half of ``alpha_bound``. OAGD takes eta = ``eta_bound``
    and K = 1; every other optimizer the conservative 1 / (2 l_g1) and K = 10.
    SOBBO takes s = w and m = ``default_neumann_bound``; an m, set or default,
    above ``MAX_NEUMANN_BOUND`` raises ``ValueError``.
    """
    expected = CONFIGS[kind]
    if not isinstance(config, expected):
        raise TypeError(f"{kind} takes a {expected.__name__}, got a {type(config).__name__}")
    if len(stream) == 0:
        raise ValueError("empty stream")
    instant = stream[0]
    mu_g, l_g1 = instant.mu_g, instant.l_g1
    eta = config.eta
    if eta is None:
        eta = eta_bound(mu_g, l_g1) if kind == "oagd" else 1.0 / (2.0 * l_g1)
    alpha = config.alpha
    if alpha is None:
        if instant.l_f1 is None:
            raise ValueError("stream declares no outer smoothness constants; set alpha explicitly")
        alpha = alpha_bound(mu_g, l_g1, instant.l_f1) / 2
    K = config.K
    if K is None:
        K = 1 if kind == "oagd" else 10
    if kind == "sobbo":
        m = default_neumann_bound(config.w, mu_g, l_g1) if config.m is None else config.m
        if m > MAX_NEUMANN_BOUND:
            raise ValueError(f"Neumann bound m={m} exceeds {MAX_NEUMANN_BOUND} at "
                             f"l_g1/mu_g = {l_g1 / mu_g:.3g}; set a smaller m")
        return replace(config, alpha=alpha, eta=eta, K=K, s=config.s or config.w, m=m)
    return replace(config, alpha=alpha, eta=eta, K=K)


def _initial_iterates(stream: Stream, config: StepConfig) -> tuple[np.ndarray, np.ndarray]:
    d1, d2, box, X = stream[0].d1, stream[0].d2, stream[0].lambda_box, config.feasible
    if X.kind == "box":  # upper has the shape of lower
        check_array("box bounds", X.lower, (d1,))
    if box is not None and (X.kind == "full" or X.lower.min() < box[0] or X.upper.max() > box[1]):
        raise ValueError(f"the feasible set must lie inside the lambda box [{box[0]:g}, "
                         f"{box[1]:g}], where the stream's mu_g and l_g1 hold")
    lam = X.center() if config.lambda0 is None else config.lambda0
    lam = np.zeros(d1) if lam is None else check_array("lambda0", lam, (d1,)).copy()
    if not X.contains(lam):
        raise ValueError("lambda0 lies outside the feasible set")
    beta = config.beta0
    return lam, np.zeros(d2) if beta is None else check_array("beta0", beta, (d2,)).copy()


def _clip(q: np.ndarray, threshold: float | None) -> np.ndarray:
    """q scaled down to squared norm ``threshold`` when its own is larger; a
    finite q whose square overflows is divided by its largest entry first."""
    if threshold is None:
        return q
    norm_sq = float(q.dot(q))
    if not norm_sq > threshold:
        return q
    if norm_sq == math.inf and _all_finite(q):
        q = q / np.abs(q).max()
        norm_sq = float(q.dot(q))
    return q * math.sqrt(threshold / norm_sq)


def _check_finite(name: str, x: np.ndarray, t: int) -> None:
    if not _all_finite(x):
        raise DivergenceError(f"{name} became non-finite at t={t}; aborting run")


def _run(stream: Stream, config: StepConfig, estimate, step) -> RunTrace:
    """The shared round, one pass over the stream, under a resolved ``config``.

    ``estimate(instant, lam, beta)`` returns (beta_next, raw estimate, window
    average); ``step(q, lam, t)`` returns (lam_next, the generator's diagonal).
    The rounds run with floating-point warnings ignored: the estimate and the
    iterate are checked here every round, an adaptive diagonal by its step.
    The loop only solves; ``obbo.metrics.compute_regret_series`` forms the
    records the runner writes.
    """
    lam, beta = _initial_iterates(stream, config)
    T, d1, d2 = len(stream), lam.size, beta.size
    lambdas, estimates, smoothed, phi_diags = (np.empty((T, d1)) for _ in range(4))
    betas = np.empty((T, d2))

    with np.errstate(over="ignore", invalid="ignore"):
        for i, instant in enumerate(stream):
            beta_next, est, average = estimate(instant, lam, beta)
            q = _clip(average, config.clip_threshold)
            _check_finite("hypergradient estimate", q, instant.t)
            lam_next, phi_diags[i] = step(q, lam, instant.t)
            _check_finite("outer iterate", lam_next, instant.t)
            lambdas[i], betas[i], estimates[i], smoothed[i] = lam, beta_next, est, q
            lam, beta = lam_next, beta_next
    return RunTrace(lambdas=lambdas, betas=betas, estimates=estimates, smoothed=smoothed,
                    phi_diags=phi_diags, lambda_final=lam, config=config)


def _windowed(w: int, solve_and_estimate: Callable) -> Callable:
    """Push each round's estimate into a window buffer and return its average."""
    buffer = WindowBuffer(w)

    def estimate(instant, lam, beta):
        beta_next, est = solve_and_estimate(instant, lam, beta)
        buffer.push(est)
        return beta_next, est, buffer.average()

    return estimate


def _gd_estimate(config: StepConfig) -> Callable:
    """Inner GD plus the configured estimator, windowed.

    The ``exact`` estimator replaces inner GD by the closed-form inner solve.
    """
    mode, eta, K = config.estimator, config.eta, config.K

    def solve_and_estimate(instant, lam, beta):
        if mode == "exact":
            beta_next = instant.inner_opt(lam)
            return beta_next, implicit_hypergradient(instant, lam, beta_next)
        solve = inner_gd(instant, lam, beta, eta, K)
        if mode == "itd":
            return solve.final, itd_hypergradient(instant, lam, solve)
        return solve.final, implicit_hypergradient(instant, lam, solve.final)

    return _windowed(config.w, solve_and_estimate)


def _bregman_step(config: StepConfig, d1: int) -> Callable:
    """Prox step under the round's Euclidean or adaptive diagonal generator.

    The adaptive diagonal is sqrt(avg) + eps, where avg is the running average
    of the squared steps q. It is positive, and only an overflowing average
    makes it non-finite, which aborts the run before its prox step. Both are
    updated in place, with beta, 1 - beta and eps as vectors, so the diagonal
    returned is the same buffer every round. The Euclidean diagonal is ones.
    """
    diag, avg = np.ones(d1), np.zeros(d1)
    gen, alpha = config.phi, config.alpha
    adaptive = isinstance(gen, Adaptive)
    if adaptive:
        past, new, eps = (np.full(d1, x) for x in (gen.beta, 1.0 - gen.beta, gen.epsilon))
        sq = np.empty(d1)

    def step(q, lam, t):
        if adaptive:
            np.multiply(past, avg, avg)
            np.multiply(new, np.square(q, sq), sq)
            np.add(avg, sq, avg)
            np.add(np.sqrt(avg, diag), eps, diag)
            _check_finite("adaptive diagonal", diag, t)
        return prox_step(q, lam, alpha, diag, config.regularizer, config.feasible), diag

    return step


def run_obbo(stream: Stream, config: ObboConfig) -> RunTrace:
    """Deterministic online Bregman bilevel optimizer.

    Per round: warm-started inner gradient descent, a hypergradient estimate
    stored into the window buffer, the zero-padded window average (optionally
    clipped on its squared norm), and a proximal step under the round's
    distance generator. In ``exact`` estimator mode the inner loop is replaced
    by the closed-form inner solve.
    """
    return _windowed_bregman(stream, config, "obbo")


def _windowed_bregman(stream: Stream, config: StepConfig, kind: str) -> RunTrace:
    config = _resolve_steps(stream, config, kind)
    step = _bregman_step(config, stream[0].d1)
    return _run(stream, config, _gd_estimate(config), step)


def run_sobbo(stream: Stream, config: SobboConfig, rng: np.random.Generator) -> RunTrace:
    """Stochastic online Bregman bilevel optimizer.

    Same skeleton as the deterministic loop with a batched stochastic inner
    solver and the randomized Neumann estimator evaluated at (lam_t, beta_{t+1}).
    Unset ``s`` and ``m`` resolve to s = w and ``default_neumann_bound``; the
    trace's config records the values used.
    """
    config = _resolve_steps(stream, config, "sobbo")
    eta, K, s, m = config.eta, config.K, config.s, config.m

    def solve_and_estimate(instant, lam, beta):
        beta_next = inner_sgd(instant, lam, beta, eta, K, s, rng).final
        est = stochastic_hypergradient(instant, lam, beta_next, m, rng)
        return beta_next, est

    estimate = _windowed(config.w, solve_and_estimate)
    return _run(stream, config, estimate, _bregman_step(config, stream[0].d1))


def run_oagd(stream: Stream, config: OagdConfig) -> RunTrace:
    """Alternating gradient descent baseline with window re-evaluation.

    Keeps handles to the last w instants and re-evaluates their implicit
    hypergradient estimates at the current iterate pair every round (w oracle
    evaluations per step), then takes a Euclidean proximal step. Defaults to a
    single inner step with eta = 2 / (l_g1 + mu_g).
    """
    config = _resolve_steps(stream, config, "oagd")
    eta, K = config.eta, config.K
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

    return _run(stream, config, estimate, _bregman_step(config, stream[0].d1))


def run_sobow(stream: Stream, config: SobowConfig) -> RunTrace:
    """Window-averaging baseline: the Euclidean unconstrained reduction.

    Identical to ``run_obbo`` with the Euclidean generator, no regularizer,
    and the full space, which ``SobowConfig`` fixes.
    """
    return _windowed_bregman(stream, config, "sobow")


def run_single_level(stream: Stream, method: str, config: SingleLevelConfig) -> RunTrace:
    """Adam or SGDM applied to the windowed hypergradient estimates.

    Uses the same inner solve / estimate / window pipeline as the bilevel
    loops, then takes the named first-order step and projects back onto the
    feasible set. Adam uses (0.9, 0.999, eps 1e-8); SGDM momentum 0.9.
    """
    if method not in ("adam", "sgdm"):
        raise ValueError(f"unknown single-level method {method!r}")
    config = _resolve_steps(stream, config, method)
    alpha, d1 = config.alpha, stream[0].d1
    beta1, beta2, eps_adam, momentum = 0.9, 0.999, 1e-8, 0.9
    m_state, v_state, ones = np.zeros(d1), np.zeros(d1), np.ones(d1)
    step_idx = 0

    def step(q, lam, t):
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

    return _run(stream, config, _gd_estimate(config), step)
