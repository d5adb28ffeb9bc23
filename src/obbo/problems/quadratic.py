"""Synthetic time-varying quadratic bilevel stream with closed-form oracles.

Round t couples a strongly convex quadratic inner objective

    g_t(lam, beta) = (beta - A lam - b_t)' Q (beta - A lam - b_t) / 2

with an outer objective

    f_t(lam, beta) = ||beta - c_t||^2 / 2 + amp * sum_i cos(lam_i + phase_i).

The inner minimizer is beta_hat_t(lam) = A lam + b_t, so the induced outer
objective and its gradient are available in closed form, and drift in b_t and
c_t moves the comparator sequence at a configurable rate. Every quantity is a
deterministic function of the seed.
"""

from __future__ import annotations

import numpy as np

from .base import ProblemInstant, StochasticInstant, StreamConfig

__all__ = ["quadratic_instant", "quadratic_stream"]


def quadratic_instant(
    t: int,
    A,
    b,
    Q,
    c,
    amp: float = 0.0,
    phases=None,
    noise: tuple[float, float] = (0.0, 0.0),
    stochastic: bool = False,
) -> ProblemInstant:
    """Build a single quadratic bilevel instant from explicit data.

    A is (d2, d1), Q a symmetric positive definite (d2, d2) matrix, b and c
    are d2-vectors, and phases (optional) a d1-vector for the cosine term.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    d2, d1 = A.shape
    if Q.shape != (d2, d2) or b.shape != (d2,) or c.shape != (d2,):
        raise ValueError("inconsistent quadratic instant dimensions")
    phases = np.zeros(d1) if phases is None else np.asarray(phases, dtype=float)
    if phases.shape != (d1,):
        raise ValueError("phases must have length d1")
    mu_g, l_g1 = _spectrum_bounds(Q)
    return _build_instant(t, A, b, Q, c, amp, phases, noise, stochastic, mu_g, l_g1)


def _spectrum_bounds(Q: np.ndarray) -> tuple[float, float]:
    """(mu_g, l_g1) of a symmetric positive definite Q; rejects any other Q."""
    if not np.allclose(Q, Q.T):
        raise ValueError("Q must be symmetric")
    evals = np.linalg.eigvalsh(Q)
    mu_g, l_g1 = float(evals[0]), float(evals[-1])
    if mu_g <= 0:
        raise ValueError("Q must be positive definite")
    return mu_g, l_g1


def _build_instant(
    t: int,
    A: np.ndarray,
    b: np.ndarray,
    Q: np.ndarray,
    c: np.ndarray,
    amp: float,
    phases: np.ndarray,
    noise: tuple[float, float],
    stochastic: bool,
    mu_g: float,
    l_g1: float,
) -> ProblemInstant:
    """The oracle bundle for validated data and the spectrum bounds of Q.

    Each oracle is one flat closure over the data, and ``-A'`` is formed
    once (negation is exact, so the products match ``-A.T @ x`` bit for
    bit). A noisy or ``stochastic`` instant gets its sampled gradients from
    ``StochasticInstant``.
    """
    d2, d1 = A.shape
    At = A.T
    neg_At = -At
    neg_amp = -amp

    def f_value(lam, beta):
        return 0.5 * float(((beta - c) ** 2).sum()) + amp * float(
            np.cos(lam + phases).sum()
        )

    def grad_f_lambda(lam, beta):
        return neg_amp * np.sin(lam + phases)

    def grad_f_beta(lam, beta):
        return beta - c

    def grad_g_beta(lam, beta):
        return Q @ (beta - A @ lam - b)

    def hvp_g_lambdabeta(lam, beta, v):
        return neg_At @ (Q @ v)

    def hvp_g_betabeta(lam, beta, v):
        return Q @ v

    def inner_opt(lam):
        return A @ lam + b

    def exact_hypergradient(lam):
        return neg_amp * np.sin(lam + phases) + At @ (A @ lam + b - c)

    common = dict(
        t=t,
        d1=d1,
        d2=d2,
        f_value=f_value,
        grad_f_lambda=grad_f_lambda,
        grad_f_beta=grad_f_beta,
        grad_g_beta=grad_g_beta,
        hvp_g_lambdabeta=hvp_g_lambdabeta,
        hvp_g_betabeta=hvp_g_betabeta,
        mu_g=mu_g,
        l_g1=l_g1,
        inner_opt=inner_opt,
        exact_hypergradient=exact_hypergradient,
        l_f1=max(1.0, amp),
    )

    sigma_g, sigma_f = float(noise[0]), float(noise[1])
    if not stochastic and sigma_g == 0.0 and sigma_f == 0.0:
        return ProblemInstant(**common)
    return StochasticInstant(**common, sigma_g_beta=sigma_g, sigma_f=sigma_f)


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((rows, max(rows, cols))))
    return q[:, :cols]


def quadratic_stream(
    config: StreamConfig, stochastic: bool | None = None
) -> list[ProblemInstant]:
    """Generate the full sequence of quadratic instants for a config.

    The inner Hessian Q has spectrum geomspace(1, kappa_target, d2). The
    coupling A = V diag(s) uses orthonormal columns V and singular values
    s = sqrt(geomspace(1, kappa_target, r)), which makes the induced outer
    curvature A'A axis-aligned with the same spread; this is what lets the
    inner conditioning knob shape the outer geometry. Returns stochastic
    instants when any noise scale is positive (or when forced).
    """
    rng = np.random.default_rng(config.seed)
    d1, d2, T = config.d1, config.d2, config.T

    evals = np.geomspace(1.0, config.kappa_target, d2)
    R = _orthonormal_columns(rng, d2, d2)
    Q = R @ np.diag(evals) @ R.T
    Q = 0.5 * (Q + Q.T)

    r = min(d1, d2)
    V = _orthonormal_columns(rng, d2, r)
    s = np.sqrt(np.geomspace(1.0, config.kappa_target, r))
    A = np.zeros((d2, d1))
    A[:, :r] = V * s

    b = rng.standard_normal(d2)
    c = rng.standard_normal(d2)
    phases = rng.uniform(0.0, 2.0 * np.pi, d1)

    if stochastic is None:
        stochastic = max(config.noise) > 0
    mu_g, l_g1 = _spectrum_bounds(Q)

    # Q is fixed, so it is checked once above rather than per instant. The
    # drift rebinds b and c and never writes them in place, so instants can
    # share the arrays they were built with.
    instants: list[ProblemInstant] = []
    for t in range(1, T + 1):
        instants.append(
            _build_instant(
                t, A, b, Q, c, config.cos_amplitude, phases, config.noise,
                stochastic, mu_g, l_g1,
            )
        )
        if t < T:
            step = config.drift.step_size(t)
            if step > 0:
                u = rng.standard_normal(d2)
                b = b + step * (u / np.linalg.norm(u))
                v = rng.standard_normal(d2)
                c = c + step * (v / np.linalg.norm(v))
    return instants
