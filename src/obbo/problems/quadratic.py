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

from typing import NamedTuple

import numpy as np

from .base import ProblemInstant, StreamConfig

__all__ = ["QuadraticData", "quadratic_instant", "quadratic_stream"]


class QuadraticData(NamedTuple):
    """The data of g_t(lam, beta) = (beta - A lam - b)' Q (beta - A lam - b) / 2
    and the kernels inner GD, ITD and the Neumann estimator run on it.

    ``neg_At`` is ``-A.T``, formed once: negation is exact, so products with it
    match ``-(A.T.dot(x))`` bit for bit. Per-round products, here and in the
    closures, are ``M.dot(x)``: the BLAS call of ``M @ x`` at half the call
    overhead, with the same bits while M is contiguous (``quadratic_instant``
    copies A and Q to contiguous arrays). The inner-GD and ITD kernels repeat
    the closures' operations in order, so they equal the oracle path bit for
    bit; the Neumann kernel reassociates them into one matrix product.

    ``neumann`` holds the Neumann kernel's matrices per (l, m). Every instant
    of a stream shares A, Q and this dict, so the matrices are formed once
    per stream; ``quadratic_instant`` gives each instant a dict of its own.
    """

    A: np.ndarray
    b: np.ndarray
    Q: np.ndarray
    neg_At: np.ndarray
    neumann: dict

    def grad_g_beta_at(self, lam: np.ndarray):
        """``grad_g_beta(lam, .)`` for a fixed lam, with A lam formed once."""
        a_lam, b, Q = self.A.dot(lam), self.b, self.Q
        return lambda lam, beta: Q.dot((beta - a_lam) - b)

    def itd_correction(self, v: np.ndarray, eta: float, K: int) -> np.ndarray:
        """The sum of the cross HVPs of an ITD reverse pass of K steps from v.

        Each step's two HVPs share one product Qv = Q v: the sum gains
        (-A') Qv, then v becomes v - eta * Qv (not after the last step).
        """
        Q, neg_At = self.Q, self.neg_At
        acc = np.zeros(neg_At.shape[0])
        for _ in range(K - 1):
            Qv = Q.dot(v)
            acc += neg_At.dot(Qv)
            v = v - eta * Qv
        acc += neg_At.dot(Q.dot(v))
        return acc

    def neumann_correction(self, v: np.ndarray, ell: float, m: int, k: int) -> np.ndarray:
        """(m/l) (-A') Q (I - Q/l)^k v: the mixed HVP of a Neumann estimate at
        truncation level k < m, as one product with a matrix cached per (l, m).
        """
        levels = self.neumann.get((ell, m))
        if levels is None:
            levels = self.neumann[ell, m] = self._neumann_levels(ell, m)
        return levels[k].dot(v)

    def _neumann_levels(self, ell: float, m: int) -> list[np.ndarray]:
        """C_k = (m/l) (-A') Q (I - Q/l)^k for k < m, each C_k a (d1, d2) matrix."""
        step = np.eye(self.Q.shape[0]) - self.Q / ell
        levels = [(m / ell) * (self.neg_At @ self.Q)]
        for _ in range(m - 1):
            levels.append(levels[-1] @ step)
        return levels


def quadratic_instant(
    t: int,
    A,
    b,
    Q,
    c,
    amp: float = 0.0,
    phases=None,
    noise: tuple[float, float] = (0.0, 0.0),
) -> ProblemInstant:
    """Build a single quadratic bilevel instant from explicit data.

    A is (d2, d1), Q a symmetric positive definite (d2, d2) matrix, b and c
    are d2-vectors, and phases (optional) a d1-vector for the cosine term.
    """
    A = np.atleast_2d(np.ascontiguousarray(A, dtype=float))
    Q = np.atleast_2d(np.ascontiguousarray(Q, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    d2, d1 = A.shape
    if Q.shape != (d2, d2) or b.shape != (d2,) or c.shape != (d2,):
        raise ValueError("inconsistent quadratic instant dimensions")
    phases = np.zeros(d1) if phases is None else np.asarray(phases, dtype=float)
    if phases.shape != (d1,):
        raise ValueError("phases must have length d1")
    mu_g, l_g1 = _spectrum_bounds(Q)
    return _build_instant(t, A, b, Q, {}, c, amp, phases, noise, mu_g, l_g1)


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
    neumann: dict,
    c: np.ndarray,
    amp: float,
    phases: np.ndarray,
    noise: tuple[float, float],
    mu_g: float,
    l_g1: float,
) -> ProblemInstant:
    """The oracle bundle for validated data and the spectrum bounds of Q.

    Each oracle is one flat closure over the data (``-A'`` is formed once;
    products as in ``QuadraticData``). Its ``quadratic`` field carries that
    data and the Neumann cache; ``noise`` sets its sampled gradients' scales.
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
        return Q.dot((beta - A.dot(lam)) - b)

    def hvp_g_lambdabeta(lam, beta, v):
        return neg_At.dot(Q.dot(v))

    def hvp_g_betabeta(lam, beta, v):
        return Q.dot(v)

    def inner_opt(lam):
        return A.dot(lam) + b

    def exact_hypergradient(lam):
        return neg_amp * np.sin(lam + phases) + At.dot(A.dot(lam) + b - c)

    instant = ProblemInstant(
        t=t,
        d1=d1,
        d2=d2,
        f_value=f_value,
        grad_f_lambda=grad_f_lambda,
        grad_f_beta=grad_f_beta,
        grad_g_beta=grad_g_beta,
        hvp_g_lambdabeta=hvp_g_lambdabeta,
        hvp_g_betabeta=hvp_g_betabeta,
        hess_g_betabeta=lambda lam, beta: Q,
        mu_g=mu_g,
        l_g1=l_g1,
        inner_opt=inner_opt,
        exact_hypergradient=exact_hypergradient,
        l_f1=max(1.0, amp),
        sigma_g_beta=float(noise[0]),
        sigma_f=float(noise[1]),
    )
    instant.quadratic = QuadraticData(A, b, Q, neg_At, neumann)
    return instant


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((rows, max(rows, cols))))
    return q[:, :cols]


def quadratic_stream(config: StreamConfig) -> list[ProblemInstant]:
    """Generate the full sequence of quadratic instants for a config.

    The inner Hessian Q has spectrum geomspace(1, kappa_target, d2). The
    coupling A = V diag(s) uses orthonormal columns V and singular values
    s = sqrt(geomspace(1, kappa_target, r)), which makes the induced outer
    curvature A'A axis-aligned with the same spread; this is what lets the
    inner conditioning knob shape the outer geometry. ``config.noise`` sets
    the scales of the instants' sampled gradients.
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

    mu_g, l_g1 = _spectrum_bounds(Q)
    neumann: dict = {}

    # Q is fixed, so it is checked once above rather than per instant. The
    # drift rebinds b and c and never writes them in place, so instants can
    # share the arrays they were built with, and one Neumann cache.
    instants: list[ProblemInstant] = []
    for t in range(1, T + 1):
        instants.append(
            _build_instant(
                t, A, b, Q, neumann, c, config.cos_amplitude, phases,
                config.noise, mu_g, l_g1,
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
