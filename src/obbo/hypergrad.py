"""Inner-problem solvers and hypergradient estimators.

Three estimators are provided: the exact implicit gradient through the inner
optimum (requires the inner-solution oracle), backpropagation through the
unrolled inner gradient-descent trajectory, and a randomized truncated
Neumann-series estimate for stochastic oracles. All second-order information
enters through Hessian-vector products; no Hessian is materialized except in
the desk-scale direct solves of the implicit form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems.base import ProblemInstant, StochasticInstant

__all__ = [
    "DivergenceError",
    "InnerSolveResult",
    "NeumannParams",
    "WindowBuffer",
    "inner_gd",
    "inner_sgd",
    "implicit_hypergradient",
    "exact_hypergradient",
    "itd_hypergradient",
    "stochastic_hypergradient",
]


class DivergenceError(RuntimeError):
    """Raised when iterates stop being finite (step size condition violated)."""


@dataclass
class InnerSolveResult:
    """Full inner trajectory omega^0 .. omega^K plus the step size used."""

    trajectory: np.ndarray
    eta: float

    @property
    def K(self) -> int:
        return self.trajectory.shape[0] - 1

    @property
    def final(self) -> np.ndarray:
        return self.trajectory[-1]


def _descend(t: int, grad, lam, beta0, eta: float, K: int, *extra) -> InnerSolveResult:
    """K steps omega <- omega - eta * grad(lam, omega, *extra) from beta0.

    Finiteness is checked once, after the loop, and is equivalent to a check
    after every step: non-finite rows are found by scanning the whole
    trajectory, not only the last iterate, and the error names the first one.
    The steps after it still run under the ignored floating-point warnings,
    but the error discards their results.
    """
    if eta <= 0:
        raise ValueError("inner step size must be positive")
    if K < 1:
        raise ValueError("inner iteration count must be at least 1")
    lam = np.asarray(lam, dtype=float)
    beta0 = np.asarray(beta0, dtype=float)
    traj = np.empty((K + 1, beta0.size))
    traj[0] = beta0
    omega = beta0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, K + 1):
            omega = traj[k] = omega - eta * grad(lam, omega, *extra)
    steps = traj[1:]
    if not np.isfinite(steps).all():
        k = 1 + int(np.argmin(np.isfinite(steps).all(axis=1)))
        raise DivergenceError(
            f"inner iterate diverged at k={k} (t={t}); "
            f"eta={eta} likely violates the step size condition"
        )
    return InnerSolveResult(trajectory=traj, eta=eta)


def inner_gd(
    instant: ProblemInstant, lam, beta0, eta: float, K: int
) -> InnerSolveResult:
    """K gradient-descent steps on g_t(lam, .) from the warm start beta0."""
    return _descend(instant.t, instant.grad_g_beta, lam, beta0, eta, K)


def inner_sgd(
    instant: StochasticInstant,
    lam,
    beta0,
    eta: float,
    K: int,
    s: int,
    rng: np.random.Generator,
) -> InnerSolveResult:
    """K stochastic gradient steps with batch size s per step."""
    if s < 1:
        raise ValueError("batch size s must be at least 1")
    return _descend(instant.t, instant.grad_g_beta_sampled, lam, beta0, eta, K, s, rng)


def _materialize_inner_hessian(instant: ProblemInstant, lam, beta) -> np.ndarray:
    d2 = instant.d2
    H = np.empty((d2, d2))
    e = np.zeros(d2)
    for j in range(d2):
        e[j] = 1.0
        H[:, j] = instant.hvp_g_betabeta(lam, beta, e)
        e[j] = 0.0
    return H


def implicit_hypergradient(instant: ProblemInstant, lam, beta) -> np.ndarray:
    """Implicit-form estimate at an arbitrary pair (lam, beta).

    Solves the inner Hessian system directly (desk-scale dimensions) and
    applies the mixed HVP; equals the true hypergradient when beta is the
    inner optimum.
    """
    lam = np.asarray(lam, dtype=float)
    beta = np.asarray(beta, dtype=float)
    H = _materialize_inner_hessian(instant, lam, beta)
    v = np.linalg.solve(H, instant.grad_f_beta(lam, beta))
    return instant.grad_f_lambda(lam, beta) - instant.hvp_g_lambdabeta(lam, beta, v)


def exact_hypergradient(instant: ProblemInstant, lam) -> np.ndarray:
    """True gradient of the induced outer objective at lam.

    Uses the instant's closed form when it has one, otherwise the implicit
    form at the inner-solution oracle's optimum; the Hessian solve is
    guaranteed nonsingular by the strong convexity of g.
    """
    lam = np.asarray(lam, dtype=float)
    if instant.exact_hypergradient is not None:
        return instant.exact_hypergradient(lam)
    if instant.inner_opt is None:
        raise ValueError(
            f"instant t={instant.t} exposes no exact-solution oracle; "
            "regret metrics need inner_opt or exact_hypergradient"
        )
    return implicit_hypergradient(instant, lam, instant.inner_opt(lam))


def itd_hypergradient(
    instant: ProblemInstant, lam, solve: InnerSolveResult
) -> np.ndarray:
    """Differentiate lam -> f(lam, omega^K(lam)) through the unrolled loop.

    Runs the reverse pass with HVPs on a single propagated vector; for each k
    the cross HVP at omega^k is accumulated, then the vector is multiplied by
    (I - eta * H_betabeta(lam, omega^k)). Algebraically identical to the
    matrix-product form of the unrolled derivative.
    """
    lam = np.asarray(lam, dtype=float)
    traj = solve.trajectory
    eta, K = solve.eta, solve.K
    omega_K = traj[K]
    v = instant.grad_f_beta(lam, omega_K)
    acc = np.zeros(instant.d1)
    for k in range(K - 1, -1, -1):
        omega_k = traj[k]
        acc += instant.hvp_g_lambdabeta(lam, omega_k, v)
        if k > 0:
            v = v - eta * instant.hvp_g_betabeta(lam, omega_k, v)
    return instant.grad_f_lambda(lam, omega_K) - eta * acc


@dataclass(frozen=True)
class NeumannParams:
    """Truncation bound m and the curvature scale used by the Neumann series."""

    m: int
    l_g1: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("Neumann sample bound m must be at least 1")
        if self.l_g1 <= 0:
            raise ValueError("l_g1 must be positive")


def stochastic_hypergradient(
    instant: StochasticInstant,
    lam,
    beta,
    params: NeumannParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Randomized truncated Neumann-series estimate at (lam, beta).

    Draws a truncation level uniformly from {0, ..., m-1}, propagates the
    sampled outer gradient through that many (I - H/l_g1) factors, scales by
    m / l_g1, and applies the mixed HVP. The empty product (level 0) is the
    identity. Only the gradients are sampled; the HVPs are exact.
    """
    lam = np.asarray(lam, dtype=float)
    beta = np.asarray(beta, dtype=float)
    m, ell = params.m, params.l_g1
    m_trunc = rng.integers(m)
    v = instant.grad_f_beta_sampled(lam, beta, rng)
    inv_ell = 1.0 / ell
    hvp_betabeta = instant.hvp_g_betabeta
    for _ in range(m_trunc):
        v = v - inv_ell * hvp_betabeta(lam, beta, v)
    v = (m * inv_ell) * v
    correction = instant.hvp_g_lambdabeta(lam, beta, v)
    return instant.grad_f_lambda_sampled(lam, beta, rng) - correction


class WindowBuffer:
    """The w most recent hypergradient estimates.

    The average always divides by the capacity w: early rounds with fewer than
    w entries are implicitly zero-padded, matching the convention that
    objectives before the start of the stream are zero.

    Row 0 stays zero and rows 1..w hold the estimates oldest first, so
    ``np.add.accumulate`` adds 0 + e_1 + ... + e_w in order, as a loop would;
    ``sum(axis=0)`` sums a single column pairwise.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("window capacity must be at least 1")
        self.capacity = capacity
        self._pushed = 0
        self._rows: np.ndarray | None = None

    def __len__(self) -> int:
        return min(self._pushed, self.capacity)

    def push(self, estimate) -> None:
        if self._rows is None:
            self._rows = np.zeros((self.capacity + 1, *np.shape(estimate)))
        self._rows[1:-1] = self._rows[2:]
        self._rows[-1] = estimate
        self._pushed += 1

    def average(self) -> np.ndarray:
        if self._rows is None:
            raise ValueError("window buffer is empty")
        return np.add.accumulate(self._rows)[-1] / self.capacity
