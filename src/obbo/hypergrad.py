"""Inner-problem solvers and hypergradient estimators.

Three estimators are provided: the implicit form at a given inner iterate
(the true hypergradient at the inner optimum), backpropagation through the
unrolled inner gradient-descent trajectory, and a randomized truncated
Neumann-series estimate for stochastic oracles. ITD and the Neumann series
take second-order information through Hessian-vector products; the implicit
form solves with the instant's inner Hessian, a desk-scale direct solve. On
a ``QuadraticData`` instant, inner GD, the ITD estimator and the Neumann
estimator run its kernels instead of its oracle methods:
inner GD's closed form, the ITD reverse pass equal to the oracles' bit for
bit, and one cached matrix per Neumann level (see ``InnerQuadratic``).
"""

from __future__ import annotations

import numpy as np

from .problems.base import ProblemInstant, _all_finite, check_count, check_number
from .problems.quadratic import QuadraticData

__all__ = [
    "DivergenceError",
    "InnerSolveResult",
    "WindowBuffer",
    "inner_gd",
    "inner_sgd",
    "implicit_hypergradient",
    "itd_hypergradient",
    "stochastic_hypergradient",
]


class DivergenceError(RuntimeError):
    """Raised when iterates stop being finite (step size condition violated)."""


class InnerSolveResult:
    """K inner steps of size eta: the last iterate ``final`` and the (K + 1, d2)
    ``trajectory``, formed on first read from ``rows``, an ``(instant, x)`` pair of
    ``QuadraticData.inner_gd_final``, when its kernel formed only ``final``."""

    __slots__ = ("final", "eta", "K", "_trajectory", "_rows")

    def __init__(self, final: np.ndarray, eta: float, K: int, trajectory=None, rows=None):
        self.final, self.eta, self.K = final, eta, K
        self._trajectory, self._rows = trajectory, rows

    @property
    def trajectory(self) -> np.ndarray:
        if self._trajectory is None:
            quad, x = self._rows
            self._trajectory, self._rows = quad.inner_gd_rows(x, self.eta, self.K), None
        return self._trajectory


def _descend(t: int, lam, beta0, eta: float, K: int, grad, *extra) -> InnerSolveResult:
    """K steps omega - eta * grad(lam, omega, *extra) from beta0, via a scratch buffer
    that holds eta as a vector and the step. A non-finite entry stays non-finite
    under the step, so a finite last row proves every row."""
    check_number("inner step size", eta, open_low=True)
    check_count("inner iteration count", K)
    lam = np.asarray(lam, dtype=float)
    beta0 = np.asarray(beta0, dtype=float)
    n = beta0.size
    traj, scratch = np.empty((K + 1, n)), np.empty(2 * n)
    traj[0] = beta0
    etas, step, omega = scratch[:n], scratch[n:], traj[0]
    etas.fill(eta)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, K + 1):
            np.multiply(etas, grad(lam, omega, *extra), step)
            row = traj[k]
            np.subtract(omega, step, row)
            omega = row
    if not _all_finite(traj[-1]):
        raise _diverged(t, traj, eta)
    return InnerSolveResult(traj[-1], eta, K, traj)


def _diverged(t: int, traj: np.ndarray, eta: float) -> DivergenceError:
    """The error naming the first non-finite row of ``traj``."""
    k = 1 + int(np.argmin(np.isfinite(traj[1:]).all(axis=1)))
    return DivergenceError(
        f"inner iterate diverged at k={k} (t={t}); "
        f"eta={eta} likely violates the step size condition"
    )


def inner_gd(instant: ProblemInstant, lam, beta0, eta: float, K: int) -> InnerSolveResult:
    """K gradient-descent steps on g_t(lam, .) from the warm start beta0; on
    ``QuadraticData``, its closed form, whose rows are formed and scanned only
    when its bound cannot prove them finite. A non-finite row raises either way."""
    if not isinstance(instant, QuadraticData):
        return _descend(instant.t, lam, beta0, eta, K, instant.grad_g_beta)
    check_number("inner step size", eta, open_low=True)
    check_count("inner iteration count", K)
    final, x = instant.inner_gd_final(lam, beta0, eta, K)
    if final is not None:
        return InnerSolveResult(final, eta, K, rows=(instant, x))
    with np.errstate(over="ignore", invalid="ignore"):
        traj = instant.inner_gd_rows(x, eta, K)
    if not _all_finite(traj[1:].ravel()):  # closed-form rows: one can overflow alone
        raise _diverged(instant.t, traj, eta)
    return InnerSolveResult(traj[-1], eta, K, traj)


def inner_sgd(
    instant: ProblemInstant,
    lam,
    beta0,
    eta: float,
    K: int,
    s: int,
    rng: np.random.Generator,
) -> InnerSolveResult:
    """K stochastic gradient steps with batch size s per step.

    At zero inner noise the sampled gradient is the exact one and draws
    nothing, so this is ``inner_gd``, with its kernel, and leaves rng as it is.
    """
    check_count("batch size s", s)
    if instant.sigma_g_beta == 0:
        return inner_gd(instant, lam, beta0, eta, K)
    return _descend(instant.t, lam, beta0, eta, K, instant.grad_g_beta_sampled, s, rng)


def implicit_hypergradient(instant: ProblemInstant, lam, beta) -> np.ndarray:
    """Implicit-form estimate at an arbitrary pair (lam, beta).

    Solves the system of ``hess_g_betabeta(lam, beta)`` directly (desk-scale
    dimensions) and applies the mixed HVP: one call of each, and no call of
    ``hvp_g_betabeta``. Equals the true hypergradient when beta is the inner
    optimum.
    """
    lam = np.asarray(lam, dtype=float)
    beta = np.asarray(beta, dtype=float)
    H = instant.hess_g_betabeta(lam, beta)
    v = np.linalg.solve(H, instant.grad_f_beta(lam, beta))
    return instant.grad_f_lambda(lam, beta) - instant.hvp_g_lambdabeta(lam, beta, v)


def itd_hypergradient(
    instant: ProblemInstant, lam, solve: InnerSolveResult
) -> np.ndarray:
    """Differentiate lam -> f(lam, omega^K(lam)) through the unrolled loop.

    Runs the reverse pass with HVPs on a single propagated vector; for each k
    the cross HVP at omega^k is accumulated, then the vector is multiplied by
    (I - eta * H_betabeta(lam, omega^k)). Algebraically identical to the
    matrix-product form of the unrolled derivative. On ``QuadraticData``
    the ``itd_correction`` kernel of its ``inner`` runs the reverse pass,
    one ``Q v`` per step shared by both HVPs, and the K cross HVPs stacked.
    """
    lam = np.asarray(lam, dtype=float)
    omega_K, eta, K = solve.final, solve.eta, solve.K
    v = instant.grad_f_beta(lam, omega_K)
    if isinstance(instant, QuadraticData):
        acc = instant.inner.itd_correction(v, eta, K)
    else:
        traj, acc = solve.trajectory, np.zeros(instant.d1)
        for k in range(K - 1, -1, -1):
            omega_k = traj[k]
            acc += instant.hvp_g_lambdabeta(lam, omega_k, v)
            if k > 0:
                v = v - eta * instant.hvp_g_betabeta(lam, omega_k, v)
    return instant.grad_f_lambda(lam, omega_K) - eta * acc


def stochastic_hypergradient(
    instant: ProblemInstant,
    lam,
    beta,
    m: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Randomized truncated Neumann-series estimate at (lam, beta).

    Draws a truncation level uniformly from {0, ..., m-1} (integer, not bool,
    ``m >= 1``), propagates the sampled outer gradient through that many
    (I - H/l) factors with the instant's own curvature bound l = ``l_g1``,
    scales by m / l, and applies the mixed HVP. The empty product (level 0)
    is the identity. Only the gradients are sampled; the HVPs are exact.

    On ``QuadraticData`` the level's factors, scale and
    mixed HVP are one product with a matrix the ``neumann_correction``
    kernel of its ``inner`` caches per (l, m); the HVP fields are not called. The draws
    are the same, in the same order.
    """
    lam = np.asarray(lam, dtype=float)
    beta = np.asarray(beta, dtype=float)
    check_count("Neumann sample bound m", m)
    ell = instant.l_g1
    m_trunc = rng.integers(m)
    v = instant.grad_f_beta_sampled(lam, beta, rng)
    if isinstance(instant, QuadraticData):
        correction = instant.inner.neumann_correction(v, ell, m, m_trunc)
        return instant.grad_f_lambda_sampled(lam, beta, rng) - correction
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
        check_count("window capacity", capacity)
        self.capacity = capacity
        self._rows: np.ndarray | None = None

    def push(self, estimate) -> None:
        if self._rows is None:
            self._rows = np.zeros((self.capacity + 1, *np.shape(estimate)))
        self._rows[1:-1] = self._rows[2:]
        self._rows[-1] = estimate

    def average(self) -> np.ndarray:
        if self._rows is None:
            raise ValueError("window buffer is empty")
        return np.add.accumulate(self._rows)[-1] / self.capacity
