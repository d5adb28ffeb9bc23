"""Independent numerical oracles used to derive expected test values.

These deliberately avoid the library's own code paths: gradients come from
central finite differences, prox solutions from dense 1-D grid minimization
of the raw objective, and inner-loop sensitivities from re-running the
forward recursion at perturbed inputs. ``constant_gradient_instant`` is a
hand-built instant whose every hypergradient estimate is a chosen vector.
``without_kernels`` wraps an instant in one that forwards its nine oracles
and nothing else, so the solvers and metrics call them where they would run
a ``QuadraticData`` kernel. ``count_kernel_rows`` counts the rows of each call
of the metrics' quadratic kernel.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from obbo.problems import ProblemInstant
from obbo.problems.quadratic import QuadraticStream

# The oracle fields each instant class defines as methods.
ORACLE_FIELDS = (
    "f_value", "grad_f_lambda", "grad_f_beta", "grad_g_beta", "hvp_g_lambdabeta",
    "hvp_g_betabeta", "hess_g_betabeta", "inner_opt", "exact_hypergradient",
)


@dataclass(eq=False, repr=False, kw_only=True)
class ConstantGradientInstant(ProblemInstant):
    """f has constant outer gradient g; the inner problem is a decoupled quadratic."""

    g: np.ndarray

    def f_value(self, lam, beta):
        return float(self.g @ lam)

    def grad_f_lambda(self, lam, beta):
        return self.g.copy()

    def grad_f_beta(self, lam, beta):
        return np.zeros(1)

    def grad_g_beta(self, lam, beta):
        return beta.copy()

    def hvp_g_lambdabeta(self, lam, beta, v):
        return np.zeros(self.g.size)

    def hvp_g_betabeta(self, lam, beta, v):
        return v.copy()

    def hess_g_betabeta(self, lam, beta):
        return np.eye(1)

    def inner_opt(self, lam):
        return np.zeros(1)

    def exact_hypergradient(self, lam):
        return self.g.copy()


def constant_gradient_instant(t, g):
    """A ``ConstantGradientInstant``. The cross HVP is zero, so the ITD, implicit
    and exact estimates all return g itself, bit for bit."""
    g = np.asarray(g, dtype=float)
    return ConstantGradientInstant(t, g.size, 1, 1.0, 1.0, g=g)


def _forwarded(name):
    def oracle(self, *args):
        return getattr(type(self.wrapped), name)(self.wrapped, *args)

    oracle.__name__ = name
    return oracle


class _Forwarding:
    """The nine oracles, each calling the same-named method of ``wrapped``'s class."""


for _name in ORACLE_FIELDS:
    setattr(_Forwarding, _name, _forwarded(_name))


@dataclass(eq=False, repr=False, kw_only=True)
class OracleOnly(_Forwarding, ProblemInstant):
    """Another instant's constants and nine oracles, forwarded, and nothing else."""

    wrapped: ProblemInstant


def without_kernels(instant):
    """An ``OracleOnly`` over ``instant``: the same constants and oracles, and no
    kernel for the solvers or metrics to run instead."""
    constants = {f.name: getattr(instant, f.name)
                 for f in dataclasses.fields(ProblemInstant) if f.init}
    return OracleOnly(**constants, wrapped=instant)


def central_diff_grad(fun, x, base_step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        h = base_step * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def prox_grid_oracle(q, u, alpha, diag, h, X, step: float = 1e-4) -> np.ndarray:
    """Per-coordinate dense grid minimization of the prox objective.

    The objective <q,x> + h(x) + D_phi(x,u)/alpha, phi(x) = x' diag(diag) x / 2,
    is separable for the geometries under test, so each coordinate is
    minimized over a dense grid wide enough to contain the minimizer (radius
    from the objective's own coercivity, not from any closed form).
    """
    q = np.asarray(q, dtype=float)
    u = np.asarray(u, dtype=float)
    d = q.size
    scale = np.asarray(diag, dtype=float)
    weight = h.weight if h.kind == "l1" else 0.0
    out = np.empty(d)
    for i in range(d):
        radius = alpha * (abs(q[i]) + weight) / scale[i] + 1.0
        lo, hi = u[i] - radius, u[i] + radius
        if X.kind == "box":
            lo, hi = max(lo, X.lower[i]), min(hi, X.upper[i])
        grid = np.arange(lo, hi + step, step)
        if X.kind == "box":
            grid = np.clip(grid, X.lower[i], X.upper[i])
        vals = (
            q[i] * grid
            + weight * np.abs(grid)
            + (scale[i] / (2.0 * alpha)) * (grid - u[i]) ** 2
        )
        out[i] = grid[np.argmin(vals)]
    return out


def unrolled_inner_objective(instant, beta0, eta: float, K: int):
    """Scalar map lam -> f(lam, omega^K(lam)) with the inner loop re-run."""
    beta0 = np.asarray(beta0, dtype=float)

    def fun(lam):
        omega = beta0.copy()
        for _ in range(K):
            omega = omega - eta * instant.grad_g_beta(lam, omega)
        return instant.f_value(lam, omega)

    return fun


def induced_objective(instant):
    """Scalar map lam -> f(lam, beta_hat(lam)) via the inner-solution oracle."""

    def fun(lam):
        beta_hat = instant.inner_opt(lam)
        return instant.f_value(lam, beta_hat)

    return fun


def count_kernel_rows(monkeypatch) -> list:
    """The rows of each ``QuadraticStream.regret_rows`` call, appended as the calls come."""
    rows, kernel = [], QuadraticStream.regret_rows

    def counted(stream, lambdas, betas):
        rows.append(len(lambdas))
        return kernel(stream, lambdas, betas)

    monkeypatch.setattr(QuadraticStream, "regret_rows", counted)
    return rows
