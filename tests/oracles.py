"""Independent numerical oracles used to derive expected test values.

These deliberately avoid the library's own code paths: gradients come from
central finite differences, prox solutions from dense 1-D grid minimization
of the raw objective, and inner-loop sensitivities from re-running the
forward recursion at perturbed inputs. ``constant_gradient_instant`` is a
hand-built instant whose every hypergradient estimate is a chosen vector.
"""

from __future__ import annotations

import numpy as np

from obbo.problems import ProblemInstant


def constant_gradient_instant(t, g):
    """f has constant outer gradient g; the inner problem is a decoupled quadratic.

    The cross HVP is zero, so the ITD, implicit and exact estimates all
    return g itself, bit for bit.
    """
    g = np.asarray(g, dtype=float)
    d1 = g.size
    return ProblemInstant(
        t=t,
        d1=d1,
        d2=1,
        f_value=lambda lam, beta: float(g @ lam),
        grad_f_lambda=lambda lam, beta: g.copy(),
        grad_f_beta=lambda lam, beta: np.zeros(1),
        grad_g_beta=lambda lam, beta: beta.copy(),
        hvp_g_lambdabeta=lambda lam, beta, v: np.zeros(d1),
        hvp_g_betabeta=lambda lam, beta, v: v.copy(),
        mu_g=1.0,
        l_g1=1.0,
        inner_opt=lambda lam: np.zeros(1),
    )


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


def prox_grid_oracle(q, u, alpha, phi, h, X, step: float = 1e-4) -> np.ndarray:
    """Per-coordinate dense grid minimization of the prox objective.

    The objective <q,x> + h(x) + D_phi(x,u)/alpha is separable for the
    geometries under test, so each coordinate is minimized over a dense grid
    wide enough to contain the minimizer (radius from the objective's own
    coercivity, not from any closed form).
    """
    q = np.asarray(q, dtype=float)
    u = np.asarray(u, dtype=float)
    d = q.size
    if phi.kind == "euclidean":
        scale = np.ones(d)
    else:
        scale = np.asarray(phi.diag, dtype=float)
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
