"""A 40-digit reference for the quadratic inner-GD and ITD kernels.

``inner_gd_reference`` runs the K steps of gradient descent on
g(lam, beta) = (beta - A lam - b)' Q (beta - A lam - b) / 2 with mpmath at
``DIGITS`` significant digits, from the float64 inputs taken as exact binary
values. ``itd_reference`` runs the ITD reverse pass of K steps the same way,
for f(lam, beta) = ||beta - c||^2 / 2 + amp sum(cos(lam + phases)). Their
results are exact for those inputs to far below float64's resolution, so
``error_in_eps`` measures each kernel's own rounding: the relative error of a
vector, in units of float64's machine epsilon. A kernel that reassociates
may replace another only if its errors are no larger on the same draws.
"""

from __future__ import annotations

import mpmath
import numpy as np

DIGITS = 40
EPS = float(np.finfo(float).eps)


def inner_gd_reference(A, b, Q, lam, beta0, eta, K) -> list[list[mpmath.mpf]]:
    """Rows 0..K of beta <- beta - eta Q (beta - A lam - b) from beta0, each a
    list of d2 mpmath numbers correct to ``DIGITS`` digits."""
    with mpmath.workdps(DIGITS):
        A, Q = ([[mpmath.mpf(x) for x in row] for row in M] for M in (A, Q))
        lam, eta = [mpmath.mpf(x) for x in lam], mpmath.mpf(eta)
        target = [mpmath.fdot(row, lam) + mpmath.mpf(x) for row, x in zip(A, b)]
        rows = [[mpmath.mpf(x) for x in beta0]]
        for _ in range(K):
            omega = rows[-1]
            residual = [w - c for w, c in zip(omega, target)]
            rows.append([w - eta * mpmath.fdot(q, residual) for w, q in zip(omega, Q)])
    return rows


def error_in_eps(got, exact) -> float:
    """||got - exact|| / ||exact|| of one vector, in units of float64's epsilon."""
    with mpmath.workdps(DIGITS):
        err = mpmath.sqrt(mpmath.fsum((mpmath.mpf(g) - e) ** 2 for g, e in zip(got, exact)))
        return float(err / mpmath.sqrt(mpmath.fsum(e**2 for e in exact))) / EPS


def itd_reference(A, Q, c, amp, phases, lam, omega_K, eta, K) -> list[mpmath.mpf]:
    """The ITD hypergradient at (lam, omega_K), d1 mpmath numbers correct to
    ``DIGITS`` digits: grad_f_lambda - eta sum_{j<K} (-A') Q (I - eta Q)^j v
    with v = grad_f_beta = omega_K - c."""
    with mpmath.workdps(DIGITS):
        At, Q = ([[mpmath.mpf(x) for x in row] for row in M] for M in (np.transpose(A), Q))
        eta = mpmath.mpf(eta)
        v = [mpmath.mpf(w) - mpmath.mpf(x) for w, x in zip(omega_K, c)]
        acc = [mpmath.mpf(0)] * len(At)
        for _ in range(K):
            Qv = [mpmath.fdot(row, v) for row in Q]
            acc = [a - mpmath.fdot(row, Qv) for a, row in zip(acc, At)]
            v = [x - eta * y for x, y in zip(v, Qv)]
        return [-mpmath.mpf(amp) * mpmath.sin(mpmath.mpf(x) + mpmath.mpf(p)) - eta * a
                for x, p, a in zip(lam, phases, acc)]
