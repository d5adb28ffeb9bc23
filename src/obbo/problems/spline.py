"""Online hyperparameter optimization for a linear smoothing spline.

Per round, the inner problem fits linear (order-2) B-spline coefficients to a
training batch under a roughness penalty weighted by the scalar
hyperparameter lam; the outer problem scores the fit on a validation batch:

    g_t(lam, beta) = ||B_t beta - y_t||^2 + lam * beta' Omega beta + r ||beta||^2
    f_t(lam, beta) = ||B_t^val beta - y_t^val||^2

Omega penalizes second divided differences of the coefficients, so affine
fits are free and heavily penalized solutions approach the best straight
line. The fixed ridge r = 1e-8 keeps the inner problem strongly convex over
the whole positive lam box; it sits outside the lam scaling so it does not
distort the heavy-penalty limit. Both the inner solve and the hypergradient
are available in closed form through the normal equations. Each round is one
``SplineData`` whose methods are the instant's oracles; it carries no kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .base import ProblemInstant, check_array, check_count, check_number, instant_of

__all__ = [
    "SplineData",
    "SplineTask",
    "linear_spline_basis",
    "roughness_penalty",
    "spline_stream",
    "make_drifting_spline_task",
]

RIDGE_FLOOR = 1e-8

Batch = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class SplineTask:
    """Knot layout, per-round data batches, and the positive lam box: at least 3
    increasing knots (kept as float64), batches of finite x and y of one length,
    and finite ``0 < lambda_lower < lambda_upper``."""

    knots: np.ndarray
    train_batches: tuple[Batch, ...]
    val_batches: tuple[Batch, ...]
    lambda_lower: float
    lambda_upper: float

    def __post_init__(self):
        object.__setattr__(self, "knots", _checked_knots(self.knots, 3))
        check_number("lambda_lower", self.lambda_lower, open_low=True)
        check_number("lambda_upper", self.lambda_upper, self.lambda_lower, open_low=True)
        if len(self.train_batches) != len(self.val_batches):
            raise ValueError("train and validation batch counts differ")
        for split, batches in (("train", self.train_batches), ("val", self.val_batches)):
            for t, (x, y) in enumerate(batches, 1):
                x = check_array(f"round {t} {split} x", x, (None,))
                check_array(f"round {t} {split} y", y, x.shape)

    @property
    def T(self) -> int:
        return len(self.train_batches)


def linear_spline_basis(x, knots) -> np.ndarray:
    """Dense design matrix of linear B-splines (hat functions) at the knots.

    x is clipped to the knot span, so rows sum to one (partition of unity).
    The weights equal a k=1 B-spline design matrix's, bit for bit (tested).
    """
    x = check_array("x", x, (None,))
    knots = _checked_knots(knots, 2)
    xc = np.clip(x, knots[0], knots[-1])
    left = np.searchsorted(knots[1:-1], xc, side="right")  # knots[left] <= xc <= knots[left+1]
    lo, hi = knots[left], knots[left + 1]
    f = 1.0 / (hi - lo)
    basis = np.zeros((xc.size, knots.size))
    at = np.arange(0, basis.size, knots.size) + left
    np.put(basis, [at, at + 1], [f * (hi - xc), f * (xc - lo)])
    return basis


def roughness_penalty(knots) -> np.ndarray:
    """Second-divided-difference penalty on the spline coefficients.

    Annihilates coefficient vectors sampled from affine functions, so heavily
    penalized fits approach the best straight line.
    """
    knots = _checked_knots(knots, 2)
    n = knots.size
    h = np.diff(knots)
    D = np.zeros((n - 2, n))
    for i in range(n - 2):
        D[i, i] = 1.0 / h[i]
        D[i, i + 1] = -(1.0 / h[i] + 1.0 / h[i + 1])
        D[i, i + 2] = 1.0 / h[i + 1]
    weights = 0.5 * (h[:-1] + h[1:])
    return D.T @ (weights[:, None] * D)


def _checked_knots(knots, least: int) -> np.ndarray:
    """The one knot rule: ``check_array``, then ``least`` (2 or 3) increasing knots."""
    knots = check_array("knots", knots, (None,))
    if knots.size < least or not (knots[1:] > knots[:-1]).all():
        raise ValueError(f"need at least {('two', 'three')[least - 2]} strictly increasing knots")
    return knots


def _lam_scalar(lam) -> float:
    return float(check_array("spline hyperparameter lam", lam, (1,))[0])


class SplineData(NamedTuple):
    """One round's data: BtB = B'B and Bty = B'y of the training batch, the
    validation batch, and the fixed ``omega`` and ``ridge`` = RIDGE_FLOOR * I
    that every round of a stream shares. Its methods are the instant's oracles."""

    BtB: np.ndarray
    Bty: np.ndarray
    B_val: np.ndarray
    y_val: np.ndarray
    omega: np.ndarray
    ridge: np.ndarray

    def f_value(self, lam, beta):
        r = self.B_val.dot(beta) - self.y_val
        return float(r.dot(r))

    def grad_f_lambda(self, lam, beta):
        return np.zeros(1)

    def grad_f_beta(self, lam, beta):
        return 2.0 * (self.B_val.T.dot(self.B_val.dot(beta) - self.y_val))

    def grad_g_beta(self, lam, beta):
        lv = _lam_scalar(lam)
        return 2.0 * (
            self.BtB.dot(beta) - self.Bty + lv * self.omega.dot(beta) + RIDGE_FLOOR * beta
        )

    def hvp_g_lambdabeta(self, lam, beta, v):
        return np.array([2.0 * float(beta.dot(self.omega.dot(v)))])

    def hvp_g_betabeta(self, lam, beta, v):
        lv = _lam_scalar(lam)
        return 2.0 * (self.BtB.dot(v) + lv * self.omega.dot(v) + RIDGE_FLOOR * v)

    def hess_g_betabeta(self, lam, beta):
        return 2.0 * (self.BtB + _lam_scalar(lam) * self.omega + self.ridge)

    def inner_opt(self, lam):
        try:
            return np.linalg.solve(self.hess_g_betabeta(lam, None), 2.0 * self.Bty)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"singular spline normal equations at lam={_lam_scalar(lam)!r}"
            ) from exc

    def exact_hypergradient(self, lam):
        beta_hat = self.inner_opt(lam)
        x = np.linalg.solve(self.hess_g_betabeta(lam, beta_hat), self.grad_f_beta(lam, beta_hat))
        return np.array([-2.0 * float(beta_hat.dot(self.omega.dot(x)))])


def spline_stream(task: SplineTask) -> list[ProblemInstant]:
    """Materialize the per-round oracle bundles for a spline task."""
    omega = roughness_penalty(task.knots)
    ridge = RIDGE_FLOOR * np.eye(omega.shape[0])
    box, instants = (task.lambda_lower, task.lambda_upper), []
    for t, ((x_tr, y_tr), (x_val, y_val)) in enumerate(
        zip(task.train_batches, task.val_batches), 1
    ):
        B_tr = linear_spline_basis(x_tr, task.knots)
        data = SplineData(
            B_tr.T @ B_tr,
            B_tr.T @ np.asarray(y_tr, dtype=float),
            linear_spline_basis(x_val, task.knots),
            np.asarray(y_val, dtype=float),
            omega,
            ridge,
        )
        mu_g = float(np.linalg.eigvalsh(data.hess_g_betabeta([task.lambda_lower], None))[0])
        l_g1 = float(np.linalg.eigvalsh(data.hess_g_betabeta([task.lambda_upper], None))[-1])
        instants.append(instant_of(data, t, 1, omega.shape[0], mu_g, l_g1, lambda_box=box))
    return instants


def make_drifting_spline_task(
    seed: int,
    T: int,
    n_knots: int = 12,
    n_train: int = 60,
    n_val: int = 30,
    noise_std: float = 0.25,
    lambda_lower: float = 1e-4,
    lambda_upper: float = 10.0,
    freq_start: float = 0.5,
    freq_end: float = 4.0,
    amp_start: float = 0.2,
    amp_end: float = 1.5,
) -> SplineTask:
    """Synthetic nonstationary regression stream on [0, 1].

    The ground truth morphs from a nearly flat low-frequency wave to a strong
    high-frequency one, so the optimal smoothing weight drifts downward over
    the stream; a fixed hyperparameter cannot track it. Ranges: integer (not
    bool) ``seed >= 0``, ``T``, ``n_train``, ``n_val >= 1`` and ``n_knots >= 3``;
    finite ``noise_std >= 0`` and finite ``freq_*``, ``amp_*``.
    """
    for what, count, least in (("seed", seed, 0), ("horizon", T, 1), ("n_knots", n_knots, 3),
                               ("n_train", n_train, 1), ("n_val", n_val, 1)):
        check_count(what, count, least)
    check_number("noise_std", noise_std)
    for what, value in (("freq_start", freq_start), ("freq_end", freq_end),
                        ("amp_start", amp_start), ("amp_end", amp_end)):
        check_number(what, value, -np.inf, open_low=True)
    rng = np.random.default_rng(seed)
    knots = np.linspace(0.0, 1.0, n_knots)
    train, val = [], []
    for t in range(T):
        frac = t / max(T - 1, 1)
        freq = freq_start + (freq_end - freq_start) * frac
        amp = amp_start + (amp_end - amp_start) * frac

        def truth(x):
            return amp * np.sin(2.0 * np.pi * freq * x) + 0.5 * x

        x_tr = rng.uniform(0.0, 1.0, n_train)
        y_tr = truth(x_tr) + noise_std * rng.standard_normal(n_train)
        x_val = rng.uniform(0.0, 1.0, n_val)
        y_val = truth(x_val) + noise_std * rng.standard_normal(n_val)
        train.append((x_tr, y_tr))
        val.append((x_val, y_val))
    return SplineTask(
        knots=knots,
        train_batches=tuple(train),
        val_batches=tuple(val),
        lambda_lower=lambda_lower,
        lambda_upper=lambda_upper,
    )
