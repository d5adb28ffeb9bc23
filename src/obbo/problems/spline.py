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
``SplineData`` instant over its round's arrays; it carries no kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ProblemInstant, check_array, check_count, check_number

__all__ = [
    "SplineData",
    "SplineTask",
    "linear_spline_basis",
    "roughness_penalty",
    "spline_stream",
    "make_drifting_spline_task",
]

RIDGE_FLOOR = 1e-8


@dataclass(frozen=True)
class SplineTask:
    """Knot layout, per-round data and the positive lam box: at least 3 increasing
    knots, each split as finite (T, n) arrays with one row per round (``x_val``
    and ``y_val`` as many rows as ``x_train`` and ``y_train``), all kept as
    float64, and finite ``0 < lambda_lower < lambda_upper``."""

    knots: np.ndarray
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    lambda_lower: float
    lambda_upper: float

    def __post_init__(self):
        object.__setattr__(self, "knots", _checked_knots(self.knots, 3))
        check_number("lambda_lower", self.lambda_lower, open_low=True)
        check_number("lambda_upper", self.lambda_upper, self.lambda_lower, open_low=True)
        for split in ("train", "val"):
            x = check_array(f"{split} x", getattr(self, f"x_{split}"), (None, None))
            object.__setattr__(self, f"x_{split}", x)
            object.__setattr__(self, f"y_{split}",
                               check_array(f"{split} y", getattr(self, f"y_{split}"), x.shape))
        if len(self.x_train) != len(self.x_val):
            raise ValueError("train and validation round counts differ")

    @property
    def T(self) -> int:
        return len(self.x_train)


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
    rows = np.arange(xc.size)
    basis[rows, left], basis[rows, left + 1] = f * (hi - xc), f * (xc - lo)
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


def _hessian(BtB, lv: float, omega: np.ndarray, ridge: np.ndarray) -> np.ndarray:
    """The inner Hessian at the scalar lam ``lv``; ``BtB`` may stack rounds."""
    return 2.0 * (BtB + lv * omega + ridge)


@dataclass(eq=False, repr=False, kw_only=True)
class SplineData(ProblemInstant):
    """A spline instant: BtB = B'B and Bty = B'y of its round's training batch,
    the validation batch, and the fixed ``omega`` and ``ridge`` = RIDGE_FLOOR * I
    that every round of a stream shares. Its ``mu_g`` and ``l_g1`` are init fields,
    the stream's batched bounds over the box, so a copy with another BtB must come
    from ``spline_stream``."""

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
        return _hessian(self.BtB, _lam_scalar(lam), self.omega, self.ridge)

    def inner_opt(self, lam):
        try:
            return np.linalg.solve(type(self).hess_g_betabeta(self, lam, None), 2.0 * self.Bty)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"singular spline normal equations at lam={_lam_scalar(lam)!r}"
            ) from exc

    def exact_hypergradient(self, lam):
        beta_hat = type(self).inner_opt(self, lam)
        x = np.linalg.solve(type(self).hess_g_betabeta(self, lam, beta_hat),
                            type(self).grad_f_beta(self, lam, beta_hat))
        return np.array([-2.0 * float(beta_hat.dot(self.omega.dot(x)))])


def spline_stream(task: SplineTask) -> list[SplineData]:
    """Materialize the per-round instants of a spline task in stacked passes: one
    basis call per split on its raveled rows, stacked B'B and B'y, and one batched
    ``eigvalsh`` per bound of the lam box on the stacked rounds' Hessians."""
    k, omega = task.knots.size, roughness_penalty(task.knots)
    ridge = RIDGE_FLOOR * np.eye(k)
    B_tr, B_val = (linear_spline_basis(x.ravel(), task.knots).reshape(*x.shape, k)
                   for x in (task.x_train, task.x_val))
    Bt_tr = B_tr.transpose(0, 2, 1)
    BtB = np.matmul(Bt_tr, B_tr)
    Bty = np.matmul(Bt_tr, task.y_train[:, :, None])[:, :, 0]
    mu_g = np.linalg.eigvalsh(_hessian(BtB, _lam_scalar([task.lambda_lower]), omega, ridge))[:, 0]
    l_g1 = np.linalg.eigvalsh(_hessian(BtB, _lam_scalar([task.lambda_upper]), omega, ridge))[:, -1]
    box = (task.lambda_lower, task.lambda_upper)
    rounds = zip(BtB, Bty, B_val, task.y_val, mu_g.tolist(), l_g1.tolist())
    return [SplineData(t, 1, k, mu, l, lambda_box=box, BtB=BtB_t, Bty=Bty_t, B_val=B_val_t,
                       y_val=y_val_t, omega=omega, ridge=ridge)
            for t, (BtB_t, Bty_t, B_val_t, y_val_t, mu, l) in enumerate(rounds, 1)]


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
    x_train, y_train = np.empty((T, n_train)), np.empty((T, n_train))
    x_val, y_val = np.empty((T, n_val)), np.empty((T, n_val))
    for t in range(T):
        frac = t / max(T - 1, 1)
        freq = freq_start + (freq_end - freq_start) * frac
        amp = amp_start + (amp_end - amp_start) * frac
        for x, y in ((x_train[t], y_train[t]), (x_val[t], y_val[t])):
            x[:] = rng.uniform(0.0, 1.0, x.size)
            truth = amp * np.sin(2.0 * np.pi * freq * x) + 0.5 * x
            y[:] = truth + noise_std * rng.standard_normal(x.size)
    return SplineTask(np.linspace(0.0, 1.0, n_knots), x_train, y_train, x_val, y_val,
                      lambda_lower, lambda_upper)
