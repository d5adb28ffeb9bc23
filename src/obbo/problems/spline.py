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
are available in closed form through the normal equations.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline

from .base import ProblemInstant

__all__ = [
    "SplineTask",
    "linear_spline_basis",
    "roughness_penalty",
    "spline_stream",
    "make_drifting_spline_task",
    "load_spline_task_csv",
]

RIDGE_FLOOR = 1e-8
# Default (lower, upper) box of the smoothing weight lam for both task builders.
LAMBDA_BOX = (1e-4, 10.0)

Batch = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class SplineTask:
    """Knot layout, per-round data batches, and the positive lam box."""

    knots: np.ndarray
    train_batches: tuple[Batch, ...]
    val_batches: tuple[Batch, ...]
    lambda_lower: float
    lambda_upper: float

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        if knots.ndim != 1 or knots.size < 3:
            raise ValueError("need at least three sorted knots")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if not 0 < self.lambda_lower < self.lambda_upper:
            raise ValueError("lam box must satisfy 0 < lower < upper")
        if len(self.train_batches) != len(self.val_batches):
            raise ValueError("train and validation batch counts differ")

    @property
    def T(self) -> int:
        return len(self.train_batches)


def linear_spline_basis(x, knots) -> np.ndarray:
    """Dense design matrix of linear B-splines (hat functions) at the knots.

    Rows sum to one for x inside the knot span (partition of unity).
    """
    x = np.asarray(x, dtype=float)
    knots = np.asarray(knots, dtype=float)
    padded = np.r_[knots[0], knots, knots[-1]]
    xc = np.clip(x, knots[0], knots[-1])
    return BSpline.design_matrix(xc, padded, k=1).toarray()


def roughness_penalty(knots) -> np.ndarray:
    """Second-divided-difference penalty on the spline coefficients.

    Annihilates coefficient vectors sampled from affine functions, so heavily
    penalized fits approach the best straight line.
    """
    knots = np.asarray(knots, dtype=float)
    n = knots.size
    h = np.diff(knots)
    D = np.zeros((n - 2, n))
    for i in range(n - 2):
        D[i, i] = 1.0 / h[i]
        D[i, i + 1] = -(1.0 / h[i] + 1.0 / h[i + 1])
        D[i, i + 2] = 1.0 / h[i + 1]
    weights = 0.5 * (h[:-1] + h[1:])
    return D.T @ (weights[:, None] * D)


def _spline_instant(
    t: int,
    B_tr: np.ndarray,
    y_tr: np.ndarray,
    B_val: np.ndarray,
    y_val: np.ndarray,
    omega: np.ndarray,
    ridge: np.ndarray,
    lam_lower: float,
    lam_upper: float,
) -> ProblemInstant:
    """One round's oracles; ``ridge`` (= RIDGE_FLOOR * I) is fixed across the
    stream and passed in."""
    BtB = B_tr.T @ B_tr
    Bty = B_tr.T @ y_tr
    n = omega.shape[0]

    mu_g = 2.0 * float(np.linalg.eigvalsh(BtB + lam_lower * omega + ridge)[0])
    l_g1 = 2.0 * float(np.linalg.eigvalsh(BtB + lam_upper * omega + ridge)[-1])
    if mu_g <= 0:
        raise ValueError(
            "inner problem is not strongly convex over the lam box; "
            "raise the lower bound or the ridge floor"
        )

    def _lam_scalar(lam):
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if lam.shape != (1,):
            raise ValueError("spline hyperparameter must be a length-1 vector")
        return float(lam[0])

    def f_value(lam, beta):
        r = B_val @ beta - y_val
        return float(r @ r)

    def grad_f_lambda(lam, beta):
        return np.zeros(1)

    def grad_f_beta(lam, beta):
        return 2.0 * (B_val.T @ (B_val @ beta - y_val))

    def grad_g_beta(lam, beta):
        lv = _lam_scalar(lam)
        return 2.0 * (BtB @ beta - Bty + lv * (omega @ beta) + RIDGE_FLOOR * beta)

    def hvp_g_betabeta(lam, beta, v):
        lv = _lam_scalar(lam)
        return 2.0 * (BtB @ v + lv * (omega @ v) + RIDGE_FLOOR * v)

    def hvp_g_lambdabeta(lam, beta, v):
        return np.array([2.0 * float(beta @ (omega @ v))])

    def inner_opt(lam):
        lv = _lam_scalar(lam)
        H = BtB + lv * omega + ridge
        try:
            return np.linalg.solve(H, Bty)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                f"singular spline normal equations at lam={lv!r}"
            ) from exc

    def exact_hypergradient(lam):
        lv = _lam_scalar(lam)
        beta_hat = inner_opt(lam)
        rhs = grad_f_beta(lam, beta_hat)
        x = np.linalg.solve(2.0 * (BtB + lv * omega + ridge), rhs)
        return np.array([-2.0 * float(beta_hat @ (omega @ x))])

    return ProblemInstant(
        t=t,
        d1=1,
        d2=n,
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
    )


def spline_stream(task: SplineTask) -> list[ProblemInstant]:
    """Materialize the per-round oracle bundles for a spline task."""
    omega = roughness_penalty(task.knots)
    ridge = RIDGE_FLOOR * np.eye(omega.shape[0])
    instants = []
    for i, ((x_tr, y_tr), (x_val, y_val)) in enumerate(
        zip(task.train_batches, task.val_batches)
    ):
        B_tr = linear_spline_basis(x_tr, task.knots)
        B_val = linear_spline_basis(x_val, task.knots)
        instants.append(
            _spline_instant(
                t=i + 1,
                B_tr=B_tr,
                y_tr=np.asarray(y_tr, dtype=float),
                B_val=B_val,
                y_val=np.asarray(y_val, dtype=float),
                omega=omega,
                ridge=ridge,
                lam_lower=task.lambda_lower,
                lam_upper=task.lambda_upper,
            )
        )
    return instants


def make_drifting_spline_task(
    seed: int,
    T: int,
    n_knots: int = 12,
    n_train: int = 60,
    n_val: int = 30,
    noise_std: float = 0.25,
    lambda_lower: float = LAMBDA_BOX[0],
    lambda_upper: float = LAMBDA_BOX[1],
    freq_start: float = 0.5,
    freq_end: float = 4.0,
    amp_start: float = 0.2,
    amp_end: float = 1.5,
) -> SplineTask:
    """Synthetic nonstationary regression stream on [0, 1].

    The ground truth morphs from a nearly flat low-frequency wave to a strong
    high-frequency one, so the optimal smoothing weight drifts downward over
    the stream; a fixed hyperparameter cannot track it.
    """
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


def load_spline_task_csv(
    path,
    knots,
    lambda_lower: float = LAMBDA_BOX[0],
    lambda_upper: float = LAMBDA_BOX[1],
) -> SplineTask:
    """Read per-round batches from a CSV of (t, split, x, y) rows.

    ``split`` is ``train`` or ``val``; rounds are taken in increasing t order
    and every round must provide both splits.
    """
    rounds: dict[int, dict[str, list[tuple[float, float]]]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"t", "split", "x", "y"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"spline CSV must have columns {sorted(required)}")
        for row in reader:
            t = int(row["t"])
            split = row["split"].strip().lower()
            if split not in ("train", "val"):
                raise ValueError(f"unknown split {row['split']!r} at t={t}")
            rounds.setdefault(t, {"train": [], "val": []})[split].append(
                (float(row["x"]), float(row["y"]))
            )
    train, val = [], []
    for t in sorted(rounds):
        for split, dest in (("train", train), ("val", val)):
            pairs = rounds[t][split]
            if not pairs:
                raise ValueError(f"round t={t} is missing its {split} batch")
            arr = np.asarray(pairs, dtype=float)
            dest.append((arr[:, 0], arr[:, 1]))
    return SplineTask(
        knots=np.asarray(knots, dtype=float),
        train_batches=tuple(train),
        val_batches=tuple(val),
        lambda_lower=lambda_lower,
        lambda_upper=lambda_upper,
    )
