"""Regret and regularity instrumentation over completed runs.

These functions consume the exact-solution oracles that solvers are not
allowed to touch: true hypergradients at the trace's historical iterates for
the local-regret series and estimator-error tracking, and the inner-solution
map for path/function variation of the stream. Suprema over the decision set
are approximated on a deterministic low-discrepancy grid (plus box corners
and any visited iterates the caller appends).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import DistanceGenerator, generalized_projection
from .hypergrad import DivergenceError, exact_hypergradient
from .optimizers import RunTrace
from .problems.base import Stream

__all__ = [
    "RegretSeries",
    "VariationReport",
    "compute_regret_series",
    "path_variation_terms",
    "function_variation_terms",
    "variation_report",
    "hypergradient_error",
    "build_grid",
]


@dataclass
class RegretSeries:
    """Per-round local-regret terms and running sums.

    ``terms`` uses the generalized projection under the run's own geometry;
    ``euclidean_terms`` is the companion squared norm of the smoothed true
    hypergradient. Under the Euclidean / unregularized / unconstrained
    reduction the two series coincide term by term. ``exact_grads`` (T x d1)
    holds the true hypergradient of each round's objective at that round's
    iterate, which ``hypergradient_error`` reads too.
    """

    terms: np.ndarray
    cumulative: np.ndarray
    euclidean_terms: np.ndarray
    euclidean_cumulative: np.ndarray
    exact_grads: np.ndarray


def compute_regret_series(stream: Stream, trace: RunTrace) -> RegretSeries:
    """Local-regret series of a completed run against the exact oracles.

    The smoothed true hypergradient at round t averages exact gradients of
    the w most recent objectives at their historical iterates (zero-padded
    before the start), and each term is the squared generalized projection of
    that average under the round's distance generator, step size, regularizer
    and feasible set. The generator is the diagonal the run recorded for the
    round (ones for a Euclidean step), which the run checked to be finite.
    """
    T, w, alpha = trace.T, trace.w, trace.alpha
    if len(stream) < T:
        raise ValueError("stream shorter than trace")
    grads = np.array([exact_hypergradient(stream[t], trace.lambdas[t]) for t in range(T)])
    h, X = trace.config.regularizer, trace.config.feasible
    terms = np.empty(T)
    eucl = np.empty(T)
    for t in range(T):
        lo = max(0, t - w + 1)
        smoothed = grads[lo : t + 1].sum(axis=0) / w
        eucl[t] = float(smoothed @ smoothed)
        diag = trace.phi_diags[t]
        phi = DistanceGenerator("diagonal", diag, float(diag.min()))
        g = generalized_projection(trace.lambdas[t], smoothed, alpha, phi, h, X)
        terms[t] = float(g @ g)
    return RegretSeries(
        terms=terms,
        cumulative=np.cumsum(terms),
        euclidean_terms=eucl,
        euclidean_cumulative=np.cumsum(eucl),
        exact_grads=grads,
    )


def hypergradient_error(trace: RunTrace, exact_grads: np.ndarray) -> np.ndarray:
    """Squared error of the stored per-round estimates against the exact
    hypergradients ``compute_regret_series`` returned for the same run.

    Raises ``DivergenceError`` naming the first round whose squared error is
    not finite, such as a finite estimate so far off that its square overflows.
    """
    if np.shape(exact_grads) != trace.estimates.shape:
        raise ValueError(
            f"exact_grads has shape {np.shape(exact_grads)}, "
            f"expected the estimates' {trace.estimates.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = trace.estimates - exact_grads
    return _squared_norms("hypergrad_err_sq", diffs)


def _squared_norms(name: str, rows: np.ndarray) -> np.ndarray:
    """``row @ row`` for the row of each round t = 1, 2, ...; raises
    ``DivergenceError`` naming ``name`` and the first t that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.array([float(row @ row) for row in rows])
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise DivergenceError(f"{name} became non-finite at t={bad[0] + 1}; aborting run")
    return out


def _grid_sweep(stream: Stream, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One pass over the stream: per instant, the inner optimum at each grid
    point and the outer objective there. Returns, per transition, the sup
    over the grid of the optimum's displacement and of the objective change."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    n = len(stream) - 1
    sup_disp, sup_change = np.empty(n), np.empty(n)
    for i in range(len(stream)):
        instant = stream[i]
        if instant.inner_opt is None:
            raise ValueError(f"instant t={instant.t} provides no inner_opt oracle")
        betas = [instant.inner_opt(lam) for lam in grid]
        cur_val = np.asarray([instant.f_value(lam, b) for lam, b in zip(grid, betas)])
        cur_opt = np.asarray(betas)
        if i:
            sup_disp[i - 1] = np.max(np.linalg.norm(prev_opt - cur_opt, axis=1))
            sup_change[i - 1] = np.max(np.abs(cur_val - prev_val))
        prev_opt, prev_val = cur_opt, cur_val
    return sup_disp, sup_change


def _powers(sup_disp: np.ndarray, p: int) -> np.ndarray:
    return np.array([float(d ** p) for d in sup_disp])


def path_variation_terms(stream: Stream, p: int, grid: np.ndarray) -> np.ndarray:
    """Per-transition sup (over the grid) of the inner-optimum displacement^p."""
    if p not in (1, 2):
        raise ValueError("path variation order p must be 1 or 2")
    return _powers(_grid_sweep(stream, grid)[0], p)


def function_variation_terms(stream: Stream, grid: np.ndarray) -> np.ndarray:
    """Per-transition sup (over the grid) of the induced-objective change.

    The sum runs over the T-1 transitions realized inside the stream.
    """
    return _grid_sweep(stream, grid)[1]


@dataclass
class VariationReport:
    """Path variations of orders 1 and 2 plus the objective variation,
    with the grid the suprema were taken over."""

    h1: float
    h2: float
    v1: float
    grid: np.ndarray


def variation_report(stream: Stream, grid: np.ndarray) -> VariationReport:
    sup_disp, sup_change = _grid_sweep(stream, grid)
    return VariationReport(
        h1=float(np.sum(_powers(sup_disp, 1))),
        h2=float(np.sum(_powers(sup_disp, 2))),
        v1=float(np.sum(sup_change)),
        grid=np.atleast_2d(np.asarray(grid, dtype=float)),
    )


def build_grid(
    lower,
    upper,
    n: int = 64,
    extra: np.ndarray | None = None,
) -> np.ndarray:
    """Deterministic evaluation grid inside a box.

    The first n points follow the unscrambled Sobol sequence (nested, so a
    larger grid contains every smaller one); box corners are appended for
    d <= 4 so affine objectives attain their sup exactly, and any extra rows
    (e.g. a trace's visited iterates, clipped to the box) come last.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    d = lower.size
    if upper.size != d or np.any(lower >= upper):
        raise ValueError("grid bounds must satisfy lower < upper")
    from scipy.stats import qmc  # imported here: it costs ~0.5 s, and only variations need it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        points = qmc.Sobol(d, scramble=False).random(n)
    grid = lower + points * (upper - lower)
    parts = [grid]
    if d <= 4:
        corners = np.array(
            np.meshgrid(*[(lo, hi) for lo, hi in zip(lower, upper)], indexing="ij")
        ).reshape(d, -1).T
        parts.append(corners)
    if extra is not None:
        extra = np.atleast_2d(np.asarray(extra, dtype=float))
        parts.append(np.clip(extra, lower, upper))
    return np.vstack(parts)
