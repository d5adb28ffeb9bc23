"""Regret and regularity instrumentation over completed runs.

These functions consume the exact-solution oracles that solvers are not
allowed to touch: true hypergradients at the trace's historical iterates for
the local-regret series and estimator-error tracking, and the inner-solution
map for path/function variation of the stream. Suprema over the decision set
are approximated on a deterministic low-discrepancy grid (plus box corners
and any visited iterates the caller appends): the unscrambled Sobol sequence
for d <= 8, by Bratley & Fox's Gray-code recursion (ACM TOMS 14, 1988, Alg.
659) with Joe & Kuo's direction numbers (SIAM J. Sci. Comput. 30, 2008).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import generalized_projection
from .hypergrad import DivergenceError
from .optimizers import RunTrace
from .problems.base import Stream, check_array

__all__ = [
    "RegretSeries",
    "compute_regret_series",
    "path_variation_terms",
    "function_variation_terms",
    "variation_grid",
    "variation_report",
    "hypergradient_error",
    "build_grid",
]

# Joe & Kuo's (degree s, coefficients a, direction integers m_1..m_s), dimensions 2..8.
_JOE_KUO = ((1, 0, (1,)), (2, 1, (1, 3)), (3, 1, (1, 3, 1)), (3, 2, (1, 1, 1)),
            (4, 1, (1, 1, 3, 3)), (4, 4, (1, 3, 5, 13)), (5, 2, (1, 1, 5, 5, 17)))
SOBOL_MAX_DIM = len(_JOE_KUO) + 1


@dataclass
class RegretSeries:
    """Per-round local-regret terms and running sums, and the run's records.

    ``terms`` uses the generalized projection under the run's own geometry;
    ``euclidean_terms`` is the companion squared norm of the smoothed true
    hypergradient. Under the Euclidean / unregularized / unconstrained
    reduction the two series coincide term by term. ``exact_grads`` (T x d1)
    holds the true hypergradient of each round's objective at that round's
    iterate, which ``hypergradient_error`` reads too. ``smoothed_norm_sq``
    is the squared norm of the run's own clipped window average. The records
    ``outer_loss`` and ``inner_residual`` are f and ||grad_beta g|| at each
    round's (lambdas[t], betas[t]), ``gen_proj_norm_sq`` is
    ||(lambda_t - lambda_{t+1}) / alpha||^2.
    """

    terms: np.ndarray
    cumulative: np.ndarray
    euclidean_terms: np.ndarray
    euclidean_cumulative: np.ndarray
    exact_grads: np.ndarray
    smoothed_norm_sq: np.ndarray
    outer_loss: np.ndarray
    inner_residual: np.ndarray
    gen_proj_norm_sq: np.ndarray


def compute_regret_series(stream: Stream, trace: RunTrace) -> RegretSeries:
    """Local-regret series and per-round records of a completed run.

    It takes each ``stream[t]`` once by index (never iterating the stream) and
    forms the exact hypergradient, ``f_value`` and the norm of ``grad_g_beta``
    at ``(trace.lambdas[t], trace.betas[t])``: in one ``regret_rows(lambdas, betas)``
    pass of a stream that has one (``QuadraticStream``), else by calling each
    instant's fields, as on a slice or a ``list`` of a stream's instants. The smoothed
    true hypergradient at round t averages exact gradients of the w most
    recent objectives at their historical iterates (zero-padded before the
    start), and each term is the squared generalized projection of that
    average under the round's distance generator (the diagonal the run
    recorded and checked), step size, regularizer and feasible set. A record
    or term that is not finite raises ``DivergenceError`` naming it and t.
    """
    T, w, alpha = trace.T, trace.config.w, trace.config.alpha
    if len(stream) < T:
        raise ValueError("stream shorter than trace")
    lambdas, betas = trace.lambdas, trace.betas
    instants = [stream[t] for t in range(T)]  # on the kernel path too, so a proxy sees each round
    kernel = getattr(stream, "regret_rows", None)
    with np.errstate(over="ignore", invalid="ignore"):
        if kernel is not None:
            grads, outer_loss, residual_sq = kernel(lambdas, betas)
        else:
            grads, outer_loss, residual_sq = np.empty(lambdas.shape), np.empty(T), np.empty(T)
            for t, (instant, lam, beta) in enumerate(zip(instants, lambdas, betas)):
                grads[t] = instant.exact_hypergradient(lam)
                outer_loss[t] = instant.f_value(lam, beta)
                r = instant.grad_g_beta(lam, beta)
                residual_sq[t] = r.dot(r)
        nexts = np.concatenate((lambdas[1:], trace.lambda_final[None]))
        records = {
            "gen_proj_norm_sq": (((lambdas - nexts) / alpha) ** 2).sum(axis=1),
            "outer_loss": outer_loss,
            "inner_residual": np.sqrt(residual_sq),
        }
    for name, values in records.items():
        _finite(name, values)
    # Window sums as w shifted adds of zero-padded rows, oldest first, as
    # ``grads[lo : t + 1].sum(axis=0)`` adds them for d1 > 1 (at d1 = 1 numpy
    # sums a window of 8 or more rows pairwise, which can differ in last bits).
    padded = np.concatenate((np.zeros((w - 1, grads.shape[1])), grads))
    sums = padded[:T].copy()
    for j in range(1, w):
        sums += padded[j : j + T]
    h, X = trace.config.regularizer, trace.config.feasible
    smoothed = sums / w
    projections = np.array([
        generalized_projection(lam, s, alpha, diag, h, X)
        for lam, s, diag in zip(lambdas, smoothed, trace.phi_diags)
    ])
    terms = _squared_norms("blr_term", projections)
    eucl = _squared_norms("blr_eucl_term", smoothed)
    with np.errstate(over="ignore"):
        cumulative, eucl_cumulative = np.cumsum(terms), np.cumsum(eucl)
    return RegretSeries(
        terms=terms,
        cumulative=_finite("blr_cum", cumulative),
        euclidean_terms=eucl,
        euclidean_cumulative=_finite("blr_eucl_cum", eucl_cumulative),
        exact_grads=grads,
        smoothed_norm_sq=_squared_norms("smoothed_norm_sq", trace.smoothed),
        **records,
    )


def hypergradient_error(trace: RunTrace, exact_grads: np.ndarray) -> np.ndarray:
    """Squared error of the stored per-round estimates against the exact
    hypergradients ``compute_regret_series`` returned for the same run.

    Raises ``DivergenceError`` naming the first round whose squared error is
    not finite, such as a finite estimate so far off that its square overflows.
    """
    exact_grads = check_array("exact_grads", exact_grads, trace.estimates.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = trace.estimates - exact_grads
    return _squared_norms("hypergrad_err_sq", diffs)


def _squared_norms(name: str, x: np.ndarray) -> np.ndarray:
    """The row dot of each round's row of a (T, d) ``x``, as a stacked (1, d) @ (d, 1)
    ``matmul`` (the bits of ``row.dot(row)``), checked by ``_finite``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(name, np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def _finite(name: str, values: np.ndarray) -> np.ndarray:
    """``values``, one per round t = 1, 2, ...; raises ``DivergenceError``
    naming ``name`` and the first t that is not finite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DivergenceError(f"{name} became non-finite at t={bad[0] + 1}; aborting run")
    return values


def _grid_sweep(stream: Stream, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One pass over the stream: per instant, the inner optimum at each grid
    point and the outer objective there. Returns, per transition, the sup
    over the grid of the optimum's displacement and of the objective change."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    n = len(stream) - 1
    sup_disp, sup_change = np.empty(n), np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(stream)):
            instant = stream[i]
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


def variation_report(stream: Stream, grid: np.ndarray) -> dict[str, float]:
    """The manifest's path variations ``h1``, ``h2`` and objective variation ``v1``;
    a sum that is not finite raises ``DivergenceError`` naming it."""
    sup_disp, sup_change = _grid_sweep(stream, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        paths = {f"h{p}": float(np.sum(_powers(sup_disp, p))) for p in (1, 2)}
        report = {**paths, "v1": float(np.sum(sup_change))}
    for name, value in report.items():
        if not math.isfinite(value):
            raise DivergenceError(f"variation {name} is not finite ({value}); aborting run")
    return report


def variation_grid(trace: RunTrace, n: int) -> np.ndarray:
    """``build_grid`` of n points in the run's box, else its iterates' span, plus its iterates."""
    feas = trace.config.feasible
    if feas.kind == "box":
        lower, upper = feas.lower, feas.upper
    else:
        span = np.maximum(1.0, np.abs(trace.lambdas).max(axis=0))
        lower, upper = -span, span
    return build_grid(lower, upper, n=n, extra=trace.lambdas)


def _sobol(n: int, d: int) -> np.ndarray:
    """The first n unscrambled Sobol points in d dimensions, as 30-bit integers
    over 2**30: point i XORs the direction numbers at the set bits of gray(i)."""
    m = [[1] * 30]  # dimension 1: the van der Corput sequence
    for s, a, init in _JOE_KUO[: d - 1]:
        m.append(row := list(init))
        for k in range(s, 30):  # m_k = m_{k-s} ^ 2^s m_{k-s} ^ sum_i a_i 2^i m_{k-i}
            new = row[k - s] ^ (row[k - s] << s)
            for i in range(1, s):
                new ^= (a >> (s - 1 - i) & 1) * row[k - i] << i
            row.append(new)
    v = np.array(m, dtype=np.int64).T << np.arange(29, -1, -1)[:, None]
    gray = np.arange(n) ^ (np.arange(n) >> 1)
    points = np.zeros((n, d), dtype=np.int64)
    for k in range(max(n - 1, 0).bit_length()):
        points[(gray >> k) & 1 == 1] ^= v[k]
    return points / 2**30


def build_grid(lower, upper, n: int, extra: np.ndarray | None = None) -> np.ndarray:
    """Deterministic evaluation grid inside a box.

    The first n points follow the unscrambled Sobol sequence, nested, so a
    larger grid contains every smaller one: Bratley & Fox's Gray-code
    recursion (Alg. 659) with Joe & Kuo's direction numbers, for d <= 8
    (``SOBOL_MAX_DIM``). Box corners are appended for d <= 4 so affine
    objectives attain their sup exactly, and any extra rows (e.g. a trace's
    visited iterates, clipped to the box) come last.
    """
    lower = check_array("grid lower", lower, (None,))
    upper = check_array("grid upper", upper, lower.shape)
    d = lower.size
    if np.any(lower >= upper):
        raise ValueError("grid bounds must satisfy lower < upper")
    if d > SOBOL_MAX_DIM:
        raise ValueError(f"the Sobol grid supports at most {SOBOL_MAX_DIM} dimensions, got {d}")
    grid = lower + _sobol(n, d) * (upper - lower)
    parts = [grid]
    if d <= 4:
        corners = np.array(
            np.meshgrid(*[(lo, hi) for lo, hi in zip(lower, upper)], indexing="ij")
        ).reshape(d, -1).T
        parts.append(corners)
    if extra is not None:
        extra = check_array("grid extra", np.atleast_2d(extra), (None, d))
        parts.append(np.clip(extra, lower, upper))
    return np.vstack(parts)
