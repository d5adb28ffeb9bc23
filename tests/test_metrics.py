import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obbo
from obbo.geometry import FeasibleSet, Regularizer, generalized_projection
from obbo.hypergrad import DivergenceError
from obbo.metrics import (
    build_grid,
    compute_regret_series,
    hypergradient_error,
    path_variation_terms,
    variation_report,
)
from obbo.optimizers import Adaptive, ObboConfig, run_obbo
from obbo.problems import (
    DriftSpec,
    make_drifting_spline_task,
    meta_toy_stream,
    quadratic_instant,
    quadratic_stream,
    spline_stream,
)

def make_stream(T=25, drift=None, amp=0.3, seed=21, d1=2, d2=3, kappa=6.0):
    return quadratic_stream(
        d1=d1,
        d2=d2,
        T=T,
        kappa_target=kappa,
        drift=drift or DriftSpec.decaying(1.0),
        seed=seed,
        cos_amplitude=amp,
    )


def grid_for(stream, n=64, extra=None):
    d1 = stream[0].d1
    return build_grid(-np.ones(d1), np.ones(d1), n=n, extra=extra)


def first_term(stream, lam, alpha, w):
    """Round 1's regret term of a one-round OBBO run started at lam."""
    config = ObboConfig(alpha=alpha, w=w, lambda0=np.asarray(lam, dtype=float))
    trace = run_obbo(stream[:1], config)
    return compute_regret_series(stream, trace).terms[0]


def estimator_error(stream, trace):
    return hypergradient_error(trace, compute_regret_series(stream, trace).exact_grads)


class TestBlrTerm:
    def test_zero_at_stationary_point(self):
        inst = quadratic_instant(t=1, A=[[2.0]], b=[0.5], Q=[[1.0]], c=[0.5])
        # stationary point of F(lam) = (2 lam)^2 / 2: lam = 0
        assert first_term([inst], np.zeros(1), 0.5, w=1) == 0.0

    def test_w1_reduction_is_squared_gradient_norm(self):
        stream = make_stream(T=1)
        lam = np.array([0.3, -0.8])
        g = stream[0].exact_hypergradient(lam)
        assert first_term(stream, lam, 0.4, w=1) == float(g @ g)

    def test_zero_padding_divides_by_w(self):
        stream = make_stream(T=1)
        lam = np.array([0.3, -0.8])
        term_w1 = first_term(stream, lam, 0.4, w=1)
        term_w4 = first_term(stream, lam, 0.4, w=4)
        assert term_w4 == pytest.approx(term_w1 / 16.0)


class TestRegretSeries:
    def test_series_identity_under_reduction(self):
        stream = make_stream(T=30)
        config = ObboConfig(alpha=0.05, eta=0.1, K=6, w=5)
        trace = run_obbo(stream, config)
        series = compute_regret_series(stream, trace)
        np.testing.assert_array_equal(series.terms, series.euclidean_terms)
        np.testing.assert_array_equal(series.cumulative, series.euclidean_cumulative)

    def test_series_diverge_with_geometry(self):
        stream = make_stream(T=30)
        config = ObboConfig(alpha=0.05, eta=0.1, K=6, w=5, phi=Adaptive())
        trace = run_obbo(stream, config)
        series = compute_regret_series(stream, trace)
        assert not np.allclose(series.terms, series.euclidean_terms)

    def test_terms_nonnegative_finite_cumsum_monotone(self):
        stream = make_stream(T=40, drift=DriftSpec.sublinear(0.5))
        config = ObboConfig(
            alpha=0.05,
            eta=0.1,
            K=6,
            w=4,
            regularizer=Regularizer.l1(0.01),
            feasible=FeasibleSet.box([-2.0, -2.0], [2.0, 2.0]),
            lambda0=np.zeros(2),
        )
        trace = run_obbo(stream, config)
        series = compute_regret_series(stream, trace)
        for arr in (series.terms, series.euclidean_terms):
            assert np.all(arr >= 0.0)
            assert np.all(np.isfinite(arr))
        assert np.all(np.diff(series.cumulative) >= 0.0)

    def test_window_average_uses_historical_iterates(self):
        stream = make_stream(T=6)
        config = ObboConfig(alpha=0.08, eta=0.1, K=5, w=3)
        trace = run_obbo(stream, config)
        series = compute_regret_series(stream, trace)
        t = 4
        expected = (
            stream[t].exact_hypergradient(trace.lambdas[t])
            + stream[t - 1].exact_hypergradient(trace.lambdas[t - 1])
            + stream[t - 2].exact_hypergradient(trace.lambdas[t - 2])
        ) / 3.0
        assert series.euclidean_terms[t] == pytest.approx(float(expected @ expected))

    @pytest.mark.parametrize("drift", [DriftSpec.decaying(), DriftSpec.sublinear()],
                             ids=["decaying", "sublinear"])
    def test_shorter_horizon_is_a_prefix(self, drift):
        # A T = 150 stream is the first 150 instants of the T = 1,200 stream,
        # and runs are causal, so one long run's blr_cum and blr_eucl_cum
        # hold every shorter horizon's regret (ROADMAP item 24).
        short, long = (quadratic_stream(4, 6, T, kappa_target=100, drift=drift, seed=3)
                       for T in (150, 1200))
        assert len(short) == 150
        for a, b in zip(short, long):
            np.testing.assert_array_equal(a.b, b.b)
            np.testing.assert_array_equal(a.c, b.c)
        config = ObboConfig(alpha=0.02, K=12, w=10, clip_threshold=1000.0)
        short_run, long_run = (compute_regret_series(s, run_obbo(s, config)) for s in (short, long))
        np.testing.assert_array_equal(short_run.cumulative, long_run.cumulative[:150])
        np.testing.assert_array_equal(short_run.euclidean_cumulative,
                                      long_run.euclidean_cumulative[:150])


def per_window_series(stream, trace, window_sum):
    """The regret terms round by round: each window's sum of exact gradients
    over w, projected under that round's recorded diagonal."""
    grads = np.array([stream[t].exact_hypergradient(lam) for t, lam in enumerate(trace.lambdas)])
    h, X = trace.config.regularizer, trace.config.feasible
    terms, eucl = [], []
    for t, (lam, diag) in enumerate(zip(trace.lambdas, trace.phi_diags)):
        smoothed = window_sum(grads[max(0, t - trace.config.w + 1) : t + 1]) / trace.config.w
        eucl.append(float(smoothed.dot(smoothed)))
        g = generalized_projection(lam, smoothed, trace.config.alpha, diag, h, X)
        terms.append(float(g.dot(g)))
    return grads, np.array(terms), np.array(eucl)


def oldest_first(rows):
    total = rows[0]
    for row in rows[1:]:
        total = total + row
    return total


class TestWindowSums:
    """The series' shifted-add window sums give the bits of summing each
    window on its own, for windows from 1 to longer than the run."""

    @staticmethod
    def assert_same_series(stream, trace, window_sum):
        grads, terms, eucl = per_window_series(stream, trace, window_sum)
        series = compute_regret_series(stream, trace)
        assert np.array_equal(series.exact_grads, grads)
        assert np.array_equal(series.terms, terms)
        assert np.array_equal(series.euclidean_terms, eucl)
        assert np.array_equal(series.cumulative, np.cumsum(terms))

    @pytest.mark.parametrize("w", [1, 3, 30, 35])
    def test_full_space(self, w):
        stream = make_stream(T=30, d1=3, d2=4)
        trace = run_obbo(stream, ObboConfig(alpha=0.05, eta=0.1, K=6, w=w, phi=Adaptive()))
        self.assert_same_series(stream, trace, lambda rows: rows.sum(axis=0))

    @pytest.mark.parametrize("w", [1, 3, 30, 35])
    def test_box_and_l1(self, w):
        stream = make_stream(T=30, d1=3, d2=4, drift=DriftSpec.sublinear(0.5))
        config = ObboConfig(
            alpha=0.05, eta=0.1, K=6, w=w, phi=Adaptive(),
            regularizer=Regularizer.l1(0.05),
            feasible=FeasibleSet.box([-0.2, -0.2, -0.2], [0.2, 0.2, 0.2]),
            lambda0=np.zeros(3),
        )
        trace = run_obbo(stream, config)
        assert np.any(np.abs(trace.lambdas) == 0.2) and np.any(trace.lambdas == 0.0)
        self.assert_same_series(stream, trace, lambda rows: rows.sum(axis=0))

    @pytest.mark.parametrize("w", [1, 3, 30, 35])
    def test_one_column_adds_oldest_first(self, w):
        # numpy sums an (n, 1) stack pairwise from 8 rows on, so at d1 = 1 the
        # series adds each window oldest first, as it does at every d1 > 1.
        stream = spline_stream(make_drifting_spline_task(seed=4, T=30, n_knots=8))
        config = ObboConfig(
            alpha=0.02, w=w, estimator="exact", phi=Adaptive(),
            feasible=FeasibleSet.box([1e-4], [10.0]), lambda0=np.array([0.5]),
        )
        trace = run_obbo(stream, config)
        self.assert_same_series(stream, trace, oldest_first)


class TestPathVariation:
    def test_static_stream_is_zero(self):
        stream = make_stream(T=15, drift=DriftSpec.static())
        report = variation_report(stream, grid_for(stream))
        assert report["h1"] == 0.0
        assert report["h2"] == 0.0

    def test_quadratic_stream_matches_offset_path(self):
        stream = make_stream(T=40)
        report = variation_report(stream, grid_for(stream))
        zero = np.zeros(2)
        offsets = [inst.inner_opt(zero) for inst in stream]
        for p, got in ((1, report["h1"]), (2, report["h2"])):
            expected = sum(
                np.linalg.norm(offsets[i] - offsets[i - 1]) ** p
                for i in range(1, len(stream))
            )
            assert got == pytest.approx(expected, rel=1e-9)

    def test_decaying_drift_p2_partial_sums_bounded(self):
        stream = make_stream(T=120)
        grid = grid_for(stream, n=16)
        terms = path_variation_terms(stream, 2, grid)
        partial = np.cumsum(terms)
        bound = np.cumsum([t ** (-2.0) for t in range(1, 120)])
        assert np.all(partial <= 2.0 * bound + 1e-9)
        assert partial[-1] <= 2.0 * np.pi**2 / 6.0

    def test_sublinear_drift_h2_over_t_decreases(self):
        stream = make_stream(T=300, drift=DriftSpec.sublinear(0.5))
        grid = grid_for(stream, n=8)
        terms = path_variation_terms(stream, 2, grid)
        ratios = [np.sum(terms[: T - 1]) / T for T in (75, 150, 300)]
        assert ratios[2] < ratios[1] < ratios[0]


class TestFunctionVariation:
    def test_static_stream_is_zero(self):
        stream = make_stream(T=10, drift=DriftSpec.static())
        assert variation_report(stream, grid_for(stream))["v1"] == 0.0

    def test_pure_offset_shift_sums_exactly(self):
        stream = make_stream(T=12, drift=DriftSpec.static())
        delta = 0.37
        for inst in stream:
            orig = inst.f_value
            inst.f_value = (
                lambda lam, beta, _orig=orig, _t=inst.t: _orig(lam, beta) + _t * delta
            )
        got = variation_report(stream, grid_for(stream))["v1"]
        assert got == pytest.approx((len(stream) - 1) * delta, rel=1e-12)

    def test_grid_refinement_self_consistency(self):
        stream = make_stream(T=40, amp=0.4)
        coarse = variation_report(stream, grid_for(stream, n=64))["v1"]
        fine = variation_report(stream, grid_for(stream, n=1024))["v1"]
        assert abs(coarse - fine) <= 0.05 * fine

    def test_grid_monotonicity(self):
        stream = make_stream(T=25)
        small = variation_report(stream, grid_for(stream, n=16))
        large = variation_report(stream, grid_for(stream, n=256))
        assert small["v1"] <= large["v1"] + 1e-12
        assert small["h2"] <= large["h2"] + 1e-12

    def test_variation_report_bundles_all(self):
        stream = make_stream(T=20, drift=DriftSpec.sublinear(0.4))
        report = variation_report(stream, grid_for(stream))
        assert report["h1"] >= 0 and report["h2"] >= 0 and report["v1"] >= 0


class TestHypergradientError:
    def test_exact_estimator_gives_zero(self):
        stream = make_stream(T=15)
        config = ObboConfig(alpha=0.05, eta=0.1, K=4, w=2, estimator="exact")
        trace = run_obbo(stream, config)
        errs = estimator_error(stream, trace)
        np.testing.assert_allclose(errs, 0.0, atol=1e-22)

    def test_itd_error_decays_toward_warm_start_floor(self):
        stream = make_stream(T=60, drift=DriftSpec.static(), amp=0.2)
        # near-zero outer step isolates the warm-start transient: the series
        # must fall monotonically onto a positive floor and then stay there
        config = ObboConfig(alpha=1e-9, eta=0.15, K=4, w=1)
        trace = run_obbo(stream, config)
        errs = estimator_error(stream, trace)
        floor = errs[-1]
        assert floor > 0.0
        assert np.all(np.diff(errs[:30]) <= 1e-12)
        assert errs[10] - floor <= (errs[0] - floor) / 50.0
        np.testing.assert_allclose(errs[-10:], floor, rtol=1e-6)

    def test_doubling_k_squares_the_error_floor(self):
        # d2 = 1 keeps a single contraction mode and a near-zero outer step
        # pins lam, so the floor ratio between K and 2K runs is (1 - eta*q)^K
        inst_args = dict(A=[[1.2]], b=[0.3], Q=[[1.0]], c=[-0.4])
        stream_k = [quadratic_instant(t=t, **inst_args) for t in range(1, 41)]
        eta, K = 0.15, 6
        cfg_k = ObboConfig(alpha=1e-9, eta=eta, K=K, w=1)
        cfg_2k = ObboConfig(alpha=1e-9, eta=eta, K=2 * K, w=1)
        err_k = estimator_error(stream_k, run_obbo(stream_k, cfg_k))
        err_2k = estimator_error(stream_k, run_obbo(stream_k, cfg_2k))
        floor_ratio = np.sqrt(err_2k[-1] / err_k[-1])
        assert floor_ratio == pytest.approx((1.0 - eta) ** K, rel=0.05)

    def test_stream_shorter_than_trace_rejected(self):
        stream = make_stream(T=10)
        trace = run_obbo(stream, ObboConfig(alpha=0.05, eta=0.1, K=3, w=1))
        with pytest.raises(ValueError, match="shorter"):
            compute_regret_series(stream[:5], trace)

    def test_shape_mismatch_rejected(self):
        stream = make_stream(T=10)
        trace = run_obbo(stream, ObboConfig(alpha=0.05, eta=0.1, K=3, w=1))
        grads = compute_regret_series(stream, trace).exact_grads
        with pytest.raises(ValueError, match="shape"):
            hypergradient_error(trace, grads[:5])
        with pytest.raises(ValueError, match="shape"):
            hypergradient_error(trace, grads[:, :1])

    def test_overflowing_error_aborts_without_warning(self):
        # A finite estimate far enough from the exact one that its squared
        # error overflows, outside any caller's errstate.
        stream = make_stream(T=5)
        trace = run_obbo(stream, ObboConfig(alpha=0.05, eta=0.1, K=3, w=1))
        grads = compute_regret_series(stream, trace).exact_grads
        trace.estimates[2] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                hypergradient_error(trace, grads)
        assert str(info.value) == "hypergrad_err_sq became non-finite at t=3; aborting run"


def small_stream(kind, T, d, seed):
    drift = DriftSpec.sublinear(0.5)
    if kind == "meta":
        return meta_toy_stream(d, T, seed, drift)
    return quadratic_stream(d1=d, d2=d + 1, T=T, kappa_target=4.0, drift=drift, seed=seed)


small_streams = st.builds(
    small_stream,
    kind=st.sampled_from(["quadratic", "meta"]),
    T=st.integers(1, 6),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)


class TestSingleEvaluation:
    """The shared oracle evaluations give what a direct evaluation gives."""

    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(stream=small_streams, n=st.integers(1, 12))
    def test_variation_report_matches_double_loop(self, stream, n):
        grid = grid_for(stream, n=n)
        h1 = h2 = v1 = 0.0
        for prev, cur in zip(stream, stream[1:]):
            disp, change = 0.0, 0.0
            for lam in grid:
                b_prev, b_cur = prev.inner_opt(lam), cur.inner_opt(lam)
                disp = max(disp, float(np.linalg.norm(b_prev - b_cur)))
                change = max(change, abs(cur.f_value(lam, b_cur) - prev.f_value(lam, b_prev)))
            h1, h2, v1 = h1 + disp, h2 + disp**2, v1 + change
        report = variation_report(stream, grid)
        assert report["h1"] == pytest.approx(h1, rel=1e-12, abs=0.0)
        assert report["h2"] == pytest.approx(h2, rel=1e-12, abs=0.0)
        assert report["v1"] == pytest.approx(v1, rel=1e-12, abs=0.0)

    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(stream=small_streams, K=st.integers(1, 4), w=st.integers(1, 3))
    def test_error_matches_direct_exact_gradients(self, stream, K, w):
        trace = run_obbo(stream, ObboConfig(K=K, w=w))
        errs = hypergradient_error(trace, compute_regret_series(stream, trace).exact_grads)
        expected = []
        for t in range(trace.T):
            diff = trace.estimates[t] - stream[t].exact_hypergradient(trace.lambdas[t])
            expected.append(float(diff @ diff))
        np.testing.assert_array_equal(errs, expected)


class TestBuildGrid:
    def test_nested_and_deterministic(self):
        g1 = build_grid([-1.0, 0.0], [1.0, 2.0], n=16)
        g2 = build_grid([-1.0, 0.0], [1.0, 2.0], n=64)
        np.testing.assert_array_equal(g1[:16], g2[:16])

    def test_corners_included_low_dim(self):
        g = build_grid([-1.0, -1.0], [1.0, 1.0], n=8)
        corners = {(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)}
        have = {tuple(row) for row in g}
        assert corners <= have

    def test_extra_points_clipped_to_box(self):
        g = build_grid([0.0], [1.0], n=4, extra=np.array([[2.0], [-1.0]]))
        assert np.all(g >= 0.0) and np.all(g <= 1.0)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            build_grid([1.0], [1.0], n=4)

    def test_more_than_eight_dimensions_rejected(self):
        with pytest.raises(ValueError, match="at most 8 dimensions, got 9"):
            build_grid(np.zeros(9), np.ones(9), n=4)

    def test_scipy_never_imported(self):
        # obbo runs on numpy alone: no scipy module is loaded by importing the
        # library, by build_grid (which still gives the pinned grid), or by a
        # cell with variations on. Nor is the process pool's concurrent.futures,
        # or the logging it loads, which only a run of several jobs needs.
        script = (
            "import json, sys, tempfile\n"
            "import obbo.problems, obbo.metrics, obbo.harness\n"
            "from obbo.harness.config import ExperimentSpec\n"
            "from obbo.harness.runner import run_cell\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "before = scipy_modules()\n"
            "grid = obbo.metrics.build_grid([-1.0, 0.0], [1.0, 2.0], n=8, extra=[[3.0, 1.0]])\n"
            "after_grid = scipy_modules()\n"
            "exp = ExperimentSpec('v', [1], {'kind': 'meta', 'd': 2, 'T': 3},\n"
            "                     {'kind': 'obbo'}, {'variations': True, 'grid_size': 8})\n"
            "with tempfile.TemporaryDirectory() as out:\n"
            "    entry = run_cell(exp, 1, out)\n"
            "print(json.dumps({'before': before, 'after_grid': after_grid, 'grid': grid.tolist(),\n"
            "                  'after_cell': scipy_modules(), 'variations': 'variations' in entry,\n"
            "                  'pool': [m for m in ('concurrent.futures', 'logging') if m in sys.modules]}))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(obbo.__file__).resolve().parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        result = json.loads(out.stdout)
        assert result["before"] == result["after_grid"] == result["after_cell"] == []
        assert result["variations"]
        assert result["pool"] == []
        sobol = [[-1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [-0.5, 1.5],
                 [-0.25, 0.75], [0.75, 1.75], [0.25, 0.25], [-0.75, 1.25]]
        corners = [[-1.0, 0.0], [-1.0, 2.0], [1.0, 0.0], [1.0, 2.0]]
        assert result["grid"] == sobol + corners + [[1.0, 1.0]]


# Each input check of the metrics: a call, the exception it raises and that
# exception's message.
INPUT_CHECKS = {
    f"path-variation-p{p}": (
        lambda p=p: path_variation_terms(quadratic_stream(1, 1, 2), p, np.zeros((1, 1))),
        ValueError, "path variation order p must be 1 or 2")
    for p in (0, 3)
}
# NaN fails the ``lower >= upper`` check, so unchecked it gives a NaN grid.
INPUT_CHECKS["grid-lower-nan"] = (lambda: build_grid([float("nan")], [1.0], 4), ValueError,
                                  "grid lower must have finite entries")
# Unchecked, a wrong-width extra failed in numpy's broadcast, and a NaN row entered
# the grid, where ``variation_report`` blamed the stream ("variation h1 is not finite").
INPUT_CHECKS["grid-extra-shape"] = (lambda: build_grid([0, 0], [1, 1], 4, extra=np.ones((3, 3))),
                                    ValueError, "grid extra must have shape (n, 2), got (3, 3)")
INPUT_CHECKS["grid-extra-nan"] = (
    lambda: build_grid([0, 0], [1, 1], 4, extra=[[0.5, float("nan")]]), ValueError,
    "grid extra must have finite entries")


@pytest.mark.parametrize("make, error, message", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_input_check(make, error, message):
    with pytest.raises(error, match=re.escape(message)) as info:
        make()
    assert type(info.value) is error
