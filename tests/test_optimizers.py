import dataclasses
import warnings

import numpy as np
import pytest

from obbo.geometry import FeasibleSet, Regularizer
from obbo.hypergrad import (
    DivergenceError,
    NeumannParams,
    WindowBuffer,
    inner_gd,
    stochastic_hypergradient,
)
from obbo.optimizers import (
    ObboConfig,
    SobboConfig,
    default_neumann_bound,
    run_oagd,
    run_obbo,
    run_single_level,
    run_sobbo,
    run_sobow,
)
from obbo.problems import (
    DriftSpec,
    StreamConfig,
    make_drifting_spline_task,
    quadratic_stream,
    spline_stream,
)

from oracles import constant_gradient_instant


def static_stream(T=60, d1=2, d2=3, kappa=4.0, amp=0.0, seed=0, stochastic=None, **kw):
    cfg = StreamConfig(
        d1=d1, d2=d2, T=T, kappa_target=kappa, drift=DriftSpec.static(),
        seed=seed, cos_amplitude=amp, **kw,
    )
    return quadratic_stream(cfg, stochastic=stochastic)


def stationary_point(stream):
    """Analytic minimizer of the static convex induced objective.

    Reconstructs A, b, c from the oracles: inner_opt(0) = b, columns of A from
    unit inputs, and c from the outer gradient at beta = 0.
    """
    inst = stream[0]
    d1, d2 = inst.d1, inst.d2
    b = inst.inner_opt(np.zeros(d1))
    A = np.column_stack([inst.inner_opt(e) - b for e in np.eye(d1)])
    c = -inst.grad_f_beta(np.zeros(d1), np.zeros(d2))
    return np.linalg.solve(A.T @ A, A.T @ (c - b))


class TestRunObbo:
    def test_static_convex_reaches_stationary_point(self):
        stream = static_stream(T=300, amp=0.0)
        # K large enough that the unrolled estimate's bias (1 - eta*mu)^K
        # sits far below the 1e-4 target
        config = ObboConfig(alpha=0.15, eta=0.2, K=60, w=1)
        trace = run_obbo(stream, config)
        target = stationary_point(stream)
        assert np.linalg.norm(trace.lambda_final - target) <= 1e-4
        # realized generalized-projection norms eventually shrink below any level
        assert trace.gen_proj_norm_sq[-1] < 1e-8
        assert trace.gen_proj_norm_sq[-1] < trace.gen_proj_norm_sq[10]

    def test_zero_gradient_keeps_lambda_fixed(self):
        stream = [constant_gradient_instant(t, [0.0, 0.0]) for t in range(1, 20)]
        config = ObboConfig(alpha=0.3, eta=0.5, K=2, w=4, lambda0=np.array([0.7, -0.2]))
        trace = run_obbo(stream, config)
        for row in trace.lambdas:
            np.testing.assert_array_equal(row, [0.7, -0.2])
        np.testing.assert_array_equal(trace.lambda_final, [0.7, -0.2])

    def test_clipping_bounds_stored_smoothed_norms(self):
        stream = [constant_gradient_instant(t, [300.0, -400.0]) for t in range(1, 30)]
        config = ObboConfig(alpha=1e-4, eta=0.5, K=1, w=3, clip_threshold=1000.0)
        trace = run_obbo(stream, config)
        norms_sq = np.sum(trace.smoothed**2, axis=1)
        assert np.all(norms_sq <= 1000.0 + 1e-9)

    def test_reduction_chain_performs_plain_steps_exactly(self):
        stream = static_stream(T=10, amp=0.3)
        config = ObboConfig(alpha=0.05, eta=0.1, K=5, w=1, estimator="exact")
        trace = run_obbo(stream, config)
        for t in range(trace.T - 1):
            expected = trace.lambdas[t] - 0.05 * trace.smoothed[t]
            np.testing.assert_array_equal(trace.lambdas[t + 1], expected)

    def test_monotone_descent_with_exact_gradients(self):
        stream = static_stream(T=100, amp=0.0)
        # alpha within the guarantee 3*rho/(4*l_F1), l_F1 from declared constants
        config = ObboConfig(alpha=None, eta=None, K=None, w=1, estimator="exact")
        trace = run_obbo(stream, config)
        values = [
            inst.f_value(lam, inst.inner_opt(lam))
            for inst, lam in zip(stream, trace.lambdas)
        ]
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-12)

    def test_feasibility_every_iterate(self):
        rng = np.random.default_rng(1)
        box = FeasibleSet.box([-0.5, -0.5], [0.5, 0.5])
        stream = static_stream(T=40, amp=0.5, seed=3)
        config = ObboConfig(
            alpha=0.2,
            eta=0.1,
            K=3,
            w=4,
            feasible=box,
            regularizer=Regularizer.l1(0.05),
            phi_mode="adaptive",
            lambda0=rng.uniform(-0.5, 0.5, 2),
        )
        trace = run_obbo(stream, config)
        for row in trace.lambdas:
            assert box.contains(row)
        assert box.contains(trace.lambda_final)

    def test_determinism_bitwise(self):
        stream = static_stream(T=25, amp=0.4, seed=5)
        config = ObboConfig(alpha=0.1, eta=0.1, K=4, w=3, phi_mode="adaptive")
        t1 = run_obbo(stream, config)
        t2 = run_obbo(stream, config)
        np.testing.assert_array_equal(t1.lambdas, t2.lambdas)
        np.testing.assert_array_equal(t1.estimates, t2.estimates)
        np.testing.assert_array_equal(t1.beta_final, t2.beta_final)

    def test_divergence_abort_names_step(self):
        stream = static_stream(T=10)
        config = ObboConfig(alpha=0.1, eta=50.0, K=400, w=1)
        with pytest.raises(DivergenceError, match="t=1"):
            run_obbo(stream, config)

    def test_overflowing_window_average_aborts(self):
        # Each estimate is finite, but the window sum of two overflows.
        stream = [constant_gradient_instant(t, [1e308, 1e308]) for t in range(1, 6)]
        config = ObboConfig(alpha=0.1, eta=0.1, K=2, w=2)
        with pytest.raises(DivergenceError, match="t=2"):
            run_obbo(stream, config)

    def test_overflowing_recorded_quantity_aborts(self):
        # The estimate and the iterate stay finite, but the squared
        # generalized projection norm of the first step overflows.
        stream = [constant_gradient_instant(t, [1e200, 1e200]) for t in range(1, 4)]
        config = ObboConfig(alpha=0.1, eta=0.1, K=2, w=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="t=1"):
                run_obbo(stream, config)

    def test_overflowing_adaptive_diagonal_rejected(self):
        # A finite estimate whose square overflows gives the adaptive
        # generator an infinite diagonal entry, which aborts the run.
        stream = [constant_gradient_instant(t, [1e200, 1e200]) for t in range(1, 6)]
        config = ObboConfig(alpha=0.1, eta=0.1, K=2, w=1, phi_mode="adaptive")
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="t=1"):
            run_obbo(stream, config)

    def test_spline_stream_requires_explicit_alpha(self):
        # The spline declares no l_f1, so no default outer step exists.
        stream = spline_stream(make_drifting_spline_task(seed=0, T=2))
        with pytest.raises(ValueError, match="set alpha explicitly"):
            run_obbo(stream, ObboConfig(estimator="exact"))

    def test_infeasible_lambda0_rejected(self):
        stream = static_stream(T=5)
        box = FeasibleSet.box([-1.0, -1.0], [1.0, 1.0])
        config = ObboConfig(alpha=0.1, eta=0.1, K=2, feasible=box, lambda0=np.array([2.0, 0.0]))
        with pytest.raises(ValueError):
            run_obbo(stream, config)


class TestRunSobbo:
    def test_zero_noise_matches_obbo_with_neumann_estimator(self):
        stream = static_stream(T=30, amp=0.4, seed=7, stochastic=True)
        m, w, alpha, eta, K = 4, 3, 0.1, 0.1, 5
        sobbo = SobboConfig(alpha=alpha, eta=eta, K=K, w=w, s=1, m=m)
        trace = run_sobbo(stream, sobbo, np.random.default_rng(99))

        # OBBO's Euclidean round written out with inner GD and the Neumann
        # estimator; at zero noise only the truncation level draws from the
        # generator.
        est_rng = np.random.default_rng(99)
        buffer = WindowBuffer(w)
        lam, beta = np.zeros(2), np.zeros(3)
        for i, inst in enumerate(stream):
            beta = inner_gd(inst, lam, beta, eta, K).final
            est = stochastic_hypergradient(inst, lam, beta, NeumannParams(m, inst.l_g1), est_rng)
            buffer.push(est)
            np.testing.assert_array_equal(trace.lambdas[i], lam)
            np.testing.assert_array_equal(trace.betas[i], beta)
            np.testing.assert_array_equal(trace.estimates[i], est)
            np.testing.assert_array_equal(trace.smoothed[i], buffer.average())
            lam = lam - alpha * buffer.average()
        np.testing.assert_array_equal(trace.lambda_final, lam)

    def test_determinism_bitwise(self):
        stream = static_stream(T=20, amp=0.2, seed=8, noise=(0.3, 0.2))
        config = SobboConfig(alpha=0.05, eta=0.05, K=4, w=4)
        t1 = run_sobbo(stream, config, np.random.default_rng(123))
        t2 = run_sobbo(stream, config, np.random.default_rng(123))
        np.testing.assert_array_equal(t1.lambdas, t2.lambdas)
        np.testing.assert_array_equal(t1.estimates, t2.estimates)

    def test_default_batch_and_neumann_bound(self):
        assert default_neumann_bound(1, 1.0, 10.0) == 1
        # kappa = 10: ceil(log(16)/log(1/0.9)) + 1 = ceil(26.32) + 1 = 28
        assert default_neumann_bound(16, 1.0, 10.0) == 28
        stream = static_stream(T=3, seed=9, stochastic=True)
        config = SobboConfig(alpha=0.05, eta=0.05, K=2, w=2)
        trace = run_sobbo(stream, config, np.random.default_rng(0))
        assert trace.T == 3

    def test_requires_stochastic_stream(self):
        stream = static_stream(T=5, stochastic=None)
        config = SobboConfig(alpha=0.05, eta=0.05, K=2)
        with pytest.raises(ValueError):
            run_sobbo(stream, config, np.random.default_rng(0))


class TestRunOagd:
    def test_w1_identical_to_obbo_with_implicit_estimator(self):
        stream = static_stream(T=25, amp=0.4, seed=10)
        kwargs = dict(alpha=0.1, eta=0.2, K=1, w=1)
        trace_oagd = run_oagd(stream, ObboConfig(**kwargs))
        trace_obbo = run_obbo(stream, ObboConfig(estimator="implicit", **kwargs))
        np.testing.assert_array_equal(trace_oagd.lambdas, trace_obbo.lambdas)
        np.testing.assert_array_equal(trace_oagd.betas, trace_obbo.betas)
        np.testing.assert_array_equal(trace_oagd.smoothed, trace_obbo.smoothed)

    def test_oracle_work_grows_linearly_in_window(self):
        def counting_stream(seed):
            stream = static_stream(T=30, amp=0.3, seed=seed)
            counts = {"hvp": 0}
            for inst in stream:
                orig = inst.hvp_g_betabeta

                def wrapped(lam, beta, v, _orig=orig):
                    counts["hvp"] += 1
                    return _orig(lam, beta, v)

                inst.hvp_g_betabeta = wrapped
            return stream, counts

        totals = {}
        for w in (1, 5, 10):
            stream, counts = counting_stream(seed=11)
            run_oagd(stream, ObboConfig(alpha=0.05, eta=0.2, K=1, w=w))
            totals[w] = counts["hvp"]
        # re-evaluating the window costs ~w Hessian solves per round
        assert totals[5] > 3 * totals[1] / 2
        assert totals[10] > 1.6 * totals[5]

        stream, counts = counting_stream(seed=11)
        run_obbo(stream, ObboConfig(alpha=0.05, eta=0.2, K=1, w=1))
        obbo_w1 = counts["hvp"]
        stream, counts = counting_stream(seed=11)
        run_obbo(stream, ObboConfig(alpha=0.05, eta=0.2, K=1, w=10))
        assert counts["hvp"] == obbo_w1  # window size is free for stored estimates

    def test_static_stream_same_limit_as_obbo(self):
        # alternating updates with K=1 need a small outer step to stay stable
        stream = static_stream(T=1200, amp=0.0, seed=12)
        trace_oagd = run_oagd(stream, ObboConfig(alpha=0.03, eta=None, K=1, w=1))
        trace_obbo = run_obbo(stream, ObboConfig(alpha=0.03, eta=0.2, K=60, w=1))
        assert np.linalg.norm(trace_oagd.lambda_final - trace_obbo.lambda_final) <= 1e-4


class TestRunSobow:
    def test_equals_obbo_euclidean_bitwise(self):
        stream = static_stream(T=30, amp=0.5, seed=13)
        config = ObboConfig(alpha=0.08, eta=0.1, K=4, w=5)
        t_sobow = run_sobow(stream, config)
        t_obbo = run_obbo(stream, config)
        np.testing.assert_array_equal(t_sobow.lambdas, t_obbo.lambdas)
        np.testing.assert_array_equal(t_sobow.smoothed, t_obbo.smoothed)

    def test_normalizes_geometry_to_reduction(self):
        stream = static_stream(T=10, amp=0.2, seed=14)
        config = ObboConfig(
            alpha=0.08,
            eta=0.1,
            K=3,
            w=2,
            phi_mode="adaptive",
            regularizer=Regularizer.l1(0.1),
            feasible=FeasibleSet.box([-5.0, -5.0], [5.0, 5.0]),
        )
        trace = run_sobow(stream, config)
        assert trace.config.phi_mode == "euclidean"
        assert trace.config.regularizer.kind == "zero"
        assert trace.config.feasible.kind == "full"
        np.testing.assert_array_equal(trace.phi_diags, np.ones_like(trace.phi_diags))


class TestRunSingleLevel:
    def test_zero_gradient_stream_keeps_lambda(self):
        stream = [constant_gradient_instant(t, [0.0, 0.0]) for t in range(1, 15)]
        config = ObboConfig(alpha=0.1, eta=0.5, K=1, w=2, lambda0=np.array([0.3, 0.4]))
        for method in ("adam", "sgdm"):
            trace = run_single_level(stream, method, config)
            np.testing.assert_array_equal(trace.lambda_final, [0.3, 0.4])

    def test_adam_constant_gradient_unit_step(self):
        g = np.array([2.0, -0.5])
        stream = [constant_gradient_instant(t, g) for t in range(1, 1001)]
        alpha = 1e-3
        config = ObboConfig(alpha=alpha, eta=0.5, K=1, w=1)
        trace = run_single_level(stream, "adam", config)
        step = trace.lambdas[-1] - trace.lambdas[-2]
        np.testing.assert_allclose(np.abs(step), alpha, rtol=1e-3)
        np.testing.assert_allclose(np.sign(step), -np.sign(g))

    def test_sgdm_follows_heavy_ball_recursion(self):
        stream = static_stream(T=20, amp=0.4, seed=15)
        config = ObboConfig(alpha=0.07, eta=0.1, K=4, w=1)
        trace = run_single_level(stream, "sgdm", config)
        velocity = np.zeros(2)
        for t in range(trace.T - 1):
            velocity = 0.9 * velocity + trace.smoothed[t]
            expected = trace.lambdas[t] - 0.07 * velocity
            np.testing.assert_allclose(trace.lambdas[t + 1], expected, atol=1e-15)

    def test_projection_keeps_iterates_feasible(self):
        box = FeasibleSet.box([-0.2, -0.2], [0.2, 0.2])
        stream = static_stream(T=30, amp=0.0, seed=16)
        config = ObboConfig(alpha=0.5, eta=0.1, K=3, w=1, feasible=box)
        for method in ("adam", "sgdm"):
            trace = run_single_level(stream, method, config)
            for row in trace.lambdas:
                assert box.contains(row)

    def test_unknown_method_rejected(self):
        stream = static_stream(T=3)
        with pytest.raises(ValueError):
            run_single_level(stream, "rmsprop", ObboConfig(alpha=0.1, eta=0.1, K=1))


class TestConfigValidation:
    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            ObboConfig(w=0)
        with pytest.raises(ValueError):
            ObboConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            ObboConfig(phi_mode="fancy")
        with pytest.raises(ValueError):
            ObboConfig(estimator="autodiff")
        with pytest.raises(ValueError):
            SobboConfig(s=0)
        for bad in ({"adapt_beta": 0.0}, {"adapt_beta": 1.0}, {"adapt_epsilon": 0.0}):
            with pytest.raises(ValueError, match="adapt_"):
                ObboConfig(**bad)

    def test_trace_records_resolved_steps(self):
        stream = static_stream(T=5)
        trace = run_obbo(stream, ObboConfig(w=2))
        assert trace.alpha > 0 and trace.eta > 0
        assert trace.w == 2
        assert trace.T == 5
        assert isinstance(dataclasses.asdict(trace.config), dict)
