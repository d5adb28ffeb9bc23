import collections.abc
import dataclasses
import json
import math
import re
import types
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obbo import metrics, optimizers
from obbo.geometry import FeasibleSet, Regularizer
from obbo.harness.config import ConfigError, ExperimentSpec
from obbo.harness.validate import probe_experiment, validate_experiment
from obbo.hypergrad import (
    DivergenceError,
    WindowBuffer,
    inner_gd,
    stochastic_hypergradient,
)
from obbo.metrics import compute_regret_series
from obbo.optimizers import (
    Adaptive,
    OagdConfig,
    ObboConfig,
    SingleLevelConfig,
    SobboConfig,
    SobowConfig,
    default_neumann_bound,
    run_oagd,
    run_obbo,
    run_single_level,
    run_sobbo,
    run_sobow,
)
from obbo.problems import (
    DriftSpec,
    make_drifting_spline_task,
    meta_toy_stream,
    quadratic_stream,
    spline_stream,
)
from obbo.problems.quadratic import QuadraticData

from oracles import constant_gradient_instant, count_kernel_rows

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def static_stream(T=60, d1=2, d2=3, kappa=4.0, amp=0.0, seed=0, **kw):
    return quadratic_stream(
        d1=d1, d2=d2, T=T, kappa_target=kappa, drift=DriftSpec.static(),
        seed=seed, cos_amplitude=amp, **kw,
    )


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
        gen_proj_norm_sq = compute_regret_series(stream, trace).gen_proj_norm_sq
        assert gen_proj_norm_sq[-1] < 1e-8
        assert gen_proj_norm_sq[-1] < gen_proj_norm_sq[10]

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

    def test_clipping_an_overflowing_square_keeps_the_direction(self):
        # |g|^2 overflows at 1e200: the clipped step is still sqrt(1000) along
        # g, as at 1e150 where the square is finite, not a zero step.
        config = ObboConfig(alpha=0.1, eta=0.5, K=1, clip_threshold=1000.0)
        for scale in (1e150, 1e200, np.finfo(float).max):
            stream = [constant_gradient_instant(t, [scale, 0.0]) for t in (1, 2, 3)]
            trace = run_obbo(stream, config)
            step = np.array([np.sqrt(1000.0), 0.0])
            np.testing.assert_allclose(trace.smoothed, [step] * 3, rtol=1e-15)
            np.testing.assert_allclose(trace.lambdas, [0.0 * step, -0.1 * step, -0.2 * step],
                                       rtol=1e-15)

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
            phi=Adaptive(),
            lambda0=rng.uniform(-0.5, 0.5, 2),
        )
        trace = run_obbo(stream, config)
        for row in trace.lambdas:
            assert box.contains(row)
        assert box.contains(trace.lambda_final)

    def test_determinism_bitwise(self):
        stream = static_stream(T=25, amp=0.4, seed=5)
        config = ObboConfig(alpha=0.1, eta=0.1, K=4, w=3, phi=Adaptive())
        t1 = run_obbo(stream, config)
        t2 = run_obbo(stream, config)
        np.testing.assert_array_equal(t1.lambdas, t2.lambdas)
        np.testing.assert_array_equal(t1.estimates, t2.estimates)
        np.testing.assert_array_equal(t1.betas[-1], t2.betas[-1])

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
            trace = run_obbo(stream, config)
            with pytest.raises(DivergenceError, match="gen_proj_norm_sq became non-finite at t=1"):
                compute_regret_series(stream, trace)

    def test_overflowing_adaptive_diagonal_rejected(self):
        # A finite estimate whose square overflows gives the adaptive
        # generator an infinite diagonal entry, which aborts the run.
        stream = [constant_gradient_instant(t, [1e200, 1e200]) for t in range(1, 6)]
        config = ObboConfig(alpha=0.1, eta=0.1, K=2, w=1, phi=Adaptive())
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
    @staticmethod
    def assert_matches_written_out_round(stream, m, w, alpha, eta, K):
        sobbo = SobboConfig(alpha=alpha, eta=eta, K=K, w=w, s=1, m=m)
        trace = run_sobbo(stream, sobbo, np.random.default_rng(99))

        # OBBO's Euclidean round written out with inner GD and the Neumann
        # estimator; at zero noise only the truncation level draws from the
        # generator.
        est_rng = np.random.default_rng(99)
        buffer = WindowBuffer(w)
        lam, beta = np.zeros(stream[0].d1), np.zeros(stream[0].d2)
        for i, inst in enumerate(stream):
            beta = inner_gd(inst, lam, beta, eta, K).final
            est = stochastic_hypergradient(inst, lam, beta, m, est_rng)
            buffer.push(est)
            np.testing.assert_array_equal(trace.lambdas[i], lam)
            np.testing.assert_array_equal(trace.betas[i], beta)
            np.testing.assert_array_equal(trace.estimates[i], est)
            np.testing.assert_array_equal(trace.smoothed[i], buffer.average())
            lam = lam - alpha * buffer.average()
        np.testing.assert_array_equal(trace.lambda_final, lam)

    def test_zero_noise_matches_obbo_with_neumann_estimator(self):
        stream = static_stream(T=30, amp=0.4, seed=7)
        self.assert_matches_written_out_round(stream, m=4, w=3, alpha=0.1, eta=0.1, K=5)

    def test_each_round_uses_its_own_curvature_scale(self):
        # On a drifting meta stream l_g1 moves every round (30.0, 32.3, 26.8,
        # ...), and each round's factors (I - H/l) take that round's l; the
        # meta instants run the HVP path, where l enters as 1/l and m/l.
        stream = meta_toy_stream(3, 8, seed=4, drift=DriftSpec.decaying())
        assert len({inst.l_g1 for inst in stream}) == len(stream)
        self.assert_matches_written_out_round(stream, m=4, w=3, alpha=0.05, eta=0.02, K=5)

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
        # Where 1 - mu_g/l_g1 rounds to 1: log(w) l_g1/mu_g, capped where it overflows.
        assert default_neumann_bound(3, 1.0, 5e16) == int(math.log(3) * 5e16) + 1
        assert default_neumann_bound(64, 5e-324, 1.0) == 10**18 + 1
        stream = static_stream(T=3, seed=9)
        config = SobboConfig(alpha=0.05, eta=0.05, K=2, w=2)
        trace = run_sobbo(stream, config, np.random.default_rng(0))
        assert trace.T == 3

    def test_runs_on_meta_and_spline_streams(self):
        # Neither stream has quadratic data, so the Neumann estimator runs on
        # the HVP oracles; at zero noise the sampled gradients are exact.
        box = FeasibleSet.box([1e-4], [10.0])
        runs = [
            (meta_toy_stream(d=3, T=12, seed=1), SobboConfig(alpha=0.05, K=3, w=3)),
            (
                spline_stream(make_drifting_spline_task(seed=1, T=12, n_knots=8)),
                SobboConfig(alpha=0.02, K=3, w=3, feasible=box, lambda0=[0.5]),
            ),
        ]
        for stream, config in runs:
            assert not isinstance(stream[0], QuadraticData)
            t1 = run_sobbo(stream, config, np.random.default_rng(3))
            t2 = run_sobbo(stream, config, np.random.default_rng(3))
            assert t1.T == len(stream) and np.all(np.isfinite(t1.lambdas))
            for name in ("lambdas", "betas", "estimates", "smoothed"):
                assert getattr(t1, name).tobytes() == getattr(t2, name).tobytes()
            loss1, loss2 = (compute_regret_series(stream, t).outer_loss for t in (t1, t2))
            assert loss1.tobytes() == loss2.tobytes()


class TestRunOagd:
    def test_w1_identical_to_obbo_with_implicit_estimator(self):
        stream = static_stream(T=25, amp=0.4, seed=10)
        kwargs = dict(alpha=0.1, eta=0.2, K=1, w=1)
        trace_oagd = run_oagd(stream, OagdConfig(**kwargs))
        trace_obbo = run_obbo(stream, ObboConfig(estimator="implicit", **kwargs))
        np.testing.assert_array_equal(trace_oagd.lambdas, trace_obbo.lambdas)
        np.testing.assert_array_equal(trace_oagd.betas, trace_obbo.betas)
        np.testing.assert_array_equal(trace_oagd.smoothed, trace_obbo.smoothed)

    def test_oracle_work_grows_linearly_in_window(self, monkeypatch):
        # The paper's cost claim as exact counts: OAGD re-evaluates the last w
        # objectives, min(t, w) Hessian calls in round t, while OBBO-implicit
        # adds one new estimate per round whatever its window.
        def hess_calls_per_round(run, config):
            stream, rounds = meta_toy_stream(d=3, T=20, seed=1), []

            def solve(*args):  # every round starts with one inner solve
                rounds.append(0)
                return inner_gd(*args)

            monkeypatch.setattr(optimizers, "inner_gd", solve)
            for inst in stream:

                def counted(*args, _orig=inst.hess_g_betabeta):
                    rounds[-1] += 1
                    return _orig(*args)

                inst.hess_g_betabeta = counted
            run(stream, config)
            return rounds

        oagd = hess_calls_per_round(run_oagd, OagdConfig(alpha=0.05, w=5))
        assert oagd == [1, 2, 3, 4] + [5] * 16
        obbo = hess_calls_per_round(run_obbo, ObboConfig(alpha=0.05, w=5, estimator="implicit"))
        assert obbo == [1] * 20

    def test_static_stream_same_limit_as_obbo(self):
        # alternating updates with K=1 need a small outer step to stay stable
        stream = static_stream(T=1200, amp=0.0, seed=12)
        trace_oagd = run_oagd(stream, OagdConfig(alpha=0.03, eta=None, K=1, w=1))
        trace_obbo = run_obbo(stream, ObboConfig(alpha=0.03, eta=0.2, K=60, w=1))
        assert np.linalg.norm(trace_oagd.lambda_final - trace_obbo.lambda_final) <= 1e-4


class TestRunSobow:
    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(
        alpha=st.floats(0.01, 0.1),
        eta=st.floats(0.02, 0.2),
        K=st.integers(1, 6),
        w=st.integers(1, 8),
        clip_threshold=st.none() | st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**16),
    )
    def test_equals_obbo_euclidean_bitwise(self, alpha, eta, K, w, clip_threshold, seed):
        """SOBOW is Euclidean OBBO bit for bit, and OBBO with w = 1 and no
        clipping steps on each round's own estimate."""
        stream = static_stream(T=20, amp=0.5, seed=seed)
        step = dict(alpha=alpha, eta=eta, K=K, w=w, clip_threshold=clip_threshold)
        t_sobow = run_sobow(stream, SobowConfig(**step))
        t_obbo = run_obbo(stream, ObboConfig(**step))
        for name in ("lambdas", "smoothed", "phi_diags"):
            np.testing.assert_array_equal(getattr(t_sobow, name), getattr(t_obbo, name))
        t_w1 = run_obbo(stream, ObboConfig(**{**step, "w": 1, "clip_threshold": None}))
        np.testing.assert_array_equal(t_w1.smoothed, t_w1.estimates)

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            (SobowConfig, "phi", Adaptive()),
            (SobowConfig, "regularizer", Regularizer.l1(0.1)),
            (SobowConfig, "feasible", FeasibleSet.box([-5.0, -5.0], [5.0, 5.0])),
            (OagdConfig, "estimator", "exact"),
            (OagdConfig, "phi", Adaptive()),
        ],
        ids=["sobow-phi", "sobow-regularizer", "sobow-feasible", "oagd-estimator", "oagd-phi"],
    )
    def test_fixed_geometry_is_not_a_field(self, kind, key, value):
        with pytest.raises(TypeError, match=f"'{key}'"):
            kind(**{key: value})

    @pytest.mark.parametrize(
        "run, config",
        [
            (run_sobow, ObboConfig()),
            (run_obbo, SobowConfig()),
            (run_oagd, ObboConfig()),
            (lambda stream, config: run_sobbo(stream, config, np.random.default_rng(0)),
             ObboConfig()),
            (lambda stream, config: run_single_level(stream, "adam", config), ObboConfig()),
        ],
        ids=["sobow", "obbo", "oagd", "sobbo", "single-level"],
    )
    def test_other_kinds_config_rejected(self, run, config):
        with pytest.raises(TypeError, match=f"got a {type(config).__name__}"):
            run(static_stream(T=3), config)


class TestRunSingleLevel:
    def test_zero_gradient_stream_keeps_lambda(self):
        stream = [constant_gradient_instant(t, [0.0, 0.0]) for t in range(1, 15)]
        config = SingleLevelConfig(alpha=0.1, eta=0.5, K=1, w=2, lambda0=np.array([0.3, 0.4]))
        for method in ("adam", "sgdm"):
            trace = run_single_level(stream, method, config)
            np.testing.assert_array_equal(trace.lambda_final, [0.3, 0.4])

    def test_adam_constant_gradient_unit_step(self):
        g = np.array([2.0, -0.5])
        stream = [constant_gradient_instant(t, g) for t in range(1, 1001)]
        alpha = 1e-3
        config = SingleLevelConfig(alpha=alpha, eta=0.5, K=1, w=1)
        trace = run_single_level(stream, "adam", config)
        step = trace.lambdas[-1] - trace.lambdas[-2]
        np.testing.assert_allclose(np.abs(step), alpha, rtol=1e-3)
        np.testing.assert_allclose(np.sign(step), -np.sign(g))

    def test_sgdm_follows_heavy_ball_recursion(self):
        stream = static_stream(T=20, amp=0.4, seed=15)
        config = SingleLevelConfig(alpha=0.07, eta=0.1, K=4, w=1)
        trace = run_single_level(stream, "sgdm", config)
        velocity = np.zeros(2)
        for t in range(trace.T - 1):
            velocity = 0.9 * velocity + trace.smoothed[t]
            expected = trace.lambdas[t] - 0.07 * velocity
            np.testing.assert_allclose(trace.lambdas[t + 1], expected, atol=1e-15)

    def test_projection_keeps_iterates_feasible(self):
        box = FeasibleSet.box([-0.2, -0.2], [0.2, 0.2])
        stream = static_stream(T=30, amp=0.0, seed=16)
        config = SingleLevelConfig(alpha=0.5, eta=0.1, K=3, w=1, feasible=box)
        for method in ("adam", "sgdm"):
            trace = run_single_level(stream, method, config)
            for row in trace.lambdas:
                assert box.contains(row)

    def test_unknown_method_rejected(self):
        stream = static_stream(T=3)
        with pytest.raises(ValueError):
            run_single_level(stream, "rmsprop", SingleLevelConfig(alpha=0.1, eta=0.1, K=1))


class TestConfigValidation:
    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            ObboConfig(w=0)
        with pytest.raises(ValueError):
            ObboConfig(alpha=-1.0)
        with pytest.raises(TypeError, match="phi must be"):
            ObboConfig(phi="adaptive")
        with pytest.raises(ValueError):
            ObboConfig(estimator="autodiff")
        with pytest.raises(ValueError):
            SobboConfig(s=0)
        for bad in ({"beta": 0.0}, {"beta": 1.0}, {"epsilon": 0.0}):
            with pytest.raises(ValueError, match="adaptive "):
                Adaptive(**bad)

    def test_trace_records_resolved_steps(self):
        stream = static_stream(T=5)
        trace = run_obbo(stream, ObboConfig(w=2))
        assert trace.config.alpha > 0 and trace.config.eta > 0
        assert trace.config.w == 2
        assert trace.T == 5
        assert isinstance(dataclasses.asdict(trace.config), dict)


def reference_alpha_bound(mu_g, l_g1, l_f1):
    """The outer-step bound as first written: l_F1 = l_f1 (1 + kappa)^2 formed
    as m_f + m_f kappa, then 3 / (4 l_F1)."""
    kappa = l_g1 / mu_g
    m_f = l_f1 * (1.0 + kappa)
    return 3.0 / (4.0 * (m_f + m_f * kappa))


NO_ALPHA = "stream declares no outer smoothness constants; set alpha explicitly"
PROBE_STREAMS = {
    "quadratic": {"kind": "quadratic", "d1": 2, "d2": 3, "T": 20, "kappa_target": 4.0,
                  "cos_amplitude": 0.3, "seed": 5},
    "meta": {"kind": "meta", "d": 3, "T": 20, "seed": 1},
}


class TestAlphaBound:
    """``alpha_bound(instant)`` is the one outer-step rule: an unset alpha is
    half of it, ``obbo validate`` compares alpha against it, and a stream that
    declares no ``l_f1`` has none."""

    def test_matches_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(54)
        for _ in range(2000):
            mu_g = 10.0 ** rng.uniform(-4.0, 2.0)
            l_g1 = mu_g * 10.0 ** rng.uniform(0.0, 5.0)
            l_f1 = 10.0 ** rng.uniform(-3.0, 3.0)
            inst = types.SimpleNamespace(mu_g=mu_g, l_g1=l_g1, l_f1=l_f1)
            assert optimizers.alpha_bound(inst) == reference_alpha_bound(mu_g, l_g1, l_f1)
        for inst in (static_stream(T=2, kappa=7.0)[0], meta_toy_stream(d=3, T=2, seed=1)[0]):
            expected = reference_alpha_bound(inst.mu_g, inst.l_g1, inst.l_f1)
            assert optimizers.alpha_bound(inst) == expected

    def test_a_spline_instant_has_no_bound(self):
        inst = spline_stream(make_drifting_spline_task(seed=0, T=2))[0]
        assert inst.l_f1 is None and optimizers.alpha_bound(inst) is None

    @pytest.mark.parametrize("name", sorted(PROBE_STREAMS))
    def test_default_alpha_is_half_the_bound_validate_checks(self, name):
        def spec(**steps):
            return ExperimentSpec(name="probe", seeds=[1], stream=PROBE_STREAMS[name],
                                  optimizer={"kind": "obbo", "eta": 0.05, "K": 40, "w": 2, **steps})

        def alpha_notes(exp):
            return [note for note in validate_experiment(exp) if "outer step alpha" in note]

        stream, config = probe_experiment(spec())
        assert config.alpha == optimizers.alpha_bound(stream[0]) / 2
        assert alpha_notes(spec()) == []
        bound = 2 * config.alpha  # exact: doubling a float only moves its exponent
        assert alpha_notes(spec(alpha=bound)) == []
        assert len(alpha_notes(spec(alpha=math.nextafter(bound, math.inf)))) == 1

    def test_spline_needs_a_set_alpha_and_validate_checks_none(self):
        stream = spline_stream(make_drifting_spline_task(seed=0, T=2))
        config = ObboConfig(estimator="exact", feasible=SPLINE_BOX, lambda0=[0.5])
        with pytest.raises(ValueError, match=f"^{re.escape(NO_ALPHA)}$"):
            optimizers._resolve_steps(stream, config, "obbo")
        spline = json.loads((CONFIG_DIR / "spline.json").read_text())["experiments"][0]
        unset = {key: value for key, value in spline["optimizer"].items() if key != "alpha"}
        with pytest.raises(ConfigError, match=re.escape(f"experiment 'spline-obbo': {NO_ALPHA}")):
            probe_experiment(ExperimentSpec(**{**spline, "optimizer": unset}))
        huge = ExperimentSpec(**{**spline, "optimizer": {**spline["optimizer"], "alpha": 1e6}})
        assert not any("alpha" in note for note in validate_experiment(huge))


def records_by_round(stream, trace):
    """The three recorded quantities formed round by round: each instant's own
    oracles at copies of (lambdas[t], betas[t]), and the 1-D squared step to
    the next iterate, as the loop once formed them."""
    nexts = [*trace.lambdas[1:], trace.lambda_final]
    gen, loss, residual = [], [], []
    for inst, lam, beta, lam_next in zip(stream, trace.lambdas, trace.betas, nexts):
        lam, beta = lam.copy(), beta.copy()
        gen.append((((lam - lam_next) / trace.config.alpha) ** 2).sum())
        loss.append(inst.f_value(lam, beta))
        r = inst.grad_g_beta(lam, beta)
        residual.append(math.sqrt(r.dot(r)))
    return np.array(gen), np.array(loss), np.array(residual)


SPLINE_BOX = FeasibleSet.box([1e-4], [10.0])
RECORD_RUNS = {
    "quadratic-adaptive-clip": (
        lambda: static_stream(T=40, d1=4, d2=6, amp=0.4, seed=2),
        lambda s: run_obbo(s, ObboConfig(alpha=0.05, eta=0.1, K=5, w=3, phi=Adaptive(),
                                         clip_threshold=0.05)),
    ),
    "quadratic-d1-9-sobbo": (
        lambda: static_stream(T=30, d1=9, d2=4, amp=0.3, seed=3, noise=(0.2, 0.1)),
        lambda s: run_sobbo(s, SobboConfig(alpha=0.02, eta=0.1, K=3, w=2),
                            np.random.default_rng(4)),
    ),
    "meta": (
        lambda: meta_toy_stream(d=3, T=30, seed=1),
        lambda s: run_obbo(s, ObboConfig(alpha=0.05, K=4, w=4)),
    ),
    "spline": (
        lambda: spline_stream(make_drifting_spline_task(seed=1, T=30, n_knots=8)),
        lambda s: run_obbo(s, ObboConfig(alpha=0.02, w=5, estimator="exact", phi=Adaptive(),
                                         feasible=SPLINE_BOX, lambda0=[0.5])),
    ),
}


class TestRecordsAfterTheLoop:
    """The records ``compute_regret_series`` forms after the run equal the
    per-round oracle calls bit for bit, on every stream."""

    @pytest.mark.parametrize("name", RECORD_RUNS)
    def test_records_equal_per_round_oracle_calls(self, name):
        make_stream, run = RECORD_RUNS[name]
        stream = make_stream()
        trace = run(stream)
        series = compute_regret_series(stream, trace)
        gen, loss, residual = records_by_round(stream, trace)
        assert np.array_equal(series.gen_proj_norm_sq, gen)
        assert np.array_equal(series.outer_loss, loss)
        assert np.array_equal(series.inner_residual, residual)
        assert gen.any() and residual.all()


def _count_f_value(stream):
    """``stream`` with each instant's ``f_value`` counted in the returned Counter."""
    calls = Counter()
    for inst in stream:
        def counted(*args, _fn=inst.f_value):
            calls["f_value"] += 1
            return _fn(*args)

        inst.f_value = counted
    return stream, calls


SOLVES_WITHOUT_RECORDS = {
    "obbo": lambda s: run_obbo(s, ObboConfig(alpha=0.05, eta=0.1, K=3, w=2)),
    "sobbo": lambda s: run_sobbo(s, SobboConfig(alpha=0.05, eta=0.1, K=3, w=2),
                                 np.random.default_rng(0)),
    "oagd": lambda s: run_oagd(s, OagdConfig(alpha=0.05, eta=0.1, w=2)),
}


@pytest.mark.parametrize("kind", SOLVES_WITHOUT_RECORDS)
@pytest.mark.parametrize("make_stream", [
    lambda: static_stream(T=9, amp=0.3, seed=5),
    lambda: meta_toy_stream(d=3, T=9, seed=2),
], ids=["quadratic", "meta"])
def test_solver_makes_no_f_value_call(kind, make_stream, monkeypatch):
    # The round loop only solves; the metrics form the outer loss once per round:
    # a meta stream through its field, a quadratic stream in one kernel call.
    stream, calls = _count_f_value(make_stream())
    kernel_rows = count_kernel_rows(monkeypatch)
    trace = SOLVES_WITHOUT_RECORDS[kind](stream)
    assert calls["f_value"] == 0
    compute_regret_series(stream, trace)
    if not isinstance(stream[0], QuadraticData):
        assert calls["f_value"] == trace.T == len(stream) and kernel_rows == []
    else:
        assert calls["f_value"] == 0 and kernel_rows == [trace.T] == [len(stream)]


class IndexCounter(collections.abc.Sequence):
    """Stream proxy that counts each ``stream[t]`` by index and each iteration,
    as perfbench's ``RoundClock`` sees them, and forwards attribute reads to
    the stream, as ``RoundClock`` does."""

    def __init__(self, stream):
        self._stream, self.indexed, self.iterations = stream, Counter(), 0

    def __len__(self):
        return len(self._stream)

    def __getitem__(self, index):
        self.indexed[index] += 1
        return self._stream[index]

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def __iter__(self):
        self.iterations += 1
        return iter(self._stream)


class TestMetricsHookedNames:
    """perfbench's round clock stamps every instant taken from a built stream and
    its traced run counts the calls of ``obbo.metrics.generalized_projection``.
    It expects ``compute_regret_series`` to take each ``stream[t]`` once by index,
    never to iterate the stream, and to resolve that name T times, on either
    path of the metrics: through the proxy a quadratic stream still runs its
    kernel once over T rows."""

    @pytest.mark.parametrize("make_stream", [
        lambda: static_stream(T=9, d1=3, d2=4, amp=0.3, seed=5),
        lambda: meta_toy_stream(d=3, T=9, seed=2),
    ], ids=["quadratic", "meta"])
    def test_each_row_indexed_once_and_projected_once(self, monkeypatch, make_stream):
        stream = make_stream()
        trace = run_obbo(stream, ObboConfig(alpha=0.05, eta=0.1, K=3, w=2))
        projections = Counter()
        project = metrics.generalized_projection

        def counted(*args):
            projections["generalized_projection"] += 1
            return project(*args)

        monkeypatch.setattr(metrics, "generalized_projection", counted)
        kernel_rows = count_kernel_rows(monkeypatch)
        proxy = IndexCounter(stream)
        compute_regret_series(proxy, trace)
        T = trace.T
        assert proxy.indexed == Counter(range(T)) and proxy.iterations == 0
        assert projections["generalized_projection"] == T
        assert kernel_rows == ([T] if isinstance(stream[0], QuadraticData) else [])


# Each solver's calls through the names of obbo.optimizers per round, as
# perfbench's traced run counts them (Adam takes no prox step).
HOOKED_CALLS = {
    "obbo": (run_obbo, ObboConfig,
             {"prox_step": 1, "inner_gd": 1, "itd_hypergradient": 1}),
    "sobow": (run_sobow, SobowConfig,
              {"prox_step": 1, "inner_gd": 1, "itd_hypergradient": 1}),
    "sobbo": (lambda s, c: run_sobbo(s, c, np.random.default_rng(0)), SobboConfig,
              {"prox_step": 1, "inner_sgd": 1, "stochastic_hypergradient": 1}),
    "adam": (lambda s, c: run_single_level(s, "adam", c), SingleLevelConfig,
             {"prox_step": 0, "inner_gd": 1, "itd_hypergradient": 1}),
}


class TestHookedNames:
    """perfbench's traced run replaces these module-level names of
    ``obbo.optimizers`` and expects T calls of each per cell. A solver that
    bypasses one, e.g. by calling a private prox core, fails here first."""

    @pytest.mark.parametrize("kind", HOOKED_CALLS)
    def test_each_round_resolves_the_module_names(self, monkeypatch, kind):
        run, config_cls, per_round = HOOKED_CALLS[kind]
        counts = Counter()
        for name in per_round:
            fn = getattr(optimizers, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(optimizers, name, counted)
        T = 7
        trace = run(static_stream(T=T, amp=0.3), config_cls(alpha=0.05, eta=0.1, K=3, w=2))
        assert trace.T == T
        want = {name: n * T for name, n in per_round.items()}
        assert dict(counts) == {k: v for k, v in want.items() if v}, (
            f"{kind}: calls through obbo.optimizers per {T}-round run were "
            f"{dict(counts)}, expected {want}; a solver bypasses a name that "
            "perfbench's traced run hooks"
        )


def count_every_oracle(stream) -> Counter:
    """Wrap every callable dataclass field of every instant of ``stream`` with a
    counter, as perfbench's traced run does; calls are counted by field name."""
    calls = Counter()
    for inst in stream:
        for f in dataclasses.fields(inst):
            fn = getattr(inst, f.name)
            if callable(fn):
                def counted(*args, _fn=fn, _name=f.name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)

                setattr(inst, f.name, counted)
    return calls


def test_oracle_calls_per_round_by_kind():
    # The per-round counts perfbench's traced run reports, on shortened cells of
    # its two workloads: OBBO-ITD runs inner GD and ITD on the quadratic kernels,
    # SOBBO the noisy inner SGD's K sampled gradients and the Neumann kernel.
    T, K = 12, 5
    stream = quadratic_stream(4, 6, T, 100.0, drift=DriftSpec.decaying(), cos_amplitude=0.5)
    calls = count_every_oracle(stream)
    run_obbo(stream, ObboConfig(alpha=0.02, K=12, w=10, phi=Adaptive(), clip_threshold=1000.0))
    assert dict(calls) == {"grad_f_beta": T, "grad_f_lambda": T}
    stream = quadratic_stream(3, 6, T, 8.0, drift=DriftSpec.decaying(), noise=(0.3, 0.2),
                              cos_amplitude=0.5)
    calls = count_every_oracle(stream)
    run_sobbo(stream, SobboConfig(alpha=0.05, eta=0.05, K=K, w=4, clip_threshold=1000.0),
              np.random.default_rng(3))
    assert dict(calls) == {
        "grad_g_beta_sampled": K * T, "grad_f_beta_sampled": T, "grad_f_lambda_sampled": T,
    }


@pytest.mark.parametrize("kind", ["obbo", "sobbo"])
def test_each_adaptive_diagonal_follows_the_recursion_from_its_rounds_step(kind):
    # The step updates one buffer in place; each phi_diags row must be its own
    # round's diagonal sqrt(avg_t) + eps, avg_t = beta avg_{t-1} + (1 - beta) q_t^2
    # over the stored steps q_t, not a later round's.
    gen, T = Adaptive(beta=0.8, epsilon=1e-3), 30
    stream = quadratic_stream(3, 5, T, drift=DriftSpec.decaying(), noise=(0.3, 0.2), seed=4)
    if kind == "obbo":
        trace = run_obbo(stream, ObboConfig(alpha=0.05, K=4, w=3, phi=gen))
    else:
        trace = run_sobbo(stream, SobboConfig(alpha=0.05, K=4, w=3, phi=gen),
                          np.random.default_rng(5))
    avg = np.zeros(3)
    for q, diag in zip(trace.smoothed, trace.phi_diags):
        avg = gen.beta * avg + (1.0 - gen.beta) * q**2
        np.testing.assert_array_equal(diag, np.sqrt(avg) + gen.epsilon)
    assert len(np.unique(trace.phi_diags, axis=0)) == T


# Each input check of the configs and runs: a call, the exception it raises
# and that exception's message.
INPUT_CHECKS = {
    "K": (lambda: ObboConfig(K=0), ValueError, "inner iteration count must be at least 1"),
    "eta": (lambda: ObboConfig(eta=0.0), ValueError, "eta must be positive"),
    "clip-threshold": (lambda: ObboConfig(clip_threshold=0.0), ValueError,
                       "clip threshold must be positive"),
    "sobbo-m": (lambda: SobboConfig(m=0), ValueError, "Neumann bound m must be at least 1"),
    # A bound above ``MAX_NEUMANN_BOUND``, set or default, would make a run that never ends.
    "sobbo-m-ceiling": (
        lambda: run_sobbo(static_stream(T=2), SobboConfig(alpha=0.1, m=100_001),
                          np.random.default_rng(0)),
        ValueError, "Neumann bound m=100001 exceeds 100000 at l_g1/mu_g = 4; set a smaller m"),
    "sobbo-m-default-ceiling": (
        lambda: run_sobbo(static_stream(T=2, kappa=1e9), SobboConfig(alpha=0.1, w=3),
                          np.random.default_rng(0)),
        ValueError, "exceeds 100000 at l_g1/mu_g = 1e+09; set a smaller m"),
    # There 1 - mu_g/l_g1 rounds to 1, and the default bound once divided by log(1) = 0.
    "sobbo-m-default-near-singular": (
        lambda: run_sobbo(static_stream(T=2, d2=2, kappa=5e16), SobboConfig(alpha=0.1, w=3),
                          np.random.default_rng(0)),
        ValueError, "exceeds 100000 at l_g1/mu_g = 5e+16; set a smaller m"),
    # NaN fails every ``<= 0`` check: such a config would never clip or regularize.
    "alpha-nan": (lambda: ObboConfig(alpha=math.nan), ValueError,
                  "alpha must be positive and finite"),
    "eta-inf": (lambda: ObboConfig(eta=math.inf), ValueError, "eta must be positive and finite"),
    "clip-threshold-nan": (lambda: ObboConfig(clip_threshold=math.nan), ValueError,
                           "clip threshold must be positive and finite"),
    "adaptive-epsilon-nan": (lambda: Adaptive(epsilon=math.nan), ValueError,
                             "adaptive epsilon must be positive and finite"),
    "l1-weight-nan": (lambda: Regularizer.l1(math.nan), ValueError,
                      "l1 weight must be nonnegative and finite"),
    # A bool is a number to Python: unchecked, True reads as 1.
    "l1-weight-bool": (lambda: Regularizer.l1(True), TypeError,
                       "l1 weight must be a number, got True"),
    "alpha-bool": (lambda: ObboConfig(alpha=True), TypeError, "alpha must be a number, got True"),
    # A string failed the range test first, with Python's message naming no key.
    "alpha-str": (lambda: ObboConfig(alpha="0.5"), TypeError, "alpha must be a number, got '0.5'"),
    "eta-bytes": (lambda: SobboConfig(eta=b"0.05"), TypeError,
                  "eta must be a number, got b'0.05'"),
    "l1-weight-str": (lambda: Regularizer.l1("0.5"), TypeError,
                      "l1 weight must be a number, got '0.5'"),
    "adaptive-beta-str": (lambda: Adaptive(beta="0.9"), TypeError,
                          "adaptive beta must be a number, got '0.9'"),
    # Unchecked, a run starts from lambda = [1.0, 1.0].
    "lambda0-bool": (lambda: ObboConfig(lambda0=[True, True]), TypeError,
                     "lambda0 must hold numbers, not bools, got [True, True]"),
    # Unchecked, ``float`` parses a string: a run starts from lambda = [0.5, 1.0].
    "lambda0-str": (lambda: ObboConfig(lambda0=["0.5", 1.0]), TypeError,
                    "lambda0 must hold real numbers, got ['0.5', 1.0]"),
    "w-float": (lambda: ObboConfig(w=2.0), TypeError, "window size must be an integer, got 2.0"),
    "w-bool": (lambda: SobowConfig(w=True), TypeError, "window size must be an integer, got True"),
    "K-float": (lambda: OagdConfig(K=2.5), TypeError,
                "inner iteration count must be an integer, got 2.5"),
    "sobbo-s-float": (lambda: SobboConfig(s=2.5), TypeError,
                      "batch size s must be an integer, got 2.5"),
    "empty-stream": (lambda: run_obbo([], ObboConfig(alpha=0.1)), ValueError, "empty stream"),
}


@pytest.mark.parametrize("make, error, message", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_input_check(make, error, message):
    with pytest.raises(error, match=re.escape(message)) as info:
        make()
    assert type(info.value) is error
