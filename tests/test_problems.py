import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from obbo.problems import (
    DriftSpec,
    ProblemInstant,
    SplineTask,
    StochasticInstant,
    StreamConfig,
    linear_spline_basis,
    load_spline_task_csv,
    make_drifting_spline_task,
    meta_toy_stream,
    quadratic_instant,
    quadratic_stream,
    roughness_penalty,
    spline_stream,
)

from oracles import central_diff_grad, induced_objective


def drifting_config(**kwargs):
    defaults = dict(
        d1=2,
        d2=3,
        T=30,
        kappa_target=8.0,
        drift=DriftSpec.decaying(1.0),
        seed=11,
    )
    defaults.update(kwargs)
    return StreamConfig(**defaults)


class TestQuadraticStream:
    def test_one_dim_hand_example(self):
        inst = quadratic_instant(t=1, A=[[2.0]], b=[0.0], Q=[[1.0]], c=[0.0])
        lam = np.array([1.0])
        assert inst.inner_opt(lam) == pytest.approx(2.0)
        assert inst.exact_hypergradient(lam) == pytest.approx(4.0)
        fd = central_diff_grad(induced_objective(inst), lam)
        np.testing.assert_allclose(inst.exact_hypergradient(lam), fd, rtol=1e-8)

    def test_static_drift_keeps_inner_optimum_fixed(self):
        stream = quadratic_stream(drifting_config(drift=DriftSpec.static()))
        lam = np.array([0.4, -0.1])
        first = stream[0].inner_opt(lam)
        for inst in stream[1:]:
            np.testing.assert_array_equal(inst.inner_opt(lam), first)

    def test_decaying_drift_matches_harmonic_sum(self):
        stream = quadratic_stream(drifting_config(T=50))
        zero = np.zeros(2)
        steps = [
            np.linalg.norm(stream[t].inner_opt(zero) - stream[t - 1].inner_opt(zero))
            for t in range(1, 50)
        ]
        expected = [t ** (-1.0) for t in range(1, 50)]
        np.testing.assert_allclose(steps, expected, rtol=1e-12)

    def test_inner_opt_residual(self):
        stream = quadratic_stream(drifting_config())
        rng = np.random.default_rng(0)
        for inst in stream[:5]:
            lam = rng.standard_normal(2)
            res = inst.grad_g_beta(lam, inst.inner_opt(lam))
            assert np.linalg.norm(res) <= 1e-8

    def test_inner_map_lipschitz_in_kappa(self):
        stream = quadratic_stream(drifting_config())
        rng = np.random.default_rng(1)
        inst = stream[0]
        for _ in range(50):
            l1, l2 = rng.standard_normal(2), rng.standard_normal(2)
            lhs = np.linalg.norm(inst.inner_opt(l1) - inst.inner_opt(l2))
            kappa = inst.l_g1 / inst.mu_g
            assert lhs <= kappa * np.linalg.norm(l1 - l2) + 1e-12

    def test_hessian_spectrum_within_declared_bounds(self):
        stream = quadratic_stream(drifting_config())
        inst = stream[0]
        H = np.column_stack(
            [
                inst.hvp_g_betabeta(np.zeros(2), np.zeros(3), e)
                for e in np.eye(3)
            ]
        )
        evals = np.linalg.eigvalsh(0.5 * (H + H.T))
        assert evals[0] >= inst.mu_g - 1e-10
        assert evals[-1] <= inst.l_g1 + 1e-10

    def test_hvp_betabeta_symmetry(self):
        stream = quadratic_stream(drifting_config())
        inst = stream[0]
        rng = np.random.default_rng(2)
        lam, beta = rng.standard_normal(2), rng.standard_normal(3)
        for _ in range(20):
            u, v = rng.standard_normal(3), rng.standard_normal(3)
            lhs = float(u @ inst.hvp_g_betabeta(lam, beta, v))
            rhs = float(v @ inst.hvp_g_betabeta(lam, beta, u))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_seed_reproducibility_is_bitwise(self):
        cfg = drifting_config(noise=(0.3, 0.2))
        s1 = quadratic_stream(cfg)
        s2 = quadratic_stream(cfg)
        lam = np.array([0.3, 0.7])
        beta = np.array([0.1, -0.2, 0.5])
        for a, b in zip(s1, s2):
            np.testing.assert_array_equal(a.grad_g_beta(lam, beta), b.grad_g_beta(lam, beta))
            np.testing.assert_array_equal(a.inner_opt(lam), b.inner_opt(lam))
            rng_a = np.random.default_rng(5)
            rng_b = np.random.default_rng(5)
            np.testing.assert_array_equal(
                a.grad_g_beta_sampled(lam, beta, 2, rng_a),
                b.grad_g_beta_sampled(lam, beta, 2, rng_b),
            )

    def test_zero_noise_sampled_equals_deterministic(self):
        stream = quadratic_stream(drifting_config(), stochastic=True)
        inst = stream[0]
        assert isinstance(inst, StochasticInstant)
        rng = np.random.default_rng(3)
        lam, beta = np.array([0.2, -0.4]), np.array([0.1, 0.0, 1.0])
        state_before = rng.bit_generator.state["state"]["state"]
        np.testing.assert_array_equal(
            inst.grad_g_beta_sampled(lam, beta, 1, rng), inst.grad_g_beta(lam, beta)
        )
        np.testing.assert_array_equal(
            inst.grad_f_beta_sampled(lam, beta, rng), inst.grad_f_beta(lam, beta)
        )
        np.testing.assert_array_equal(
            inst.grad_f_lambda_sampled(lam, beta, rng), inst.grad_f_lambda(lam, beta)
        )
        # zero-noise oracles must not consume random state
        assert rng.bit_generator.state["state"]["state"] == state_before

    def test_sampled_gradients_derived_from_deterministic(self):
        # The sampled oracles are built by StochasticInstant, not passed in,
        # and add sigma / sqrt(d s) times one standard normal draw per entry.
        inst = quadratic_stream(drifting_config(noise=(0.3, 0.2)))[0]
        lam, beta = np.array([0.2, -0.4]), np.array([0.1, 0.0, 1.0])
        draws = np.random.default_rng(7)
        expected = [
            inst.grad_g_beta(lam, beta) + draws.standard_normal(3) * (0.3 / np.sqrt(3 * 4)),
            inst.grad_f_lambda(lam, beta) + draws.standard_normal(2) * (0.2 / np.sqrt(2)),
            inst.grad_f_beta(lam, beta) + draws.standard_normal(3) * (0.2 / np.sqrt(3)),
        ]
        rng = np.random.default_rng(7)
        got = [
            inst.grad_g_beta_sampled(lam, beta, 4, rng),
            inst.grad_f_lambda_sampled(lam, beta, rng),
            inst.grad_f_beta_sampled(lam, beta, rng),
        ]
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)
        fields = {f.name: getattr(inst, f.name) for f in dataclasses.fields(ProblemInstant)}
        with pytest.raises(TypeError):
            StochasticInstant(**fields, grad_g_beta_sampled=inst.grad_g_beta_sampled)

    def test_stream_constants_match_a_standalone_instant(self):
        # The stream computes Q's spectrum once; each instant must carry what
        # quadratic_instant computes from that instant's own data.
        for inst in quadratic_stream(drifting_config(d1=3, d2=5, kappa_target=30.0)):
            d1, d2 = inst.d1, inst.d2
            Q = np.column_stack(
                [inst.hvp_g_betabeta(np.zeros(d1), np.zeros(d2), e) for e in np.eye(d2)]
            )
            b = inst.inner_opt(np.zeros(d1))
            A = np.column_stack([inst.inner_opt(e) - b for e in np.eye(d1)])
            c = -inst.grad_f_beta(np.zeros(d1), np.zeros(d2))
            alone = quadratic_instant(t=inst.t, A=A, b=b, Q=Q, c=c)
            assert (inst.mu_g, inst.l_g1) == (alone.mu_g, alone.l_g1)

    def test_instant_rejects_asymmetric_or_indefinite_q(self):
        data = dict(t=1, A=[[1.0], [0.0]], b=[0.0, 0.0], c=[0.0, 0.0])
        with pytest.raises(ValueError, match="symmetric"):
            quadratic_instant(Q=[[2.0, 0.5], [0.0, 2.0]], **data)
        with pytest.raises(ValueError, match="positive definite"):
            quadratic_instant(Q=[[1.0, 0.0], [0.0, -1.0]], **data)

    def test_sampled_gradients_unbiased(self):
        stream = quadratic_stream(drifting_config(noise=(0.5, 0.4)))
        inst = stream[0]
        rng = np.random.default_rng(4)
        lam, beta = np.array([0.2, -0.4]), np.array([0.1, 0.0, 1.0])
        n = 10_000
        draws = np.array([inst.grad_g_beta_sampled(lam, beta, 1, rng) for _ in range(n)])
        mean = draws.mean(axis=0)
        exact = inst.grad_g_beta(lam, beta)
        stderr = draws.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean - exact) <= 4.0 * stderr)

    def test_sampled_gradient_variance_matches_sigma(self):
        sigma = 0.5
        stream = quadratic_stream(drifting_config(noise=(sigma, 0.0)))
        inst = stream[0]
        rng = np.random.default_rng(5)
        lam, beta = np.array([0.2, -0.4]), np.array([0.1, 0.0, 1.0])
        exact = inst.grad_g_beta(lam, beta)
        n = 10_000
        sq = [
            float(np.sum((inst.grad_g_beta_sampled(lam, beta, 1, rng) - exact) ** 2))
            for _ in range(n)
        ]
        assert np.mean(sq) == pytest.approx(sigma**2, rel=0.1)

    def test_batch_size_shrinks_variance(self):
        sigma = 0.5
        stream = quadratic_stream(drifting_config(noise=(sigma, 0.0)))
        inst = stream[0]
        rng = np.random.default_rng(6)
        lam, beta = np.zeros(2), np.zeros(3)
        exact = inst.grad_g_beta(lam, beta)
        n = 4000
        sq = [
            float(np.sum((inst.grad_g_beta_sampled(lam, beta, 25, rng) - exact) ** 2))
            for _ in range(n)
        ]
        assert np.mean(sq) == pytest.approx(sigma**2 / 25.0, rel=0.15)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            StreamConfig(d1=0, d2=1, T=5)
        with pytest.raises(ValueError):
            StreamConfig(d1=1, d2=1, T=5, kappa_target=0.5)
        with pytest.raises(ValueError):
            DriftSpec.sublinear(rate=1.5)


class TestSplineStream:
    def make_stream(self, seed=0, T=4):
        task = make_drifting_spline_task(seed=seed, T=T, n_knots=10)
        return task, spline_stream(task)

    def test_partition_of_unity(self):
        knots = np.linspace(0.0, 1.0, 9)
        x = np.random.default_rng(7).uniform(0.0, 1.0, 200)
        B = linear_spline_basis(x, knots)
        np.testing.assert_allclose(B.sum(axis=1), 1.0, atol=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        gaps=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=15),
        start=st.floats(-100.0, 100.0),
        inside=st.lists(st.floats(0.0, 1.0), max_size=20),
    )
    def test_basis_equals_scipy_design_matrix(self, gaps, start, inside):
        from scipy.interpolate import BSpline

        knots = start + np.cumsum([0.0, *gaps])
        assume(np.all(np.diff(knots) > 0))
        lo, hi = knots[0], knots[-1]
        x = np.concatenate(
            [knots, lo + np.asarray(inside) * (hi - lo), [lo - 1.0, hi + 1.0, -1e300, 1e300]]
        )
        padded = np.r_[lo, knots, hi]
        expected = BSpline.design_matrix(np.clip(x, lo, hi), padded, k=1).toarray()
        assert np.array_equal(linear_spline_basis(x, knots), expected)

    def test_basis_rejects_unsorted_or_too_few_knots(self):
        x = np.array([0.2, 0.5])
        for knots in ([0.0, 1.0, 0.5], [0.0, 0.5, 0.5, 1.0], [0.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                linear_spline_basis(x, knots)

    def test_roughness_annihilates_affine(self):
        knots = np.sort(np.random.default_rng(8).uniform(0.0, 1.0, 8))
        omega = roughness_penalty(knots)
        affine = 2.0 * knots - 0.7
        np.testing.assert_allclose(omega @ affine, 0.0, atol=1e-10)

    def test_normal_equations_positive_definite(self):
        _, stream = self.make_stream()
        inst = stream[0]
        assert inst.mu_g > 0
        H = np.column_stack(
            [
                inst.hvp_g_betabeta(np.array([1e-4]), np.zeros(inst.d2), e)
                for e in np.eye(inst.d2)
            ]
        )
        assert np.linalg.eigvalsh(0.5 * (H + H.T))[0] > 0

    def test_linear_targets_fit_exactly_for_all_lam(self):
        knots = np.linspace(0.0, 1.0, 10)
        rng = np.random.default_rng(9)
        batches_tr, batches_val = [], []
        for _ in range(3):
            x_tr = rng.uniform(0.0, 1.0, 50)
            x_val = rng.uniform(0.0, 1.0, 25)
            batches_tr.append((x_tr, 0.8 * x_tr - 0.3))
            batches_val.append((x_val, 0.8 * x_val - 0.3))
        task = SplineTask(
            knots=knots,
            train_batches=tuple(batches_tr),
            val_batches=tuple(batches_val),
            lambda_lower=1e-4,
            lambda_upper=10.0,
        )
        for inst in spline_stream(task):
            for lam in (1e-4, 1.0, 10.0):
                beta_hat = inst.inner_opt(np.array([lam]))
                assert inst.f_value(np.array([lam]), beta_hat) <= 1e-8

    def test_heavy_penalty_approaches_affine_fit(self):
        task, stream = self.make_stream(seed=1)
        inst = stream[0]
        beta_hat = inst.inner_opt(np.array([1e6]))
        x_tr, y_tr = task.train_batches[0]
        # constrained least-squares oracle: best affine fit evaluated at knots
        A = np.column_stack([np.ones_like(x_tr), x_tr])
        coef, *_ = np.linalg.lstsq(A, y_tr, rcond=None)
        affine_at_knots = coef[0] + coef[1] * task.knots
        err = np.linalg.norm(beta_hat - affine_at_knots) / np.linalg.norm(affine_at_knots)
        assert err <= 1e-4

    def test_hypergradient_matches_finite_differences(self):
        _, stream = self.make_stream(seed=2)
        for inst in stream[:2]:
            for lam_val in (3e-3, 0.1, 1.5):
                lam = np.array([lam_val])
                exact = inst.exact_hypergradient(lam)
                fd = central_diff_grad(induced_objective(inst), lam, base_step=1e-6)
                assert np.linalg.norm(fd - exact) <= 1e-6 * max(
                    np.linalg.norm(exact), 1e-12
                )

    def test_csv_round_trip(self, tmp_path):
        rows = ["t,split,x,y"]
        rng = np.random.default_rng(10)
        for t in (1, 2):
            for split, n in (("train", 8), ("val", 4)):
                for _ in range(n):
                    x = float(rng.uniform(0, 1))
                    rows.append(f"{t},{split},{x!r},{float(np.sin(x))!r}")
        path = tmp_path / "spline.csv"
        path.write_text("\n".join(rows) + "\n")
        task = load_spline_task_csv(
            path, knots=np.linspace(0, 1, 5), lambda_lower=1e-3, lambda_upper=1.0
        )
        assert task.T == 2
        stream = spline_stream(task)
        assert len(stream) == 2
        assert stream[0].d2 == 5

    def test_csv_missing_split_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,split,x,y\n1,train,0.5,0.1\n")
        with pytest.raises(ValueError):
            load_spline_task_csv(path, knots=[0.0, 0.5, 1.0], lambda_lower=1e-3, lambda_upper=1.0)


class TestMetaStream:
    def test_large_gamma_recovers_single_level_gradient(self):
        cfg = StreamConfig(d1=3, d2=3, T=2, seed=12)
        stream = meta_toy_stream(cfg, gamma=1e6)
        inst = stream[0]
        lam = np.array([0.3, -0.2, 0.5])
        hg = inst.exact_hypergradient(lam)
        single_level = inst.grad_f_beta(lam, lam)
        assert np.linalg.norm(hg - single_level) <= 1e-4 * max(
            1.0, np.linalg.norm(single_level)
        )

    def test_static_task_repeats_identically(self):
        cfg = StreamConfig(d1=2, d2=2, T=5, drift=DriftSpec.static(), seed=13)
        stream = meta_toy_stream(cfg, gamma=2.0)
        lam = np.array([0.1, 0.2])
        beta = np.array([-0.3, 0.5])
        v0 = stream[0].f_value(lam, stream[0].inner_opt(lam))
        for inst in stream[1:]:
            assert inst.f_value(lam, inst.inner_opt(lam)) == v0
            np.testing.assert_array_equal(
                inst.grad_g_beta(lam, beta), stream[0].grad_g_beta(lam, beta)
            )

    def test_first_order_optimality_at_inner_opt(self):
        cfg = StreamConfig(d1=3, d2=3, T=3, drift=DriftSpec.decaying(1.0), seed=14)
        stream = meta_toy_stream(cfg, gamma=1.5)
        rng = np.random.default_rng(15)
        for inst in stream:
            lam = rng.standard_normal(3)
            res = inst.grad_g_beta(lam, inst.inner_opt(lam))
            assert np.linalg.norm(res) <= 1e-10

    def test_hypergradient_matches_finite_differences(self):
        cfg = StreamConfig(d1=2, d2=2, T=1, seed=16)
        stream = meta_toy_stream(cfg, gamma=0.8)
        inst = stream[0]
        lam = np.array([0.4, -0.6])
        fd = central_diff_grad(induced_objective(inst), lam)
        np.testing.assert_allclose(inst.exact_hypergradient(lam), fd, rtol=1e-6)

    def test_invalid_gamma_rejected(self):
        cfg = StreamConfig(d1=2, d2=2, T=1, seed=17)
        with pytest.raises(ValueError):
            meta_toy_stream(cfg, gamma=0.0)
