import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obbo.hypergrad import (
    DivergenceError,
    NeumannParams,
    WindowBuffer,
    exact_hypergradient,
    implicit_hypergradient,
    inner_gd,
    inner_sgd,
    itd_hypergradient,
    stochastic_hypergradient,
)
from obbo.problems import StreamConfig, quadratic_instant, quadratic_stream

from oracles import central_diff_grad, induced_objective, unrolled_inner_objective


def one_dim_instant(q=1.0, a=2.0, b=0.0, c=0.0, amp=0.0, l_g1=None, noise=(0.0, 0.0)):
    inst = quadratic_instant(
        t=1, A=[[a]], b=[b], Q=[[q]], c=[c], amp=amp, noise=noise, stochastic=True
    )
    if l_g1 is not None:
        inst.l_g1 = float(l_g1)
    return inst


def random_instant(rng, d1, d2, amp=0.4, kappa=5.0):
    evals = np.geomspace(1.0, kappa, d2)
    R, _ = np.linalg.qr(rng.standard_normal((d2, d2)))
    Q = R @ np.diag(evals) @ R.T
    return quadratic_instant(
        t=1,
        A=rng.standard_normal((d2, d1)),
        b=rng.standard_normal(d2),
        Q=0.5 * (Q + Q.T),
        c=rng.standard_normal(d2),
        amp=amp,
        phases=rng.uniform(0, 2 * np.pi, d1),
    )


class TestInnerGd:
    def test_single_explicit_step(self):
        inst = one_dim_instant()
        res = inner_gd(inst, np.array([1.0]), np.array([0.0]), 0.5, 1)
        assert res.final == pytest.approx(1.0)
        assert res.trajectory.shape == (2, 1)
        np.testing.assert_array_equal(res.trajectory[0], [0.0])

    def test_fixed_point_at_inner_optimum(self):
        rng = np.random.default_rng(0)
        inst = random_instant(rng, 2, 3)
        lam = rng.standard_normal(2)
        beta_hat = inst.inner_opt(lam)
        res = inner_gd(inst, lam, beta_hat, 0.1, 5)
        for row in res.trajectory:
            np.testing.assert_allclose(row, beta_hat, atol=1e-12)

    def test_contraction_bound_per_step(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            inst = random_instant(rng, d1, d2, kappa=float(rng.uniform(1.0, 20.0)))
            eta = float(rng.uniform(0.05, 1.0)) / inst.l_g1
            lam = rng.standard_normal(d1)
            beta0 = rng.standard_normal(d2)
            res = inner_gd(inst, lam, beta0, eta, 8)
            beta_hat = inst.inner_opt(lam)
            ratio_bound = 1.0 - eta * inst.mu_g
            for k in range(1, res.K + 1):
                prev = float(np.sum((res.trajectory[k - 1] - beta_hat) ** 2))
                cur = float(np.sum((res.trajectory[k] - beta_hat) ** 2))
                if prev > 1e-28:
                    assert cur / prev <= ratio_bound + 1e-12

    def test_divergent_step_size_raises(self):
        # The error names the first non-finite step, as a check after every
        # step would; k=106 is what that per-step check reported.
        inst = one_dim_instant(q=4.0)
        with pytest.raises(DivergenceError, match=r"diverged at k=106 \(t=1\)"):
            inner_gd(inst, np.array([0.0]), np.array([1e3]), 200.0, 400)

    def test_divergence_is_not_a_floating_point_warning(self):
        inst = one_dim_instant(q=4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                inner_gd(inst, np.array([0.0]), np.array([1e3]), 200.0, 400)


class TestInnerSgd:
    def test_zero_noise_matches_inner_gd_bitwise(self):
        stream = quadratic_stream(
            StreamConfig(d1=2, d2=3, T=1, seed=3), stochastic=True
        )
        inst = stream[0]
        lam = np.array([0.2, -0.1])
        beta0 = np.array([0.5, 0.0, -0.3])
        rng = np.random.default_rng(9)
        det = inner_gd(inst, lam, beta0, 0.05, 7)
        sto = inner_sgd(inst, lam, beta0, 0.05, 7, 3, rng)
        np.testing.assert_array_equal(det.trajectory, sto.trajectory)

    def test_large_batch_approaches_deterministic(self):
        sigma = 1.0
        inst = one_dim_instant(noise=(sigma, 0.0))
        lam = np.array([0.3])
        beta0 = np.array([2.0])
        eta, K = 0.2, 10
        det = inner_gd(inst, lam, beta0, eta, K).final
        rng = np.random.default_rng(10)

        def mean_gap(s, reps=100):
            gaps = []
            for _ in range(reps):
                got = inner_sgd(inst, lam, beta0, eta, K, s, rng).final
                gaps.append(abs(float(got[0] - det[0])))
            return np.mean(gaps)

        gap_small, gap_big = mean_gap(1), mean_gap(100)
        assert gap_big <= gap_small / 5.0

    def test_expected_squared_error_geometric_plus_floor(self):
        # d2=1 second-moment recursion as the oracle:
        # E e_k^2 = (1-eta*q)^2 E e_{k-1}^2 + eta^2 sigma^2 / s
        q, sigma, eta, s = 1.0, 0.5, 0.2, 1
        inst = one_dim_instant(q=q, noise=(sigma, 0.0))
        lam = np.array([0.0])
        e0 = 5.0
        beta0 = inst.inner_opt(lam) + e0
        K, reps = 12, 400
        rng = np.random.default_rng(11)
        beta_hat = float(inst.inner_opt(lam)[0])
        sq = np.zeros((reps, K + 1))
        for r in range(reps):
            traj = inner_sgd(inst, lam, beta0, eta, K, s, rng).trajectory
            sq[r] = (traj[:, 0] - beta_hat) ** 2
        emp = sq.mean(axis=0)

        contraction = (1.0 - eta * q) ** 2
        noise_term = eta**2 * sigma**2 / s
        oracle = np.empty(K + 1)
        oracle[0] = e0**2
        for k in range(1, K + 1):
            oracle[k] = contraction * oracle[k - 1] + noise_term
        stderr = sq.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(emp - oracle) <= 5.0 * stderr + 1e-12)

        # decay of the floor-removed series is log-linear at the exact rate,
        # which is at least as fast as the guaranteed contraction
        floor = noise_term / (1.0 - contraction)
        ks = np.arange(1, K + 1)
        excess = emp[1:] - floor
        assert np.all(excess > 0)
        slope = np.polyfit(ks, np.log(excess), 1)[0]
        assert slope == pytest.approx(np.log(contraction), abs=0.05)
        guaranteed = 1.0 - 2.0 * eta * inst.l_g1 * inst.mu_g / (inst.l_g1 + inst.mu_g)
        assert slope <= np.log(guaranteed) + 0.05


class TestExactHypergradient:
    def test_one_dim_value(self):
        inst = one_dim_instant()
        lam = np.array([1.0])
        got = exact_hypergradient(inst, lam)
        assert got == pytest.approx(4.0)
        fd = central_diff_grad(induced_objective(inst), lam)
        np.testing.assert_allclose(got, fd, rtol=1e-8)

    def test_f_independent_of_beta_reduces_to_outer_grad(self):
        rng = np.random.default_rng(12)
        inst = random_instant(rng, 2, 3, amp=0.7)
        inst.grad_f_beta = lambda lam, beta: np.zeros(3)
        inst.exact_hypergradient = None  # take the implicit route
        lam = rng.standard_normal(2)
        got = exact_hypergradient(inst, lam)
        np.testing.assert_allclose(got, inst.grad_f_lambda(lam, None), atol=1e-12)

    def test_matches_instant_closed_form(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            inst = random_instant(rng, 3, 4)
            lam = rng.standard_normal(3)
            np.testing.assert_allclose(
                implicit_hypergradient(inst, lam, inst.inner_opt(lam)),
                inst.exact_hypergradient(lam),
                rtol=1e-10,
                atol=1e-12,
            )
            # The closed form, when an instant has one, is what is returned.
            np.testing.assert_array_equal(
                exact_hypergradient(inst, lam), inst.exact_hypergradient(lam)
            )

    def test_missing_oracle_raises(self):
        inst = one_dim_instant()
        inst.inner_opt = None
        inst.exact_hypergradient = None
        with pytest.raises(ValueError, match="no exact-solution oracle"):
            exact_hypergradient(inst, np.array([0.0]))


class TestItdHypergradient:
    def test_one_dim_single_step(self):
        inst = one_dim_instant()
        lam = np.array([1.0])
        res = inner_gd(inst, lam, np.array([0.0]), 0.5, 1)
        got = itd_hypergradient(inst, lam, res)
        assert got == pytest.approx(1.0)
        fd = central_diff_grad(unrolled_inner_objective(inst, [0.0], 0.5, 1), lam)
        np.testing.assert_allclose(got, fd, rtol=1e-8)

    def test_matches_unrolled_finite_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            inst = random_instant(rng, d1, d2)
            eta = 0.5 / inst.l_g1
            K = int(rng.integers(1, 12))
            lam = rng.standard_normal(d1)
            beta0 = rng.standard_normal(d2)
            res = inner_gd(inst, lam, beta0, eta, K)
            got = itd_hypergradient(inst, lam, res)
            fd = central_diff_grad(unrolled_inner_objective(inst, beta0, eta, K), lam)
            assert np.linalg.norm(got - fd) <= 1e-6 * max(1.0, np.linalg.norm(got))

    def test_large_k_converges_to_exact(self):
        rng = np.random.default_rng(15)
        inst = random_instant(rng, 2, 2, kappa=2.5)
        eta = 0.4 / inst.l_g1
        lam = rng.standard_normal(2)
        res = inner_gd(inst, lam, rng.standard_normal(2), eta, 200)
        got = itd_hypergradient(inst, lam, res)
        exact = inst.exact_hypergradient(lam)
        assert np.linalg.norm(got - exact) <= 1e-6

    def test_warm_start_at_optimum_with_beta_free_f(self):
        rng = np.random.default_rng(16)
        inst = random_instant(rng, 2, 3, amp=0.9)
        inst.grad_f_beta = lambda lam, beta: np.zeros(3)
        lam = rng.standard_normal(2)
        beta_hat = inst.inner_opt(lam)
        for K in (1, 3, 10):
            res = inner_gd(inst, lam, beta_hat, 0.1, K)
            got = itd_hypergradient(inst, lam, res)
            np.testing.assert_array_equal(got, inst.grad_f_lambda(lam, beta_hat))

    def test_error_decays_geometrically_in_k(self):
        # d2=1 instant: single contraction mode, slope = log(1 - eta*mu)
        inst = one_dim_instant(q=1.0, a=1.3, b=0.4, c=0.2, amp=0.3)
        eta = 0.08
        lam = np.array([0.7])
        beta0 = np.array([3.0])
        exact = inst.exact_hypergradient(lam)
        ks = np.arange(5, 61, 5)
        errs = []
        for K in ks:
            res = inner_gd(inst, lam, beta0, eta, int(K))
            errs.append(np.linalg.norm(itd_hypergradient(inst, lam, res) - exact))
        slope = np.polyfit(ks, np.log(errs), 1)[0]
        target = 0.5 * np.log(1.0 - eta * inst.mu_g)
        assert abs(slope - target) <= 0.05


class TestStochasticHypergradient:
    def test_m_one_zero_noise_closed_form(self):
        inst = one_dim_instant(q=0.5, a=2.0, b=0.1, c=-0.2, l_g1=1.0)
        lam, beta = np.array([0.4]), np.array([0.8])
        rng = np.random.default_rng(17)
        got = stochastic_hypergradient(inst, lam, beta, NeumannParams(1, inst.l_g1), rng)
        # empty product: grad_f_lambda - (1/l) * hvp_lambdabeta(grad_f_beta)
        expected = inst.grad_f_lambda(lam, beta) - inst.hvp_g_lambdabeta(
            lam, beta, inst.grad_f_beta(lam, beta) / inst.l_g1
        )
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_monte_carlo_mean_matches_truncated_series(self):
        # constant curvature q, scale l: E over the truncation level equals
        # (1/q) (1 - (1-q/l)^m) applied to the correction term
        q, ell, m = 0.5, 1.0, 6
        inst = one_dim_instant(q=q, a=2.0, b=0.1, c=-0.2, l_g1=ell)
        lam, beta = np.array([0.4]), np.array([0.8])
        rng = np.random.default_rng(18)
        n = 100_000
        draws = np.empty(n)
        params = NeumannParams(m, ell)
        for i in range(n):
            draws[i] = stochastic_hypergradient(inst, lam, beta, params, rng)[0]
        series_weight = (1.0 / q) * (1.0 - (1.0 - q / ell) ** m)
        corr = inst.hvp_g_lambdabeta(lam, beta, inst.grad_f_beta(lam, beta))[0]
        expected = inst.grad_f_lambda(lam, beta)[0] - series_weight * corr
        stderr = draws.std(ddof=1) / np.sqrt(n)
        assert abs(draws.mean() - expected) <= 4.0 * stderr

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(
        d1=st.integers(1, 3),
        d2=st.integers(1, 3),
        m=st.integers(1, 20),
        ell_factor=st.floats(1.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    def test_mean_over_truncation_levels_is_neumann_sum(self, d1, d2, m, ell_factor, seed):
        # Averaged over every level k = 0..m-1 the estimate is
        # grad_f_lambda - J ((1/l) sum_{k<m} (I - H/l)^k grad_f_beta), with the
        # inner Hessian H = Q and the cross Jacobian J = -A'Q as matrices.
        rng = np.random.default_rng(seed)
        R, _ = np.linalg.qr(rng.standard_normal((d2, d2)))
        Q = R @ np.diag(np.geomspace(1.0, 6.0, d2)) @ R.T
        Q = 0.5 * (Q + Q.T)
        A = rng.standard_normal((d2, d1))
        inst = quadratic_instant(
            t=1, A=A, b=rng.standard_normal(d2), Q=Q, c=rng.standard_normal(d2),
            amp=0.5, phases=rng.uniform(0, 2 * np.pi, d1), stochastic=True,
        )
        lam, beta = rng.standard_normal(d1), rng.standard_normal(d2)
        ell = inst.l_g1 * ell_factor
        params = NeumannParams(m, ell)

        class Level:
            def __init__(self, k):
                self.k = k

            def integers(self, high):
                assert high == m
                return self.k

        mean = sum(
            stochastic_hypergradient(inst, lam, beta, params, Level(k)) for k in range(m)
        ) / m
        step = np.eye(d2) - Q / ell
        series = sum(np.linalg.matrix_power(step, k) for k in range(m)) / ell
        u = series @ inst.grad_f_beta(lam, beta)
        expected = inst.grad_f_lambda(lam, beta) - (-A.T @ Q) @ u
        np.testing.assert_allclose(mean, expected, rtol=1e-10)

    def test_bias_decays_geometrically_in_m(self):
        q, ell = 0.1, 1.0
        inst = one_dim_instant(q=q, a=1.5, b=0.3, c=0.4, l_g1=ell)
        lam = np.array([0.2])
        beta = inst.inner_opt(lam)
        exact = inst.exact_hypergradient(lam)[0]
        rng = np.random.default_rng(19)
        ms = np.arange(1, 11)
        biases = []
        for m in ms:
            params = NeumannParams(int(m), ell)
            draws = [
                stochastic_hypergradient(inst, lam, beta, params, rng)[0]
                for _ in range(20_000)
            ]
            biases.append(abs(np.mean(draws) - exact))
        slope = np.polyfit(ms, np.log(biases), 1)[0]
        assert np.exp(slope) == pytest.approx(1.0 - q / ell, rel=0.1)

    def test_invalid_m_rejected(self):
        with pytest.raises(ValueError):
            NeumannParams(0, 1.0)


class TestWindowBuffer:
    def test_w1_returns_latest(self):
        buf = WindowBuffer(1)
        buf.push([1.0, 2.0])
        buf.push([3.0, -1.0])
        np.testing.assert_array_equal(buf.average(), [3.0, -1.0])

    def test_zero_padding_before_full(self):
        buf = WindowBuffer(3)
        buf.push([1.0, 0.0])
        buf.push([0.0, 1.0])
        np.testing.assert_allclose(buf.average(), [1 / 3, 1 / 3])
        assert len(buf) == 2

    def test_full_buffer_of_identical_vectors(self):
        buf = WindowBuffer(4)
        v = np.array([0.5, -2.0, 1.0])
        for _ in range(4):
            buf.push(v)
        np.testing.assert_allclose(buf.average(), v)

    def test_eviction_oldest_first(self):
        buf = WindowBuffer(2)
        for v in ([1.0], [2.0], [3.0]):
            buf.push(v)
        np.testing.assert_allclose(buf.average(), [2.5])

    def test_linearity(self):
        rng = np.random.default_rng(20)
        entries = [rng.standard_normal(3) for _ in range(5)]
        a = 2.7
        buf1, buf2 = WindowBuffer(5), WindowBuffer(5)
        for e in entries:
            buf1.push(e)
            buf2.push(a * e)
        np.testing.assert_allclose(a * buf1.average(), buf2.average())

    def test_empty_average_raises(self):
        with pytest.raises(ValueError):
            WindowBuffer(2).average()

    @pytest.mark.parametrize("w", [1, 3, 10, 25])
    @pytest.mark.parametrize("d", [1, 4])
    def test_average_matches_loop_from_zero_bitwise(self, w, d):
        # Reference: add the window oldest first onto zeros, then divide.
        rng = np.random.default_rng(w * 10 + d)
        entries = rng.standard_normal((40, d)) * 10.0 ** rng.uniform(-8, 8, (40, d))
        entries[rng.random((40, d)) < 0.1] = -0.0
        buf = WindowBuffer(w)
        for i, e in enumerate(entries):
            buf.push(e)
            total = np.zeros(d)
            for past in entries[max(0, i - w + 1) : i + 1]:
                total = total + past
            expected = total / w
            got = buf.average()
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))
            assert len(buf) == min(i + 1, w)


class TestImplicitHypergradient:
    def test_equals_exact_at_inner_optimum(self):
        rng = np.random.default_rng(21)
        inst = random_instant(rng, 2, 4)
        lam = rng.standard_normal(2)
        beta_hat = inst.inner_opt(lam)
        np.testing.assert_allclose(
            implicit_hypergradient(inst, lam, beta_hat),
            inst.exact_hypergradient(lam),
            rtol=1e-9,
            atol=1e-11,
        )

    def test_hvp_solve_route_matches_spline_closed_form(self):
        from obbo.problems import make_drifting_spline_task, spline_stream

        task = make_drifting_spline_task(seed=4, T=2, n_knots=10)
        for inst in spline_stream(task):
            for lam_val in (1e-3, 0.2, 2.0):
                lam = np.array([lam_val])
                np.testing.assert_allclose(
                    implicit_hypergradient(inst, lam, inst.inner_opt(lam)),
                    inst.exact_hypergradient(lam),
                    rtol=1e-9,
                    atol=1e-12,
                )
