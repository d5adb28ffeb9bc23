import copy
import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obbo.geometry import FeasibleSet, Regularizer
from obbo.hypergrad import (
    DivergenceError,
    WindowBuffer,
    implicit_hypergradient,
    inner_gd,
    inner_sgd,
    itd_hypergradient,
    stochastic_hypergradient,
)
from obbo.metrics import RegretSeries, compute_regret_series
from obbo.optimizers import Adaptive, ObboConfig, SobboConfig, run_obbo, run_sobbo
from obbo.problems import (
    DriftSpec,
    make_drifting_spline_task,
    meta_toy_stream,
    quadratic_instant,
    quadratic_stream,
    spline_stream,
)
from obbo.problems.quadratic import InnerQuadratic, QuadraticData

from oracles import (
    ORACLE_FIELDS,
    central_diff_grad,
    constant_gradient_instant,
    count_kernel_rows,
    induced_objective,
    unrolled_inner_objective,
    without_kernels,
)
from referee import error_in_eps, inner_gd_reference


def one_dim_instant(q=1.0, a=2.0, b=0.0, c=0.0, amp=0.0, l_g1=None, noise=(0.0, 0.0)):
    inst = quadratic_instant(t=1, A=[[a]], b=[b], Q=[[q]], c=[c], amp=amp, noise=noise)
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

    @pytest.mark.parametrize("sampled", [False, True], ids=["gd", "sgd"])
    @pytest.mark.parametrize("k, bad", [(1, np.inf), (5, np.nan), (5, -np.inf), (12, np.inf)])
    def test_oracle_loop_names_first_non_finite_step(self, sampled, k, bad):
        # A hand-built instant runs the oracle loop, not a kernel. Its
        # gradient is non-finite on call k only, yet every later row stays
        # non-finite, so the check of the last row catches it and the scan
        # names k. At zero noise inner SGD calls the same gradient.
        calls = iter(range(1, 13))

        def grad(lam, beta):
            return np.full_like(beta, bad if next(calls) == k else 0.0)

        inst = constant_gradient_instant(1, [0.0])
        inst.grad_g_beta = grad
        args = (inst, np.zeros(1), np.ones(1), 0.1, 12)
        with pytest.raises(DivergenceError, match=rf"diverged at k={k} \(t=1\)"):
            if sampled:
                inner_sgd(*args, 2, np.random.default_rng(0))
            else:
                inner_gd(*args)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_oracle_loop_names_a_step_before_the_last(self, k, bad):
        # One entry of three turns non-finite at step k < K = 8, and the gradient
        # is the iterate, so the later steps form inf - inf or NaN arithmetic
        # there; that entry stays non-finite, and the last row's check names k.
        calls = iter(range(1, 9))

        def grad(lam, beta):
            g = beta.copy()
            if next(calls) == k:
                g[1] = bad
            return g

        inst = constant_gradient_instant(1, [0.0])
        inst.grad_g_beta = grad
        with pytest.raises(DivergenceError, match=rf"diverged at k={k} \(t=1\)"):
            inner_gd(inst, np.zeros(1), np.ones(3), 0.5, 8)


class TestInnerSgd:
    def test_zero_noise_matches_inner_gd_bitwise(self):
        # Inner GD runs the quadratic instant's matrix kernel, and calls
        # grad_g_beta on the meta and spline instants.
        instants = [
            quadratic_stream(d1=2, d2=3, T=1, seed=3)[0],
            meta_toy_stream(d=3, T=1, seed=3)[0],
            spline_stream(make_drifting_spline_task(T=1, seed=3, n_knots=6))[0],
        ]
        for inst in instants:
            lam = np.linspace(0.2, -0.1, inst.d1)
            beta0 = np.linspace(0.5, -0.3, inst.d2)
            eta = 0.5 / inst.l_g1
            rng = np.random.default_rng(9)
            det = inner_gd(inst, lam, beta0, eta, 7)
            sto = inner_sgd(inst, lam, beta0, eta, 7, 3, rng)
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
        got = inst.exact_hypergradient(lam)
        assert got == pytest.approx(4.0)
        fd = central_diff_grad(induced_objective(inst), lam)
        np.testing.assert_allclose(got, fd, rtol=1e-8)

    def test_f_independent_of_beta_reduces_to_outer_grad(self):
        rng = np.random.default_rng(12)
        inst = random_instant(rng, 2, 3, amp=0.7)
        inst.grad_f_beta = lambda lam, beta: np.zeros(3)
        lam = rng.standard_normal(2)
        got = implicit_hypergradient(inst, lam, inst.inner_opt(lam))
        np.testing.assert_allclose(got, inst.grad_f_lambda(lam, None), atol=1e-12)

    def test_matches_instant_closed_form(self):
        """Each data class's closed form equals the implicit form at its optimum."""
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
        meta = meta_toy_stream(d=3, T=20, seed=5, drift=DriftSpec.decaying())
        spline = spline_stream(make_drifting_spline_task(seed=6, T=20, n_knots=8))
        for inst in meta + spline:
            lam = rng.uniform(0.1, 1.0, inst.d1)
            np.testing.assert_allclose(
                implicit_hypergradient(inst, lam, inst.inner_opt(lam)),
                inst.exact_hypergradient(lam),
                rtol=1e-10,
                atol=1e-12,
            )


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


def unused_oracle(*args):
    raise AssertionError("the matrix path called an oracle field")


def both_paths(seed, d1, d2):
    """A random instant at zero noise as two copies: one whose
    oracle fields fail if called, so only its ``QuadraticData`` kernels can
    run, and one without kernels, which takes the oracle path."""
    rng = np.random.default_rng(seed)
    inst = random_instant(rng, d1, d2, kappa=float(rng.uniform(1.0, 20.0)))
    matrix, oracles = copy.copy(inst), without_kernels(inst)
    matrix.grad_g_beta = unused_oracle
    matrix.hvp_g_lambdabeta = unused_oracle
    matrix.hvp_g_betabeta = unused_oracle
    return rng, matrix, oracles


class TestQuadraticMatrixPath:
    """Inner GD and ITD on an instant over ``QuadraticData`` run its kernels;
    a copy without kernels takes the oracle (HVP) path. Inner GD's closed
    form rounds each entry once, so its rows meet the 40-digit referee to
    within one epsilon; fed the same trajectory, the two ITD paths agree bit
    for bit, and a diverging step is reported at the same row."""

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        d1=st.integers(1, 4),
        d2=st.integers(1, 8),
        K=st.integers(1, 12),
        eta_factor=st.floats(0.05, 1.9),
        seed=st.integers(0, 2**16),
    )
    # At d1 = 1 the K cross HVPs are one column, which sum(axis=0) would add
    # pairwise; at this draw that changes the ITD estimate's bits.
    @example(d1=1, d2=6, K=12, eta_factor=1.0, seed=0)
    def test_trajectory_meets_the_referee_and_itd_equals_the_oracle_path(
        self, d1, d2, K, eta_factor, seed
    ):
        rng, matrix, oracles = both_paths(seed, d1, d2)
        eta = eta_factor / matrix.l_g1
        lam, beta0 = rng.standard_normal(d1), rng.standard_normal(d2)
        solve = inner_gd(matrix, lam, beta0, eta, K)
        exact = inner_gd_reference(matrix.A, matrix.b, matrix.Q, lam, beta0, eta, K)
        assert np.array_equal(solve.trajectory[0], beta0)
        for k in range(1, K + 1):
            assert error_in_eps(solve.trajectory[k], exact[k]) <= 1.0, k
        assert np.array_equal(
            itd_hypergradient(matrix, lam, solve), itd_hypergradient(oracles, lam, solve)
        )

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        d1=st.integers(1, 4),
        d2=st.integers(1, 12),
        Ks=st.lists(st.integers(1, 20), min_size=2, max_size=2, unique=True),
        eta_factor=st.floats(0.05, 1.9),
        seed=st.integers(0, 2**16),
    )
    # At d1 = 1 the K cross HVPs are one column, which sum(axis=0) would add pairwise.
    @example(d1=1, d2=6, Ks=[12, 5], eta_factor=1.0, seed=0)
    def test_itd_at_two_K_on_one_instant_equals_the_oracle_path(
        self, d1, d2, Ks, eta_factor, seed
    ):
        # The kernel keeps one workspace per (eta, K) in the instant's cache.
        rng, matrix, oracles = both_paths(seed, d1, d2)
        eta = eta_factor / matrix.l_g1
        for K in Ks:
            lam, beta0 = rng.standard_normal(d1), rng.standard_normal(d2)
            solve = inner_gd(matrix, lam, beta0, eta, K)
            assert np.array_equal(
                itd_hypergradient(matrix, lam, solve), itd_hypergradient(oracles, lam, solve)
            )

    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(
        d1=st.integers(1, 4),
        d2=st.integers(1, 8),
        log_eta=st.floats(60.0, 150.0),
        seed=st.integers(0, 2**16),
    )
    def test_divergence_reported_alike(self, d1, d2, log_eta, seed):
        rng, matrix, oracles = both_paths(seed, d1, d2)
        lam, beta0 = rng.standard_normal(d1), rng.standard_normal(d2)
        messages = []
        for inst in (matrix, oracles):
            with pytest.raises(DivergenceError) as info:
                inner_gd(inst, lam, beta0, 10.0**log_eta, 12)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("inner iterate diverged at k=")


class TestInnerGdFastPath:
    """On quadratic data, inner GD forms only omega^K when the stack's cached
    bound proves every row finite, and the trajectory on first read; either
    way the result has the bits of the full ``stack @ x`` product rounded
    once. Any input the bound cannot clear takes the full path, which forms
    and scans every row."""

    @staticmethod
    def full_product(inst, lam, beta0, eta, K):
        """The trajectory as the full path forms it: beta0, then every row of
        the cached stack applied to [beta0; lam; b], rounded once."""
        stack = inst.inner.descent(eta, K)[0]
        x = np.concatenate((beta0, lam, inst.b), dtype=np.longdouble)
        return np.vstack((beta0, np.asarray(stack @ x, dtype=float).reshape(K, -1)))

    @staticmethod
    def counted(monkeypatch):
        """Counts the calls of ``QuadraticData.inner_gd_rows``, which forms a whole
        trajectory."""
        calls = []
        form = QuadraticData.inner_gd_rows
        monkeypatch.setattr(QuadraticData, "inner_gd_rows",
                            lambda *a: calls.append(a) or form(*a))
        return calls

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        d1=st.integers(1, 4),
        d2=st.integers(1, 12),
        K=st.sampled_from([1, 5, 12]),
        eta_factor=st.floats(0.1, 1.9),
        seed=st.integers(0, 2**16),
    )
    @example(d1=2, d2=1, K=12, eta_factor=1.9, seed=0)
    def test_final_and_trajectory_equal_the_full_product(self, d1, d2, K, eta_factor, seed):
        rng = np.random.default_rng(seed)
        inst = random_instant(rng, d1, d2, kappa=float(rng.uniform(1.0, 100.0)))
        eta = eta_factor / inst.l_g1
        lam, beta0 = rng.standard_normal(d1), rng.standard_normal(d2)
        solve = inner_gd(inst, lam, beta0, eta, K)
        want = self.full_product(inst, lam, beta0, eta, K)
        assert (solve.K, solve.eta) == (K, eta)
        assert np.array_equal(solve.final, want[-1])
        assert np.array_equal(solve.trajectory, want)
        assert solve.trajectory is solve.trajectory
        assert not np.shares_memory(solve.trajectory, beta0)

    def test_a_typical_solve_forms_no_trajectory_until_it_is_read(self, monkeypatch):
        calls = self.counted(monkeypatch)
        inst = quadratic_stream(d1=4, d2=6, T=1, kappa_target=100.0, seed=1)[0]
        lam, beta0 = np.linspace(-1.0, 1.0, 4), np.linspace(2.0, -2.0, 6)
        solve = inner_gd(inst, lam, beta0, 1.0 / inst.l_g1, 12)
        itd_hypergradient(inst, lam, solve)
        assert calls == []
        solve.trajectory
        solve.trajectory
        assert len(calls) == 1

    def test_large_finite_inputs_take_the_full_path_and_give_the_same_bits(self, monkeypatch):
        calls = self.counted(monkeypatch)
        inst = quadratic_stream(d1=2, d2=3, T=1, seed=2)[0]
        lam, beta0 = np.array([1e300, -1e300]), np.array([1e300, 0.0, -1e300])
        eta = 1.0 / inst.l_g1
        solve = inner_gd(inst, lam, beta0, eta, 5)
        assert len(calls) == 1
        assert np.array_equal(solve.trajectory, self.full_product(inst, lam, beta0, eta, 5))
        assert np.array_equal(solve.final, solve.trajectory[-1])

    @staticmethod
    def five_by_three():
        inst = quadratic_stream(d1=3, d2=5, T=1, kappa_target=10.0, seed=4)[0]
        return inst, np.linspace(-0.5, 0.5, 3), np.linspace(1.0, -1.0, 5), 1.0 / inst.l_g1

    @pytest.mark.parametrize(
        "case, k",
        [("nan lambda", 1), ("inf beta0", 1), ("eta 200, K 400", 106), ("stack overflows", 29)],
    )
    def test_non_finite_rows_take_the_full_path_and_raise(self, monkeypatch, case, k):
        # Each k is the first non-finite row, as a scan of every row names it.
        inst, lam, beta0, eta = self.five_by_three()
        K = 12
        if case == "nan lambda":
            lam[1] = np.nan
        elif case == "inf beta0":
            beta0[2] = np.inf
        elif case == "eta 200, K 400":
            inst, lam, beta0 = one_dim_instant(q=4.0), np.zeros(1), np.array([1e3])
            eta, K = 200.0, 400
        else:
            eta, K = 1e10, 500
        calls = self.counted(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                inner_gd(inst, lam, beta0, eta, K)
            stack, _, cap = inst.inner.descent(eta, K)
        assert str(info.value) == (
            f"inner iterate diverged at k={k} (t=1); "
            f"eta={eta} likely violates the step size condition"
        )
        assert len(calls) == 1
        if case == "stack overflows":
            assert not np.isfinite(stack).all() and not cap > 0


def quadratic_outputs(inst, lam, beta, v, eta, K, ell, m):
    """Every oracle and kernel of a quadratic instant, at one set of inputs."""
    return {
        "grad_g_beta": inst.grad_g_beta(lam, beta),
        "hvp_g_lambdabeta": inst.hvp_g_lambdabeta(lam, beta, v),
        "hvp_g_betabeta": inst.hvp_g_betabeta(lam, beta, v),
        "inner_opt": inst.inner_opt(lam),
        "exact_hypergradient": inst.exact_hypergradient(lam),
        "inner_gd": inner_gd(inst, lam, beta, eta, K).trajectory,
        "itd_correction": inst.inner.itd_correction(v, eta, K),
        **{f"neumann_correction[{k}]": inst.inner.neumann_correction(v, ell, m, k) for k in range(m)},
    }


class TestDotProducts:
    """The quadratic oracles and kernels form their matrix-vector products
    with ``ndarray.dot``, which has less call overhead than ``@``. On
    contiguous matrices the two give the same bits, for contiguous and
    strided vectors alike; on strided matrices they need not, so an instant
    stores contiguous copies of A and Q. The ITD kernel's one stacked
    ``matmul`` for its cross HVPs gives the bits of the per-vector ``@``
    too. The inner-GD kernel is a closed form that the referee checks
    (``tests/test_referee.py``); strided inputs still give it the bits of
    contiguous ones."""

    dims = dict(
        d1=st.integers(1, 4),
        d2=st.integers(1, 12),
        K=st.integers(1, 6),
        m=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )

    @staticmethod
    def strided_views(rng, *shapes):
        """Arrays of the given shapes as every-other-entry views of larger ones."""
        views = []
        for shape in shapes:
            big = rng.standard_normal(tuple(2 * n for n in shape))
            views.append(big[tuple(slice(None, None, 2) for _ in shape)])
        return views

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(strided=st.booleans(), **dims)
    def test_each_product_equals_its_matmul_form(self, d1, d2, K, m, seed, strided):
        rng = np.random.default_rng(seed)
        R, _ = np.linalg.qr(rng.standard_normal((d2, d2)))
        Q = R @ np.diag(np.geomspace(1.0, 5.0, d2)) @ R.T
        A, b, c = rng.standard_normal((d2, d1)), rng.standard_normal(d2), rng.standard_normal(d2)
        amp, phases = 0.4, rng.uniform(0, 2 * np.pi, d1)
        inst = quadratic_instant(t=1, A=A, b=b, Q=0.5 * (Q + Q.T), c=c, amp=amp, phases=phases)
        if strided:
            lam, beta, v = self.strided_views(rng, (d1,), (d2,), (d2,))
        else:
            lam, beta, v = rng.standard_normal(d1), rng.standard_normal(d2), rng.standard_normal(d2)
        eta, ell = 0.5 / inst.l_g1, 1.5 * inst.l_g1
        Q = inst.Q
        itd, w = np.zeros(d1), v
        for _ in range(K - 1):
            itd += -A.T @ (Q @ w)
            w = w - eta * (Q @ w)
        itd += -A.T @ (Q @ w)
        got = quadratic_outputs(inst, lam, beta, v, eta, K, ell, m)
        levels = inst.inner.cache[ell, m]
        want = {
            "grad_g_beta": Q @ ((beta - A @ lam) - b),
            "hvp_g_lambdabeta": -A.T @ (Q @ v),
            "hvp_g_betabeta": Q @ v,
            "inner_opt": A @ lam + b,
            "exact_hypergradient": -amp * np.sin(lam + phases) + A.T @ (A @ lam + b - c),
            "itd_correction": itd,
            **{f"neumann_correction[{k}]": levels[k] @ v for k in range(m)},
        }
        for name, value in want.items():
            assert np.array_equal(got[name], value), name

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(**{**dims, "d2": st.integers(2, 12)})
    def test_strided_data_gives_the_bits_of_contiguous_data(self, d1, d2, K, m, seed):
        rng = np.random.default_rng(seed)
        A, R = self.strided_views(rng, (d2, d1), (d2, d2))
        Q = np.zeros((2 * d2, 2 * d2))[::2, ::2]
        Q[...] = R @ R.T + d2 * np.eye(d2)
        assert not (A.flags.c_contiguous or Q.flags.c_contiguous)
        b, c = rng.standard_normal(d2), rng.standard_normal(d2)
        views = quadratic_instant(t=1, A=A, b=b, Q=Q, c=c, amp=0.3)
        copies = quadratic_instant(t=1, A=A.copy(), b=b, Q=Q.copy(), c=c, amp=0.3)
        lam, beta, v = rng.standard_normal(d1), rng.standard_normal(d2), rng.standard_normal(d2)
        eta, ell = 0.5 / views.l_g1, 1.5 * views.l_g1
        got = quadratic_outputs(views, lam, beta, v, eta, K, ell, m)
        want = quadratic_outputs(copies, lam, beta, v, eta, K, ell, m)
        for name, value in want.items():
            assert np.array_equal(got[name], value), name


def same_bits(got, want) -> bool:
    """Equal values and signs, so that -0.0 differs from 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestRegretKernel:
    """``QuadraticStream.regret_rows`` forms every round's exact hypergradient,
    ``f_value`` and squared ``grad_g_beta`` norm in one stacked pass with the
    bits of the per-row oracle calls, signed zeros included; the metrics take
    it only on the stream object, and a slice or ``list`` of its instants, or
    any other sequence, takes the per-row path."""

    DRIFTS = {"static": DriftSpec(), "decaying": DriftSpec("decaying"),
              "sublinear": DriftSpec("sublinear")}

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(d1=st.integers(1, 9), d2=st.integers(1, 12), T=st.integers(1, 60),
           amp=st.sampled_from([0, 0.0, 0.5, 3]), drift=st.sampled_from(sorted(DRIFTS)),
           seed=st.integers(0, 2**16))
    def test_kernel_equals_per_row_oracles(self, d1, d2, T, amp, drift, seed):
        stream = quadratic_stream(d1, d2, T, drift=self.DRIFTS[drift], seed=seed,
                                  cos_amplitude=amp)
        rng = np.random.default_rng(seed)
        lambdas = rng.standard_normal((T, d1)) * 10.0 ** rng.integers(-3, 4, (T, 1))
        betas = rng.standard_normal((T, d2))
        lambdas[0], betas[0] = -0.0, 0.0  # signed zeros through sin, cos and the products
        got = stream.regret_rows(lambdas, betas)
        want = [[], [], []]
        for inst, lam, beta in zip(stream, lambdas, betas):
            r = inst.grad_g_beta(lam, beta)
            for column, value in zip(want, (inst.exact_hypergradient(lam),
                                            inst.f_value(lam, beta), r.dot(r))):
                column.append(value)
        for name, g, w in zip(("exact_hypergradient", "f_value", "residual_sq"), got, want):
            assert same_bits(g, np.array(w)), name

    RUNS = {
        "adaptive-clip": (dict(d1=4, d2=6, amp=0.4, drift="sublinear"),
                          ObboConfig(alpha=0.05, eta=0.1, K=5, w=3, phi=Adaptive(),
                                     clip_threshold=0.05)),
        "box-l1-amp-int-0": (dict(d1=3, d2=2, amp=0, drift="decaying"),
                             ObboConfig(alpha=0.1, eta=0.1, K=4, w=2,
                                        regularizer=Regularizer.l1(0.05),
                                        feasible=FeasibleSet.box([-1.0] * 3, [1.0] * 3))),
        "d1-9": (dict(d1=9, d2=4, amp=3, drift="static"),
                 ObboConfig(alpha=0.01, eta=0.1, K=3, w=4)),
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_series_equal_on_both_paths(self, name, monkeypatch):
        spec, config = self.RUNS[name]
        stream = quadratic_stream(spec["d1"], spec["d2"], 40, drift=self.DRIFTS[spec["drift"]],
                                  seed=3, cos_amplitude=spec["amp"])
        trace = run_obbo(stream, config)  # one trace: only the metrics path differs
        kernel_rows = count_kernel_rows(monkeypatch)
        fast = compute_regret_series(stream, trace)
        assert kernel_rows == [trace.T]
        slow = compute_regret_series(list(stream), trace)
        assert kernel_rows == [trace.T]
        for field in dataclasses.fields(RegretSeries):
            assert same_bits(getattr(fast, field.name), getattr(slow, field.name)), field.name

    def test_slices_and_lists_of_a_stream_take_the_per_row_path(self, monkeypatch):
        # A T-round trace against a stream of T + 7 rounds: its kernel reads the
        # first T rows, with the bits of the T-round stream's kernel, while a
        # slice or a list of its instants, a plain list, takes the per-row path.
        T, config = 20, ObboConfig(alpha=0.05, eta=0.1, K=3, w=3, phi=Adaptive())
        short, long = (quadratic_stream(3, 4, n, drift=DriftSpec("sublinear"), seed=4,
                                        cos_amplitude=0.5) for n in (T, T + 7))
        trace = run_obbo(short, config)
        kernel_rows = count_kernel_rows(monkeypatch)
        want = compute_regret_series(short, trace)
        for stream, calls in ((long, [T]), (long[:T], []), (long[:T + 3], []), (list(long), [])):
            kernel_rows.clear()
            got = compute_regret_series(stream, trace)
            assert kernel_rows == calls
            for field in dataclasses.fields(RegretSeries):
                assert same_bits(getattr(got, field.name), getattr(want, field.name)), field.name

    def test_hand_built_instants_take_the_per_row_path(self, monkeypatch):
        rng = np.random.default_rng(7)
        stream = [random_instant(rng, 3, 4) for _ in range(12)]  # each with its own A
        trace = run_obbo(stream, ObboConfig(alpha=0.05, eta=0.1, K=3, w=2))
        kernel_rows = count_kernel_rows(monkeypatch)
        series = compute_regret_series(stream, trace)
        assert kernel_rows == []
        for t, (inst, lam, beta) in enumerate(zip(stream, trace.lambdas, trace.betas)):
            r = inst.grad_g_beta(lam, beta)
            assert same_bits(series.exact_grads[t], inst.exact_hypergradient(lam))
            assert same_bits(series.outer_loss[t], inst.f_value(lam, beta))
            assert same_bits(series.inner_residual[t], np.sqrt(r.dot(r)))

    @pytest.mark.parametrize("path", ["kernel", "per-row"])
    def test_overflowing_outer_loss_names_column_and_round(self, path):
        stream = quadratic_stream(2, 3, 8, seed=1)
        trace = run_obbo(stream, ObboConfig(alpha=0.05, eta=0.1, K=3, w=2))
        betas = trace.betas.copy()
        betas[4] = 1e200  # (beta - c)^2 overflows at t = 5
        trace = dataclasses.replace(trace, betas=betas)
        with pytest.raises(DivergenceError) as info:
            compute_regret_series(stream if path == "kernel" else list(stream), trace)
        assert str(info.value) == "outer_loss became non-finite at t=5; aborting run"


def itd_loop_reference(quad, v, eta, K):
    """The ITD kernel as it was before its workspace: every buffer per call."""
    Qvs = np.empty((K, quad.Q.shape[0]))
    Qv = quad.Q.dot(v, Qvs[0])
    for row in Qvs[1:]:
        v = v - eta * Qv
        Qv = quad.Q.dot(v, row)
    terms = np.zeros((K + 1, quad.inner.neg_At.shape[0], 1))
    np.matmul(quad.inner.neg_At, Qvs[:, :, None], terms[1:])
    return np.add.accumulate(terms)[-1, :, 0]


class TestKernelBuffers:
    """Inner GD and the ITD kernel write into no input, and return no array
    that is, or is a view of, a buffer they keep: the ITD workspace cached on
    the data a stream's instants share is overwritten by the next call."""

    K = 6

    @staticmethod
    def stream():
        """Two quadratic instants that share A, Q and -A' but not b."""
        return quadratic_stream(d1=3, d2=5, T=2, drift=DriftSpec("sublinear"), seed=6)

    @pytest.mark.parametrize("path", ["quadratic", "oracle", "sgd", "meta"])
    def test_inner_solve_leaves_beta0_unchanged(self, path):
        inst = meta_toy_stream(d=3, T=1, seed=2)[0] if path == "meta" else self.stream()[0]
        if path == "oracle":
            inst = without_kernels(inst)
        rng = np.random.default_rng(1)
        lam, beta0 = rng.standard_normal(inst.d1), rng.standard_normal(inst.d2)
        kept = beta0.copy()
        eta = 0.5 / inst.l_g1
        if path == "sgd":
            solve = inner_sgd(inst, lam, beta0, eta, self.K, 2, rng)
        else:
            solve = inner_gd(inst, lam, beta0, eta, self.K)
        assert np.array_equal(beta0, kept)
        assert np.array_equal(solve.trajectory[0], kept)
        assert not np.shares_memory(solve.trajectory, beta0)

    def test_oracle_loop_does_not_write_into_returned_gradients(self):
        # One oracle returns its own argument (a row of the trajectory), the
        # other an array it keeps; the steps must write into neither.
        inst = without_kernels(self.stream()[0])
        kept = np.linspace(-1.0, 1.0, inst.d2)
        beta0, eta = np.linspace(0.5, -0.3, inst.d2), 0.25
        for grad in (lambda lam, beta: beta, lambda lam, beta: kept):
            inst.grad_g_beta = grad
            want = [beta0]
            for _ in range(self.K):
                want.append(want[-1] - eta * grad(None, want[-1]))
            got = inner_gd(inst, np.zeros(inst.d1), beta0, eta, self.K).trajectory
            assert np.array_equal(got, np.array(want))
        assert np.array_equal(kept, np.linspace(-1.0, 1.0, inst.d2))

    def test_itd_correction_leaves_v_unchanged(self):
        inst = self.stream()[0]
        v = np.random.default_rng(2).standard_normal(inst.d2)
        kept = v.copy()
        inst.inner.itd_correction(v, 0.5 / inst.l_g1, self.K)
        assert np.array_equal(v, kept)

    def test_a_second_solve_leaves_the_first_unchanged(self):
        first, second = self.stream()
        assert first.A is second.A
        rng = np.random.default_rng(3)
        eta = 0.5 / first.l_g1
        outputs = []
        for inst in (first, second):
            lam, beta0, v = (rng.standard_normal(n) for n in (inst.d1, inst.d2, inst.d2))
            solve = inner_gd(inst, lam, beta0, eta, self.K)
            correction = inst.inner.itd_correction(v, eta, self.K)
            estimate = itd_hypergradient(inst, lam, solve)
            outputs.append((solve.trajectory, correction, estimate))
            if inst is first:
                kept = [x.copy() for x in outputs[0]]
        for got, want in zip(outputs[0], kept):
            assert np.array_equal(got, want)
        for got, other in zip(outputs[0], outputs[1]):
            assert not np.shares_memory(got, other)

    def test_a_second_noisy_solve_leaves_the_first_unchanged(self):
        # inner SGD steps through a scratch buffer that holds eta and the step;
        # neither may be, or back, what a result returns.
        inst = quadratic_stream(d1=3, d2=5, T=1, noise=(0.4, 0.0), seed=6)[0]
        rng = np.random.default_rng(4)
        lam, beta0, eta = rng.standard_normal(3), rng.standard_normal(5), 0.5 / inst.l_g1
        first = inner_sgd(inst, lam, beta0, eta, self.K, 2, rng)
        kept = first.final.copy(), first.trajectory.copy()
        second = inner_sgd(inst, lam, beta0, eta, self.K, 2, rng)
        assert not np.array_equal(second.final, kept[0])
        assert np.array_equal(first.final, kept[0])
        assert np.array_equal(first.trajectory, kept[1])
        assert not np.shares_memory(first.trajectory, second.trajectory)

    def test_interleaved_itd_keys_and_instants_keep_their_results(self):
        # A(k1), B(k2), A(k2), B(k1): each call reuses the stream's entry for its
        # key, which the call before it at that key wrote, on the other instant;
        # then A at (eta / 2, 6), a key that only eta tells from k1.
        a, b = self.stream()
        cache = a.inner.cache
        assert b.inner.cache is cache
        eta = 0.5 / a.l_g1
        k1, k2 = (eta, 6), (eta / 2, 12)
        rng = np.random.default_rng(4)
        results, entries = [], {}
        for inst, (step, K) in ((a, k1), (b, k2), (a, k2), (b, k1), (a, (eta / 2, 6))):
            v = rng.standard_normal(inst.d2)
            got = inst.inner.itd_correction(v, step, K)
            assert np.array_equal(got, itd_loop_reference(inst, v, step, K))
            entry = cache["itd", step, K]
            assert entries.setdefault((step, K), entry) is entry
            results.append(got)
        assert sorted(key[1:] for key in cache if key[0] == "itd") == sorted(entries)
        kept = [x for entry in entries.values() for item in entry
                for x in (item if isinstance(item, list) else [item])]
        for i, got in enumerate(results):
            assert not any(np.shares_memory(got, x) for x in kept + results[i + 1:])
        own = [quadratic_instant(1, a.A, a.b, a.Q, a.c)
               for _ in range(2)]
        for inst in own:
            inst.inner.itd_correction(np.ones(inst.d2), *k1)
        assert own[0].inner.cache is not own[1].inner.cache
        key = ("itd", *k1)
        assert own[0].inner.cache[key] is not own[1].inner.cache[key]
        assert cache[key] is entries[k1]


class TestInnerRecord:
    """A quadratic stream's A and Q, and all that derives from them (-A', mu_g,
    l_g1 and the kernels' cache), are one ``InnerQuadratic`` its instants share
    as ``inner``. A copy with another record derives its bounds anew and caches
    its own kernels, and no write to the caller's arrays reaches an instant."""

    @staticmethod
    def inputs(d1, d2, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(d1), rng.standard_normal(d2), rng.standard_normal(d2)

    @staticmethod
    def assert_same_bits(got, want):
        for name, value in want.items():
            assert np.asarray(got[name]).tobytes() == np.asarray(value).tobytes(), name

    def test_copy_with_another_record_equals_a_fresh_build(self):
        # Formerly the copy kept the source's mu_g, l_g1 and cache, so inner GD
        # at the source's (eta, K) returned the source's iterate bit for bit.
        q = quadratic_stream(d1=2, d2=3, T=3, seed=5)[0]
        lam, beta, v = self.inputs(2, 3, 7)
        eta, K, ell, m = 0.2 / q.l_g1, 6, 2.0 * q.l_g1, 4
        source = quadratic_outputs(q, lam, beta, v, eta, K, ell, m)
        copy = dataclasses.replace(q, inner=InnerQuadratic(q.A, 2 * q.Q))
        fresh = quadratic_instant(1, q.A, q.b, 2 * q.Q, q.c, q.amp, q.phases)
        evals = np.linalg.eigvalsh(2 * q.Q)
        assert (copy.mu_g, copy.l_g1) == (fresh.mu_g, fresh.l_g1) == (evals[0], evals[-1])
        assert (copy.d1, copy.d2, copy.l_f1) == (fresh.d1, fresh.d2, fresh.l_f1)
        assert copy.inner.cache == {} and q.inner.cache
        got = quadratic_outputs(copy, lam, beta, v, eta, K, ell, m)
        self.assert_same_bits(got, quadratic_outputs(fresh, lam, beta, v, eta, K, ell, m))
        for name in ("inner_gd", "itd_correction", "neumann_correction[3]"):
            assert not np.array_equal(got[name], source[name]), name
        assert dataclasses.replace(q, amp=2.5).l_f1 == 2.5

    def test_writing_the_callers_arrays_changes_no_output(self):
        rng = np.random.default_rng(9)
        A, b, Q, c, phases = (rng.standard_normal(shape) for shape in ((3, 2), 3, (3, 3), 3, 2))
        Q = Q @ Q.T + np.eye(3)
        inst = quadratic_instant(1, A, b, Q, c, 0.3, phases)
        kept = quadratic_instant(1, A.copy(), b.copy(), Q.copy(), c.copy(), 0.3, phases.copy())
        for array in (A, b, Q, c, phases):
            array *= 3.0
        lam, beta, v = self.inputs(2, 3, 10)
        args = (lam, beta, v, 0.5 / kept.l_g1, 5, kept.l_g1, 3)
        self.assert_same_bits(quadratic_outputs(inst, *args), quadratic_outputs(kept, *args))
        assert (inst.mu_g, inst.l_g1) == (kept.mu_g, kept.l_g1)
        assert np.array_equal(inst.inner.neg_At, -inst.A.T)
        assert inst.f_value(lam, beta) == kept.f_value(lam, beta)

    def test_the_records_arrays_are_read_only(self):
        q = quadratic_stream(d1=2, d2=3, T=2, seed=5)[0]
        for array in (q.A, q.Q, q.inner.neg_At, q.hess_g_betabeta(np.zeros(2), np.zeros(3))):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0


class Level:
    """Stands in for the generator at zero noise: the truncation level is
    its only draw, and it is k."""

    def __init__(self, k, m):
        self.k, self.m = k, m

    def integers(self, high):
        assert high == self.m
        return self.k


class TestStochasticHypergradient:
    def test_m_one_zero_noise_closed_form(self):
        inst = one_dim_instant(q=0.5, a=2.0, b=0.1, c=-0.2, l_g1=1.0)
        lam, beta = np.array([0.4]), np.array([0.8])
        rng = np.random.default_rng(17)
        got = stochastic_hypergradient(inst, lam, beta, 1, rng)
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
        for i in range(n):
            draws[i] = stochastic_hypergradient(inst, lam, beta, m, rng)[0]
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
            amp=0.5, phases=rng.uniform(0, 2 * np.pi, d1),
        )
        lam, beta = rng.standard_normal(d1), rng.standard_normal(d2)
        inst.l_g1 = ell = inst.l_g1 * ell_factor
        mean = sum(
            stochastic_hypergradient(inst, lam, beta, m, Level(k, m)) for k in range(m)
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
            draws = [
                stochastic_hypergradient(inst, lam, beta, int(m), rng)[0]
                for _ in range(20_000)
            ]
            biases.append(abs(np.mean(draws) - exact))
        slope = np.polyfit(ms, np.log(biases), 1)[0]
        assert np.exp(slope) == pytest.approx(1.0 - q / ell, rel=0.1)

    def test_invalid_m_rejected(self):
        lam, beta, rng = np.array([0.4]), np.array([0.8]), np.random.default_rng(0)
        with pytest.raises(ValueError, match="Neumann sample bound m must be at least 1"):
            stochastic_hypergradient(one_dim_instant(), lam, beta, 0, rng)


class TestNeumannMatrixPath:
    """On an instant over ``QuadraticData`` the Neumann estimator applies a
    matrix cached per (l, m); a copy without kernels takes the HVP path.
    The two reassociate the same products, so they agree to rounding."""

    @staticmethod
    def assert_same_estimate(matrix, oracles, lam, beta, m, k):
        # The estimate is grad_f_lambda minus the correction; an entry where
        # the two nearly cancel is judged on the scale of its terms.
        got = stochastic_hypergradient(matrix, lam, beta, m, Level(k, m))
        want = stochastic_hypergradient(oracles, lam, beta, m, Level(k, m))
        grad = oracles.grad_f_lambda(lam, beta)
        scale = max(np.abs(grad).max(), np.abs(want - grad).max())
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(
        d1=st.integers(1, 4),
        d2=st.integers(1, 8),
        m=st.integers(1, 25),
        ell_factor=st.floats(1.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    def test_every_level_matches_the_hvp_path(self, d1, d2, m, ell_factor, seed):
        rng, matrix, oracles = both_paths(seed, d1, d2)
        lam, beta = rng.standard_normal(d1), rng.standard_normal(d2)
        matrix.l_g1 = oracles.l_g1 = matrix.l_g1 * ell_factor
        for k in range(m):
            self.assert_same_estimate(matrix, oracles, lam, beta, m, k)

    def test_cache_is_keyed_on_the_curvature_scale(self):
        # Three scales on one instant, each a reassigned l_g1: each call uses
        # the matrices of its own (l, m), not those cached first.
        rng, matrix, oracles = both_paths(22, 2, 3)
        lam, beta = rng.standard_normal(2), rng.standard_normal(3)

        def check(ell):
            matrix.l_g1 = oracles.l_g1 = ell
            self.assert_same_estimate(matrix, oracles, lam, beta, 6, 5)

        ell = matrix.l_g1
        check(ell)
        check(2.5 * ell)
        check(4.0 * ell)
        assert list(matrix.inner.cache) == [(ell, 6), (2.5 * ell, 6), (4.0 * ell, 6)]

    def test_one_cache_entry_per_stream(self):
        stream = quadratic_stream(d1=2, d2=3, T=15, noise=(0.3, 0.2), seed=4)
        trace = run_sobbo(stream, SobboConfig(alpha=0.05, eta=0.1, K=3, w=4), np.random.default_rng(5))
        first = stream[0]
        cache = first.inner.cache
        assert list(cache) == [(stream[0].l_g1, trace.config.m)]
        assert len(cache[stream[0].l_g1, trace.config.m]) == trace.config.m
        # Every instant shares the stream's one record of A, Q, -A' and the cache.
        for inst in stream:
            assert inst.inner is first.inner
        # A separately built instant gets a cache of its own.
        assert one_dim_instant().inner.cache is not one_dim_instant().inner.cache

    def test_oracle_fields_are_methods_of_one_data_object(self):
        streams = {
            "quadratic": quadratic_stream(d1=2, d2=3, T=6, seed=4),
            "meta": meta_toy_stream(3, 6, seed=4, drift=DriftSpec.sublinear()),
            "meta-static": meta_toy_stream(3, 6, seed=4),
            "spline": spline_stream(make_drifting_spline_task(seed=4, T=6, n_knots=7)),
        }
        # Each oracle is a method of the instant itself; only quadratic instants
        # carry the kernels.
        for kind, stream in streams.items():
            for inst in stream:
                owners = {id(getattr(inst, name).__self__) for name in ORACLE_FIELDS}
                assert owners == {id(inst)}, kind
                assert isinstance(inst, QuadraticData) == (kind == "quadratic"), kind
        # A static meta stream's instants share its one task, a drifting one's
        # draw a task per round, and every spline round shares the stream's omega
        # and ridge.
        assert len({id(inst.task) for inst in streams["meta-static"]}) == 1
        assert len({id(inst.task) for inst in streams["meta"]}) == len(streams["meta"])
        first = streams["spline"][0]
        for inst in streams["spline"]:
            assert inst.omega is first.omega
            assert inst.ridge is first.ridge

    def test_hvp_fields_are_called_without_quadratic_data(self):
        counts = {"hvp_g_betabeta": 0, "hvp_g_lambdabeta": 0}

        def counting(inst):
            for name in counts:

                def counted(lam, beta, v, _name=name, _orig=getattr(inst, name)):
                    counts[_name] += 1
                    return _orig(lam, beta, v)

                setattr(inst, name, counted)
            return inst

        inst = counting(one_dim_instant(q=0.5, a=2.0, l_g1=1.0))
        lam, beta = np.array([0.4]), np.array([0.8])
        stochastic_hypergradient(inst, lam, beta, 5, Level(3, 5))
        assert counts == {"hvp_g_betabeta": 0, "hvp_g_lambdabeta": 0}
        stochastic_hypergradient(counting(without_kernels(inst)), lam, beta, 5, Level(3, 5))
        assert counts == {"hvp_g_betabeta": 3, "hvp_g_lambdabeta": 1}


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

    def test_one_hessian_call_and_no_hvp_probe(self):
        inst = spline_stream(make_drifting_spline_task(seed=4, T=1, n_knots=20))[0]
        counts = dict.fromkeys(("hess_g_betabeta", "hvp_g_lambdabeta", "hvp_g_betabeta"), 0)
        for name in counts:

            def counted(*args, _name=name, _orig=getattr(inst, name)):
                counts[_name] += 1
                return _orig(*args)

            setattr(inst, name, counted)
        lam = np.array([0.3])
        implicit_hypergradient(inst, lam, inst.inner_opt(lam))
        assert counts == {"hess_g_betabeta": 1, "hvp_g_lambdabeta": 1, "hvp_g_betabeta": 0}

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


# Each input check of the estimators' building blocks: a call, the exception
# it raises and that exception's message.
INPUT_CHECKS = {
    "window-capacity": (lambda: WindowBuffer(0), ValueError,
                        "window capacity must be at least 1"),
    "window-capacity-float": (lambda: WindowBuffer(2.5), TypeError,
                              "window capacity must be an integer, got 2.5"),
    "inner-gd-eta": (lambda: inner_gd(one_dim_instant(), [0.0], [0.0], 0.0, 1), ValueError,
                     "inner step size must be positive"),
    "inner-gd-K": (lambda: inner_gd(one_dim_instant(), [0.0], [0.0], 0.1, 0), ValueError,
                   "inner iteration count must be at least 1"),
    "inner-sgd-s": (
        lambda: inner_sgd(one_dim_instant(), [0.0], [0.0], 0.1, 1, 0, np.random.default_rng(0)),
        ValueError, "batch size s must be at least 1"),
    "neumann-m-float": (
        lambda: stochastic_hypergradient(one_dim_instant(), [0.4], [0.8], 2.5,
                                         np.random.default_rng(0)),
        TypeError, "Neumann sample bound m must be an integer, got 2.5"),
}


@pytest.mark.parametrize("make, error, message", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_input_check(make, error, message):
    with pytest.raises(error, match=re.escape(message)) as info:
        make()
    assert type(info.value) is error
