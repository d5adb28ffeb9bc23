import numpy as np
import pytest

from obbo.geometry import (
    DistanceGenerator,
    FeasibleSet,
    Regularizer,
    generalized_projection,
    prox_step,
)
from obbo.hypergrad import DivergenceError
from obbo.optimizers import ObboConfig, run_obbo

from oracles import constant_gradient_instant, prox_grid_oracle

EUCLID = DistanceGenerator.euclidean()
ZERO = Regularizer.zero()
FULL = FeasibleSet.full_space()


def random_geometry(rng, d):
    """Random (phi, h, X) triple covering every kind combination."""
    if rng.random() < 0.5:
        phi = EUCLID
    else:
        phi = DistanceGenerator.diagonal(rng.uniform(0.5, 3.0, d))
    h = ZERO if rng.random() < 0.5 else Regularizer.l1(rng.uniform(0.0, 2.0))
    if rng.random() < 0.5:
        X = FULL
    else:
        lo = rng.uniform(-2.0, -0.5, d)
        hi = rng.uniform(0.5, 2.0, d)
        X = FeasibleSet.box(lo, hi)
    return phi, h, X


def sample_point(rng, X, d):
    if X.kind == "box":
        return rng.uniform(X.lower, X.upper)
    return rng.uniform(-2.0, 2.0, d)


class TestProxStep:
    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            prox_step([1.0, 2.0], [1.0], 0.5, EUCLID, ZERO, FULL)
        phi = DistanceGenerator.diagonal([1.0, 2.0])
        with pytest.raises(ValueError):
            prox_step([1.0], [0.0], 0.5, phi, ZERO, FULL)

    def test_non_finite_raises(self):
        with pytest.raises(ValueError):
            prox_step([np.nan, 0.0], [0.0, 0.0], 0.5, EUCLID, ZERO, FULL)

    def test_euclidean_gradient_step(self):
        out = prox_step([1.0, -2.0], [0.0, 0.0], 0.5, EUCLID, ZERO, FULL)
        np.testing.assert_array_equal(out, [-0.5, 1.0])

    def test_box_clamps_gradient_step(self):
        box = FeasibleSet.box([-0.3, -0.3], [0.3, 0.3])
        out = prox_step([1.0, -2.0], [0.0, 0.0], 0.5, EUCLID, ZERO, box)
        np.testing.assert_allclose(out, [-0.3, 0.3])

    def test_l1_soft_threshold(self):
        # frozen from the grid oracle: soft-threshold of (-0.5, 1.5) at 0.5
        out = prox_step([1.0, -3.0], [0.0, 0.0], 0.5, EUCLID, Regularizer.l1(1.0), FULL)
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)
        grid = prox_grid_oracle(
            [1.0, -3.0], [0.0, 0.0], 0.5, EUCLID, Regularizer.l1(1.0), FULL
        )
        np.testing.assert_allclose(out, grid, atol=2e-4)

    def test_special_case_collapse_is_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            q = rng.standard_normal(d)
            u = rng.standard_normal(d)
            alpha = float(rng.uniform(0.01, 2.0))
            out = prox_step(q, u, alpha, EUCLID, ZERO, FULL)
            np.testing.assert_array_equal(out, u - alpha * q)

    def test_output_always_feasible(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            d = int(rng.integers(1, 5))
            phi, h, X = random_geometry(rng, d)
            u = sample_point(rng, X, d)
            q = rng.standard_normal(d) * 3.0
            alpha = float(rng.uniform(0.01, 1.5))
            out = prox_step(q, u, alpha, phi, h, X)
            assert X.contains(out)

    def test_matches_grid_oracle_low_dim(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            d = int(rng.integers(1, 4))
            phi, h, X = random_geometry(rng, d)
            u = sample_point(rng, X, d)
            q = rng.uniform(-3.0, 3.0, d)
            alpha = float(rng.uniform(0.05, 1.0))
            out = prox_step(q, u, alpha, phi, h, X)
            grid = prox_grid_oracle(q, u, alpha, phi, h, X)
            np.testing.assert_allclose(out, grid, atol=2e-4)

    def test_u_outside_box_raises(self):
        box = FeasibleSet.box([-1.0], [1.0])
        with pytest.raises(ValueError):
            prox_step([0.0], [2.0], 0.5, EUCLID, ZERO, box)

    def test_nonpositive_alpha_raises(self):
        with pytest.raises(ValueError):
            prox_step([1.0], [0.0], 0.0, EUCLID, ZERO, FULL)
        with pytest.raises(ValueError):
            prox_step([1.0], [0.0], -1.0, EUCLID, ZERO, FULL)


class TestGeneralizedProjection:
    def test_unconstrained_euclidean_returns_q(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal(4)
        out = generalized_projection(np.zeros(4), q, 0.7, EUCLID, ZERO, FULL)
        np.testing.assert_array_equal(out, q)

    def test_zero_gradient_maps_to_zero(self):
        box = FeasibleSet.box([-1.0, -1.0], [1.0, 1.0])
        out = generalized_projection(
            [0.2, -0.4], [0.0, 0.0], 0.5, EUCLID, ZERO, box
        )
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_box_case_from_prox(self):
        # frozen from the prox grid oracle: prox lands at (-0.3, 0.3)
        box = FeasibleSet.box([-0.3, -0.3], [0.3, 0.3])
        out = generalized_projection([0.0, 0.0], [1.0, -2.0], 0.5, EUCLID, ZERO, box)
        np.testing.assert_allclose(out, [0.6, -0.6])
        grid = prox_grid_oracle([1.0, -2.0], [0.0, 0.0], 0.5, EUCLID, ZERO, box)
        np.testing.assert_allclose(out, (np.zeros(2) - grid) / 0.5, atol=4e-4)

    def test_fast_path_matches_general_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            phi = DistanceGenerator.diagonal(rng.uniform(0.5, 3.0, d))
            q = rng.standard_normal(d)
            u = rng.standard_normal(d)
            alpha = float(rng.uniform(0.05, 1.5))
            fast = generalized_projection(u, q, alpha, phi, ZERO, FULL)
            lam_plus = prox_step(q, u, alpha, phi, ZERO, FULL)
            np.testing.assert_allclose(fast, (u - lam_plus) / alpha, rtol=1e-9, atol=1e-9)

    def test_ghadimi_lan_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = int(rng.integers(1, 5))
            phi, h, X = random_geometry(rng, d)
            u = sample_point(rng, X, d)
            q = rng.standard_normal(d) * 2.0
            alpha = float(rng.uniform(0.05, 1.5))
            g = generalized_projection(u, q, alpha, phi, h, X)
            lam_plus = prox_step(q, u, alpha, phi, h, X)
            lhs = float(q @ g)
            rhs = phi.rho * float(g @ g) + (h.value(lam_plus) - h.value(u)) / alpha
            assert lhs >= rhs - 1e-9

    def test_projection_lipschitz_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            d = int(rng.integers(1, 5))
            phi, h, X = random_geometry(rng, d)
            u = sample_point(rng, X, d)
            q1 = rng.standard_normal(d) * 2.0
            q2 = rng.standard_normal(d) * 2.0
            alpha = float(rng.uniform(0.05, 1.5))
            g1 = generalized_projection(u, q1, alpha, phi, h, X)
            g2 = generalized_projection(u, q2, alpha, phi, h, X)
            assert np.linalg.norm(g1 - g2) <= np.linalg.norm(q1 - q2) / phi.rho + 1e-9


def adaptive_diags(estimates, epsilon=1e-8):
    """The per-round adaptive diagonals of an OBBO run fed the given estimates.

    Round t's estimate is estimates[t - 1]; with w = 1 and no clipping it is
    the step's q, so the run's diagonals follow the running average of q**2.
    """
    stream = [constant_gradient_instant(t, g) for t, g in enumerate(estimates, 1)]
    config = ObboConfig(
        alpha=1e-3, eta=0.1, K=1, w=1, phi_mode="adaptive", adapt_epsilon=epsilon
    )
    return run_obbo(stream, config).phi_diags


class TestAdaptiveDiag:
    def test_single_update(self):
        diags = adaptive_diags([[1.0, 2.0]])
        np.testing.assert_allclose(diags[0], np.sqrt([0.1, 0.4]) + 1e-8, rtol=1e-14)

    def test_zero_gradient_scales_by_beta(self):
        diags = adaptive_diags([[1.0, 2.0], [0.0, 0.0]])
        np.testing.assert_allclose(diags[1], np.sqrt([0.09, 0.36]) + 1e-8, rtol=1e-14)

    def test_constant_gradient_geometric_limit(self):
        # closed form: the average after n rounds is g^2 (1 - beta^n)
        g = np.array([1.5, -0.5])
        diags = adaptive_diags([g] * 200)
        for n in (1, 2, 10, 200):
            expected = np.sqrt(g**2 * (1.0 - 0.9**n)) + 1e-8
            np.testing.assert_allclose(diags[n - 1], expected, rtol=1e-13)

    def test_emitted_diag_floor(self):
        diags = adaptive_diags([[0.0, 0.0]] * 3, epsilon=1e-8)
        np.testing.assert_array_equal(diags, np.full((3, 2), 1e-8))

    def test_non_finite_grad_raises(self):
        with pytest.raises(DivergenceError, match="t=1"):
            adaptive_diags([[np.inf, 0.0]])


class TestInvariantsOfTypes:
    def test_euclidean_rho_is_one(self):
        assert EUCLID.rho == 1.0

    def test_diagonal_rho_is_min(self):
        gen = DistanceGenerator.diagonal([2.0, 0.7, 1.1])
        assert gen.rho == pytest.approx(0.7)
        assert np.all(gen.diag >= gen.rho)

    def test_diagonal_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DistanceGenerator.diagonal([1.0, 0.0])

    def test_l1_value(self):
        h = Regularizer.l1(2.0)
        assert h.value([1.0, -3.0]) == pytest.approx(8.0)
        assert ZERO.value([5.0, 5.0]) == 0.0

    def test_box_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            FeasibleSet.box([1.0], [1.0])
