import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obbo.geometry import (
    FeasibleSet,
    Regularizer,
    generalized_projection,
    prox_step,
)
from obbo.hypergrad import DivergenceError
from obbo.optimizers import Adaptive, ObboConfig, run_obbo
from obbo.problems.base import _all_finite

from oracles import constant_gradient_instant, prox_grid_oracle

ZERO = Regularizer.zero()
FULL = FeasibleSet.full_space()


def random_geometry(rng, d):
    """Random (diag, h, X) triple covering every kind combination; diag is the
    generator's diagonal, ones for the Euclidean generator."""
    if rng.random() < 0.5:
        diag = np.ones(d)
    else:
        diag = rng.uniform(0.5, 3.0, d)
    h = ZERO if rng.random() < 0.5 else Regularizer.l1(rng.uniform(0.0, 2.0))
    if rng.random() < 0.5:
        X = FULL
    else:
        lo = rng.uniform(-2.0, -0.5, d)
        hi = rng.uniform(0.5, 2.0, d)
        X = FeasibleSet.box(lo, hi)
    return diag, h, X


def sample_point(rng, X, d):
    if X.kind == "box":
        return rng.uniform(X.lower, X.upper)
    return rng.uniform(-2.0, 2.0, d)


class TestProxStep:
    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            prox_step([1.0, 2.0], [1.0], 0.5, np.ones(2), ZERO, FULL)
        with pytest.raises(ValueError):
            prox_step([1.0], [0.0], 0.5, [1.0, 2.0], ZERO, FULL)

    def test_non_finite_raises(self):
        with pytest.raises(ValueError):
            prox_step([np.nan, 0.0], [0.0, 0.0], 0.5, np.ones(2), ZERO, FULL)

    def test_euclidean_gradient_step(self):
        out = prox_step([1.0, -2.0], [0.0, 0.0], 0.5, np.ones(2), ZERO, FULL)
        np.testing.assert_array_equal(out, [-0.5, 1.0])

    def test_box_clamps_gradient_step(self):
        box = FeasibleSet.box([-0.3, -0.3], [0.3, 0.3])
        out = prox_step([1.0, -2.0], [0.0, 0.0], 0.5, np.ones(2), ZERO, box)
        np.testing.assert_allclose(out, [-0.3, 0.3])

    def test_l1_soft_threshold(self):
        # frozen from the grid oracle: soft-threshold of (-0.5, 1.5) at 0.5
        out = prox_step([1.0, -3.0], [0.0, 0.0], 0.5, np.ones(2), Regularizer.l1(1.0), FULL)
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)
        grid = prox_grid_oracle(
            [1.0, -3.0], [0.0, 0.0], 0.5, np.ones(2), Regularizer.l1(1.0), FULL
        )
        np.testing.assert_allclose(out, grid, atol=2e-4)

    def test_special_case_collapse_is_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            q = rng.standard_normal(d)
            u = rng.standard_normal(d)
            alpha = float(rng.uniform(0.01, 2.0))
            out = prox_step(q, u, alpha, np.ones(d), ZERO, FULL)
            np.testing.assert_array_equal(out, u - alpha * q)

    def test_output_always_feasible(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            d = int(rng.integers(1, 5))
            diag, h, X = random_geometry(rng, d)
            u = sample_point(rng, X, d)
            q = rng.standard_normal(d) * 3.0
            alpha = float(rng.uniform(0.01, 1.5))
            out = prox_step(q, u, alpha, diag, h, X)
            assert X.contains(out)

    def test_matches_grid_oracle_low_dim(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            d = int(rng.integers(1, 4))
            diag, h, X = random_geometry(rng, d)
            u = sample_point(rng, X, d)
            q = rng.uniform(-3.0, 3.0, d)
            alpha = float(rng.uniform(0.05, 1.0))
            out = prox_step(q, u, alpha, diag, h, X)
            grid = prox_grid_oracle(q, u, alpha, diag, h, X)
            np.testing.assert_allclose(out, grid, atol=2e-4)

    def test_u_outside_box_raises(self):
        box = FeasibleSet.box([-1.0], [1.0])
        with pytest.raises(ValueError):
            prox_step([0.0], [2.0], 0.5, np.ones(1), ZERO, box)

    def test_nonpositive_alpha_raises(self):
        with pytest.raises(ValueError):
            prox_step([1.0], [0.0], 0.0, np.ones(1), ZERO, FULL)
        with pytest.raises(ValueError):
            prox_step([1.0], [0.0], -1.0, np.ones(1), ZERO, FULL)


class TestGeneralizedProjection:
    def test_unconstrained_euclidean_returns_q(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal(4)
        out = generalized_projection(np.zeros(4), q, 0.7, np.ones(4), ZERO, FULL)
        np.testing.assert_array_equal(out, q)

    def test_zero_gradient_maps_to_zero(self):
        box = FeasibleSet.box([-1.0, -1.0], [1.0, 1.0])
        out = generalized_projection(
            [0.2, -0.4], [0.0, 0.0], 0.5, np.ones(2), ZERO, box
        )
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_box_case_from_prox(self):
        # frozen from the prox grid oracle: prox lands at (-0.3, 0.3)
        box = FeasibleSet.box([-0.3, -0.3], [0.3, 0.3])
        out = generalized_projection([0.0, 0.0], [1.0, -2.0], 0.5, np.ones(2), ZERO, box)
        np.testing.assert_allclose(out, [0.6, -0.6])
        grid = prox_grid_oracle([1.0, -2.0], [0.0, 0.0], 0.5, np.ones(2), ZERO, box)
        np.testing.assert_allclose(out, (np.zeros(2) - grid) / 0.5, atol=4e-4)

    def test_fast_path_matches_general_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            diag = rng.uniform(0.5, 3.0, d)
            q = rng.standard_normal(d)
            u = rng.standard_normal(d)
            alpha = float(rng.uniform(0.05, 1.5))
            fast = generalized_projection(u, q, alpha, diag, ZERO, FULL)
            lam_plus = prox_step(q, u, alpha, diag, ZERO, FULL)
            np.testing.assert_allclose(fast, (u - lam_plus) / alpha, rtol=1e-9, atol=1e-9)

    def test_ghadimi_lan_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = int(rng.integers(1, 5))
            diag, h, X = random_geometry(rng, d)
            u = sample_point(rng, X, d)
            q = rng.standard_normal(d) * 2.0
            alpha = float(rng.uniform(0.05, 1.5))
            g = generalized_projection(u, q, alpha, diag, h, X)
            lam_plus = prox_step(q, u, alpha, diag, h, X)
            lhs = float(q @ g)
            rhs = diag.min() * float(g @ g) + (h.value(lam_plus) - h.value(u)) / alpha
            assert lhs >= rhs - 1e-9

    def test_projection_lipschitz_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            d = int(rng.integers(1, 5))
            diag, h, X = random_geometry(rng, d)
            u = sample_point(rng, X, d)
            q1 = rng.standard_normal(d) * 2.0
            q2 = rng.standard_normal(d) * 2.0
            alpha = float(rng.uniform(0.05, 1.5))
            g1 = generalized_projection(u, q1, alpha, diag, h, X)
            g2 = generalized_projection(u, q2, alpha, diag, h, X)
            assert np.linalg.norm(g1 - g2) <= np.linalg.norm(q1 - q2) / diag.min() + 1e-9


@st.composite
def prox_problems(draw, n_q=1, zero=st.booleans(), full=st.booleans()):
    """A random (diag, h, X), a point u in X, a step alpha and n_q gradients q,
    over the same kinds and ranges as ``random_geometry``. ``zero`` and
    ``full`` draw whether h is zero and whether X is the full space."""
    d = draw(st.integers(1, 4))

    def vector(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=d, max_size=d)))

    diag = np.ones(d) if draw(st.booleans()) else vector(0.5, 3.0)
    h = ZERO if draw(zero) else Regularizer.l1(draw(st.floats(0.0, 2.0)))
    if draw(full):
        X, u = FULL, vector(-2.0, 2.0)
    else:
        lo, width = vector(-2.0, -0.5), vector(1.0, 4.0)
        X = FeasibleSet.box(lo, lo + width)
        u = np.clip(lo + vector(0.0, 1.0) * width, X.lower, X.upper)
    alpha = draw(st.floats(0.05, 1.5))
    return diag, h, X, u, alpha, [vector(-6.0, 6.0) for _ in range(n_q)]


class TestProxProperties:
    """Hypothesis forms of the invariants the loops above sample by hand."""

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(problem=prox_problems())
    def test_prox_step_lies_in_the_set(self, problem):
        diag, h, X, u, alpha, (q,) = problem
        assert X.contains(prox_step(q, u, alpha, diag, h, X))

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(problem=prox_problems())
    def test_displacement_inequality(self, problem):
        # <q, G> >= rho ||G||^2 + (h(u+) - h(u)) / alpha for G the generalized
        # projection, u+ the prox point and rho = min(diag) the generator's
        # modulus (Ghadimi, Lan & Zhang 2016, Lemma 1).
        diag, h, X, u, alpha, (q,) = problem
        g = generalized_projection(u, q, alpha, diag, h, X)
        u_plus = prox_step(q, u, alpha, diag, h, X)
        rhs = diag.min() * float(g @ g) + (h.value(u_plus) - h.value(u)) / alpha
        assert float(q @ g) >= rhs - 1e-9

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(problem=prox_problems(n_q=2))
    def test_generalized_projection_is_lipschitz_in_q(self, problem):
        diag, h, X, u, alpha, (q1, q2) = problem
        g1 = generalized_projection(u, q1, alpha, diag, h, X)
        g2 = generalized_projection(u, q2, alpha, diag, h, X)
        assert np.linalg.norm(g1 - g2) <= np.linalg.norm(q1 - q2) / diag.min() + 1e-9


def scalar_euclidean_prox(q, u, alpha, h, X):
    """The Euclidean prox point with each division by the generator's diagonal
    a division by the scalar 1.0."""
    z = u - alpha * q / 1.0
    if h.weight > 0:
        z = np.sign(z) * np.maximum(np.abs(z) - alpha * h.weight / 1.0, 0.0)
    return np.clip(z, X.lower, X.upper) if X.kind == "box" else z


class TestEuclideanIsOnesDiagonal:
    """A step under the all-ones diagonal gives the bits of the same step in
    scalar Euclidean arithmetic, so a Euclidean run takes the diagonal path of
    an adaptive one at no cost in bits."""

    @pytest.mark.parametrize("zero", [True, False], ids=["zero", "l1"])
    @pytest.mark.parametrize("full", [True, False], ids=["full", "box"])
    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(data=st.data())
    def test_prox_and_projection_equal_bit_for_bit(self, zero, full, data):
        problem = data.draw(prox_problems(zero=st.just(zero), full=st.just(full)))
        _, h, X, u, alpha, (q,) = problem
        ones, prox = np.ones(u.size), scalar_euclidean_prox(q, u, alpha, h, X)
        assert np.array_equal(prox_step(q, u, alpha, ones, h, X), prox)
        projection = q / 1.0 if full and h.weight == 0 else (u - prox) / alpha
        assert np.array_equal(generalized_projection(u, q, alpha, ones, h, X), projection)


def adaptive_diags(estimates, epsilon=1e-8):
    """The per-round adaptive diagonals of an OBBO run fed the given estimates.

    Round t's estimate is estimates[t - 1]; with w = 1 and no clipping it is
    the step's q, so the run's diagonals follow the running average of q**2.
    """
    stream = [constant_gradient_instant(t, g) for t, g in enumerate(estimates, 1)]
    config = ObboConfig(alpha=1e-3, eta=0.1, K=1, w=1, phi=Adaptive(epsilon=epsilon))
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


FLOAT_EDGES = (
    np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    np.finfo(float).max, -np.finfo(float).max,
)


def numpy_contains(X, x):
    """``FeasibleSet.contains`` with numpy's finiteness check."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        return False
    if X.kind == "full":
        return True
    if x.size != X.lower.size:
        return False
    return bool(np.all(x >= X.lower) and np.all(x <= X.upper))


def outcome(fn, *args):
    """What a call returns, or the type of what it raises (a 2-D point of a
    box's size does not broadcast against its bounds)."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


class TestAllFinite:
    """The pure-Python finiteness check on the round loop's hot path equals
    ``np.isfinite(x).all()`` on float64 vectors, edge values included."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        values=st.lists(st.one_of(st.sampled_from(FLOAT_EDGES), st.floats()), max_size=12),
        strided=st.booleans(),
    )
    def test_equals_numpy(self, values, strided):
        x = np.array(values, dtype=np.float64)
        if strided:
            x = x[::2]
        assert _all_finite(x) is bool(np.isfinite(x).all())

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        values=st.lists(st.one_of(st.sampled_from(FLOAT_EDGES), st.floats()), max_size=12),
        shape=st.sampled_from(["vector", "strided", "matrix"]),
    )
    def test_contains_equals_numpy(self, values, shape):
        x = np.array(values, dtype=np.float64)
        if shape == "strided":
            x = x[::2]
        elif shape == "matrix" and x.size % 2 == 0:
            x = x.reshape(2, -1)
        box = FeasibleSet.box(np.full(x.size or 1, -1.0), np.full(x.size or 1, 1.0))
        for X in (FULL, box):
            assert outcome(X.contains, x) == outcome(numpy_contains, X, x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_bad_entry_anywhere(self, bad):
        for i in range(5):
            x = np.full(5, np.finfo(float).max)
            x[i] = bad
            assert not _all_finite(x)
        assert _all_finite(np.full(5, 5e-324))


class TestInvariantsOfTypes:
    def test_diagonal_rejects_nonpositive(self):
        for diag in ([1.0, 0.0], [1.0, -0.0], [-2.0, 1.0]):
            with pytest.raises(ValueError, match="diag entries must be strictly positive"):
                prox_step([1.0, 1.0], [0.0, 0.0], 0.5, diag, ZERO, FULL)
            with pytest.raises(ValueError, match="diag entries must be strictly positive"):
                generalized_projection([0.0, 0.0], [1.0, 1.0], 0.5, diag, ZERO, FULL)

    def test_l1_value(self):
        h = Regularizer.l1(2.0)
        assert h.value([1.0, -3.0]) == pytest.approx(8.0)
        assert ZERO.value([5.0, 5.0]) == 0.0

    def test_box_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            FeasibleSet.box([1.0], [1.0])


# A generator diagonal each prox map rejects for a q of size 2, with the
# exception and its message: it must be a positive finite vector of q's size.
BAD_DIAGS = {
    "bool": ([True, True], TypeError, "diag must hold numbers, not bools, got [True, True]"),
    "shape": ([1.0], ValueError, "diag must have shape (2,), got (1,)"),
    "nan": ([1.0, np.nan], ValueError, "diag must have finite entries"),
    "inf": ([1.0, np.inf], ValueError, "diag must have finite entries"),
    "-inf": ([-np.inf, 1.0], ValueError, "diag must have finite entries"),
    "zero": ([1.0, 0.0], ValueError, "diag entries must be strictly positive"),
    "negative": ([1.0, -1.0], ValueError, "diag entries must be strictly positive"),
}

def _vec(*x):
    return np.array(x, dtype=float)


# Float64 vectors of one shape, the inputs the prox guard's one scan proves, each
# with its faults: (q, u, diag), the exception and its message. The two-fault
# rows keep the order of the full checks: q, then u, then diag.
SCANNED_FAULTS = {
    "q-nan": ((_vec(np.nan, 1.0), _vec(0.0, 0.0), _vec(1.0, 1.0)), ValueError,
              "q must have finite entries"),
    "u-inf": ((_vec(1.0, 1.0), _vec(0.0, np.inf), _vec(1.0, 1.0)), ValueError,
              "u must have finite entries"),
    "diag-zero": ((_vec(1.0, 1.0), _vec(0.0, 0.0), _vec(1.0, 0.0)), ValueError,
                  "diag entries must be strictly positive"),
    "diag-negative": ((_vec(1.0, 1.0), _vec(0.0, 0.0), _vec(-1.0, 1.0)), ValueError,
                      "diag entries must be strictly positive"),
    "u-length": ((_vec(1.0, 1.0), _vec(0.0, 0.0, 0.0), _vec(1.0, 1.0)), ValueError,
                 "u must have shape (2,), got (3,)"),
    "q-nan-u-length": ((_vec(np.nan, 1.0), _vec(0.0, 0.0, 0.0), _vec(1.0, 1.0)), ValueError,
                       "q must have finite entries"),
    "u-nan-diag-zero": ((_vec(1.0, 1.0), _vec(np.nan, 0.0), _vec(0.0, 1.0)), ValueError,
                        "u must have finite entries"),
}
# Both prox maps on (q, u, diag), at alpha 0.1 with no regularizer on the full space.
PROX_MAPS = {"prox": lambda q, u, diag: prox_step(q, u, 0.1, diag, ZERO, FULL),
             "projection": lambda q, u, diag: generalized_projection(u, q, 0.1, diag, ZERO, FULL)}

# Each input check of the prox maps and of the geometry types: a call, the
# exception it raises and that exception's message.
INPUT_CHECKS = {
    **{f"scanned-{name}-{case}": (lambda f=f, args=args: f(*args), error, message)
       for name, f in PROX_MAPS.items()
       for case, (args, error, message) in SCANNED_FAULTS.items()},
    **{f"fast-path-alpha-{alpha}": (
        lambda alpha=alpha: generalized_projection([0.0], [1.0], alpha, np.ones(1), ZERO, FULL),
        ValueError, f"alpha must be positive and finite, got {alpha}")
       for alpha in (0.0, -1.0, float("nan"))},
    "matrix-q": (lambda: prox_step(np.ones((2, 2)), [0.0, 0.0], 0.1, np.ones(2), ZERO, FULL),
                 ValueError, "q must have shape (n,), got (2, 2)"),
    "matrix-u": (lambda: generalized_projection(np.ones((1, 2)), [1.0, 1.0], 0.1, np.ones(2),
                                                ZERO, FULL),
                 ValueError, "u must have shape (2,), got (1, 2)"),
    # A bool is a number to numpy: unchecked, True reads as 1.0.
    "box-bool": (lambda: FeasibleSet.box([True], [2.0]), TypeError,
                 "lower must hold numbers, not bools, got [True]"),
    "diagonal-bool": (lambda: prox_step([1.0], [0.0], 0.1, [True], ZERO, FULL), TypeError,
                      "diag must hold numbers, not bools, got [True]"),
    **{f"prox-diag-{case}": (
        lambda diag=diag: prox_step([1.0, 1.0], [0.0, 0.0], 0.1, diag, Regularizer.l1(1.0),
                                    FULL), error, message)
       for case, (diag, error, message) in BAD_DIAGS.items()},
    **{f"projection-diag-{case}": (
        lambda diag=diag: generalized_projection([0.0, 0.0], [1.0, 1.0], 0.1, diag, ZERO, FULL),
        error, message)
       for case, (diag, error, message) in BAD_DIAGS.items()},
    # The types check what they are built from, however they are built.
    "l1-weight-negative": (lambda: Regularizer("l1", -1.0), ValueError,
                           "l1 weight must be nonnegative and finite, got -1.0"),
    "l1-weight-nan": (lambda: Regularizer("l1", np.nan), ValueError,
                      "l1 weight must be nonnegative and finite, got nan"),
    "l1-weight-str": (lambda: Regularizer("l1", "0.5"), TypeError,
                      "l1 weight must be a number, got '0.5'"),
    "prox-alpha-str": (lambda: prox_step([1.0], [0.0], "0.1", np.ones(1), ZERO, FULL), TypeError,
                       "alpha must be a number, got '0.1'"),
    "zero-weight": (lambda: Regularizer("zero", 5.0), ValueError,
                    "the zero regularizer takes no weight, got 5.0"),
    "box-order": (lambda: FeasibleSet("box", [1.0], [0.0]), ValueError,
                  "box requires lower < upper coordinate-wise"),
    "box-no-bounds": (lambda: FeasibleSet("box"), TypeError,
                      "lower must hold real numbers, got None"),
    "full-bounds": (lambda: FeasibleSet("full", lower=[0.0]), ValueError,
                    "the full space takes no bounds"),
}


@pytest.mark.parametrize("make, error, message", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_input_check(make, error, message):
    with pytest.raises(error, match=re.escape(message)) as info:
        make()
    assert type(info.value) is error


@pytest.mark.parametrize("alpha", [np.float64(0.5), 1], ids=["np-float64", "int"])
@pytest.mark.parametrize("h, X", [(ZERO, FULL), (Regularizer.l1(0.3),
                                                 FeasibleSet.box([-1, -1], [1, 1]))],
                         ids=["full", "l1-box"])
def test_alpha_of_another_type_takes_the_full_checks_to_the_same_result(alpha, h, X):
    q, u, diag = np.array([0.7, -0.4]), np.array([0.2, 0.1]), np.array([1.5, 0.5])
    for f in (lambda a: prox_step(q, u, a, diag, h, X),
              lambda a: generalized_projection(u, q, a, diag, h, X)):
        np.testing.assert_array_equal(f(alpha), f(float(alpha)))
