import dataclasses
import gc
import inspect
import math
import re
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from obbo.hypergrad import inner_gd, itd_hypergradient, stochastic_hypergradient
from obbo.metrics import build_grid
from obbo.problems import (
    DriftSpec,
    ProblemInstant,
    SplineTask,
    linear_spline_basis,
    make_drifting_spline_task,
    meta_toy_stream,
    quadratic_instant,
    quadratic_stream,
    roughness_penalty,
    spline_stream,
)
from obbo.problems.meta import MetaData, MetaTask
from obbo.problems.quadratic import QuadraticData
from obbo.problems.spline import SplineData

from oracles import (ORACLE_FIELDS, OracleOnly, central_diff_grad, constant_gradient_instant,
                     induced_objective)


def drifting_config(**kwargs) -> dict:
    defaults = dict(
        d1=2,
        d2=3,
        T=30,
        kappa_target=8.0,
        drift=DriftSpec.decaying(1.0),
        seed=11,
    )
    defaults.update(kwargs)
    return defaults


def stacked_hvps(inst, lam, beta):
    """The inner Hessian built column by column from HVPs with unit vectors."""
    return np.column_stack([inst.hvp_g_betabeta(lam, beta, e) for e in np.eye(inst.d2)])


# A short stream of each shipped kind; the quadratic one is noisy.
STREAMS = {
    "quadratic": lambda: quadratic_stream(**drifting_config(T=4, noise=(0.3, 0.2))),
    "meta": lambda: meta_toy_stream(3, 4, seed=2, drift=DriftSpec.decaying()),
    "spline": lambda: spline_stream(make_drifting_spline_task(seed=0, T=4, n_knots=6)),
}
SAMPLED_FIELDS = ("grad_g_beta_sampled", "grad_f_lambda_sampled", "grad_f_beta_sampled")


def traced_fields(inst) -> list:
    """The fields perfbench's ``Tracer.count_oracles`` wraps: each one that
    ``dataclasses.fields`` lists and whose value is callable."""
    return [f.name for f in dataclasses.fields(inst) if callable(getattr(inst, f.name))]


def count_oracles(instants, counts: Counter, names=None) -> None:
    """Set on each instant a wrapper that counts its calls of each field in
    ``names``, by default of each traced field."""
    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for inst in instants:
        for name in traced_fields(inst) if names is None else names:
            setattr(inst, name, counted(name, getattr(inst, name)))


def call_every_field(inst, through_class=False) -> None:
    """Call each oracle and sampled gradient of ``inst`` once; with
    ``through_class``, call each oracle as its class's method, not the field."""
    lam, beta = np.full(inst.d1, 0.5), np.linspace(-1.0, 1.0, inst.d2)
    rng = np.random.default_rng(1)
    for name in ORACLE_FIELDS:
        if name in ("inner_opt", "exact_hypergradient"):
            args = (lam,)
        else:
            args = (lam, beta, beta) if name.startswith("hvp") else (lam, beta)
        if through_class:
            getattr(type(inst), name)(inst, *args)
        else:
            getattr(inst, name)(*args)
    inst.grad_g_beta_sampled(lam, beta, 2, rng)
    inst.grad_f_lambda_sampled(lam, beta, rng)
    inst.grad_f_beta_sampled(lam, beta, rng)


# One instant of each shipped stream, past its first round.
INSTANTS = {
    "quadratic": lambda: quadratic_stream(**drifting_config(d1=3, d2=5))[1],
    "meta": lambda: meta_toy_stream(4, 2, seed=5, drift=DriftSpec.sublinear())[1],
    "spline": lambda: spline_stream(make_drifting_spline_task(seed=3, T=2, n_knots=10))[1],
}


@pytest.mark.parametrize("kind", sorted(INSTANTS))
def test_hessian_oracle_equals_stacked_hvps(kind):
    # Products with unit vectors are exact, so the matrix oracle and the
    # stacked HVPs agree bit for bit, whatever (lam, beta).
    inst = INSTANTS[kind]()
    rng = np.random.default_rng(6)
    for _ in range(4):
        lam = rng.uniform(1e-4, 10.0, inst.d1)  # inside the spline's lam box
        beta = rng.standard_normal(inst.d2)
        assert np.array_equal(inst.hess_g_betabeta(lam, beta), stacked_hvps(inst, lam, beta))


class TestQuadraticStream:
    def test_one_dim_hand_example(self):
        inst = quadratic_instant(t=1, A=[[2.0]], b=[0.0], Q=[[1.0]], c=[0.0])
        lam = np.array([1.0])
        assert inst.inner_opt(lam) == pytest.approx(2.0)
        assert inst.exact_hypergradient(lam) == pytest.approx(4.0)
        fd = central_diff_grad(induced_objective(inst), lam)
        np.testing.assert_allclose(inst.exact_hypergradient(lam), fd, rtol=1e-8)

    def test_static_drift_keeps_inner_optimum_fixed(self):
        stream = quadratic_stream(**drifting_config(drift=DriftSpec.static()))
        lam = np.array([0.4, -0.1])
        first = stream[0].inner_opt(lam)
        for inst in stream[1:]:
            np.testing.assert_array_equal(inst.inner_opt(lam), first)

    def test_decaying_drift_matches_harmonic_sum(self):
        stream = quadratic_stream(**drifting_config(T=50))
        zero = np.zeros(2)
        steps = [
            np.linalg.norm(stream[t].inner_opt(zero) - stream[t - 1].inner_opt(zero))
            for t in range(1, 50)
        ]
        expected = [t ** (-1.0) for t in range(1, 50)]
        np.testing.assert_allclose(steps, expected, rtol=1e-12)

    def test_inner_opt_residual(self):
        stream = quadratic_stream(**drifting_config())
        rng = np.random.default_rng(0)
        for inst in stream[:5]:
            lam = rng.standard_normal(2)
            res = inst.grad_g_beta(lam, inst.inner_opt(lam))
            assert np.linalg.norm(res) <= 1e-8

    def test_inner_map_lipschitz_in_kappa(self):
        stream = quadratic_stream(**drifting_config())
        rng = np.random.default_rng(1)
        inst = stream[0]
        for _ in range(50):
            l1, l2 = rng.standard_normal(2), rng.standard_normal(2)
            lhs = np.linalg.norm(inst.inner_opt(l1) - inst.inner_opt(l2))
            kappa = inst.l_g1 / inst.mu_g
            assert lhs <= kappa * np.linalg.norm(l1 - l2) + 1e-12

    def test_hessian_spectrum_within_declared_bounds(self):
        stream = quadratic_stream(**drifting_config())
        inst = stream[0]
        H = stacked_hvps(inst, np.zeros(2), np.zeros(3))
        evals = np.linalg.eigvalsh(0.5 * (H + H.T))
        assert evals[0] >= inst.mu_g - 1e-10
        assert evals[-1] <= inst.l_g1 + 1e-10

    def test_hvp_betabeta_symmetry(self):
        stream = quadratic_stream(**drifting_config())
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
        s1 = quadratic_stream(**cfg)
        s2 = quadratic_stream(**cfg)
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
        # Every stream's instants carry sampled gradients; at zero noise they
        # are the deterministic ones.
        instants = [
            quadratic_stream(**drifting_config())[0],
            meta_toy_stream(d=3, T=1, seed=2)[0],
            spline_stream(make_drifting_spline_task(T=1, seed=2, n_knots=6))[0],
        ]
        for inst in instants:
            rng = np.random.default_rng(3)
            lam = np.linspace(0.2, -0.4, inst.d1)
            beta = np.linspace(0.1, 1.0, inst.d2)
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

    @pytest.mark.parametrize("kind", ["quadratic", "meta"])
    @pytest.mark.parametrize("noise", [(0.3, 0.0), (0.0, 0.2), (0.0, 5e-324)],
                             ids=["inner-only", "outer-only", "outer-subnormal"])
    def test_each_sampled_kind_owns_its_zero_case(self, kind, noise):
        # The kind whose own sigma is 0 returns the deterministic bits and
        # leaves the generator as it is; the other draws d values at its scale,
        # even one that rounds to 0 (5e-324 / sqrt(5) does).
        sigma_g, sigma_f = noise
        if kind == "quadratic":
            inst = quadratic_stream(**drifting_config(d2=5, noise=noise))[0]
        else:
            inst = dataclasses.replace(
                meta_toy_stream(d=5, T=1, seed=2)[0], sigma_g_beta=sigma_g, sigma_f=sigma_f
            )
        lam, beta = np.linspace(0.2, -0.4, inst.d1), np.linspace(0.1, 1.0, inst.d2)
        rng, draws = np.random.default_rng(7), np.random.default_rng(7)
        d1, d2 = inst.d1, inst.d2
        cases = [
            (lambda: inst.grad_g_beta_sampled(lam, beta, 4, rng), inst.grad_g_beta, d2,
             sigma_g, sigma_g / np.sqrt(d2 * 4)),
            (lambda: inst.grad_f_lambda_sampled(lam, beta, rng), inst.grad_f_lambda, d1,
             sigma_f, sigma_f / np.sqrt(d1)),
            (lambda: inst.grad_f_beta_sampled(lam, beta, rng), inst.grad_f_beta, d2,
             sigma_f, sigma_f / np.sqrt(d2)),
        ]
        for sampled, exact, d, sigma, scale in cases:
            before = rng.bit_generator.state
            got = sampled()
            if sigma == 0.0:
                assert got.tobytes() == exact(lam, beta).tobytes()
                assert rng.bit_generator.state == before
            else:
                expected = exact(lam, beta) + draws.standard_normal(d) * scale
                assert got.tobytes() == expected.tobytes()
            assert rng.bit_generator.state == draws.bit_generator.state

    @pytest.mark.parametrize("sigma_f", [0.2, 1 / 3, 5e-324])
    def test_outer_noise_scale_is_sigma_over_sqrt_d(self, sigma_f):
        # The scale bound per instant is the float sigma / sqrt(d): at d = 3,
        # sigma * (1 / sqrt(d)) differs at 0.2 and sigma * sqrt(1 / d) at 1/3.
        # sigma itself is tested for zero, so 5e-324 draws, though at d = 5 its
        # scale rounds to 0.
        inst = quadratic_stream(**drifting_config(d1=3, d2=5, noise=(0.0, sigma_f)))[0]
        lam, beta = np.linspace(0.2, -0.4, 3), np.linspace(0.1, 1.0, 5)
        rng, draws = np.random.default_rng(8), np.random.default_rng(8)
        for sampled, exact, d in ((inst.grad_f_lambda_sampled, inst.grad_f_lambda, 3),
                                  (inst.grad_f_beta_sampled, inst.grad_f_beta, 5)):
            before = rng.bit_generator.state
            got = sampled(lam, beta, rng)
            assert rng.bit_generator.state != before
            expected = exact(lam, beta) + draws.standard_normal(d) * (sigma_f / math.sqrt(d))
            assert got.tobytes() == expected.tobytes()
            assert rng.bit_generator.state == draws.bit_generator.state

    def test_sampled_gradients_derived_from_deterministic(self):
        # The sampled oracles are built by ProblemInstant, not passed in,
        # and add sigma / sqrt(d s) times one standard normal draw per entry.
        inst = quadratic_stream(**drifting_config(noise=(0.3, 0.2)))[0]
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
        fields = {
            f.name: getattr(inst, f.name) for f in dataclasses.fields(ProblemInstant) if f.init
        }
        with pytest.raises(TypeError):
            ProblemInstant(**fields, grad_g_beta_sampled=inst.grad_g_beta_sampled)

    @pytest.mark.parametrize("noise", [(0.3, 0.2), (0.0, 0.0)], ids=["noisy", "exact"])
    @pytest.mark.parametrize("built", ["stream", "by-hand"])
    def test_sampled_gradients_keep_the_oracles_built_with(self, built, noise):
        # Replacing a deterministic field after the build does not reach its
        # sampled gradient; wrapping a sampled field, as perfbench's tracer
        # does, is what calls through that one instant see.
        if built == "stream":
            inst, other = quadratic_stream(**drifting_config(noise=noise))[:2]
        else:
            inst = dataclasses.replace(constant_gradient_instant(1, [0.5, -1.0]),
                                       sigma_g_beta=noise[0], sigma_f=noise[1])
            other = dataclasses.replace(inst, t=2)
        lam, beta = np.linspace(0.2, -0.4, inst.d1), np.linspace(0.1, 1.0, inst.d2)
        calls = {
            "grad_g_beta": lambda i: i.grad_g_beta_sampled(lam, beta, 4, np.random.default_rng(9)),
            "grad_f_lambda": lambda i: i.grad_f_lambda_sampled(lam, beta, np.random.default_rng(9)),
            "grad_f_beta": lambda i: i.grad_f_beta_sampled(lam, beta, np.random.default_rng(9)),
        }
        assert {f"{name}_sampled" for name in calls} <= {f.name for f in dataclasses.fields(inst)}
        want = {name: call(inst).tobytes() for name, call in calls.items()}
        want_other = {name: call(other).tobytes() for name, call in calls.items()}
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args) + 1.0
            return wrapper

        for name, call in calls.items():
            setattr(inst, name, counted(name, getattr(inst, name)))
            assert call(inst).tobytes() == want[name]
            assert counts[name] == 0
            sampled = f"{name}_sampled"
            setattr(inst, sampled, counted(sampled, getattr(inst, sampled)))
            assert call(inst).tobytes() == (np.frombuffer(want[name]) + 1.0).tobytes()
            assert call(other).tobytes() == want_other[name]
            assert (counts[name], counts[sampled]) == (0, 1)

    def test_quadratic_stream_allocation(self):
        # A 600-round d1 4, d2 6 stream allocates about 340 KiB net (tracemalloc,
        # CPython 3.11, numpy 2.4) now that each instant is its round's data; as
        # instants over separate data objects they took about 370 KiB, holding
        # nine bound methods of it each about 800 KiB, and with sampled-oracle
        # partials too about 1,170 KiB.
        def build(seed):
            return quadratic_stream(d1=4, d2=6, T=600, kappa_target=100.0,
                                    drift=DriftSpec.decaying(), seed=seed)

        build(0)  # lazy imports and first-call caches are not the stream's
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stream = build(1)
            gc.collect()
            net = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(stream) == 600
        assert net < 590 * 1024, f"{net / 1024:.1f} KiB"

    def test_quadratic_instants_add_two_gc_objects_each(self):
        # Each round adds one object, its instant, plus a few for the stream; an
        # instant over a separate QuadraticData made it two, and nine bound
        # methods and a tuple per instant 12.
        def build(seed):
            return quadratic_stream(d1=4, d2=6, T=600, kappa_target=100.0,
                                    drift=DriftSpec.decaying(), seed=seed)

        build(0)
        gc.collect()
        before = len(gc.get_objects())
        stream = build(1)
        gc.collect()
        added = len(gc.get_objects()) - before
        assert added <= 2 * len(stream) + 8, f"{added / len(stream):.2f} per round"

    @pytest.mark.parametrize("kind", sorted(STREAMS))
    def test_instants_store_no_callable(self, kind):
        # A shipped stream's instants are their round's data, with each oracle a
        # method of their class, while dataclasses.fields still lists all nine
        # for wrapping.
        for inst in STREAMS[kind]():
            assert [k for k, v in vars(inst).items() if callable(v)] == []
            assert set(ORACLE_FIELDS) <= {f.name for f in dataclasses.fields(inst)}
            for name in ORACLE_FIELDS:
                assert getattr(inst, name).__func__ is getattr(type(inst), name), name

    @pytest.mark.parametrize("kind", sorted(STREAMS))
    def test_callable_fields_are_the_oracles_and_sampled_gradients(self, kind):
        # perfbench's tracer wraps what ``dataclasses.fields`` lists and is callable.
        for inst in STREAMS[kind]():
            assert set(traced_fields(inst)) == set(ORACLE_FIELDS) | set(SAMPLED_FIELDS)

    @pytest.mark.parametrize("kind", sorted(STREAMS))
    def test_a_wrapper_is_seen_by_its_instant_only(self, kind):
        first, second = STREAMS[kind]()[:2]
        counts = Counter()
        count_oracles([first], counts)
        for inst, want in ((second, Counter()), (first, Counter(traced_fields(first)))):
            call_every_field(inst)
            assert counts == want

    @pytest.mark.parametrize("kind", sorted(STREAMS))
    def test_sampled_gradients_call_no_wrapped_field(self, kind):
        stream = STREAMS[kind]()
        counts = Counter()
        count_oracles(stream, counts)
        lam, beta = np.full(stream[1].d1, 0.5), np.linspace(-1.0, 1.0, stream[1].d2)
        rng = np.random.default_rng(3)
        stream[1].grad_g_beta_sampled(lam, beta, 2, rng)
        stream[1].grad_f_lambda_sampled(lam, beta, rng)
        stream[1].grad_f_beta_sampled(lam, beta, rng)
        assert counts == Counter(SAMPLED_FIELDS)

    @pytest.mark.parametrize("kind", sorted(STREAMS))
    def test_oracles_call_no_wrapped_field(self, kind):
        # Inside its class an oracle calls another through the class, as each
        # exact_hypergradient calls inner_opt, and so do the sampled gradients and
        # the quadratic kernels: wrappers on the instance count none of their calls.
        stream = STREAMS[kind]()
        inst = stream[1]
        counts = Counter()
        count_oracles([inst], counts, ORACLE_FIELDS)
        call_every_field(inst, through_class=True)
        if isinstance(inst, QuadraticData):
            lam, beta = np.full(inst.d1, 0.5), np.linspace(-1.0, 1.0, inst.d2)
            eta = 0.5 / inst.l_g1
            _, x = inst.inner_gd_final(lam, beta, eta, 4)
            inst.inner_gd_rows(x, eta, 4)
            inst.inner.itd_correction(beta, eta, 4)
            inst.inner.neumann_correction(beta, inst.l_g1, 3, 2)
            stream.regret_rows(np.array([lam, lam]), np.array([beta, beta]))
        assert counts == Counter()

    def test_quadratic_kernels_call_no_wrapped_field(self):
        # Per round: inner GD's closed form calls nothing; ITD calls the two outer
        # gradients and the Neumann estimate their sampled forms, as the traced
        # sweep-itd and sobbo-neumann workloads count them.
        stream = STREAMS["quadratic"]()
        counts = Counter()
        count_oracles(stream, counts)
        inst = stream[1]
        lam, beta = np.full(inst.d1, 0.5), np.linspace(-1.0, 1.0, inst.d2)
        solve = inner_gd(inst, lam, beta, 0.5 / inst.l_g1, 4)
        assert solve.trajectory.shape == (5, inst.d2)
        assert counts == Counter()
        itd_hypergradient(inst, lam, solve)
        assert counts == Counter(["grad_f_beta", "grad_f_lambda"])
        counts.clear()
        stochastic_hypergradient(inst, lam, beta, 5, np.random.default_rng(4))
        assert counts == Counter(["grad_f_beta_sampled", "grad_f_lambda_sampled"])

    @pytest.mark.parametrize("drift", ["static", "decaying", "sublinear"])
    def test_instants_hold_views_of_the_drift_path(self, drift):
        # The stream keeps each round's b and c once, as its path's rows.
        stream = quadratic_stream(**drifting_config(drift=DriftSpec(drift)))
        path, rows = stream.path, stream.rows
        assert len(rows) == len(stream)
        for t, inst in enumerate(stream):
            for got, want in ((inst.b, path[rows[t], 0]), (inst.c, path[rows[t], 1])):
                assert np.shares_memory(got, path)
                assert got.tobytes() == want.tobytes()

    def test_stream_constants_match_a_standalone_instant(self):
        # The stream computes Q's spectrum once; each instant must carry what
        # quadratic_instant computes from that instant's own data.
        for inst in quadratic_stream(**drifting_config(d1=3, d2=5, kappa_target=30.0)):
            d1, d2 = inst.d1, inst.d2
            Q = stacked_hvps(inst, np.zeros(d1), np.zeros(d2))
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
        stream = quadratic_stream(**drifting_config(noise=(0.5, 0.4)))
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
        stream = quadratic_stream(**drifting_config(noise=(sigma, 0.0)))
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
        stream = quadratic_stream(**drifting_config(noise=(sigma, 0.0)))
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
            quadratic_stream(d1=0, d2=1, T=5)
        with pytest.raises(ValueError):
            quadratic_stream(d1=1, d2=1, T=5, kappa_target=0.5)
        with pytest.raises(ValueError):
            DriftSpec.sublinear(rate=1.5)
        with pytest.raises(ValueError, match="static drift takes no rate"):
            DriftSpec("static", rate=0.5)

    @pytest.mark.parametrize(
        "noise",
        [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, np.inf)],
        ids=["nan-g", "nan-f", "inf-g", "inf-f"],
    )
    def test_non_finite_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="noise"):
            quadratic_stream(d1=1, d2=1, T=5, noise=noise)
        with pytest.raises(ValueError, match="noise"):
            quadratic_instant(t=1, A=[[1.0]], b=[0.0], Q=[[1.0]], c=[0.0], noise=noise)

    def test_each_drift_kind_has_one_default_rate(self):
        assert DriftSpec("sublinear") == DriftSpec.sublinear() == DriftSpec.sublinear(0.5)
        assert DriftSpec("decaying") == DriftSpec.decaying() == DriftSpec.decaying(1.0)
        assert DriftSpec() == DriftSpec.static()
        assert DriftSpec.static().step_size(1) == 0.0


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

    # scipy is a test-only dependency; its parity checks sit together.
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(n=st.integers(0, 1024))
    @example(n=0)
    @example(n=1024)
    def test_sobol_grid_equals_scipy_qmc(self, n):
        from scipy.stats import qmc

        for d in range(1, 9):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # n not a power of 2
                expected = qmc.Sobol(d, scramble=False).random(n)
            assert np.array_equal(build_grid(np.zeros(d), np.ones(d), n)[:n], expected)

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
        H = stacked_hvps(inst, np.array([1e-4]), np.zeros(inst.d2))
        assert np.linalg.eigvalsh(0.5 * (H + H.T))[0] > 0

    def test_singular_inner_solve_raises_linalg_error(self):
        # Outside the lam box the normal equations can be singular; the runner
        # records a LinAlgError as an aborted cell, like a divergence.
        _, stream = self.make_stream()
        zero = np.zeros_like(stream[0].BtB)
        singular = dataclasses.replace(stream[0], BtB=zero, omega=zero, ridge=zero)
        with pytest.raises(np.linalg.LinAlgError,
                           match=re.escape("singular spline normal equations at lam=0.5")):
            singular.inner_opt(np.array([0.5]))

    def test_linear_targets_fit_exactly_for_all_lam(self):
        knots = np.linspace(0.0, 1.0, 10)
        rng = np.random.default_rng(9)
        x_tr, x_val = np.empty((3, 50)), np.empty((3, 25))
        for t in range(3):
            x_tr[t], x_val[t] = rng.uniform(0.0, 1.0, 50), rng.uniform(0.0, 1.0, 25)
        task = SplineTask(
            knots=knots,
            x_train=x_tr,
            y_train=0.8 * x_tr - 0.3,
            x_val=x_val,
            y_val=0.8 * x_val - 0.3,
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
        x_tr, y_tr = task.x_train[0], task.y_train[0]
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


class TestMetaStream:
    def test_large_gamma_recovers_single_level_gradient(self):
        stream = meta_toy_stream(3, 2, seed=12, gamma=1e6)
        inst = stream[0]
        lam = np.array([0.3, -0.2, 0.5])
        hg = inst.exact_hypergradient(lam)
        single_level = inst.grad_f_beta(lam, lam)
        assert np.linalg.norm(hg - single_level) <= 1e-4 * max(
            1.0, np.linalg.norm(single_level)
        )

    def test_static_task_repeats_identically(self):
        stream = meta_toy_stream(2, 5, seed=13, drift=DriftSpec.static(), gamma=2.0)
        lam = np.array([0.1, 0.2])
        beta = np.array([-0.3, 0.5])
        v0 = stream[0].f_value(lam, stream[0].inner_opt(lam))
        for inst in stream[1:]:
            assert inst.f_value(lam, inst.inner_opt(lam)) == v0
            np.testing.assert_array_equal(
                inst.grad_g_beta(lam, beta), stream[0].grad_g_beta(lam, beta)
            )

    def test_first_order_optimality_at_inner_opt(self):
        stream = meta_toy_stream(3, 3, seed=14, drift=DriftSpec.decaying(1.0), gamma=1.5)
        rng = np.random.default_rng(15)
        for inst in stream:
            lam = rng.standard_normal(3)
            res = inst.grad_g_beta(lam, inst.inner_opt(lam))
            assert np.linalg.norm(res) <= 1e-10

    def test_hypergradient_matches_finite_differences(self):
        stream = meta_toy_stream(2, 1, seed=16, gamma=0.8)
        inst = stream[0]
        lam = np.array([0.4, -0.6])
        fd = central_diff_grad(induced_objective(inst), lam)
        np.testing.assert_allclose(inst.exact_hypergradient(lam), fd, rtol=1e-6)

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ValueError):
            meta_toy_stream(2, 1, seed=17, gamma=0.0)

    def test_empty_validation_set_rejected(self):
        # No validation samples would declare l_f1 = 0, and the default outer step
        # divides by it.
        task = MetaTask(np.ones((3, 2)), np.ones(3), np.empty((0, 2)), np.empty(0), 1.0)
        with pytest.raises(ValueError, match="l_f1 must be positive"):
            MetaData(1, task=task)


class TestMetaTask:
    """A meta instant's samples and gamma, and all that derives from them (G, Xty,
    H, mu_g, l_g1 and l_f1), are one ``MetaTask`` per drawn task. A copy with
    another task derives its bounds anew, and no write reaches a task's arrays."""

    @staticmethod
    def outputs(inst, seed):
        rng = np.random.default_rng(seed)
        lam, beta, v = (rng.standard_normal(inst.d1) for _ in range(3))
        return [inst.f_value(lam, beta), inst.grad_f_lambda(lam, beta),
                inst.grad_f_beta(lam, beta), inst.grad_g_beta(lam, beta),
                inst.hvp_g_lambdabeta(lam, beta, v), inst.hvp_g_betabeta(lam, beta, v),
                inst.hess_g_betabeta(lam, beta), inst.inner_opt(lam),
                inst.exact_hypergradient(lam), inst.mu_g, inst.l_g1, inst.l_f1]

    def assert_same_bits(self, got, want):
        for k, (a, b) in enumerate(zip(self.outputs(got, 3), self.outputs(want, 3))):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), k

    def test_copy_with_another_task_equals_a_fresh_build(self):
        # Formerly ``replace(inst, X_tr=3 * X_tr, gamma=5.0)`` kept the source's H
        # and bounds: l_g1 stayed 17.07.
        inst = meta_toy_stream(2, 1, seed=0)[0]
        task = inst.task
        arrays = (3 * task.X_tr, task.y_tr, task.X_val, task.y_val)
        copy = dataclasses.replace(inst, task=MetaTask(*arrays, 5.0))
        G = arrays[0].T @ arrays[0]
        assert copy.l_g1 == 5.0 + float(np.linalg.eigvalsh(G)[-1])
        assert copy.l_g1 == pytest.approx(149.597, abs=1e-3)
        self.assert_same_bits(copy, MetaData(1, task=MetaTask(*arrays, 5.0)))
        v = np.array([1.0, -2.0])
        np.testing.assert_allclose(copy.hvp_g_betabeta(None, None, v), G @ v + 5.0 * v)
        assert not np.array_equal(copy.hvp_g_betabeta(None, None, v),
                                  inst.hvp_g_betabeta(None, None, v))

    def test_writing_the_callers_arrays_changes_no_output(self):
        rng = np.random.default_rng(9)
        arrays = [rng.standard_normal(shape) for shape in ((5, 3), 5, (4, 3), 4)]
        inst = MetaData(1, task=MetaTask(*arrays, 0.7))
        kept = MetaData(1, task=MetaTask(*[a.copy() for a in arrays], 0.7))
        for array in arrays:
            array *= 3.0
        self.assert_same_bits(inst, kept)

    def test_the_tasks_arrays_are_read_only(self):
        # Formerly a write into the static stream's Hessian moved every round's inner_opt.
        inst = meta_toy_stream(2, 3, seed=1)[0]
        task = inst.task
        for array in (inst.hess_g_betabeta(None, None), task.X_tr, task.y_tr, task.X_val,
                      task.y_val, task.G, task.Xty):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


def meta_reference(X_tr, y_tr, X_val, y_val, gamma):
    """A meta round's oracles and (mu_g, l_g1, l_f1), written from its raw task arrays."""
    d = X_tr.shape[1]
    G, Xty = X_tr.T @ X_tr, X_tr.T @ y_tr
    H = G + gamma * np.eye(d)
    evals = np.linalg.eigvalsh(G)

    def f_value(lam, beta):
        r = X_val.dot(beta) - y_val
        return 0.5 * float(r.dot(r))

    def grad_f_beta(lam, beta):
        return X_val.T.dot(X_val.dot(beta) - y_val)

    def inner_opt(lam):
        return np.linalg.solve(H, Xty + gamma * lam)

    def exact_hypergradient(lam):
        return gamma * np.linalg.solve(H, grad_f_beta(lam, inner_opt(lam)))

    oracles = dict(
        f_value=f_value,
        grad_f_lambda=lambda lam, beta: np.zeros(d),
        grad_f_beta=grad_f_beta,
        grad_g_beta=lambda lam, beta: X_tr.T.dot(X_tr.dot(beta) - y_tr) + gamma * (beta - lam),
        hvp_g_lambdabeta=lambda lam, beta, v: -gamma * v,
        hvp_g_betabeta=lambda lam, beta, v: G.dot(v) + gamma * v,
        hess_g_betabeta=lambda lam, beta: H,
        inner_opt=inner_opt,
        exact_hypergradient=exact_hypergradient,
    )
    l_f1 = float(np.linalg.norm(X_val.T @ X_val, 2))
    return oracles, (gamma + float(evals[0]), gamma + float(evals[-1]), l_f1)


def spline_reference(BtB, Bty, B_val, y_val, omega, task):
    """A spline round's oracles and (mu_g, l_g1, l_f1), written from its raw arrays."""
    ridge = 1e-8 * np.eye(omega.shape[0])

    def hess(lam, beta):
        return 2.0 * (BtB + float(np.atleast_1d(lam)[0]) * omega + ridge)

    def f_value(lam, beta):
        r = B_val.dot(beta) - y_val
        return float(r.dot(r))

    def grad_f_beta(lam, beta):
        return 2.0 * (B_val.T.dot(B_val.dot(beta) - y_val))

    def grad_g_beta(lam, beta):
        lv = float(lam[0])
        return 2.0 * (BtB.dot(beta) - Bty + lv * omega.dot(beta) + 1e-8 * beta)

    def hvp_g_betabeta(lam, beta, v):
        return 2.0 * (BtB.dot(v) + float(lam[0]) * omega.dot(v) + 1e-8 * v)

    def inner_opt(lam):
        return np.linalg.solve(hess(lam, None), 2.0 * Bty)

    def exact_hypergradient(lam):
        beta_hat = inner_opt(lam)
        x = np.linalg.solve(hess(lam, beta_hat), grad_f_beta(lam, beta_hat))
        return np.array([-2.0 * float(beta_hat.dot(omega.dot(x)))])

    oracles = dict(
        f_value=f_value,
        grad_f_lambda=lambda lam, beta: np.zeros(1),
        grad_f_beta=grad_f_beta,
        grad_g_beta=grad_g_beta,
        hvp_g_lambdabeta=lambda lam, beta, v: np.array([2.0 * float(beta.dot(omega.dot(v)))]),
        hvp_g_betabeta=hvp_g_betabeta,
        hess_g_betabeta=hess,
        inner_opt=inner_opt,
        exact_hypergradient=exact_hypergradient,
    )
    mu_g = float(np.linalg.eigvalsh(hess(task.lambda_lower, None))[0])
    l_g1 = float(np.linalg.eigvalsh(hess(task.lambda_upper, None))[-1])
    return oracles, (mu_g, l_g1, None)


class TestDataOracleParity:
    """The meta and spline instants give the bits of their oracle formulas
    written out from the raw task arrays, at several (lam, beta, v) draws."""

    @staticmethod
    def assert_same_bits(inst, reference, draws):
        oracles, consts = reference
        assert (inst.mu_g, inst.l_g1, inst.l_f1) == consts
        assert set(oracles) == set(ORACLE_FIELDS)
        for lam, beta, v in draws:
            for name, ref in oracles.items():
                if name in ("inner_opt", "exact_hypergradient"):
                    args = (lam,)
                else:
                    args = (lam, beta, v) if name.startswith("hvp") else (lam, beta)
                assert np.array_equal(getattr(inst, name)(*args), ref(*args)), name

    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(
        kind=st.sampled_from(["static", "decaying", "sublinear"]),
        d=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_meta(self, kind, d, seed):
        T, gamma, drift = 4, 1.3, DriftSpec(kind)
        stream = meta_toy_stream(d, T, seed=seed, drift=drift, gamma=gamma)
        # The stream's own draws, repeated: theta, then each drawn task, then the drift.
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal(d)
        draw = np.random.default_rng(seed + 1)
        for t, inst in enumerate(stream, 1):
            if t == 1 or kind != "static":
                X_tr = rng.standard_normal((16, d))
                y_tr = X_tr @ theta + 0.1 * rng.standard_normal(16)
                X_val = rng.standard_normal((16, d))
                y_val = X_val @ theta + 0.1 * rng.standard_normal(16)
            draws = [draw.standard_normal((3, d)) for _ in range(3)]
            self.assert_same_bits(inst, meta_reference(X_tr, y_tr, X_val, y_val, gamma), draws)
            step = drift.step_size(t)
            if t < T and step > 0:
                u = rng.standard_normal(d)
                theta = theta + step * (u / np.linalg.norm(u))

    @settings(derandomize=True, deadline=None, max_examples=6)
    @given(
        n_knots=st.sampled_from([3, 5, 12]),
        T=st.integers(1, 4),
        n_train=st.integers(1, 60),
        n_val=st.integers(1, 30),
        seed=st.integers(0, 2**16),
    )
    @example(n_knots=3, T=1, n_train=1, n_val=1, seed=0)
    @example(n_knots=12, T=3, n_train=60, n_val=30, seed=1)
    def test_spline(self, n_knots, T, n_train, n_val, seed):
        """Each round of the stacked build holds the bits of that round's own
        basis, B'B, B'y and (mu_g, l_g1), formed one round at a time."""
        task = make_drifting_spline_task(seed, T, n_knots=n_knots, n_train=n_train, n_val=n_val)
        omega = roughness_penalty(task.knots)
        draw = np.random.default_rng(seed + 1)
        stream = spline_stream(task)
        assert len(stream) == T
        for inst, x_tr, y_tr, x_val, y_val in zip(
            stream, task.x_train, task.y_train, task.x_val, task.y_val
        ):
            B_tr = linear_spline_basis(x_tr, task.knots)
            B_val = linear_spline_basis(x_val, task.knots)
            BtB, Bty = B_tr.T @ B_tr, B_tr.T @ y_tr
            fields = dict(BtB=BtB, Bty=Bty, B_val=B_val, y_val=y_val, omega=omega,
                          ridge=1e-8 * np.eye(n_knots))
            assert [f.name for f in dataclasses.fields(inst)][-len(fields):] == list(fields)
            for name, want in fields.items():
                assert np.array_equal(getattr(inst, name), want), name
            reference = spline_reference(BtB, Bty, B_val, y_val, omega, task)
            draws = [
                (np.array([10.0 ** draw.uniform(-4, 1)]), *draw.standard_normal((2, n_knots)))
                for _ in range(3)
            ]
            self.assert_same_bits(inst, reference, draws)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        drift=st.sampled_from([
            DriftSpec(), DriftSpec.decaying(), DriftSpec.sublinear(),
            DriftSpec.decaying(800.0), DriftSpec.sublinear(0.3),
        ]),
        d1=st.integers(1, 4),
        d2=st.integers(1, 6),
        T=st.integers(1, 30),
        seed=st.integers(0, 2**16),
    )
    @example(drift=DriftSpec.decaying(800.0), d1=1, d2=1, T=12, seed=7)
    def test_quadratic_drift(self, drift, d1, d2, T, seed):
        """Each instant's b and c, signed zeros included, are those of the
        per-transition loop: draw u, move b by step * (u / ||u||), then v and c."""
        stream = quadratic_stream(d1=d1, d2=d2, T=T, kappa_target=5.0, drift=drift, seed=seed)
        # The stream's own draws, repeated: Q's and A's rotations, b, c and the phases.
        rng = np.random.default_rng(seed)
        rng.standard_normal((d2, d2))
        rng.standard_normal((d2, d2))
        b, c = rng.standard_normal(d2), rng.standard_normal(d2)
        rng.uniform(0.0, 2.0 * np.pi, d1)
        assert len(stream) == T
        for t, inst in enumerate(stream, 1):
            assert inst.b.tobytes() == b.tobytes(), t
            assert inst.c.tobytes() == c.tobytes(), t
            step = drift.step_size(t)
            if t < T and step > 0:
                u = rng.standard_normal(d2)
                b = b + step * (u / np.linalg.norm(u))
                v = rng.standard_normal(d2)
                c = c + step * (v / np.linalg.norm(v))


def _instant():
    return quadratic_instant(1, np.ones((2, 1)), np.ones(2), np.eye(2), np.ones(2))


def _meta():
    return meta_toy_stream(2, 1)[0]


def _spline():
    """A spline instant: its bounds are init fields, unlike a quadratic or meta one's."""
    return spline_stream(_task())[0]


def _stream_copy(**factors):
    """A copy of a quadratic stream's first instant with each named array scaled."""
    q = quadratic_stream(2, 3, 2)[0]
    return dataclasses.replace(q, **{name: f * getattr(q, name) for name, f in factors.items()})


def _task():
    return make_drifting_spline_task(seed=0, T=3)


def _oracles_but(name) -> dict:
    """``OracleOnly``'s oracle methods, bar ``name``'s."""
    return {n: getattr(OracleOnly, n) for n in ORACLE_FIELDS if n != name}


NAN = float("nan")


# Each input check of the problem builders: a call, the exception it raises
# and that exception's message.
INPUT_CHECKS = {
    "instant-dimensions": (
        lambda: quadratic_instant(1, np.ones((2, 1)), np.ones(3), np.eye(2), np.ones(2)),
        ValueError, "b must have shape (2,), got (3,)"),
    "instant-phases": (
        lambda: quadratic_instant(1, np.ones((2, 1)), np.ones(2), np.eye(2), np.ones(2),
                                      phases=[0.0, 1.0]),
        ValueError, "phases must have shape (1,), got (2,)"),
    # Formerly promoted to a (1, 2) A and a (1,) b: only the documented shapes build.
    "instant-A-vector": (
        lambda: quadratic_instant(1, np.ones(2), np.ones(1), np.eye(1), np.ones(1)),
        ValueError, "A must have shape (n, n), got (2,)"),
    "instant-b-scalar": (
        lambda: quadratic_instant(1, np.ones((1, 2)), 1.0, np.eye(1), np.ones(1)),
        ValueError, "b must have shape (1,), got ()"),
    # Unchecked, each of these builds an instant with a NaN, inf or bool datum
    # (a NaN Q was named only as "Q must be symmetric").
    **{f"instant-{name}": (lambda args=args: quadratic_instant(1, **{
        "A": [[1.0]], "b": [0.0], "Q": [[1.0]], "c": [0.0], **args}), error, message)
       for name, args, error, message in (
           ("b-nan", {"b": [NAN]}, ValueError, "b must have finite entries"),
           ("A-bool", {"A": [[True]]}, TypeError, "A must hold numbers, not bools, got [[True]]"),
           ("b-str", {"b": ["0.5"]}, TypeError, "b must hold real numbers, got ['0.5']"),
           ("c-bytes", {"c": [b"1"]}, TypeError, "c must hold real numbers, got [b'1']"),
           ("Q-complex", {"Q": [[1 + 0j]]}, TypeError,
            "Q must hold real numbers, got [[(1+0j)]]"),
           ("Q-nan", {"Q": [[NAN]]}, ValueError, "Q must have finite entries"),
           ("phases-inf", {"phases": [float("inf")]}, ValueError,
            "phases must have finite entries"),
           ("amp-nan", {"amp": NAN}, ValueError, "amp must be nonnegative and finite, got nan"),
           ("amp-bool", {"amp": True}, TypeError, "amp must be a number, got True"))},
    "stream-horizon": (lambda: quadratic_stream(1, 1, 0), ValueError,
                       "horizon must be at least 1, got 0"),
    # A bool is an int to Python: unchecked, T=True builds one round.
    "stream-horizon-bool": (lambda: quadratic_stream(1, 1, True), TypeError,
                            "horizon must be an integer, got True"),
    "meta-horizon-bool": (lambda: meta_toy_stream(2, True), TypeError,
                          "horizon must be an integer, got True"),
    "spline-horizon-bool": (lambda: make_drifting_spline_task(seed=0, T=True), TypeError,
                            "horizon must be an integer, got True"),
    "spline-horizon-float": (lambda: make_drifting_spline_task(seed=0, T=3.0), TypeError,
                             "horizon must be an integer, got 3.0"),
    "spline-horizon": (lambda: make_drifting_spline_task(seed=0, T=0), ValueError,
                       "horizon must be at least 1, got 0"),
    "stream-cos-amplitude": (lambda: quadratic_stream(1, 1, 2, cos_amplitude=-0.1),
                             ValueError, "cos_amplitude must be nonnegative"),
    # NaN fails every ``x < 0`` or ``x <= 0`` check.
    "stream-cos-amplitude-nan": (
        lambda: quadratic_stream(1, 1, 2, cos_amplitude=NAN),
        ValueError, "cos_amplitude must be nonnegative and finite, got nan"),
    # Unchecked, a NaN kappa_target fails later with "Q must be symmetric".
    "stream-kappa-nan": (lambda: quadratic_stream(1, 1, 2, kappa_target=NAN), ValueError,
                         "kappa_target must lie in [1, inf), got nan"),
    "meta-gamma-nan": (lambda: meta_toy_stream(2, 2, gamma=NAN), ValueError,
                       "gamma must be positive and finite, got nan"),
    "spline-noise-std-nan": (lambda: make_drifting_spline_task(seed=0, T=2, noise_std=NAN),
                             ValueError, "noise_std must be nonnegative and finite, got nan"),
    "drift-kind": (lambda: DriftSpec("linear"), ValueError, "unknown drift kind 'linear'"),
    "drift-decaying-rate": (lambda: DriftSpec.decaying(rate=0.0), ValueError,
                            "decaying drift rate must be positive and finite"),
    "drift-decaying-rate-nan": (lambda: DriftSpec.decaying(rate=float("nan")), ValueError,
                                "decaying drift rate must be positive and finite"),
    # Metrics and the exact estimator call both exact-solution oracles unchecked.
    "instant-no-inner-opt": (
        lambda: type("Lacking", (ProblemInstant,), _oracles_but("inner_opt")), TypeError,
        "instant class Lacking has no oracle 'inner_opt'"),
    "instant-no-exact-hypergradient": (
        lambda: type("Lacking", (ProblemInstant,), _oracles_but("exact_hypergradient")),
        TypeError, "instant class Lacking has no oracle 'exact_hypergradient'"),
    "instant-base-class": (lambda: ProblemInstant(1, 1, 1, 1.0, 1.0), TypeError,
                           "ProblemInstant has no oracles: build an instance of a subclass"),
    # A string failed the range test first, with Python's message naming no key.
    "stream-kappa-str": (lambda: quadratic_stream(1, 1, 2, kappa_target="10"), TypeError,
                         "kappa_target must be a number, got '10'"),
    "stream-noise-str": (lambda: quadratic_stream(1, 1, 2, noise=("0.1", 0.0)), TypeError,
                         "noise sigma_g_beta must be a number, got '0.1'"),
    "stream-noise-none": (lambda: quadratic_stream(1, 1, 2, noise=(0.0, None)), TypeError,
                          "noise sigma_f must be a number, got None"),
    # A bare scale once failed with "object of type 'float' has no len()".
    "stream-noise-scalar": (lambda: quadratic_stream(1, 1, 2, noise=0.5), ValueError,
                            "noise must be a pair (sigma_g_beta, sigma_f), got 0.5"),
    "stream-noise-triple": (lambda: quadratic_stream(1, 1, 2, noise=(0.1, 0.2, 0.3)), ValueError,
                            "noise must be a pair (sigma_g_beta, sigma_f), got (0.1, 0.2, 0.3)"),
    # Unchecked, a triple built an instant that dropped its third entry, a scalar
    # failed with "'float' object is not subscriptable" and a single entry with an
    # IndexError.
    **{f"instant-noise-{name}": (
        lambda noise=noise: quadratic_instant(1, [[1.0]], [0.0], [[1.0]], [0.0], noise=noise),
        ValueError, f"noise must be a pair (sigma_g_beta, sigma_f), got {noise}")
       for name, noise in (("triple", (0.1, 0.2, 0.3)), ("scalar", 0.5), ("single", [0.1]))},
    # The lower bound was unchecked: a str failed with Python's "'<' not supported",
    # NaN or inf was reported as a bad upper bound, and a bool or -inf built.
    **{f"instant-box-lower-{name}": (
        lambda low=low: dataclasses.replace(_instant(), lambda_box=(low, 1.0)), error,
        f"lambda_box lower must {message}, got {low!r}")
       for name, low, error, message in (
           ("str", "a", TypeError, "be a number"),
           ("bool", True, TypeError, "be a number"),
           ("nan", NAN, ValueError, "lie in (-inf, inf)"),
           ("inf", math.inf, ValueError, "lie in (-inf, inf)"),
           ("minus-inf", -math.inf, ValueError, "lie in (-inf, inf)"))},
    "meta-gamma-str": (lambda: meta_toy_stream(2, 2, gamma="1.0"), TypeError,
                       "gamma must be a number, got '1.0'"),
    "drift-rate-str": (lambda: DriftSpec.decaying(rate="0.5"), TypeError,
                       "decaying drift rate must be a number, got '0.5'"),
    "instant-mu-str": (lambda: dataclasses.replace(_spline(), mu_g="1"), TypeError,
                       "mu_g must be a number, got '1'"),
    "instant-t": (lambda: dataclasses.replace(_instant(), t=0), ValueError,
                  "time index t must be at least 1"),
    "instant-t-float": (lambda: dataclasses.replace(_instant(), t=1.5), TypeError,
                        "time index t must be an integer, got 1.5"),
    "instant-t-bool": (lambda: dataclasses.replace(_instant(), t=True), TypeError,
                       "time index t must be an integer, got True"),
    "instant-mu": (lambda: dataclasses.replace(_spline(), mu_g=0.0), ValueError,
                   "mu_g must be positive"),
    "instant-mu-nan": (lambda: dataclasses.replace(_spline(), mu_g=NAN), ValueError,
                       "mu_g must be positive and finite, got nan"),
    "instant-l-zero": (lambda: dataclasses.replace(_spline(), l_g1=0.0), ValueError,
                       "l_g1 must be positive and finite, got 0.0"),
    "instant-l-nan": (lambda: dataclasses.replace(_spline(), l_g1=NAN), ValueError,
                      "l_g1 must be positive and finite, got nan"),
    "instant-l": (lambda: dataclasses.replace(_spline(), l_g1=0.5), ValueError,
                  "l_g1 must be at least mu_g"),
    # A copy once kept the values derived from the arrays it replaced: a new Q
    # kept mu_g, l_g1 and the kernels' cache, a new A kept -A'. The arrays are
    # the stream's ``inner`` record now, and no derived value is an init field.
    **{f"instant-copy-{name}": (lambda name=name: _stream_copy(**{name: 2.0}), TypeError,
                                f"got an unexpected keyword argument '{name}'")
       for name in ("A", "Q")},
    **{f"instant-copy-{name}": (
        lambda name=name: dataclasses.replace(_instant(), **{name: 2}), ValueError,
        f"field {name} is declared with init=False, it cannot be specified with replace()")
       for name in ("mu_g", "l_g1", "d1")},
    # A meta copy once kept G, Xty, H and the bounds of the samples it replaced.
    # The samples and gamma are the round's ``task`` now, and nothing derived from
    # them is an init field.
    **{f"meta-copy-{name}": (
        lambda name=name: dataclasses.replace(_meta(), **{name: np.eye(2)}), TypeError,
        f"got an unexpected keyword argument '{name}'")
       for name in ("X_tr", "G", "Xty", "H")},
    **{f"meta-copy-{name}": (
        lambda name=name: dataclasses.replace(_meta(), **{name: 2}), ValueError,
        f"field {name} is declared with init=False, it cannot be specified with replace()")
       for name in ("mu_g", "l_g1", "l_f1", "d1")},
    # A task checks its four sample arrays, so a mismatched y or a NaN sample names
    # its array instead of failing in numpy's matmul or blaming the derived mu_g.
    "meta-task-y_tr-length": (
        lambda: MetaTask(np.ones((3, 2)), np.ones(4), np.ones((3, 2)), np.ones(3), 1.0),
        ValueError, "y_tr must have shape (3,), got (4,)"),
    "meta-task-X_val-d": (
        lambda: MetaTask(np.ones((3, 2)), np.ones(3), np.ones((3, 4)), np.ones(3), 1.0),
        ValueError, "X_val must have shape (n, 2), got (3, 4)"),
    "meta-task-X_tr-nan": (
        lambda: MetaTask([[1.0, NAN], [0.0, 1.0]], np.ones(2), np.ones((3, 2)), np.ones(3), 1.0),
        ValueError, "X_tr must have finite entries"),
    "meta-task-y_val-bool": (
        lambda: MetaTask(np.ones((3, 2)), np.ones(3), np.ones((2, 2)), [True, 1.0], 1.0),
        TypeError, "y_val must hold numbers, not bools, got [True, 1.0]"),
    # amp sets l_f1, so a copy checks it.
    "instant-copy-amp-nan": (lambda: dataclasses.replace(_instant(), amp=NAN), ValueError,
                             "amp must be nonnegative and finite, got nan"),
    "spline-knots": (lambda: dataclasses.replace(_task(), knots=np.array([0.0, 1.0])),
                     ValueError, "need at least three strictly increasing knots"),
    "spline-box": (lambda: dataclasses.replace(_task(), lambda_lower=0.0), ValueError,
                   "lambda_lower must be positive and finite, got 0.0"),
    "spline-box-order": (lambda: dataclasses.replace(_task(), lambda_lower=20.0),
                         ValueError, "lambda_upper must lie in (20, inf), got 10.0"),
    # Unchecked, these built: a NaN knot fails no ``diff <= 0`` test, ``0 < True < 10``
    # holds, and the basis and a task's batches took NaN data.
    "spline-knots-nan": (lambda: dataclasses.replace(_task(), knots=[0.0, NAN, 1.0]),
                         ValueError, "knots must have finite entries"),
    "spline-box-bool": (lambda: make_drifting_spline_task(seed=0, T=2, lambda_lower=True),
                        TypeError, "lambda_lower must be a number, got True"),
    "spline-basis-x-nan": (lambda: linear_spline_basis([NAN], [0.0, 1.0]), ValueError,
                           "x must have finite entries"),
    "spline-task-nan-y": (
        lambda: SplineTask([0.0, 0.5, 1.0], [[0.1]], [[NAN]], [[0.2]], [[0.3]], 1e-4, 10.0),
        ValueError, "train y must have finite entries"),
    "spline-task-knots-bool": (
        lambda: SplineTask([True, 2.0, 3.0], [[0.1]], [[0.2]], [[0.3]], [[0.4]], 1e-4, 10.0),
        TypeError, "knots must hold numbers, not bools, got [True, 2.0, 3.0]"),
    "spline-batches": (
        lambda: dataclasses.replace(_task(), x_val=_task().x_val[:-1], y_val=_task().y_val[:-1]),
        ValueError, "train and validation round counts differ"),
}


@pytest.mark.parametrize("make, error, message", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_input_check(make, error, message):
    with pytest.raises(error, match=re.escape(message)) as info:
        make()
    assert type(info.value) is error


def test_each_instant_class_takes_only_its_rounds_data():
    # A quadratic instant's d1, d2, mu_g, l_g1 and l_f1 derive from ``inner`` and
    # amp, a meta instant's from ``task``, so a copy cannot set one stale; the
    # arrays A and Q are ``inner``'s. A spline instant keeps its stream's batched
    # bounds as init fields.
    head = ["t", "sigma_g_beta", "sigma_f", "lambda_box"]
    assert list(inspect.signature(QuadraticData).parameters) == [
        *head, "inner", "b", "c", "amp", "phases"]
    assert list(inspect.signature(MetaData).parameters) == [*head, "task"]
    assert list(inspect.signature(SplineData).parameters) == [
        "t", "d1", "d2", "mu_g", "l_g1", "l_f1", *head[1:], "BtB", "Bty", "B_val", "y_val",
        "omega", "ridge"]
    stream = quadratic_stream(2, 3, 4)
    assert all(inst.inner is stream[0].inner for inst in stream)

