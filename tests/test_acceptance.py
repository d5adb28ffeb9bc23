"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import time
from pathlib import Path

import numpy as np

from obbo.geometry import (
    FeasibleSet,
    Regularizer,
    generalized_projection,
    prox_step,
)
from obbo.harness.config import parse_config
from obbo.harness.runner import cli_run
from obbo.hypergrad import (
    inner_gd,
    itd_hypergradient,
    stochastic_hypergradient,
)
from obbo.metrics import (
    build_grid,
    compute_regret_series,
    function_variation_terms,
    path_variation_terms,
)
from obbo.optimizers import (
    Adaptive,
    OagdConfig,
    ObboConfig,
    SobboConfig,
    SobowConfig,
    run_oagd,
    run_obbo,
    run_sobbo,
    run_sobow,
)
from obbo.problems import (
    DriftSpec,
    make_drifting_spline_task,
    quadratic_instant,
    quadratic_stream,
    spline_stream,
)

from oracles import central_diff_grad, induced_objective, prox_grid_oracle, unrolled_inner_objective

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _report(n, text):
    print(f"\nACCEPTANCE {n:02d} PASS: {text}")


def _random_quadratic(rng, d1, d2, kappa=6.0, amp=0.4):
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


def test_01_hypergradient_exactness():
    """ITD vs finite differences through the unrolled loop, and the exact
    implicit gradient vs finite differences of the induced objective, on 50
    random instants with d1, d2 <= 8; rel. err <= 1e-6, runtime < 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(50):
        d1 = int(rng.integers(1, 9))
        d2 = int(rng.integers(1, 9))
        inst = _random_quadratic(rng, d1, d2)
        lam = rng.standard_normal(d1)
        beta0 = rng.standard_normal(d2)
        eta = 0.5 / inst.l_g1
        K = int(rng.integers(1, 11))

        solve = inner_gd(inst, lam, beta0, eta, K)
        itd = itd_hypergradient(inst, lam, solve)
        fd_itd = central_diff_grad(unrolled_inner_objective(inst, beta0, eta, K), lam)
        assert np.linalg.norm(itd - fd_itd) <= 1e-6 * max(1.0, np.linalg.norm(itd))

        exact = inst.exact_hypergradient(lam)
        fd_exact = central_diff_grad(induced_objective(inst), lam)
        assert np.linalg.norm(exact - fd_exact) <= 1e-6 * max(1.0, np.linalg.norm(exact))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, f"ITD and exact hypergradients match finite differences ({elapsed:.1f}s)")


def test_02_itd_geometric_decay():
    """Log-linear error decay in K with slope within +/-0.05 of
    log sqrt(1 - eta mu_g), fixed warm start, K in {5, ..., 60}."""
    inst = quadratic_instant(t=1, A=[[1.3]], b=[0.4], Q=[[1.0]], c=[0.2], amp=0.3)
    eta = 0.08  # eta * mu_g = 0.08 keeps both decay modes inside the band
    lam = np.array([0.7])
    beta0 = np.array([3.0])
    exact = inst.exact_hypergradient(lam)
    ks = np.arange(5, 61, 5)
    errs = []
    for K in ks:
        solve = inner_gd(inst, lam, beta0, eta, int(K))
        errs.append(np.linalg.norm(itd_hypergradient(inst, lam, solve) - exact))
    assert min(errs) > 1e-12  # far above the machine-precision floor
    slope = np.polyfit(ks, np.log(errs), 1)[0]
    target = 0.5 * np.log(1.0 - eta * inst.mu_g)
    assert abs(slope - target) <= 0.05
    _report(2, f"ITD log-error slope {slope:.4f} within 0.05 of {target:.4f}")


def test_03_inner_gd_contraction():
    """Per-step squared-distance ratio <= (1 - eta mu_g) + 1e-12 on 100
    random quadratic instances."""
    rng = np.random.default_rng(103)
    checked = 0
    for _ in range(100):
        d1 = int(rng.integers(1, 5))
        d2 = int(rng.integers(1, 7))
        inst = _random_quadratic(rng, d1, d2, kappa=float(rng.uniform(1.0, 30.0)))
        eta = float(rng.uniform(0.1, 1.0)) / inst.l_g1
        lam = rng.standard_normal(d1)
        beta0 = rng.standard_normal(d2)
        solve = inner_gd(inst, lam, beta0, eta, 6)
        beta_hat = inst.inner_opt(lam)
        bound = 1.0 - eta * inst.mu_g
        for k in range(1, solve.K + 1):
            prev = float(np.sum((solve.trajectory[k - 1] - beta_hat) ** 2))
            cur = float(np.sum((solve.trajectory[k] - beta_hat) ** 2))
            if prev > 1e-24:
                assert cur / prev <= bound + 1e-12
                checked += 1
    assert checked > 300
    _report(3, f"inner GD contraction bound held on {checked} steps")


def test_04_stochastic_bias_decay():
    """Monte-Carlo bias of the randomized Neumann estimator is log-linear in
    m with ratio within 10% of (1 - mu_g / l_g1); 1e5 draws per m in
    {1, ..., 20}, zero outer noise, runtime < 60 s."""
    t0 = time.perf_counter()
    inst = quadratic_instant(t=1, A=[[1.5]], b=[0.3], Q=[[0.1]], c=[0.4])
    inst.l_g1 = 1.0  # valid (loose) curvature bound: contraction ratio 0.9
    lam = np.array([0.2])
    beta = inst.inner_opt(lam)
    exact = inst.exact_hypergradient(lam)[0]
    rng = np.random.default_rng(104)
    ms = np.arange(1, 21)
    n_draws = 100_000
    biases = []
    for m in ms:
        total = 0.0
        for _ in range(n_draws):
            total += stochastic_hypergradient(inst, lam, beta, int(m), rng)[0]
        biases.append(abs(total / n_draws - exact))
    slope = np.polyfit(ms, np.log(biases), 1)[0]
    ratio = float(np.exp(slope))
    expected = 1.0 - inst.mu_g / inst.l_g1
    elapsed = time.perf_counter() - t0
    assert abs(ratio - expected) <= 0.1 * expected
    assert elapsed < 60.0
    _report(4, f"Neumann bias ratio {ratio:.4f} vs {expected:.1f} ({elapsed:.0f}s)")


def test_05_prox_and_projection_contracts():
    """Prox-displacement inequality and (1/rho)-Lipschitz bound, rho = min(diag),
    on 1e4 random samples each; prox matches the dense grid oracle in d <= 3 within twice
    the grid resolution."""
    rng = np.random.default_rng(105)

    def sample_geometry(d):
        diag = np.ones(d) if rng.random() < 0.5 else rng.uniform(0.5, 3.0, d)
        h = (
            Regularizer.zero()
            if rng.random() < 0.5
            else Regularizer.l1(rng.uniform(0.0, 2.0))
        )
        if rng.random() < 0.5:
            X = FeasibleSet.full_space()
        else:
            X = FeasibleSet.box(rng.uniform(-2.0, -0.5, d), rng.uniform(0.5, 2.0, d))
        u = rng.uniform(X.lower, X.upper) if X.kind == "box" else rng.uniform(-2, 2, d)
        return diag, h, X, u

    for _ in range(10_000):
        d = int(rng.integers(1, 5))
        diag, h, X, u = sample_geometry(d)
        q = rng.standard_normal(d) * 2.0
        alpha = float(rng.uniform(0.05, 1.5))
        g = generalized_projection(u, q, alpha, diag, h, X)
        lam_plus = prox_step(q, u, alpha, diag, h, X)
        assert float(q @ g) >= diag.min() * float(g @ g) + (
            h.value(lam_plus) - h.value(u)
        ) / alpha - 1e-9

    for _ in range(10_000):
        d = int(rng.integers(1, 5))
        diag, h, X, u = sample_geometry(d)
        q1 = rng.standard_normal(d) * 2.0
        q2 = rng.standard_normal(d) * 2.0
        alpha = float(rng.uniform(0.05, 1.5))
        g1 = generalized_projection(u, q1, alpha, diag, h, X)
        g2 = generalized_projection(u, q2, alpha, diag, h, X)
        assert np.linalg.norm(g1 - g2) <= np.linalg.norm(q1 - q2) / diag.min() + 1e-9

    for _ in range(40):
        d = int(rng.integers(1, 4))
        diag, h, X, u = sample_geometry(d)
        q = rng.uniform(-3.0, 3.0, d)
        alpha = float(rng.uniform(0.05, 1.0))
        out = prox_step(q, u, alpha, diag, h, X)
        grid = prox_grid_oracle(q, u, alpha, diag, h, X, step=1e-4)
        assert np.max(np.abs(out - grid)) <= 2e-4
    _report(5, "prox inequality, Lipschitz bound, and grid-oracle equivalence held")


def test_06_regret_sublinearity():
    """On a decaying-drift stream whose variations are o(T), BLR_w(T)/T at
    T = 2000 is below half its value at T = 500 for w = 10; runtime < 5 min."""
    t0 = time.perf_counter()
    stream = quadratic_stream(
        d1=2, d2=3, T=2000, kappa_target=8.0,
        drift=DriftSpec.decaying(1.0), seed=42, cos_amplitude=0.5,
    )

    grid = build_grid(-np.ones(2), np.ones(2), n=16)
    h2 = path_variation_terms(stream, 2, grid)
    v1 = function_variation_terms(stream, grid)
    h2_over_t = [np.sum(h2[: T - 1]) / T for T in (500, 1000, 2000)]
    v1_over_t = [np.sum(v1[: T - 1]) / T for T in (500, 1000, 2000)]
    assert h2_over_t[0] > h2_over_t[1] > h2_over_t[2]
    assert v1_over_t[0] > v1_over_t[1] > v1_over_t[2]

    trace = run_obbo(stream, ObboConfig(alpha=0.02, eta=0.1, K=40, w=10))
    series = compute_regret_series(stream, trace)
    rate_500 = series.cumulative[499] / 500.0
    rate_2000 = series.cumulative[1999] / 2000.0
    elapsed = time.perf_counter() - t0
    assert rate_2000 < 0.5 * rate_500
    assert elapsed < 300.0
    _report(
        6,
        f"BLR/T fell from {rate_500:.4f} at T=500 to {rate_2000:.4f} at T=2000 "
        f"({elapsed:.0f}s)",
    )


def test_07_adaptive_geometry_benefit():
    """Median cumulative Euclidean local regret of the adaptive-geometry run
    stays strictly below the Euclidean reduction baseline on an
    ill-conditioned stream (kappa 100, T = 2000, 5 seeds)."""
    adaptive, euclid = [], []
    for seed in range(1, 6):
        stream = quadratic_stream(
            d1=4, d2=6, T=2000, kappa_target=100.0,
            drift=DriftSpec.decaying(1.0), seed=seed, cos_amplitude=0.5,
        )
        base = dict(alpha=0.01, eta=None, K=15, w=10, clip_threshold=1000.0)
        tr_a = run_obbo(stream, ObboConfig(phi=Adaptive(), **base))
        tr_e = run_sobow(stream, SobowConfig(**base))
        adaptive.append(compute_regret_series(stream, tr_a).euclidean_cumulative[-1])
        euclid.append(compute_regret_series(stream, tr_e).euclidean_cumulative[-1])
    med_a, med_e = float(np.median(adaptive)), float(np.median(euclid))
    assert med_a < med_e
    _report(7, f"median Euclidean regret {med_a:.0f} (adaptive) < {med_e:.0f} (Euclidean)")


def test_08_window_variance_reduction():
    """Across 100 seeds at a fixed round of a static noisy stream, the
    smoothed-estimator variance shrinks by a factor in [12, 20] from w = 1 to
    w = 16 (batch size pinned so only the window changes)."""

    def smoothed_at_fixed_t(w, seed):
        stream = quadratic_stream(
            d1=3, d2=4, T=40, kappa_target=5.0, drift=DriftSpec.static(),
            seed=123, noise=(0.5, 0.5), cos_amplitude=0.4,
        )
        config = SobboConfig(alpha=1e-8, eta=0.05, K=25, w=w, s=1, m=3)
        return run_sobbo(stream, config, np.random.default_rng(seed)).smoothed[-1]

    variances = {}
    for w in (1, 16):
        samples = np.array([smoothed_at_fixed_t(w, seed) for seed in range(100)])
        variances[w] = float(samples.var(axis=0, ddof=1).sum())
    ratio = variances[1] / variances[16]
    assert 12.0 <= ratio <= 20.0
    _report(8, f"variance ratio w=1 over w=16 is {ratio:.2f}")


def test_09_reduction_identities():
    """Bit-for-bit: the window-averaging baseline equals the Euclidean
    unconstrained run; the w=1 re-evaluation baseline equals the w=1 run with
    the implicit estimator; the projected and Euclidean regret series
    coincide under the reduction."""
    stream = quadratic_stream(
        d1=2, d2=3, T=40, kappa_target=6.0,
        drift=DriftSpec.decaying(1.0), seed=9, cos_amplitude=0.4,
    )

    step = dict(alpha=0.05, eta=0.1, K=5, w=4)
    tr_sobow = run_sobow(stream, SobowConfig(**step))
    tr_obbo = run_obbo(stream, ObboConfig(**step))
    np.testing.assert_array_equal(tr_sobow.lambdas, tr_obbo.lambdas)
    np.testing.assert_array_equal(tr_sobow.betas, tr_obbo.betas)
    np.testing.assert_array_equal(tr_sobow.smoothed, tr_obbo.smoothed)

    kwargs = dict(alpha=0.05, eta=0.2, K=1, w=1)
    tr_oagd = run_oagd(stream, OagdConfig(**kwargs))
    tr_impl = run_obbo(stream, ObboConfig(estimator="implicit", **kwargs))
    np.testing.assert_array_equal(tr_oagd.lambdas, tr_impl.lambdas)
    np.testing.assert_array_equal(tr_oagd.betas, tr_impl.betas)

    series = compute_regret_series(stream, tr_obbo)
    np.testing.assert_array_equal(series.terms, series.euclidean_terms)
    np.testing.assert_array_equal(series.cumulative, series.euclidean_cumulative)
    _report(9, "reduction identities held bit-for-bit")


SPLINE_STREAM_KW = dict(
    n_knots=20, n_train=45, n_val=60, noise_std=0.5, freq_end=1.6, amp_end=1.2
)


def test_10_spline_end_to_end():
    """Closed-form spline hypergradients match finite differences to 1e-6
    relative error, and the online-tuned hyperparameter beats the best of a
    5-point fixed grid on final validation MSE for 3 seeds."""
    task0 = make_drifting_spline_task(seed=0, T=3, **SPLINE_STREAM_KW)
    for inst in spline_stream(task0):
        for lam_val in (3e-3, 0.1, 1.5):
            lam = np.array([lam_val])
            exact = inst.exact_hypergradient(lam)
            fd = central_diff_grad(induced_objective(inst), lam, base_step=1e-6)
            assert np.linalg.norm(fd - exact) <= 1e-6 * max(np.linalg.norm(exact), 1e-10)

    grid5 = np.geomspace(1e-4, 10.0, 5)
    wins = []
    for seed in (0, 1, 2):
        task = make_drifting_spline_task(seed=seed, T=150, **SPLINE_STREAM_KW)
        stream = spline_stream(task)
        config = ObboConfig(
            alpha=0.02, w=5, estimator="exact", phi=Adaptive(),
            feasible=FeasibleSet.box([1e-4], [10.0]),
            lambda0=np.array([0.5]), clip_threshold=1000.0,
        )
        trace = run_obbo(stream, config)
        inst = stream[-1]
        n_val = task.x_val.shape[1]

        def final_mse(lam_val):
            beta = inst.inner_opt(np.array([lam_val]))
            return inst.f_value(np.array([lam_val]), beta) / n_val

        obbo_mse = final_mse(float(trace.lambda_final[0]))
        grid_best = min(final_mse(g) for g in grid5)
        assert obbo_mse < grid_best
        wins.append((obbo_mse, grid_best))
    _report(
        10,
        "spline hypergradient exact to 1e-6; online-tuned lam beat the grid "
        + ", ".join(f"{a:.3f}<{b:.3f}" for a, b in wins),
    )


def test_11_run_determinism(tmp_path):
    """Two executions of the reference config produce byte-identical CSVs."""
    config = parse_config(CONFIG_DIR / "reference.json")
    cli_run(config, tmp_path / "a")
    cli_run(config, tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
    assert len(names) >= 10
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    _report(11, f"{len(names)} CSVs byte-identical across re-runs")
