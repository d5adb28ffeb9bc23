"""Metamorphic relations: checks that hold without recorded values.

Scaling g by a power of two, g -> 4 g (Q -> 4 Q, so mu_g and l_g1 scale by 4,
and sigma_g -> 4 sigma_g, so the inner noise scales with the gradient), with
the inner step eta -> eta / 4, scales every inner step, HVP and Neumann factor
exactly. The lam path and the cumulative regret must then be bit-equal, at
zero and nonzero noise, on the quadratic data's kernels and on its oracles.

On the spline stream, doubling y in every train and validation batch doubles
the inner solution and every inner iterate from beta = 0, and multiplies f
and every hypergradient by 4. With the outer step alpha -> alpha / 4, the lam
path of Euclidean OBBO must then be bit-equal and f must scale by 4 bit for
bit, for each estimator, on a box inside the task's lam box.

Permuting lam's coordinates (A's columns and the phases, by one permutation)
permutes every oracle's lam-side output and leaves its beta-side output, so
it must permute the lam path of adaptive OBBO-ITD, whose generator is
per-coordinate. Only products over lam (A lam and inner GD's closed form)
sum in another order, so the paths agree to within rtol 1e-12 of the path's
largest entry, over 120 rounds. The same holds in an axis box whose bounds
differ per coordinate and bind, with the box's bounds permuted too.

Rotating beta-space by an orthogonal R (A -> R A, Q -> R Q R', b -> R b,
c -> R c) leaves f and g unchanged as functions of lam and R beta, so the lam
path of adaptive OBBO-ITD must stay the same. R Q R' and the products with R
round, so the paths agree to within the same rtol 1e-12, over 120 rounds.

Permuting the feature coordinates of every meta task by one permutation P (the
columns of X_tr and X_val, from which a new ``MetaTask`` forms G, H and X'y
and the bounds) maps beta to beta' = P'beta with X' beta' = X beta and
||lam' - beta'|| = ||lam - beta||, and leaves mu_g, l_g1 and l_f1 as they are
up to rounding, so it must permute the lam path of adaptive OBBO-ITD within the
same rtol 1e-12, over 120 rounds.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obbo.geometry import FeasibleSet
from obbo.metrics import compute_regret_series
from obbo.optimizers import (Adaptive, ObboConfig, OagdConfig, SobboConfig, run_oagd, run_obbo,
                             run_sobbo)
from obbo.problems import (DriftSpec, make_drifting_spline_task, meta_toy_stream,
                           quadratic_instant, quadratic_stream, spline_stream)
from obbo.problems.meta import MetaTask

from oracles import without_kernels

T, ETA, NOISY = 60, 0.02, (0.3, 0.2)
# (run, noise): only SOBBO samples, so the others run on the noisy instants alone.
CASES = {
    "sobbo-adaptive-exact": (lambda stream, eta: run_sobbo(
        stream, SobboConfig(eta=eta, w=3, phi=Adaptive()), np.random.default_rng(5)), (0.0, 0.0)),
    "sobbo-adaptive-noisy": (lambda stream, eta: run_sobbo(
        stream, SobboConfig(eta=eta, w=3, phi=Adaptive()), np.random.default_rng(5)), NOISY),
    "obbo-itd-adaptive": (lambda stream, eta: run_obbo(
        stream, ObboConfig(eta=eta, w=3, phi=Adaptive())), NOISY),
    "obbo-implicit": (lambda stream, eta: run_obbo(
        stream, ObboConfig(eta=eta, w=3, estimator="implicit")), NOISY),
    "oagd": (lambda stream, eta: run_oagd(stream, OagdConfig(eta=eta, w=3)), NOISY),
}


def scaled_streams(d1, d2, seed, noise, kernels):
    """One stream's data as instants of g and of 4 g, each built by ``quadratic_instant``;
    without ``kernels`` the solvers and metrics call the oracle fields."""
    base, scaled = [], []
    for inst in quadratic_stream(d1, d2, T, kappa_target=8.0, drift=DriftSpec.decaying(),
                                 seed=seed):
        for out, factor in ((base, 1.0), (scaled, 4.0)):
            made = quadratic_instant(inst.t, inst.A, inst.b, factor * inst.Q, inst.c, inst.amp,
                                     inst.phases, noise=(factor * noise[0], noise[1]))
            out.append(made if kernels else without_kernels(made))
    return base, scaled


@pytest.mark.parametrize("kernels", [True, False], ids=["kernels", "oracles"])
@pytest.mark.parametrize("case", sorted(CASES))
@settings(derandomize=True, database=None, max_examples=2, deadline=None)
@given(d1=st.integers(1, 3), d2=st.integers(1, 5), seed=st.integers(0, 2**16))
@example(d1=3, d2=5, seed=1)
def test_g_times_4_with_eta_over_4_keeps_every_bit(case, kernels, d1, d2, seed):
    run, noise = CASES[case]
    base, scaled = scaled_streams(d1, d2, seed, noise, kernels)
    assert [(4.0 * a.mu_g, 4.0 * a.l_g1) for a in base] == [(b.mu_g, b.l_g1) for b in scaled]
    trace, trace4 = run(base, ETA), run(scaled, ETA / 4)
    assert trace.lambdas.tobytes() == trace4.lambdas.tobytes()
    cumulative = compute_regret_series(base, trace).cumulative
    assert cumulative.tobytes() == compute_regret_series(scaled, trace4).cumulative.tobytes()


def y_doubled(task):
    """``task`` with y doubled in every train and validation row."""
    return dataclasses.replace(task, y_train=2.0 * task.y_train, y_val=2.0 * task.y_val)


@pytest.mark.parametrize("estimator", ["exact", "itd", "implicit"])
@settings(derandomize=True, database=None, max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**16), n_knots=st.integers(3, 12), n_train=st.integers(4, 30))
@example(seed=1, n_knots=12, n_train=30)
def test_spline_y_times_2_with_alpha_over_4_keeps_every_bit(estimator, seed, n_knots, n_train):
    task = make_drifting_spline_task(seed, 40, n_knots=n_knots, n_train=n_train, n_val=10)
    box = FeasibleSet.box([task.lambda_lower], [task.lambda_upper])
    runs = []
    for data, alpha in ((task, 0.05), (y_doubled(task), 0.05 / 4)):
        stream = spline_stream(data)
        config = ObboConfig(alpha=alpha, w=3, lambda0=[0.5], feasible=box, estimator=estimator)
        trace = run_obbo(stream, config)
        runs.append((trace, compute_regret_series(stream, trace).outer_loss))
    (trace, f), (trace2, f4) = runs
    assert trace.lambdas.tobytes() == trace2.lambdas.tobytes()
    assert (4.0 * f).tobytes() == f4.tobytes()


@pytest.mark.parametrize("kernels", [True, False], ids=["kernels", "oracles"])
@settings(derandomize=True, database=None, max_examples=3, deadline=None)
@given(d1=st.integers(2, 4), d2=st.integers(1, 5), seed=st.integers(0, 2**16))
@example(d1=3, d2=5, seed=1)
def test_permuting_lambda_permutes_the_obbo_itd_path(kernels, d1, d2, seed):
    want, got = permuted_paths(kernels, d1, d2, seed)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kernels", [True, False], ids=["kernels", "oracles"])
@settings(derandomize=True, database=None, max_examples=3, deadline=None)
@given(d1=st.integers(2, 4), d2=st.integers(1, 5), seed=st.integers(0, 2**16))
@example(d1=3, d2=5, seed=1)
def test_permuting_lambda_and_its_box_permutes_the_obbo_itd_path(kernels, d1, d2, seed):
    # Bounds that differ per coordinate and that the path reaches, so a box
    # handled out of coordinate order moves the permuted run's path.
    k = np.arange(d1)
    box = (-0.1 - 0.15 * k, 0.05 + 0.2 * k[::-1])
    want, got = permuted_paths(kernels, d1, d2, seed, box)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def permuted_paths(kernels, d1, d2, seed, box=None):
    """The adaptive OBBO-ITD lam path of a stream, permuted by ``perm``, and the
    path of that stream with lam's coordinates (and the box's bounds) permuted."""
    perm = np.random.default_rng(seed).permutation(d1)
    if np.array_equal(perm, np.arange(d1)):
        perm = perm[::-1]
    runs = []
    for order in (np.arange(d1), perm):
        stream = []
        for inst in quadratic_stream(d1, d2, 120, kappa_target=8.0, drift=DriftSpec.decaying(),
                                     seed=seed):
            made = quadratic_instant(inst.t, inst.A[:, order], inst.b, inst.Q, inst.c, inst.amp,
                                     inst.phases[order])
            stream.append(made if kernels else without_kernels(made))
        X = FeasibleSet.full_space() if box is None else FeasibleSet.box(*(x[order] for x in box))
        runs.append(run_obbo(stream, ObboConfig(eta=ETA, w=3, phi=Adaptive(), feasible=X)).lambdas)
    return runs[0][:, perm], runs[1]


@pytest.mark.parametrize("kernels", [True, False], ids=["kernels", "oracles"])
@settings(derandomize=True, database=None, max_examples=3, deadline=None)
@given(d1=st.integers(1, 4), d2=st.integers(1, 5), seed=st.integers(0, 2**16))
@example(d1=3, d2=5, seed=1)
def test_rotating_beta_keeps_the_obbo_itd_path(kernels, d1, d2, seed):
    R = np.linalg.qr(np.random.default_rng(seed).standard_normal((d2, d2)))[0]
    runs = []
    for rotation in (np.eye(d2), R):
        stream = []
        for inst in quadratic_stream(d1, d2, 120, kappa_target=8.0, drift=DriftSpec.decaying(),
                                     seed=seed):
            Q = rotation @ inst.Q @ rotation.T
            made = quadratic_instant(inst.t, rotation @ inst.A, rotation @ inst.b, (Q + Q.T) / 2,
                                     rotation @ inst.c, inst.amp, inst.phases)
            stream.append(made if kernels else without_kernels(made))
        runs.append(run_obbo(stream, ObboConfig(eta=ETA, w=3, phi=Adaptive())).lambdas)
    want, got = runs
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(derandomize=True, database=None, max_examples=3, deadline=None)
@given(d=st.integers(2, 5), seed=st.integers(0, 2**16))
@example(d=4, seed=1)
def test_permuting_meta_features_permutes_the_obbo_itd_path(d, seed):
    perm = np.random.default_rng(seed).permutation(d)
    if np.array_equal(perm, np.arange(d)):
        perm = perm[::-1]
    stream = meta_toy_stream(d, 120, seed=seed, drift=DriftSpec.decaying())
    permuted = [
        dataclasses.replace(i, task=MetaTask(i.task.X_tr[:, perm], i.task.y_tr,
                                             i.task.X_val[:, perm], i.task.y_val, i.task.gamma))
        for i in stream
    ]
    config = ObboConfig(alpha=0.05, w=3, phi=Adaptive())
    want = run_obbo(stream, config).lambdas[:, perm]
    got = run_obbo(permuted, config).lambdas
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
