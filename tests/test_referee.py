"""The quadratic inner-GD and ITD kernels against the 40-digit referee.

The inner-GD kernel forms the K-step trajectory in closed form, rounded once
per entry, where the oracle path's step loop rounds at every operation of
every step; the ITD kernel shares one Q v between each step's two HVPs and
stacks the cross HVPs. On the same seeded draws, each kernel's per-call error
must be no larger than the oracle loop's at the 99th percentile and at the
maximum.
"""

import numpy as np

from obbo.hypergrad import inner_gd, itd_hypergradient
from obbo.problems import quadratic_stream

from oracles import without_kernels
from referee import error_in_eps, inner_gd_reference, itd_reference

DRAWS, K = 300, 12
# Cycles of coprime lengths, so the 300 draws cover every (d1, d2, eta) pairing.
D1, D2, ETA_FACTORS = (1, 2, 3, 4), (1, 3, 6, 12, 6), (0.5, 1.0, 1.5)


def draw(seed: int):
    """A kappa = 100 quadratic stream's first instant, a copy of it without
    kernels (which runs the oracle loop), a random lam and warm start,
    and eta a fixed fraction of 2 / l_g1."""
    d1, d2 = D1[seed % len(D1)], D2[seed % len(D2)]
    kernel = quadratic_stream(d1, d2, T=1, kappa_target=100.0, seed=seed)[0]
    loop = without_kernels(kernel)
    rng = np.random.default_rng(seed)
    lam, beta0 = rng.standard_normal(d1), rng.standard_normal(d2)
    return kernel, loop, lam, beta0, ETA_FACTORS[seed % len(ETA_FACTORS)] / kernel.l_g1


def inner_gd_errors(seed: int) -> tuple[float, float]:
    """The largest row error, in units of epsilon, of the inner-GD kernel and
    of the oracle loop on one draw."""
    kernel, loop, lam, beta0, eta = draw(seed)
    exact = inner_gd_reference(kernel.A, kernel.b, kernel.Q, lam, beta0, eta, K)
    errors = []
    for inst in (kernel, loop):
        traj = inner_gd(inst, lam, beta0, eta, K).trajectory
        errors.append(max(error_in_eps(traj[k], exact[k]) for k in range(1, K + 1)))
    return errors[0], errors[1]


def itd_errors(seed: int) -> tuple[float, float]:
    """The error, in units of epsilon, of the ITD hypergradient of the kernel
    and of the oracle loop on one draw, both from the kernel's inner solve."""
    kernel, loop, lam, beta0, eta = draw(seed)
    solve = inner_gd(kernel, lam, beta0, eta, K)
    exact = itd_reference(kernel.A, kernel.Q, kernel.c, kernel.amp, kernel.phases, lam,
                          solve.final, eta, K)
    kernel_error, loop_error = (error_in_eps(itd_hypergradient(inst, lam, solve), exact)
                                for inst in (kernel, loop))
    return kernel_error, loop_error


def assert_kernel_no_less_accurate(per_draw_errors):
    errors = np.array([per_draw_errors(seed) for seed in range(DRAWS)])
    stats = np.median(errors, axis=0), np.percentile(errors, 99, axis=0), errors.max(axis=0)
    table = "; ".join(
        f"{name} " + " / ".join(f"{stat[j]:.2f}" for stat in stats)
        for j, name in enumerate(("kernel", "loop"))
    )
    _, p99, worst = stats
    assert p99[0] <= p99[1] and worst[0] <= worst[1], f"error in eps (median / p99 / max): {table}"


def test_inner_gd_kernel_is_no_less_accurate_than_the_step_loop():
    assert_kernel_no_less_accurate(inner_gd_errors)


def test_itd_kernel_is_no_less_accurate_than_the_oracle_loop():
    assert_kernel_no_less_accurate(itd_errors)
