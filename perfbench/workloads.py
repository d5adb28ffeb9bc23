"""Benchmark workloads: each one turns a workload seed into an obbo config.

The program only ever sees the generated config document. The seed picks the
run seeds (and so the stream realizations); the shapes, horizons and
optimizer settings are fixed per workload, so every seed does the same
amount of work.
"""

from __future__ import annotations

import random

__all__ = ["DEFAULT_SEED", "WORKLOADS", "make_config", "cells"]

# Reference CSV values (reference/<workload>.npz) are recorded at this seed.
DEFAULT_SEED = 1


def _run_seeds(workload: str, seed: int, n: int) -> list[int]:
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(1, 2**31 - 1) for _ in range(n)]


def _quadratic(d1, d2, T, kappa, **extra) -> dict:
    stream = {
        "kind": "quadratic",
        "d1": d1,
        "d2": d2,
        "T": T,
        "kappa_target": kappa,
        "cos_amplitude": 0.5,
        "drift": {"kind": "decaying", "rate": 1.0},
    }
    stream.update(extra)
    return stream


def _sweep_itd(seed: int, T: int) -> list[dict]:
    # The window_sweep shape. The streams pin no seed, so all five
    # experiments run on the one stream their shared run seed builds.
    seeds = _run_seeds("sweep-itd", seed, 1)
    stream = _quadratic(4, 6, T, 100.0)
    base = {"K": 12, "alpha": 0.02, "eta": None, "clip_threshold": 1000.0}
    adaptive = {"phi": {"mode": "adaptive"}}
    optimizers = [
        ("obbo-w1", {"kind": "obbo", "w": 1, **adaptive}),
        ("obbo-w10", {"kind": "obbo", "w": 10, **adaptive}),
        ("obbo-w25", {"kind": "obbo", "w": 25, **adaptive}),
        ("sobow-w10", {"kind": "sobow", "w": 10}),
        ("adam-w10", {"kind": "adam", "w": 10, "alpha": 0.01}),
    ]
    return [
        {"name": name, "seeds": seeds, "stream": stream, "optimizer": {**base, **opt}}
        for name, opt in optimizers
    ]


def _sobbo_neumann(seed: int, T: int) -> list[dict]:
    # Different noise levels give the two experiments different streams, so
    # no two cells share a stream.
    seeds = _run_seeds("sobbo-neumann", seed, 1)
    base = {"kind": "sobbo", "K": 5, "eta": 0.05, "clip_threshold": 1000.0}
    return [
        {
            "name": "sobbo-w4",
            "seeds": seeds,
            "stream": _quadratic(3, 6, T, 8.0, noise=[0.3, 0.2]),
            "optimizer": {**base, "w": 4, "alpha": 0.05},
        },
        {
            "name": "sobbo-w16",
            "seeds": seeds,
            "stream": _quadratic(3, 6, T, 8.0, noise=[0.5, 0.5]),
            "optimizer": {**base, "w": 16, "alpha": 0.02, "phi": {"mode": "adaptive"}},
        },
    ]


# name -> (config builder, full horizon, seconds of one untraced pass).
# The pass time was measured on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4)
# at the commit that defined the benchmark. It fixes how many passes a run
# of a given length makes, so every commit is measured over the same number
# of passes (see bench.pass_count).
WORKLOADS = {
    "sweep-itd": (_sweep_itd, 600, 1.75),
    "sobbo-neumann": (_sobbo_neumann, 600, 0.6),
}


def make_config(workload: str, seed: int, T: int | None = None) -> dict:
    """The config document for one workload seed, optionally at horizon T."""
    build, full, _pass_s = WORKLOADS[workload]
    return {"schema": "obbo-config-v1", "experiments": build(seed, T or full)}


def cells(config: dict) -> list[tuple[dict, int]]:
    """(experiment, run seed) pairs in the order the harness runs them."""
    return [(exp, s) for exp in config["experiments"] for s in exp["seeds"]]
