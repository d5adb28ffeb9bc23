"""Experiment execution: build streams and optimizers from specs, run every
(experiment x seed) cell, write one deterministic CSV per run plus a JSON
manifest with content hashes.

CSV values are printed with 17 significant digits so re-runs of the same
config are byte-identical; timing lives in the manifest only.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from .. import __version__
from ..geometry import FeasibleSet, Regularizer
from ..hypergrad import DivergenceError
from ..metrics import (
    RegretSeries,
    _squared_norms,
    build_grid,
    compute_regret_series,
    hypergradient_error,
    variation_report,
)
from ..optimizers import (
    ObboConfig,
    RunTrace,
    SobboConfig,
    run_oagd,
    run_obbo,
    run_single_level,
    run_sobbo,
    run_sobow,
)
from ..problems import (
    DriftSpec,
    StreamConfig,
    load_spline_task_csv,
    make_drifting_spline_task,
    meta_toy_stream,
    quadratic_stream,
    spline_stream,
)
from .config import (
    DEFAULT_METRICS,
    ExperimentSpec,
    HarnessConfig,
    serialize_config,
    spec_args,
)

__all__ = [
    "RESULTS_SCHEMA",
    "MANIFEST_SCHEMA",
    "build_stream",
    "build_optimizer_config",
    "execute_run",
    "run_cell",
    "cli_run",
    "write_trace_csv",
]

RESULTS_SCHEMA = "obbo-results-v1"
MANIFEST_SCHEMA = "obbo-manifest-v1"
MAX_LAMBDA_COLUMNS = 8


def build_stream(spec: dict, run_seed: int):
    """Materialize the stream for one run.

    The spec may pin its own structural ``seed``; otherwise the run seed is
    used, so repetitions see different problem realizations. Keys the spec
    omits keep the stream builder's defaults; a key its kind does not accept
    raises ``ConfigError``.
    """
    kind = spec["kind"]
    args = spec_args("stream", spec, "stream spec")
    if kind != "spline_csv":
        args.setdefault("seed", run_seed)
    if args.get("drift") is not None:
        args["drift"] = DriftSpec(**args["drift"])
    else:
        args.pop("drift", None)
    if kind == "quadratic":
        if "noise" in args:
            args["noise"] = tuple(args["noise"])
        stochastic = args.pop("stochastic", None)
        return quadratic_stream(StreamConfig(**args), stochastic)
    if kind == "spline_synthetic":
        return spline_stream(make_drifting_spline_task(**args))
    if kind == "spline_csv":
        return spline_stream(load_spline_task_csv(**args))
    if kind == "meta":
        d = args.pop("d")
        structure = {key: args.pop(key) for key in ("T", "seed", "drift") if key in args}
        return meta_toy_stream(StreamConfig(d1=d, d2=d, **structure), **args)
    raise ValueError(f"unknown stream kind {kind!r}")


def _regularizer_from_spec(spec: dict | None) -> Regularizer:
    if spec is None or spec.get("kind", "zero") == "zero":
        return Regularizer.zero()
    if spec["kind"] == "l1":
        return Regularizer.l1(spec.get("weight", 0.0))
    raise ValueError(f"unknown regularizer kind {spec['kind']!r}")


def _feasible_from_spec(spec: dict | None) -> FeasibleSet:
    if spec is None or spec.get("kind", "full") == "full":
        return FeasibleSet.full_space()
    if spec["kind"] == "box":
        return FeasibleSet.box(spec["lower"], spec["upper"])
    raise ValueError(f"unknown feasible set kind {spec['kind']!r}")


def build_optimizer_config(spec: dict) -> ObboConfig:
    """Optimizer config from a spec; keys the spec omits keep the defaults,
    and a key its kind does not accept raises ``ConfigError``."""
    args = spec_args("optimizer", spec, "optimizer spec")
    phi = args.pop("phi", None) or {}
    phi_keys = {"mode": "phi_mode", "beta": "adapt_beta", "epsilon": "adapt_epsilon"}
    args.update({name: phi[key] for key, name in phi_keys.items() if key in phi})
    if "regularizer" in args:
        args["regularizer"] = _regularizer_from_spec(args["regularizer"])
    if "feasible" in args:
        args["feasible"] = _feasible_from_spec(args["feasible"])
    for key in ("lambda0", "beta0"):
        if args.get(key) is not None:
            args[key] = np.asarray(args[key], dtype=float)
    if spec["kind"] == "sobbo":
        return SobboConfig(**args)
    return ObboConfig(**args)


def execute_run(exp: ExperimentSpec, seed: int) -> tuple[RunTrace, list]:
    """Run one cell and return the trace plus the stream it ran on."""
    stream = build_stream(exp.stream, seed)
    kind = exp.optimizer["kind"]
    config = build_optimizer_config(exp.optimizer)
    if kind == "obbo":
        trace = run_obbo(stream, config)
    elif kind == "sobbo":
        trace = run_sobbo(stream, config, np.random.default_rng(seed))
    elif kind == "oagd":
        trace = run_oagd(stream, config)
    elif kind == "sobow":
        trace = run_sobow(stream, config)
    elif kind in ("adam", "sgdm"):
        trace = run_single_level(stream, kind, config)
    else:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    return trace, stream


def _fmt(x) -> str:
    return format(float(x), ".17g")


def write_trace_csv(
    path: Path,
    run_id: str,
    trace: RunTrace,
    regret: RegretSeries,
    hg_error: np.ndarray,
    smoothed_sq: np.ndarray,
) -> None:
    d1 = trace.lambdas.shape[1]
    lam_cols = (
        [f"lambda_{i}" for i in range(d1)] if d1 <= MAX_LAMBDA_COLUMNS else ["lambda_norm"]
    )
    header = (
        ["run_id", "t"]
        + lam_cols
        + [
            "outer_loss",
            "inner_residual",
            "gen_proj_norm_sq",
            "smoothed_norm_sq",
            "blr_term",
            "blr_cum",
            "blr_eucl_term",
            "blr_eucl_cum",
            "hypergrad_err_sq",
        ]
    )
    lines = [f"# schema={RESULTS_SCHEMA}", ",".join(header)]
    for t in range(trace.T):
        if d1 <= MAX_LAMBDA_COLUMNS:
            lam_vals = [_fmt(v) for v in trace.lambdas[t]]
        else:
            lam_vals = [_fmt(np.linalg.norm(trace.lambdas[t]))]
        row = (
            [run_id, str(t + 1)]
            + lam_vals
            + [
                _fmt(trace.outer_loss[t]),
                _fmt(trace.inner_residual[t]),
                _fmt(trace.gen_proj_norm_sq[t]),
                _fmt(smoothed_sq[t]),
                _fmt(regret.terms[t]),
                _fmt(regret.cumulative[t]),
                _fmt(regret.euclidean_terms[t]),
                _fmt(regret.euclidean_cumulative[t]),
                _fmt(hg_error[t]),
            ]
        )
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _variation_grid(trace: RunTrace, grid_size: int) -> np.ndarray:
    feas = trace.config.feasible
    if feas.kind == "box":
        lower, upper = feas.lower, feas.upper
    else:
        span = np.maximum(1.0, np.abs(trace.lambdas).max(axis=0))
        lower, upper = -span, span
    return build_grid(lower, upper, n=grid_size, extra=trace.lambdas)


def _cell_entry(exp: ExperimentSpec, seed: int) -> dict:
    return {"experiment": exp.name, "seed": seed, "run_id": f"{exp.name}__seed{seed}"}


def run_cell(exp: ExperimentSpec, seed: int, out_dir: str) -> dict:
    """Execute one (experiment, seed) cell and write its CSV.

    Returns the manifest entry; a numerical abort or any other failure is
    recorded rather than propagated so sibling cells are unaffected.
    """
    entry = _cell_entry(exp, seed)
    run_id = entry["run_id"]
    t0 = time.perf_counter()
    try:
        trace, stream = execute_run(exp, seed)
        regret = compute_regret_series(stream, trace)
        smoothed_sq = _squared_norms("smoothed_norm_sq", trace.smoothed)
        hg_err = hypergradient_error(trace, regret.exact_grads)
        options = {**DEFAULT_METRICS, **exp.metrics}
        if options["variations"]:
            report = variation_report(stream, _variation_grid(trace, options["grid_size"]))
        csv_path = Path(out_dir) / f"{run_id}.csv"
        write_trace_csv(csv_path, run_id, trace, regret, hg_err, smoothed_sq)
        entry["status"] = "ok"
        entry["file"] = csv_path.name
        entry["sha256"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        terminal = {
            "lambda_final": [float(v) for v in trace.lambda_final],
            "final_outer_loss": float(trace.outer_loss[-1]),
            "alpha": trace.alpha,
            "eta": trace.eta,
            "final_blr_cum": float(regret.cumulative[-1]),
            "final_blr_eucl_cum": float(regret.euclidean_cumulative[-1]),
        }
        if trace.s is not None:
            terminal["s"], terminal["m"] = trace.s, trace.m
        if options["variations"]:
            entry["variations"] = {"h1": report.h1, "h2": report.h2, "v1": report.v1}
        entry["terminal"] = terminal
    except DivergenceError as exc:
        entry.update(status="aborted", file=None, error=str(exc))
    except Exception as exc:
        entry.update(status="error", file=None, error=f"{type(exc).__name__}: {exc}")
    entry["wall_ms"] = (time.perf_counter() - t0) * 1e3
    return entry


def _collect(future, exp: ExperimentSpec, seed: int) -> dict:
    """The worker's manifest entry, or an error entry when the worker failed
    outright (one that dies breaks the pool for every cell not yet finished)."""
    try:
        return future.result()
    except Exception as exc:
        entry = _cell_entry(exp, seed)
        entry.update(status="error", file=None, error=f"{type(exc).__name__}: {exc}")
        return entry


def cli_run(
    config: HarnessConfig,
    out_dir,
    seeds_override: list[int] | None = None,
    jobs: int = 1,
) -> dict:
    """Execute every (experiment x seed) cell and write the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = []
    for exp in config.experiments:
        seeds = seeds_override if seeds_override is not None else exp.seeds
        for seed in seeds:
            cells.append((exp, seed))
    if jobs > 1 and len(cells) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(run_cell, exp, seed, str(out)) for exp, seed in cells]
            entries = [_collect(f, *cell) for f, cell in zip(futures, cells)]
    else:
        entries = [run_cell(exp, seed, str(out)) for exp, seed in cells]
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "library_version": __version__,
        "config_dialect": "json (canonical: sorted keys, 2-space indent)",
        "results_schema": RESULTS_SCHEMA,
        "config": json.loads(serialize_config(config)),
        "outputs": entries,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest
