"""Experiment execution: build streams and optimizers from specs, run every
(experiment x seed) cell, write one deterministic CSV per run plus a JSON
manifest with content hashes.

CSV values are printed with 17 significant digits so re-runs of the same
config are byte-identical; timing lives in the manifest only.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from .. import __version__
from ..hypergrad import DivergenceError
from ..metrics import (
    RegretSeries,
    compute_regret_series,
    hypergradient_error,
    variation_grid,
    variation_report,
)
from ..optimizers import (
    RunTrace,
    run_oagd,
    run_obbo,
    run_single_level,
    run_sobbo,
    run_sobow,
)
from ..problems import SplineTask, spline_stream
from .config import (
    DEFAULT_METRICS,
    ExperimentSpec,
    HarnessConfig,
    build,
    serialize_config,
)

__all__ = [
    "RESULTS_SCHEMA",
    "MANIFEST_SCHEMA",
    "build_stream",
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

    Every stream kind takes a ``seed``: the spec may pin its own, otherwise
    the run seed is used, so repetitions see different problem realizations.
    Keys the spec omits keep the stream builder's defaults; an unknown kind,
    or a key its kind does not accept, raises ``ConfigError``.
    """
    made = build("stream", {"seed": run_seed, **spec}, "stream spec")
    return spline_stream(made) if isinstance(made, SplineTask) else made


def execute_run(exp: ExperimentSpec, seed: int) -> tuple[RunTrace, list]:
    """Run one cell and return the trace plus the stream it ran on."""
    stream = build_stream(exp.stream, seed)
    kind = exp.optimizer["kind"]
    config = build("optimizer", exp.optimizer, "optimizer spec")
    if kind == "obbo":
        trace = run_obbo(stream, config)
    elif kind == "sobbo":
        trace = run_sobbo(stream, config, np.random.default_rng(seed))
    elif kind == "oagd":
        trace = run_oagd(stream, config)
    elif kind == "sobow":
        trace = run_sobow(stream, config)
    else:  # run_single_level rejects a kind other than "adam" and "sgdm"
        trace = run_single_level(stream, kind, config)
    return trace, stream


def write_trace_csv(
    path: Path, run_id: str, trace: RunTrace, regret: RegretSeries, hg_error: np.ndarray
) -> None:
    d1 = trace.lambdas.shape[1]
    if d1 <= MAX_LAMBDA_COLUMNS:
        columns = [(f"lambda_{i}", trace.lambdas[:, i]) for i in range(d1)]
    else:
        lams = trace.lambdas  # sqrt of each row dot, the bits of ``np.linalg.norm``
        columns = [("lambda_norm", np.sqrt(np.matmul(lams[:, None, :], lams[:, :, None]))[:, 0, 0])]
    columns += [
        ("outer_loss", regret.outer_loss),
        ("inner_residual", regret.inner_residual),
        ("gen_proj_norm_sq", regret.gen_proj_norm_sq),
        ("smoothed_norm_sq", regret.smoothed_norm_sq),
        ("blr_term", regret.terms),
        ("blr_cum", regret.cumulative),
        ("blr_eucl_term", regret.euclidean_terms),
        ("blr_eucl_cum", regret.euclidean_cumulative),
        ("hypergrad_err_sq", hg_error),
    ]
    header = ",".join(["run_id", "t", *(name for name, _ in columns)])
    # "%.17g" prints what format(x, ".17g") prints, for every float.
    row = run_id.replace("%", "%%") + ",%d" + ",%.17g" * len(columns) + "\n"
    rows = zip(range(1, trace.T + 1), *(values.tolist() for _, values in columns))
    with open(path, "w", newline="\n") as out:
        out.write(f"# schema={RESULTS_SCHEMA}\n{header}\n")
        out.writelines(map(row.__mod__, rows))


def _cell_entry(exp: ExperimentSpec, seed: int) -> dict:
    return {"experiment": exp.name, "seed": seed, "run_id": f"{exp.name}__seed{seed}"}


# No cell has run in this process yet (the first pays one-time loads, such as
# numpy.random's on the first default_rng).
_first_in_process = True


def run_cell(exp: ExperimentSpec, seed: int, out_dir: str) -> dict:
    """Execute one (experiment, seed) cell and write its CSV.

    Returns the manifest entry; a numerical abort (divergence or a singular
    solve) or any other failure is recorded, not propagated, so sibling cells
    are unaffected. The entry holds ``phases_ms`` of each phase the cell
    finished and ``first_in_process``.
    """
    global _first_in_process
    entry = _cell_entry(exp, seed)
    run_id = entry["run_id"]
    clock = time.perf_counter
    stamps = {"start": clock()}
    try:
        trace, stream = execute_run(exp, seed)
        stamps["run"] = clock()  # stream build and solve
        regret = compute_regret_series(stream, trace)
        stamps["regret"] = clock()
        hg_err = hypergradient_error(trace, regret.exact_grads)
        stamps["hypergradient_error"] = clock()
        options = {**DEFAULT_METRICS, **exp.metrics}
        if options["variations"]:
            variations = variation_report(stream, variation_grid(trace, options["grid_size"]))
            stamps["variations"] = clock()
        csv_path = Path(out_dir) / f"{run_id}.csv"
        write_trace_csv(csv_path, run_id, trace, regret, hg_err)
        stamps["csv"] = clock()
        sha256 = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        entry.update(status="ok", file=csv_path.name, sha256=sha256)
        if options["variations"]:
            entry["variations"] = variations
        entry["terminal"] = {
            "lambda_final": [float(v) for v in trace.lambda_final],
            "final_outer_loss": float(regret.outer_loss[-1]),
            "alpha": trace.config.alpha,
            "eta": trace.config.eta,
            "final_blr_cum": float(regret.cumulative[-1]),
            "final_blr_eucl_cum": float(regret.euclidean_cumulative[-1]),
        }
        if exp.optimizer["kind"] == "sobbo":
            entry["terminal"].update(s=trace.config.s, m=trace.config.m)
    except (DivergenceError, np.linalg.LinAlgError) as exc:
        entry.update(status="aborted", file=None, error=str(exc))
    except Exception as exc:
        entry.update(status="error", file=None, error=f"{type(exc).__name__}: {exc}")
    entry["wall_ms"] = (clock() - stamps["start"]) * 1e3
    names, times = zip(*stamps.items())
    entry["phases_ms"] = {n: (b - a) * 1e3 for n, a, b in zip(names[1:], times, times[1:])}
    entry["first_in_process"], _first_in_process = _first_in_process, False
    return entry


def _submit(pool, exp: ExperimentSpec, seed: int, out_dir: str):
    """Submit one cell. A worker that dies before every cell is submitted
    breaks the pool at once, so the error goes in the cell's future."""
    from concurrent.futures import BrokenExecutor, Future
    try:
        return pool.submit(run_cell, exp, seed, out_dir)
    except BrokenExecutor as exc:
        failed = Future()
        failed.set_exception(exc)
        return failed


def _collect(future, exp: ExperimentSpec, seed: int) -> dict:
    """The worker's manifest entry, or an error entry when the worker failed
    outright (one that dies breaks the pool for every cell not yet finished)."""
    try:
        return future.result()
    except Exception as exc:
        entry = _cell_entry(exp, seed)
        entry.update(status="error", file=None, error=f"{type(exc).__name__}: {exc}")
        return entry


def cli_run(config: HarnessConfig, out_dir, jobs: int = 1) -> dict:
    """Execute every (experiment x seed) cell and write the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = [(exp, seed) for exp in config.experiments for seed in exp.seeds]
    if jobs > 1 and len(cells) > 1:
        import concurrent.futures  # loads logging, which a one-job run does not need
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            futures = [_submit(pool, exp, seed, str(out)) for exp, seed in cells]
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
