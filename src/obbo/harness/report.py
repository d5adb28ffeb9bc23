"""Aggregation of finished runs into plot-ready summary files.

Per experiment: the median cumulative local regret across seeds with median
absolute deviation bands sampled every 100 rounds, final gradient norms per
seed arranged for cross-experiment scatter plots, and a loss table with both
median/MAD and mean/standard-error statistics. Every table is written as CSV
and as a gnuplot-friendly whitespace-separated .dat twin.
The reader takes only ``obbo-results-v1`` CSVs; any other run file is an issue.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .runner import RESULTS_SCHEMA

__all__ = ["ManifestError", "load_run_rows", "cli_report", "median_abs_deviation"]

CHECKPOINT_EVERY = 100
# The results columns the report reads.
REPORTED_COLUMNS = ("blr_cum", "blr_eucl_term", "outer_loss")
# The keys a manifest entry holds, with their types; an ok entry names its file.
ENTRY_KEYS = {"run_id": str, "experiment": str, "seed": int, "status": str}
OK_ENTRY_KEYS = {**ENTRY_KEYS, "file": str}


class ManifestError(ValueError):
    """A ``manifest.json`` of another shape than ``cli_run`` writes."""


def median_abs_deviation(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.median(np.abs(values - np.median(values))))


def _read_results_csv(path: Path) -> dict[str, np.ndarray]:
    """The columns, by name, of an ``obbo-results-v1`` CSV: its schema line,
    its header, then one row per round of finite numbers after the run id.
    Raises ``ValueError`` for any other file."""
    lines = path.read_text().splitlines()
    if lines[:1] != [f"# schema={RESULTS_SCHEMA}"]:
        raise ValueError(f"first line is not '# schema={RESULTS_SCHEMA}'")
    names = lines[1].split(",")[1:] if len(lines) > 1 else []
    missing = [name for name in REPORTED_COLUMNS if name not in names]
    if missing:
        raise ValueError(f"header lacks {', '.join(missing)}")
    rows = [line.split(",")[1:] for line in lines[2:]]
    if not rows or any(len(row) != len(names) for row in rows):
        raise ValueError(f"rows do not form a table of {len(names) + 1} columns")
    table = np.array(rows, dtype=float)
    if not np.isfinite(table).all():
        raise ValueError("holds a non-finite value")
    return dict(zip(names, table.T))


def load_run_rows(results_dir) -> tuple[dict[str, dict[int, dict]], list[str]]:
    """Load each listed run's columns, reporting problems.

    Returns ({experiment: {seed: columns}}, issues). A run that is not ok, or
    whose file is missing or not an ``obbo-results-v1`` table, lands in the
    issues list; whatever loaded cleanly is used. A manifest whose shape is
    not an object with an ``outputs`` list of ``ENTRY_KEYS`` objects (plus
    ``file`` for an ok one) raises ``ManifestError`` naming its path.
    """
    results = Path(results_dir)
    issues: list[str] = []
    manifest_path = results / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json under {results}")
    manifest = json.loads(manifest_path.read_text())
    outputs = manifest.get("outputs") if isinstance(manifest, dict) else None
    if not isinstance(outputs, list):
        raise ManifestError(f"{manifest_path}: not an object with an 'outputs' list")
    for i, entry in enumerate(outputs):
        fields = entry if isinstance(entry, dict) else {}
        keys = OK_ENTRY_KEYS if fields.get("status") == "ok" else ENTRY_KEYS
        bad = [f"'{key}' ({kind.__name__})" for key, kind in keys.items()
               if not isinstance(fields.get(key), kind)]
        if bad:
            raise ManifestError(f"{manifest_path}: outputs[{i}] needs {', '.join(bad)}")
    runs: dict[str, dict[int, dict]] = {}
    for entry in outputs:
        if entry["status"] != "ok":
            issues.append(
                f"{entry['run_id']}: status={entry['status']} ({entry.get('error', 'no detail')})"
            )
            continue
        try:
            columns = _read_results_csv(results / entry["file"])
        except (OSError, ValueError) as exc:
            issues.append(f"{entry['run_id']}: cannot read {entry['file']}: {exc}")
            continue
        runs.setdefault(entry["experiment"], {})[entry["seed"]] = columns
    return runs, issues


def _g(value) -> str:
    return format(float(value), ".17g")


def _write_table(path: Path, header: list[str], rows: list[list]) -> None:
    """Write ``rows`` as CSV and as the whitespace-separated ``.dat`` twin. A
    missing cell (None) is empty in the CSV and ``NaN`` in the twin, so a
    whitespace reader keeps every later value under its own column."""
    twins = ((path, ",", "", ""), (path.with_suffix(".dat"), " ", "# ", "NaN"))
    for target, sep, lead, missing in twins:
        lines = [lead + sep.join(header)]
        lines += [sep.join(missing if v is None else str(v) for v in row) for row in rows]
        target.write_text("\n".join(lines) + "\n")


def cli_report(results_dir, out_dir=None) -> dict:
    """Aggregate a results directory into summary files.

    Missing, aborted or unreadable runs are listed in ``report_issues.txt``
    and the rest of the report is still produced.
    """
    runs, issues = load_run_rows(results_dir)
    out = Path(out_dir if out_dir is not None else results_dir)
    out.mkdir(parents=True, exist_ok=True)

    tables: dict[str, tuple[list[str], list[list]]] = {}  # file name: (header, rows)
    scatter: dict[str, dict[int, float]] = {}
    loss_rows: list[list] = []
    for name, by_seed in sorted(runs.items()):
        seeds = sorted(by_seed)
        cums = [by_seed[s]["blr_cum"] for s in seeds]
        T = min(len(c) for c in cums)
        rows = []
        for t in sorted(set(range(CHECKPOINT_EVERY, T + 1, CHECKPOINT_EVERY)) | {T}):
            vals = np.array([c[t - 1] for c in cums])
            rows.append([t, _g(np.median(vals)), _g(median_abs_deviation(vals)), len(vals)])
        tables[f"report_{name}_regret.csv"] = (["t", "median_blr_cum", "mad", "n_seeds"], rows)

        scatter[name] = {s: np.sqrt(by_seed[s]["blr_eucl_term"][-1]) for s in seeds}
        finals = np.array([by_seed[s]["outer_loss"][-1] for s in seeds])
        n = len(finals)
        stderr = np.std(finals, ddof=1) / np.sqrt(n) if n > 1 else 0.0
        stats = (np.mean(finals), stderr, np.median(finals), median_abs_deviation(finals))
        loss_rows.append([name, n, *map(_g, stats)])

    if runs:
        all_seeds = sorted({s for col in scatter.values() for s in col})
        rows = [[seed] + [_g(col[seed]) if seed in col else None for col in scatter.values()]
                for seed in all_seeds]
        tables["report_final_grad_scatter.csv"] = (["seed", *scatter], rows)
        header = ["experiment", "n_runs", "mean_loss", "std_error", "median_loss", "mad"]
        tables["report_loss_table.csv"] = (header, loss_rows)
    for file_name, (header, rows) in tables.items():
        _write_table(out / file_name, header, rows)
    (out / "report_issues.txt").write_text("\n".join(issues) + "\n" if issues else "")
    return {"written": list(tables), "issues": issues, "experiments": sorted(runs)}
