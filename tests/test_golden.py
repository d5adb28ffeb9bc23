"""Golden-output regression test for the experiment harness.

Runs shipped configs (and ``golden/paths.config.json``, which reaches the
optimizer paths the shipped configs leave out: OAGD with a window on the
quadratic, meta and spline streams, the implicit estimator with L1 + box +
adaptive geometry, SGDM with the exact estimator, SOBBO with adaptive
geometry and active clipping, and SOBOW) through ``cli_run`` and compares
every CSV value and manifest summary with the recorded fixture at rtol 1e-12,
atol 1e-14. The tolerance absorbs BLAS differences across platforms; any
change to the arithmetic shows up. ``obbo report`` of each run directory is
pinned the same way (``golden/report.golden.json``): every report table's
names and counts exactly, its statistics at the same tolerance, and each
``.dat`` twin must hold its CSV's cells, ``NaN`` where a CSV cell is empty.
The ``obbo validate`` output of the same configs and of
``configs/window_sweep.json`` is pinned line for line
(``golden/validate.golden.json``).

Re-record (only when a change to the numbers is intended) with::

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

where each NAME is a key of ``VALIDATED`` (``reference``, ``spline``,
``paths``, ``window_sweep``); with no NAME every config is re-recorded, and a
named config's re-record leaves every other config's golden entries as they
are.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from obbo.harness.cli import main as cli_main
from obbo.harness.config import parse_config
from obbo.harness.runner import cli_run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CONFIGS = {
    "reference": ROOT / "configs" / "reference.json",
    "spline": ROOT / "configs" / "spline.json",
    "paths": GOLDEN_DIR / "paths.config.json",
}
VALIDATED = {**CONFIGS, "window_sweep": ROOT / "configs" / "window_sweep.json"}
RTOL, ATOL = 1e-12, 1e-14
# Report columns that hold counts; "experiment" holds names, the rest floats.
REPORT_COUNTS = {"t", "n_seeds", "seed", "n_runs"}


def collect(config_path: Path, out_dir: Path) -> dict:
    """Run a config and gather its CSV values and manifest summaries."""
    manifest = cli_run(parse_config(config_path), out_dir)
    runs = {}
    for entry in manifest["outputs"]:
        run = {"status": entry["status"]}
        if entry["status"] == "ok":
            lines = (out_dir / entry["file"]).read_text().splitlines()
            run["columns"] = lines[1].split(",")[1:]
            run["rows"] = [
                [float(cell) if cell else None for cell in line.split(",")[1:]]
                for line in lines[2:]
            ]
            run["terminal"] = entry["terminal"]
            if "variations" in entry:
                run["variations"] = entry["variations"]
        runs[entry["run_id"]] = run
    return runs


def _assert_close(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, (int, float)) and math.isclose(
            got, want, rel_tol=RTOL, abs_tol=ATOL
        ), f"{where}: got {got!r}, want {want!r}"
    else:
        assert got == want, f"{where}: got {got!r}, want {want!r}"


def report(run_dir: Path) -> Path:
    """Run ``obbo report`` on a run directory; it must exit 0."""
    out_dir = run_dir / "report"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["report", str(run_dir), "--out", str(out_dir)]) == 0
    return out_dir


def _report_cell(column: str, cell: str):
    if cell == "":
        return None
    if column in REPORT_COUNTS:
        return int(cell)
    return cell if column == "experiment" else float(cell)


def report_tables(report_dir: Path) -> dict:
    """Every report CSV table's header and parsed cells, and the issues."""
    tables = {}
    for path in sorted(report_dir.glob("report_*.csv")):
        header, *rows = (line.split(",") for line in path.read_text().splitlines())
        tables[path.name] = {
            "header": header,
            "rows": [[_report_cell(c, cell) for c, cell in zip(header, row)] for row in rows],
        }
    issues = (report_dir / "report_issues.txt").read_text().splitlines()
    return {"tables": tables, "issues": issues}


def assert_dat_twins_match(report_dir: Path) -> None:
    """Each ``.dat`` twin holds its CSV's cells, ``NaN`` for an empty one, so
    a whitespace reader finds every value under its own column."""
    for path in sorted(report_dir.glob("report_*.csv")):
        header, *rows = (line.split(",") for line in path.read_text().splitlines())
        want = [["#", *header]] + [[cell or "NaN" for cell in row] for row in rows]
        dat = path.with_suffix(".dat").read_text().splitlines()
        assert [line.split() for line in dat] == want, path.name


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden(name, tmp_path):
    want = json.loads((GOLDEN_DIR / f"{name}.golden.json").read_text())
    got = collect(CONFIGS[name], tmp_path)
    _assert_close(got, want, name)
    report_dir = report(tmp_path)
    want = json.loads((GOLDEN_DIR / "report.golden.json").read_text())[name]
    _assert_close(report_tables(report_dir), want, f"{name} report")
    assert_dat_twins_match(report_dir)


def validate_lines(config_path: Path) -> list[str]:
    """The lines ``obbo validate`` prints for a config; it must exit 0."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli_main(["validate", "--config", str(config_path)]) == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize("name", sorted(VALIDATED))
def test_validate_output_matches_golden(name):
    want = json.loads((GOLDEN_DIR / "validate.golden.json").read_text())[name]
    assert validate_lines(VALIDATED[name]) == want


def _merged(path: Path, entries: dict) -> dict:
    """``entries`` over the entries already recorded in ``path``, by name."""
    old = json.loads(path.read_text()) if path.exists() else {}
    return dict(sorted({**old, **entries}.items()))


def record(names: list[str]) -> None:
    """Re-record the named configs (every config when ``names`` is empty):
    each one's ``<name>.golden.json`` and its entries in
    ``report.golden.json`` and ``validate.golden.json``. Every other golden
    file and entry stays as it is."""
    unknown = sorted(set(names) - set(VALIDATED))
    if unknown:
        raise SystemExit(f"unknown config(s) {unknown}; known: {sorted(VALIDATED)}")
    names = sorted(names or VALIDATED)
    reports = {}
    for name in (n for n in names if n in CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            runs = collect(CONFIGS[name], Path(tmp))
            reports[name] = report_tables(report(Path(tmp)))
        # One run per line keeps the file small and its diffs per run.
        body = ",\n".join(
            f"{json.dumps(run_id)}: {json.dumps(run, sort_keys=True)}"
            for run_id, run in sorted(runs.items())
        )
        path = GOLDEN_DIR / f"{name}.golden.json"
        path.write_text("{\n" + body + "\n}\n")
        print(f"recorded {len(runs)} run(s) to {path}", file=sys.stderr)
    if reports:
        path = GOLDEN_DIR / "report.golden.json"
        path.write_text(json.dumps(_merged(path, reports), indent=1, sort_keys=True) + "\n")
        print(f"recorded the report tables of {sorted(reports)} to {path}", file=sys.stderr)
    lines = {name: validate_lines(VALIDATED[name]) for name in names}
    path = GOLDEN_DIR / "validate.golden.json"
    path.write_text(json.dumps(_merged(path, lines), indent=2) + "\n")
    print(f"recorded validate output of {names} to {path}", file=sys.stderr)


if __name__ == "__main__":
    record(sys.argv[1:])
