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

The bytes of the 24 CSVs are pinned too, and so are those of the 20 CSVs of
``configs/window_sweep.json``, whose values are pinned by nothing else:
``golden/sha256.json`` holds each run's manifest sha256 under a fingerprint
of the environment that recorded it (``environment_fingerprint``), since the
last bits depend on the BLAS kernel and numpy's SIMD dispatch. On a matching
fingerprint every hash must be equal; on any other the test prints that the
hashes were not compared. The rtol comparison runs either way.

Re-record (only when a change to the numbers is intended) with::

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

where each NAME is a key of ``VALIDATED`` (``reference``, ``spline``,
``paths``, ``window_sweep``); with no NAME every config is re-recorded, and a
named config's re-record leaves every other config's golden entries as they
are. A re-record also records the CSV hashes under this environment's
fingerprint; for ``window_sweep`` the hashes are all it records besides its
validate output. For each golden file it rewrites it prints how many cells
(runs, report tables, pinned hashes or validate lines) changed, how many
values moved and the largest relative move, then each changed cell.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
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
HASHES = GOLDEN_DIR / "sha256.json"
RTOL, ATOL = 1e-12, 1e-14
# Report columns that hold counts; "experiment" holds names, the rest floats.
REPORT_COUNTS = {"t", "n_seeds", "seed", "n_runs"}


def collect(config_path: Path, out_dir: Path) -> tuple[dict, dict]:
    """Run a config and gather its CSV values and manifest summaries, and each
    written CSV's manifest sha256."""
    manifest = cli_run(parse_config(config_path), out_dir)
    runs, hashes = {}, {}
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
            hashes[entry["run_id"]] = entry["sha256"]
            if "variations" in entry:
                run["variations"] = entry["variations"]
        runs[entry["run_id"]] = run
    return runs, dict(sorted(hashes.items()))


def environment_fingerprint() -> dict:
    """What a CSV's last bits depend on besides the code: numpy's version, its
    BLAS and SIMD dispatch, the machine and the CPU model."""
    numpy_config = np.show_config(mode="dicts")
    blas = numpy_config["Build Dependencies"]["blas"]
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    cpu = next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")),
               None)
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_config": blas.get("openblas configuration"),
        "simd_found": numpy_config["SIMD Extensions"]["found"],
        "machine": platform.machine(),
        "cpu_model": cpu,
    }


def _fingerprint_key(fingerprint: dict) -> str:
    return hashlib.sha256(json.dumps(fingerprint, sort_keys=True).encode()).hexdigest()[:16]


def _pins() -> dict:
    return json.loads(HASHES.read_text()) if HASHES.exists() else {}


def pinned_hashes(name: str) -> dict | None:
    """The CSV hashes recorded for config ``name`` under this environment's
    fingerprint, or None when this environment recorded none."""
    return _pins().get(_fingerprint_key(environment_fingerprint()), {}).get(name)


def assert_pinned(name: str, hashes: dict) -> None:
    """Config ``name``'s CSV hashes equal its pins under this environment's
    fingerprint; with no pins there, print that they were not compared."""
    pinned = pinned_hashes(name)
    if pinned is None:
        print(f"{name}: CSV hashes not compared; none recorded for this environment "
              f"{environment_fingerprint()}")
        return
    moved = sorted(run for run in {*hashes, *pinned} if hashes.get(run) != pinned.get(run))
    assert not moved, f"{name}: the CSV bytes of {moved} differ from {HASHES.name}"


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
    got, hashes = collect(CONFIGS[name], tmp_path)
    _assert_close(got, want, name)
    assert_pinned(name, hashes)
    report_dir = report(tmp_path)
    want = json.loads((GOLDEN_DIR / "report.golden.json").read_text())[name]
    _assert_close(report_tables(report_dir), want, f"{name} report")
    assert_dat_twins_match(report_dir)


def test_window_sweep_bytes_match_pins(tmp_path):
    _, hashes = collect(VALIDATED["window_sweep"], tmp_path)
    assert_pinned("window_sweep", hashes)


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


def _leaves(value, path=()):
    """Each leaf of a nested golden value with its path of keys and indices."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, (*path, i))
    else:
        yield path, value


def _relative_move(old, new) -> float | None:
    """|new - old| over the larger magnitude for two floats, else None."""
    if not (isinstance(old, float) and isinstance(new, float)):
        return None
    return abs(new - old) / max(abs(old), abs(new))


def _rewrite(path: Path, text: str, depth: int) -> None:
    """Write ``text`` to the golden file ``path`` and print what moved: per
    cell (the entry ``depth`` keys deep, such as a run or a report table), how
    many values changed and the largest relative move among its floats."""
    old = dict(_leaves(json.loads(path.read_text()))) if path.exists() else {}
    path.write_text(text)
    new = dict(_leaves(json.loads(text)))
    missing = object()
    cells: dict[tuple, list] = {}
    for key in sorted({*old, *new}, key=repr):
        was, now = old.get(key, missing), new.get(key, missing)
        if was != now:
            cells.setdefault(key[:depth], []).append(_relative_move(was, now))

    def largest(moves) -> str:
        floats = [move for move in moves if move is not None]
        return f"largest relative move {max(floats):.3g}" if floats else "no float moved"

    moves = [move for cell in cells.values() for move in cell]
    print(f"{path.name}: {len(cells)} cell(s) changed, {len(moves)} value(s) moved"
          + (f", {largest(moves)}" if moves else ""), file=sys.stderr)
    for cell, cell_moves in cells.items():
        print(f"  {'/'.join(map(str, cell))}: {len(cell_moves)} value(s), {largest(cell_moves)}",
              file=sys.stderr)


def record(names: list[str]) -> None:
    """Re-record the named configs (every config when ``names`` is empty):
    each one's CSV hashes, its entry in ``validate.golden.json`` and, for a
    config of ``CONFIGS``, its ``<name>.golden.json`` and its entry in
    ``report.golden.json``. Every other golden file and entry stays as it is.
    For each file it rewrites, it prints the cells and values that moved."""
    unknown = sorted(set(names) - set(VALIDATED))
    if unknown:
        raise SystemExit(f"unknown config(s) {unknown}; known: {sorted(VALIDATED)}")
    names = sorted(names or VALIDATED)
    reports, hashes = {}, {}
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            runs, hashes[name] = collect(VALIDATED[name], Path(tmp))
            if name not in CONFIGS:
                continue
            reports[name] = report_tables(report(Path(tmp)))
        # One run per line keeps the file small and its diffs per run.
        body = ",\n".join(
            f"{json.dumps(run_id)}: {json.dumps(run, sort_keys=True)}"
            for run_id, run in sorted(runs.items())
        )
        _rewrite(GOLDEN_DIR / f"{name}.golden.json", "{\n" + body + "\n}\n", depth=1)
    if reports:
        path = GOLDEN_DIR / "report.golden.json"
        text = json.dumps(_merged(path, reports), indent=1, sort_keys=True) + "\n"
        _rewrite(path, text, depth=3)
    fingerprint = environment_fingerprint()
    key = _fingerprint_key(fingerprint)
    pins = _pins()
    pins[key] = {**pins.get(key, {}), "fingerprint": fingerprint, **hashes}
    _rewrite(HASHES, json.dumps(pins, indent=1, sort_keys=True) + "\n", depth=3)
    lines = {name: validate_lines(VALIDATED[name]) for name in names}
    path = GOLDEN_DIR / "validate.golden.json"
    _rewrite(path, json.dumps(_merged(path, lines), indent=2) + "\n", depth=2)


if __name__ == "__main__":
    record(sys.argv[1:])
