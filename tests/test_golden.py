"""Golden-output regression test for the experiment harness.

Runs shipped configs (and ``golden/paths.config.json``, which reaches the
optimizer paths the shipped configs leave out: OAGD with a window on the
quadratic, meta and spline streams, the implicit estimator with L1 + box +
adaptive geometry, SGDM with the exact estimator, SOBBO with adaptive
geometry and active clipping, and SOBOW) through ``cli_run`` and compares
every CSV value and manifest summary with the recorded fixture at rtol 1e-12,
atol 1e-14. The tolerance absorbs BLAS differences across platforms; any
change to the arithmetic shows up. The ``obbo validate`` output of the same
configs and of ``configs/window_sweep.json`` is pinned line for line
(``golden/validate.golden.json``).

Re-record (only when a change to the numbers is intended) with::

    PYTHONPATH=src python tests/test_golden.py
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


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden(name, tmp_path):
    want = json.loads((GOLDEN_DIR / f"{name}.golden.json").read_text())
    got = collect(CONFIGS[name], tmp_path)
    _assert_close(got, want, name)


def validate_lines(config_path: Path) -> list[str]:
    """The lines ``obbo validate`` prints for a config; it must exit 0."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli_main(["validate", "--config", str(config_path)]) == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize("name", sorted(VALIDATED))
def test_validate_output_matches_golden(name):
    want = json.loads((GOLDEN_DIR / "validate.golden.json").read_text())[name]
    assert validate_lines(VALIDATED[name]) == want


def record() -> None:
    for name, config_path in CONFIGS.items():
        with tempfile.TemporaryDirectory() as tmp:
            runs = collect(config_path, Path(tmp))
        # One run per line keeps the file small and its diffs per run.
        body = ",\n".join(
            f"{json.dumps(run_id)}: {json.dumps(run, sort_keys=True)}"
            for run_id, run in sorted(runs.items())
        )
        path = GOLDEN_DIR / f"{name}.golden.json"
        path.write_text("{\n" + body + "\n}\n")
        print(f"recorded {len(runs)} run(s) to {path}", file=sys.stderr)
    lines = {name: validate_lines(path) for name, path in sorted(VALIDATED.items())}
    path = GOLDEN_DIR / "validate.golden.json"
    path.write_text(json.dumps(lines, indent=2) + "\n")
    print(f"recorded validate output of {len(lines)} config(s) to {path}", file=sys.stderr)


if __name__ == "__main__":
    record()
