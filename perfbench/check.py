"""Output checks for a benchmark pass.

Every pass, for every cell: the manifest says ``ok``, the CSV's SHA-256
matches the manifest, the CSV has one row per round with t = 1..T and only
finite values, and its bytes equal those of the same cell in the first pass.
At the default seed and full horizon the CSV values are also compared with
the reference values recorded in ``reference/<workload>.npz``.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from workloads import cells

__all__ = ["RTOL", "ATOL", "PassChecker", "read_reference", "write_reference"]

# Reference tolerance. Entries that are exactly zero in the reference (the
# starting point lambda_1 = 0) may come out at round-off size after a change
# that only reorders arithmetic; the absolute term absorbs that.
RTOL = 1e-12
ATOL = 1e-14


def _parse_csv(data: bytes, run_id: str, T: int) -> tuple[list[str], np.ndarray, list[str]]:
    """Header, values (NaN where empty, first column t) and problems found."""
    lines = data.decode().splitlines()
    problems = []
    if len(lines) < 2 or not lines[0].startswith("# schema="):
        return [], np.empty((0, 0)), ["missing schema line or header"]
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    if len(rows) != T:
        problems.append(f"{len(rows)} rows, expected T={T}")
    values = np.full((len(rows), len(header) - 1), math.nan)
    for r, row in enumerate(rows):
        if len(row) != len(header) or row[0] != run_id:
            problems.append(f"row {r + 1} malformed")
            continue
        try:
            values[r] = [float(v) if v else math.nan for v in row[1:]]
        except ValueError:
            problems.append(f"row {r + 1} has a non-numeric value")
    if not problems and not np.array_equal(values[:, 0], np.arange(1, T + 1)):
        problems.append("t column is not 1..T")
    # A metric column is either empty throughout (metric switched off) or
    # finite throughout.
    empty = np.isnan(values)
    if np.isinf(values).any() or (empty.any(axis=0) & ~empty.all(axis=0)).any():
        problems.append("non-finite value")
    return header, values, problems


def read_reference(path: Path) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def write_reference(path: Path, parsed: dict) -> None:
    arrays = {}
    for run_id, (header, values) in parsed.items():
        arrays[f"{run_id}/header"] = np.array(header)
        arrays[f"{run_id}/values"] = values
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)


class PassChecker:
    """Checks each pass of one workload run and remembers which checks ran."""

    def __init__(self, config: dict, reference: dict | None):
        self.cells = {
            f"{exp['name']}__seed{seed}": exp["stream"]["T"] for exp, seed in cells(config)
        }
        self.reference = reference
        self.first_sha: dict[str, str] = {}
        self.ran = ["status", "sha256", "rows", "finite", "identical-passes"]
        if reference is not None:
            self.ran.append(f"reference(rtol={RTOL:g},atol={ATOL:g})")
        self.parsed: dict[str, tuple[list[str], np.ndarray]] = {}

    def check(self, out_dir: Path, manifest: dict) -> dict[str, list[str]]:
        """Problems per cell (an empty list means the cell passed)."""
        problems = {run_id: [] for run_id in self.cells}
        entries = {e["run_id"]: e for e in manifest["outputs"]}
        for run_id, T in self.cells.items():
            entry = entries.get(run_id)
            if entry is None:
                problems[run_id].append("missing from manifest")
                continue
            if entry["status"] != "ok":
                problems[run_id].append(f"status {entry['status']}: {entry.get('error')}")
                continue
            data = (out_dir / entry["file"]).read_bytes()
            sha = hashlib.sha256(data).hexdigest()
            if sha != entry["sha256"]:
                problems[run_id].append("sha256 differs from manifest")
            if run_id in self.first_sha:
                if sha != self.first_sha[run_id]:
                    problems[run_id].append("CSV bytes differ from the first pass")
                continue
            # First pass: parse, and compare against the reference if any.
            self.first_sha[run_id] = sha
            header, values, bad = _parse_csv(data, run_id, T)
            problems[run_id] += bad
            self.parsed[run_id] = (header, values)
            if self.reference is not None and not bad:
                problems[run_id] += self._against_reference(run_id, header, values)
        return problems

    def _against_reference(self, run_id, header, values) -> list[str]:
        ref = self.reference
        if f"{run_id}/values" not in ref:
            return ["no reference values for this cell"]
        if list(ref[f"{run_id}/header"]) != header:
            return ["header differs from reference"]
        want = ref[f"{run_id}/values"]
        if want.shape != values.shape:
            return [f"shape {values.shape} differs from reference {want.shape}"]
        out = []
        close = np.isclose(values, want, rtol=RTOL, atol=ATOL, equal_nan=True)
        if not close.all():
            r, c = np.argwhere(~close)[0]
            out.append(
                f"{int((~close).sum())} values differ from reference, first at row "
                f"{r + 1} column {header[c + 1]}: {values[r, c]!r} vs {want[r, c]!r}"
            )
        return out
