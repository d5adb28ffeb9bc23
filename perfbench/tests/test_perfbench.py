"""Self-checks of the benchmark: its output check, its hooks and its contract.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CATALOG = json.loads((HERE / "catalog.json").read_text())
SMOKE_T = 20


def _run_cli(*args, cwd=ROOT, timeout=120):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run_cli("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace),
                    "--horizon", str(SMOKE_T))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in section}


def test_oracle_counts_repeat_between_runs():
    def counts():
        out = bench.run("sobbo-neumann", 3, 0, True, T=SMOKE_T)
        return {k: v for k, (v, _n) in out["per_layer"].items() if "calls_per" in k}

    first = counts()
    assert first["problems.oracle_calls_per_round.grad_g_beta_sampled"] > 0
    assert counts() == first


@pytest.mark.parametrize("corrupt", [False, True])
def test_reference_check(tmp_path, monkeypatch, corrupt):
    ref = dict(np.load(bench.REFERENCE_DIR / "sobbo-neumann.npz"))
    if corrupt:
        key = next(k for k in ref if k.endswith("/values"))
        ref[key] = ref[key].copy()
        ref[key][5, 2] *= 1.0 + 1e-9
    np.savez(tmp_path / "sobbo-neumann.npz", **ref)
    monkeypatch.setattr(bench, "SETUP_RUNS", 1)
    out = bench.run("sobbo-neumann", DEFAULT_SEED, 0, False, reference_dir=tmp_path)
    assert any(c.startswith("reference(") for c in out["checks"])
    if corrupt:
        assert out["failed"] > 0
        assert any("differ from reference" in f for f in out["failures"])
    else:
        assert out["failed"] == 0


def test_unhooked_name_fails_traced_run(monkeypatch):
    # As if the solver stopped resolving inner_gd through obbo.optimizers.
    hooks = tuple(h for h in tracing.HOOKS if h != ("obbo.optimizers", "inner_gd"))
    monkeypatch.setattr(tracing, "HOOKS", hooks)
    with pytest.raises(tracing.HookError, match="inner_gd: expected"):
        bench.run("sweep-itd", 5, 0, True, T=SMOKE_T)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli("--workload", "sweep-itd", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_contract_and_catalog():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(CATALOG["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert names == list(CATALOG["metrics"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())

