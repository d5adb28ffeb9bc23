"""One benchmark run: a warm-up, then timed passes of a workload with set-up
probes spread between them.

A pass is one ``obbo.harness.cli_run`` of the workload's generated config
into a fresh output directory, in this process, with ``jobs=1``. A run makes
a fixed number of passes, set by ``pass_count`` from the requested seconds
and the workload's pass time at the commit that defined the benchmark, so
that a faster or slower commit is measured over the same number of passes.
Untraced passes give the end-to-end numbers; a traced run alternates
untraced and traced passes, so the tracing overhead is measured against
passes of the same run. Set-up is timed in fresh interpreters started
between passes, spread evenly over the run, so that its fastest time is taken
over the same stretch of the machine's load as the passes.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from obbo.harness import cli_run, parse_config

import tracing
from check import PassChecker, read_reference, write_reference
from workloads import DEFAULT_SEED, WORKLOADS, make_config

__all__ = ["HERE", "ROOT", "REFERENCE_DIR", "SETUP_RUNS", "MIN_PASSES", "pass_count", "run"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
# Fresh interpreters timed for set-up in a full run (a shorter-horizon smoke
# run times one).
SETUP_RUNS = 10
MIN_PASSES = 3
WARMUP_T = 20
# Passes stop early once they have taken this long, so that a run of a much
# slower commit still ends in time; its statistics then rest on fewer passes.
PASS_BUDGET_S = 120.0


def pass_count(workload: str, seconds: float) -> int:
    """Untraced passes of a run of ``seconds`` (a traced run makes half as
    many of each kind). Depends only on the arguments, never on the speed of
    the code under test."""
    pass_s = WORKLOADS[workload][2]
    return max(MIN_PASSES, round(seconds / pass_s))


@dataclass
class Pass:
    """One cli_run. ``gaps_ns`` holds every round's latency in run order;
    ``pieces_ns`` splits the whole pass at every stamp the round clocks took
    (build start and end, each instant taken or indexed), so the pieces add
    up to the pass's wall time."""

    traced: bool
    wall_s: float
    complete: bool
    gaps_ns: np.ndarray
    pieces_ns: np.ndarray
    layer: dict = field(default_factory=dict)


def _write_config(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def probe_setup(config_path: Path) -> dict:
    """Start-up timings from one fresh interpreter: the config parse time,
    and under ``"modules"`` each module's own import time in us by stage."""
    proc = subprocess.run(
        [sys.executable, "-I", "-X", "importtime", str(HERE / "setup_probe.py"), str(ROOT / "src"),
         str(config_path)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    modules: dict[str, dict[str, int]] = {}
    current = None  # lines before the first stage are the interpreter's own start-up
    for line in proc.stderr.splitlines():
        if line.startswith("#stage "):
            current = modules.setdefault(line.split()[1], {})
        elif current is not None and line.startswith("import time:") and "[us]" not in line:
            self_us, _cumulative, name = line[len("import time:"):].split("|")
            current[name.strip()] = int(self_us)
    out["modules"] = modules
    return out


def best_setup(probes: list[dict]) -> dict[str, float]:
    """Set-up times in ms, each module's import keeping its fastest time over
    the probes (and config parsing its fastest), summed per stage."""
    best: dict[str, float] = {}
    for stage, key in (("problems", "problems.import_ms"), ("metrics", "metrics.import_ms"),
                       ("harness", "harness.import_ms")):
        fastest: dict[str, int] = {}
        for probe in probes:
            for name, us in probe["modules"][stage].items():
                fastest[name] = min(us, fastest.get(name, us))
        best[key] = sum(fastest.values()) / 1e3
    best["harness.parse_ms"] = min(probe["harness.parse_ms"] for probe in probes)
    return best


def _one_pass(config, doc: dict, out_dir: Path, tracer: tracing.Tracer | None) -> tuple[Pass, dict]:
    clocks: list[tracing.RoundClock] = []
    hooks = tracer.replacements(clocks) if tracer else tracing.clocked_build(clocks)
    out_dir.mkdir()
    with tracing.patched(hooks):
        sid = tracer.open("cli_run") if tracer else None
        t0 = time.perf_counter_ns()
        manifest = cli_run(config, out_dir)
        t1 = time.perf_counter_ns()
        if tracer:
            tracer.close(sid)
    statuses = [e["status"] for e in manifest["outputs"]]
    gaps: list[int] = []
    stamps = [t0]
    for clock, status in zip(clocks, statuses):
        if status == "ok":
            gaps += clock.round_gaps_ns()
        stamps += clock.stamps
    stamps.append(t1)
    result = Pass(
        traced=tracer is not None,
        wall_s=(t1 - t0) / 1e9,
        complete=all(s == "ok" for s in statuses) and len(clocks) == len(statuses),
        gaps_ns=np.array(gaps, dtype=np.int64),
        pieces_ns=np.diff(np.array(stamps, dtype=np.int64)),
    )
    if tracer:
        tracing.check_hits(tracer, doc, statuses)
        result.layer = tracing.layer_metrics(tracer, len(gaps))
        result.layer["optimizers.aborted_cells"] = sum(s != "ok" for s in statuses)
        sizes = [(out_dir / e["file"]).stat().st_size for e in manifest["outputs"] if e["file"]]
        result.layer["harness.csv_bytes"] = sum(sizes) / len(statuses)
    return result, manifest


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    T: int | None = None,
    reference_dir: Path = REFERENCE_DIR,
    record_reference: bool = False,
) -> dict:
    """Run one workload; return metrics, check results and counts."""
    if record_reference and (seed != DEFAULT_SEED or T is not None):
        raise ValueError("reference values are recorded at the default seed and horizon only")
    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        doc = make_config(workload, seed, T)
        config_path = work / "config.json"
        _write_config(doc, config_path)
        config = parse_config(config_path)

        warm_path = work / "warmup.json"
        _write_config(make_config(workload, seed, WARMUP_T), warm_path)
        cli_run(parse_config(warm_path), work / "warmup")

        reference = None
        if seed == DEFAULT_SEED and T is None and not record_reference:
            reference = read_reference(reference_dir / f"{workload}.npz")
        checker = PassChecker(doc, reference)

        n = pass_count(workload, seconds)
        schedule = [False, True] * max(MIN_PASSES, n // 2) if trace else [False] * n
        n_probes = SETUP_RUNS if T is None else 1
        probes_before = Counter(k * len(schedule) // n_probes for k in range(n_probes))
        probes: list[dict] = []
        passes: list[Pass] = []
        failures: list[str] = []
        attempted = failed = 0
        last_tracer = None
        for i, traced in enumerate(schedule):
            if sum(p.wall_s for p in passes) >= PASS_BUDGET_S:
                break
            probes += [probe_setup(config_path) for _ in range(probes_before[i])]
            tracer = tracing.Tracer() if traced else None
            last_tracer = tracer or last_tracer
            out_dir = work / f"pass-{len(passes)}"
            result, manifest = _one_pass(config, doc, out_dir, tracer)
            problems = checker.check(out_dir, manifest)
            if record_reference and not passes:
                write_reference(reference_dir / f"{workload}.npz", checker.parsed)
            shutil.rmtree(out_dir)
            passes.append(result)
            attempted += len(problems)
            for run_id, bad in problems.items():
                if bad:
                    failed += 1
                    failures += [f"pass {len(passes)}: {run_id}: {b}" for b in bad]
        if trace:
            spans = work_root / f"spans-{workload}-seed{seed}.jsonl"
            spans.write_text(last_tracer.to_jsonl())
        return _summarize(workload, seed, trace, probes, passes, attempted, failed, failures, checker.ran)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _summarize(workload, seed, trace, probes, passes, attempted, failed, failures, checks) -> dict:
    plain = [p for p in passes if not p.traced]
    full = [p for p in plain if p.complete]
    if not full:
        raise RuntimeError("no untraced pass completed every cell")
    # Every pass repeats the same rounds and cells. On a shared host, other
    # tenants stall the run in bursts that add tens of percent, and stalls only
    # ever add time, so each round, and each piece of a pass between two
    # clock stamps, keeps its fastest time over the passes (timeit's best-of
    # rule, piece by piece). A cost that lands on a different piece in each
    # pass (cyclic GC, allocator growth) is dropped by that rule; it shows in
    # the tail, which is taken within each pass and then over passes, so that
    # one stall burst cannot move it.
    if len({len(p.pieces_ns) for p in full}) != 1:
        raise RuntimeError("passes took different numbers of clock stamps; the program is not deterministic")
    gaps = np.array([p.gaps_ns for p in full], dtype=float)
    best_round_ns = gaps.min(axis=0)
    pieces = np.array([p.pieces_ns for p in full], dtype=float)
    best = (f"best of {len(full)} passes (median {statistics.median(p.wall_s for p in full):.3g} s) "
            f"per round and per piece of the pass, {gaps.shape[1]} rounds, {pieces.shape[1]} pieces")
    p99_us = np.percentile(gaps, 99, axis=1) / 1e3

    setup_ms = best_setup(probes)
    probed = f"best of {len(probes)} fresh interpreters per imported module"
    end_to_end = {
        "setup_s": (sum(setup_ms.values()) / 1e3, probed),
        "rounds_per_s": (gaps.shape[1] / (pieces.min(axis=0).sum() / 1e9), best),
        "round_us_p50": (float(np.median(best_round_ns)) / 1e3, best),
        "round_us_p99": (
            float(np.median(p99_us)),
            f"median over {len(full)} passes of each pass's p99 ({gaps.shape[1] // 100} rounds beyond)",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "benchmark process, whole run",
        ),
    }
    per_layer = {}
    if trace:
        traced = [p for p in passes if p.traced]
        n = f"median of {len(traced)} traced passes"
        for key in traced[0].layer:
            per_layer[key] = (statistics.median(p.layer[key] for p in traced), n)
        for key in ("problems.import_ms", "metrics.import_ms", "harness.import_ms", "harness.parse_ms"):
            per_layer[key] = (setup_ms[key], probed)
        overhead = min(p.wall_s for p in traced) / min(p.wall_s for p in plain) - 1.0
        per_layer["tracing.overhead"] = (
            overhead,
            f"best of {len(traced)} traced vs best of {len(plain)} untraced passes",
        )
    return {
        "workload": workload,
        "seed": seed,
        "checks": checks,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
