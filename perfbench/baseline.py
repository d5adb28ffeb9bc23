"""Run the benchmark over several seeds and summarize each metric's spread.

Usage (from the repository root):

    python3 perfbench/baseline.py --seeds 1-10 --label <commit> --out perfbench/baseline.json

Runs ``run.py`` once per (seed, workload), seed-major so that slow drift of
the machine touches every workload alike. Untraced, it reports for every
end-to-end metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median next
to the bound in BENCHMARK.json. With ``--trace 1`` it records the median of
every per-layer metric instead. An existing ``--out`` file keeps the other
mode's section, so one untraced and one traced call build a full baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="unknown", help="commit or other label for the record")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    import numpy
    import scipy

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in _seeds(args.seeds):
        for workload in args.workloads:
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: output check failed ({result['failed']} cells)")
            results[workload].append(result["metrics"])
            print(f"{workload} seed {seed} trace {args.trace}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if k in bounds
            ), file=sys.stderr, flush=True)

    out = Path(args.out) if args.out else None
    summary = json.loads(out.read_text()) if out and out.exists() else {"workloads": {}}
    summary.update(
        label=args.label,
        run_seconds=args.seconds,
        machine={
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    )
    worst = []
    for workload, runs in results.items():
        record = summary["workloads"].setdefault(workload, {})
        if args.trace:
            record["per_layer"] = {
                name: statistics.median(r[name]["value"] for r in runs) for name in runs[0]
            }
            record["per_layer_seeds"] = args.seeds
            continue
        e2e = {}
        for name, bound in bounds.items():
            s = summarize([r[name]["value"] for r in runs])
            s["bound"] = bound
            e2e[name] = s
            worst.append((s["spread"] / bound, workload, name))
            print(f"{workload:<14} {name:<14} median {s['median']:>12.6g}  spread {s['spread']:.4f}"
                  f"  bound {bound}")
        record["end_to_end"] = e2e
        record["end_to_end_seeds"] = args.seeds
    if worst:
        ratio, workload, name = max(worst)
        print(f"largest spread/bound: {ratio:.3f} ({workload} {name}); steady if below 0.333")
    if out:
        out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
