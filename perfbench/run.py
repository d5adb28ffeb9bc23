"""obbo benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-itd --seed 1 --seconds 10 --trace 0

Prints a human-readable table, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones, as
``BENCHMARK.json`` names them. Exits non-zero without a result when the obbo sources
are not next to this directory (``../src/obbo``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_obbo():
    """Import obbo from ../src and nowhere else."""
    if not (SRC / "obbo" / "__init__.py").is_file():
        sys.exit(f"error: no obbo sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import obbo

    if SRC.resolve() not in Path(obbo.__file__).resolve().parents:
        sys.exit(f"error: imported obbo from {obbo.__file__}, not from {SRC}")


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length; sets the number of passes (bench.pass_count)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--horizon", type=int,
                        help="shorter horizon for smoke runs (skips the reference check, one set-up probe)")
    parser.add_argument("--record-reference", action="store_true",
                        help="write reference/<workload>.npz from this run (default seed only)")
    args = parser.parse_args(argv)

    # Single-threaded BLAS: the matrices are tiny, and idle pool threads only
    # add noise on a small machine. Set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    _import_obbo()
    import bench

    result = bench.run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        T=args.horizon,
        record_reference=args.record_reference,
    )
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}
    print(render(result, units))
    section = "per_layer" if args.trace else "end_to_end"
    measured = result[section]
    metrics = {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]} for m in spec[section]}
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def render(result: dict, units: dict) -> str:
    """Human-readable report: environment, checks, every metric with its unit."""
    import numpy
    import scipy

    failed, attempted = result["failed"], result["attempted"]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  python {sys.version.split()[0]}  "
        f"numpy {numpy.__version__}  scipy {scipy.__version__}  nproc {os.cpu_count()}",
        "checks: " + " ".join(result["checks"]),
    ]
    lines += [f"FAILED {f}" for f in result["failures"][:20]]
    lines.append(f"{'cell_error_rate':<48} {failed / attempted:>14.6g} {'fraction':<9} "
                 f"{failed} of {attempted} cells")
    for section in ("end_to_end", "per_layer"):
        for name, (value, samples) in result[section].items():
            lines.append(f"{name:<48} {value:>14.6g} {units[name]:<9} {samples}")
    return "\n".join(lines)


if __name__ == "__main__":
    raise SystemExit(main())
