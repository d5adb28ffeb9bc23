"""Time obbo's start-up in this fresh interpreter and print it as JSON.

Usage: python3 -X importtime setup_probe.py <src dir> <config path>

Imports the layers in dependency order, then parses the config the way
``obbo run`` does: the fixed cost every ``obbo run`` pays before its first
cell starts. Before each layer's import a ``#stage <name>`` line goes to
stderr, so that the interpreter's per-module ``-X importtime`` lines that
follow can be told apart by layer. Prints the parse time as JSON.
"""

import json
import sys
import time
from pathlib import Path

src, config_path = Path(sys.argv[1]).resolve(), sys.argv[2]
sys.path.insert(0, str(src))


def stage(name):
    print(f"#stage {name}", file=sys.stderr, flush=True)


stage("problems")
import obbo.problems  # noqa: E402  (also runs obbo/__init__: geometry, hypergrad, optimizers)

stage("metrics")
import obbo.metrics  # noqa: E402

stage("harness")
import obbo.harness  # noqa: E402

t0 = time.perf_counter()
obbo.harness.parse_config(config_path)
t1 = time.perf_counter()

if src not in Path(obbo.__file__).resolve().parents:
    sys.exit(f"imported obbo from {obbo.__file__}, not from {src}")
print(json.dumps({"harness.parse_ms": (t1 - t0) * 1e3}))
