"""The preflight's promise: a config that parses and passes the stream probe
runs every cell to ``ok`` or ``aborted``, never ``error``.

Configs are drawn from the key tables ``SPEC_KEYS`` reads off ``CONSTRUCTORS``:
each part takes one of its kinds, every required key and a drawn subset of
the optional ones, nested parts included. A leaf starts at a valid value
(``VALID``), and up to two leaves (a list counts as one leaf and holds more)
are then replaced by a value from ``BAD_LEAVES``. The draws are derandomized,
so the examples are the same on every run.
"""

from __future__ import annotations

import copy
import json
import tempfile

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from obbo.harness.config import (
    CONSTRUCTORS,
    SPEC_KEYS,
    ConfigError,
    _KIND_KEY,
    parse_config_text,
)
from obbo.harness.runner import cli_run
from obbo.harness.validate import probe_experiment

# Valid values of every key of every kind, short enough (T <= 5) to run.
VALID = {
    # streams
    "d1": [1, 2], "d2": [1, 3], "d": [1, 2], "T": [2, 5], "seed": [0, 7],
    "kappa_target": [1.0, 4.0], "noise": [[0.0, 0.0], [0.1, 0.2]], "cos_amplitude": [0.0, 0.3],
    "n_knots": [3, 8], "n_train": [1, 12], "n_val": [1, 6], "noise_std": [0.0, 0.25],
    "lambda_lower": [1e-4], "lambda_upper": [10.0], "freq_end": [4.0], "amp_end": [1.5],
    "gamma": [1.0],
    # drift, phi, regularizer, feasible
    "rate": [0.5], "beta": [0.9], "epsilon": [1e-8], "weight": [0.1],
    "lower": [[1e-4]], "upper": [[1.0]],  # inside the spline task's lambda box
    # optimizers
    "alpha": [0.05], "eta": [0.05], "K": [1, 3], "w": [1, 3], "clip_threshold": [1.0],
    "lambda0": [[0.5]],
    "estimator": ["itd", "implicit", "exact"], "s": [1, 2], "m": [1, 3],
    # metrics
    "variations": [False, True], "grid_size": [0, 4],
}
BAD_LEAVES = [0, -1, 2.5, True, 1e300]


def test_valid_table_covers_every_key():
    keys = {key for part in (*CONSTRUCTORS, "metrics") for key in _accepted(part)}
    assert set(VALID) == keys - set(CONSTRUCTORS)


def _accepted(part: str) -> set:
    table = SPEC_KEYS[part]
    if part not in CONSTRUCTORS:
        return set(table)
    return {key for keys in table.values() for key in keys}


@st.composite
def specs(draw, part: str) -> dict:
    """A spec of ``part``: a kind (none for metrics), its required keys and a
    drawn subset of its optional ones, each at a valid value."""
    if part in CONSTRUCTORS:
        kind = draw(st.sampled_from(sorted(SPEC_KEYS[part])))
        spec, keys = {_KIND_KEY.get(part, "kind"): kind}, SPEC_KEYS[part][kind]
    else:
        spec, keys = {}, SPEC_KEYS[part]
    for key, required in keys.items():
        if required or draw(st.booleans()):
            if key in CONSTRUCTORS:
                spec[key] = draw(specs(key))
            else:  # a copy: replacing an entry of a drawn list must not edit ``VALID``
                spec[key] = copy.deepcopy(draw(st.sampled_from(VALID[key])))
    return spec


def _leaves(node, path=()):
    """The paths of every leaf and list under ``node``, but kind keys."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if key in ("kind", "mode"):
            continue
        if not isinstance(value, dict):
            yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from _leaves(value, (*path, key))


@st.composite
def experiments(draw) -> dict:
    exp = {
        "name": "p",
        "seeds": [draw(st.sampled_from([0, 3]))],
        "stream": draw(specs("stream")),
        "optimizer": draw(specs("optimizer")),
        "metrics": draw(specs("metrics")),
    }
    leaves = st.sampled_from(list(_leaves(exp)))
    bad = {draw(leaves) for _ in range(draw(st.integers(0, 2)))}
    # Deepest first, so a list is replaced after an entry of it, not before.
    for path in sorted(bad, key=len, reverse=True):
        node = exp
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(st.sampled_from(BAD_LEAVES))
    return exp


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(exp=experiments())
def test_parsed_and_probed_config_never_errors_a_cell(exp):
    try:
        config = parse_config_text(json.dumps({"experiments": [exp]}))
        for parsed in config.experiments:
            probe_experiment(parsed)
    except ConfigError:
        event("rejected before any cell")
        return
    with tempfile.TemporaryDirectory() as out:
        outputs = cli_run(config, out)["outputs"]
    for entry in outputs:
        event(f"cell {entry['status']}")
    assert [e["status"] for e in outputs if e["status"] not in ("ok", "aborted")] == [], outputs
