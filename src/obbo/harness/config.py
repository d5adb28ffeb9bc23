"""Experiment configuration: a single JSON document, canonically serialized.

The file holds a list of experiments, each pairing a stream spec with an
optimizer spec, a seed list, and variation options. Stream and optimizer specs
are kept as plain key/value maps, so a parsed config re-serializes to exactly
the bytes it was written with (canonical form: sorted keys, two-space indent,
trailing newline).

Each kind of a stream, optimizer, drift, phi, regularizer or feasible spec
feeds one constructor in ``CONSTRUCTORS``, and ``SPEC_KEYS`` reads the keys a
kind accepts, and an experiment's keys, from the constructor's parameters: a
parameter without a default is a required key. ``build`` calls a spec's
constructor, nested parts first. An ``ExperimentSpec`` checks itself when it
is built, in code or from a file: its name, seeds, every key, kind (a phi
``mode`` is its kind) and required key, its metric values, and it builds its
optimizer config, so a bad optimizer value fails before any cell runs; each
cell builds its stream.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from ..geometry import FeasibleSet, Regularizer
from ..optimizers import CONFIGS, Adaptive, Euclidean
from ..problems import (
    DriftSpec,
    make_drifting_spline_task,
    meta_toy_stream,
    quadratic_stream,
)

__all__ = [
    "CONFIG_SCHEMA",
    "CONSTRUCTORS",
    "SPEC_KEYS",
    "ExperimentSpec",
    "HarnessConfig",
    "build",
    "parse_config",
    "parse_config_text",
    "serialize_config",
    "ConfigError",
]

CONFIG_SCHEMA = "obbo-config-v1"

# Regret and estimator error always run; these are the only metric keys.
DEFAULT_METRICS = {"variations": False, "grid_size": 64}

# The characters of an experiment name, which goes into CSV file names and
# rows. A set, not a regex: compiling one would add to every start-up.
_NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


class ConfigError(ValueError):
    """Config file is syntactically valid JSON but semantically malformed."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment of a config: its name, the run seeds of its cells, and the
    stream, optimizer and metrics specs that each cell builds from."""

    name: str
    seeds: list[int]
    stream: dict
    optimizer: dict
    metrics: dict = field(default_factory=dict)

    def __post_init__(self):
        """Check the name, the seeds, every key and metric value, and build the
        optimizer config, which needs no stream; a value either rejects raises
        ``ConfigError`` naming the experiment."""
        name, seeds = self.name, self.seeds
        where = f"experiment {name!r}"
        if not isinstance(name, str) or not name or not _NAME_CHARS.issuperset(name):
            raise ConfigError(f"{where}: name must be a non-empty string of letters, "
                              "digits, '.', '_' and '-'")
        if isinstance(seeds, list) and not seeds:
            raise ConfigError(f"{where}: seeds must not be empty")
        if (not isinstance(seeds, list) or any(type(s) is not int or s < 0 for s in seeds)
                or len(set(seeds)) < len(seeds)):
            raise ConfigError(
                f"{where}: seeds must be a list of distinct non-negative integers, got {seeds!r}"
            )
        for label in ("stream", "optimizer", "metrics"):
            if not isinstance(getattr(self, label), dict):
                raise ConfigError(f"{where}: '{label}' must be an object")
        # The signature fixes the experiment's own keys; its parts are checked
        # in the key order of the canonical document.
        for part in ("metrics", "optimizer", "stream"):
            spec_args(part, getattr(self, part), where)
        options = {**DEFAULT_METRICS, **self.metrics}
        if not isinstance(options["variations"], bool):
            raise ConfigError(f"{where}: metrics 'variations' must be true or false")
        size = options["grid_size"]
        if isinstance(size, bool) or not isinstance(size, int) or size < 0:
            raise ConfigError(f"{where}: metrics 'grid_size' must be an integer >= 0, got {size!r}")
        try:
            build("optimizer", self.optimizer, where)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "seeds": list(self.seeds),
            "stream": self.stream,
            "optimizer": self.optimizer,
        }
        if self.metrics:
            out["metrics"] = self.metrics
        return out


@dataclass
class HarnessConfig:
    """A parsed config: its experiments, whose names are distinct."""

    experiments: list[ExperimentSpec]

    def __post_init__(self):
        names = [exp.name for exp in self.experiments]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ConfigError(f"experiment {name!r}: duplicate experiment name")

    def to_dict(self) -> dict:
        return {"schema": CONFIG_SCHEMA, "experiments": [e.to_dict() for e in self.experiments]}


# The constructor each kind of a part feeds.
CONSTRUCTORS = {
    "stream": {
        "quadratic": quadratic_stream,
        "spline_synthetic": make_drifting_spline_task,
        "meta": meta_toy_stream,
    },
    "optimizer": CONFIGS,
    "drift": {kind: getattr(DriftSpec, kind) for kind in DriftSpec.RATES},
    "phi": {"euclidean": Euclidean, "adaptive": Adaptive},
    "regularizer": {"zero": Regularizer.zero, "l1": Regularizer.l1},
    "feasible": {"full": FeasibleSet.full_space, "box": FeasibleSet.box},
}


def _keys(constructor) -> dict:
    """Each parameter of ``constructor``, mapped to whether a spec must give
    it: one without a default is required, except a stream's ``seed``, which
    the run seed fills in."""
    params = inspect.signature(constructor).parameters.values()
    return {p.name: p.default is p.empty and p.name != "seed" for p in params}


# The keys each part of a config accepts, each mapped to whether it is
# required. A part with kinds accepts its kind key plus its kind's keys, and a
# kind missing here is rejected.
SPEC_KEYS = {
    "top-level": dict.fromkeys(("schema", "experiments"), False),
    "experiment": _keys(ExperimentSpec),
    "metrics": dict.fromkeys(DEFAULT_METRICS, False),
    **{part: {kind: _keys(make) for kind, make in kinds.items()}
       for part, kinds in CONSTRUCTORS.items()},
}

# The kind a part takes when its spec names none: the library's own defaults.
# A phi spec names its kind "mode".
DEFAULT_KINDS = {
    "drift": DriftSpec().kind,
    "phi": next(mode for mode, cls in CONSTRUCTORS["phi"].items()
                if isinstance(CONFIGS["obbo"].phi, cls)),
    "regularizer": CONFIGS["obbo"].regularizer.kind,
    "feasible": CONFIGS["obbo"].feasible.kind,
}
_KIND_KEY = {"phi": "mode"}


def spec_kind(part: str, spec: dict | None):
    """The kind ``spec`` names for ``part``, else the part's default kind."""
    return (spec or {}).get(_KIND_KEY.get(part, "kind"), DEFAULT_KINDS.get(part))


def spec_args(part: str, spec: dict, where: str) -> dict:
    """The entries of ``spec`` other than its kind, once its kind and every
    key are accepted and its kind's required keys are present.

    ``part`` names an entry of ``SPEC_KEYS``; the parts nested in ``spec``
    (an experiment's stream, a stream's drift, ...) are checked too, and each
    must be an object or null. Raises ``ConfigError`` naming ``where`` and the
    unknown kind or keys, the missing ones, or a nested part of another type.
    """
    accepted, what, kind_key = SPEC_KEYS[part], part, _KIND_KEY.get(part, "kind")
    if part in CONSTRUCTORS:
        kind = spec_kind(part, spec)
        if not isinstance(kind, str) or kind not in accepted:
            raise ConfigError(
                f"{where}: unknown {part} {kind_key} {kind!r}; "
                f"accepted {kind_key}s are {sorted(accepted)}"
            )
        accepted, what = {kind_key: False, **accepted[kind]}, f"{kind} {part}"
    unknown = sorted(set(spec) - set(accepted))
    if unknown:
        raise ConfigError(
            f"{where}: unknown {what} key(s) {unknown}; accepted keys are {sorted(accepted)}"
        )
    missing = [key for key, required in accepted.items() if required and key not in spec]
    if missing:
        raise ConfigError(f"{where}: missing required {what} key(s) {missing}")
    for key, value in spec.items():
        if key in SPEC_KEYS and value is not None:
            if not isinstance(value, dict):
                raise ConfigError(f"{where}: {what} '{key}' must be an object or null, "
                                  f"got {value!r}")
            spec_args(key, value, where)
    return {key: value for key, value in spec.items() if key != kind_key}


def build(part: str, spec: dict | None, where: str):
    """What ``spec`` describes: its kind's constructor called with its other
    entries, after ``spec_args`` accepts them. Each nested part is built the
    same way first, and a null one takes its part's default kind."""
    args = spec_args(part, spec or {}, where)
    for key, value in args.items():
        if key in CONSTRUCTORS:
            args[key] = build(key, value, where)
    return CONSTRUCTORS[part][spec_kind(part, spec)](**args)


def _finite_number(literal: str) -> float:
    """The float a JSON number literal spells, or ``ConfigError`` for ``NaN``,
    ``Infinity``, ``-Infinity`` and a literal that overflows."""
    value = float(literal)
    if not math.isfinite(value):
        raise ConfigError(f"config number {literal} is not finite")
    return value


def parse_config_text(text: str) -> HarnessConfig:
    data = json.loads(text, parse_constant=_finite_number, parse_float=_finite_number)
    if not isinstance(data, dict):
        raise ConfigError("top level must be a JSON object")
    spec_args("top-level", data, "config")
    schema = data.get("schema", CONFIG_SCHEMA)
    if schema != CONFIG_SCHEMA:
        raise ConfigError(f"unsupported config schema {schema!r}")
    raw_experiments = data.get("experiments", [])
    if not isinstance(raw_experiments, list):
        raise ConfigError("'experiments' must be a list")
    experiments = []
    for i, raw in enumerate(raw_experiments):
        if not isinstance(raw, dict):
            raise ConfigError(f"experiments[{i}]: must be an object")
        spec_args("experiment", dict.fromkeys(raw), f"experiments[{i}]")
        experiments.append(ExperimentSpec(**raw))
    return HarnessConfig(experiments=experiments)


def parse_config(path) -> HarnessConfig:
    return parse_config_text(Path(path).read_text())


def serialize_config(config: HarnessConfig) -> str:
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"
