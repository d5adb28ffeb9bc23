"""Experiment configuration: a single JSON document, canonically serialized.

The file holds a list of experiments, each pairing a stream spec with an
optimizer spec, a seed list, and variation options. Stream and optimizer specs
are kept as plain key/value maps, so a parsed config re-serializes to exactly
the bytes it was written with (canonical form: sorted keys, two-space indent,
trailing newline). Every key is checked against ``SPEC_KEYS`` when the config
is parsed, and so is every kind (a phi ``mode`` is its kind) and the presence
of each key in ``REQUIRED_KEYS``; the other values are checked when the
builders run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..optimizers import ObboConfig
from ..problems.base import DriftSpec

__all__ = [
    "CONFIG_SCHEMA",
    "SPEC_KEYS",
    "ExperimentSpec",
    "HarnessConfig",
    "parse_config",
    "parse_config_text",
    "serialize_config",
    "write_config",
    "ConfigError",
]

CONFIG_SCHEMA = "obbo-config-v1"

# Regret and estimator error always run; these are the only metric keys.
DEFAULT_METRICS = {"variations": False, "grid_size": 64}

# Keys every optimizer reads, then the composite objective's parts.
_OPTIMIZER_KEYS = ("alpha", "eta", "K", "w", "clip_threshold", "lambda0", "beta0")
_COMPOSITE_KEYS = ("regularizer", "feasible")

# The keys each part of a config accepts. A part with kinds accepts its kind
# key plus its kind's keys, and a kind missing here is rejected. The builders
# in runner.py read their arguments through ``spec_args``, and a key is
# listed only where the run reads it:
# SOBOW is the Euclidean, unregularized, unconstrained reduction, and only
# OBBO and SOBBO take an adaptive generator.
SPEC_KEYS = {
    "top-level": ("schema", "output_dir", "experiments"),
    "experiment": ("name", "seeds", "stream", "optimizer", "metrics"),
    "metrics": tuple(DEFAULT_METRICS),
    "stream": {
        "quadratic": (
            "d1", "d2", "T", "seed", "drift", "noise", "kappa_target",
            "cos_amplitude", "stochastic",
        ),
        "spline_synthetic": (
            "T", "seed", "n_knots", "n_train", "n_val", "noise_std", "lambda_lower",
            "lambda_upper", "freq_start", "freq_end", "amp_start", "amp_end",
        ),
        "spline_csv": ("path", "knots", "lambda_lower", "lambda_upper"),
        "meta": ("d", "T", "seed", "drift", "gamma", "n_train", "n_val", "task_noise"),
    },
    "optimizer": {
        "obbo": (*_OPTIMIZER_KEYS, *_COMPOSITE_KEYS, "phi", "estimator"),
        "sobbo": (*_OPTIMIZER_KEYS, *_COMPOSITE_KEYS, "phi", "s", "m"),
        "oagd": (*_OPTIMIZER_KEYS, *_COMPOSITE_KEYS),
        "sobow": (*_OPTIMIZER_KEYS, "estimator"),
        **dict.fromkeys(("adam", "sgdm"), (*_OPTIMIZER_KEYS, *_COMPOSITE_KEYS, "estimator")),
    },
    "drift": {k: ("rate", "scale") if rate else () for k, rate in DriftSpec.RATES.items()},
    "phi": {"euclidean": (), "adaptive": ("beta", "epsilon")},
    "regularizer": {"zero": (), "l1": ("weight",)},
    "feasible": {"full": (), "box": ("lower", "upper")},
}

# The keys a kind cannot run without; every other key has a default.
REQUIRED_KEYS = {"regularizer": {"l1": ("weight",)}, "feasible": {"box": ("lower", "upper")}}

# The kind a part takes when its spec names none: the library's own defaults.
# A phi spec names its kind "mode".
_LIBRARY = ObboConfig()
DEFAULT_KINDS = {"drift": DriftSpec().kind, "phi": _LIBRARY.phi_mode,
                 "regularizer": _LIBRARY.regularizer.kind, "feasible": _LIBRARY.feasible.kind}
_KIND_KEY = {"phi": "mode"}


class ConfigError(ValueError):
    """Config file is syntactically valid JSON but semantically malformed."""


def spec_kind(part: str, spec: dict | None):
    """The kind ``spec`` names for ``part``, else the part's default kind."""
    return (spec or {}).get(_KIND_KEY.get(part, "kind"), DEFAULT_KINDS.get(part))


def spec_args(part: str, spec: dict, where: str) -> dict:
    """The entries of ``spec`` other than its kind, once its kind and every
    key are accepted and its kind's required keys are present.

    ``part`` names an entry of ``SPEC_KEYS``; the parts nested in ``spec``
    (an experiment's stream, a stream's drift, ...) are checked too. Raises
    ``ConfigError`` naming ``where`` and the unknown kind or keys, or the
    missing ones.
    """
    accepted, what, kind_key = SPEC_KEYS[part], part, _KIND_KEY.get(part, "kind")
    required = ()
    if isinstance(accepted, dict):
        kind = spec_kind(part, spec)
        if not isinstance(kind, str) or kind not in accepted:
            raise ConfigError(
                f"{where}: unknown {part} {kind_key} {kind!r}; "
                f"accepted {kind_key}s are {sorted(accepted)}"
            )
        accepted, what = (kind_key, *accepted[kind]), f"{kind} {part}"
        required = REQUIRED_KEYS.get(part, {}).get(kind, ())
    unknown = sorted(set(spec) - set(accepted))
    if unknown:
        raise ConfigError(
            f"{where}: unknown {what} key(s) {unknown}; accepted keys are {sorted(accepted)}"
        )
    missing = [key for key in required if key not in spec]
    if missing:
        raise ConfigError(f"{where}: missing required {what} key(s) {missing}")
    for key, value in spec.items():
        if key in SPEC_KEYS and isinstance(value, dict):
            spec_args(key, value, where)
    return {key: value for key, value in spec.items() if key != kind_key}


@dataclass
class ExperimentSpec:
    name: str
    seeds: list[int]
    stream: dict
    optimizer: dict
    metrics: dict = field(default_factory=dict)

    def __post_init__(self):
        spec_args("experiment", self.to_dict(), f"experiment {self.name!r}")

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
    experiments: list[ExperimentSpec]
    output_dir: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"schema": CONFIG_SCHEMA}
        if self.output_dir is not None:
            out["output_dir"] = self.output_dir
        out["experiments"] = [e.to_dict() for e in self.experiments]
        return out


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return mapping[key]


def parse_config_text(text: str) -> HarnessConfig:
    data = json.loads(text)
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
    seen_names = set()
    for i, raw in enumerate(raw_experiments):
        where = f"experiments[{i}]"
        if not isinstance(raw, dict):
            raise ConfigError(f"{where}: must be an object")
        name = _require(raw, "name", where)
        spec_args("experiment", raw, f"{where} ({name})")
        if name in seen_names:
            raise ConfigError(f"{where}: duplicate experiment name {name!r}")
        seen_names.add(name)
        seeds = _require(raw, "seeds", f"{where} ({name})")
        if not isinstance(seeds, list) or not all(isinstance(s, int) for s in seeds):
            raise ConfigError(f"{where} ({name}): 'seeds' must be a list of integers")
        stream = _require(raw, "stream", f"{where} ({name})")
        optimizer = _require(raw, "optimizer", f"{where} ({name})")
        for spec, label in ((stream, "stream"), (optimizer, "optimizer")):
            if not isinstance(spec, dict):
                raise ConfigError(
                    f"{where} ({name}): '{label}' must be an object with a 'kind'"
                )
        experiments.append(
            ExperimentSpec(
                name=name,
                seeds=list(seeds),
                stream=stream,
                optimizer=optimizer,
                metrics=raw.get("metrics", {}),
            )
        )
    return HarnessConfig(experiments=experiments, output_dir=data.get("output_dir"))


def parse_config(path) -> HarnessConfig:
    return parse_config_text(Path(path).read_text())


def serialize_config(config: HarnessConfig) -> str:
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"


def write_config(config: HarnessConfig, path) -> None:
    Path(path).write_text(serialize_config(config))
