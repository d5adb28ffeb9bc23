"""Experiment configuration: a single JSON document, canonically serialized.

The file holds a list of experiments, each pairing a stream spec with an
optimizer spec, a seed list, and variation options. Stream and optimizer specs
are kept as plain key/value maps, so a parsed config re-serializes to exactly
the bytes it was written with (canonical form: sorted keys, two-space indent,
trailing newline). Every key is checked against ``SPEC_KEYS`` when the config
is parsed; the values are checked when the builders run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

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

_OPTIMIZER_KEYS = (
    "alpha", "eta", "K", "w", "clip_threshold", "phi", "regularizer", "feasible",
    "lambda0", "beta0",
)

# The keys each part of a config accepts. A part with kinds accepts "kind"
# plus its kind's keys; a kind missing here is left for its builder to reject.
# The builders in runner.py read their arguments through ``spec_args``, so a
# key is accepted exactly when a builder reads it.
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
        **dict.fromkeys(("obbo", "sobow", "adam", "sgdm"), (*_OPTIMIZER_KEYS, "estimator")),
        "oagd": _OPTIMIZER_KEYS,
        "sobbo": (*_OPTIMIZER_KEYS, "s", "m"),
    },
    "drift": ("kind", "rate", "scale"),
    "phi": ("mode", "beta", "epsilon"),
    "regularizer": {"zero": (), "l1": ("weight",)},
    "feasible": {"full": (), "box": ("lower", "upper")},
}


class ConfigError(ValueError):
    """Config file is syntactically valid JSON but semantically malformed."""


def spec_args(part: str, spec: dict, where: str) -> dict:
    """The entries of ``spec`` other than "kind", once every key is accepted.

    ``part`` names an entry of ``SPEC_KEYS``; the parts nested in ``spec``
    (an experiment's stream, a stream's drift, ...) are checked too. Raises
    ``ConfigError`` naming ``where`` and the unknown keys.
    """
    accepted, what = SPEC_KEYS[part], part
    if isinstance(accepted, dict):
        kind = spec.get("kind", {"regularizer": "zero", "feasible": "full"}.get(part))
        if kind in accepted:
            accepted, what = ("kind", *accepted[kind]), f"{kind} {part}"
        else:
            accepted = spec
    unknown = sorted(set(spec) - set(accepted))
    if unknown:
        raise ConfigError(
            f"{where}: unknown {what} key(s) {unknown}; accepted keys are {sorted(accepted)}"
        )
    for key, value in spec.items():
        if key in SPEC_KEYS and isinstance(value, dict):
            spec_args(key, value, where)
    return {key: value for key, value in spec.items() if key != "kind"}


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
            if not isinstance(spec, dict) or "kind" not in spec:
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
