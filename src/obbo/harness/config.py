"""Experiment configuration: a single JSON document, canonically serialized.

The file holds a list of experiments, each pairing a stream spec with an
optimizer spec, a seed list, and variation options. Stream and optimizer specs
are kept as plain key/value maps validated at build time, so a parsed config
re-serializes to exactly the bytes it was written with (canonical form:
sorted keys, two-space indent, trailing newline).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "CONFIG_SCHEMA",
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


class ConfigError(ValueError):
    """Config file is syntactically valid JSON but semantically malformed."""


@dataclass
class ExperimentSpec:
    name: str
    seeds: list[int]
    stream: dict
    optimizer: dict
    metrics: dict = field(default_factory=dict)

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
        metrics = raw.get("metrics", {})
        unknown = sorted(set(metrics) - set(DEFAULT_METRICS))
        if unknown:
            raise ConfigError(
                f"{where} ({name}): unknown metrics key(s) {unknown}; "
                f"accepted keys are {sorted(DEFAULT_METRICS)}"
            )
        experiments.append(
            ExperimentSpec(
                name=name,
                seeds=list(seeds),
                stream=stream,
                optimizer=optimizer,
                metrics=metrics,
            )
        )
    return HarnessConfig(experiments=experiments, output_dir=data.get("output_dir"))


def parse_config(path) -> HarnessConfig:
    return parse_config_text(Path(path).read_text())


def serialize_config(config: HarnessConfig) -> str:
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"


def write_config(config: HarnessConfig, path) -> None:
    Path(path).write_text(serialize_config(config))
