"""Config-driven experiment harness: runner, reporter, validator, CLI."""

from .config import (
    ConfigError,
    ExperimentSpec,
    HarnessConfig,
    parse_config,
    parse_config_text,
    serialize_config,
)
from .report import cli_report
from .runner import build_stream, cli_run, execute_run, run_cell
from .validate import cli_validate

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "HarnessConfig",
    "parse_config",
    "parse_config_text",
    "serialize_config",
    "cli_report",
    "build_stream",
    "cli_run",
    "execute_run",
    "run_cell",
    "cli_validate",
]
