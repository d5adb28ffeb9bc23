"""Command-line entry point: run, report, validate."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from .config import ConfigError, parse_config
from .report import ManifestError, cli_report
from .runner import cli_run
from .validate import cli_validate, probe_experiment


def _exit_2_invalid_json(path, exc: json.JSONDecodeError):
    print(f"error: {path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}", file=sys.stderr)
    raise SystemExit(2)


@contextmanager
def _exit_2_on_config_error(path: str):
    """Exit 2 when the config at ``path`` cannot be read, parsed or run, so
    a config that cannot run stops before any cell runs."""
    try:
        yield
    except FileNotFoundError:
        print(f"error: config file not found: {path}", file=sys.stderr)
        raise SystemExit(2)
    except json.JSONDecodeError as exc:
        _exit_2_invalid_json(path, exc)
    except ConfigError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="obbo",
        description="Run, summarize, and validate online bilevel optimization experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute every (experiment x seed) cell of a config")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--out", help="output directory (default: results/<config stem>)")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p_report = sub.add_parser("report", help="aggregate a results directory")
    p_report.add_argument("results_dir", help="directory containing manifest.json and CSVs")
    p_report.add_argument("--out", help="where to write report files (default: results dir)")

    p_val = sub.add_parser("validate", help="check a config against the stability conditions")
    p_val.add_argument("--config", required=True, help="path to the JSON config")

    args = parser.parse_args(argv)

    if args.command == "run":
        if args.jobs < 1:
            print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
            raise SystemExit(2)
        with _exit_2_on_config_error(args.config):
            config = parse_config(args.config)
            for exp in config.experiments:
                probe_experiment(exp)
        out = Path(args.out or Path("results") / Path(args.config).stem)
        manifest = cli_run(config, out, jobs=args.jobs)
        bad = [e for e in manifest["outputs"] if e["status"] != "ok"]
        n_ok = len(manifest["outputs"]) - len(bad)
        print(f"wrote {n_ok} run(s) to {out}" + (f", {len(bad)} not ok" if bad else ""))
        for entry in bad:
            print(f"  {entry['status']}: {entry['run_id']}: {entry['error']}")
        return 0

    if args.command == "report":
        try:
            summary = cli_report(args.results_dir, args.out)
        except (FileNotFoundError, ManifestError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            _exit_2_invalid_json(Path(args.results_dir) / "manifest.json", exc)
        print(f"report files: {', '.join(summary['written']) or '(none)'}")
        for issue in summary["issues"]:
            print(f"  issue: {issue}")
        return 0

    # argparse requires a command, so the one left is validate.
    with _exit_2_on_config_error(args.config):
        notes = cli_validate(parse_config(args.config))
    if notes:
        for note in notes:
            print(note)
    else:
        print("no warnings")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
