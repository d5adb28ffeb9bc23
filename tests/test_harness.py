import concurrent.futures
import json
import multiprocessing
import os
import re
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from obbo.harness.cli import main as cli_main
from obbo.harness.config import (
    SPEC_KEYS,
    ConfigError,
    ExperimentSpec,
    HarnessConfig,
    build,
    parse_config,
    parse_config_text,
    serialize_config,
)
from obbo.harness.report import cli_report, median_abs_deviation
import obbo.harness.runner as runner
import obbo.harness.validate as validate
from obbo.harness.runner import (
    build_stream,
    cli_run,
    execute_run,
    run_cell,
    write_trace_csv,
)
from obbo.harness.validate import cli_validate
from obbo.metrics import compute_regret_series, hypergradient_error, variation_grid
from obbo.optimizers import ObboConfig, run_obbo
from obbo.problems import quadratic_stream

from oracles import count_kernel_rows

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SPLINE_EXP = json.loads((CONFIG_DIR / "spline.json").read_text())["experiments"][0]


def small_config(**stream_overrides):
    stream = {
        "kind": "quadratic",
        "d1": 2,
        "d2": 2,
        "T": 20,
        "kappa_target": 4.0,
        "drift": {"kind": "decaying", "rate": 1.0},
        "seed": 5,
        "cos_amplitude": 0.3,
    }
    stream.update(stream_overrides)
    return HarnessConfig(
        experiments=[
            ExperimentSpec(
                name="tiny-obbo",
                seeds=[1, 2],
                stream=stream,
                optimizer={"kind": "obbo", "alpha": 0.05, "eta": 0.1, "K": 4, "w": 2},
            )
        ]
    )


META = {"kind": "meta", "d": 2, "T": 3}
# mu_g / l_g1 = 2e-17, so 1 - mu_g / l_g1 rounds to 1.
NEAR_SINGULAR = {"kind": "quadratic", "d1": 2, "d2": 2, "T": 3, "kappa_target": 5e16}


def exit_in_worker(exp, seed, out_dir):
    """Stands in for run_cell: the pool worker dies without returning."""
    # Never exit the test process itself if the cell runs serially.
    if multiprocessing.parent_process() is None:
        raise RuntimeError("expected to run in a pool worker")
    os._exit(1)


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "name", ["reference.json", "window_sweep.json", "spline.json"]
    )
    def test_shipped_configs_round_trip(self, name):
        text = (CONFIG_DIR / name).read_text()
        assert serialize_config(parse_config_text(text)) == text

    def test_programmatic_round_trip(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "cfg.json"
        path.write_text(serialize_config(cfg))
        text = path.read_text()
        assert serialize_config(parse_config_text(text)) == text

    def test_missing_keys_rejected_with_location(self):
        with pytest.raises(ConfigError, match=r"experiments\[0\]"):
            parse_config_text(json.dumps({"experiments": [{"name": "x"}]}))
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(
                json.dumps(
                    {
                        "experiments": [
                            {"name": "x", "seeds": [1], "stream": META, "optimizer": {"kind": "obbo"}},
                            {"name": "x", "seeds": [1], "stream": META, "optimizer": {"kind": "obbo"}},
                        ]
                    }
                )
            )

    def test_unknown_schema_rejected(self):
        with pytest.raises(ConfigError, match="schema"):
            parse_config_text(json.dumps({"schema": "v999", "experiments": []}))

    @pytest.mark.parametrize(
        "metrics, key",
        [({"variatons": True}, "variatons"), ({"regret": False}, "regret")],
        ids=["typo", "removed-toggle"],
    )
    def test_unknown_metrics_key_rejected(self, metrics, key):
        doc = json.loads(serialize_config(small_config()))
        doc["experiments"][0]["metrics"] = metrics
        with pytest.raises(ConfigError) as info:
            parse_config_text(json.dumps(doc))
        message = str(info.value)
        for part in ("tiny-obbo", repr(key), "'grid_size'", "'variations'"):
            assert part in message

    def test_unknown_metrics_key_rejected_in_code(self):
        exp = small_config().experiments[0]
        with pytest.raises(ConfigError, match="tiny-obbo.*'variatons'"):
            ExperimentSpec(
                name=exp.name,
                seeds=exp.seeds,
                stream=exp.stream,
                optimizer=exp.optimizer,
                metrics={"variatons": True},
            )


def set_key(doc: dict, where: str, key: str, value) -> None:
    """Set ``key`` in the part of a config document that ``where`` names."""
    exp = doc["experiments"][0]
    target = {
        "top-level": doc,
        "experiment": exp,
        "stream": exp["stream"],
        "optimizer": exp["optimizer"],
    }.get(where)
    if target is None:
        section = "stream" if where == "drift" else "optimizer"
        nested = {
            "drift": {"kind": "decaying", "rate": 1.0},
            "phi": {"mode": "adaptive"},
            "regularizer": {"kind": "l1", "weight": 0.1},
            "feasible": {"kind": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        }[where]
        target = exp[section][where] = nested
    target[key] = value


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "where, key",
        [
            ("top-level", "ouput_dir"),
            ("experiment", "metric"),
            ("stream", "kapa_target"),
            ("stream", "stochastic"),
            ("optimizer", "alhpa"),
            ("optimizer", "s"),
            ("drift", "rat"),
            ("phi", "mod"),
            ("regularizer", "wieght"),
            ("feasible", "lowr"),
        ],
        ids=["top-level", "experiment", "stream", "stream-stochastic", "optimizer",
             "optimizer-kind", "drift", "phi", "regularizer", "feasible"],
    )
    def test_rejected_at_parse_time(self, where, key):
        doc = json.loads(serialize_config(small_config()))
        set_key(doc, where, key, 1.0)
        with pytest.raises(ConfigError, match=f"unknown .*key.*'{key}'"):
            parse_config_text(json.dumps(doc))

    @pytest.mark.parametrize("kind", ["nope", ["obbo"]], ids=["typo", "not-a-string"])
    @pytest.mark.parametrize("where", ["stream", "optimizer", "drift", "regularizer", "feasible"])
    def test_unknown_kind_rejected_at_parse_time(self, where, kind):
        doc = json.loads(serialize_config(small_config()))
        set_key(doc, where, "kind", kind)
        with pytest.raises(ConfigError) as info:
            parse_config_text(json.dumps(doc))
        named = f"experiment 'tiny-obbo': unknown {where} kind {kind!r}; accepted kinds"
        assert named in str(info.value)

    @pytest.mark.parametrize("where", ["stream", "optimizer"])
    def test_missing_kind_rejected_at_parse_time(self, where):
        doc = json.loads(serialize_config(small_config()))
        del doc["experiments"][0][where]["kind"]
        with pytest.raises(ConfigError, match=f"unknown {where} kind None"):
            parse_config_text(json.dumps(doc))

    def test_builders_reject_them_too(self):
        exp = small_config().experiments[0]
        with pytest.raises(ConfigError, match="'kapa_target'"):
            build_stream({**exp.stream, "kapa_target": 3.0}, 1)
        with pytest.raises(ConfigError, match="'mod'"):
            build("optimizer", {**exp.optimizer, "phi": {"mod": "adaptive"}}, "optimizer spec")

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_cli_exits_2_before_any_cell(self, tmp_path, capsys, command):
        doc = json.loads(serialize_config(small_config()))
        set_key(doc, "stream", "kapa_target", 30.0)
        set_key(doc, "optimizer", "alhpa", 0.2)
        set_key(doc, "phi", "mod", "adaptive")
        path = tmp_path / "typos.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        args = ["--out", str(out)] if command == "run" else []
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--config", str(path), *args])
        assert exc.value.code == 2
        assert "unknown obbo optimizer key(s) ['alhpa']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_stochastic_stream_key_exits_2_before_any_cell(self, tmp_path, capsys, command):
        # Every stream has sampled gradients; the key that forced them is gone.
        stream = {**small_config().experiments[0].stream, "stochastic": True}
        path = write_with_last(tmp_path, {"stream": stream})
        named = "experiment 'last': unknown quadratic stream key(s) ['stochastic']"
        assert_cli_exits_2(tmp_path, capsys, command, path, named)

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_unknown_kind_in_last_experiment_exits_2_before_any_cell(
        self, tmp_path, capsys, command
    ):
        # A kind no constructor serves, such as `spline_csv`, is rejected like a typo.
        for part, kind in (("optimizer", "nope"), ("stream", "spline_csv")):
            path = write_with_last(tmp_path, {part: {"kind": kind}})
            named = f"experiment 'last': unknown {part} kind {kind!r}; accepted kinds are"
            assert_cli_exits_2(tmp_path, capsys, command, path, named)

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "optimizer, drift, named",
        [
            *(
                ({"kind": kind, "phi": {"mode": "adaptive"}}, None,
                 f"unknown {kind} optimizer key(s) ['phi']")
                for kind in ("oagd", "sobow", "adam", "sgdm")
            ),
            ({"kind": "sobow", "regularizer": {"kind": "l1", "weight": 0.1}}, None,
             "unknown sobow optimizer key(s) ['regularizer']"),
            ({"kind": "sobow", "feasible": {"kind": "box", "lower": [-1, -1], "upper": [1, 1]}},
             None, "unknown sobow optimizer key(s) ['feasible']"),
            ({"kind": "obbo"}, {"kind": "static", "rate": 0.5},
             "unknown static drift key(s) ['rate']"),
            ({"kind": "obbo"}, {"scale": 2.0}, "unknown static drift key(s) ['scale']"),
            ({"kind": "obbo", "phi": {"mode": "euclidean", "beta": 0.8}}, None,
             "unknown euclidean phi key(s) ['beta']"),
            ({"kind": "obbo", "phi": {"mode": "adaptiv"}}, None,
             "unknown phi mode 'adaptiv'; accepted modes are ['adaptive', 'euclidean']"),
        ],
        ids=["phi-oagd", "phi-sobow", "phi-adam", "phi-sgdm", "regularizer-sobow",
             "feasible-sobow", "rate-static", "scale-static", "beta-euclidean", "mode-typo"],
    )
    def test_values_no_run_reads_exit_2_before_any_cell(
        self, tmp_path, capsys, command, optimizer, drift, named
    ):
        doc = json.loads(serialize_config(small_config()))
        exp = doc["experiments"][0]
        exp["optimizer"] = {"alpha": 0.05, "eta": 0.1, "K": 4, "w": 2, **optimizer}
        if drift is not None:
            exp["stream"]["drift"] = drift
        path = tmp_path / "ignored.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        args = ["--out", str(out)] if command == "run" else []
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--config", str(path), *args])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


MISSING_REQUIRED = [
    ("regularizer", {"kind": "l1"}, "missing required l1 regularizer key(s) ['weight']"),
    ("feasible", {"kind": "box"}, "missing required box feasible key(s) ['lower', 'upper']"),
    ("feasible", {"kind": "box", "lower": [-1.0, -1.0]},
     "missing required box feasible key(s) ['upper']"),
    ("feasible", {"kind": "box", "upper": [1.0, 1.0]},
     "missing required box feasible key(s) ['lower']"),
]
MISSING_IDS = ["l1-weight", "box-bounds", "box-upper", "box-lower"]
MISSING_STREAM_KEYS = [
    ({"kind": "quadratic", "T": 5}, "missing required quadratic stream key(s) ['d1', 'd2']"),
    ({"kind": "meta", "T": 5}, "missing required meta stream key(s) ['d']"),
    ({"kind": "spline_synthetic"}, "missing required spline_synthetic stream key(s) ['T']"),
]
MISSING_STREAM_IDS = ["quadratic-d1-d2", "meta-d", "spline_synthetic-T"]


def write_with_last(tmp_path, last: dict) -> Path:
    """A config file whose second and last experiment updates the first with
    ``last``."""
    doc = json.loads(serialize_config(small_config()))
    doc["experiments"].append({**doc["experiments"][0], "name": "last", **last})
    path = tmp_path / "last.json"
    path.write_text(json.dumps(doc))
    return path


def assert_cli_exits_2(tmp_path, capsys, command, path, named):
    out = tmp_path / "out"
    args = ["--out", str(out)] if command == "run" else []
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--config", str(path), *args])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


# A nested part given as a string: unchecked, ``"regularizer": "zero"`` passed
# validate and wrote 0 runs, ``"feasible": "full"`` exited 1 with a traceback,
# and ``"drift": "decaying"`` exited 2 naming only an AttributeError.
OBBO = {"kind": "obbo", "alpha": 0.05, "eta": 0.1, "K": 4, "w": 2}
NOT_AN_OBJECT = [
    ({"optimizer": {**OBBO, "regularizer": "zero"}},
     "obbo optimizer 'regularizer' must be an object or null, got 'zero'"),
    ({"optimizer": {**OBBO, "feasible": "full"}},
     "obbo optimizer 'feasible' must be an object or null, got 'full'"),
    ({"optimizer": {**OBBO, "phi": ["adaptive"]}},
     "obbo optimizer 'phi' must be an object or null, got ['adaptive']"),
    ({"stream": {**small_config().experiments[0].stream, "drift": "decaying"}},
     "quadratic stream 'drift' must be an object or null, got 'decaying'"),
    ({"stream": {**META, "drift": 1.0}},
     "meta stream 'drift' must be an object or null, got 1.0"),
]
NOT_AN_OBJECT_IDS = [
    "regularizer-str", "feasible-str", "phi-list", "drift-str", "meta-drift-number",
]


class TestRequiredKeys:
    @pytest.mark.parametrize("where, spec, named", MISSING_REQUIRED, ids=MISSING_IDS)
    def test_rejected_at_parse_time(self, where, spec, named):
        doc = json.loads(serialize_config(small_config()))
        doc["experiments"][0]["optimizer"][where] = spec
        with pytest.raises(ConfigError) as info:
            parse_config_text(json.dumps(doc))
        assert f"experiment 'tiny-obbo': {named}" in str(info.value)
        with pytest.raises(ConfigError) as info:
            build("optimizer", doc["experiments"][0]["optimizer"], "optimizer spec")
        assert f"optimizer spec: {named}" in str(info.value)

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("where, spec, named", MISSING_REQUIRED, ids=MISSING_IDS)
    def test_cli_exits_2_before_any_cell(self, tmp_path, capsys, command, where, spec, named):
        doc = json.loads(serialize_config(small_config()))
        doc["experiments"].append(
            {**doc["experiments"][0], "name": "last",
             "optimizer": {**doc["experiments"][0]["optimizer"], where: spec}}
        )
        path = tmp_path / "required.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        args = ["--out", str(out)] if command == "run" else []
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--config", str(path), *args])
        assert exc.value.code == 2
        assert f"experiment 'last': {named}" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("stream, named", MISSING_STREAM_KEYS, ids=MISSING_STREAM_IDS)
    def test_stream_rejected_at_parse_time(self, stream, named):
        doc = json.loads(serialize_config(small_config()))
        doc["experiments"][0]["stream"] = stream
        with pytest.raises(ConfigError) as info:
            parse_config_text(json.dumps(doc))
        assert f"experiment 'tiny-obbo': {named}" in str(info.value)
        with pytest.raises(ConfigError) as info:
            build_stream(stream, 1)
        assert f"stream spec: {named}" in str(info.value)

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("stream, named", MISSING_STREAM_KEYS, ids=MISSING_STREAM_IDS)
    def test_stream_cli_exits_2_before_any_cell(self, tmp_path, capsys, command, stream, named):
        path = write_with_last(tmp_path, {"stream": stream})
        assert_cli_exits_2(tmp_path, capsys, command, path, f"experiment 'last': {named}")


BAD_OPTIMIZER_VALUES = [
    ({"kind": "obbo", "w": 0}, "window size must be at least 1"),
    ({"kind": "obbo", "phi": {"mode": "adaptive", "beta": 1.5}},
     "adaptive beta must lie in (0, 1)"),
    ({"kind": "sobow", "estimator": "autodiff"}, "unknown estimator 'autodiff'"),
    ({"kind": "obbo", "regularizer": {"kind": "l1", "weight": -1}},
     "l1 weight must be nonnegative"),
    ({"kind": "oagd", "feasible": {"kind": "box", "lower": [0.0, 1.0], "upper": [1.0, 1.0]}},
     "box requires lower < upper coordinate-wise"),
    ({"kind": "obbo", "w": 2.5}, "window size must be an integer, got 2.5"),
    ({"kind": "obbo", "w": True}, "window size must be an integer, got True"),
    ({"kind": "obbo", "K": 2.5}, "inner iteration count must be an integer, got 2.5"),
    ({"kind": "obbo", "K": 3.0}, "inner iteration count must be an integer, got 3.0"),
    ({"kind": "sobbo", "s": 2.5}, "batch size s must be an integer, got 2.5"),
    ({"kind": "sobbo", "m": 2.5}, "Neumann bound m must be an integer, got 2.5"),
]
BAD_VALUE_IDS = [
    "w-0", "adaptive-beta", "sobow-estimator", "l1-negative", "box-empty",
    "w-2.5", "w-true", "K-2.5", "K-3.0", "sobbo-s-2.5", "sobbo-m-2.5",
]


class TestBadOptimizerValues:
    """Every optimizer config is built when its experiment is parsed, so a
    value the config rejects fails before any cell runs."""

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("optimizer, named", BAD_OPTIMIZER_VALUES, ids=BAD_VALUE_IDS)
    def test_cli_exits_2_before_any_cell(self, tmp_path, capsys, command, optimizer, named):
        path = write_with_last(tmp_path, {"optimizer": {"alpha": 0.05, **optimizer}})
        assert_cli_exits_2(tmp_path, capsys, command, path, f"experiment 'last': {named}")

    def test_rejected_in_code(self):
        exp = small_config().experiments[0]
        with pytest.raises(ConfigError, match="experiment 'tiny-obbo': unknown estimator"):
            ExperimentSpec(exp.name, exp.seeds, exp.stream, {"kind": "obbo", "estimator": "ad"})

    def test_non_integer_count_rejected_in_code(self):
        exp = small_config().experiments[0]
        with pytest.raises(ConfigError, match="experiment 'tiny-obbo': window size must be an "
                                              "integer, got 2.5"):
            ExperimentSpec(exp.name, exp.seeds, exp.stream, {"kind": "obbo", "w": 2.5})


# A non-finite number in each place where one used to parse and then run
# quietly: a drift that never moves, a clip that never clips, an L1 term
# that never acts. "@" marks where the literal goes.
NON_FINITE_LITERALS = ["NaN", "Infinity", "-Infinity", "1e999"]
NON_FINITE_PLACES = {
    "drift-scale": {"stream": {**small_config().experiments[0].stream,
                               "drift": {"kind": "decaying", "scale": "@"}}},
    "clip-threshold": {"optimizer": {"kind": "obbo", "alpha": 0.05, "clip_threshold": "@"}},
    "l1-weight": {"optimizer": {"kind": "obbo", "alpha": 0.05,
                                "regularizer": {"kind": "l1", "weight": "@"}}},
}


class TestNonFiniteNumbers:
    """A config file holds finite numbers only: JSON's NaN, Infinity and
    -Infinity extensions and a literal that overflows to inf are rejected
    when the file is parsed."""

    @pytest.mark.parametrize("literal", NON_FINITE_LITERALS)
    def test_rejected_at_parse_time(self, literal):
        text = serialize_config(small_config())
        text = text.replace('"kappa_target": 4.0', f'"kappa_target": {literal}')
        with pytest.raises(ConfigError, match=f"config number {re.escape(literal)} is not finite"):
            parse_config_text(text)

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("place", NON_FINITE_PLACES)
    @pytest.mark.parametrize("literal", NON_FINITE_LITERALS)
    def test_cli_exits_2_before_any_cell(self, tmp_path, capsys, command, place, literal):
        path = write_with_last(tmp_path, NON_FINITE_PLACES[place])
        path.write_text(path.read_text().replace('"@"', literal))
        assert_cli_exits_2(tmp_path, capsys, command, path, f"config number {literal} is not finite")


BAD_METRICS = [
    ({"grid_size": -3}, "metrics 'grid_size' must be an integer >= 0, got -3"),
    ({"grid_size": 2.5}, "metrics 'grid_size' must be an integer >= 0, got 2.5"),
    ({"grid_size": True}, "metrics 'grid_size' must be an integer >= 0, got True"),
    ({"variations": "yes"}, "metrics 'variations' must be true or false"),
    ({"variations": 1}, "metrics 'variations' must be true or false"),
]
BAD_METRICS_IDS = ["grid-negative", "grid-float", "grid-bool", "variations-str", "variations-int"]


class TestMetricValues:
    """Metric values are checked when the spec is built, in code or from a
    file, so a value no cell could run fails before any cell runs."""

    @pytest.mark.parametrize("metrics, named", BAD_METRICS, ids=BAD_METRICS_IDS)
    def test_rejected_in_code(self, metrics, named):
        exp = small_config().experiments[0]
        with pytest.raises(ConfigError, match=f"experiment 'tiny-obbo': {re.escape(named)}"):
            ExperimentSpec(exp.name, exp.seeds, exp.stream, exp.optimizer, metrics)

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_negative_grid_size_exits_2_before_any_cell(self, tmp_path, capsys, command):
        path = write_with_last(tmp_path, {"metrics": {"variations": True, "grid_size": -3}})
        assert_cli_exits_2(tmp_path, capsys, command, path, "experiment 'last': metrics 'grid_size'")

    def test_checks_cannot_be_skipped_after_construction(self):
        exp = small_config().experiments[0]
        with pytest.raises(FrozenInstanceError):
            exp.metrics = {"variations": True, "grid_size": -3}
        with pytest.raises(ConfigError, match="experiment 'tiny-obbo': metrics 'grid_size'"):
            replace(exp, metrics={"variations": True, "grid_size": -3})
        assert exp.metrics == {}

    def test_zero_grid_size_takes_corners_and_iterates(self, tmp_path):
        exp = small_config().experiments[0]
        exp = ExperimentSpec(exp.name, exp.seeds, exp.stream, exp.optimizer,
                             {"variations": True, "grid_size": 0})
        entry = run_cell(exp, 1, str(tmp_path))
        assert entry["status"] == "ok" and entry["variations"]["h1"] > 0


BAD_NAMES = [{"a": 1}, "../escape", "a,b", "", 5]
BAD_NAME_IDS = ["object", "path", "comma", "empty", "int"]
BAD_SEEDS = [[True], [1, 1], [2, -1], "12", [1.5], 3]
BAD_SEEDS_IDS = ["bool", "repeat", "negative", "string", "float", "int"]


class TestExperimentChecks:
    """An experiment checks its name, seeds and parts once, when it is built:
    in code, through ``replace`` or from a file."""

    @pytest.mark.parametrize("name", BAD_NAMES, ids=BAD_NAME_IDS)
    def test_bad_name_rejected_in_code(self, name):
        with pytest.raises(ConfigError, match="name must be a non-empty string of letters"):
            replace(small_config().experiments[0], name=name)

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("name", BAD_NAMES[:3], ids=BAD_NAME_IDS[:3])
    def test_bad_name_exits_2_before_any_cell(self, tmp_path, capsys, command, name):
        path = write_with_last(tmp_path, {"name": name})
        assert_cli_exits_2(tmp_path, capsys, command, path, "name must be a non-empty string")

    @pytest.mark.parametrize("seeds", BAD_SEEDS, ids=BAD_SEEDS_IDS)
    def test_bad_seeds_rejected_in_code(self, seeds):
        exp = small_config().experiments[0]
        named = (f"experiment 'tiny-obbo': seeds must be a list of distinct non-negative "
                 f"integers, got {seeds!r}")
        with pytest.raises(ConfigError, match=re.escape(named)):
            ExperimentSpec(exp.name, seeds, exp.stream, exp.optimizer)
        with pytest.raises(ConfigError, match=re.escape(named)):
            replace(exp, seeds=seeds)

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("seeds", BAD_SEEDS[:3], ids=BAD_SEEDS_IDS[:3])
    def test_bad_seeds_exit_2_before_any_cell(self, tmp_path, capsys, command, seeds):
        path = write_with_last(tmp_path, {"seeds": seeds})
        named = "experiment 'last': seeds must be a list of distinct non-negative integers"
        assert_cli_exits_2(tmp_path, capsys, command, path, named)

    def test_empty_seeds_rejected_in_code(self):
        exp = small_config().experiments[0]
        named = "experiment 'tiny-obbo': seeds must not be empty"
        with pytest.raises(ConfigError, match=re.escape(named)):
            ExperimentSpec(exp.name, [], exp.stream, exp.optimizer)
        with pytest.raises(ConfigError, match=re.escape(named)):
            replace(exp, seeds=[])

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_empty_seeds_exit_2_before_any_cell(self, tmp_path, capsys, monkeypatch, command):
        cells = []
        monkeypatch.setattr(runner, "run_cell", lambda *cell: cells.append(cell))
        path = write_with_last(tmp_path, {"seeds": []})
        named = "experiment 'last': seeds must not be empty"
        assert_cli_exits_2(tmp_path, capsys, command, path, named)
        assert cells == []

    @pytest.mark.parametrize("part", ["stream", "optimizer", "metrics"])
    def test_part_that_is_not_an_object_rejected_in_code(self, part):
        exp = small_config().experiments[0]
        with pytest.raises(ConfigError, match=f"experiment 'tiny-obbo': '{part}' must be an object"):
            replace(exp, **{part: ["quadratic"]})

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("last, named", NOT_AN_OBJECT, ids=NOT_AN_OBJECT_IDS)
    def test_nested_part_that_is_not_an_object_exits_2(self, tmp_path, capsys, command, last,
                                                       named):
        path = write_with_last(tmp_path, last)
        assert_cli_exits_2(tmp_path, capsys, command, path, f"experiment 'last': {named}")

    def test_duplicate_name_rejected_in_code(self):
        exp = small_config().experiments[0]
        with pytest.raises(ConfigError, match="experiment 'tiny-obbo': duplicate experiment name"):
            HarnessConfig(experiments=[exp, replace(exp, seeds=[3])])

    def test_quadratic_stream_keys(self):
        assert SPEC_KEYS["stream"]["quadratic"] == {
            "d1": True, "d2": True, "T": True, "kappa_target": False, "drift": False,
            "noise": False, "seed": False, "cos_amplitude": False,
        }

    def test_validate_probes_each_experiment_once(self, tmp_path, monkeypatch, capsys):
        built = []

        def counted(spec, run_seed):
            built.append(spec)
            return build_stream(spec, run_seed)

        monkeypatch.setattr(validate, "build_stream", counted)
        path = write_with_last(tmp_path, {})
        assert cli_main(["validate", "--config", str(path)]) == 0
        assert len(built) == 2


UNRUNNABLE = [
    ({"stream": {**META, "gamma": 0.0}},
     "stream cannot be built: ValueError: gamma must be positive"),
    ({"stream": {**META, "n_val": 0}},
     "stream cannot be built: ValueError: n_val must be at least 1, got 0"),
    ({"stream": {**small_config().experiments[0].stream, "d1": 9},
      "metrics": {"variations": True}},
     "variations need d1 <= 8 (Sobol grid), got 9"),
    ({"stream": SPLINE_EXP["stream"],
      "optimizer": {k: v for k, v in SPLINE_EXP["optimizer"].items() if k != "alpha"}},
     "stream declares no outer smoothness constants; set alpha explicitly"),
    ({"optimizer": {"kind": "obbo", "lambda0": [0.0] * 7}}, "lambda0 must have shape (2,)"),
    ({"optimizer": {"kind": "obbo", "beta0": [0.0] * 7}}, "beta0 must have shape (2,)"),
    ({"optimizer": {"kind": "obbo", "lambda0": [2.0, 0.0],
                    "feasible": {"kind": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}}},
     "lambda0 lies outside the feasible set"),
    ({"stream": {**small_config().experiments[0].stream, "T": 20.0}},
     "stream cannot be built: TypeError: "),
    ({"stream": {**META, "T": 3.0}}, "stream cannot be built: TypeError: "),
    *[({"stream": {**stream, "T": True}},
       "stream cannot be built: TypeError: horizon must be an integer, got True")
      for stream in (small_config().experiments[0].stream, META, SPLINE_EXP["stream"])],
    # Passed once, then ran ~1.3e10 HVPs per round: mu_g = 2e-8 against l_g1 = 240.5.
    ({"stream": {"kind": "spline_synthetic", "T": 2, "n_knots": 3, "n_train": 1},
      "optimizer": {"kind": "sobbo", "alpha": 0.05, "w": 3}},
     "Neumann bound m=13208827834 exceeds 100000 at l_g1/mu_g = 1.2e+10; set a smaller m"),
    # Exited 1 with a ZeroDivisionError: 1 - mu_g/l_g1 rounds to 1.
    ({"stream": NEAR_SINGULAR, "optimizer": {"kind": "sobbo", "alpha": 0.05, "w": 3}},
     "Neumann bound m=54930614433405473 exceeds 100000 at l_g1/mu_g = 5e+16; set a smaller m"),
    # Each once named lambda0: "must have shape (3,)" and "lies outside the feasible set".
    ({"stream": {**small_config().experiments[0].stream, "d1": 3},
      "optimizer": {"kind": "obbo", "feasible": {"kind": "box", "lower": [-1.0, -1.0],
                                                 "upper": [1.0, 1.0]}}},
     "box bounds must have shape (3,), got (2,)"),
    ({"optimizer": {"kind": "obbo", "lambda0": [0.5, 0.5],
                    "feasible": {"kind": "box", "lower": [-1.0], "upper": [1.0]}}},
     "box bounds must have shape (2,), got (1,)"),
    # Ran to ``ok`` with lam down to -6.78, where every inner Hessian is indefinite.
    ({"stream": {**SPLINE_EXP["stream"], "seed": 1},
      "optimizer": {"kind": "obbo", "estimator": "exact", "alpha": 0.5, "lambda0": [0.5],
                    "phi": {"mode": "adaptive"}, "w": 5}},
     "the feasible set must lie inside the lambda box [0.0001, 10], "
     "where the stream's mu_g and l_g1 hold"),
]
UNRUNNABLE_IDS = [
    "meta-gamma-0", "meta-n_val-0", "d1-9-variations", "spline-no-alpha",
    "lambda0-length-7", "beta0-length-7", "lambda0-outside-box", "quadratic-T-float",
    "meta-T-float", "quadratic-T-bool", "meta-T-bool", "spline-T-bool",
    "sobbo-near-singular-m", "sobbo-kappa-5e16-default-m", "box-length-2-no-lambda0", "box-length-1-lambda0",
    "spline-full-space",
]


class TestStreamProbe:
    """``obbo run`` and ``obbo validate`` build a short probe of every
    experiment's stream first, and exit 2 naming the experiment that cannot
    run, before any cell runs or any output directory exists."""

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("last, named", UNRUNNABLE, ids=UNRUNNABLE_IDS)
    def test_cli_exits_2_before_any_cell(self, tmp_path, capsys, command, last, named):
        path = write_with_last(tmp_path, last)
        assert_cli_exits_2(tmp_path, capsys, command, path, f"experiment 'last': {named}")

    def test_d1_9_runs_without_variations(self, tmp_path, capsys):
        stream = {**small_config().experiments[0].stream, "d1": 9}
        path = write_with_last(tmp_path, {"stream": stream, "seeds": [1]})
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert "wrote 3 run(s)" in capsys.readouterr().out


# Values outside the ranges the regret bounds assume, each of which once ran
# every cell with exit 0: ``true`` ran as alpha = 1 (or, inside an array, as an
# entry 1.0), and with ``n_val`` 0 the spline validation batch was empty, so f
# was identically 0.
SPLINE_SHORT = {**SPLINE_EXP["stream"], "T": 3}
BUILT = "stream cannot be built: ValueError: "
ONE_D = {**small_config().experiments[0].stream, "d1": 1}
OUT_OF_RANGE = [
    ({"optimizer": {"kind": "obbo", "alpha": True, "clip_threshold": True}},
     "alpha must be a number, got True"),
    ({"stream": {**META, "task_noise": -1}},
     BUILT + "task_noise must be nonnegative and finite, got -1"),
    ({"stream": {**META, "n_train": 0}}, BUILT + "n_train must be at least 1, got 0"),
    ({"stream": {**SPLINE_SHORT, "noise_std": -1}},
     BUILT + "noise_std must be nonnegative and finite, got -1"),
    ({"stream": {**SPLINE_SHORT, "n_train": 0}}, BUILT + "n_train must be at least 1, got 0"),
    ({"stream": {**SPLINE_SHORT, "n_val": 0}}, BUILT + "n_val must be at least 1, got 0"),
    ({"stream": ONE_D, "optimizer": {"kind": "obbo", "lambda0": [True]}},
     "lambda0 must hold numbers, not bools, got [True]"),
    ({"optimizer": {"kind": "obbo", "beta0": [True, True]}},
     "beta0 must hold numbers, not bools, got [True, True]"),
    ({"stream": ONE_D,
      "optimizer": {"kind": "obbo", "feasible": {"kind": "box", "lower": [True], "upper": [2.0]}}},
     "lower must hold numbers, not bools, got [True]"),
    # Unchecked, ``float`` parsed each string and the cell ran ``ok``.
    ({"stream": ONE_D, "optimizer": {"kind": "obbo", "lambda0": ["0.5"]}},
     "lambda0 must hold real numbers, got ['0.5']"),
    ({"stream": ONE_D,
      "optimizer": {"kind": "obbo", "feasible": {"kind": "box", "lower": ["-1"], "upper": [1.0]}}},
     "lower must hold real numbers, got ['-1']"),
    ({"stream": {**SPLINE_SHORT, "lambda_lower": True}},
     "stream cannot be built: TypeError: lambda_lower must be a number, got True"),
    # A string number failed a range test, with Python's message naming no key;
    # a bare noise scale failed with "object of type 'float' has no len()".
    ({"optimizer": {"kind": "obbo", "regularizer": {"kind": "l1", "weight": "0.5"}}},
     "l1 weight must be a number, got '0.5'"),
    ({"optimizer": {"kind": "obbo", "alpha": "0.05"}}, "alpha must be a number, got '0.05'"),
    ({"stream": {**small_config().experiments[0].stream, "kappa_target": "4"}},
     "stream cannot be built: TypeError: kappa_target must be a number, got '4'"),
    ({"stream": {**small_config().experiments[0].stream,
                 "drift": {"kind": "decaying", "rate": "1"}}},
     "stream cannot be built: TypeError: decaying drift rate must be a number, got '1'"),
    ({"stream": {**META, "gamma": "1.0"}},
     "stream cannot be built: TypeError: gamma must be a number, got '1.0'"),
    ({"stream": {**small_config().experiments[0].stream, "noise": ["0.1", 0.0]}},
     "stream cannot be built: TypeError: noise sigma_g_beta must be a number, got '0.1'"),
    ({"stream": {**small_config().experiments[0].stream, "noise": 0.5}},
     "stream cannot be built: ValueError: noise must be a pair (sigma_g_beta, sigma_f), got 0.5"),
]
OUT_OF_RANGE_IDS = [
    "alpha-clip-true", "meta-task_noise--1", "meta-n_train-0", "spline-noise_std--1",
    "spline-n_train-0", "spline-n_val-0", "lambda0-true", "beta0-true", "box-lower-true",
    "lambda0-str", "box-lower-str",
    "spline-lambda_lower-true", "l1-weight-str", "alpha-str", "kappa-str", "drift-rate-str",
    "meta-gamma-str", "noise-entry-str", "noise-scalar",
]


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("last, named", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
def test_out_of_range_value_exits_2_before_any_cell(tmp_path, capsys, command, last, named):
    path = write_with_last(tmp_path, last)
    assert_cli_exits_2(tmp_path, capsys, command, path, f"experiment 'last': {named}")


# A value for each optimizer key that takes effect on GUARD_STREAM (d1 = 2,
# d2 = 3): the clip threshold clips every round, the box binds, and s differs
# from the default s = w on the noisy stream.
EFFECTIVE_VALUES = {
    "alpha": 0.03,
    "eta": 0.07,
    "K": 3,
    "w": 3,
    "clip_threshold": 1e-4,
    "phi": {"mode": "adaptive"},
    "regularizer": {"kind": "l1", "weight": 0.5},
    "feasible": {"kind": "box", "lower": [-0.01, -0.01], "upper": [0.01, 0.01]},
    "lambda0": [0.3, -0.2],
    "beta0": [0.5, -0.5, 0.2],
    "estimator": "implicit",
    "s": 5,
    "m": 4,
}
GUARD_STREAM = {
    "kind": "quadratic", "d1": 2, "d2": 3, "T": 8, "kappa_target": 4.0,
    "drift": {"kind": "decaying"}, "noise": [0.3, 0.2], "seed": 5, "cos_amplitude": 0.3,
}


def csv_sha(tmp_path, label, stream, optimizer) -> str:
    """The CSV hash of one cell, run in its own directory, after checking it
    ran ok. Every cell has the same run id, which the CSV records."""
    exp = ExperimentSpec(name="cell", seeds=[1], stream=stream, optimizer=optimizer)
    out = tmp_path / label
    out.mkdir()
    entry = run_cell(exp, 1, str(out))
    assert entry["status"] == "ok", entry.get("error")
    return entry["sha256"]


class TestEveryKeyChangesTheRun:
    """Every optimizer key a kind accepts changes that kind's CSV, so no
    accepted value is silently ignored. A key without an entry in
    EFFECTIVE_VALUES fails here."""

    @pytest.mark.parametrize(
        "kind, key",
        [
            (kind, key)
            for kind, keys in SPEC_KEYS["optimizer"].items()
            for key in keys
        ],
    )
    def test_key_changes_the_csv(self, tmp_path, kind, key):
        without = csv_sha(tmp_path, "without", GUARD_STREAM, {"kind": kind})
        optimizer = {"kind": kind, key: EFFECTIVE_VALUES[key]}
        assert csv_sha(tmp_path, "with", GUARD_STREAM, optimizer) != without

    def test_sublinear_drift_defaults_to_rate_one_half(self, tmp_path):
        shas = [
            csv_sha(tmp_path, label, {**GUARD_STREAM, "drift": drift}, {"kind": "obbo"})
            for label, drift in (
                ("default", {"kind": "sublinear"}),
                ("half", {"kind": "sublinear", "rate": 0.5}),
                ("decaying", {"kind": "decaying"}),
            )
        ]
        assert shas[0] == shas[1] != shas[2]


class TestCliRun:
    def test_empty_experiment_list(self, tmp_path):
        manifest = cli_run(HarnessConfig(experiments=[]), tmp_path)
        assert manifest["outputs"] == []
        assert (tmp_path / "manifest.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_config()
        cli_run(cfg, tmp_path / "a")
        cli_run(cfg, tmp_path / "b")
        csvs = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
        assert csvs
        for name in csvs:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_manifest_lists_hashes_that_verify(self, tmp_path):
        import hashlib

        manifest = cli_run(small_config(), tmp_path)
        for entry in manifest["outputs"]:
            assert entry["status"] == "ok"
            data = (tmp_path / entry["file"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]
            assert "final_blr_cum" in entry["terminal"]
            assert entry["wall_ms"] > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_phase_times_fit_in_the_cell(self, tmp_path, monkeypatch, jobs):
        cfg = small_config()
        cfg.experiments.append(
            replace(cfg.experiments[0], name="tiny-vars", metrics={"variations": True, "grid_size": 8})
        )
        monkeypatch.setattr(runner, "_first_in_process", True)
        manifest = cli_run(cfg, tmp_path / "timed", jobs=jobs)
        phases = ["run", "regret", "hypergradient_error", "csv"]
        for entry in manifest["outputs"]:
            assert entry["status"] == "ok"
            with_vars = entry["experiment"] == "tiny-vars"
            assert list(entry["phases_ms"]) == phases[:3] + ["variations"] * with_vars + phases[3:]
            assert all(ms >= 0 for ms in entry["phases_ms"].values())
            assert sum(entry["phases_ms"].values()) <= entry["wall_ms"]
        flags = [e["first_in_process"] for e in manifest["outputs"]]
        if jobs == 1:
            assert flags == [True, False, False, False]
        else:  # each worker's first cell, in whichever order the pool hands them out
            assert 1 <= flags.count(True) <= jobs and all(isinstance(f, bool) for f in flags)
        cli_run(cfg, tmp_path / "plain", jobs=1)
        for name in sorted(p.name for p in (tmp_path / "plain").glob("*.csv")):
            assert (tmp_path / "timed" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_aborted_cell_does_not_corrupt_siblings(self, tmp_path):
        cfg = small_config()
        cfg.experiments.append(
            ExperimentSpec(
                name="diverges",
                seeds=[1],
                stream=dict(cfg.experiments[0].stream),
                optimizer={"kind": "obbo", "alpha": 0.05, "eta": 80.0, "K": 300, "w": 1},
            )
        )
        manifest = cli_run(cfg, tmp_path)
        by_name = {}
        for e in manifest["outputs"]:
            by_name.setdefault(e["experiment"], []).append(e)
        assert all(e["status"] == "ok" for e in by_name["tiny-obbo"])
        assert all(e["status"] == "aborted" for e in by_name["diverges"])
        assert all(e["file"] is None for e in by_name["diverges"])
        assert all((tmp_path / e["file"]).exists() for e in by_name["tiny-obbo"])

    def test_singular_solve_aborts_cell(self, tmp_path, monkeypatch):
        # No shipped stream has a singular inner Hessian inside its lam box, so
        # numpy's solve is handed a zero matrix in its place: OAGD's implicit
        # solve then fails inside the cell, a numerical failure.
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(np.zeros_like(a), b))
        exp = ExperimentSpec(
            name="singular",
            seeds=[1],
            stream={"kind": "spline_synthetic", "T": 5, "n_knots": 3, "n_train": 1},
            optimizer={"kind": "oagd", "alpha": 0.05,
                       "feasible": {"kind": "box", "lower": [1e-4], "upper": [10.0]}},
        )
        [entry] = cli_run(HarnessConfig([exp]), tmp_path)["outputs"]
        assert entry["status"] == "aborted" and entry["file"] is None
        assert entry["error"] == "Singular matrix"

    def test_failing_cell_is_recorded_and_manifest_written(self, tmp_path):
        # A stream that cannot be built fails only inside its cell. (``obbo
        # run`` probes every stream first and would exit 2 instead.)
        cfg = small_config()
        cfg.experiments[0] = replace(cfg.experiments[0], seeds=[1])
        cfg.experiments.append(
            ExperimentSpec(
                name="broken",
                seeds=[1],
                stream={**META, "gamma": 0.0},
                optimizer={"kind": "obbo", "alpha": 0.05},
            )
        )
        cli_run(cfg, tmp_path / "out")
        outputs = json.loads((tmp_path / "out" / "manifest.json").read_text())["outputs"]
        assert [e["status"] for e in outputs] == ["ok", "error"]
        assert outputs[1]["file"] is None
        assert outputs[1]["error"] == "ValueError: gamma must be positive and finite, got 0.0"

    @pytest.mark.parametrize(
        "noise",
        [[float("nan"), 0.0], [0.0, float("nan")], [float("inf"), 0.0], [0.0, float("inf")]],
        ids=["nan-g", "nan-f", "inf-g", "inf-f"],
    )
    def test_non_finite_noise_errors_the_cell(self, tmp_path, noise):
        # A config file cannot hold NaN or inf, a spec built in code can; the
        # cell's stream build rejects them.
        stream = small_config(noise=noise).experiments[0].stream
        optimizer = {"kind": "sobbo", "alpha": 0.05, "eta": 0.05, "w": 2}
        entry = run_cell(ExperimentSpec("tiny-sobbo", [1], stream, optimizer), 1, str(tmp_path))
        assert entry["status"] == "error" and entry["file"] is None
        assert entry["error"].startswith("ValueError: noise sigma_")

    def test_dead_worker_is_recorded_and_manifest_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "run_cell", exit_in_worker)
        manifest = cli_run(small_config(), tmp_path, jobs=2)
        outputs = json.loads((tmp_path / "manifest.json").read_text())["outputs"]
        assert outputs == manifest["outputs"]
        assert [e["run_id"] for e in outputs] == ["tiny-obbo__seed1", "tiny-obbo__seed2"]
        for entry in outputs:
            assert entry["status"] == "error"
            assert entry["file"] is None
            assert entry["error"].startswith("BrokenProcessPool: ")

    def test_cell_submitted_after_a_worker_died_is_recorded(self, tmp_path, monkeypatch):
        # A worker can die before cli_run has submitted every cell; the broken
        # pool then refuses the submission itself, and that cell is an error.
        monkeypatch.setattr(runner, "run_cell", exit_in_worker)
        exp = small_config().experiments[0]
        with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
            first = runner._submit(pool, exp, 1, str(tmp_path))
            concurrent.futures.wait([first])
            later = runner._submit(pool, exp, 2, str(tmp_path))
        for future, seed in ((first, 1), (later, 2)):
            entry = runner._collect(future, exp, seed)
            assert entry["status"] == "error"
            assert entry["error"].startswith("BrokenProcessPool: ")

    def test_squared_column_overflow_aborts_cell(self, tmp_path, monkeypatch):
        # A finite smoothed row and estimate that square to inf in the CSV's
        # columns; smoothed_norm_sq is checked first.
        def overflowing_run(exp, seed):
            trace, stream = execute_run(exp, seed)
            trace.smoothed[0] = trace.estimates[0] = 1e200
            return trace, stream

        monkeypatch.setattr(runner, "execute_run", overflowing_run)
        entry = run_cell(small_config().experiments[0], 1, str(tmp_path))
        assert entry["status"] == "aborted" and entry["file"] is None
        assert entry["error"] == "smoothed_norm_sq became non-finite at t=1; aborting run"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "top, error",
        [
            (1.5e152, "blr_term became non-finite at t=1"),
            (1.1e152, "blr_cum became non-finite at t=2"),
        ],
        ids=["term", "cumulative"],
    )
    def test_regret_column_overflow_aborts_cell(self, tmp_path, top, error):
        # Finite iterates whose regret terms, or only their running sum,
        # overflow; the manifest must stay valid JSON (no Infinity).
        exp = ExperimentSpec(
            name="overflow",
            seeds=[1],
            stream={"kind": "quadratic", "d1": 4, "d2": 6, "T": 3,
                    "kappa_target": 100.0, "cos_amplitude": 0.0},
            optimizer={"kind": "obbo", "estimator": "exact", "alpha": 1e-9,
                       "clip_threshold": 1.0, "lambda0": [0.0, 0.0, 0.0, top]},
        )

        def reject(constant):
            raise AssertionError(f"manifest holds {constant}")

        cli_run(HarnessConfig([exp]), tmp_path)  # one run_cell
        manifest = json.loads((tmp_path / "manifest.json").read_text(), parse_constant=reject)
        [entry] = manifest["outputs"]
        assert entry["status"] == "aborted" and entry["file"] is None
        assert entry["error"] == f"{error}; aborting run"
        assert not list(tmp_path.glob("*.csv"))

    def test_jobs_start_no_more_workers_than_cells(self, tmp_path, monkeypatch):
        started = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def _spawn_process(self):
                super()._spawn_process()
                started.append(self._max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        manifest = cli_run(small_config(), tmp_path, jobs=4)
        assert [e["status"] for e in manifest["outputs"]] == ["ok", "ok"]
        assert started == [2, 2]

    def test_variation_grid_lies_in_the_box(self, tmp_path):
        lower, upper = [-0.3, -0.2], [0.4, 0.5]
        optimizer = {"kind": "obbo", "alpha": 0.05, "eta": 0.1, "K": 4, "w": 2,
                     "feasible": {"kind": "box", "lower": lower, "upper": upper}}
        exp = replace(small_config().experiments[0], optimizer=optimizer,
                      metrics={"variations": True, "grid_size": 16})
        trace, _ = execute_run(exp, 1)
        grid = variation_grid(trace, 16)
        assert len(grid) > trace.T
        assert np.all(grid >= lower) and np.all(grid <= upper)
        entry = run_cell(exp, 1, str(tmp_path))
        assert entry["status"] == "ok" and set(entry["variations"]) == {"h1", "h2", "v1"}

    def test_a_variation_that_is_not_finite_aborts_the_cell(self, tmp_path):
        # The grid reaches 1e300, where f overflows, so v1 is NaN; unchecked,
        # the cell ended ``ok`` and wrote NaN into the manifest.
        optimizer = {"kind": "adam", "alpha": 0.05, "eta": 0.05, "lambda0": [0.5],
                     "feasible": {"kind": "box", "lower": [0.0], "upper": [1e300]}}
        exp = replace(small_config().experiments[0], seeds=[1],
                      stream={"kind": "meta", "d": 1, "T": 5},
                      optimizer=optimizer, metrics={"variations": True})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cli_run(HarnessConfig(experiments=[exp]), tmp_path)

        def no_constant(name):
            raise AssertionError(f"manifest holds {name}")

        text = (tmp_path / "manifest.json").read_text()
        [entry] = json.loads(text, parse_constant=no_constant)["outputs"]
        assert entry["status"] == "aborted"
        assert entry["error"].startswith("variation v1 is not finite")

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = small_config()
        cli_run(cfg, tmp_path / "serial", jobs=1)
        cli_run(cfg, tmp_path / "par", jobs=2)
        for name in sorted(p.name for p in (tmp_path / "serial").glob("*.csv")):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "par" / name
            ).read_bytes()

    def test_sobbo_terminal_logs_derived_batches(self, tmp_path):
        cfg = HarnessConfig(
            experiments=[
                ExperimentSpec(
                    name="sob",
                    seeds=[1],
                    stream={
                        "kind": "quadratic", "d1": 2, "d2": 2, "T": 10,
                        "kappa_target": 4.0, "seed": 5, "noise": [0.2, 0.1],
                    },
                    optimizer={"kind": "sobbo", "alpha": 0.02, "eta": 0.05, "K": 3, "w": 4},
                )
            ]
        )
        manifest = cli_run(cfg, tmp_path)
        terminal = manifest["outputs"][0]["terminal"]
        assert terminal["s"] == 4
        assert terminal["m"] >= 1


def oracle_outputs(instant):
    """Every deterministic oracle and constant of an instant at one fixed point."""
    lam = np.linspace(0.5, 1.5, instant.d1)
    beta = np.linspace(-1.0, 1.0, instant.d2)
    v = np.linspace(0.25, 2.0, instant.d2)
    return [
        instant.mu_g, instant.l_g1, instant.l_f1, instant.f_value(lam, beta),
        instant.grad_f_lambda(lam, beta), instant.grad_f_beta(lam, beta),
        instant.grad_g_beta(lam, beta), instant.hvp_g_lambdabeta(lam, beta, v),
        instant.hvp_g_betabeta(lam, beta, v), instant.inner_opt(lam),
        instant.exact_hypergradient(lam),
    ]


class TestBuildStreamDefaults:
    """A spec that omits a key gets the same stream as one spelling out the
    values the harness used to fill in itself."""

    @pytest.mark.parametrize(
        "minimal, spelled_out",
        [
            (
                {"kind": "quadratic", "d1": 2, "d2": 3, "T": 3},
                {
                    "kappa_target": 10.0, "cos_amplitude": 0.5, "noise": [0.0, 0.0],
                    "drift": {"kind": "static"},
                },
            ),
            (
                {"kind": "quadratic", "d1": 2, "d2": 3, "T": 3, "drift": {"kind": "decaying"}},
                {"drift": {"kind": "decaying", "rate": 1.0, "scale": 1.0}},
            ),
            ({"kind": "quadratic", "d1": 2, "d2": 3, "T": 3}, {"drift": None}),
            (
                {"kind": "spline_synthetic", "T": 2},
                {
                    "n_knots": 12, "n_train": 60, "n_val": 30, "noise_std": 0.25,
                    "lambda_lower": 1e-4, "lambda_upper": 10.0, "freq_start": 0.5,
                    "freq_end": 4.0, "amp_start": 0.2, "amp_end": 1.5,
                },
            ),
            (
                {"kind": "meta", "d": 2, "T": 3, "drift": {"kind": "decaying"}},
                {"gamma": 1.0, "n_train": 16, "n_val": 16, "task_noise": 0.1},
            ),
            (
                {"kind": "meta", "d": 2, "T": 3},
                {"drift": {"kind": "static"}},
            ),
        ],
        ids=["quadratic", "quadratic-drift", "quadratic-null-drift", "spline_synthetic",
             "meta", "meta-static"],
    )
    def test_minimal_spec_matches_spelled_out_defaults(self, minimal, spelled_out):
        got = build_stream(minimal, 4)
        want = build_stream({**minimal, **spelled_out}, 4)
        assert len(got) == len(want) > 1
        for a, b in zip(got, want):
            assert type(a) is type(b)
            for x, y in zip(oracle_outputs(a), oracle_outputs(b)):
                np.testing.assert_array_equal(x, y)


class TestCsvSchema:
    def write(self, path, d1=2, T=6):
        stream = quadratic_stream(d1=d1, d2=d1 + 1, T=T, kappa_target=3.0, seed=8)
        trace = run_obbo(stream, ObboConfig(alpha=0.05, eta=0.1, K=3, w=2))
        regret = compute_regret_series(stream, trace)
        hg_error = hypergradient_error(trace, regret.exact_grads)
        write_trace_csv(path, "rid", trace, regret, hg_error)
        return trace, regret, hg_error

    def test_float_round_trip_17_digits(self, tmp_path):
        path = tmp_path / "run.csv"
        trace, regret, hg_error = self.write(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema=obbo-results-v1"
        header = lines[1].split(",")
        i_loss = header.index("outer_loss")
        rows = [row.split(",") for row in lines[2:]]
        for column, values in (
            ("outer_loss", regret.outer_loss),
            ("blr_term", regret.terms),
            ("blr_eucl_cum", regret.euclidean_cumulative),
            ("hypergrad_err_sq", hg_error),
        ):
            i = header.index(column)
            np.testing.assert_array_equal([float(row[i]) for row in rows], values)

    def test_lambda_norm_for_wide_problems(self, tmp_path):
        path = tmp_path / "wide.csv"
        self.write(path, d1=9)
        header = path.read_text().splitlines()[1]
        assert "lambda_norm" in header
        assert "lambda_0" not in header


EDGE_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0, -3.0, 2.0**53, 1e16, 123456789.0,
    1e-300, 2.2250738585072014e-308, np.finfo(float).max, np.inf, -np.inf, np.nan,
]


class TestCsvBytes:
    """The CSV prints each value as ``format(x, ".17g")`` does, row by row."""

    @staticmethod
    def reference_rows(run_id, trace, regret, hg_error):
        d1 = trace.lambdas.shape[1]
        if d1 <= 8:
            columns = [trace.lambdas[:, i] for i in range(d1)]
        else:
            columns = [[np.linalg.norm(lam) for lam in trace.lambdas]]
        columns += [
            regret.outer_loss, regret.inner_residual, regret.gen_proj_norm_sq,
            regret.smoothed_norm_sq,
            regret.terms, regret.cumulative, regret.euclidean_terms,
            regret.euclidean_cumulative, hg_error,
        ]
        return [
            ",".join([run_id, str(t), *(format(float(x), ".17g") for x in row)])
            for t, row in enumerate(zip(*columns), start=1)
        ]

    @pytest.mark.parametrize("d1", [1, 3, 8, 9])
    @pytest.mark.parametrize("run_id", ["rid__seed1", "100%-w5__seed2"])
    def test_bytes_match_per_value_format(self, tmp_path, d1, run_id):
        rng = np.random.default_rng(d1)
        T = 3 * len(EDGE_VALUES)

        def column(k):
            values = np.concatenate((EDGE_VALUES, rng.standard_normal(T) * 10.0 ** rng.integers(-20, 20, T)))
            return rng.permutation(values)[:T] if k else values[:T]

        trace = SimpleNamespace(T=T, lambdas=np.column_stack([column(k) for k in range(d1)]))
        regret = SimpleNamespace(
            outer_loss=column(1), inner_residual=column(2), gen_proj_norm_sq=column(3),
            terms=column(4), cumulative=column(5), euclidean_terms=column(6),
            euclidean_cumulative=column(7), smoothed_norm_sq=column(9),
        )
        hg_error = column(8)
        path = tmp_path / "run.csv"
        with np.errstate(over="ignore"):  # the d1 = 9 norm of rows holding 1e308
            write_trace_csv(path, run_id, trace, regret, hg_error)
            expected = self.reference_rows(run_id, trace, regret, hg_error)
        lines = path.read_bytes().split(b"\n")
        assert lines[-1] == b"" and lines[0] == b"# schema=obbo-results-v1"
        assert lines[2:-1] == [row.encode() for row in expected]


class TestExactOracleCalls:
    """Each cell evaluates each round's exact hypergradient once and each grid
    point's inner optimum once per round. On a quadratic stream the metrics
    form every round's hypergradient in one ``QuadraticStream.regret_rows`` call
    and call no field; on any other stream they call the field once per round.
    A second evaluation of any row, on either path, fails the count."""

    @staticmethod
    def counted_cell(tmp_path, monkeypatch, stream, optimizer=None):
        calls = {"exact_hypergradient": 0, "inner_opt": 0}
        kernel_rows = count_kernel_rows(monkeypatch)

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        def counted_stream(spec, seed):
            stream = build_stream(spec, seed)
            for inst in stream:
                for name in calls:
                    setattr(inst, name, counting(name, getattr(inst, name)))
            return stream

        monkeypatch.setattr(runner, "build_stream", counted_stream)
        exp = replace(small_config().experiments[0], stream=stream,
                      metrics={"variations": True, "grid_size": 8})
        if optimizer is not None:
            exp = replace(exp, optimizer=optimizer)
        entry = run_cell(exp, 1, str(tmp_path))
        assert entry["status"] == "ok" and "variations" in entry
        return calls, kernel_rows

    def test_each_exact_oracle_evaluated_once(self, tmp_path, monkeypatch):
        stream = small_config().experiments[0].stream
        calls, kernel_rows = self.counted_cell(tmp_path, monkeypatch, stream)
        T, d1 = stream["T"], stream["d1"]
        grid_rows = 8 + 2**d1 + T  # Sobol points, box corners, visited iterates
        assert calls == {"exact_hypergradient": 0, "inner_opt": T * grid_rows}
        assert kernel_rows == [T]

    def test_each_exact_oracle_evaluated_once_on_meta(self, tmp_path, monkeypatch):
        stream = {"kind": "meta", "d": 2, "T": 20}
        calls, kernel_rows = self.counted_cell(tmp_path, monkeypatch, stream)
        T, d1 = stream["T"], stream["d"]
        grid_rows = 8 + 2**d1 + T
        assert calls == {"exact_hypergradient": T, "inner_opt": T * grid_rows}
        assert kernel_rows == []

    def test_each_exact_oracle_evaluated_once_on_spline(self, tmp_path, monkeypatch):
        # A spline round's exact_hypergradient solves for its inner optimum
        # through its class, so the counted inner_opt field sees only the grid's.
        stream = {"kind": "spline_synthetic", "T": 6, "n_knots": 5, "n_train": 8, "n_val": 8}
        optimizer = {"kind": "obbo", "alpha": 0.02, "K": 4, "w": 2, "lambda0": [0.5],
                     "feasible": SPLINE_EXP["optimizer"]["feasible"]}
        calls, kernel_rows = self.counted_cell(tmp_path, monkeypatch, stream, optimizer)
        T, d1 = stream["T"], 1
        grid_rows = 8 + 2**d1 + T
        assert calls == {"exact_hypergradient": T, "inner_opt": T * grid_rows}
        assert kernel_rows == []


class TestCliReport:
    FIXTURE_HEADER = (
        "run_id,t,lambda_0,outer_loss,inner_residual,gen_proj_norm_sq,"
        "smoothed_norm_sq,blr_term,blr_cum,blr_eucl_term,blr_eucl_cum,hypergrad_err_sq"
    )

    def write_fixture(self, root: Path):
        """Three seeds of a 5-round run with hand-picked terminal statistics."""
        finals = {1: (1.0, 0.2, 4.0), 2: (2.0, 0.4, 9.0), 3: (10.0, 0.6, 16.0)}
        outputs = []
        for seed, (blr_cum, loss, eucl) in finals.items():
            lines = ["# schema=obbo-results-v1", self.FIXTURE_HEADER]
            for t in range(1, 6):
                interp = t / 5.0
                lines.append(
                    f"fix__seed{seed},{t},0.1,{loss if t == 5 else 0.9},0.0,0.0,0.0,"
                    f"{blr_cum / 5.0},{blr_cum * interp},{eucl},{eucl * t},0.0"
                )
            path = root / f"fix__seed{seed}.csv"
            path.write_text("\n".join(lines) + "\n")
            outputs.append(
                {
                    "experiment": "fix",
                    "seed": seed,
                    "run_id": f"fix__seed{seed}",
                    "status": "ok",
                    "file": path.name,
                }
            )
        manifest = {"schema": "obbo-manifest-v1", "outputs": outputs}
        (root / "manifest.json").write_text(json.dumps(manifest))

    def test_statistics_match_hand_computation(self, tmp_path):
        self.write_fixture(tmp_path)
        cli_report(tmp_path)
        regret = (tmp_path / "report_fix_regret.csv").read_text().splitlines()
        # final checkpoint only (T=5 < 100): median of {1,2,10} = 2, MAD = 1
        t, med, mad, n = regret[1].split(",")
        assert (int(t), float(med), float(mad), int(n)) == (5, 2.0, 1.0, 3)

        loss = (tmp_path / "report_loss_table.csv").read_text().splitlines()
        name, n, mean, stderr, median, mad = loss[1].split(",")
        assert name == "fix" and int(n) == 3
        assert float(mean) == pytest.approx(0.4)
        assert float(stderr) == pytest.approx(0.2 / np.sqrt(3.0))
        assert float(median) == pytest.approx(0.4)
        assert float(mad) == pytest.approx(0.2)

        scatter = (tmp_path / "report_final_grad_scatter.csv").read_text().splitlines()
        assert scatter[0] == "seed,fix"
        got = {int(r.split(",")[0]): float(r.split(",")[1]) for r in scatter[1:]}
        assert got == {1: 2.0, 2: 3.0, 3: 4.0}

    def test_gnuplot_twins_written(self, tmp_path):
        # A second experiment with seed 1 only leaves two scatter cells
        # missing: empty in the CSV, NaN in the twin.
        self.write_fixture(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["outputs"].append(dict(manifest["outputs"][0], experiment="other"))
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        cli_report(tmp_path)
        dat = (tmp_path / "report_fix_regret.dat").read_text().splitlines()
        assert dat[0].startswith("# ")
        assert len(dat[1].split()) == 4
        csv_rows = (tmp_path / "report_final_grad_scatter.csv").read_text().splitlines()
        dat_rows = (tmp_path / "report_final_grad_scatter.dat").read_text().splitlines()
        assert csv_rows == ["seed,fix,other", "1,2,2", "2,3,", "3,4,"]
        assert dat_rows == ["# seed fix other", "1 2 2", "2 3 NaN", "3 4 NaN"]

    def test_partial_results_reported_with_issues(self, tmp_path):
        self.write_fixture(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["outputs"].append(
            {
                "experiment": "fix",
                "seed": 4,
                "run_id": "fix__seed4",
                "status": "aborted",
                "file": None,
                "error": "diverged",
            }
        )
        manifest["outputs"].append(
            {
                "experiment": "ghost",
                "seed": 1,
                "run_id": "ghost__seed1",
                "status": "ok",
                "file": "ghost__seed1.csv",
            }
        )
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        summary = cli_report(tmp_path)
        assert any("fix__seed4" in i for i in summary["issues"])
        assert any("ghost__seed1" in i for i in summary["issues"])
        assert (tmp_path / "report_fix_regret.csv").exists()
        issues_text = (tmp_path / "report_issues.txt").read_text()
        assert "ghost__seed1" in issues_text

    @pytest.mark.parametrize(
        "damage",
        [
            lambda lines: lines[1:],
            lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:],
            lambda lines: lines[:3] + [lines[3].replace(",0.0,", ",inf,", 1)] + lines[4:],
        ],
        ids=["no-schema-line", "short-row", "inf-cell"],
    )
    def test_file_that_is_not_a_results_table_is_one_issue(self, tmp_path, damage):
        self.write_fixture(tmp_path)
        path = tmp_path / "fix__seed2.csv"
        path.write_text("\n".join(damage(path.read_text().splitlines())) + "\n")
        summary = cli_report(tmp_path)
        assert len(summary["issues"]) == 1
        assert summary["issues"][0].startswith("fix__seed2: cannot read fix__seed2.csv: ")
        regret = (tmp_path / "report_fix_regret.csv").read_text().splitlines()
        t, med, mad, n = regret[1].split(",")
        assert (int(t), float(med), int(n)) == (5, 5.5, 2)  # median of seeds 1 and 3
        scatter = (tmp_path / "report_final_grad_scatter.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in scatter[1:]] == ["1", "3"]

    def test_single_run_bands_collapse(self, tmp_path):
        self.write_fixture(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["outputs"] = manifest["outputs"][:1]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        cli_report(tmp_path)
        row = (tmp_path / "report_fix_regret.csv").read_text().splitlines()[1]
        t, med, mad, n = row.split(",")
        assert float(mad) == 0.0 and int(n) == 1

    def test_identical_seeds_give_median_c_deviation_zero(self, tmp_path):
        c = 7.25
        outputs = []
        for seed in (1, 2, 3):
            lines = ["# schema=obbo-results-v1", self.FIXTURE_HEADER]
            for t in range(1, 4):
                lines.append(f"const__seed{seed},{t},0.0,{c},0.0,0.0,0.0,{c},{c},{c},{c},0.0")
            path = tmp_path / f"const__seed{seed}.csv"
            path.write_text("\n".join(lines) + "\n")
            outputs.append(
                {
                    "experiment": "const",
                    "seed": seed,
                    "run_id": f"const__seed{seed}",
                    "status": "ok",
                    "file": path.name,
                }
            )
        (tmp_path / "manifest.json").write_text(
            json.dumps({"schema": "obbo-manifest-v1", "outputs": outputs})
        )
        cli_report(tmp_path)
        row = (tmp_path / "report_const_regret.csv").read_text().splitlines()[1]
        t, med, mad, n = row.split(",")
        assert float(med) == c and float(mad) == 0.0 and int(n) == 3


class TestCliValidate:
    def base_experiment(self, optimizer):
        return HarnessConfig(
            experiments=[
                ExperimentSpec(
                    name="v",
                    seeds=[1],
                    stream={
                        "kind": "quadratic", "d1": 2, "d2": 2, "T": 50,
                        "kappa_target": 4.0, "seed": 5,
                    },
                    optimizer=optimizer,
                )
            ]
        )

    def test_oversized_eta_warns_with_condition(self):
        # mu_g = 1 for the quadratic stream, so eta = 2/mu_g = 2.0
        cfg = self.base_experiment(
            {"kind": "obbo", "alpha": 1e-3, "eta": 2.0, "K": 50, "w": 1}
        )
        notes = cli_validate(cfg)
        assert any("min(1/l_g1, 1/mu_g)" in n for n in notes)

    def test_conformant_config_is_silent(self):
        cfg = self.base_experiment(
            {"kind": "obbo", "alpha": 1e-3, "eta": 0.2, "K": 60, "w": 1}
        )
        assert cli_validate(cfg) == []

    def test_sobbo_batch_size_note(self):
        cfg = self.base_experiment(
            {"kind": "sobbo", "alpha": 1e-3, "eta": 0.2, "K": 60, "w": 4, "s": 2}
        )
        cfg.experiments[0].stream["noise"] = [0.1, 0.1]
        notes = cli_validate(cfg)
        assert any("s = w" in n for n in notes)

    def test_sobbo_neumann_bound_note(self):
        # kappa 4 and w = 4 give the default m = ceil(log 4 / log(4/3)) + 1 = 6.
        cfg = self.base_experiment(
            {"kind": "sobbo", "alpha": 1e-3, "eta": 0.2, "K": 60, "w": 4, "m": 2}
        )
        cfg.experiments[0].stream["noise"] = [0.1, 0.1]
        assert cli_validate(cfg) == [
            "[v] Neumann bound m=2 is below the default "
            "m = ceil(log(w)/log(1/(1-mu_g/l_g1))) + 1 = 6"
        ]

    def test_near_singular_explicit_m_note(self, tmp_path, capsys):
        # The default m, far above the ceiling, is computed only for the note.
        exp = {"name": "v", "seeds": [1], "stream": NEAR_SINGULAR,
               "optimizer": {"kind": "sobbo", "alpha": 1e-40, "w": 3, "m": 5}}
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"experiments": [exp]}))
        assert cli_main(["validate", "--config", str(path)]) == 0
        assert "[v] Neumann bound m=5 is below the default" in capsys.readouterr().out

    @pytest.mark.parametrize("eta, warns", [(None, False), (0.3, False), (0.45, True)])
    def test_oagd_eta_rule(self, eta, warns):
        # kappa 4: the default eta = 2/(l_g1 + mu_g) = 0.4 lies on OAGD's bound,
        # and 0.3 is inside it but above min(1/l_g1, 1/mu_g) = 0.25.
        optimizer = {"kind": "oagd", "alpha": 1e-3, "K": 60, "w": 1}
        if eta is not None:
            optimizer["eta"] = eta
        notes = cli_validate(self.base_experiment(optimizer))
        expected = ["[v] inner step eta=0.45 violates eta <= 2/(l_g1 + mu_g) = 0.4"]
        assert notes == (expected if warns else [])

    @pytest.mark.parametrize("kind", ["sobbo", "oagd"])
    def test_unset_steps_print_no_warnings(self, tmp_path, capsys, kind):
        # A default never breaks its own rule: alpha resolves to half its
        # bound, eta to OAGD's bound or 1/(2 l_g1), s to w and m to the default.
        path = tmp_path / "v.json"
        path.write_text(serialize_config(self.base_experiment({"kind": kind, "w": 4})))
        assert cli_main(["validate", "--config", str(path)]) == 0
        assert capsys.readouterr().out == "no warnings\n"

    @pytest.mark.parametrize("estimator", ["itd", "implicit", "exact"])
    def test_horizon_matched_K_rule_reads_the_default_K(self, estimator):
        # kappa 10 and the default eta = 1/(2 l_g1) give a contraction of 0.95,
        # so K = log(600)/log(1/0.95) + 1 = 125.7. The exact estimator runs no
        # inner loop, so it has no K to check.
        exp = ExperimentSpec("q", [1], {"kind": "quadratic", "d1": 2, "d2": 3, "T": 600},
                             {"kind": "obbo", "estimator": estimator})
        note = ("[q] inner iteration count K=10 is below the horizon-matched recommendation "
                "K = log(T)/log((1 - eta*mu_g)^-1) + 1 = 125.7")
        assert cli_validate(HarnessConfig([exp])) == ([] if estimator == "exact" else [note])

    def test_unresolvable_alpha_is_a_config_error(self):
        # The spline declares no outer smoothness constants, so a run without
        # alpha would fail in every cell; validate rejects it up front.
        cfg = parse_config(CONFIG_DIR / "spline.json")
        del cfg.experiments[0].optimizer["alpha"]
        with pytest.raises(
            ConfigError,
            match="experiment 'spline-obbo': stream declares no outer smoothness "
            "constants; set alpha explicitly",
        ):
            cli_validate(cfg)

    def test_never_blocks(self):
        cfg = self.base_experiment({"kind": "obbo", "alpha": 99.0, "eta": 2.0, "K": 1, "w": 1})
        notes = cli_validate(cfg)
        assert len(notes) >= 2  # warnings only; no exception


class TestCliMain:
    def test_run_report_validate_round(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(serialize_config(small_config()))
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        assert (out_dir / "manifest.json").exists()
        assert cli_main(["report", str(out_dir)]) == 0
        assert cli_main(["validate", "--config", str(cfg_path)]) == 0

    def test_cells_not_ok_are_listed(self, tmp_path, capsys):
        # The probe passes; the run diverges in its cell and exits 0.
        optimizer = {"kind": "obbo", "alpha": 0.05, "eta": 80.0, "K": 300, "w": 1}
        path = write_with_last(tmp_path, {"optimizer": optimizer, "seeds": [1]})
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "wrote 2 run(s)" in out and ", 1 not ok" in out
        assert "  aborted: last__seed1: " in out

    def test_numerical_abort_is_not_a_config_error(self, tmp_path, capsys):
        # eta 5 violates the inner step condition: validate only notes it,
        # and the run exits 0 with the cell aborted, not a config error.
        optimizer = {"kind": "obbo", "alpha": 0.05, "eta": 5.0, "K": 300, "w": 1}
        path = write_with_last(tmp_path, {"optimizer": optimizer, "seeds": [1]})
        assert cli_main(["validate", "--config", str(path)]) == 0
        assert "[last] inner step eta=5 violates" in capsys.readouterr().out
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert "  aborted: last__seed1: " in capsys.readouterr().out

    def test_bad_json_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"experiments": [,]}')
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", str(bad)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert ":2:" in err or ":1:" in err

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_exits_2_before_any_cell(self, tmp_path, monkeypatch, capsys, jobs):
        cells = []
        monkeypatch.setattr(runner, "run_cell", lambda *cell: cells.append(cell))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(serialize_config(small_config()))
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir), "--jobs", jobs])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
        assert cells == [] and not out_dir.exists()

    def test_report_on_invalid_manifest_exits_2(self, tmp_path, capsys):
        cli_run(small_config(), tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(manifest.read_text()[:300])
        with pytest.raises(SystemExit) as exc:
            cli_main(["report", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}:") and ": invalid JSON: " in err

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda m: [], "not an object with an 'outputs' list"),
            (lambda m: {**m, "outputs": {}}, "not an object with an 'outputs' list"),
            (lambda m: {**m, "outputs": [3]},
             "outputs[0] needs 'run_id' (str), 'experiment' (str), 'seed' (int), 'status' (str)"),
            (lambda m: {**m, "outputs": [{k: v for k, v in e.items() if k != "file"}
                                         for e in m["outputs"]]},
             "outputs[0] needs 'file' (str)"),
            (lambda m: {**m, "outputs": [{k: v for k, v in e.items() if k != "seed"}
                                         for e in m["outputs"]]},
             "outputs[0] needs 'seed' (int)"),
        ],
        ids=["list", "outputs-object", "entry-int", "ok-without-file", "without-seed"],
    )
    def test_report_on_manifest_of_wrong_shape_exits_2(self, tmp_path, capsys, edit, named):
        cli_run(small_config(), tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        assert cli_main(["report", str(tmp_path), "--out", str(tmp_path / "report")]) == 2
        assert capsys.readouterr().err == f"error: {manifest}: {named}\n"
        assert not (tmp_path / "report").exists()

    def test_default_out_is_results_config_stem(self, tmp_path, monkeypatch, capsys):
        # Where a run writes comes only from the command line: --out, else
        # results/<config stem> under the working directory.
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "stem.json"
        cfg_path.write_text(serialize_config(small_config()))
        assert cli_main(["run", "--config", str(cfg_path)]) == 0
        manifest = json.loads((tmp_path / "results" / "stem" / "manifest.json").read_text())
        assert [e["status"] for e in manifest["outputs"]] == ["ok", "ok"]
        assert f"wrote 2 run(s) to {Path('results', 'stem')}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_output_dir_key_exits_2(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        doc = json.loads(serialize_config(small_config()))
        doc["output_dir"] = str(tmp_path / "named")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--config", str(path)])
        assert exc.value.code == 2
        assert "config: unknown top-level key(s) ['output_dir']" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_seeds_option_exits_2_before_any_cell(self, tmp_path, monkeypatch, capsys):
        # What runs comes only from the config; there is no seed override.
        cells = []
        monkeypatch.setattr(runner, "run_cell", lambda *cell: cells.append(cell))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(serialize_config(small_config()))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--seeds", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seeds 7" in capsys.readouterr().err
        assert cells == [] and not out.exists()

    @pytest.mark.parametrize(
        "doc, named",
        [
            ([], "top level must be a JSON object"),
            ({"experiments": {}}, "'experiments' must be a list"),
            ({"experiments": [3]}, "experiments[0]: must be an object"),
        ],
        ids=["top-level", "experiments", "entry"],
    )
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_bad_document_shape_exits_2(self, tmp_path, capsys, command, doc, named):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        assert_cli_exits_2(tmp_path, capsys, command, path, named)



class TestMedianAbsDeviation:
    def test_constant_series(self):
        assert median_abs_deviation([3.0, 3.0, 3.0]) == 0.0

    def test_known_value(self):
        assert median_abs_deviation([1.0, 2.0, 10.0]) == 1.0
