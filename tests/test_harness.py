import json
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from obbo.harness.cli import main as cli_main
from obbo.harness.config import (
    ConfigError,
    ExperimentSpec,
    HarnessConfig,
    parse_config,
    parse_config_text,
    serialize_config,
    write_config,
)
from obbo.harness.report import cli_report, median_abs_deviation
import obbo.harness.runner as runner
from obbo.harness.runner import (
    build_optimizer_config,
    build_stream,
    cli_run,
    execute_run,
    run_cell,
    write_trace_csv,
)
from obbo.harness.validate import cli_validate
from obbo.metrics import compute_regret_series, hypergradient_error
from obbo.optimizers import ObboConfig, run_obbo
from obbo.problems import StreamConfig, quadratic_stream

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


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
        write_config(cfg, path)
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
                            {"name": "x", "seeds": [1], "stream": {"kind": "a"}, "optimizer": {"kind": "b"}},
                            {"name": "x", "seeds": [1], "stream": {"kind": "a"}, "optimizer": {"kind": "b"}},
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
            ("optimizer", "alhpa"),
            ("optimizer", "s"),
            ("drift", "rat"),
            ("phi", "mod"),
            ("regularizer", "wieght"),
            ("feasible", "lowr"),
        ],
        ids=["top-level", "experiment", "stream", "optimizer", "optimizer-kind",
             "drift", "phi", "regularizer", "feasible"],
    )
    def test_rejected_at_parse_time(self, where, key):
        doc = json.loads(serialize_config(small_config()))
        set_key(doc, where, key, 1.0)
        with pytest.raises(ConfigError, match=f"unknown .*key.*'{key}'"):
            parse_config_text(json.dumps(doc))

    def test_builders_reject_them_too(self):
        exp = small_config().experiments[0]
        with pytest.raises(ConfigError, match="'kapa_target'"):
            build_stream({**exp.stream, "kapa_target": 3.0}, 1)
        with pytest.raises(ConfigError, match="'mod'"):
            build_optimizer_config({**exp.optimizer, "phi": {"mod": "adaptive"}})

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

    def test_failing_cell_is_recorded_and_manifest_written(self, tmp_path, capsys):
        cfg = small_config()
        cfg.experiments[0].seeds = [1]
        cfg.experiments.append(
            ExperimentSpec(
                name="broken",
                seeds=[1],
                stream=dict(cfg.experiments[0].stream),
                optimizer={"kind": "nope"},
            )
        )
        path = tmp_path / "cfg.json"
        write_config(cfg, path)
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        outputs = json.loads((tmp_path / "out" / "manifest.json").read_text())["outputs"]
        assert [e["status"] for e in outputs] == ["ok", "error"]
        assert outputs[1]["file"] is None
        assert outputs[1]["error"] == "ValueError: unknown optimizer kind 'nope'"
        assert "error: broken__seed1: ValueError" in capsys.readouterr().out

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

    def test_seed_override(self, tmp_path):
        manifest = cli_run(small_config(), tmp_path, seeds_override=[9])
        assert [e["seed"] for e in manifest["outputs"]] == [9]

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


def spline_csv(tmp_path):
    rng = np.random.default_rng(3)
    rows = ["t,split,x,y"]
    for t in (1, 2):
        for split, n in (("train", 8), ("val", 5)):
            rows += [f"{t},{split},{x},{np.sin(6.0 * x)}" for x in rng.uniform(size=n)]
    path = tmp_path / "spline.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


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
                    "stochastic": None, "drift": {"kind": "static", "rate": 1.0, "scale": 1.0},
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
                {"kind": "spline_csv", "knots": [0.0, 0.3, 0.6, 1.0]},
                {"lambda_lower": 1e-4, "lambda_upper": 10.0},
            ),
            (
                {"kind": "meta", "d": 2, "T": 3, "drift": {"kind": "decaying"}},
                {"gamma": 1.0, "n_train": 16, "n_val": 16, "task_noise": 0.1},
            ),
            (
                {"kind": "meta", "d": 2, "T": 3},
                {"drift": {"kind": "static", "rate": 1.0, "scale": 1.0}},
            ),
        ],
        ids=["quadratic", "quadratic-drift", "quadratic-null-drift", "spline_synthetic",
             "spline_csv", "meta", "meta-static"],
    )
    def test_minimal_spec_matches_spelled_out_defaults(self, tmp_path, minimal, spelled_out):
        if minimal["kind"] == "spline_csv":
            minimal = {**minimal, "path": spline_csv(tmp_path)}
        got = build_stream(minimal, 4)
        want = build_stream({**minimal, **spelled_out}, 4)
        assert len(got) == len(want) > 1
        for a, b in zip(got, want):
            assert type(a) is type(b)
            for x, y in zip(oracle_outputs(a), oracle_outputs(b)):
                np.testing.assert_array_equal(x, y)


class TestCsvSchema:
    def write(self, path, d1=2, T=6):
        stream = quadratic_stream(
            StreamConfig(d1=d1, d2=d1 + 1, T=T, kappa_target=3.0, seed=8)
        )
        trace = run_obbo(stream, ObboConfig(alpha=0.05, eta=0.1, K=3, w=2))
        regret = compute_regret_series(stream, trace)
        hg_error = hypergradient_error(trace, regret.exact_grads)
        smoothed_sq = np.array([float(row @ row) for row in trace.smoothed])
        write_trace_csv(path, "rid", trace, regret, hg_error, smoothed_sq)
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
            ("outer_loss", trace.outer_loss),
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


class TestExactOracleCalls:
    def test_each_exact_oracle_evaluated_once(self, tmp_path, monkeypatch):
        calls = {"exact_hypergradient": 0, "inner_opt": 0}

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
        exp = small_config().experiments[0]
        exp.metrics = {"variations": True, "grid_size": 8}
        entry = run_cell(exp, 1, str(tmp_path))
        assert entry["status"] == "ok" and "variations" in entry
        T, d1 = exp.stream["T"], exp.stream["d1"]
        grid_rows = 8 + 2**d1 + T  # Sobol points, box corners, visited iterates
        assert calls == {"exact_hypergradient": T, "inner_opt": T * grid_rows}


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
        self.write_fixture(tmp_path)
        cli_report(tmp_path)
        dat = (tmp_path / "report_fix_regret.dat").read_text().splitlines()
        assert dat[0].startswith("# ")
        assert len(dat[1].split()) == 4

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
        assert not any("without sampled oracles" in n for n in notes)
        cfg.experiments[0].stream.update(noise=[0.0, 0.0], stochastic=True)
        assert not any("without sampled oracles" in n for n in cli_validate(cfg))
        del cfg.experiments[0].stream["stochastic"]
        assert any("without sampled oracles" in n for n in cli_validate(cfg))

    def test_unresolvable_alpha_noted(self):
        # The spline declares no outer smoothness constants, so a run without
        # alpha fails in every cell; validate says so up front.
        cfg = parse_config(CONFIG_DIR / "spline.json")
        del cfg.experiments[0].optimizer["alpha"]
        assert cli_validate(cfg) == [
            "[spline-obbo] stream declares no outer smoothness constants; "
            "set alpha explicitly"
        ]

    def test_never_blocks(self):
        cfg = self.base_experiment({"kind": "obbo", "alpha": 99.0, "eta": 2.0, "K": 1, "w": 1})
        notes = cli_validate(cfg)
        assert len(notes) >= 2  # warnings only; no exception


class TestCliMain:
    def test_run_report_validate_round(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(small_config(), cfg_path)
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        assert (out_dir / "manifest.json").exists()
        assert cli_main(["report", str(out_dir)]) == 0
        assert cli_main(["validate", "--config", str(cfg_path)]) == 0

    def test_bad_json_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"experiments": [,]}')
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", str(bad)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert ":2:" in err or ":1:" in err

    def test_out_root_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OBBO_OUT_ROOT", str(tmp_path / "root"))
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "envy.json"
        write_config(HarnessConfig(experiments=[]), cfg_path)
        assert cli_main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "root" / "envy" / "manifest.json").exists()

    def test_seeds_flag(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(small_config(), cfg_path)
        out_dir = tmp_path / "out"
        assert (
            cli_main(
                ["run", "--config", str(cfg_path), "--out", str(out_dir), "--seeds", "7"]
            )
            == 0
        )
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert [e["seed"] for e in manifest["outputs"]] == [7]


class TestMedianAbsDeviation:
    def test_constant_series(self):
        assert median_abs_deviation([3.0, 3.0, 3.0]) == 0.0

    def test_known_value(self):
        assert median_abs_deviation([1.0, 2.0, 10.0]) == 1.0
