"""Outside-in instrumentation of the harness: a round clock and a span tracer.

Both work by replacing names that obbo's own callers resolve at call time
(``obbo.harness.runner.build_stream`` and friends) and restoring them
afterwards. Nothing inside ``src/`` is edited.

``RoundClock`` is the only instrumentation of an untraced pass: it wraps each
built stream and timestamps every instant taken from it, by the solver loop
(the gap between two takes is one online round) or by index (the metrics).

``Tracer`` records a span around every call into a hooked layer function
(name, start, end, parent) and, for the oracle callables of every built
instant, a call count plus busy time under the span that made the call.
Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import collections.abc
import contextlib
import dataclasses
import importlib
import json
import time
from collections import Counter, defaultdict

from workloads import cells

__all__ = [
    "HOOKS",
    "HookError",
    "RoundClock",
    "Tracer",
    "clocked_build",
    "patched",
    "check_hits",
    "layer_metrics",
]

_now = time.perf_counter_ns

# Only what the workloads run is hooked: OAGD, the implicit and exact
# estimators and variation_report come back with a workload that runs them.
SOLVER_OF = {
    "obbo": "run_obbo",
    "sobbo": "run_sobbo",
    "sobow": "run_sobow",
    "adam": "run_single_level",
}
SOLVERS = tuple(dict.fromkeys(SOLVER_OF.values()))
INNER_SOLVES = ("inner_gd", "inner_sgd")
ESTIMATES = {
    "itd_hypergradient": "itd",
    "stochastic_hypergradient": "neumann",
}
METRICS = ("compute_regret_series", "hypergradient_error")
PHASES = {
    "build_stream": "build",
    **{name: "solve" for name in SOLVERS},
    **{name: "metrics" for name in METRICS},
    "write_trace_csv": "csv",
}
# Oracle fields of ProblemInstant and StochasticInstant that the solvers
# call. (g_value, inner_opt and exact_hypergradient are only called by the
# metrics or by estimators no workload runs.)
ORACLE_KINDS = (
    "f_value",
    "grad_f_lambda",
    "grad_f_beta",
    "grad_g_beta",
    "hvp_g_lambdabeta",
    "hvp_g_betabeta",
    "grad_g_beta_sampled",
    "grad_f_lambda_sampled",
    "grad_f_beta_sampled",
    "hvp_g_lambdabeta_sampled",
    "hvp_g_betabeta_sampled",
)

# (module, name) pairs the traced run replaces. Each is the name the caller
# looks up at call time, so a caller that stops resolving it shows up as a
# hit-count mismatch rather than as a silent zero.
HOOKS = (
    *(("obbo.optimizers", n) for n in (*INNER_SOLVES, *ESTIMATES, "prox_step")),
    *(
        ("obbo.harness.runner", n)
        for n in ("run_cell", "build_stream", *SOLVERS, *METRICS, "write_trace_csv")
    ),
    ("obbo.metrics", "generalized_projection"),
)


class HookError(RuntimeError):
    """A hooked name was not called the number of times the config implies."""


@contextlib.contextmanager
def patched(replacements: dict[tuple[str, str], object]):
    """Set module attributes for the duration of the block, then restore them."""
    saved = []
    try:
        for (module_name, attr), value in replacements.items():
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


class RoundClock(collections.abc.Sequence):
    """Stream proxy that timestamps each instant the program takes from it.

    ``stamps`` starts with when the harness asked for the stream (its cell's
    work begins there) and when the build returned, then gets one stamp per
    instant indexed or iterated, and one when an iteration ends. ``len``
    passes straight through. The stamps of the solver loop, the one complete
    iteration, give the per-round latencies.
    """

    def __init__(self, stream, started_ns: int):
        self._stream = stream
        self.stamps = [started_ns, _now()]
        self._loops: list[tuple[int, int]] = []

    def __len__(self):
        return len(self._stream)

    def __getitem__(self, index):
        item = self._stream[index]
        self.stamps.append(_now())
        return item

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def __iter__(self):
        first = len(self.stamps)
        for instant in self._stream:
            self.stamps.append(_now())
            yield instant
        self.stamps.append(_now())
        self._loops.append((first, len(self.stamps)))

    def round_gaps_ns(self) -> list[int]:
        """Per-round latencies of the one complete solver iteration."""
        if len(self._loops) != 1:
            raise HookError(
                f"stream was iterated {len(self._loops)} times; the round "
                "clock expects exactly one solver loop per built stream"
            )
        loop = self.stamps[slice(*self._loops[0])]
        return [b - a for a, b in zip(loop, loop[1:])]


class Tracer:
    """In-memory spans plus per-span oracle counters for one pass."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.errors: Counter = Counter()
        self.stream_keys: list[str] = []
        # (span id, oracle kind) -> [calls, busy ns]
        self.oracles: dict[tuple[int, str], list[int]] = defaultdict(lambda: [0, 0])
        self._stack: list[int] = [-1]

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(sid)
        self.starts.append(_now())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = _now()
        self._stack.pop()

    def hook(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                self.close(sid)

        return traced

    def count_oracles(self, stream) -> None:
        """Wrap every oracle callable of every instant with a counter."""
        fields: dict[type, list[str]] = {}
        for instant in stream:
            cls = type(instant)
            if cls not in fields:
                fields[cls] = [f.name for f in dataclasses.fields(instant)]
            for name in fields[cls]:
                fn = getattr(instant, name)
                if callable(fn):
                    setattr(instant, name, self._oracle(name, fn))

    def _oracle(self, kind: str, fn):
        oracles, stack = self.oracles, self._stack

        def counted(*args, **kwargs):
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                rec = oracles[(stack[-1], kind)]
                rec[0] += 1
                rec[1] += _now() - t0

        return counted

    def replacements(self, clocks: list[RoundClock]) -> dict:
        """Hooks for every name in HOOKS; build_stream also counts and clocks."""
        out = {}
        for module_name, attr in HOOKS:
            fn = getattr(importlib.import_module(module_name), attr)
            out[(module_name, attr)] = self.hook(attr, fn)
        traced_build = out[("obbo.harness.runner", "build_stream")]

        def build_stream(spec, run_seed):
            started = _now()
            stream = traced_build(spec, run_seed)
            # A span of its own keeps the wrapping out of the cell's self time.
            sid = self.open("instrument")
            key = [spec, spec.get("seed", run_seed)]
            self.stream_keys.append(json.dumps(key, sort_keys=True))
            self.count_oracles(stream)
            clock = RoundClock(stream, started)
            clocks.append(clock)
            self.close(sid)
            return clock

        out[("obbo.harness.runner", "build_stream")] = build_stream
        return out

    def hits(self) -> Counter:
        return Counter(self.names)

    def to_jsonl(self) -> str:
        calls: dict[int, dict] = defaultdict(dict)
        for (sid, kind), rec in self.oracles.items():
            calls[sid][kind] = rec
        lines = []
        for sid, name in enumerate(self.names):
            rec = {
                "id": sid,
                "name": name,
                "parent": self.parents[sid],
                "start_ns": self.starts[sid],
                "end_ns": self.ends[sid],
            }
            if sid in calls:
                rec["oracles"] = calls[sid]
            lines.append(json.dumps(rec, sort_keys=True))
        return "\n".join(lines) + "\n"


def clocked_build(clocks: list[RoundClock]) -> dict:
    """Untraced instrumentation: only the round clock around built streams."""
    import obbo.harness.runner as runner

    original = runner.build_stream

    def build_stream(spec, run_seed):
        started = _now()
        clock = RoundClock(original(spec, run_seed), started)
        clocks.append(clock)
        return clock

    return {("obbo.harness.runner", "build_stream"): build_stream}


def expected_hits(config: dict) -> Counter:
    """How often each hooked name must be called for a config's cells.

    The workloads leave the metrics at their defaults (regret and estimator
    error on, variations off) and use the itd estimator outside SOBBO.
    """
    want: Counter = Counter()
    for exp, _seed in cells(config):
        kind, T = exp["optimizer"]["kind"], exp["stream"]["T"]
        for name in ("run_cell", "build_stream", "write_trace_csv", SOLVER_OF[kind], *METRICS):
            want[name] += 1
        want["generalized_projection"] += T
        if kind == "sobbo":
            want["inner_sgd"] += T
            want["stochastic_hypergradient"] += T
        else:
            want["inner_gd"] += T
            want["itd_hypergradient"] += T
        if kind != "adam":
            want["prox_step"] += T
    return want


def check_hits(tracer: Tracer, config: dict, statuses: list[str]) -> None:
    """Raise HookError unless every hook was hit as often as the config implies.

    With an aborted cell the round-level counts are unknowable, so only
    "hit at least once" is required then.
    """
    want = expected_hits(config)
    got = tracer.hits()
    all_ok = all(s == "ok" for s in statuses)
    names = sorted(set(want) | {name for _module, name in HOOKS})
    bad = [
        f"{name}: expected {want[name]}, got {got[name]}"
        for name in names
        if (got[name] != want[name] if all_ok else bool(want[name]) != bool(got[name]))
    ]
    if bad:
        raise HookError("hooked names hit the wrong number of times: " + "; ".join(bad))


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer numbers for one traced pass of ``rounds`` online rounds.

    Self time is a span's duration minus its child spans and the oracle busy
    time recorded under it. See catalog.json for what each number means.
    """
    n = len(tracer.names)
    dur = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    child_ns = [0] * n
    for i, p in enumerate(tracer.parents):
        if p >= 0:
            child_ns[p] += dur[i]
    oracle_ns = [0] * n
    calls_by_span: dict[int, Counter] = defaultdict(Counter)
    for (sid, kind), (calls, busy) in tracer.oracles.items():
        if sid >= 0:
            oracle_ns[sid] += busy
            calls_by_span[sid][kind] += calls
    self_ns = [dur[i] - child_ns[i] - oracle_ns[i] for i in range(n)]

    # The cell phase (build, solve, metrics or csv) each span sits under.
    phase: list[str | None] = [None] * n
    for i, name in enumerate(tracer.names):
        if name in PHASES:
            phase[i] = PHASES[name]
        elif tracer.parents[i] >= 0:
            phase[i] = phase[tracer.parents[i]]

    by_name: dict[str, list[int]] = defaultdict(list)
    for i, name in enumerate(tracer.names):
        by_name[name].append(i)

    def ids(*names):
        return [i for name in names for i in by_name.get(name, ())]

    def mean(span_ids, values, unit_ns):
        return sum(values[i] for i in span_ids) / len(span_ids) / unit_ns if span_ids else 0.0

    solve_calls: Counter = Counter()
    metric_calls: Counter = Counter()
    solve_busy = 0
    for sid, counts in calls_by_span.items():
        if phase[sid] == "solve":
            solve_calls.update(counts)
            solve_busy += oracle_ns[sid]
        elif phase[sid] == "metrics":
            metric_calls.update(counts)
    n_solve_calls = sum(solve_calls.values())
    cells, solves = ids("run_cell"), ids(*SOLVERS)
    inner, prox = ids(*INNER_SOLVES), ids("prox_step")
    estimates = ids(*ESTIMATES)
    keys = tracer.stream_keys

    out = {
        "problems.build_ms": mean(ids("build_stream"), dur, 1e6),
        "problems.oracle_calls_per_round": n_solve_calls / rounds,
        **{
            f"problems.oracle_calls_per_round.{kind}": solve_calls[kind] / rounds
            for kind in ORACLE_KINDS
        },
        "problems.oracle_us": solve_busy / n_solve_calls / 1e3 if n_solve_calls else 0.0,
        "problems.stream_reuse_share": (len(keys) - len(set(keys))) / len(keys),
        "hypergrad.inner_solve_us": mean(inner, dur, 1e3),
        "hypergrad.inner_solve_self_us": mean(inner, self_ns, 1e3),
        "hypergrad.estimate_us": mean(estimates, dur, 1e3),
        "hypergrad.estimate_self_us": mean(estimates, self_ns, 1e3),
        "hypergrad.divergence_errors": sum(
            c for (name, exc), c in tracer.errors.items()
            if exc == "DivergenceError" and (name in INNER_SOLVES or name in ESTIMATES)
        ),
        "geometry.prox_us": mean(prox, dur, 1e3),
        "geometry.prox_calls_per_round": len(prox) / rounds,
        "geometry.gen_proj_us": mean(ids("generalized_projection"), dur, 1e3),
        "optimizers.solve_ms": mean(solves, dur, 1e6),
        "optimizers.round_self_us": sum(self_ns[i] for i in solves) / rounds / 1e3,
        "metrics.regret_ms": mean(ids("compute_regret_series"), dur, 1e6),
        "metrics.hg_error_ms": mean(ids("hypergradient_error"), dur, 1e6),
        "metrics.total_ms": sum(dur[i] for i in ids(*METRICS)) / len(cells) / 1e6,
        "metrics.exact_calls_per_round": metric_calls["exact_hypergradient"] / rounds,
        "harness.csv_ms": mean(ids("write_trace_csv"), dur, 1e6),
        "harness.manifest_ms": sum(self_ns[i] for i in ids("cli_run")) / 1e6,
        "harness.cell_overhead_ms": mean(cells, self_ns, 1e6),
    }
    for fn_name, label in ESTIMATES.items():
        out[f"hypergrad.estimate_calls_per_round.{label}"] = len(ids(fn_name)) / rounds
    return out
