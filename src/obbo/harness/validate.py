"""Checks of a config before any cell runs.

A probe builds a short prefix of every experiment's stream and forms the
run's steps and first iterates on it. Any of these that fails, or
``variations`` beyond the Sobol grid's dimension bound, raises
``ConfigError``, on which ``obbo run`` and ``obbo validate`` exit 2.
The other checks compare the steps the run resolves (eta, alpha, K, s and
m, set or default) against the bounds that the regret guarantees assume,
computed from the stream's declared curvature constants; they only warn. A
default eta, alpha, s or m never breaks its own rule; the default K of 10 is
not matched to the horizon.
"""

from __future__ import annotations

import math

from ..metrics import SOBOL_MAX_DIM
from ..optimizers import (Adaptive, _initial_iterates, _resolve_steps, alpha_bound,
                          default_neumann_bound, eta_bound)
from .config import DEFAULT_METRICS, ConfigError, HarnessConfig, build
from .runner import build_stream

__all__ = ["cli_validate", "probe_experiment", "validate_experiment"]

PROBE_SEED = 0


def _probe_stream(stream_spec: dict):
    """Build a short prefix of the stream just to read its constants."""
    probe = dict(stream_spec)
    if isinstance(probe.get("T"), int):  # any other T fails in the build
        probe["T"] = min(probe["T"], 2)
    return build_stream(probe, PROBE_SEED)


def probe_experiment(exp):
    """The probe stream of ``exp`` and the optimizer config the run resolves
    on it (``_resolve_steps``). Raises ``ConfigError`` naming the experiment
    when the stream cannot be built, when the run's steps or first iterates
    cannot be formed on it (no ``alpha`` without ``l_f1``, a ``lambda0`` or
    ``beta0`` that does not fit), or when ``variations`` is on and d1 exceeds
    ``SOBOL_MAX_DIM``."""
    where = f"experiment {exp.name!r}"
    try:
        stream = _probe_stream(exp.stream)
    except Exception as exc:
        raise ConfigError(f"{where}: stream cannot be built: {type(exc).__name__}: {exc}") from exc
    config = build("optimizer", exp.optimizer, "optimizer spec")
    try:
        config = _resolve_steps(stream, config, exp.optimizer["kind"])
        _initial_iterates(stream, config)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    d1 = stream[0].d1
    if {**DEFAULT_METRICS, **exp.metrics}["variations"] and d1 > SOBOL_MAX_DIM:
        raise ConfigError(f"{where}: variations need d1 <= {SOBOL_MAX_DIM} (Sobol grid), got {d1}")
    return stream, config


def validate_experiment(exp) -> list[str]:
    notes: list[str] = []
    prefix = f"[{exp.name}]"
    stream, config = probe_experiment(exp)
    inst = stream[0]
    mu, ell = inst.mu_g, inst.l_g1
    kind, eta = exp.optimizer["kind"], config.eta

    if kind in ("sobbo", "oagd"):  # OAGD's default eta lies on this bound
        bound, rule = eta_bound(mu, ell), "eta <= 2/(l_g1 + mu_g)"
        violated = eta > bound
    else:
        bound, rule = min(1.0 / ell, 1.0 / mu), "eta < min(1/l_g1, 1/mu_g)"
        violated = eta >= bound
    if violated:
        notes.append(f"{prefix} inner step eta={eta:g} violates {rule} = {bound:g}")

    if inst.l_f1 is not None:  # without it the run needs a set alpha
        bound = alpha_bound(mu, ell, inst.l_f1)
        if config.alpha > bound:
            suffix = ""
            if isinstance(config.phi, Adaptive):
                suffix = (
                    " (bound assumes modulus 1; the adaptive generator's "
                    "per-round modulus is only known at run time)"
                )
            notes.append(
                f"{prefix} outer step alpha={config.alpha:g} exceeds "
                f"3*rho/(4*l_F1) = {bound:g}{suffix}"
            )

    # The exact estimator replaces the inner loop by the closed-form solve.
    if kind in ("obbo", "sobow") and config.estimator != "exact":
        contraction = 1.0 - eta * mu
        if 0.0 < contraction < 1.0:
            recommended = math.log(exp.stream["T"]) / math.log(1.0 / contraction) + 1.0
            if config.K < recommended:
                notes.append(
                    f"{prefix} inner iteration count K={config.K} is below the "
                    f"horizon-matched recommendation "
                    f"K = log(T)/log((1 - eta*mu_g)^-1) + 1 = {recommended:.1f}"
                )

    if kind == "sobbo":
        if config.s != config.w:
            notes.append(
                f"{prefix} batch size s={config.s} differs from the default s = w "
                f"(w={config.w}) the stochastic guarantee assumes"
            )
        m_default = default_neumann_bound(config.w, mu, ell)
        if config.m < m_default:
            notes.append(
                f"{prefix} Neumann bound m={config.m} is below the default "
                f"m = ceil(log(w)/log(1/(1-mu_g/l_g1))) + 1 = {m_default}"
            )
    return notes


def cli_validate(config: HarnessConfig) -> list[str]:
    notes: list[str] = []
    for exp in config.experiments:
        notes.extend(validate_experiment(exp))
    return notes
