"""Advisory checks of a config against the stability conditions.

Every check compares the configured step sizes, iteration counts, and batch
sizes against the bounds that the regret guarantees assume, computed from the
stream's declared curvature constants. Violations produce warnings; nothing
blocks.
"""

from __future__ import annotations

import math

import numpy as np

from ..optimizers import default_inner_step, default_neumann_bound
from ..problems.base import StochasticInstant, outer_grad_lipschitz
from .config import HarnessConfig
from .runner import build_optimizer_config, build_stream

__all__ = ["cli_validate", "validate_experiment"]

PROBE_SEED = 0


def _probe_stream(stream_spec: dict):
    """Build a short prefix of the stream just to read its constants."""
    probe = dict(stream_spec)
    if "T" in probe:
        probe["T"] = min(int(probe["T"]), 2)
    return build_stream(probe, PROBE_SEED)


def validate_experiment(exp) -> list[str]:
    notes: list[str] = []
    prefix = f"[{exp.name}]"
    try:
        stream = _probe_stream(exp.stream)
    except Exception as exc:
        return [f"{prefix} stream could not be built for validation: {exc}"]
    inst = stream[0]
    mu, ell = inst.mu_g, inst.l_g1
    kind = exp.optimizer["kind"]
    try:
        config = build_optimizer_config(exp.optimizer)
    except Exception as exc:
        return [f"{prefix} optimizer spec invalid: {exc}"]

    horizon = exp.stream.get("T")
    eta = config.eta
    if eta is not None:
        if kind in ("obbo", "sobow", "oagd", "adam", "sgdm"):
            bound = min(1.0 / ell, 1.0 / mu)
            if eta >= bound:
                notes.append(
                    f"{prefix} inner step eta={eta:g} violates "
                    f"eta < min(1/l_g1, 1/mu_g) = {bound:g}"
                )
        if kind == "sobbo":
            bound = 2.0 / (ell + mu)
            if eta > bound:
                notes.append(
                    f"{prefix} inner step eta={eta:g} violates "
                    f"eta <= 2/(l_g1 + mu_g) = {bound:g}"
                )

    if config.alpha is not None and inst.l_f1 is not None:
        rho = 1.0
        bound = 3.0 * rho / (4.0 * outer_grad_lipschitz(mu, ell, inst.l_f1))
        if config.alpha > bound:
            suffix = ""
            if config.phi_mode == "adaptive":
                suffix = (
                    " (bound assumes modulus 1; the adaptive generator's "
                    "per-round modulus is only known at run time)"
                )
            notes.append(
                f"{prefix} outer step alpha={config.alpha:g} exceeds "
                f"3*rho/(4*l_F1) = {bound:g}{suffix}"
            )

    if kind in ("obbo", "sobow") and horizon and config.K is not None:
        eta_eff = eta if eta is not None else default_inner_step(kind, mu, ell)
        contraction = 1.0 - eta_eff * mu
        if 0.0 < contraction < 1.0:
            recommended = math.log(horizon) / math.log(1.0 / contraction) + 1.0
            if config.K < recommended:
                notes.append(
                    f"{prefix} inner iteration count K={config.K} is below the "
                    f"horizon-matched recommendation "
                    f"K = log(T)/log((1 - eta*mu_g)^-1) + 1 = {recommended:.1f}"
                )

    if kind == "sobbo":
        s = config.s
        if s is not None and s != config.w:
            notes.append(
                f"{prefix} batch size s={s} differs from the default s = w "
                f"(w={config.w}) the stochastic guarantee assumes"
            )
        m_default = default_neumann_bound(config.w, mu, ell)
        if config.m is not None and config.m < m_default:
            notes.append(
                f"{prefix} Neumann bound m={config.m} is below the default "
                f"m = ceil(log(w)/log(1/(1-mu_g/l_g1))) + 1 = {m_default}"
            )
        if not isinstance(inst, StochasticInstant):
            notes.append(
                f"{prefix} sobbo on a stream without sampled oracles; set "
                "noise > 0 or stochastic=true in the stream spec"
            )

    if config.lambda0 is not None and not config.feasible.contains(
        np.asarray(config.lambda0, dtype=float)
    ):
        notes.append(f"{prefix} lambda0 lies outside the feasible set")
    return notes


def cli_validate(config: HarnessConfig) -> list[str]:
    notes: list[str] = []
    for exp in config.experiments:
        notes.extend(validate_experiment(exp))
    return notes
