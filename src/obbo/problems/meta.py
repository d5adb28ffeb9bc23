"""Toy online meta-learning stream on linear regression tasks.

Each round draws a task from a drifting distribution. The inner problem
adapts task parameters from the meta parameters under a proximal tie,

    g_t(lam, beta) = ||X_t beta - y_t||^2 / 2 + gamma ||lam - beta||^2 / 2,

and the outer problem scores the adapted parameters on the task's validation
samples. The adaptation is a ridge-like solve, so the inner optimum and the
hypergradient are closed form.
"""

from __future__ import annotations

import numpy as np

from .base import ProblemInstant, StreamConfig

__all__ = ["meta_toy_stream"]


def _meta_instant(
    t: int,
    X_tr: np.ndarray,
    y_tr: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    gamma: float,
) -> ProblemInstant:
    d = X_tr.shape[1]
    G = X_tr.T @ X_tr
    Xty = X_tr.T @ y_tr
    evals = np.linalg.eigvalsh(G)
    mu_g = gamma + float(evals[0])
    l_g1 = gamma + float(evals[-1])

    def f_value(lam, beta):
        r = X_val @ beta - y_val
        return 0.5 * float(r @ r)

    def grad_f_lambda(lam, beta):
        return np.zeros(d)

    def grad_f_beta(lam, beta):
        return X_val.T @ (X_val @ beta - y_val)

    def grad_g_beta(lam, beta):
        return X_tr.T @ (X_tr @ beta - y_tr) + gamma * (beta - lam)

    def hvp_g_betabeta(lam, beta, v):
        return G @ v + gamma * v

    def hvp_g_lambdabeta(lam, beta, v):
        return -gamma * v

    H = G + gamma * np.eye(d)

    def inner_opt(lam):
        return np.linalg.solve(H, Xty + gamma * lam)

    def exact_hypergradient(lam):
        beta_hat = inner_opt(lam)
        return gamma * np.linalg.solve(H, grad_f_beta(lam, beta_hat))

    return ProblemInstant(
        t=t,
        d1=d,
        d2=d,
        f_value=f_value,
        grad_f_lambda=grad_f_lambda,
        grad_f_beta=grad_f_beta,
        grad_g_beta=grad_g_beta,
        hvp_g_lambdabeta=hvp_g_lambdabeta,
        hvp_g_betabeta=hvp_g_betabeta,
        mu_g=mu_g,
        l_g1=l_g1,
        inner_opt=inner_opt,
        exact_hypergradient=exact_hypergradient,
        l_f1=float(np.linalg.norm(X_val.T @ X_val, 2)),
    )


def meta_toy_stream(
    config: StreamConfig,
    gamma: float = 1.0,
    n_train: int = 16,
    n_val: int = 16,
    task_noise: float = 0.1,
) -> list[ProblemInstant]:
    """Generate the meta-learning task sequence.

    Static drift repeats one task verbatim every round; otherwise the task's
    true regression vector follows the configured drift path and fresh
    samples arrive each round.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if config.d1 != config.d2:
        raise ValueError("meta stream requires d1 == d2 (shared parameter space)")
    rng = np.random.default_rng(config.seed)
    d, T = config.d1, config.T
    theta = rng.standard_normal(d)

    def draw_task(theta_t):
        X_tr = rng.standard_normal((n_train, d))
        y_tr = X_tr @ theta_t + task_noise * rng.standard_normal(n_train)
        X_val = rng.standard_normal((n_val, d))
        y_val = X_val @ theta_t + task_noise * rng.standard_normal(n_val)
        return X_tr, y_tr, X_val, y_val

    instants = []
    for t in range(1, T + 1):
        if t == 1 or config.drift.kind != "static":
            X_tr, y_tr, X_val, y_val = draw_task(theta)
        instants.append(_meta_instant(t, X_tr, y_tr, X_val, y_val, gamma))
        if t < T:
            step = config.drift.step_size(t)
            if step > 0:
                u = rng.standard_normal(d)
                theta = theta + step * (u / np.linalg.norm(u))
    return instants
