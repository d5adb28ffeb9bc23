"""Toy online meta-learning stream on linear regression tasks.

Each round draws a task from a drifting distribution. The inner problem
adapts task parameters from the meta parameters under a proximal tie,

    g_t(lam, beta) = ||X_t beta - y_t||^2 / 2 + gamma ||lam - beta||^2 / 2,

and the outer problem scores the adapted parameters on the task's validation
samples. The adaptation is a ridge-like solve, so the inner optimum and the
hypergradient are closed form. Each round is one ``MetaData`` instant over
its drawn task's arrays; it carries no solver kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import DriftSpec, ProblemInstant, check_count, check_number

__all__ = ["MetaData", "meta_toy_stream"]


@dataclass(eq=False, repr=False, kw_only=True)
class MetaData(ProblemInstant):
    """A meta instant: one task's samples, its gamma and the products formed
    once per task: G = X_tr' X_tr, Xty = X_tr' y_tr and the inner Hessian
    H = G + gamma I. Under static drift every instant holds the one task's
    arrays."""

    X_tr: np.ndarray
    y_tr: np.ndarray
    X_val: np.ndarray
    y_val: np.ndarray
    gamma: float
    G: np.ndarray
    Xty: np.ndarray
    H: np.ndarray

    def f_value(self, lam, beta):
        r = self.X_val.dot(beta) - self.y_val
        return 0.5 * float(r.dot(r))

    def grad_f_lambda(self, lam, beta):
        return np.zeros(self.X_tr.shape[1])

    def grad_f_beta(self, lam, beta):
        return self.X_val.T.dot(self.X_val.dot(beta) - self.y_val)

    def grad_g_beta(self, lam, beta):
        return self.X_tr.T.dot(self.X_tr.dot(beta) - self.y_tr) + self.gamma * (beta - lam)

    def hvp_g_lambdabeta(self, lam, beta, v):
        return -self.gamma * v

    def hvp_g_betabeta(self, lam, beta, v):
        return self.G.dot(v) + self.gamma * v

    def hess_g_betabeta(self, lam, beta):
        return self.H

    def inner_opt(self, lam):
        return np.linalg.solve(self.H, self.Xty + self.gamma * lam)

    def exact_hypergradient(self, lam):
        beta_hat = type(self).inner_opt(self, lam)
        return self.gamma * np.linalg.solve(self.H, type(self).grad_f_beta(self, lam, beta_hat))


def meta_toy_stream(
    d: int,
    T: int,
    seed: int = 0,
    drift: DriftSpec = DriftSpec(),
    gamma: float = 1.0,
    n_train: int = 16,
    n_val: int = 16,
    task_noise: float = 0.1,
) -> list[MetaData]:
    """Generate the meta-learning task sequence: T rounds in dimension d.

    Static drift repeats one task verbatim every round; otherwise the task's
    true regression vector follows the drift path and fresh samples arrive
    each round. A task's arrays and constants are formed once per drawn task.
    Ranges: integer (not bool) ``d``, ``T``, ``n_train``, ``n_val >= 1`` and
    ``seed >= 0``; finite ``gamma > 0`` and ``task_noise >= 0``.
    """
    for what, count, least in (("d", d, 1), ("horizon", T, 1), ("seed", seed, 0),
                               ("n_train", n_train, 1), ("n_val", n_val, 1)):
        check_count(what, count, least)
    check_number("gamma", gamma, open_low=True)
    check_number("task_noise", task_noise)
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(d)

    def draw_task(theta_t):
        X_tr = rng.standard_normal((n_train, d))
        y_tr = X_tr @ theta_t + task_noise * rng.standard_normal(n_train)
        X_val = rng.standard_normal((n_val, d))
        y_val = X_val @ theta_t + task_noise * rng.standard_normal(n_val)
        G = X_tr.T @ X_tr
        evals = np.linalg.eigvalsh(G)
        task = dict(X_tr=X_tr, y_tr=y_tr, X_val=X_val, y_val=y_val, gamma=gamma, G=G,
                    Xty=X_tr.T @ y_tr, H=G + gamma * np.eye(d))
        l_f1 = float(np.linalg.norm(X_val.T @ X_val, 2))
        return task, gamma + float(evals[0]), gamma + float(evals[-1]), l_f1

    instants = []
    for t in range(1, T + 1):
        if t == 1 or drift.kind != "static":
            task, mu_g, l_g1, l_f1 = draw_task(theta)
        instants.append(MetaData(t, d, d, mu_g, l_g1, l_f1, **task))
        if t < T:
            step = drift.step_size(t)
            if step > 0:
                u = rng.standard_normal(d)
                theta = theta + step * (u / np.linalg.norm(u))
    return instants
