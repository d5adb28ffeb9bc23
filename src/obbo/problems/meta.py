"""Toy online meta-learning stream on linear regression tasks.

Each round draws a task from a drifting distribution. The inner problem
adapts task parameters from the meta parameters under a proximal tie,

    g_t(lam, beta) = ||X_t beta - y_t||^2 / 2 + gamma ||lam - beta||^2 / 2,

and the outer problem scores the adapted parameters on the task's validation
samples. The adaptation is a ridge-like solve, so the inner optimum and the
hypergradient are closed form. Each round is one ``MetaData`` instant over
its drawn task's ``MetaTask``; it carries no solver kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import DriftSpec, ProblemInstant, check_array, check_count, check_number

__all__ = ["MetaData", "MetaTask", "meta_toy_stream"]

# A drawn task's training and validation sample counts and its targets' noise scale.
N_TRAIN, N_VAL, TASK_NOISE = 16, 16, 0.1


class MetaTask:
    """One drawn task: read-only float64 copies of its samples X_tr (n, d), y_tr (n,),
    X_val (m, d) and y_val (m,), each checked by ``check_array``, its gamma (finite,
    > 0) and what derives from them, formed once and read-only: G = X_tr' X_tr,
    Xty = X_tr' y_tr, the inner Hessian H = G + gamma I,
    ``mu_g`` and ``l_g1`` (gamma plus G's extreme eigenvalues) and ``l_f1`` = ||X_val' X_val||_2."""

    __slots__ = "X_tr", "y_tr", "X_val", "y_val", "gamma", "G", "Xty", "H", "mu_g", "l_g1", "l_f1"

    def __init__(self, X_tr, y_tr, X_val, y_val, gamma: float):
        check_number("gamma", gamma, open_low=True)
        X_tr = check_array("X_tr", X_tr, (None, None))
        y_tr = check_array("y_tr", y_tr, X_tr.shape[:1])
        X_val = check_array("X_val", X_val, (None, X_tr.shape[1]))
        y_val = check_array("y_val", y_val, X_val.shape[:1])
        X_tr, y_tr, X_val, y_val = arrays = [np.array(x) for x in (X_tr, y_tr, X_val, y_val)]
        self.X_tr, self.y_tr, self.X_val, self.y_val = arrays
        G = X_tr.T @ X_tr
        evals = np.linalg.eigvalsh(G)
        self.gamma, self.G, self.Xty, self.H = gamma, G, X_tr.T @ y_tr, G + gamma * np.eye(len(G))
        self.mu_g, self.l_g1 = gamma + float(evals[0]), gamma + float(evals[-1])
        self.l_f1 = float(np.linalg.norm(X_val.T @ X_val, 2))
        for x in (*arrays, G, self.Xty, self.H):
            x.setflags(write=False)


@dataclass(eq=False, repr=False, kw_only=True)
class MetaData(ProblemInstant):
    """A meta instant: ``task``, its round's ``MetaTask``, gives d1 = d2, ``mu_g``, ``l_g1`` and
    ``l_f1``, so a copy (``dataclasses.replace``) with another ``task`` derives them anew."""

    d1: int = field(init=False)
    d2: int = field(init=False)
    mu_g: float = field(init=False)
    l_g1: float = field(init=False)
    l_f1: float = field(init=False)
    task: MetaTask

    def __post_init__(self):
        self.d1 = self.d2 = self.task.X_tr.shape[1]
        self.mu_g, self.l_g1, self.l_f1 = self.task.mu_g, self.task.l_g1, self.task.l_f1
        super().__post_init__()

    def f_value(self, lam, beta):
        r = self.task.X_val.dot(beta) - self.task.y_val
        return 0.5 * float(r.dot(r))

    def grad_f_lambda(self, lam, beta):
        return np.zeros(self.d1)

    def grad_f_beta(self, lam, beta):
        X_val = self.task.X_val
        return X_val.T.dot(X_val.dot(beta) - self.task.y_val)

    def grad_g_beta(self, lam, beta):
        task = self.task
        return task.X_tr.T.dot(task.X_tr.dot(beta) - task.y_tr) + task.gamma * (beta - lam)

    def hvp_g_lambdabeta(self, lam, beta, v):
        return -self.task.gamma * v

    def hvp_g_betabeta(self, lam, beta, v):
        return self.task.G.dot(v) + self.task.gamma * v

    def hess_g_betabeta(self, lam, beta):
        return self.task.H

    def inner_opt(self, lam):
        return np.linalg.solve(self.task.H, self.task.Xty + self.task.gamma * lam)

    def exact_hypergradient(self, lam):
        task, beta_hat = self.task, type(self).inner_opt(self, lam)
        return task.gamma * np.linalg.solve(task.H, type(self).grad_f_beta(self, lam, beta_hat))


def meta_toy_stream(
    d: int,
    T: int,
    seed: int = 0,
    drift: DriftSpec = DriftSpec(),
    gamma: float = 1.0,
) -> list[MetaData]:
    """Generate the meta-learning task sequence: T rounds in dimension d.

    Static drift repeats one task verbatim every round: its instants share one
    ``MetaTask``. Otherwise the task's true regression vector follows the drift
    path and fresh samples arrive each round, one ``MetaTask`` per round.
    Ranges: integer (not bool) ``d``, ``T >= 1`` and ``seed >= 0``; finite
    ``gamma > 0``.
    """
    for what, count, least in (("d", d, 1), ("horizon", T, 1), ("seed", seed, 0)):
        check_count(what, count, least)
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(d)
    instants = []
    for t in range(1, T + 1):
        if t == 1 or drift.kind != "static":
            X_tr = rng.standard_normal((N_TRAIN, d))
            y_tr = X_tr @ theta + TASK_NOISE * rng.standard_normal(N_TRAIN)
            X_val = rng.standard_normal((N_VAL, d))
            y_val = X_val @ theta + TASK_NOISE * rng.standard_normal(N_VAL)
            task = MetaTask(X_tr, y_tr, X_val, y_val, gamma)
        instants.append(MetaData(t, task=task))
        if t < T:
            step = drift.step_size(t)
            if step > 0:
                u = rng.standard_normal(d)
                theta = theta + step * (u / np.linalg.norm(u))
    return instants
