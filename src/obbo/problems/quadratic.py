"""Synthetic time-varying quadratic bilevel stream with closed-form oracles.

Round t couples a strongly convex quadratic inner objective

    g_t(lam, beta) = (beta - A lam - b_t)' Q (beta - A lam - b_t) / 2

with an outer objective

    f_t(lam, beta) = ||beta - c_t||^2 / 2 + amp * sum_i cos(lam_i + phase_i).

The inner minimizer is beta_hat_t(lam) = A lam + b_t, so the induced outer
objective and its gradient are available in closed form, and drift in b_t and
c_t moves the comparator sequence at a configurable rate. Every quantity is a
deterministic function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import DriftSpec, ProblemInstant, check_array, check_count, check_number

__all__ = ["InnerQuadratic", "QuadraticData", "QuadraticStream", "quadratic_instant",
           "quadratic_stream"]


class InnerQuadratic:
    """A quadratic stream's fixed A and Q, what derives from them, and the kernels
    inner GD, ITD and the Neumann estimator run on them.

    ``InnerQuadratic(A, Q)`` checks a finite A (d2, d1) and a symmetric positive
    definite Q (d2, d2) and keeps read-only C-ordered copies, so no write reaches
    them. ``mu_g`` and ``l_g1`` bound Q's spectrum; ``neg_At`` is ``-A.T``, formed
    once: negation is exact, so products with it match ``-(A.T.dot(x))`` bit for bit.
    Per-round products are ``M.dot(x)``: the BLAS call of ``M @ x`` at half the call
    overhead, with the same bits while M is contiguous. ITD stacks its K cross HVPs
    in one ``matmul`` and sums them in order (``np.add.accumulate``). The ITD kernel
    repeats the oracles' operations in order (eta Qv as a product with an eta vector)
    in its cached workspace, so it equals the oracle path bit for bit, and returns a
    fresh array. The Neumann kernel reassociates.

    Inner GD runs in closed form: K steps of omega <- M omega + eta Q (A lam + b),
    M = I - eta Q, give row k = P_k omega_0 + (R_k A) lam + R_k b, with P_k = M^k
    and R_k = I - P_k. ``descent`` caches per (eta, K) the blocks [P_k | R_k A | R_k]
    as one ``longdouble`` stack for x = [omega_0; lam; b], its last block, and
    cap = (1e300 / S)^2, S the stack's largest absolute row sum: every entry is at
    most S ||x||, so x.x < cap proves every row finite (a non-finite S gives a cap
    no x passes). ``QuadraticData.inner_gd_final`` forms x and, when x passes,
    omega_K from the last block; ``inner_gd_rows`` forms every row, rounded once
    (row 0 exactly). Against a 40-digit reference its error per call stayed below
    half an epsilon on every draw, where the step loop's error reaches several
    (``tests/test_referee.py``).

    ``cache`` holds the kernels' arrays: the Neumann kernel's matrices per (l, m),
    inner GD's stack and bound per ("descend", eta, K), and ITD's workspace per
    ("itd", eta, K): the (K, d2) Qv rows, the zero-headed (K + 1, d1, 1) terms, and
    step, v and eta vectors. Every instant of a stream shares one record, so each
    is formed once per stream, and its kernels run on one thread at a time: no
    obbo code shares a stream across threads (``obbo run --jobs`` uses processes).
    """

    __slots__ = ("A", "Q", "neg_At", "mu_g", "l_g1", "cache")

    def __init__(self, A, Q):
        A = check_array("A", A, (None, None)).copy()
        Q = check_array("Q", Q, (A.shape[0], A.shape[0])).copy()
        if not np.allclose(Q, Q.T):
            raise ValueError("Q must be symmetric")
        evals = np.linalg.eigvalsh(Q)
        self.mu_g, self.l_g1 = float(evals[0]), float(evals[-1])
        if self.mu_g <= 0:
            raise ValueError("Q must be positive definite")
        self.A, self.Q, self.neg_At, self.cache = A, Q, -A.T, {}
        A.flags.writeable = Q.flags.writeable = self.neg_At.flags.writeable = False

    def descent(self, eta: float, K: int) -> tuple[np.ndarray, np.ndarray, np.longdouble]:
        """Inner GD's cache entry for (eta, K): ``(stack, last, cap)``, as in the
        class docstring, formed once with warnings off."""
        entry = self.cache.get(("descend", eta, K))
        if entry is not None:
            return entry
        d2 = self.Q.shape[0]
        eye = np.eye(d2, dtype=np.longdouble)
        with np.errstate(over="ignore", invalid="ignore"):
            step = eye - np.longdouble(eta) * self.Q.astype(np.longdouble)
            powers = np.empty((K, d2, d2), dtype=np.longdouble)  # P_1 .. P_K
            powers[0] = step
            for k in range(1, K):
                np.matmul(powers[k - 1], step, powers[k])
            rest = eye - powers
            blocks = np.concatenate((powers, rest @ self.A.astype(np.longdouble), rest), axis=2)
            stack = blocks.reshape(K * d2, -1)
            cap = (np.longdouble(1e300) / np.abs(stack).sum(axis=1).max()) ** 2
        entry = self.cache["descend", eta, K] = stack, stack[-d2:], cap
        return entry

    def itd_correction(self, v: np.ndarray, eta: float, K: int) -> np.ndarray:
        """The sum of the cross HVPs of an ITD reverse pass of K steps from v.

        Each step's two HVPs share one Qv = Q v, kept in a (K, d2) buffer; one stacked
        ``matmul`` forms the terms (-A') Qv, summed in order by ``np.add.accumulate``.
        The buffers are the workspace cached per ("itd", eta, K); v is never written.
        """
        Q, work = self.Q, self.cache.get(("itd", eta, K))
        if work is None:
            d2 = Q.shape[0]
            Qvs, terms = np.empty((K, d2)), np.zeros((K + 1, self.A.shape[1], 1))
            work = self.cache["itd", eta, K] = (  # eta as a vector: a Python float converts per call
                np.full(d2, eta, dtype=float), np.empty(d2), np.empty(d2), Qvs[0], list(Qvs[1:]),
                Qvs[:, :, None], terms, terms[1:])
        etas, step, x, first, rows, Qvs, terms, tail = work
        Qv = Q.dot(v, first)
        for row in rows:
            np.multiply(etas, Qv, step)
            v = np.subtract(v, step, x)
            Qv = Q.dot(v, row)
        np.matmul(self.neg_At, Qvs, tail)
        return np.add.accumulate(terms)[-1, :, 0]

    def neumann_correction(self, v: np.ndarray, ell: float, m: int, k: int) -> np.ndarray:
        """(m/l) (-A') Q (I - Q/l)^k v: the mixed HVP of a Neumann estimate at
        truncation level k < m, as one product with a matrix cached per (l, m).
        """
        levels = self.cache.get((ell, m))
        if levels is None:
            levels = self.cache[ell, m] = self._neumann_levels(ell, m)
        return levels[k].dot(v)

    def _neumann_levels(self, ell: float, m: int) -> list[np.ndarray]:
        """C_k = (m/l) (-A') Q (I - Q/l)^k for k < m, each C_k a (d1, d2) matrix."""
        step = np.eye(self.Q.shape[0]) - self.Q / ell
        levels = [(m / ell) * (self.neg_At @ self.Q)]
        for _ in range(m - 1):
            levels.append(levels[-1] @ step)
        return levels


@dataclass(eq=False, repr=False, kw_only=True)
class QuadraticData(ProblemInstant):
    """A quadratic instant: the b, c, amp and phases of its round's g and f (as in the
    module docstring) and ``inner``, its stream's ``InnerQuadratic``, which gives d1,
    d2, ``mu_g``, ``l_g1`` and the read-only ``A`` and ``Q``; ``l_f1`` is max(1, amp). So a
    copy (``dataclasses.replace``) with another ``inner`` or ``amp`` derives them anew.
    ``amp`` is kept as given: an integer 0 keeps the signed zeros of ``-amp * sin``."""

    d1: int = field(init=False)
    d2: int = field(init=False)
    mu_g: float = field(init=False)
    l_g1: float = field(init=False)
    l_f1: float = field(init=False)
    inner: InnerQuadratic
    b: np.ndarray
    c: np.ndarray
    amp: float
    phases: np.ndarray

    A = property(lambda self: self.inner.A)
    Q = property(lambda self: self.inner.Q)

    def __post_init__(self):
        check_number("amp", self.amp)
        self.d2, self.d1 = self.inner.A.shape
        self.mu_g, self.l_g1, self.l_f1 = self.inner.mu_g, self.inner.l_g1, max(1.0, self.amp)
        super().__post_init__()

    def f_value(self, lam, beta):
        return 0.5 * float(((beta - self.c) ** 2).sum()) + self.amp * float(
            np.cos(lam + self.phases).sum()
        )

    def grad_f_lambda(self, lam, beta):
        return -self.amp * np.sin(lam + self.phases)

    def grad_f_beta(self, lam, beta):
        return beta - self.c

    def grad_g_beta(self, lam, beta):
        inner = self.inner
        return inner.Q.dot((beta - inner.A.dot(lam)) - self.b)

    def hvp_g_lambdabeta(self, lam, beta, v):
        inner = self.inner
        return inner.neg_At.dot(inner.Q.dot(v))

    def hvp_g_betabeta(self, lam, beta, v):
        return self.inner.Q.dot(v)

    def hess_g_betabeta(self, lam, beta):
        return self.inner.Q

    def inner_opt(self, lam):
        return self.inner.A.dot(lam) + self.b

    def exact_hypergradient(self, lam):
        cls = type(self)
        return cls.grad_f_lambda(self, lam, None) + self.A.T.dot(cls.inner_opt(self, lam) - self.c)

    def inner_gd_final(self, lam, beta0, eta: float, K: int) -> tuple:
        """``(omega_K, x)`` of K inner GD steps from beta0, x = [beta0; lam; b] in
        ``longdouble``; omega_K is None when the bound cannot prove every row finite."""
        _, last, cap = self.inner.descent(eta, K)
        beta0, lam = np.asarray(beta0, dtype=float), np.asarray(lam, dtype=float)
        x = np.concatenate((beta0, lam, self.b), axis=None, dtype=np.longdouble)
        if x.dot(x) < cap:  # fails for a NaN or +-inf entry
            return last.dot(x).astype(float), x
        return None, x

    def inner_gd_rows(self, x: np.ndarray, eta: float, K: int) -> np.ndarray:
        """The (K + 1, d2) rows of inner GD from x of ``inner_gd_final``: omega_0
        (x's head, exact), then the K blocks of ``stack @ x``, rounded once."""
        traj = np.empty((K + 1, self.d2))
        traj[0] = x[: self.d2]
        traj[1:] = self.inner.descent(eta, K)[0].dot(x).reshape(K, -1)
        return traj


class QuadraticStream(list):
    """The instants of one ``quadratic_stream``, its drift ``path`` of (b, c) pairs
    and each round's row of it, ``rows``: instant t's b and c are views of
    ``path[rows[t]]`` and all share one ``inner``, amp and phases, so ``regret_rows``
    forms a run's rows from these. A slice or ``list`` of it is a plain list."""

    def __init__(self, instants, path: np.ndarray, rows: np.ndarray):
        super().__init__(instants)
        self.path, self.rows = path, rows

    def regret_rows(self, lambdas, betas) -> tuple:
        """``exact_hypergradient``, ``f_value`` and ``grad_g_beta``'s row dot at each
        (lambdas[t], betas[t]) of round t + 1, every oracle's operations in its order,
        stacked: ``matmul`` with a trailing unit axis and per-row sums."""
        q = self[0]
        b, c = self.path[self.rows[: len(lambdas)]].transpose(1, 0, 2)
        A_lam = np.matmul(q.A, lambdas[:, :, None])[:, :, 0]
        grads = -q.amp * np.sin(lambdas + q.phases)
        grads += np.matmul(q.A.T, ((A_lam + b) - c)[:, :, None])[:, :, 0]
        cos_sums = np.cos(lambdas + q.phases).sum(axis=1)
        loss = 0.5 * ((betas - c) ** 2).sum(axis=1) + q.amp * cos_sums
        r = np.matmul(q.Q, ((betas - A_lam) - b)[:, :, None])
        return grads, loss, np.matmul(r.transpose(0, 2, 1), r)[:, 0, 0]


def quadratic_instant(
    t: int,
    A,
    b,
    Q,
    c,
    amp: float = 0.0,
    phases=None,
    noise: tuple[float, float] = (0.0, 0.0),
) -> QuadraticData:
    """Build a single quadratic bilevel instant from explicit data.

    Shapes: A is (d2, d1), Q is (d2, d2), b and c are (d2,) and phases
    (optional) is (d1,); no other shape is accepted. Every entry is finite, Q
    is symmetric positive definite, ``amp`` is finite and >= 0 and ``noise`` is
    a pair of finite scales >= 0. The instant keeps copies of the arrays.
    """
    inner = InnerQuadratic(A, Q)
    d2, d1 = inner.A.shape
    b, c = check_array("b", b, (d2,)).copy(), check_array("c", c, (d2,)).copy()
    phases = np.zeros(d1) if phases is None else check_array("phases", phases, (d1,)).copy()
    _check_noise_pair(noise)
    return QuadraticData(t, *noise, inner=inner, b=b, c=c, amp=amp, phases=phases)


def _check_noise_pair(noise) -> None:
    if np.ndim(noise) != 1 or len(noise) != 2:  # each instant checks the two scales
        raise ValueError(f"noise must be a pair (sigma_g_beta, sigma_f), got {noise}")


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((rows, max(rows, cols))))
    return q[:, :cols]


def quadratic_stream(
    d1: int,
    d2: int,
    T: int,
    kappa_target: float = 10.0,
    drift: DriftSpec = DriftSpec(),
    noise: tuple[float, float] = (0.0, 0.0),
    seed: int = 0,
    cos_amplitude: float = 0.5,
) -> QuadraticStream:
    """Generate the T quadratic instants in dimensions (d1, d2), as a ``QuadraticStream``.

    The inner Hessian Q has spectrum geomspace(1, kappa_target, d2). The
    coupling A = V diag(s) uses orthonormal columns V and singular values
    s = sqrt(geomspace(1, kappa_target, r)), which makes the induced outer
    curvature A'A axis-aligned with the same spread; this is what lets the
    inner conditioning knob shape the outer geometry. ``noise`` is
    (sigma_g_beta, sigma_f), the scales of the instants' sampled gradients.
    ``cos_amplitude`` scales the bounded nonconvex term of f; zero gives the
    convex instance. Ranges: integer (not bool) ``d1``, ``d2``, ``T >= 1``
    and ``seed >= 0``; finite ``kappa_target >= 1``, noise scales and
    ``cos_amplitude >= 0``.
    """
    for what, count, least in (("d1", d1, 1), ("d2", d2, 1), ("horizon", T, 1), ("seed", seed, 0)):
        check_count(what, count, least)
    check_number("kappa_target", kappa_target, 1.0)
    _check_noise_pair(noise)
    check_number("cos_amplitude", cos_amplitude)
    rng = np.random.default_rng(seed)

    evals = np.geomspace(1.0, kappa_target, d2)
    R = _orthonormal_columns(rng, d2, d2)
    Q = R @ np.diag(evals) @ R.T
    Q = 0.5 * (Q + Q.T)

    r = min(d1, d2)
    V = _orthonormal_columns(rng, d2, r)
    s = np.sqrt(np.geomspace(1.0, kappa_target, r))
    A = np.zeros((d2, d1))
    A[:, :r] = V * s

    b = rng.standard_normal(d2)
    c = rng.standard_normal(d2)
    phases = rng.uniform(0.0, 2.0 * np.pi, d1)

    inner = InnerQuadratic(A, Q)

    # The drift in one pass, with the bits of drawing u, then v, per moving
    # transition and moving b by step * (u / ||u||), then c by v: one (k, 2, d2)
    # draw keeps that order, the row dot is ``np.linalg.norm``'s, and the moves
    # add in round order. Instants share ``inner``, checked once above, and the
    # drift path, which nothing writes in place.
    steps = np.array([drift.step_size(t) for t in range(1, T)])
    moving = steps > 0
    uv = rng.standard_normal((np.count_nonzero(moving), 2, d2))
    uv /= np.sqrt(np.matmul(uv[..., None, :], uv[..., :, None])[..., 0])
    uv *= steps[moving, None, None]
    path = np.add.accumulate(np.concatenate(([[b, c]], uv)))
    rows = np.concatenate(([0], np.cumsum(moving)))
    instants = [QuadraticData(t, *noise, inner=inner, b=b, c=c, amp=cos_amplitude, phases=phases)
                for t, (b, c) in enumerate(map(path.__getitem__, rows.tolist()), 1)]
    return QuadraticStream(instants, path, rows)
