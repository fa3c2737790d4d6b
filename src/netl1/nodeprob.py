"""Per-node optimization kernels.

Row partition: each node repeatedly solves

    minimize    ||x||_1 + v'x + c ||x||^2
    subject to  A x = b

through its dual, whose objective is differentiable with gradient
b - A x(lam), where x(lam) applies the scalar closed form x_of_u to
u = v - A' lam componentwise. The dual ascent uses the Barzilai-Borwein
(BB) spectral step method with warm starts across consecutive calls.

Column partition: each node minimizes the unconstrained, differentiable

    psi_p(y) + lin' y + q ||y||^2

where psi_p(y) = -inf_x ( ||x||_1 + (A_p' y)' x + (delta/2) ||x||^2 ),
again by BB with warm starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    GramFactorization,
    InputError,
    as_matrix,
    as_vector,
    gram_factorization,
)


def x_of_u(u, c: float):
    """Unique minimizer of |x| + u*x + c*x^2 for c > 0, elementwise in u.

    Returns 0 on the dead zone |u| <= 1, -(u+1)/(2c) for u < -1 and
    -(u-1)/(2c) for u > 1. Accepts scalars or arrays.
    """
    if c <= 0:
        raise InputError("quadratic coefficient c must be positive")
    u = np.asarray(u, dtype=float)
    x = np.where(u > 1.0, -(u - 1.0) / (2.0 * c), 0.0)
    x = np.where(u < -1.0, -(u + 1.0) / (2.0 * c), x)
    return float(x) if x.ndim == 0 else x


@dataclass
class BBConfig:
    """Barzilai-Borwein loop controls.

    grad_tol is the target infinity norm of the gradient (scaled by the
    problem, see the solvers); the two spectral step lengths alternate and
    are clamped to [step_min, step_max]. Raw BB steps are nonmonotone, so
    each step must additionally pass a watchdog: the objective may not
    exceed the worst of the last `memory` accepted values minus an Armijo
    margin, else the step is halved (the duals are piecewise quadratic with
    flat stretches on which unguarded BB limit-cycles). A gradient blow-up
    by divergence_factor over the best seen additionally restarts from the
    best point with a steepest-descent step.
    """

    grad_tol: float = 1e-10
    max_iter: int = 2000
    step_min: float = 1e-10
    step_max: float = 1e10
    divergence_factor: float = 1e6
    memory: int = 10
    armijo: float = 1e-4

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise InputError("grad_tol must be positive")
        if not 0 < self.step_min < self.step_max:
            raise InputError("step clamp must satisfy 0 < min < max")
        if self.memory < 1:
            raise InputError("memory must be at least 1")


def bb_minimize(value_grad_fn, x0: np.ndarray, tol: float, cfg: BBConfig, on_safeguard=None):
    """Minimize a smooth convex function given its value and gradient.

    Runs the alternating-step Barzilai-Borwein method from x0 until
    ||grad||_inf <= tol or cfg.max_iter gradient evaluations, guarding each
    step with the nonmonotone watchdog described in BBConfig. Returns
    (x, iterations, converged); on non-convergence x is the best iterate
    seen (smallest gradient norm). The loop body touches O(len(x)) memory
    per iteration beyond the value/gradient evaluation itself.
    """
    x = np.array(x0, dtype=float)
    f, g = value_grad_fn(x)
    gnorm = float(np.abs(g).max(initial=0.0))
    if gnorm <= tol:
        return x, 0, True
    best_x, best_g, best_f, best_norm = x.copy(), g.copy(), f, gnorm

    window = [f]
    step = 1.0 / np.linalg.norm(g)
    use_first = True
    evals = 0
    while evals < cfg.max_iter:
        gg = float(g @ g)
        bound = max(window)
        t = step
        while True:
            x_new = x - t * g
            f_new, g_new = value_grad_fn(x_new)
            evals += 1
            if f_new <= bound - cfg.armijo * t * gg or t <= cfg.step_min or evals >= cfg.max_iter:
                break
            t *= 0.5

        gnorm = float(np.abs(g_new).max(initial=0.0))
        if gnorm <= tol:
            return x_new, evals, True
        if gnorm < best_norm:
            best_x, best_g, best_f, best_norm = x_new.copy(), g_new.copy(), f_new, gnorm
        if gnorm > cfg.divergence_factor * best_norm:
            if on_safeguard is not None:
                on_safeguard(best_x)
            x, f, g = best_x.copy(), best_f, best_g.copy()
            window = [f]
            step = 1.0 / np.linalg.norm(g)
            use_first = True
            continue

        s = x_new - x
        d = g_new - g
        sd = float(s @ d)
        if not np.isfinite(sd) or sd <= 1e-12 * float(s @ s):
            raw = 1.0 / np.linalg.norm(g_new)
        elif use_first:
            raw = float(s @ s) / sd
        else:
            raw = sd / float(d @ d)
        step = min(max(raw, cfg.step_min), cfg.step_max)
        use_first = not use_first
        x, f, g = x_new, f_new, g_new
        window.append(f)
        if len(window) > cfg.memory:
            window.pop(0)
    return best_x, evals, False


@dataclass
class RowSubproblem:
    """Node-local data for the row partition: block A (full row rank), slice b
    and the dual warm start carried across calls."""

    A: np.ndarray
    b: np.ndarray
    gram: GramFactorization = field(init=False)
    warm_lambda: np.ndarray = field(init=False)

    def __post_init__(self):
        self.A = as_matrix(self.A)
        self.b = as_vector(self.b, self.A.shape[0], "b")
        self.gram = gram_factorization(self.A)  # also validates row rank
        self.warm_lambda = np.zeros(self.A.shape[0])


@dataclass
class RowSolution:
    x: np.ndarray
    lam: np.ndarray
    iterations: int
    converged: bool


def solve_row_node(sp: RowSubproblem, v, c: float, cfg: BBConfig, on_safeguard=None) -> RowSolution:
    """Solve min ||x||_1 + v'x + c||x||^2 s.t. A x = b via BB dual ascent.

    The dual gradient is b - A x(lam) with x(lam) = x_of_u(v - A' lam, c);
    ascent runs until ||A x - b||_inf <= grad_tol * (1 + ||b||_inf). The
    warm start sp.warm_lambda is updated in place for the next call.
    """
    if c <= 0:
        raise InputError("quadratic coefficient c must be positive")
    v = as_vector(v, sp.A.shape[1], "v")
    A, b = sp.A, sp.b

    def neg_dual(lam):
        u = v - A.T @ lam
        x = x_of_u(u, c)
        value = -(float(lam @ b) + np.abs(x).sum() + float(u @ x) + c * float(x @ x))
        return value, A @ x - b

    tol = cfg.grad_tol * (1.0 + float(np.abs(b).max(initial=0.0)))
    lam, iters, converged = bb_minimize(
        neg_dual, sp.warm_lambda, tol, cfg, on_safeguard=on_safeguard
    )
    sp.warm_lambda = lam
    x = x_of_u(v - A.T @ lam, c)
    return RowSolution(x=x, lam=lam, iterations=iters, converged=converged)


def row_dual_value(sp: RowSubproblem, v, c: float, lam) -> float:
    """Dual objective lam'b + sum_i inf_x(|x| + u_i x + c x^2) at u = v - A'lam."""
    u = as_vector(v, sp.A.shape[1], "v") - sp.A.T @ as_vector(lam, sp.A.shape[0], "lam")
    x = x_of_u(u, c)
    return float(lam @ sp.b + np.abs(x).sum() + u @ x + c * (x @ x))


@dataclass
class ColSubproblem:
    """Node-local data for the column partition: column block A_p, the
    regularization weight delta and the dual warm start in y."""

    A: np.ndarray
    delta: float
    warm_y: np.ndarray = field(init=False)

    def __post_init__(self):
        self.A = as_matrix(self.A)
        if self.delta <= 0:
            raise InputError("delta must be positive")
        self.warm_y = np.zeros(self.A.shape[0])


def psi_p(sp: ColSubproblem, y):
    """Evaluate the node's dual building block at y.

    Returns (value, x_p, grad) where x_p minimizes
    ||x||_1 + (A' y)' x + (delta/2)||x||^2 componentwise,
    value = -(||x_p||_1 + u' x_p + (delta/2)||x_p||^2) and grad = -A x_p.
    """
    y = as_vector(y, sp.A.shape[0], "y")
    u = sp.A.T @ y
    x = x_of_u(u, 0.5 * sp.delta)
    value = -(np.abs(x).sum() + float(u @ x) + 0.5 * sp.delta * float(x @ x))
    grad = -(sp.A @ x)
    return value, x, grad


@dataclass
class ColSolution:
    y: np.ndarray
    iterations: int
    converged: bool


def solve_col_node(sp: ColSubproblem, v, b, n_nodes: int, q: float, cfg: BBConfig) -> ColSolution:
    """Minimize psi_p(y) + (v + b/P)'y + q||y||^2 by BB.

    q must be positive (it is D_p * rho / 2 in the distributed solver). Runs
    until the gradient -A_p x_p(y) + v + b/P + 2q y has infinity norm at most
    grad_tol; sp.warm_y is updated in place.
    """
    if q <= 0:
        raise InputError("quadratic coefficient q must be positive")
    m = sp.A.shape[0]
    lin = as_vector(v, m, "v") + as_vector(b, m, "b") / float(n_nodes)
    A, half_delta = sp.A, 0.5 * sp.delta

    def objective(y):
        u = A.T @ y
        x = x_of_u(u, half_delta)
        psi = -(np.abs(x).sum() + float(u @ x) + half_delta * float(x @ x))
        value = psi + float(lin @ y) + q * float(y @ y)
        return value, -(A @ x) + lin + 2.0 * q * y

    y, iters, converged = bb_minimize(objective, sp.warm_y, cfg.grad_tol, cfg)
    sp.warm_y = y
    return ColSolution(y=y, iterations=iters, converged=converged)
