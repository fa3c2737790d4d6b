"""Per-node optimization kernels.

Row partition: each node repeatedly solves

    minimize    ||x||_1 + v'x + c ||x||^2
    subject to  A x = b

through its dual, whose objective is differentiable with gradient
b - A x(lam), where x(lam) applies the scalar closed form x_of_u to
u = v - A' lam componentwise. The dual is piecewise quadratic, and a
semismooth Newton method maximizes it with warm starts across consecutive
calls: per node, or in lockstep over the nodes of a wide group.

Column partition: each node minimizes the unconstrained, differentiable

    psi_p(y) + lin' y + q ||y||^2

where psi_p(y) = -inf_x ( ||x||_1 + (A_p' y)' x + (delta/2) ||x||^2 ),
by the Barzilai-Borwein (BB) spectral step method with warm starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dposv

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
    x = (np.clip(u, -1.0, 1.0) - u) / (2.0 * c)
    return float(x) if x.ndim == 0 else x


#: Bounds on every BB step length; STEP_MIN also ends a Newton line search.
STEP_MIN, STEP_MAX = 1e-10, 1e10

#: The watchdog's memory (accepted objective values) and the Armijo margin
#: of both line searches.
MEMORY, ARMIJO = 10, 1e-4


@dataclass
class BBConfig:
    """Node kernel controls: the Newton loop of the row kernel and the
    Barzilai-Borwein loop of the column kernel.

    grad_tol is the target infinity norm of the gradient (scaled by the
    problem, see the solvers) and max_iter caps the evaluations after the
    first, which are what a solution's iterations count. In the BB loop the
    two spectral step lengths alternate and are clamped to [STEP_MIN,
    STEP_MAX]. Raw BB steps are nonmonotone, so each step must additionally
    pass a watchdog: the objective may not exceed the worst of the last
    MEMORY accepted values minus an Armijo margin, else the step is halved
    (the duals are piecewise quadratic with flat stretches on which
    unguarded BB limit-cycles). A gradient blow-up by divergence_factor
    over the best seen additionally restarts from the best point with a
    steepest-descent step. The Newton loop uses neither the spectral steps
    nor divergence_factor (see solve_row_node).
    """

    grad_tol: float = 1e-10
    max_iter: int = 2000
    divergence_factor: float = 1e6

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise InputError("grad_tol must be positive")


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
            if f_new <= bound - ARMIJO * t * gg or t <= STEP_MIN or evals >= cfg.max_iter:
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
        step = min(max(raw, STEP_MIN), STEP_MAX)
        use_first = not use_first
        x, f, g = x_new, f_new, g_new
        window.append(f)
        if len(window) > MEMORY:
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
        self.gram = gram_factorization(self.A)  # rejects a block without full row rank
        self.warm_lambda = np.zeros(self.A.shape[0])


@dataclass
class RowSolution:
    """A row solve: one node's x and multipliers, or for a RowGroup the
    nodes' x as rows and a list of their multipliers; iterations are the
    dual evaluations of all of them, each solve's first one excepted."""

    x: np.ndarray
    lam: np.ndarray
    iterations: int
    converged: bool


#: Narrowest group that solve_row_node batches. A lockstep batch pays ~50
#: small array operations of bookkeeping per evaluation of all its nodes,
#: so it wins only when that replaces enough per-node evaluations.
#: Replaying the recorded group solves of the benchmark's grid64_row (1x256
#: blocks) and desk8_mixed dn (5x160 blocks) runs in slices of each width,
#: per-node Newton loop against lockstep Newton batch, the batch ran at
#: 0.46-0.61x the loop's speed for one node, 0.69-0.89x for two, 0.96-1.51x
#: for three, 1.01-1.48x for four, 2.0-2.3x for eight and 5.1-6.5x for 32
#: (CPU time, 2-vCPU KVM Xeon, numpy 2.4.6). Three is break-even on the
#: 5x160 blocks and no benchmark group has that width, so four stays.
BATCH_MIN_WIDTH = 4


@dataclass
class RowGroup:
    """The node problems of one group, stacked once for solve_row_node.

    A holds every block's rows in node order. A group of at least
    BATCH_MIN_WIDTH nodes of one block height is solved in lockstep, and
    stack holds its blocks (width, height, n), a view of A, and slices
    (width, height); any other group is solved node by node, and stack is
    None. Warm starts stay with the blocks.
    """

    blocks: list
    A: np.ndarray = field(init=False)
    stack: tuple | None = field(init=False)

    def __post_init__(self):
        self.A = np.vstack([sp.A for sp in self.blocks])
        self.stack = None
        heights = {sp.A.shape[0] for sp in self.blocks}
        if len(self.blocks) >= BATCH_MIN_WIDTH and len(heights) == 1:
            self.stack = (self.A.reshape(len(self.blocks), heights.pop(), -1),
                          np.stack([sp.b for sp in self.blocks]))


#: The Newton damping's floor per column of the block (see solve_row_node).
DAMPING_FLOOR = 1e-10


def solve_row_node(sp, v, c, cfg: BBConfig) -> RowSolution:
    """Solve min ||x||_1 + v'x + c||x||^2 s.t. A x = b through its dual.

    With u = v - A'lam, d = clip(u, -1, 1) - u and x = d / (2c), the
    negated dual f(lam) = d'x / 2 - lam'b is piecewise quadratic with
    gradient g = A x - b, and a semismooth Newton method minimizes it
    from the warm start sp.warm_lambda until ||g||_inf <= grad_tol *
    (1 + ||b||_inf) or cfg.max_iter evaluations after the first. Each
    step solves (A_S A_S' / (2c) + mu I) s = -g on the active set S =
    {i : |u_i| > 1}, damped by mu = ||A||_F^2 / (2c n) * (||g||_2 + n *
    DAMPING_FLOOR) so that a step is defined even for an empty S, then
    halves t from 1 until lam + t s passes the Armijo test on f, halves
    ||g||_inf (near the solution the Armijo test fails at rounding level),
    or t reaches STEP_MIN. When the cap cuts a line search short, the
    solve ends at the last accepted point. sp.warm_lambda is updated in
    place for the next call.

    sp may also be a RowGroup, with one row of v and one entry of c per
    node: every node's problem is solved, and the solution holds the rows
    x, the nodes' multipliers, their total iterations and whether all of
    them converged.
    """
    if np.any(np.asarray(c) <= 0):
        raise InputError("quadratic coefficient c must be positive")
    if isinstance(sp, RowGroup):
        return _solve_row_group(sp, v, c, cfg)
    A, b = sp.A, sp.b
    v, c2, n = as_vector(v, A.shape[1], "v"), 2.0 * c, A.shape[1]
    scale = np.einsum("ij,ij->", A, A) / (c2 * n)

    def evaluate(lam):
        u = v - A.T @ lam
        d = u.clip(-1.0, 1.0) - u
        x = d / c2
        g = A @ x - b
        return 0.5 * float(d @ x) - float(lam @ b), g, x, float(np.abs(g).max())

    tol = cfg.grad_tol * (1.0 + float(np.abs(b).max(initial=0.0)))
    lam = sp.warm_lambda
    f, g, x, gnorm = evaluate(lam)
    evals = 0
    while gnorm > tol and evals < cfg.max_iter:
        active = A[:, x != 0.0]
        H = active @ active.T / c2
        H.flat[:: len(g) + 1] += scale * (np.sqrt(g @ g) + n * DAMPING_FLOOR)
        s = dposv(H, -g)[1]  # H is symmetric positive definite
        slope, t = ARMIJO * float(g @ s), 1.0
        while evals < cfg.max_iter:
            trial = lam + t * s
            f_new, g_new, x_new, gnorm_new = evaluate(trial)
            evals += 1
            if f_new <= f + t * slope or gnorm_new < 0.5 * gnorm or t <= STEP_MIN:
                lam, f, g, x, gnorm = trial, f_new, g_new, x_new, gnorm_new
                break
            t *= 0.5
    sp.warm_lambda = lam
    return RowSolution(x=x, lam=lam, iterations=evals, converged=gnorm <= tol)


def _rowdot(a, b):
    """The dot products of matching rows."""
    return np.einsum("ij,ij->i", a, b)


def _batch_evaluate(A, b, V, C2, Lam):
    """The negated duals f of a batch at its rows Lam, their gradients and
    the nodes' x, with C2 the column of the nodes' 2c (solve_row_node's
    evaluate, one row per node)."""
    U = V - np.einsum("km,kmn->kn", Lam, A)
    D = U.clip(-1.0, 1.0) - U
    X = D / C2
    return 0.5 * _rowdot(D, X) - _rowdot(Lam, b), np.matmul(A, X[:, :, None])[:, :, 0] - b, X


def _newton_directions(A, G, X, C2, scale):
    """solve_row_node's damped Newton steps of a batch at gradients G and
    points X, and the Armijo slopes along them."""
    n = A.shape[2]
    H = np.matmul(A * (X != 0.0)[:, None, :], A.transpose(0, 2, 1)) / C2[:, :, None]
    diagonal = np.einsum("kii->ki", H)  # a writable view
    diagonal += (scale * (np.sqrt(_rowdot(G, G)) + n * DAMPING_FLOOR))[:, None]
    S = np.linalg.solve(H, -G[:, :, None])[:, :, 0]
    return S, ARMIJO * _rowdot(G, S)


def _newton_lockstep(A, b, V, C2, Lam, tol, max_iter):
    """Run solve_row_node's Newton method on the k problems of a batch at
    once, from the rows Lam. Every problem keeps its own step, trial step
    length and line search, so each takes the steps the per-node loop
    would take, up to rounding. One evaluation covers every problem still
    running, so all of them have made the same number of evaluations;
    finished problems leave the batch with their rows of data. Returns the
    arrays (lam, x, iterations, converged) over the k problems."""
    k = len(Lam)
    scale = np.einsum("kmn,kmn->k", A, A) / (C2[:, 0] * A.shape[2])
    F, G, X = _batch_evaluate(A, b, V, C2, Lam)
    gnorm = np.abs(G).max(axis=1)
    out = [Lam.copy(), X.copy(), np.zeros(k, dtype=int), np.zeros(k, dtype=bool)]
    ids = np.arange(k)
    S, slope, t = np.zeros_like(Lam), np.zeros(k), np.ones(k)
    fresh = np.ones(k, dtype=bool)  # the problems that took a step and need a direction
    evals = 0
    while True:
        done = gnorm <= tol
        if evals >= max_iter or done.any():
            out[0][ids], out[1][ids], out[2][ids], out[3][ids] = Lam, X, evals, done
            if evals >= max_iter or done.all():
                return out
            keep = ~done
            (ids, A, b, V, C2, Lam, F, G, X, gnorm, S, slope, t, fresh, tol, scale) = (
                a[keep] for a in (ids, A, b, V, C2, Lam, F, G, X, gnorm, S, slope, t, fresh,
                                  tol, scale))
        if fresh.any():
            S[fresh], slope[fresh] = _newton_directions(A[fresh], G[fresh], X[fresh], C2[fresh],
                                                        scale[fresh])
            t[fresh] = 1.0
        trial = Lam + t[:, None] * S
        F_new, G_new, X_new = _batch_evaluate(A, b, V, C2, trial)
        evals += 1
        gnorm_new = np.abs(G_new).max(axis=1)
        fresh = (F_new <= F + t * slope) | (gnorm_new < 0.5 * gnorm) | (t <= STEP_MIN)
        Lam, G, X = (np.where(fresh[:, None], new, old)
                     for new, old in ((trial, Lam), (G_new, G), (X_new, X)))
        F, gnorm = np.where(fresh, F_new, F), np.where(fresh, gnorm_new, gnorm)
        t[~fresh] *= 0.5


def _solve_row_group(group: RowGroup, V, C, cfg: BBConfig) -> RowSolution:
    V, C = np.asarray(V, dtype=float), np.asarray(C, dtype=float)
    if V.shape != (len(group.blocks), group.A.shape[1]) or C.shape != (len(group.blocks),):
        raise InputError("a group solve needs one row of v and one c per node")
    if group.stack is None:
        solutions = [solve_row_node(sp, v, c, cfg) for sp, v, c in zip(group.blocks, V, C)]
        X = np.array([solution.x for solution in solutions])
        iterations = sum(solution.iterations for solution in solutions)
        converged = all(solution.converged for solution in solutions)
    else:
        A, b = group.stack
        lam, X, iters, ok = _newton_lockstep(
            A, b, V, 2.0 * C[:, None], np.stack([sp.warm_lambda for sp in group.blocks]),
            cfg.grad_tol * (1.0 + np.abs(b).max(axis=1)), cfg.max_iter,
        )
        for sp, lam_i in zip(group.blocks, lam):
            sp.warm_lambda = lam_i
        iterations, converged = int(iters.sum()), bool(ok.all())
    lam = [sp.warm_lambda for sp in group.blocks]
    return RowSolution(x=X, lam=lam, iterations=iterations, converged=converged)


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
