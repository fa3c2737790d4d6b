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
    x = (np.clip(u, -1.0, 1.0) - u) / (2.0 * c)
    return float(x) if x.ndim == 0 else x


#: Bounds on every BB step length.
STEP_MIN, STEP_MAX = 1e-10, 1e10

#: The watchdog's memory (accepted objective values) and Armijo margin.
MEMORY, ARMIJO = 10, 1e-4


@dataclass
class BBConfig:
    """Barzilai-Borwein loop controls.

    grad_tol is the target infinity norm of the gradient (scaled by the
    problem, see the solvers); the two spectral step lengths alternate and
    are clamped to [STEP_MIN, STEP_MAX]. Raw BB steps are nonmonotone, so
    each step must additionally pass a watchdog: the objective may not
    exceed the worst of the last MEMORY accepted values minus an Armijo
    margin, else the step is halved (the duals are piecewise quadratic with
    flat stretches on which unguarded BB limit-cycles). A gradient blow-up
    by divergence_factor over the best seen additionally restarts from the
    best point with a steepest-descent step.
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


@np.errstate(divide="ignore", invalid="ignore")  # rows a mask discards may divide by 0
def bb_lockstep(value_grad_fn, data, x0, tol, cfg: BBConfig, on_safeguard=None):
    """Run bb_minimize on k independent problems at once.

    Row i of x0 starts problem i, and row i of value_grad_fn(*data, X)
    gives its value and gradient at row i of X; the arrays in data are
    indexed by problem along their first axis. Every problem keeps its own
    step, watchdog window, halving, divergence restart and tolerance tol[i],
    so each takes the steps bb_minimize would take, up to rounding. One
    call of value_grad_fn evaluates every problem still running, so all of
    them have made the same number of evaluations; finished problems leave
    the batch with their rows of data. Returns the arrays
    (x, iterations, converged) over the k problems.
    """
    x, tol = np.array(x0, dtype=float), np.asarray(tol, dtype=float)
    ids = np.arange(len(x))
    out_x, out_iters = x.copy(), np.zeros(len(x), dtype=int)
    out_conv = np.zeros(len(x), dtype=bool)
    f, g = value_grad_fn(*data, x)
    gnorm = np.abs(g).max(axis=1)
    best_x, best_g, best_f, best_norm = x.copy(), g.copy(), f, gnorm
    # the last MEMORY accepted values of each problem, as a ring
    window = np.full((len(x), MEMORY), -np.inf)
    window[:, 0] = f
    filled = np.ones(len(x), dtype=int)
    t = 1.0 / np.sqrt(_rowdot(g, g))  # each line search's trial step
    use_first = np.ones(len(x), dtype=bool)
    evals = 0
    done = gnorm <= tol
    while True:
        capped = evals >= cfg.max_iter
        if capped or done.any():
            out_x[ids[done]], out_conv[ids[done]] = x[done], True
            out_iters[ids] = evals
            if capped or done.all():
                out_x[ids[~done]] = best_x[~done]
                return out_x, out_iters, out_conv
            keep = ~done
            (ids, x, g, best_x, best_g, best_f, best_norm, window, filled, t, use_first,
             tol) = (a[keep] for a in (ids, x, g, best_x, best_g, best_f, best_norm,
                                       window, filled, t, use_first, tol))
            data = tuple(a[keep] for a in data)

        gg = _rowdot(g, g)
        trial = x - t[:, None] * g
        f_new, g_new = value_grad_fn(*data, trial)
        evals += 1
        # a row whose line search ends takes its step; the others halve t
        ends = (f_new <= window.max(axis=1) - ARMIJO * t * gg) | (t <= STEP_MIN)
        if evals >= cfg.max_iter:
            ends[:] = True
        gnorm = np.abs(g_new).max(axis=1)
        done = ends & (gnorm <= tol)
        better = ends & (gnorm < best_norm)
        if better.any():
            best_x[better], best_g[better] = trial[better], g_new[better]
            best_f[better], best_norm[better] = f_new[better], gnorm[better]
        restart = gnorm > cfg.divergence_factor * best_norm
        if restart.any():
            restart &= ends & ~done

        s, d = trial - x, g_new - g
        sd, ss = _rowdot(s, d), _rowdot(s, s)
        step = np.where(use_first, ss / sd, sd / _rowdot(d, d))
        flat = ~np.isfinite(sd) | (sd <= 1e-12 * ss)
        if flat.any():
            step[flat] = 1.0 / np.sqrt(_rowdot(g_new[flat], g_new[flat]))
        step = step.clip(STEP_MIN, STEP_MAX)
        t = np.where(ends, step, 0.5 * t)
        use_first ^= ends
        x = np.where(ends[:, None], trial, x)
        g = np.where(ends[:, None], g_new, g)
        rows = np.flatnonzero(ends)
        window[rows, filled[rows] % MEMORY] = f_new[rows]
        filled += ends
        if restart.any():
            if on_safeguard is not None:
                for i in np.flatnonzero(restart):
                    on_safeguard(best_x[i].copy())
            x[restart], g[restart] = best_x[restart], best_g[restart]
            window[restart] = -np.inf
            window[restart, 0] = best_f[restart]
            filled[restart] = 1
            t[restart] = 1.0 / np.sqrt(_rowdot(g[restart], g[restart]))
            use_first[restart] = True


def _rowdot(a, b):
    """The dot products of matching rows."""
    return np.einsum("ij,ij->i", a, b)


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
    BB evaluations of all of them."""

    x: np.ndarray
    lam: np.ndarray
    iterations: int
    converged: bool


#: Narrowest group that solve_row_node batches. A lockstep batch pays ~50
#: small array operations of bookkeeping per evaluation of all its nodes,
#: so it wins only when that replaces enough per-node evaluations.
#: Replaying the recorded group solves of the benchmark's grid64_row (1x256
#: blocks) and desk8_mixed dn (5x160 blocks) runs in slices of each width,
#: per-node loop against lockstep batch, the batch ran at 0.31-0.40x the
#: loop's speed for one node, 0.56-0.63x for two, 0.80-0.95x for three,
#: 0.96-1.21x for four, 1.65-1.86x for eight and 3.8-4.3x for 32 (CPU time,
#: 2-vCPU KVM Xeon, numpy 2.4.6).
BATCH_MIN_WIDTH = 4


@dataclass
class RowGroup:
    """The node problems of one group, stacked once for solve_row_node.

    A holds every block's rows in node order. A group of at least
    BATCH_MIN_WIDTH nodes of one block height is solved in lockstep, and
    stack holds its blocks (width, height, n) and slices (width, height);
    any other group is solved node by node, and stack is None. Warm starts
    stay with the blocks.
    """

    blocks: list
    A: np.ndarray = field(init=False)
    stack: tuple | None = field(init=False)

    def __post_init__(self):
        self.A = np.vstack([sp.A for sp in self.blocks])
        self.stack = None
        if len(self.blocks) >= BATCH_MIN_WIDTH and len({sp.A.shape[0] for sp in self.blocks}) == 1:
            self.stack = (np.stack([sp.A for sp in self.blocks]),
                          np.stack([sp.b for sp in self.blocks]))


def solve_row_node(sp, v, c, cfg: BBConfig, on_safeguard=None) -> RowSolution:
    """Solve min ||x||_1 + v'x + c||x||^2 s.t. A x = b via BB dual ascent.

    The dual gradient is b - A x(lam) with x(lam) = x_of_u(v - A' lam, c);
    ascent runs until ||A x - b||_inf <= grad_tol * (1 + ||b||_inf). The
    warm start sp.warm_lambda is updated in place for the next call.

    sp may also be a RowGroup, with one row of v and one entry of c per
    node: every node's problem is solved, and the solution holds the rows
    x, the nodes' multipliers, their total BB iterations and whether all
    of them converged.
    """
    if np.any(np.asarray(c) <= 0):
        raise InputError("quadratic coefficient c must be positive")
    if isinstance(sp, RowGroup):
        return _solve_row_group(sp, v, c, cfg, on_safeguard)
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


def _batch_points(A, V, C2, Lam):
    """D = 2c x(lam) and x(lam) of every node of a batch at its rows Lam,
    with C2 the column of the nodes' 2c."""
    U = V - np.einsum("km,kmn->kn", Lam, A)
    D = U.clip(-1.0, 1.0) - U
    return D, D / C2


def _batch_neg_duals(A, b, V, C2, Lam):
    """The negated duals of a batch and their gradients A x(lam) - b. At
    x = x(lam), |x| + u x + c x^2 = -d^2 / (4c) for d = 2c x."""
    D, X = _batch_points(A, V, C2, Lam)
    values = 0.5 * _rowdot(D, X) - _rowdot(Lam, b)
    return values, np.matmul(A, X[:, :, None])[:, :, 0] - b


def _solve_row_group(group: RowGroup, V, C, cfg: BBConfig, on_safeguard) -> RowSolution:
    V, C = np.asarray(V, dtype=float), np.asarray(C, dtype=float)
    if V.shape != (len(group.blocks), group.A.shape[1]) or C.shape != (len(group.blocks),):
        raise InputError("a group solve needs one row of v and one c per node")
    if group.stack is None:
        solutions = [solve_row_node(sp, v, c, cfg, on_safeguard)
                     for sp, v, c in zip(group.blocks, V, C)]
        X = np.array([solution.x for solution in solutions])
        iterations = sum(solution.iterations for solution in solutions)
        converged = all(solution.converged for solution in solutions)
    else:
        A, b = group.stack
        C2 = 2.0 * C[:, None]
        lam, iters, ok = bb_lockstep(
            _batch_neg_duals, (A, b, V, C2),
            np.stack([sp.warm_lambda for sp in group.blocks]),
            cfg.grad_tol * (1.0 + np.abs(b).max(axis=1)), cfg, on_safeguard,
        )
        for sp, lam_i in zip(group.blocks, lam):
            sp.warm_lambda = lam_i
        X = _batch_points(A, V, C2, lam)[1]
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
