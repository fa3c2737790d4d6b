"""Per-node optimization kernels.

Row partition: each node repeatedly solves

    minimize    ||x||_1 + v'x + c ||x||^2
    subject to  A x = b

through its dual, whose objective is differentiable with gradient
b - A x(lam), where x(lam) applies the scalar closed form x_of_u to
u = v - A' lam componentwise. The dual is piecewise quadratic, and a
semismooth Newton method maximizes it from warm starts: per node, in
lockstep over a wide group, bracketed where that group's duals are scalar.
A node solves the same block problem at every step, and only its linear
term v moves. Within a fixed active set S the solution is affine in v,
with slope H_S^-1 A_S / 2c for H_S the Newton matrix, so every solve
starts from the tangent of its node's last solution: the Euler predictor
ahead of the Newton corrector (Allgower & Georg, Numerical Continuation
Methods, 1990), exact while S holds. A block keeps the matrix of its last
Newton direction for it.

Column partition: each node minimizes the unconstrained, differentiable

    psi_p(y) + lin' y + q ||y||^2

where psi_p(y) = -inf_x ( ||x||_1 + (A_p' y)' x + (delta/2) ||x||^2 ).
It is piecewise quadratic too, and the row kernel's Newton loop minimizes
it from the same tangent starts, in its linear term lin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import InputError, as_matrix, as_vector, gram_factorization


def x_of_u(u, c: float):
    """Unique minimizer of |x| + u*x + c*x^2 for finite c > 0, elementwise in u.

    Returns 0 on the dead zone |u| <= 1, -(u+1)/(2c) for u < -1 and
    -(u-1)/(2c) for u > 1. Accepts scalars or arrays.
    """
    if not (np.isfinite(c) and c > 0):
        raise InputError("quadratic coefficient c must be positive and finite")
    u = np.asarray(u, dtype=float)
    x = (np.clip(u, -1.0, 1.0) - u) / (2.0 * c)
    return float(x) if x.ndim == 0 else x


#: The shortest step length and the Armijo margin of a Newton line search.
STEP_MIN, ARMIJO = 1e-10, 1e-4

#: No minimizer: a name perfbench/tracer.py wraps until it drops that target.
bb_minimize = None


@dataclass
class RowSubproblem:
    """Node-local data for the row partition: block A (full row rank), slice b
    and the dual carried across calls, from which the next solve starts
    (see solve_row_node): last_lambda, the last solution, last_v, the v it
    was solved at, and hessian and mask, the matrix of the last Newton
    direction and that direction's active set. Before the first solve they
    are zeros (hessian the identity): the mask is empty, so that solve
    starts from zeros.

    The block's constants are computed once: its Gram inverse gram,
    frobenius_sq = ||A||_F^2 (the Newton damping's scale) and b_scale =
    1 + ||b||_inf (the gradient tolerance's scale).
    """

    A: np.ndarray
    b: np.ndarray
    gram: np.ndarray = field(init=False)
    frobenius_sq: float = field(init=False)
    b_scale: float = field(init=False)
    last_lambda: np.ndarray = field(init=False)
    last_v: np.ndarray = field(init=False)
    hessian: np.ndarray = field(init=False)
    mask: np.ndarray = field(init=False)

    def __post_init__(self):
        self.A = as_matrix(self.A)
        self.b = as_vector(self.b, self.A.shape[0], "b")
        self.gram = gram_factorization(self.A)  # rejects a block without full row rank
        self.frobenius_sq = np.einsum("ij,ij->", self.A, self.A)
        self.b_scale = 1.0 + float(np.abs(self.b).max(initial=0.0))
        m, n = self.A.shape
        self.last_lambda, self.last_v = np.zeros(m), np.zeros(n)
        self.hessian, self.mask = np.eye(m), np.zeros(n, dtype=bool)


@dataclass
class NodeSolution:
    """A node solve: x and lam are a row node's x and multipliers or a
    column node's fragment and dual y; for a RowGroup, the nodes' x as rows
    (a tuple, or one array for a stacked group) and their multipliers (a
    list, or the rows of one array). iterations are the dual evaluations of
    all of them, each solve's first one excepted."""

    x: np.ndarray
    lam: np.ndarray
    iterations: int
    converged: bool


#: Narrowest group that solve_row_node batches. A lockstep batch pays ~40
#: small array operations of bookkeeping per evaluation of all its nodes,
#: so it wins only when that replaces enough per-node evaluations.
#: Replaying recorded group solves in slices of each width, each slice one
#: call of the per-node Newton loop and one of the batch, the batch ran at
#: 0.50-0.58x the loop's speed for 1 node, 0.70-0.80x for 2, 0.86-0.92x for
#: 3, 1.06-1.33x for 4, 1.6-2.1x for 8 and 4.8-4.9x for 32 on desk8_mixed
#: dn's 5x160 blocks, and 0.66-0.98x, 1.00-1.86x, 1.81-2.21x, 2.10-2.85x,
#: 4.7-5.9x and 11.6-14.1x (scalar kernel) on grid64_row's 1x256 blocks
#: (CPU time, 2-vCPU KVM Xeon, numpy 2.4.6). 3 loses on 5x160, so 4 stays.
BATCH_MIN_WIDTH = 4


@dataclass
class RowGroup:
    """The node problems of one group, stacked once for solve_row_node.

    A holds every block's rows in node order. A group of at least
    BATCH_MIN_WIDTH nodes of one block height is solved in lockstep, and
    stack holds its blocks (width, height, n), a view of A, and slices
    (width, height); any other group is solved node by node, and stack is
    None; a stack of one-row blocks keeps squares = A * A (else None) for
    the scalar kernel. A stacked group keeps its nodes' carried duals
    (RowSubproblem's last_lambda, last_v, hessian and mask) as arrays
    of one row per node, and each block's fields are views of their rows,
    so a solve writes them all with one copy each; a group without a stack
    leaves them with the blocks. The subgradient projects a stacked group's
    nodes in one stacked product with projector, the blocks'
    A_p'(A_p A_p')^-1 from their Gram inverses (linalg.projector_stack),
    which its stepper sets; a group without a stack projects node by node.
    frobenius_sq and b_scale hold the blocks' constants, one per node.
    """

    blocks: list
    A: np.ndarray = field(init=False)
    stack: tuple | None = field(init=False)
    frobenius_sq: np.ndarray = field(init=False)
    b_scale: np.ndarray = field(init=False)
    projector: np.ndarray | None = field(init=False, default=None)
    squares: np.ndarray | None = field(init=False, default=None)  # one-row stacks only
    # a stacked group's carried duals, one row per node
    last_lambda: np.ndarray | None = field(init=False, default=None)
    last_v: np.ndarray | None = field(init=False, default=None)
    hessian: np.ndarray | None = field(init=False, default=None)
    mask: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        self.A = np.vstack([sp.A for sp in self.blocks])
        self.frobenius_sq = np.array([sp.frobenius_sq for sp in self.blocks])
        self.b_scale = np.array([sp.b_scale for sp in self.blocks])
        self.stack = None
        heights = {sp.A.shape[0] for sp in self.blocks}
        if len(self.blocks) >= BATCH_MIN_WIDTH and len(heights) == 1:
            self.stack = (self.A.reshape(len(self.blocks), heights.pop(), -1),
                          np.stack([sp.b for sp in self.blocks]))
            for name in ("last_lambda", "last_v", "hessian", "mask"):
                rows = np.stack([getattr(sp, name) for sp in self.blocks])
                setattr(self, name, rows)
                for i, sp in enumerate(self.blocks):
                    setattr(sp, name, rows[i, ...])  # a view
            self.squares = self.A * self.A if len(self.A) == len(self.blocks) else None


#: The Newton damping's floor per column of the block (see solve_row_node).
DAMPING_FLOOR = 1e-10


def solve_row_node(sp, v, c, *, grad_tol: float, max_iter: int) -> NodeSolution:
    """Solve min ||x||_1 + v'x + c||x||^2 s.t. A x = b through its dual.

    With u = v - A'lam, d = clip(u, -1, 1) - u and x = d / (2c), the
    negated dual f(lam) = d'x / 2 - lam'b is piecewise quadratic with
    gradient g = A x - b, and a semismooth Newton method minimizes it until
    ||g||_inf <= grad_tol * (1 + ||b||_inf) or max_iter evaluations after
    the first. Each step solves (A_S A_S' / (2c) + mu I) s = -g on the
    active set S = {i : |u_i| > 1}, with mu = ||A||_F^2 / (2c n) * n *
    DAMPING_FLOOR, which keeps the step defined even for an empty S. Where
    S has fewer columns than A has rows, A_S A_S' is singular and mu also
    takes ||A||_F^2 / (2c n) * ||g||_2 (Levenberg-Marquardt damping). Any
    other step is undamped: where S spans the rows and stays the same, the
    dual is quadratic and that step lands on its minimizer in one move. A
    halving line search (a bracket for a stack of one-row blocks) follows
    each step (see _newton, _scalar_lockstep). grad_tol must be positive
    and finite and max_iter an integer of at least 1 (the stepper passes
    solvers.GRAD_TOL and solvers.MAX_ITER).

    The solve starts from the tangent of the block's last solution,
    last_lambda + hessian^-1 A ((v - last_v) * mask) / (2c), which is the
    solution at v wherever the active set mask of the last direction holds
    (hessian is that direction's matrix; before the first direction the
    mask is empty and the start is last_lambda). A block's c is fixed for
    its run, as the stepper sets it. Then the block keeps the solution, v
    and the last direction's hessian and mask (those of a solve that took
    no step stay), each written into the block's own arrays, so that a
    block of a stacked group stays a view of its row; the solution's lam
    is the block's last_lambda itself, as a stacked group's is its
    last_lambda, and the next solve overwrites it.

    sp may also be a RowGroup, with one row of v and one entry of c per
    node: every node's problem is solved, and the solution holds the rows
    x, the nodes' multipliers, their total iterations and whether all of
    them converged. The group's v and c are checked once, for all of its
    nodes. A stacked group keeps each node's last direction as the
    lockstep kernel last computed it, and a one-row stack the damped slope
    and the active set of the scalar kernel's last pass.
    """
    _check_controls(grad_tol, max_iter)
    if isinstance(sp, RowGroup):
        return _solve_row_group(sp, v, c, grad_tol, max_iter)
    if not (np.isfinite(c) and c > 0):
        raise InputError("quadratic coefficient c must be positive and finite")
    x, evals, converged = _newton_node(sp, as_vector(v, sp.A.shape[1], "v"), c, grad_tol,
                                       max_iter)
    return NodeSolution(x=x, lam=sp.last_lambda, iterations=evals, converged=converged)


def _check_controls(grad_tol, max_iter):
    if not 0 < grad_tol < math.inf:
        raise InputError("grad_tol must be positive and finite")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise InputError("max_iter must be an integer of at least 1")


def _newton_node(sp: RowSubproblem, v: np.ndarray, c, grad_tol, max_iter):
    """solve_row_node's Newton method on one node, for checked v and c:
    (x, evaluations after the first, converged)."""
    A, AT, b = sp.A, sp.A.T, sp.b
    c2 = 2.0 * c

    def evaluate(lam):
        u = AT @ lam
        np.subtract(v, u, out=u)
        d = np.maximum(u, -1.0)
        np.minimum(d, 1.0, out=d)
        d -= u
        x = d / c2
        g = A @ x
        g -= b
        return 0.5 * float(d @ x) - float(lam @ b), g, x, float(np.maximum.reduce(np.abs(g)))

    dv = v - sp.last_v
    dv *= sp.mask
    start = sp.last_lambda + np.linalg.solve(sp.hessian, A @ dv) / c2
    lam, x, evals, converged, hessian, mask = _newton(
        evaluate, A, c2, 0.0, sp.frobenius_sq / (c2 * A.shape[1]), start, grad_tol * sp.b_scale,
        max_iter)
    sp.last_lambda[...], sp.last_v[...] = lam, v
    if hessian is not None:
        sp.hessian[...], sp.mask[...] = hessian, mask
    return x, evals, converged


def _newton(evaluate, A, curvature, shift, damping, z, tol, max_iter):
    """The semismooth Newton loop of both node kernels.

    evaluate(z) returns the objective f, its gradient g, the node's x
    (nonzero exactly on the active set S) and ||g||_inf. Each step solves
    (A_S A_S' / curvature + (shift + damping * mu) I) s = -g, where mu =
    n * DAMPING_FLOOR, plus ||g||_2 when S has fewer columns than A has
    rows (A_S A_S' singular), and halves t from 1 until z + t s passes the
    Armijo test on f, halves ||g||_inf (near the solution the Armijo test
    fails at rounding level), or t reaches STEP_MIN. Runs from z until
    ||g||_inf <= tol or max_iter evaluations after the first; when the cap
    cuts a line search short, the loop ends at the last accepted point.
    Returns (z, x, evaluations after the first, converged, the last step's
    matrix, its S as a mask), the last two None when no step was taken.
    """
    m, n = A.shape
    f, g, x, gnorm = evaluate(z)
    evals, H, mask = 0, None, None
    while gnorm > tol and evals < max_iter:
        mask = x != 0.0
        active = A.compress(mask, axis=1)
        H = active @ active.T
        H /= curvature
        mu = n * DAMPING_FLOOR
        if active.shape[1] < m:  # too few columns to span the rows: A_S A_S' is singular
            mu += math.sqrt(g @ g)
        H.ravel()[:: m + 1] += shift + damping * mu
        s = np.linalg.solve(H, -g)
        slope, t = ARMIJO * float(g @ s), 1.0
        while evals < max_iter:
            trial = z + s if t == 1.0 else z + t * s  # 1.0 * s is s: the same floats
            f_new, g_new, x_new, gnorm_new = evaluate(trial)
            evals += 1
            if f_new <= f + t * slope or gnorm_new < 0.5 * gnorm or t <= STEP_MIN:
                z, f, g, x, gnorm = trial, f_new, g_new, x_new, gnorm_new
                break
            t *= 0.5
    return z, x, evals, gnorm <= tol, H, mask


def _rowdot(a, b):
    """The dot products of matching rows."""
    return np.einsum("ij,ij->i", a, b)


def _batch_evaluate(A, b, V, C2, Lam):
    """The negated duals f of a batch at its rows Lam, their gradients and
    the nodes' x, with C2 the column of the nodes' 2c (solve_row_node's
    evaluate, one row per node)."""
    U = np.einsum("km,kmn->kn", Lam, A)
    np.subtract(V, U, out=U)  # the batch's rows are large: reuse their buffers
    D = U.clip(-1.0, 1.0)
    D -= U
    X = np.divide(D, C2, out=U)
    return 0.5 * _rowdot(D, X) - _rowdot(Lam, b), np.matmul(A, X[:, :, None])[:, :, 0] - b, X


def _newton_directions(A, G, X, C2, scale):
    """solve_row_node's Newton steps of a batch at gradients G and points
    X, the Armijo slopes along them, their matrices and their active sets
    X != 0: each problem's ||g||_2 damps its step only where its active set
    has fewer columns than the block has rows, as in _newton."""
    k, m, n = A.shape
    active = X != 0.0
    H = np.matmul(A * active[:, None, :], A.transpose(0, 2, 1))
    H /= C2[:, :, None]
    singular = active.sum(axis=1) < m  # too few columns to span the rows
    diagonal = H.reshape(k, m * m)[:, :: m + 1]  # a writable view
    diagonal += (scale * (np.where(singular, np.sqrt(_rowdot(G, G)), 0.0)
                          + n * DAMPING_FLOOR))[:, None]
    S = np.linalg.solve(H, -G[:, :, None])[:, :, 0]
    return S, ARMIJO * _rowdot(G, S), H, active


def _newton_lockstep(A, b, V, C2, Lam, scale, tol, max_iter, hessian, mask):
    """Run solve_row_node's Newton method on the k problems of a batch at
    once, from the rows Lam, with damping scales scale and tolerances tol.
    Every problem keeps its own step, trial step length and line search, so
    each takes the steps the per-node loop would take, up to rounding. One
    evaluation covers the whole batch. A finished problem stays in it with
    a step of -0.0, which leaves every float as it is, so its trial is its
    own point bit for bit: it accepts the trial and never moves, and its
    iterations are the evaluations made when it first finished. When every
    problem accepts its trial (most steps) the trials are taken whole.
    Whenever a problem needs a direction, the batch's are all formed and
    written, with their matrices and active sets, into the rows of hessian
    and mask; a problem in its line search gets its own back bit for bit,
    as its G and X have not moved. Returns the arrays (lam, x, iterations,
    converged) over the k problems."""
    k = len(Lam)
    F, G, X = _batch_evaluate(A, b, V, C2, Lam)
    gnorm = np.abs(G).max(axis=1)
    t = np.ones(k)
    fresh = np.ones(k, dtype=bool)  # the problems that took a step and need a direction
    iterations = np.full(k, max_iter)
    evals = 0
    while True:
        done = gnorm <= tol
        np.minimum(iterations, evals, out=iterations, where=done)
        if evals >= max_iter or done.all():
            return Lam, X, iterations, done
        if fresh.any():
            S, slope, hessian[...], mask[...] = _newton_directions(A, G, X, C2, scale)
            t[fresh] = 1.0
        S[done], slope[done] = -0.0, 0.0
        trial = Lam + t[:, None] * S
        F_new, G_new, X_new = _batch_evaluate(A, b, V, C2, trial)
        evals += 1
        gnorm_new = np.abs(G_new).max(axis=1)
        fresh = (F_new <= F + t * slope) | (gnorm_new < 0.5 * gnorm) | (t <= STEP_MIN)
        if fresh.all():
            Lam, F, G, X, gnorm = trial, F_new, G_new, X_new, gnorm_new
        else:
            Lam, G, X = (np.where(fresh[:, None], new, old)
                         for new, old in ((trial, Lam), (G_new, G), (X_new, X)))
            F, gnorm = np.where(fresh, F_new, F), np.where(fresh, gnorm_new, gnorm)
            t[~fresh] *= 0.5


def _scalar_lockstep(a, squares, b, V, C2, lam, scale, tol, max_iter, slope, mask):
    """_newton_lockstep for k one-row problems (the rows of a; squares =
    a * a), from lam. Each gradient g = a.x - b is nondecreasing and
    piecewise linear in lam, with slope h = sum of a_i^2 / 2c over the
    active set, so the points where g < 0 and g > 0 bracket its root. A
    step goes to lam - g / (h + _newton's damping) or, where that leaves the
    open bracket, to its midpoint (Newton-bisection, rtsafe in Numerical
    Recipes), and no line search follows. Every pass writes its damped
    slopes into slope and its active sets into the rows of mask. Returns
    the arrays (lam, x, iterations, converged) over the k problems."""
    lo, hi = np.full_like(lam, -np.inf), np.full_like(lam, np.inf)
    U, D, iterations, evals = np.empty_like(V), np.empty_like(V), np.full(len(lam), max_iter), 0
    while True:
        np.subtract(V, np.multiply(a, lam[:, None], out=U), out=U)
        np.clip(U, -1.0, 1.0, out=D)
        D -= U  # x = D / C2, formed once at the end
        g = _rowdot(a, D) / C2[:, 0] - b
        done = np.abs(g) <= tol
        np.minimum(iterations, evals, out=iterations, where=done)
        if evals >= max_iter or done.all():
            return lam, D / C2, iterations, done
        lo, hi = np.where(g <= 0.0, lam, lo), np.where(g > 0.0, lam, hi)  # g = 0 only if done
        np.not_equal(D, 0.0, out=mask)
        h = _rowdot(squares, mask) / C2[:, 0]
        h += scale * (np.where(h == 0.0, np.abs(g), 0.0) + a.shape[1] * DAMPING_FLOOR)
        slope[...] = h
        trial = lam - g / h
        mid = 0.5 * (lo + hi)  # infinite until both sides are found
        np.copyto(trial, mid, where=~((lo < trial) & (trial < hi)) & np.isfinite(mid))
        lam = np.where(done, lam, trial)
        evals += 1


def _solve_row_group(group: RowGroup, V, C, grad_tol, max_iter) -> NodeSolution:
    V, C = np.asarray(V, dtype=float), np.asarray(C, dtype=float)
    if V.shape != (len(group.blocks), group.A.shape[1]) or C.shape != (len(group.blocks),):
        raise InputError("a group solve needs one row of v and one c per node")
    if not np.isfinite(V).all():
        raise InputError("v entries must be finite")
    coefficients = C.tolist()  # Python floats: checked without ufuncs, cheap per node
    if not all(0.0 < c < math.inf for c in coefficients):
        raise InputError("quadratic coefficient c must be positive and finite")
    if group.stack is None:  # the nodes' x are returned as a tuple of rows
        X, evals, ok = zip(*[_newton_node(sp, v, c, grad_tol, max_iter)
                             for sp, v, c in zip(group.blocks, V, coefficients)])
        return NodeSolution(x=X, lam=[sp.last_lambda for sp in group.blocks],
                            iterations=sum(evals), converged=all(ok))
    (A, b), C2 = group.stack, 2.0 * C[:, None]
    dV = V - group.last_v
    dV *= group.mask
    tangent = np.matmul(A, dV[:, :, None])
    controls = group.frobenius_sq / (2.0 * C * A.shape[2]), grad_tol * group.b_scale, max_iter
    if group.squares is None:
        start = group.last_lambda + np.linalg.solve(group.hessian, tangent)[:, :, 0] / C2
        lam, X, iters, ok = _newton_lockstep(A, b, V, C2, start, *controls, group.hessian,
                                             group.mask)
    else:  # one-row blocks: group.A is (width, n), and each hessian is a slope
        start = group.last_lambda[:, 0] + tangent[:, 0, 0] / (group.hessian[:, 0, 0] * C2[:, 0])
        lam, X, iters, ok = _scalar_lockstep(group.A, group.squares, b[:, 0], V, C2, start,
                                             *controls, group.hessian[:, 0, 0], group.mask)
        lam = lam[:, None]
    group.last_lambda[...], group.last_v[...] = lam, V
    return NodeSolution(x=X, lam=group.last_lambda, iterations=int(iters.sum()),
                        converged=bool(ok.all()))


@dataclass
class ColSubproblem:
    """Node-local data for the column partition: column block A_p, the
    regularization weight delta and the dual carried across calls, from
    which the next solve starts (see solve_col_node): last_y, the last
    solution, last_lin, the lin it was solved at, and hessian, the matrix
    of the last Newton direction (zeros before the first solve, hessian
    None until a solve takes a step).
    The kernel owns the node's fragment x_p: last_x, the x of its
    evaluation at last_y (zeros before the first solve)."""

    A: np.ndarray
    delta: float
    last_y: np.ndarray = field(init=False)
    last_lin: np.ndarray = field(init=False)
    hessian: np.ndarray | None = field(init=False, default=None)
    last_x: np.ndarray = field(init=False)

    def __post_init__(self):
        self.A = as_matrix(self.A)
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise InputError("delta must be positive and finite")
        m, n = self.A.shape
        self.last_y, self.last_lin = np.zeros(m), np.zeros(m)
        self.last_x = np.zeros(n)


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


def solve_col_node(sp: ColSubproblem, lin, q: float, *, grad_tol: float,
                   max_iter: int) -> NodeSolution:
    """Minimize psi_p(y) + lin'y + q||y||^2 by semismooth Newton.

    q must be positive and finite (the distributed solver passes D_p rho / 2
    and lin = v_p + b/P). With u = A'y, d = clip(u, -1, 1) - u and
    x = d / delta, the objective is f(y) = d'x/2 + lin'y + q y'y with
    gradient g = lin + 2q y - A x. The row kernel's Newton loop minimizes it
    until ||g||_inf <= grad_tol or max_iter evaluations after the first,
    undamped: the generalized Hessian A_S A_S'/delta + 2q I is positive
    definite. It starts from the tangent of the last solution,
    last_y - hessian^-1 (lin - last_lin), exact while the last direction's
    active set holds, or from last_y before the first direction. A
    block's q is fixed for its run, as the stepper sets it. Then the block
    keeps the solution y, its fragment x (psi_p's at y), lin and the last
    direction's hessian, as in solve_row_node; the solution holds x and
    lam = y. The controls are checked as in solve_row_node.
    """
    _check_controls(grad_tol, max_iter)
    if not (np.isfinite(q) and q > 0):
        raise InputError("quadratic coefficient q must be positive and finite")
    lin = as_vector(lin, sp.A.shape[0], "lin")
    A, delta = sp.A, sp.delta

    def evaluate(y):
        u = A.T @ y
        d = np.maximum(u, -1.0)
        np.minimum(d, 1.0, out=d)
        d -= u
        x = d / delta
        g = lin + 2.0 * q * y - A @ x
        f = 0.5 * float(d @ x) + float(lin @ y) + q * float(y @ y)
        return f, g, x, float(np.maximum.reduce(np.abs(g)))

    start = sp.last_y
    if sp.hessian is not None:
        start = start - np.linalg.solve(sp.hessian, lin - sp.last_lin)
    y, x, evals, converged, hessian, _ = _newton(evaluate, A, delta, 2.0 * q, 0.0, start, grad_tol,
                                              max_iter)
    sp.last_y, sp.last_x = y, x
    sp.last_lin[...] = lin
    if hessian is not None:
        sp.hessian = hessian
    return NodeSolution(x=x, lam=y, iterations=evals, converged=converged)
