"""Independent oracles used by the tests.

These deliberately avoid the library's own code paths: brute-force grid
minimization, sign-pattern KKT enumeration, Jacobi eigenvalue sweeps,
Floyd-Warshall reachability, central finite differences, the row dual in
closed form, graph matrices built edge by edge, a color-scheduled round
that picks each neighbor's fresh or stale value by color, a rho sweep run
in the caller's grid order, and the delta-regularized basis pursuit
solution the column partition converges to, by a splitting iteration with
dense solves. A hypothesis strategy draws connected graphs as a random
tree plus random edges.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

import netl1 as nl
from netl1.bench import SweepResult, _achieved


def brute_force_scalar_min(u: float, c: float, half: float = 12.0) -> float:
    """Grid-scan minimizer of |x| + u*x + c*x^2 with two refinement passes."""
    lo, hi = -half, half
    x = 0.0
    for _ in range(3):
        grid = np.linspace(lo, hi, 4001)
        vals = np.abs(grid) + u * grid + c * grid * grid
        x = grid[int(np.argmin(vals))]
        width = (hi - lo) / 4000.0
        lo, hi = x - 2 * width, x + 2 * width
    return float(x)


def brute_force_scalar_min_many(us: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """Vectorized version: one grid scan + refinements per (u, c) pair."""
    us = np.asarray(us, dtype=float)
    cs = np.asarray(cs, dtype=float)
    half = (np.abs(us) + 1.0) / (2.0 * cs) + 1.0
    lo, hi = -half, half
    best = np.zeros_like(us)
    for _ in range(3):
        grid = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 4001)[None, :]
        vals = np.abs(grid) + us[:, None] * grid + cs[:, None] * grid * grid
        best = np.take_along_axis(grid, np.argmin(vals, axis=1)[:, None], axis=1).ravel()
        width = (hi - lo) / 4000.0
        lo, hi = best - 2 * width, best + 2 * width
    return best


def kkt_enumeration(A: np.ndarray, b: np.ndarray, v: np.ndarray, c: float):
    """Exact minimizer of ||x||_1 + v'x + c||x||^2 s.t. Ax = b by enumerating
    sign patterns (feasible only for small n).

    For each pattern s in {-1,0,+1}^n the stationarity system
    2c x_S = A_S' lam - v_S - s_S on the support, A_S x_S = b, is solved in
    the least-squares sense and kept when it is consistent: residuals small,
    x_i s_i >= 0 on the support and |v - A'lam|_i <= 1 off it. Returns
    (x, objective) of the best consistent pattern.
    """
    m, n = A.shape
    best_obj, best_x = np.inf, None
    for code in range(3 ** n):
        s = np.empty(n)
        rem = code
        for i in range(n):
            s[i] = rem % 3 - 1
            rem //= 3
        S = np.flatnonzero(s != 0)
        AS = A[:, S]
        k = len(S)
        # KKT block system in (x_S, lam)
        top = np.hstack([2.0 * c * np.eye(k), -AS.T])
        bottom = np.hstack([AS, np.zeros((m, m))])
        rhs = np.concatenate([-v[S] - s[S], b])
        sol, *_ = np.linalg.lstsq(np.vstack([top, bottom]), rhs, rcond=None)
        xS, lam = sol[:k], sol[k:]
        if np.abs(2.0 * c * xS - AS.T @ lam + v[S] + s[S]).max(initial=0.0) > 1e-7:
            continue
        if np.abs(AS @ xS - b).max(initial=0.0) > 1e-7:
            continue
        if k and (xS * s[S]).min() < -1e-9:
            continue
        x = np.zeros(n)
        x[S] = xS
        u = v - A.T @ lam
        off = np.setdiff1d(np.arange(n), S)
        if off.size and np.abs(u[off]).max() > 1.0 + 1e-7:
            continue
        obj = np.abs(x).sum() + v @ x + c * (x @ x)
        if obj < best_obj:
            best_obj, best_x = obj, x
    return best_x, best_obj


def jacobi_eigenvalues(M: np.ndarray, sweeps: int = 50, tol: float = 1e-12) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    A = np.array(M, dtype=float)
    n = A.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2))
        if off <= tol * max(1.0, np.abs(np.diag(A)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) <= 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2.0 * A[p, q], A[q, q] - A[p, p])
                cth, sth = np.cos(theta), np.sin(theta)
                rows_p, rows_q = A[p, :].copy(), A[q, :].copy()
                A[p, :] = cth * rows_p - sth * rows_q
                A[q, :] = sth * rows_p + cth * rows_q
                cols_p, cols_q = A[:, p].copy(), A[:, q].copy()
                A[:, p] = cth * cols_p - sth * cols_q
                A[:, q] = sth * cols_p + cth * cols_q
    return np.sort(np.diag(A))


def floyd_warshall_reachable(n_nodes: int, edges) -> bool:
    """Connectivity via transitive closure."""
    reach = np.eye(n_nodes, dtype=bool)
    for i, j in edges:
        reach[i, j] = reach[j, i] = True
    for k in range(n_nodes):
        reach |= reach[:, k][:, None] & reach[k, :][None, :]
    return bool(reach.all())


def central_difference_gradient(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function."""
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        e = np.zeros_like(x, dtype=float)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def kkt_projection(A: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Projection onto {x : Ax = b} by solving the dense KKT system directly."""
    m, n = A.shape
    K = np.zeros((n + m, n + m))
    K[:n, :n] = np.eye(n)
    K[:n, n:] = A.T
    K[n:, :n] = A
    rhs = np.concatenate([p, b])
    sol = np.linalg.solve(K, rhs)
    return sol[:n]


def incidence_oracle(n_nodes: int, edges) -> np.ndarray:
    """Dense node-arc incidence: the column of edge (i, j), i < j, has +1 at
    row i and -1 at row j."""
    B = np.zeros((n_nodes, len(edges)))
    for e, (i, j) in enumerate(edges):
        B[i, e] = 1.0
        B[j, e] = -1.0
    return B


def laplacian_oracle(n_nodes: int, edges) -> np.ndarray:
    """Dense graph Laplacian diag(degrees) - adjacency, built edge by edge."""
    L = np.zeros((n_nodes, n_nodes))
    for i, j in edges:
        L[i, j] -= 1.0
        L[j, i] -= 1.0
        L[i, i] += 1.0
        L[j, j] += 1.0
    return L


def reference_color_round(X_old, gamma, edges, colors, classes, rho, kernel):
    """One step of color-scheduled consensus ADMM, class by class.

    Classes run in order. The nodes of a class read each neighbor j's
    X_new[j] when j's color is lower than theirs (already updated this
    round) and X_old[j] otherwise: those rows, picked by color, are summed
    by one product with the class's adjacency rows, as the stepper sums
    them (a loop over the neighbors rounds differently on some BLAS kernel
    sets). Node p forms v_p = gamma_p - rho * sum and calls
    kernel(p, P * v_p, P * D_p * rho / 2) for its new value. Afterwards
    every gamma_p absorbs rho * sum_j (x_p - x_j). Returns (X_new,
    gamma_new).
    """
    P = X_old.shape[0]
    laplacian = laplacian_oracle(P, edges)
    degrees = np.diag(laplacian)
    adjacency = np.diag(degrees) - laplacian
    X_new = X_old.copy()
    for cls in classes:
        fresh = np.array([colors[j] < colors[cls[0]] for j in range(P)])
        sums = adjacency[list(cls)] @ np.where(fresh[:, None], X_new, X_old)
        for p, acc in zip(cls, sums):
            v = gamma[p] - rho * acc
            X_new[p] = kernel(p, P * v, P * degrees[p] * rho / 2.0)
    return X_new, gamma + rho * (degrees[:, None] * X_new - adjacency @ X_new)


def ascending_rho_sweep(grid, config, problem, graph, coloring=None, rule=None):
    """The capped rho sweep in the caller's grid order (ascending for
    RHO_GRID), one run per grid entry, repeats included.

    Each weight runs with its budget capped at the fewest steps to the
    finest target seen so far and is ranked by the library's key
    (unreached targets, steps, rho). traces keeps the last run of each
    weight. Returns (result, communication steps executed by all runs).
    """
    rule = rule or nl.StopRule()
    result = SweepResult(best_rho=float("nan"), best_trace=None)
    best_key = None
    cap = rule.max_comm_steps
    executed = 0
    for rho in (float(r) for r in grid):
        trace = nl.run(
            replace(config, rho=rho), problem, graph, coloring,
            nl.StopRule(targets=rule.targets, max_comm_steps=cap),
        )
        executed += trace.comm_steps
        result.traces[rho] = trace
        key = _achieved(trace, rule.targets) + (rho,)
        if best_key is None or key < best_key:
            best_key = key
            result.best_rho = rho
            result.best_trace = trace
        if rule.finest in trace.steps_to_accuracy:
            cap = min(cap, trace.steps_to_accuracy[rule.finest])
    return result, executed


def solve_regularized_bp(A, b, delta: float, tol: float = 1e-9, max_iter: int = 100_000):
    """Minimizer of ||x||_1 + (delta/2)||x||^2 subject to A x = b.

    The centralized oracle's splitting with the elastic prox in place of
    the shrinkage: x projects z - u onto {Ax = b} (a Cholesky solve with
    AA'), z = shrink(x + u, 1) / (1 + delta) and u accumulates x - z, until
    the split variables agree and z has settled, both to 0.1 tol scaled by
    1 + ||b||_inf. For small delta this selects the least-2-norm minimum-l1
    solution.
    """
    if not delta > 0:
        raise nl.InputError("delta must be positive")
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    gram = cho_factor(A @ A.T)
    z, u = np.zeros(A.shape[1]), np.zeros(A.shape[1])
    scale = 1.0 + float(np.abs(b).max(initial=0.0))
    for _ in range(max_iter):
        w = z - u
        x = w - A.T @ cho_solve(gram, A @ w - b)
        z_new = np.sign(x + u) * np.maximum(np.abs(x + u) - 1.0, 0.0) / (1.0 + delta)
        u += x - z_new
        settled = max(np.abs(x - z_new).max(), np.abs(z_new - z).max()) <= 0.1 * tol * scale
        z = z_new
        if settled:
            return x
    raise RuntimeError(f"regularized solver missed tol={tol} in {max_iter} iterations")


@st.composite
def connected_graphs(draw, max_nodes: int = 8):
    """A random connected graph on 2..max_nodes nodes: every node after the
    first joins an earlier one (a random spanning tree), and each other
    node pair is an edge or not."""
    P = draw(st.integers(2, max_nodes))
    tree = [(draw(st.integers(0, p - 1)), p) for p in range(1, P)]
    pairs = [(i, j) for i in range(P) for j in range(i + 1, P)]
    return nl.Graph.from_edges(P, tree + [e for e in pairs if draw(st.booleans())])
