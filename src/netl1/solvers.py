"""Distributed solver state machines.

Every algorithm advances in communication steps, and every step is one
sweep over the kind's node groups in order: the color classes for
color-scheduled consensus ADMM (row and column variants), single nodes in
index order for the nonlinear Gauss-Seidel inner loop of the multiplier
method, and one group of all nodes for the synchronous methods (the
edge-variable ADMM baseline, consensus subgradient, the diagonal quadratic
approximation inner loop and the FISTA inner loop of the double Nesterov
scheme). Each group reads its neighbors' latest values through one product
with the graph's adjacency matrix; each of its nodes then forms its terms
(v, c), and the group's node problems are solved in one call (the row
kernel solves a wide group's nodes in lockstep). A per-kind update follows
the sweep: the dual aggregates of the ADMM variants, damping or momentum
for the inner loops, and the outer dual updates of the double-looped
methods.
Single-looped algorithms consume one step per outer iteration;
double-looped ones consume one step per inner iteration and none for
their outer dual updates.

The multipliers lambda_ij belong to the edges (i, j), i < j, but node p
only ever reads their signed sum gamma_p over its own edges (+lambda_pj,
-lambda_ip). Every dual update is linear in lambda, so every kind keeps
the node sums gamma (P, L) and no edge-indexed state: a step
lambda_ij += rho (x_i - x_j) is gamma_p += rho sum_j (x_p - x_j).

All row algorithms minimize (1/P) sum_p ||x_p||_1 subject to the per-node
constraints A_p x_p = b_p plus edge consensus. The per-node subproblems are
mapped onto the shared kernel min ||x||_1 + v'x + c||x||^2 s.t. Ax = b by
scaling (v, c) by P, which leaves the minimizer unchanged.

Node ids never decide freshness directly; the scheduling discipline is that
node p reads the neighbor value produced in the current step exactly when
the neighbor's group precedes p's group (a lower color, or an already swept
node in a Gauss-Seidel pass). Nodes of one group share no edges, so a
group's neighbor sums can be taken once, when the group starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .graphs import Coloring, Graph, is_proper
from .linalg import InputError, affine_projection
from .nodeprob import (
    BBConfig,
    ColSubproblem,
    RowGroup,
    RowSubproblem,
    solve_col_node,
    solve_row_node,
)
from .problems import ProblemInstance
from .linalg import partition as partition_blocks

ROW_KINDS = ("dadmm_row", "dlasso", "subgradient", "mm_ngs", "mm_dqa", "dn")
COLUMN_KINDS = ("dadmm_col",)
ALL_KINDS = ROW_KINDS + COLUMN_KINDS


@dataclass
class SolverConfig:
    """Algorithm selection and tuning knobs.

    rho is the augmented-Lagrangian weight (unused by the subgradient);
    delta the column-partition regularization; inner_tol_rel and inner_cap
    control the inner loops of the double-looped methods (the inner loop
    stops when the sweep-over-sweep iterate change falls below
    inner_tol_rel * (1 + ||b||_inf) or after inner_cap steps).
    """

    kind: str
    rho: float = 1.0
    delta: float = 1e-3
    bb: BBConfig = field(default_factory=lambda: BBConfig(grad_tol=1e-8))
    inner_tol_rel: float = 1e-6
    inner_cap: int = 50

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise InputError(f"unknown solver kind {self.kind!r}; expected one of {ALL_KINDS}")
        if not (np.isfinite(self.rho) and np.isfinite(self.delta)):
            raise InputError("rho and delta must be finite")
        if self.kind != "subgradient" and self.rho <= 0:
            raise InputError("rho must be positive")
        if self.kind == "dadmm_col" and self.delta <= 0:
            raise InputError("delta must be positive")
        if self.inner_cap < 1:
            raise InputError("inner_cap must be at least 1")


@dataclass
class NodeStates:
    """Stacked per-node state: primal iterates and dual accumulators are
    (P, L) arrays (L = n for row algorithms, m for the column variant);
    fista_y holds the FISTA momentum points of dn and is None otherwise."""

    primal: np.ndarray
    gamma: np.ndarray
    fista_y: np.ndarray | None = None

    @classmethod
    def zeros(cls, n_nodes: int, length: int) -> "NodeStates":
        return cls(primal=np.zeros((n_nodes, length)), gamma=np.zeros((n_nodes, length)))


@dataclass
class RoundInfo:
    """Per-communication-step bookkeeping: total node kernel evaluations
    (Newton for the row kinds, BB for the column kind) and the number of
    solves that hit their iteration cap (a group solve counts
    once however many of its nodes hit it)."""

    bb_iterations: int = 0
    flagged: int = 0

    def absorb(self, solution):
        self.bb_iterations += solution.iterations
        if not solution.converged:
            self.flagged += 1


# ---------------------------------------------------------------------------
# node terms: (stepper, step index, group, neighbor sums of the group, swept
# array) -> the group's linear terms V and coefficients c, one per node


def _consensus_terms(st: "Stepper", k, group, S, X):
    """Color-scheduled ADMM and both multiplier-method inner loops: node p
    solves min (1/P)||x||_1 + v_p'x + (D_p rho / 2)||x||^2 s.t. A_p x = b_p
    with v_p = gamma_p - rho * sum_j x_j over its neighbors' latest values."""
    P, rho = st.graph.n_nodes, st.config.rho
    return P * (st.states.gamma[group] - rho * S), P * st.graph.degrees[group] * rho / 2.0


def _column_terms(st: "Stepper", k, group, S, Y):
    """Column variant: the same v_p recursion over the length-m dual
    estimates y_p; the column kernel takes v_p and D_p rho / 2 unscaled."""
    rho = st.config.rho
    return st.states.gamma[group] - rho * S, st.graph.degrees[group] * rho / 2.0


def _dlasso_terms(st: "Stepper", k, group, S, X):
    """Edge-variable ADMM baseline, all nodes at once from the previous
    iterates. Eliminating the per-edge averages z_ij = (x_i + x_j)/2 leaves
    v_p = gamma_p - rho * (D_p x_p + sum_j x_j) and the quadratic
    coefficient rho * D_p, twice the color-scheduled variant's."""
    P, rho, D = st.graph.n_nodes, st.config.rho, st.graph.degrees[group]
    return P * (st.states.gamma[group] - rho * (S + D[:, None] * X[group])), P * rho * D


def _subgradient_terms(st: "Stepper", k, group, S, X):
    """Consensus subgradient with diminishing step 1/(k+1): each node
    averages itself with its neighbors using weights 1/(D_p + 1) and takes
    an l1 subgradient step there (zero entries contribute zero); the node
    then projects the point onto {x : A_p x = b_p}. The 1/P objective weight
    is absorbed into the step sequence, which stays square summable but not
    summable; with the weight kept on the subgradient the method crawls an
    order of magnitude slower at these scales."""
    if k < 1:
        raise InputError("subgradient iteration index starts at 1")
    W = (X[group] + S) / (st.graph.degrees[group, None] + 1.0)
    return W - (1.0 / (k + 1.0)) * np.sign(W), np.zeros(len(group))


def _fista_terms(st: "Stepper", k, group, S, Y):
    """One FISTA iteration of dn at the momentum points Y: the smooth part
    has per-node gradient gamma_p + rho D_p y_p - rho sum_j y_j, and the
    proximal step solves the shared kernel with v = -u_p/alpha and
    c = 1/(2 alpha) for u = y - alpha * gradient."""
    P, rho, alpha = st.graph.n_nodes, st.config.rho, st.alpha
    grad = st.states.gamma[group] + rho * st.graph.degrees[group, None] * Y[group] - rho * S
    U = Y[group] - alpha * grad
    return P * (-U / alpha), np.full(len(group), P / (2.0 * alpha))


# ---------------------------------------------------------------------------
# group solves: (stepper, the group's stacked blocks, V, C) -> (the group's
# new values, solutions to count)


def _row_group(st: "Stepper", rows: RowGroup, V, C):
    """One kernel call per group: the nodes of a group share no edges, so
    their problems are independent."""
    solution = solve_row_node(rows, V, C, st.config.bb)
    return solution.x, (solution,)


def _column_group(st: "Stepper", blocks, V, Q):
    """min psi_p(y) + (v_p + b/P)'y + q||y||^2 per node, unconstrained: every
    node knows b, and each transmits y_p (length m) instead of a length-n
    iterate."""
    P, b, bb = st.graph.n_nodes, st.problem.b, st.config.bb
    solutions = [solve_col_node(sp, v, b, P, q, bb) for sp, v, q in zip(blocks, V, Q)]
    return [solution.y for solution in solutions], solutions


def _projection_group(st: "Stepper", rows: RowGroup, points, _):
    return [affine_projection(sp.A, sp.b, sp.gram, point)
            for sp, point in zip(rows.blocks, points)], ()


# ---------------------------------------------------------------------------
# updates after the sweep, and the outer loops of the double-looped kinds


def _disagreements(graph: Graph, X: np.ndarray) -> np.ndarray:
    """sum_j (x_p - x_j) over each node's neighbors, the rows the dual
    aggregates absorb; they are antisymmetric per edge, so aggregates that
    start at zero always sum to zero. The sums are taken as D X - Adj X
    rather than L X so that each neighbor sum is formed on its own, in
    index order."""
    return graph.degrees[:, None] * X - graph.adjacency_matrix @ X


def _admm_update(st: "Stepper", X):
    st.states.primal = X
    st.states.gamma += st.config.rho * _disagreements(st.graph, X)


def _replace_primal(st: "Stepper", X):
    st.states.primal = X


def _multiplier_update(st: "Stepper", X):
    """Multiplier method: once the inner loop has finished, one dual ascent
    step on the multipliers."""
    X_prev, st.states.primal = st.states.primal, X
    if st.inner_finished(X_prev):
        mm_outer_update(st.states, st.graph, st.config.rho)


def _dqa_update(st: "Stepper", U):
    """Diagonal quadratic approximation: the candidate blocks u_p are
    damped, x_p <- tau u_p + (1 - tau) x_p with tau = 1/P."""
    tau = 1.0 / st.graph.n_nodes
    _multiplier_update(st, tau * U + (1.0 - tau) * st.states.primal)


def _dn_update(st: "Stepper", X):
    """FISTA momentum with coefficient (t-1)/(t+2) of the 1-based index t of
    the inner iterate just produced (zero at t = 1); once the inner loop has
    finished, the accelerated outer update, and the next inner loop starts
    its momentum at the current iterates."""
    X_prev, st.states.primal = st.states.primal, X
    momentum = (st.t_inner - 1.0) / (st.t_inner + 2.0)
    st.states.fista_y = X + momentum * (X - X_prev)
    if st.inner_finished(X_prev):
        nesterov_outer_update(st.lam_sums, st.states, st.graph, st.config.rho, st.k_outer)
        st.k_outer += 1
        st.states.fista_y = X.copy()


def mm_outer_update(states: NodeStates, graph: Graph, rho: float) -> None:
    """Dual gradient ascent once an inner loop has finished: the edge
    multipliers take lambda_{i,j} += rho * (x_i - x_j), and each node keeps
    only its aggregate gamma_p of the multipliers on its edges, so the step
    is the ADMM dual step on gamma."""
    states.gamma += rho * _disagreements(graph, states.primal)


def nesterov_outer_update(
    lam_sums: np.ndarray, states: NodeStates, graph: Graph, rho: float, k_outer: int
) -> None:
    """Accelerated dual update in node space, in place.

    The edge multipliers lambda take a gradient step at their extrapolation
    eta (the point the finished inner loop solved at), and the new
    extrapolation uses the momentum coefficient (k-1)/(k+2) of the 1-based
    outer index k. Both recursions are linear, so each node keeps only its
    aggregates: lam_sums holds the node sums of lambda and states.gamma,
    which the inner loops read, those of eta.
    """
    stepped = states.gamma + rho * _disagreements(graph, states.primal)
    momentum = (k_outer - 1.0) / (k_outer + 2.0)
    states.gamma = stepped + momentum * (stepped - lam_sums)
    lam_sums[:] = stepped


def _dn_setup(st: "Stepper"):
    """The FISTA step size is 1/(rho * lambda_max(L)) for the graph
    Laplacian L = D - Adj; the node sums of the multipliers and of their
    extrapolation start at zero."""
    laplacian = np.diag(st.graph.degrees.astype(float)) - st.graph.adjacency_matrix.toarray()
    st.alpha = 1.0 / (st.config.rho * np.linalg.eigvalsh(laplacian)[-1])
    st.lam_sums = np.zeros_like(st.states.primal)
    st.k_outer = 1
    st.states.fista_y = np.zeros_like(st.states.primal)


# ---------------------------------------------------------------------------
# the kind table and the stepper


@dataclass(frozen=True)
class KindSpec:
    """How a solver kind takes one communication step: the node groups it
    sweeps in order, how a group's node terms (v, c) are formed, how the
    group's node problems are solved, and the update after the sweep. The
    sweep starts from the NodeStates field named by source; setup adds the
    kind's own state to a new stepper."""

    groups: Callable[[Graph, Coloring], tuple]
    terms: Callable
    solve: Callable
    update: Callable
    source: str = "primal"
    setup: Callable = lambda st: None


def _color_classes(graph, coloring):
    return coloring.classes


def _single_nodes(graph, coloring):
    return tuple((p,) for p in range(graph.n_nodes))


def _all_nodes(graph, coloring):
    return (tuple(range(graph.n_nodes)),)


KINDS = {
    "dadmm_row": KindSpec(_color_classes, _consensus_terms, _row_group, _admm_update),
    "dadmm_col": KindSpec(_color_classes, _column_terms, _column_group, _admm_update),
    "dlasso": KindSpec(_all_nodes, _dlasso_terms, _row_group, _admm_update),
    "subgradient": KindSpec(_all_nodes, _subgradient_terms, _projection_group, _replace_primal),
    "mm_ngs": KindSpec(_single_nodes, _consensus_terms, _row_group, _multiplier_update),
    "mm_dqa": KindSpec(_all_nodes, _consensus_terms, _row_group, _dqa_update),
    "dn": KindSpec(_all_nodes, _fista_terms, _row_group, _dn_update, source="fista_y",
                   setup=_dn_setup),
}


class Stepper:
    """One run of one solver kind; step(k) advances one communication step.

    blocks holds the node problems (col_blocks too for the column variant,
    None otherwise) and group_blocks each group's, as a RowGroup for the
    row kinds; dn adds its multiplier sums lam_sums, the FISTA step
    size alpha and the outer counter k_outer.
    """

    def __init__(self, config, problem, graph, coloring, blocks):
        self.config = config
        self.problem = problem
        self.graph = graph
        self.spec = KINDS[config.kind]
        self.blocks = blocks
        self.col_blocks = blocks if config.kind in COLUMN_KINDS else None
        length = problem.m if self.col_blocks is not None else problem.n
        self.states = NodeStates.zeros(graph.n_nodes, length)
        # each group's node indices with its rows of the adjacency matrix,
        # and its node problems (row blocks stacked once)
        groups = self.spec.groups(graph, coloring)
        self.groups = [(np.array(group), graph.adjacency_matrix[list(group)]) for group in groups]
        pack = list if self.col_blocks is not None else RowGroup
        self.group_blocks = [pack([blocks[p] for p in group]) for group in groups]
        self.inner_tol = config.inner_tol_rel * (1.0 + float(np.abs(problem.b).max()))
        self.t_inner = 0
        self.spec.setup(self)

    def inner_finished(self, X_prev: np.ndarray) -> bool:
        """Whether the inner loop of a double-looped kind has finished: the
        iterate moved by at most inner_tol, or the loop reached inner_cap
        steps. A finished loop restarts its count."""
        change = float(np.abs(self.states.primal - X_prev).max())
        if change <= self.inner_tol or self.t_inner >= self.config.inner_cap:
            self.t_inner = 0
            return True
        return False

    def step(self, k: int) -> RoundInfo:
        spec, info = self.spec, RoundInfo()
        self.t_inner += 1
        X = getattr(self.states, spec.source).copy()
        for (group, adjacency), blocks in zip(self.groups, self.group_blocks):
            V, C = spec.terms(self, k, group, adjacency @ X, X)
            X[group], solutions = spec.solve(self, blocks, V, C)
            for solution in solutions:
                info.absorb(solution)
        spec.update(self, X)
        return info


def make_stepper(
    config: SolverConfig,
    problem: ProblemInstance,
    graph: Graph,
    coloring: Coloring | None = None,
) -> Stepper:
    """Build the stepper for a configured algorithm on a partitioned problem.

    Rejects degenerate setups up front: fewer than two nodes or isolated
    nodes (a zero degree would destroy the strict convexity of the node
    subproblems), missing or mismatched partitions, and improper colorings.
    """
    if graph.n_nodes < 2:
        raise InputError("distributed solvers need at least 2 nodes")
    if int(graph.degrees.min()) == 0:
        raise InputError("graph has isolated nodes; every node needs a neighbor")
    if problem.partition is None:
        raise InputError("problem has no partition descriptor")
    if problem.partition.n_nodes != graph.n_nodes:
        raise InputError("partition node count does not match the graph")

    expected = "column" if config.kind in COLUMN_KINDS else "row"
    if problem.partition.kind != expected:
        raise InputError(f"{config.kind} needs a {expected} partition")

    if KINDS[config.kind].groups is _color_classes:
        if coloring is None:
            raise InputError("color-scheduled solvers need a coloring")
        if len(coloring.colors) != graph.n_nodes or not is_proper(graph, coloring):
            raise InputError("coloring is not a proper coloring of the graph")

    parts = partition_blocks(problem.A, problem.b, problem.partition)
    if expected == "column":
        blocks = [ColSubproblem(A_p, config.delta) for A_p in parts]
    else:
        blocks = [RowSubproblem(A_p, b_p) for A_p, b_p in parts]
    return Stepper(config, problem, graph, coloring, blocks)
