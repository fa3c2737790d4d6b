"""Run orchestration: iterate communication steps, record traces, stop.

A trace logs one record per communication step, plus the zero-initialized
state as step 0 before any communication. The error reported per step is
the maximum over nodes of ||x_p - x_ref|| / ||x_ref|| (conservative), with
node 0's series recorded alongside. For the column partition the global
estimate is the concatenation of the fragments x_p that the column kernel
kept (ColSubproblem.last_x), so the max and node-0 series coincide there.

Runs are deterministic functions of their inputs: node solves run in
sweep order and all reductions in a fixed order, so repeated runs give
byte-identical traces.
"""

from __future__ import annotations

import ctypes
import math
import sys
from array import array
from dataclasses import dataclass, field

import numpy as np

from .graphs import Coloring, Graph, greedy_coloring, is_connected
from .linalg import InputError, as_vector
from .nodeprob import psi_p
from .problems import ProblemInstance
from .solvers import SolverConfig, make_stepper


@dataclass
class StopRule:
    """Relative-error targets (positive, finite, decreasing) and the step
    budget (an integer)."""

    targets: tuple[float, ...] = (1e-2, 1e-5)
    max_comm_steps: int = 10_000

    def __post_init__(self):
        targets = tuple(float(t) for t in self.targets)
        if not targets or not all(0 < t < np.inf for t in targets):
            raise InputError("targets must be positive and finite")
        if any(a <= b for a, b in zip(targets, targets[1:])):
            raise InputError("targets must be strictly decreasing")
        if not isinstance(self.max_comm_steps, (int, np.integer)) or self.max_comm_steps < 1:
            raise InputError("max_comm_steps must be an integer of at least 1")
        object.__setattr__(self, "targets", targets)

    @property
    def finest(self) -> float:
        return self.targets[-1]


@dataclass
class RunTrace:
    """Per-communication-step series and the steps-to-accuracy summary.

    The series include the step-0 baseline, so each holds comm_steps + 1
    values. They are typed arrays, 8 bytes a value: array('d') for the four
    float series and array('q') for inner_iterations. They index, slice,
    sum and compare with each other as lists do; call .tolist() for JSON.
    steps_to_accuracy maps each requested target to the first step
    whose max relative error reached it (targets never reached are absent).
    run fills in everything after delta, so only the run's labels are
    constructor arguments.
    """

    solver: str
    rho: float
    delta: float | None
    comm_steps: int = field(init=False, default=0)
    max_rel_err: array = field(init=False, default_factory=lambda: array("d"))
    node0_rel_err: array = field(init=False, default_factory=lambda: array("d"))
    consensus_residual: array = field(init=False, default_factory=lambda: array("d"))
    objective: array = field(init=False, default_factory=lambda: array("d"))
    inner_iterations: array = field(init=False, default_factory=lambda: array("q"))
    steps_to_accuracy: dict[float, int] = field(init=False, default_factory=dict)
    converged: bool = field(init=False, default=False)
    flagged_rounds: int = field(init=False, default=0)

    def to_csv(self, path) -> None:
        """Write `step,max_rel_err,node0_rel_err,consensus_residual,objective`
        rows with 17 significant digits."""
        lines = ["step,max_rel_err,node0_rel_err,consensus_residual,objective"]
        for s in range(len(self.max_rel_err)):
            lines.append(
                f"{s},{self.max_rel_err[s]:.17g},{self.node0_rel_err[s]:.17g},"
                f"{self.consensus_residual[s]:.17g},{self.objective[s]:.17g}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def relative_error(x, x_ref) -> float:
    """||x - x_ref|| / ||x_ref|| in the Euclidean norm; rejects zero x_ref."""
    x = np.asarray(x, dtype=float)
    x_ref = np.asarray(x_ref, dtype=float)
    denom = np.linalg.norm(x_ref)
    if denom == 0.0:
        raise InputError("reference solution must be nonzero")
    return float(np.linalg.norm(x - x_ref) / denom)


def global_estimate(states, partition, x_ref, col_blocks=None):
    """Assemble the network's current global estimate.

    Row partitions: every node carries a full-length copy, and the copy
    farthest from the reference x_ref is returned (conservative reporting).
    Column partitions: the per-node fragments are concatenated in node
    order (col_blocks supplies the per-node data to map y_p to its
    fragment).
    """
    if partition.kind == "column":
        if col_blocks is None:
            raise InputError("column estimates need the per-node column blocks")
        return np.concatenate([psi_p(sp, y)[1] for sp, y in zip(col_blocks, states.primal)])
    X = states.primal
    return X[int(np.argmax(np.linalg.norm(X - x_ref, axis=1)))].copy()


def _hold_heap() -> None:
    """Fix glibc's malloc thresholds at the ceilings its dynamic rule can
    reach (arrays under 32 MB from the heap, its top trimmed only once
    64 MB lie free), so that no start-up heap layout makes every step give
    back and fault in again its temporaries; other C libraries keep theirs."""
    libc = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
    if hasattr(libc, "mallopt"):
        libc.mallopt.argtypes, libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def run(
    config: SolverConfig,
    problem: ProblemInstance,
    graph: Graph,
    coloring: Coloring | None = None,
    rule: StopRule | None = None,
) -> RunTrace:
    """Execute one algorithm until the finest accuracy target or the budget.

    The graph must be connected, and problem.x_ref must hold a nonzero
    reference solution; errors are measured against it at every step: the
    error of the global estimate (the worst node's copy for row
    partitions), node 0's error, the largest disagreement ||x_i - x_j||
    over the edges, and the l1 norm of the estimate. A start that already
    meets the finest target takes no step.
    """
    rule = rule or StopRule()
    if not is_connected(graph):
        raise InputError("the network must be connected")
    if problem.x_ref is None:
        raise InputError("a reference solution is required to trace errors")
    x_ref = as_vector(problem.x_ref, problem.n, "x_ref")  # it may be set after construction
    ref_norm = float(np.linalg.norm(x_ref))
    if ref_norm == 0.0:
        raise InputError("reference solution must be nonzero")

    if coloring is None:
        coloring = greedy_coloring(graph)

    _hold_heap()
    stepper = make_stepper(config, problem, graph, coloring)
    i, j = graph.endpoints
    trace = RunTrace(
        solver=config.kind,
        rho=config.rho,
        delta=config.delta if config.kind == "dadmm_col" else None,
    )

    def record(step: int, inner: int):
        X = stepper.states.primal
        if stepper.col_blocks is not None:
            estimate = np.concatenate([sp.last_x for sp in stepper.col_blocks])
            max_err = node0_err = float(np.linalg.norm(estimate - x_ref)) / ref_norm
        else:
            # global_estimate and relative_error in one pass over D = X - x_ref:
            # the node norms as np.linalg.norm(D, axis=1) takes them, and the
            # errors as the vector norm takes them, sqrt(d @ d)
            D = X - x_ref
            p = int(np.sqrt(np.add.reduce(D * D, axis=1)).argmax())
            max_err = math.sqrt(D[p] @ D[p]) / ref_norm
            node0_err = math.sqrt(D[0] @ D[0]) / ref_norm
            estimate = X[p]
        trace.max_rel_err.append(max_err)
        trace.node0_rel_err.append(node0_err)
        E = X.take(i, axis=0)  # the edges' differences, squared in place
        E -= X.take(j, axis=0)
        E *= E
        # sqrt is monotone, so this is the largest of the edges' norms
        trace.consensus_residual.append(math.sqrt(np.maximum.reduce(np.add.reduce(E, axis=1))))
        trace.objective.append(float(np.add.reduce(np.abs(estimate))))
        trace.inner_iterations.append(inner)
        for target in rule.targets:
            if max_err <= target and target not in trace.steps_to_accuracy:
                trace.steps_to_accuracy[target] = step
        return max_err

    err = record(0, 0)
    while err > rule.finest and trace.comm_steps < rule.max_comm_steps:
        trace.comm_steps += 1
        info = stepper.step(trace.comm_steps)
        if info.flagged:
            trace.flagged_rounds += 1
        err = record(trace.comm_steps, info.bb_iterations)
    trace.converged = err <= rule.finest
    return trace
