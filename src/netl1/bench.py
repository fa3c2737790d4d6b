"""Synthetic instances, the certified centralized reference solver, and
the experiment drivers (penalty-weight sweeps and the network-size scaling
study).

Instances use i.i.d. Gaussian matrices with zero mean and variance
1/sqrt(m) and a planted sparse signal with +-1 entries, so b = A x0 holds
exactly and, at the default sparsity m/8, the planted signal is the unique
minimum-l1 solution with overwhelming probability.

The centralized oracle runs a two-block splitting iteration alternating
projection onto {Ax = b} with componentwise shrinkage, and certifies
optimality at exit through the dual feasibility of the l1 problem
(a vector lam with ||A'lam||_inf <= 1 and b'lam matching ||x||_1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .engine import RunTrace, StopRule, run
from .graphs import Coloring, Graph, _is_integer, generate_network, greedy_coloring, is_connected
from .linalg import InputError, as_matrix, as_vector, gram_factorization
from .problems import ProblemInstance
from .solvers import SolverConfig


class ToleranceError(RuntimeError):
    """Oracle failed to certify within its iteration budget; carries the
    best duality gap seen."""

    def __init__(self, message: str, best_gap: float):
        super().__init__(message)
        self.best_gap = best_gap


@dataclass(frozen=True)
class InstanceSpec:
    """Synthetic instance dimensions: m equations, n unknowns (m < n),
    P nodes, sparsity k, and the RNG seed (non-negative), all integers."""

    m: int
    n: int
    P: int
    k: int
    seed: int = 0

    def __post_init__(self):
        for name in ("m", "n", "P", "k", "seed"):
            if not _is_integer(getattr(self, name)):
                raise InputError(f"InstanceSpec.{name} must be an integer")
        if self.seed < 0:
            raise InputError("InstanceSpec.seed must be non-negative")
        if self.m >= self.n:
            raise InputError("instances need m < n")
        if self.k < 1 or 2 * self.k > self.m:
            raise InputError("sparsity k must satisfy 1 <= k <= m/2")
        if self.P < 1:
            raise InputError("node count must be positive")


def gen_instance(spec: InstanceSpec, kind: str = "row") -> ProblemInstance:
    """Draw a Gaussian instance with a planted k-sparse +-1 signal.

    The matrix entries have variance 1/sqrt(m); b is computed as A x0
    exactly. The partition splits rows (kind="row", P must divide m) or
    columns (kind="column", P must divide n) evenly. Deterministic per
    seed; stages 0/1/2 of the seed stream draw the matrix, the support and
    the signs.
    """
    sigma = spec.m ** (-0.25)  # variance 1/sqrt(m)
    A = np.random.default_rng([spec.seed, 0]).normal(0.0, sigma, size=(spec.m, spec.n))
    support = np.random.default_rng([spec.seed, 1]).choice(spec.n, size=spec.k, replace=False)
    signs = np.random.default_rng([spec.seed, 2]).choice([-1.0, 1.0], size=spec.k)
    x0 = np.zeros(spec.n)
    x0[support] = signs
    problem = ProblemInstance(A=A, b=A @ x0, x_ref=None)
    return problem.with_partition(kind, spec.P)


#: The oracle's iteration budget.
ORACLE_MAX_ITER = 100_000


def solve_bp_centralized(A, b, tol: float = 1e-9):
    """Certified minimum-l1 solution of A x = b (A full row rank).

    A splitting iteration with unit penalty weight: x is the projection of
    z - u onto {Ax = b}, z the shrinkage of x + u, and u accumulates x - z.
    Whenever the split variables agree and z has settled, both to 0.1 tol
    scaled by 1 + ||b||_inf, the dual certificate is checked (at the first
    9 iterations and every 10th): lam solving A'lam ~ u must satisfy
    ||A'lam||_inf <= 1 + 10 tol and b'lam >= ||x||_1 - 10 tol. A b that is
    not a finite vector of length m, or a tol that is not positive, raises
    InputError before the first iteration, and a budget of ORACLE_MAX_ITER
    iterations run out raises ToleranceError with the best gap.
    """
    A = as_matrix(A)
    b = as_vector(b, A.shape[0], "b")
    inverse = gram_factorization(A)
    if not tol > 0:
        raise InputError(f"oracle tolerance must be positive, got {tol}")
    z, u = np.zeros(A.shape[1]), np.zeros(A.shape[1])
    scale = 1.0 + float(np.abs(b).max(initial=0.0))
    best_gap = np.inf
    for it in range(1, ORACLE_MAX_ITER + 1):
        w = z - u
        x = w - A.T @ (inverse @ (A @ w - b))
        w = x + u
        z_new = np.sign(w) * np.maximum(np.abs(w) - 1.0, 0.0)
        u += x - z_new
        primal = float(np.abs(x - z_new).max())
        dual = float(np.abs(z_new - z).max())
        z = z_new
        if max(primal, dual) <= 0.1 * tol * scale and (it % 10 == 0 or it < 10):
            lam = inverse @ (A @ u)
            corr = float(np.abs(A.T @ lam).max()) - 1.0
            gap = float(np.abs(x).sum() - b @ lam)
            best_gap = min(best_gap, abs(gap))
            if corr <= 10.0 * tol and gap <= 10.0 * tol:
                return x
    raise ToleranceError(
        f"centralized solver missed tol={tol} after {ORACLE_MAX_ITER} iterations", best_gap
    )


# ---------------------------------------------------------------------------
# network bank and experiment drivers

#: The seven benchmark network models: (name, model, parameters).
NETWORK_MODELS = (
    ("erdos_renyi_sparse", "erdos_renyi", {"p": 0.25}),
    ("erdos_renyi_dense", "erdos_renyi", {"p": 0.75}),
    ("watts_strogatz_4", "watts_strogatz", {"n": 4, "p": 0.6}),
    ("watts_strogatz_2", "watts_strogatz", {"n": 2, "p": 0.8}),
    ("barabasi_albert", "barabasi_albert", {}),
    ("geometric", "geometric", {"d": 0.75}),
    ("lattice", "lattice", {}),
)

#: Penalty-weight grid for best-of sweeps.
RHO_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0)

#: Fixed penalty weights used when no sweep is run.
FIXED_RHO = {
    "dadmm_row": 1.0,
    "dadmm_col": 1.0,
    "dlasso": 1.0,
    "mm_ngs": 10.0,
    "mm_dqa": 10.0,
    "dn": 10.0,
    "subgradient": 1.0,
}


#: How many seeds connected_network tries.
CONNECT_TRIES = 50


def connected_network(model: str, P: int, seed: int = 0, **params) -> Graph:
    """Generate a network, retrying with incremented seeds until connected.

    The generators themselves never retry; this is the bench-layer policy.
    Watts-Strogatz neighbor counts are clamped to P-1 so small networks
    remain constructible.
    """
    if model == "watts_strogatz" and "n" in params:
        params = dict(params)
        params["n"] = min(params["n"], P - 1)
        if params["n"] % 2 == 1 and P % 2 == 1:
            params["n"] = max(1, params["n"] - 1)
    for attempt in range(CONNECT_TRIES):
        g = generate_network(model, P, seed + attempt, **params)
        if is_connected(g):
            return g
    raise InputError(f"no connected {model} network with P={P} in {CONNECT_TRIES} tries")


@dataclass
class SweepResult:
    best_rho: float
    best_trace: RunTrace
    traces: dict[float, RunTrace] = field(default_factory=dict)


def _achieved(trace: RunTrace, targets) -> tuple[int, int]:
    """Ranking key: (number of unreached targets, steps to the finest
    reached target); lexicographically smaller is better."""
    reached = [t for t in targets if t in trace.steps_to_accuracy]
    if not reached:
        return len(targets), trace.comm_steps + 1
    finest = min(reached)
    return len(targets) - len(reached), trace.steps_to_accuracy[finest]


def rho_sweep(
    grid,
    config: SolverConfig,
    problem: ProblemInstance,
    graph: Graph,
    coloring: Coloring | None = None,
    rule: StopRule | None = None,
) -> SweepResult:
    """Run one algorithm for every penalty weight in the grid and keep the
    best.

    Best means: reaches the finest accuracy target in the fewest
    communication steps; runs reaching fewer targets rank behind, and exact
    ties break toward the smaller weight. Every weight must be positive and
    finite; a repeated weight runs once, and traces holds one run per
    weight in grid order.

    The weights run from the grid's median (the lower one for an even
    count) outward, in ascending distance |log(rho) - log(median)|, equal
    distances smaller weight first; on RHO_GRID the order is 0.1, 0.01, 1,
    0.001, 10. Once some weight has reached the finest target in s steps,
    later weights run with their budget capped at s below the current best
    weight and at s - 1 above it, since ties break toward the smaller
    weight and a larger one wins only in fewer than s steps (a budget is at
    least 1 step). A capped run appears in traces as a prefix of its
    full-budget run.

    The winner and its trace are those of full-budget runs of every weight:
    a cap never cuts a weight before the steps it would need to win, so
    the winner runs exactly as it would alone, and a weight that reaches
    the finest target within its cap is ranked against the current best by
    the same key. The order only sets the cost. A tuned grid's winner
    usually sits near its middle, and the slow extreme weights then stop
    at or just below the winner's steps. In the worst case the median never
    reaches the finest target and runs the whole budget, as the first
    weight of an ascending sweep does.
    """
    grid = tuple(float(r) for r in grid)
    if not grid:
        raise InputError("rho grid must be nonempty")
    if not all(0.0 < r < np.inf for r in grid):
        raise InputError(f"rho grid values must be positive and finite, got {grid}")
    rule = rule or StopRule()
    rhos = sorted(set(grid))
    log_median = np.log(rhos[(len(rhos) - 1) // 2])
    result = SweepResult(best_rho=float("nan"), best_trace=None)
    best_key = None
    cap, reached = rule.max_comm_steps, False
    for rho in sorted(rhos, key=lambda r: (abs(np.log(r) - log_median), r)):
        budget = max(1, cap - 1 if reached and rho > result.best_rho else cap)
        trace = run(
            replace(config, rho=rho), problem, graph, coloring,
            StopRule(targets=rule.targets, max_comm_steps=budget),
        )
        result.traces[rho] = trace
        key = _achieved(trace, rule.targets) + (rho,)
        if best_key is None or key < best_key:
            best_key = key
            result.best_rho = rho
            result.best_trace = trace
        if rule.finest in trace.steps_to_accuracy:
            reached = True
            cap = min(cap, trace.steps_to_accuracy[rule.finest])
    result.traces = {rho: result.traces[rho] for rho in grid}
    return result


@dataclass
class ScaleResult:
    """Rows of (P, steps or -1 per algorithm) plus fitted log-log exponents."""

    p_values: list[int]
    steps: dict[str, list[int]]
    exponents: dict[str, float]

    def to_csv(self, path) -> None:
        kinds = sorted(self.steps)
        lines = ["P," + ",".join(kinds)]
        for idx, P in enumerate(self.p_values):
            lines.append(f"{P}," + ",".join(str(self.steps[k][idx]) for k in kinds))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _fit_exponent(p_values, steps) -> float:
    pts = [(P, s) for P, s in zip(p_values, steps) if s > 0]
    if len(pts) < 2:
        return float("nan")
    logp = np.log([P for P, _ in pts])
    logs = np.log([s for _, s in pts])
    slope, _ = np.polyfit(logp, logs, 1)
    return float(slope)


#: The algorithms the scaling study compares.
SCALE_KINDS = ("dadmm_row", "dlasso")


def scale_experiment(
    m: int,
    n: int,
    k: int,
    p_values,
    seed: int = 0,
    rho: float = 1.0,
    target: float = 1e-3,
    max_comm_steps: int = 10_000,
) -> ScaleResult:
    """Communication steps to a fixed accuracy as the network grows.

    One Gaussian instance (m, n, k, seed) is shared by all network sizes;
    each P gets a connected Watts-Strogatz network with 4 neighbors and
    rewiring probability 0.6 (neighbor count clamped for tiny P), and each
    of SCALE_KINDS runs until `target` relative error or the step budget.
    Cells that exhaust the budget are recorded as -1.
    """
    if not p_values:
        raise InputError("the scaling study needs at least one network size")
    for P in p_values:  # all checked before the oracle solve and the first run
        if not _is_integer(P) or P < 2 or m % P != 0:
            raise InputError(f"network size P={P} must be an integer of at least 2 dividing m={m}")
    spec = InstanceSpec(m=m, n=n, P=p_values[0], k=k, seed=seed)
    base = gen_instance(spec)
    x_ref = solve_bp_centralized(base.A, base.b, tol=1e-10)
    rule = StopRule(targets=(target,), max_comm_steps=max_comm_steps)

    result = ScaleResult(p_values=list(p_values), steps={kd: [] for kd in SCALE_KINDS},
                         exponents={})
    for P in p_values:
        problem = base.with_partition("row", P)
        problem.x_ref = x_ref
        g = connected_network("watts_strogatz", P, seed=seed, n=4, p=0.6)
        coloring = greedy_coloring(g)
        for kd in SCALE_KINDS:
            trace = run(SolverConfig(kind=kd, rho=rho), problem, g, coloring, rule)
            result.steps[kd].append(trace.steps_to_accuracy.get(target, -1))
    for kd in SCALE_KINDS:
        result.exponents[kd] = _fit_exponent(result.p_values, result.steps[kd])
    return result
