"""The benchmark's workloads: seeded inputs, the solve phase and its checks.

Every workload is one of the acceptance-criterion experiments. Its inputs
come from the workload's base instance and the benchmark seed: seed 0 is
the criterion instance itself, and any other seed draws a signed
permutation of the columns of A and sign flips of its rows (with b flipped
alike). Basis pursuit is invariant under these maps, so every seed asks
the solvers for the same mathematical work while the arrays the library
receives differ. Fresh Gaussian draws do not allow that: on the desk8
instance family, one solver's steps to target varied by up to 4x across
six seeds, far beyond any bound a timing could be held to.

The library sees only the generated arrays, networks and colorings, and is
called only through its public names on the `netl1` package, so that the
tracer can wrap them where this module looks them up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import netl1 as nl


@dataclass(frozen=True)
class Job:
    """One reported run: a solver at a fixed rho, or a sweep over RHO_GRID
    (rho None) whose best run is reported."""

    kind: str
    rho: float | None
    targets: tuple[float, ...]
    partition: str
    network: str
    max_steps: int = 10_000

    @property
    def finest(self) -> float:
        return self.targets[-1]


@dataclass(frozen=True)
class Workload:
    spec: nl.InstanceSpec
    networks: dict  # name -> (model, P, network seed, model parameters)
    jobs: tuple[Job, ...]


WORKLOADS = {
    # Criterion 3: the node kernel is ~89% of wall time, and the 2 color
    # classes of 32 one-row nodes are the widest case for per-class batching.
    "grid64_row": Workload(
        spec=nl.InstanceSpec(m=64, n=256, P=64, k=8, seed=0),
        networks={"lattice64": ("lattice", 64, 0, {})},
        jobs=(Job("dadmm_row", 1.0, (1e-2, 1e-5), "row", "lattice64"),),
    ),
    # Criterion 5 on Erdos-Renyi p=0.75: the only workload where the rho
    # sweep wastes work (the winner needs 27 of the 539 executed steps),
    # and 6 colors leave dadmm_row almost no batch width. The criterion's
    # dlasso sweep is left out: it more than doubled a repetition, to ~12 s,
    # so a 30 s run held two, and the run-to-run spread of solve_s reached
    # 0.18 on a busy host.
    "er10_sweep": Workload(
        spec=nl.InstanceSpec(m=40, n=160, P=10, k=5, seed=1),
        networks={"er10": ("erdos_renyi", 10, 2, {"p": 0.75})},
        jobs=(Job("dadmm_row", None, (1e-2, 1e-5), "row", "er10"),),
    ),
    # Criterion 4: outer dual updates over edge loops, sequential
    # Gauss-Seidel sweeps (no batch width) and the projection-bound
    # subgradient. mm_dqa is left out: it takes ~40 s alone, and mm_ngs
    # covers its outer update. The criterion-7 dadmm_col run is
    # left out too: its node solves take 900-1600 of the 2000 BB evaluations
    # allowed, and rounding alone pushes one over the cap on some seeds.
    "desk8_mixed": Workload(
        spec=nl.InstanceSpec(m=40, n=160, P=8, k=5, seed=3),
        networks={"ws8": ("watts_strogatz", 8, 0, {"n": 4, "p": 0.6})},
        jobs=(
            Job("mm_ngs", 10.0, (1e-2, 1e-3), "row", "ws8"),
            Job("dn", 10.0, (1e-2, 1e-3), "row", "ws8"),
            Job("subgradient", 1.0, (1e-1,), "row", "ws8"),
        ),
    ),
}


@dataclass
class Inputs:
    problems: dict  # partition kind -> ProblemInstance carrying x_ref
    networks: dict  # name -> (Graph, Coloring)


@dataclass
class Outcome:
    job: Job
    rho: float
    trace: nl.RunTrace  # the reported run
    traces: list  # every run executed for the job, the reported one included


def symmetric_image(A: np.ndarray, b: np.ndarray, seed: int):
    """Seed 0 returns the inputs; other seeds permute and sign-flip the
    columns and flip the signs of rows (and of b with them)."""
    if seed == 0:
        return A, b
    rng = np.random.default_rng([seed, 0x6E6C31])
    m, n = A.shape
    perm = rng.permutation(n)
    col_signs = rng.choice([-1.0, 1.0], size=n)
    row_signs = rng.choice([-1.0, 1.0], size=m)
    return row_signs[:, None] * A[:, perm] * col_signs, row_signs * b


def setup(workload: Workload, seed: int) -> Inputs:
    """Instance generation, certified oracle, networks and colorings."""
    spec = workload.spec
    base = nl.gen_instance(spec)
    A, b = symmetric_image(base.A, base.b, seed)
    x_ref = nl.solve_bp_centralized(A, b, tol=1e-10)
    problems = {
        kind: nl.ProblemInstance(A=A, b=b, x_ref=x_ref).with_partition(kind, spec.P)
        for kind in {job.partition for job in workload.jobs}
    }
    networks = {}
    for name, (model, P, net_seed, params) in workload.networks.items():
        graph = nl.connected_network(model, P, seed=net_seed, **params)
        networks[name] = (graph, nl.greedy_coloring(graph))
    return Inputs(problems=problems, networks=networks)


def solve_job(job: Job, inputs: Inputs) -> Outcome:
    """One job through the public run or sweep API."""
    problem = inputs.problems[job.partition]
    graph, coloring = inputs.networks[job.network]
    rule = nl.StopRule(targets=job.targets, max_comm_steps=job.max_steps)
    if job.rho is None:
        sweep = nl.rho_sweep(
            nl.RHO_GRID, nl.SolverConfig(kind=job.kind), problem, graph, coloring, rule
        )
        return Outcome(job, sweep.best_rho, sweep.best_trace, list(sweep.traces.values()))
    config = nl.SolverConfig(kind=job.kind, rho=job.rho)
    trace = nl.run(config, problem, graph, coloring, rule)
    return Outcome(job, job.rho, trace, [trace])


def solve(workload: Workload, inputs: Inputs) -> list[Outcome]:
    """The timed phase: every job of the workload in turn."""
    return [solve_job(job, inputs) for job in workload.jobs]


def counts(outcomes: list[Outcome]) -> dict:
    """The exact counts of one solve phase."""
    return {
        "comm_steps": sum(t.comm_steps for o in outcomes for t in o.traces),
        "steps_to_target": sum(
            o.trace.steps_to_accuracy.get(o.job.finest, o.trace.comm_steps) for o in outcomes
        ),
        "bb_evals": sum(sum(t.inner_iterations) for o in outcomes for t in o.traces),
    }


def outcome_failure(outcome: Outcome) -> str | None:
    """Why a reported run fails on its own trace: it missed its finest
    target, or its job had a step with a node solve that hit the BB cap."""
    job, trace = outcome.job, outcome.trace
    if job.finest not in trace.steps_to_accuracy:
        return f"{job.kind}: missed {job.finest:g} in {trace.comm_steps} steps"
    flagged = sum(t.flagged_rounds for t in outcome.traces)
    if flagged:
        return f"{job.kind}: {flagged} steps with flagged node solves"
    return None


def replay_failure(inputs: Inputs, outcome: Outcome) -> str | None:
    """Re-run a reported run step by step through the stepping API and check
    its final estimate against the certified oracle at the finest target.

    The replay must stop at the same step, spend the same BB evaluations
    and end at the same error as the engine's run; none of its node solves
    may hit the iteration cap.
    """
    job, trace = outcome.job, outcome.trace
    problem = inputs.problems[job.partition]
    graph, coloring = inputs.networks[job.network]
    config = nl.SolverConfig(kind=job.kind, rho=outcome.rho)
    stepper = nl.make_stepper(config, problem, graph, coloring)
    col_blocks = getattr(stepper, "col_blocks", None)
    bb_evals = flagged = 0
    err, k = np.inf, 0
    for k in range(1, job.max_steps + 1):
        info = stepper.step(k)
        bb_evals += info.bb_iterations
        flagged += info.flagged
        estimate = nl.global_estimate(stepper.states, problem.partition, problem.x_ref, col_blocks)
        err = nl.relative_error(estimate, problem.x_ref)
        if err <= job.finest:
            break
    if err > job.finest:
        return f"{job.kind}: replayed estimate at error {err:.3e} > {job.finest:g}"
    if flagged:
        return f"{job.kind}: {flagged} flagged node solves in the replay"
    if (k, bb_evals, err) != (trace.comm_steps, sum(trace.inner_iterations), trace.max_rel_err[-1]):
        return (
            f"{job.kind}: replay (steps {k}, evals {bb_evals}, error {err!r}) differs from "
            f"the run (steps {trace.comm_steps}, evals {sum(trace.inner_iterations)}, "
            f"error {trace.max_rel_err[-1]!r})"
        )
    return None
