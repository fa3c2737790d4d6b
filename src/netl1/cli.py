"""Command line interface.

Subcommands: gen-instance, gen-network, oracle, run, sweep-rho, scale.
Exit codes: 0 on success/convergence, 2 when a run exhausts its step
budget, 1 on input errors, rank-deficient blocks and oracle failures.
run and sweep-rho report a run's flagged_rounds (steps in which a node
solve hit its evaluation cap) when there are any; they leave the exit code
as it is.
"""

from __future__ import annotations

import argparse
import sys

from . import bench, engine, graphs, problems
from .linalg import FactorizationError, InputError
from .solvers import ROW_KINDS, SolverConfig

#: --algo names: the row kinds with dashes, and dadmm for both ADMM
#: variants (resolved against --partition).
ALGOS = ("dadmm",) + tuple(k.replace("_", "-") for k in ROW_KINDS if k != "dadmm_row")


def _load_run(args):
    """The run's kind, network, coloring (the file's, else greedy),
    partitioned problem (its reference solved if the file has none) and
    stop rule, which is read first."""
    if args.algo == "dadmm":
        kind = "dadmm_col" if args.partition == "column" else "dadmm_row"
    elif args.partition == "column":
        raise InputError(f"{args.algo} supports only the row partition")
    else:
        kind = args.algo.replace("-", "_")
    rule = engine.StopRule(targets=_parse_list(args, "targets"), max_comm_steps=args.max_steps)
    g, coloring = graphs.load_network(args.network)
    problem = problems.load_instance(args.instance).with_partition(args.partition, g.n_nodes)
    if problem.x_ref is None:
        problem.x_ref = bench.solve_bp_centralized(problem.A, problem.b, tol=args.oracle_tol)
    if coloring is None:
        coloring = graphs.greedy_coloring(g)
    return kind, g, coloring, problem, rule


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algo", required=True, choices=sorted(ALGOS))
    p.add_argument("--partition", default="row", choices=("row", "column"))
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--delta", type=float, default=1e-3)
    p.add_argument("--instance", required=True)
    p.add_argument("--network", required=True)
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--targets", default="1e-2,1e-5",
                   help="comma-separated decreasing relative-error targets")
    p.add_argument("--oracle-tol", type=float, default=1e-9)
    p.add_argument("--trace-out", default=None)


def cmd_gen_instance(args) -> int:
    spec = bench.InstanceSpec(m=args.m, n=args.n, P=args.P, k=args.k, seed=args.seed)
    problem = bench.gen_instance(spec, kind=args.partition)
    problems.save_instance(args.out, problem)
    print(f"wrote {args.m}x{args.n} instance (k={args.k}, P={args.P}) to {args.out}")
    return 0


def cmd_gen_network(args) -> int:
    names = graphs._MODELS[args.model][1]
    values = [t for t in args.param.split(",") if t.strip()]
    try:  # a wrong count of entries fails the strict zip
        params = {name: kind(value)
                  for (name, kind), value in zip(names.items(), values, strict=True)}
    except ValueError:
        raise InputError(f"--param: {args.model} takes '{','.join(names)}', "
                         f"not {args.param!r}") from None
    g = graphs.generate_network(args.model, args.P, args.seed, **params)
    coloring = graphs.greedy_coloring(g)
    graphs.save_network(args.out, g, coloring)
    status = "connected" if graphs.is_connected(g) else "NOT connected"
    print(f"wrote {args.model} network P={g.n_nodes} E={g.n_edges} "
          f"C={coloring.n_colors} ({status}) to {args.out}")
    return 0


def cmd_oracle(args) -> int:
    problem = problems.load_instance(args.instance)
    problem.x_ref = bench.solve_bp_centralized(problem.A, problem.b, tol=args.tol)
    out = args.out or args.instance
    problems.save_instance(out, problem)
    print(f"reference solution (l1 norm {abs(problem.x_ref).sum():.12g}) stored in {out}")
    return 0


def _parse_list(args, option: str, kind=float) -> tuple:
    """The nonblank comma-separated entries of --option, each read by kind."""
    try:
        return tuple(kind(t) for t in getattr(args, option).split(",") if t.strip())
    except ValueError as exc:
        raise InputError(f"--{option.replace('_', '-')}: {exc}") from None


def _flagged_note(trace) -> str:
    """The run's flagged_rounds, when some node solve hit its cap."""
    if not trace.flagged_rounds:
        return ""
    return f"; flagged_rounds = {trace.flagged_rounds} (steps with a node solve at its cap)"


def cmd_run(args) -> int:
    kind, g, coloring, problem, rule = _load_run(args)
    rho = args.rho if args.rho is not None else bench.FIXED_RHO[kind]
    config = SolverConfig(kind=kind, rho=rho, delta=args.delta)
    trace = engine.run(config, problem, g, coloring, rule)
    if args.trace_out:
        trace.to_csv(args.trace_out)
    summary = ", ".join(
        f"{t:g}: {trace.steps_to_accuracy.get(t, 'not reached')}" for t in rule.targets
    )
    print(f"{kind} rho={rho:g}: {trace.comm_steps} communication steps "
          f"(steps to accuracy {summary}){_flagged_note(trace)}")
    return 0 if trace.converged else 2


def cmd_sweep_rho(args) -> int:
    grid = _parse_list(args, "grid")
    kind, g, coloring, problem, rule = _load_run(args)
    config = SolverConfig(kind=kind, delta=args.delta)  # the sweep sets rho
    result = bench.rho_sweep(grid, config, problem, g, coloring, rule)
    for rho, tr in result.traces.items():
        if rule.finest in tr.steps_to_accuracy:
            outcome = f"steps to {rule.finest:g} = {tr.steps_to_accuracy[rule.finest]}"
        elif tr.comm_steps < rule.max_comm_steps:
            outcome = f"stopped at the sweep's cap of {tr.comm_steps} steps"
        else:
            outcome = f"steps to {rule.finest:g} = not reached"
        print(f"  rho={rho:g}: {outcome}{_flagged_note(tr)}")
    print(f"best rho = {result.best_rho:g}")
    if args.trace_out:
        result.best_trace.to_csv(args.trace_out)
    return 0 if result.best_trace.converged else 2


def cmd_scale(args) -> int:
    result = bench.scale_experiment(
        m=args.m, n=args.n, k=args.k, p_values=_parse_list(args, "p_values", int), seed=args.seed,
        rho=args.rho, target=args.target, max_comm_steps=args.max_steps,
    )
    if args.out:
        result.to_csv(args.out)
    for kind, exponent in result.exponents.items():
        print(f"{kind}: fitted exponent {exponent:.3f}, steps {result.steps[kind]}")
    if any(-1 in steps for steps in result.steps.values()):
        print("warning: some cells exhausted the step budget (recorded as -1)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netl1",
        description="Distributed minimum-l1 solvers on simulated networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-instance", help="generate a Gaussian instance file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--P", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--partition", default="row", choices=("row", "column"))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_instance)

    p = sub.add_parser("gen-network", help="generate a network file")
    p.add_argument("--model", required=True, choices=sorted(graphs._MODELS))
    p.add_argument("--P", type=int, required=True)
    p.add_argument("--param", default="", help="p, 'n,p' or d depending on the model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_network)

    p = sub.add_parser("oracle", help="compute and store a certified reference solution")
    p.add_argument("--instance", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("run", help="run one algorithm and trace communication steps")
    _add_run_args(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep-rho", help="pick the best penalty weight from a grid")
    _add_run_args(p)
    p.add_argument("--grid", default="1e-3,1e-2,1e-1,1,10")
    p.set_defaults(fn=cmd_sweep_rho)

    p = sub.add_parser("scale", help="steps-to-accuracy as the network grows")
    p.add_argument("--m", type=int, default=128)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--k", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--target", type=float, default=1e-3)
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--p-values", default="2,4,8,16,32,64",
                   help="comma-separated network sizes")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_scale)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, FactorizationError, bench.ToleranceError, FileNotFoundError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
