"""The settable options of the public API, listed in full.

Every option is code that some caller must need. A change that adds a
config field or a defaulted parameter to a public callable fails here until
it adds the option to SURFACE, so each new knob is a visible decision.
"""

import dataclasses
import inspect

import netl1

CONFIGS = (netl1.SolverConfig, netl1.BBConfig, netl1.StopRule, netl1.InstanceSpec,
           netl1.PartitionSpec)

SURFACE = {
    # every field of the configuration classes
    "BBConfig.divergence_factor",
    "BBConfig.grad_tol",
    "BBConfig.max_iter",
    "InstanceSpec.P",
    "InstanceSpec.k",
    "InstanceSpec.m",
    "InstanceSpec.n",
    "InstanceSpec.seed",
    "PartitionSpec.kind",
    "PartitionSpec.sizes",
    "SolverConfig.bb",
    "SolverConfig.delta",
    "SolverConfig.inner_cap",
    "SolverConfig.inner_tol_rel",
    "SolverConfig.kind",
    "SolverConfig.rho",
    "StopRule.max_comm_steps",
    "StopRule.targets",
    # every parameter with a default of the other callables in netl1.__all__
    "NodeStates(fista_y)",
    "ProblemInstance(partition)",
    "ProblemInstance(x_ref)",
    "RunTrace(comm_steps)",
    "RunTrace(consensus_residual)",
    "RunTrace(converged)",
    "RunTrace(flagged_rounds)",
    "RunTrace(inner_iterations)",
    "RunTrace(max_rel_err)",
    "RunTrace(node0_rel_err)",
    "RunTrace(objective)",
    "RunTrace(steps_to_accuracy)",
    "connected_network(seed)",
    "gen_instance(kind)",
    "generate_network(seed)",
    "global_estimate(col_blocks)",
    "global_estimate(x_ref)",
    "make_stepper(coloring)",
    "rho_sweep(coloring)",
    "rho_sweep(rule)",
    "rho_sweep(x_ref)",
    "run(coloring)",
    "run(rule)",
    "run(x_ref)",
    "save_network(coloring)",
    "scale_experiment(max_comm_steps)",
    "scale_experiment(rho)",
    "scale_experiment(seed)",
    "scale_experiment(target)",
    "solve_bp_centralized(tol)",
    "solve_regularized_bp(tol)",
}


def settable_options() -> set[str]:
    options = {f"{cls.__name__}.{f.name}" for cls in CONFIGS for f in dataclasses.fields(cls)}
    for name in netl1.__all__:
        obj = getattr(netl1, name)
        if not callable(obj) or obj in CONFIGS:
            continue
        try:
            parameters = inspect.signature(obj).parameters.values()
        except ValueError:  # the exception classes have no signature
            continue
        options |= {f"{name}({p.name})" for p in parameters if p.default is not p.empty}
    return options


def test_settable_options_are_listed():
    assert settable_options() == SURFACE
