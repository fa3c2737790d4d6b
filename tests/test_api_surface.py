"""The public names and the settable options of the public API, listed in
full.

Every name and every option is code that some caller must need. A change
that adds or deletes a name in netl1.__all__ fails here until it updates
NAMES, and one that adds a config field or a defaulted parameter to a
public callable fails until it adds the option to SURFACE, so each new name
or knob is a visible decision.
"""

import dataclasses
import inspect

import netl1

CONFIGS = (netl1.SolverConfig, netl1.StopRule, netl1.InstanceSpec, netl1.PartitionSpec)

NAMES = {
    # the submodules the package imports
    "bench",
    "engine",
    "graphs",
    "linalg",
    "nodeprob",
    "problems",
    "solvers",
    # the names the package imports from them
    "ColSubproblem",
    "Coloring",
    "FactorizationError",
    "Graph",
    "InputError",
    "InstanceSpec",
    "NETWORK_MODELS",
    "NodeStates",
    "PartitionSpec",
    "ProblemInstance",
    "RHO_GRID",
    "RowSubproblem",
    "RunTrace",
    "SolverConfig",
    "StopRule",
    "affine_projection",
    "connected_network",
    "gen_instance",
    "generate_network",
    "global_estimate",
    "gram_factorization",
    "greedy_coloring",
    "is_connected",
    "load_instance",
    "load_network",
    "make_stepper",
    "partition",
    "psi_p",
    "relative_error",
    "rho_sweep",
    "run",
    "save_instance",
    "save_network",
    "scale_experiment",
    "solve_bp_centralized",
    "solve_col_node",
    "solve_row_node",
    "x_of_u",
}

SURFACE = {
    # every field of the configuration classes
    "InstanceSpec.P",
    "InstanceSpec.k",
    "InstanceSpec.m",
    "InstanceSpec.n",
    "InstanceSpec.seed",
    "PartitionSpec.kind",
    "PartitionSpec.sizes",
    "SolverConfig.delta",
    "SolverConfig.kind",
    "SolverConfig.rho",
    "StopRule.max_comm_steps",
    "StopRule.targets",
    # every parameter with a default of the other callables in netl1.__all__
    "ProblemInstance(partition)",
    "ProblemInstance(x_ref)",
    "connected_network(seed)",
    "gen_instance(kind)",
    "generate_network(seed)",
    "global_estimate(col_blocks)",
    "make_stepper(coloring)",
    "rho_sweep(coloring)",
    "rho_sweep(rule)",
    "run(coloring)",
    "run(rule)",
    "save_network(coloring)",
    "scale_experiment(max_comm_steps)",
    "scale_experiment(rho)",
    "scale_experiment(seed)",
    "scale_experiment(target)",
    "solve_bp_centralized(tol)",
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


def test_public_names_are_listed():
    assert set(netl1.__all__) == NAMES
