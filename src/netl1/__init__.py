"""netl1: minimum-l1 recovery solved over simulated multi-agent networks.

The package provides the color-scheduled consensus ADMM solver (row and
column data partitions), five baseline distributed algorithms, a certified
centralized reference solver, and a benchmarking engine that counts
communication steps to target accuracies.
"""

from .bench import (
    NETWORK_MODELS,
    RHO_GRID,
    InstanceSpec,
    connected_network,
    gen_instance,
    rho_sweep,
    scale_experiment,
    solve_bp_centralized,
)
from .engine import RunTrace, StopRule, global_estimate, relative_error, run
from .graphs import (
    Coloring,
    Graph,
    generate_network,
    greedy_coloring,
    is_connected,
    load_network,
    save_network,
)
from .linalg import (
    FactorizationError,
    InputError,
    PartitionSpec,
    affine_projection,
    gram_factorization,
    partition,
)
from .nodeprob import (
    ColSubproblem,
    RowSubproblem,
    psi_p,
    solve_col_node,
    solve_row_node,
    x_of_u,
)
from .problems import ProblemInstance, load_instance, save_instance
from .solvers import NodeStates, SolverConfig, make_stepper

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
