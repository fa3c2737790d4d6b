import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import netl1 as nl
from netl1 import solvers
from netl1.graphs import Coloring, Graph, greedy_coloring
from netl1.linalg import InputError, affine_projection, partition
from netl1.nodeprob import RowSubproblem, solve_row_node
from netl1.solvers import (
    NodeStates,
    SolverConfig,
    make_stepper,
    mm_outer_update,
    nesterov_outer_update,
)

from oracles import (
    central_difference_gradient,
    connected_graphs,
    incidence_oracle,
    jacobi_eigenvalues,
    laplacian_oracle,
    reference_color_round,
)


def desk_problem(m=16, n=48, P=4, k=2, seed=5, kind="row"):
    prob = nl.gen_instance(nl.InstanceSpec(m=m, n=n, P=P, k=k, seed=seed), kind=kind)
    prob.x_ref = nl.solve_bp_centralized(prob.A, prob.b, tol=1e-10)
    return prob


def ring_graph(P):
    return Graph.from_edges(P, [(i, (i + 1) % P) for i in range(P)])


def row_blocks(prob):
    return [RowSubproblem(Ap, bp) for Ap, bp in partition(prob.A, prob.b, prob.partition)]


def stepper_for(kind, prob, g, coloring=None, **config):
    return make_stepper(SolverConfig(kind=kind, **config), prob, g, coloring)


def set_controls(monkeypatch, **controls):
    """Set the stepper's kernel and inner-loop controls for one test."""
    for name, value in controls.items():
        monkeypatch.setattr(solvers, name, value)


def run_steps(stepper, count):
    for k in range(1, count + 1):
        stepper.step(k)
    return stepper.states


#: Every kind on one small instance (m=16, n=48, P=4, 3-colored graph):
#: communication steps, steps to each target and total Newton kernel
#: evaluations.
KIND_COUNTS = {
    "dadmm_row": (1.0, 14, {1e-2: 13, 1e-4: 14}, 112),
    "dlasso": (1.0, 37, {1e-2: 36, 1e-4: 37}, 206),
    "subgradient": (1.0, 310, {1e-1: 310}, 0),
    "mm_ngs": (10.0, 82, {1e-2: 78, 1e-4: 82}, 187),
    "mm_dqa": (10.0, 586, {1e-2: 467, 1e-4: 586}, 445),
    "dn": (10.0, 163, {1e-2: 118, 1e-4: 163}, 335),
    "dadmm_col": (1.0, 51, {1e-2: 22, 1e-4: 51}, 53),
}


@pytest.mark.parametrize("kind", sorted(KIND_COUNTS))
def test_kind_counts_pinned(kind):
    rho, steps, reached, bb_evals = KIND_COUNTS[kind]
    prob = desk_problem(kind="column" if kind == "dadmm_col" else "row")
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    targets = tuple(reached)
    tr = nl.run(SolverConfig(kind=kind, rho=rho), prob, g, greedy_coloring(g),
                nl.StopRule(targets=targets, max_comm_steps=3000))
    assert (tr.comm_steps, tr.steps_to_accuracy, sum(tr.inner_iterations)) == (
        steps, reached, bb_evals)


#: The KIND_COUNTS runs in a new interpreter, which prints the OpenBLAS
#: kernel set its products ran on and each run's steps, steps to each
#: target and total node evaluations.
KIND_COUNTS_RUNS = """
import json
from trace_digest import blas_kernels, kind_count_traces

runs = [[t.solver, t.comm_steps, sorted(t.steps_to_accuracy.items()), sum(t.inner_iterations)]
        for t in kind_count_traces()]
print(json.dumps([blas_kernels(), runs]))
"""


@pytest.mark.parametrize("kernels", ["Haswell", "Sandybridge"])
def test_kind_counts_steps_on_other_kernels(kernels):
    # the steps and evaluation totals hold on the kernel sets OpenBLAS gives
    # AVX2-only and AVX-only x86 CPUs (OPENBLAS_CORETYPE, in the child
    # process only)
    from trace_digest import blas_kernels

    if blas_kernels() == "unknown":
        pytest.skip("numpy's BLAS does not report an OpenBLAS kernel set")
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_CORETYPE": kernels,
           "PYTHONPATH": os.pathsep.join([str(Path(nl.__file__).parent.parent), str(tests)])}
    done = subprocess.run([sys.executable, "-c", KIND_COUNTS_RUNS], env=env, cwd=tests,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    found, runs = json.loads(done.stdout.splitlines()[-1])
    assert found == kernels
    expected = [[kind, steps, sorted(reached.items()), evaluations]
                for kind, (_, steps, reached, evaluations) in sorted(KIND_COUNTS.items())]
    assert runs == json.loads(json.dumps(expected))


def documented_coefficients(kind, st, D):
    """Each kind's node coefficients from its documented formula, for nodes
    of degrees D."""
    P, rho = st.graph.n_nodes, st.config.rho
    return {
        "dadmm_row": lambda: P * D * rho / 2.0,
        "mm_ngs": lambda: P * D * rho / 2.0,
        "mm_dqa": lambda: P * D * rho / 2.0,
        "dadmm_col": lambda: D * rho / 2.0,
        "dlasso": lambda: P * rho * D,
        "subgradient": lambda: D[:, None] + 1.0,  # its averaging divisors
        "dn": lambda: np.full(len(D), P / (2.0 * st.alpha)),
    }[kind]()


@pytest.mark.parametrize("kind", sorted(KIND_COUNTS))
def test_coefficients_taken_once_by_formula(kind):
    # the coefficients are taken once per stepper, group by group; the
    # groups are the color classes, the single nodes or all nodes in order.
    # P = 6 and rho = 0.7 make the order of the products show in the bits.
    prob = desk_problem(m=18, P=6, kind="column" if kind == "dadmm_col" else "row")
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2)])
    coloring = greedy_coloring(g)
    assert (0, 3, 5) in coloring.classes  # a class that is not a run of nodes
    st = stepper_for(kind, prob, g, coloring, rho=0.7)
    expected_groups = {"dadmm_row": coloring.classes, "dadmm_col": coloring.classes,
                       "mm_ngs": tuple((p,) for p in range(6))}.get(kind, (tuple(range(6)),))
    nodes = [tuple(int(p) for p in np.arange(6)[group]) for group, _ in st.groups]
    assert nodes == list(expected_groups)
    assert len(st.coefficients) == len(st.groups)
    for (group, adjacency), C, members in zip(st.groups, st.coefficients, expected_groups):
        np.testing.assert_array_equal(adjacency, g.adjacency_matrix[list(members)])
        expected = documented_coefficients(kind, st, g.degrees[list(members)])
        assert C.shape == expected.shape and C.dtype == expected.dtype
        np.testing.assert_array_equal(C, expected)


class TestDADMMRound:
    def test_gamma_sums_to_zero_every_round(self):
        prob = desk_problem()
        g = ring_graph(4)
        stepper = stepper_for("dadmm_row", prob, g, greedy_coloring(g), rho=1.0)
        for k in range(1, 11):
            stepper.step(k)
            np.testing.assert_allclose(stepper.states.gamma.sum(axis=0), 0.0, atol=1e-10)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(g=connected_graphs(), kind=st.sampled_from(["dadmm_row", "dlasso", "mm_ngs"]),
           rho=st.floats(0.1, 10.0), seed=st.integers(0, 2**16))
    def test_gamma_sums_to_zero_property(self, g, kind, rho, seed):
        # on any connected graph, every kind that keeps dual sums keeps them
        # summing to zero over the nodes, to rounding: each step adds rho
        # (D X - Adj X), whose rows cancel over every edge (mm_ngs with an
        # inner cap of 2 takes an outer dual update every other step)
        P = g.n_nodes
        prob = nl.gen_instance(nl.InstanceSpec(m=2 * P, n=24, P=P, k=1, seed=seed))
        stepper = make_stepper(SolverConfig(kind=kind, rho=rho), prob, g, greedy_coloring(g))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "INNER_CAP", 2)
            for k in range(1, 7):
                stepper.step(k)
                gamma = stepper.states.gamma
                bound = 64 * np.finfo(float).eps * P * np.abs(gamma).max()
                assert np.abs(gamma.sum(axis=0)).max() <= bound
        assert np.abs(gamma).max() > 0.0

    def test_two_node_convergence_to_reference(self):
        prob = desk_problem(m=16, n=48, P=2, k=2, seed=8)
        g = nl.generate_network("lattice", 2)
        tr = nl.run(SolverConfig(kind="dadmm_row", rho=1.0), prob, g,
                    rule=nl.StopRule(targets=(1e-2, 1e-5), max_comm_steps=4000))
        assert tr.converged
        assert tr.max_rel_err[-1] <= 1e-5

    def test_stale_fresh_discipline(self):
        # the class sweep equals a reference round reading X_new[j] exactly
        # for lower-color neighbors, bitwise, round after round
        prob = desk_problem(m=16, n=48, P=4, seed=9)
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        coloring = greedy_coloring(g)
        assert coloring.n_colors == 3
        stepper = stepper_for("dadmm_row", prob, g, coloring, rho=0.7)
        blocks = row_blocks(prob)

        def kernel(p, v, c):
            return solve_row_node(blocks[p], v, c, grad_tol=solvers.GRAD_TOL,
                                  max_iter=solvers.MAX_ITER).x

        X, gamma = stepper.states.primal, stepper.states.gamma
        for k in range(1, 6):
            X, gamma = reference_color_round(X, gamma, g.edges, coloring.colors,
                                             coloring.classes, 0.7, kernel)
            stepper.step(k)
            np.testing.assert_array_equal(stepper.states.primal, X)
            np.testing.assert_array_equal(stepper.states.gamma, gamma)

    def test_within_color_order_invariance(self):
        # swapping the labels of the same-color nodes 0 and 1 of K22, with
        # their data, reverses their order within the class sweep and only
        # permutes the iterates
        prob = desk_problem(m=16, n=48, P=4, seed=10)
        g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])  # bipartite K22
        coloring = greedy_coloring(g)
        assert coloring.classes == ((0, 1), (2, 3))
        cfg = SolverConfig(kind="dadmm_row", rho=0.7)
        states = run_steps(make_stepper(cfg, prob, g, coloring), 3)

        swap = [1, 0, 2, 3]  # its own inverse
        g2 = Graph.from_edges(4, [(swap[i], swap[j]) for i, j in g.edges])
        assert g2.edges == g.edges
        parts = partition(prob.A, prob.b, prob.partition)
        prob2 = nl.ProblemInstance(
            A=np.vstack([parts[swap[p]][0] for p in range(4)]),
            b=np.concatenate([parts[swap[p]][1] for p in range(4)]),
        ).with_partition("row", 4)
        states2 = run_steps(make_stepper(cfg, prob2, g2, greedy_coloring(g2)), 3)
        np.testing.assert_array_equal(states2.primal, states.primal[swap])
        np.testing.assert_array_equal(states2.gamma, states.gamma[swap])

    def test_sweep_groups_share_no_edges(self):
        # the classes come from the colors, so a coloring cannot put the
        # adjacent nodes 0 and 1 of the 4-cycle into one group
        prob = desk_problem()
        g = ring_graph(4)
        stepper = stepper_for("dadmm_row", prob, g, Coloring(colors=(0, 1, 0, 1)))
        groups = [tuple(int(p) for p in group) for group, _ in stepper.groups]
        assert groups == [(0, 2), (1, 3)]

    def test_single_node_rejected(self):
        prob = desk_problem(m=16, n=48, P=1, seed=5)
        g = Graph.from_edges(1, [])
        with pytest.raises(InputError):
            make_stepper(SolverConfig(kind="dadmm_row"), prob, g, None)

    def test_improper_coloring_rejected(self):
        prob = desk_problem()
        g = ring_graph(4)
        bad = Coloring(colors=(0, 0, 1, 1))
        with pytest.raises(InputError):
            make_stepper(SolverConfig(kind="dadmm_row"), prob, g, bad)


@pytest.mark.parametrize("kind, problem, graph, message", [
    ("dadmm_row", desk_problem, lambda: Graph.from_edges(4, [(0, 1), (1, 2)]),
     "isolated nodes"),
    ("dlasso", lambda: replace(desk_problem(), partition=None), lambda: ring_graph(4),
     "no partition descriptor"),
    ("dlasso", desk_problem, lambda: ring_graph(3), "node count does not match"),
    ("dadmm_col", desk_problem, lambda: ring_graph(4), "needs a column partition"),
    ("dlasso", lambda: desk_problem(kind="column"), lambda: ring_graph(4),
     "needs a row partition"),
    ("dadmm_row", desk_problem, lambda: ring_graph(4), "need a coloring"),
])
def test_make_stepper_rejects(kind, problem, graph, message):
    with pytest.raises(InputError, match=message):
        make_stepper(SolverConfig(kind=kind), problem(), graph(), None)


class TestDADMMColumn:
    def test_two_node_fragments_match_reference(self):
        prob = desk_problem(m=16, n=48, P=2, k=2, seed=11, kind="column")
        g = nl.generate_network("lattice", 2)
        tr = nl.run(SolverConfig(kind="dadmm_col", rho=0.5, delta=1e-3), prob, g,
                    rule=nl.StopRule(targets=(1e-2, 1e-4), max_comm_steps=6000))
        assert 1e-4 in tr.steps_to_accuracy

    def test_y_consensus_at_convergence(self):
        prob = desk_problem(m=12, n=32, P=4, k=1, seed=12, kind="column")
        g = nl.generate_network("lattice", 4)
        coloring = greedy_coloring(g)
        config = SolverConfig(kind="dadmm_col", rho=0.5, delta=1e-3)
        stepper = make_stepper(config, prob, g, coloring)
        for k in range(1, 3001):
            stepper.step(k)
        Y = stepper.states.primal
        worst = max(np.linalg.norm(Y[i] - Y[j]) for i, j in g.edges)
        assert worst <= 1e-6

    def test_gamma_sums_to_zero(self):
        prob = desk_problem(m=12, n=32, P=4, k=1, seed=13, kind="column")
        g = ring_graph(4)
        stepper = make_stepper(SolverConfig(kind="dadmm_col", rho=1.0), prob, g,
                               greedy_coloring(g))
        for k in range(1, 6):
            stepper.step(k)
            np.testing.assert_allclose(stepper.states.gamma.sum(axis=0), 0.0, atol=1e-10)


class TestDLasso:
    def test_converges_to_same_reference_as_dadmm(self):
        prob = desk_problem(m=16, n=48, P=2, k=2, seed=8)
        g = nl.generate_network("lattice", 2)
        tr = nl.run(SolverConfig(kind="dlasso", rho=1.0), prob, g,
                    rule=nl.StopRule(targets=(1e-2, 1e-5), max_comm_steps=6000))
        assert tr.converged

    def test_quadratic_coefficient_is_twice_dadmm(self, monkeypatch):
        # assert the (v, c) wiring fed into the node kernel: c ratio exactly 2
        prob = desk_problem(m=16, n=48, P=4, seed=14)
        g = ring_graph(4)
        coloring = greedy_coloring(g)
        calls = []

        import netl1.solvers as solvers_mod

        real = solvers_mod.solve_row_node

        def spy(group, V, C, **controls):
            calls.append(list(C))  # one c per node of the group
            return real(group, V, C, **controls)

        monkeypatch.setattr(solvers_mod, "solve_row_node", spy)
        stepper_for("dadmm_row", prob, g, coloring, rho=1.0).step(1)
        admm_cs = [c for C in calls for c in C]
        calls.clear()
        stepper_for("dlasso", prob, g, rho=1.0).step(1)
        (lasso_cs,) = calls  # dlasso solves all nodes as one group
        assert len(admm_cs) == len(lasso_cs) == 4
        assert sorted(admm_cs) == sorted(c / 2.0 for c in lasso_cs)

    def test_gamma_sums_to_zero(self):
        prob = desk_problem()
        g = ring_graph(4)
        stepper = stepper_for("dlasso", prob, g, rho=1.0)
        for k in range(1, 9):
            stepper.step(k)
            np.testing.assert_allclose(stepper.states.gamma.sum(axis=0), 0.0, atol=1e-10)

    def test_permutation_equivariance(self):
        # relabeling nodes and data consistently permutes the iterates
        prob = desk_problem(m=16, n=48, P=4, seed=15)
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        perm = [2, 0, 3, 1]  # new index of each old node
        states = run_steps(stepper_for("dlasso", prob, g, rho=1.0), 3)

        inv = np.argsort(perm)
        g2 = Graph.from_edges(4, [(perm[i], perm[j]) for i, j in g.edges])
        parts = partition(prob.A, prob.b, prob.partition)
        prob2 = nl.ProblemInstance(
            A=np.vstack([parts[inv[p]][0] for p in range(4)]),
            b=np.concatenate([parts[inv[p]][1] for p in range(4)]),
        ).with_partition("row", 4)
        states2 = run_steps(stepper_for("dlasso", prob2, g2, rho=1.0), 3)
        np.testing.assert_allclose(states2.primal, states.primal[inv], atol=1e-12)


def subgradient_layout(layout):
    """The subgradient's three ways to project its one group: P=2 node by
    node, 6 equal-height blocks in one stacked product, and 6 blocks of
    heights 3 and 1 node by node."""
    if layout == "two_nodes":
        return desk_problem(m=8, n=24, P=2, k=1, seed=16), nl.generate_network("lattice", 2)
    prob = desk_problem(m=12, n=40, P=6, k=2, seed=18)
    if layout == "mixed_heights":
        prob = nl.ProblemInstance(A=prob.A, b=prob.b, x_ref=prob.x_ref,
                                  partition=nl.PartitionSpec("row", (3, 1, 3, 1, 3, 1)))
    return prob, Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3)])


def assert_one_step_matches_formula(prob, g, stacked):
    """Node p averages itself with its neighbors using weights 1/(D_p + 1):
    one step equals the direct formula with per-node projections, and each
    node's point lies on its own affine set."""
    stepper = stepper_for("subgradient", prob, g)
    blocks, states = stepper.blocks, stepper.states
    assert (stepper.group_blocks[0].projector is not None) == stacked
    rng = np.random.default_rng(0)
    states.primal = rng.normal(size=states.primal.shape)
    X = states.primal.copy()
    stepper.step(3)
    for p, sp in enumerate(blocks):
        w = (X[p] + X[np.flatnonzero(g.adjacency_matrix[p])].sum(axis=0)) / (g.degrees[p] + 1.0)
        expected = affine_projection(sp.A, sp.b, sp.gram, w - np.sign(w) / 4.0)
        np.testing.assert_allclose(states.primal[p], expected, rtol=0, atol=1e-12)
        assert np.abs(sp.A @ states.primal[p] - sp.b).max() <= 1e-10


class TestSubgradient:
    def test_two_node_path_weights(self):
        # P=2 path: both weights 1/2, projected node by node
        assert_one_step_matches_formula(*subgradient_layout("two_nodes"), stacked=False)

    @pytest.mark.parametrize("layout", ["stacked", "mixed_heights"])
    def test_wide_group_one_step(self, layout):
        assert_one_step_matches_formula(*subgradient_layout(layout), stacked=layout == "stacked")

    @pytest.mark.parametrize("layout", ["two_nodes", "stacked", "mixed_heights"])
    def test_non_finite_point_rejected(self, layout):
        prob, g = subgradient_layout(layout)
        stepper = stepper_for("subgradient", prob, g)
        stepper.states.primal[1, 0] = np.nan
        with pytest.raises(InputError):
            stepper.step(1)

    def test_zero_state_zero_rhs_is_fixed_point(self):
        # all-zero consensus point has zero subgradient and stays feasible
        A = np.array([[1.0, 2.0, 0.5], [0.5, -1.0, 2.0]])
        g = nl.generate_network("lattice", 2)
        prob = nl.ProblemInstance(A=A, b=np.zeros(2)).with_partition("row", 2)
        stepper = stepper_for("subgradient", prob, g)
        stepper.step(1)
        np.testing.assert_array_equal(stepper.states.primal, 0.0)

    def test_slower_than_dadmm(self):
        prob = desk_problem(m=16, n=48, P=4, seed=17)
        g = ring_graph(4)
        coloring = greedy_coloring(g)
        rule = nl.StopRule(targets=(1e-2, 1e-4), max_comm_steps=2000)
        admm = nl.run(SolverConfig(kind="dadmm_row", rho=1.0), prob, g, coloring, rule)
        sub = nl.run(SolverConfig(kind="subgradient"), prob, g, coloring, rule)
        assert admm.max_rel_err[-1] < sub.max_rel_err[-1]

    def test_iteration_index_validated(self):
        prob = desk_problem(m=8, n=24, P=2, k=1, seed=16)
        g = nl.generate_network("lattice", 2)
        with pytest.raises(InputError):
            stepper_for("subgradient", prob, g).step(0)


@st.composite
def graphs_and_iterates(draw):
    """A random simple graph on 2-7 nodes and a sequence of iterates."""
    P = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(P) for j in range(i + 1, P)]
    g = Graph.from_edges(P, [e for e in pairs if draw(st.booleans())])
    L = draw(st.integers(1, 4))
    values = st.floats(-1.0, 1.0, allow_nan=False)
    count = draw(st.integers(1, 5))
    Xs = [np.array(draw(st.lists(values, min_size=P * L, max_size=P * L))).reshape(P, L)
          for _ in range(count)]
    return g, Xs, draw(st.floats(0.1, 2.0))


class TestOuterUpdates:
    def test_no_update_at_consensus(self):
        g = ring_graph(4)
        states = NodeStates.zeros(4, 5)
        states.primal[:] = np.arange(5.0)  # identical rows
        mm_outer_update(states, g, rho=2.0)
        np.testing.assert_array_equal(states.gamma, 0.0)

    def test_single_edge_increment(self):
        # lambda_01 = 0.5 (x_0 - x_1): node 0 holds +lambda, node 1 -lambda
        g = Graph.from_edges(2, [(0, 1)])
        states = NodeStates.zeros(2, 3)
        states.primal[0] = [1.0, 2.0, 3.0]
        states.primal[1] = [0.0, 2.0, 5.0]
        mm_outer_update(states, g, rho=0.5)
        np.testing.assert_allclose(states.gamma, [[0.5, 0.0, -1.0], [-0.5, 0.0, 1.0]])

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(graphs_and_iterates())
    def test_node_space_duals_match_edge_recursions(self, case):
        # the node sums gamma after each outer update equal B lambda (and
        # B eta for the accelerated update) of the edge-space recursions
        g, Xs, rho = case
        B = incidence_oracle(g.n_nodes, g.edges)
        P, L = Xs[0].shape
        plain, accelerated = NodeStates.zeros(P, L), NodeStates.zeros(P, L)
        lam_sums = np.zeros((P, L))
        lam = np.zeros((g.n_edges, L))
        lam_acc, eta = lam.copy(), lam.copy()
        for k, X in enumerate(Xs, start=1):
            plain.primal = accelerated.primal = X
            mm_outer_update(plain, g, rho)
            nesterov_outer_update(lam_sums, accelerated, g, rho, k)
            lam += rho * (B.T @ X)
            lam_new = eta + rho * (B.T @ X)
            eta = lam_new + (k - 1.0) / (k + 2.0) * (lam_new - lam_acc)
            lam_acc = lam_new
            np.testing.assert_allclose(plain.gamma, B @ lam, rtol=0, atol=1e-12)
            np.testing.assert_allclose(accelerated.gamma, B @ eta, rtol=0, atol=1e-12)
            np.testing.assert_allclose(lam_sums, B @ lam_acc, rtol=0, atol=1e-12)

    def test_edge_differences_orientation(self):
        g = Graph.from_edges(3, [(0, 2), (1, 2)])
        X = np.array([[1.0], [2.0], [5.0]])
        i, j = g.endpoints
        np.testing.assert_array_equal(X[i] - X[j], [[-4.0], [-3.0]])
        np.testing.assert_array_equal(X[i] - X[j], incidence_oracle(3, g.edges).T @ X)


class TestNGSAndDQA:
    def test_single_node_rejected(self):
        prob = desk_problem(m=16, n=48, P=1, seed=5)
        g = Graph.from_edges(1, [])
        with pytest.raises(InputError):
            make_stepper(SolverConfig(kind="mm_ngs", rho=10.0), prob, g)

    def test_ngs_sweep_decreases_inner_objective(self, monkeypatch):
        prob = desk_problem(m=16, n=48, P=4, seed=19)
        g = ring_graph(4)
        # INNER_TOL_REL = 0 and a large cap: no outer update in these sweeps
        set_controls(monkeypatch, INNER_TOL_REL=0.0, INNER_CAP=100, GRAD_TOL=1e-10,
                     MAX_ITER=5000)
        stepper = stepper_for("mm_ngs", prob, g, rho=1.0)

        def inner_objective(X):
            total = sum(np.abs(X[p]).sum() / 4 for p in range(4))
            for i, j in g.edges:
                d = X[i] - X[j]
                total += 0.5 * 1.0 * float(d @ d)  # lambda = 0
            return total

        # the zero initial state is infeasible, so compare only the sweeps
        # (every sweep ends with all blocks on their constraint sets)
        values = []
        for k in range(1, 7):
            stepper.step(k)
            values.append(inner_objective(stepper.states.primal))
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_dqa_damping_coefficient(self):
        # with P = 4 the new iterate is exactly 0.25 u + 0.75 x
        prob = desk_problem(m=16, n=48, P=4, seed=20)
        g = ring_graph(4)
        stepper = stepper_for("mm_dqa", prob, g, rho=1.0)
        blocks, states = stepper.blocks, stepper.states
        rng = np.random.default_rng(1)
        states.primal = rng.normal(size=states.primal.shape)
        X_before = states.primal.copy()

        from netl1.nodeprob import solve_row_node as kernel

        S = np.zeros_like(X_before)
        for i, j in g.edges:
            S[i] += X_before[j]
            S[j] += X_before[i]
        expected_u = []
        for p in range(4):
            sp = RowSubproblem(blocks[p].A, blocks[p].b)
            v = states.gamma[p] - 1.0 * S[p]
            expected_u.append(kernel(sp, 4 * v, 4 * g.degrees[p] * 0.5,
                                     grad_tol=solvers.GRAD_TOL, max_iter=solvers.MAX_ITER).x)
        stepper.step(1)
        expected = 0.25 * np.vstack(expected_u) + 0.75 * X_before
        np.testing.assert_allclose(stepper.states.primal, expected, atol=1e-9)

    def test_dqa_fixed_point(self, monkeypatch):
        # if every candidate block equals the current iterate, nothing moves
        prob = desk_problem(m=16, n=48, P=4, seed=21)
        g = ring_graph(4)
        # INNER_TOL_REL = 0 and a large cap keep the multipliers at zero
        set_controls(monkeypatch, INNER_TOL_REL=0.0, INNER_CAP=1000, GRAD_TOL=1e-12,
                     MAX_ITER=20000)
        stepper = stepper_for("mm_dqa", prob, g, rho=1.0)
        for k in range(1, 401):
            before = stepper.states.primal.copy()
            stepper.step(k)
            if np.abs(stepper.states.primal - before).max() <= 1e-13:
                break
        before = stepper.states.primal.copy()
        stepper.step(k + 1)
        np.testing.assert_allclose(stepper.states.primal, before, atol=1e-9)

    def test_ngs_and_dqa_solve_same_inner_problem(self, monkeypatch):
        prob = desk_problem(m=8, n=20, P=2, k=1, seed=22)
        g = nl.generate_network("lattice", 2)
        # INNER_TOL_REL = 0 and a cap beyond the horizon: both solve the
        # inner problem at zero multipliers
        set_controls(monkeypatch, INNER_TOL_REL=0.0, INNER_CAP=2000, GRAD_TOL=1e-12,
                     MAX_ITER=20000)
        states_a = run_steps(stepper_for("mm_ngs", prob, g, rho=1.0), 300)
        states_b = run_steps(stepper_for("mm_dqa", prob, g, rho=1.0), 1500)
        np.testing.assert_allclose(states_a.primal, states_b.primal, atol=1e-6)

    def test_first_ngs_sweep_matches_dadmm_round_on_two_nodes(self):
        # with lambda = 0 and zero states, one sweep equals one ADMM round's
        # primal update (same fresh/stale pattern on a 2-node graph)
        prob = desk_problem(m=8, n=20, P=2, k=1, seed=23)
        g = nl.generate_network("lattice", 2)
        coloring = greedy_coloring(g)
        states_admm = run_steps(stepper_for("dadmm_row", prob, g, coloring, rho=1.0), 1)
        states_ngs = run_steps(stepper_for("mm_ngs", prob, g, rho=1.0), 1)
        order = np.argsort([coloring.colors[p] for p in range(2)])
        reordered = states_ngs.primal[np.argsort(order)] if list(order) != [0, 1] else states_ngs.primal
        np.testing.assert_allclose(states_admm.primal, reordered, atol=1e-8)


class TestDN:
    def test_momentum_zero_on_first_inner_iteration(self):
        prob = desk_problem(m=16, n=48, P=4, seed=24)
        g = ring_graph(4)
        stepper = make_stepper(SolverConfig(kind="dn", rho=10.0), prob, g)
        stepper.step(1)
        # y after the first iterate has zero momentum: y == x
        np.testing.assert_array_equal(stepper.states.fista_y, stepper.states.primal)
        stepper.step(2)
        assert not np.array_equal(stepper.states.fista_y, stepper.states.primal)

    def test_alpha_wiring_on_lattice(self):
        # the 2x2 lattice is a 4-cycle with Laplacian spectrum {0, 2, 2, 4}
        prob = desk_problem(m=16, n=48, P=4, seed=24)
        g = nl.generate_network("lattice", 4)
        stepper = make_stepper(SolverConfig(kind="dn", rho=2.0), prob, g)
        lam_max = jacobi_eigenvalues(laplacian_oracle(g.n_nodes, g.edges))[-1]
        assert lam_max == pytest.approx(4.0, rel=1e-12)
        assert stepper.alpha == pytest.approx(1.0 / (2.0 * lam_max), rel=1e-12)

    def test_smooth_gradient_matches_finite_differences(self):
        # triangle graph: gradient of the edge-coupling objective w.r.t. x_p
        rng = np.random.default_rng(25)
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        rho = 0.8
        lam = rng.normal(size=(3, 4))
        gamma = incidence_oracle(g.n_nodes, g.edges) @ lam
        X = rng.normal(size=(3, 4))

        def smooth(xflat):
            Xv = xflat.reshape(3, 4)
            total = 0.0
            for e, (i, j) in enumerate(g.edges):
                d = Xv[i] - Xv[j]
                total += float(lam[e] @ d) + 0.5 * rho * float(d @ d)
            return total

        S = np.zeros_like(X)
        for i, j in g.edges:
            S[i] += X[j]
            S[j] += X[i]
        analytic = gamma + rho * g.degrees[:, None] * X - rho * S
        fd = central_difference_gradient(smooth, X.ravel()).reshape(3, 4)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-6)

    def test_converges_on_small_instance(self):
        prob = desk_problem(m=8, n=20, P=2, k=1, seed=26)
        g = nl.generate_network("lattice", 2)
        tr = nl.run(SolverConfig(kind="dn", rho=10.0), prob, g,
                    rule=nl.StopRule(targets=(1e-2, 1e-3), max_comm_steps=6000))
        assert 1e-3 in tr.steps_to_accuracy


def warm_start_totals():
    """The evaluations of 120 dadmm_row steps (m=16, n=48, P=4 ring, rho 1)
    over steps 1-30 and over steps 31-120, with every node solve started
    from the tangent of its last solution, from its last solution alone
    (no direction kept) and from zero."""
    prob = desk_problem(m=16, n=48, P=4, seed=27)
    g = ring_graph(4)
    coloring = greedy_coloring(g)
    totals = {}
    for start in ("tangent", "plain", "cold"):
        stepper = stepper_for("dadmm_row", prob, g, coloring, rho=1.0)
        counts = [0, 0]
        for k in range(1, 121):
            for sp in stepper.blocks:  # in place: a stacked group's blocks view its rows
                if start != "tangent":
                    sp.mask[...] = False
                if start == "cold":
                    sp.last_lambda[...] = 0.0
            counts[k > 30] += stepper.step(k).bb_iterations
        totals[start] = counts
    return totals


#: warm_start_totals in a new interpreter, which prints the OpenBLAS kernel
#: set its products ran on and the totals.
WARM_START_RUNS = """
import json
from test_solvers import warm_start_totals
from trace_digest import blas_kernels

print(json.dumps([blas_kernels(), warm_start_totals()]))
"""


class TestWarmStart:
    def test_warm_start_reduces_total_bb_iterations(self):
        # the tangent start takes fewer evaluations than the last solution,
        # which takes no more than zero, and none at all once the run has
        # converged (steps 31-120)
        assert_tangent_start_saves(warm_start_totals())

    def test_warm_start_on_sandybridge_kernels(self):
        # the same under the kernel set OpenBLAS gives AVX-only x86 CPUs
        # (OPENBLAS_CORETYPE, in a child process only)
        from trace_digest import blas_kernels

        if blas_kernels() == "unknown":
            pytest.skip("numpy's BLAS does not report an OpenBLAS kernel set")
        tests = Path(__file__).resolve().parent
        env = {**os.environ, "OPENBLAS_CORETYPE": "Sandybridge",
               "PYTHONPATH": os.pathsep.join([str(Path(nl.__file__).parent.parent), str(tests)])}
        done = subprocess.run([sys.executable, "-c", WARM_START_RUNS], env=env, cwd=tests,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        found, totals = json.loads(done.stdout.splitlines()[-1])
        assert found == "Sandybridge"
        assert_tangent_start_saves(totals)


def assert_tangent_start_saves(totals):
    tangent, plain, cold = (sum(totals[start]) for start in ("tangent", "plain", "cold"))
    assert 0 < tangent < plain <= cold
    assert totals["tangent"][1] == 0
