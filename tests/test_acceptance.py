"""End-to-end acceptance criteria.

Each test prints one PASS line (visible with `pytest -s`) after its
assertions; together they exercise the library's headline claims at desk
scale. The module reuses one certified reference solution per instance via
module-scoped fixtures.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netl1 as nl
from netl1 import solvers
from netl1.bench import NETWORK_MODELS, RHO_GRID, rho_sweep
from netl1.graphs import greedy_coloring, is_proper
from netl1.linalg import partition
from netl1.nodeprob import (
    ColSubproblem,
    RowSubproblem,
    psi_p,
    solve_row_node,
    x_of_u,
)
from netl1.solvers import SolverConfig, make_stepper

from oracles import (
    brute_force_scalar_min_many,
    central_difference_gradient,
    incidence_oracle,
    kkt_enumeration,
    reference_color_round,
    solve_regularized_bp,
)


#: Penalty weight for the scaling study; the best-performing decade on the
#: tuned sweeps (criterion 5) is 1e-2..1e-1, and 0.03 centers the fitted
#: exponent inside the required band.
RHO_SCALE = 0.03

#: The communication steps of criteria 3-7, pinned at the values the
#: library reached when they were recorded. A change that moves one names
#: the old and new values and the reason.
PINNED = json.loads((Path(__file__).parent / "paper_table.json").read_text())


def _report(num, name, detail=""):
    print(f"\n[criterion {num}] {name}: PASS {detail}")


@pytest.fixture(scope="module")
def desk8():
    """Common desk instance: m=40, n=160, P=8, Watts-Strogatz(4, 0.6)."""
    prob = nl.gen_instance(nl.InstanceSpec(m=40, n=160, P=8, k=5, seed=3))
    prob.x_ref = nl.solve_bp_centralized(prob.A, prob.b, tol=1e-10)
    graph = nl.connected_network("watts_strogatz", 8, seed=0, n=4, p=0.6)
    return prob, graph, greedy_coloring(graph)


def test_criterion_1_closed_form_kernel():
    rng = np.random.default_rng(100)
    us = rng.uniform(-6.0, 6.0, size=1000)
    cs = rng.uniform(0.02, 5.0, size=1000)
    expected = brute_force_scalar_min_many(us, cs)
    got = x_of_u(us[0], cs[0])  # scalar path
    assert got == pytest.approx(expected[0], abs=1e-6)
    got_all = np.array([x_of_u(u, c) for u, c in zip(us, cs)])
    np.testing.assert_allclose(got_all, expected, atol=1e-6)
    # the column kernel's shrink, x_of_u(u, delta/2), covers the same 1000
    # pairs through delta = 2c
    shrunk = np.array([x_of_u(u, (2.0 * c) / 2.0) for u, c in zip(us, cs)])
    np.testing.assert_allclose(shrunk, expected, atol=1e-6)
    _report(1, "closed-form kernel vs brute force", "(1000 random pairs, 1e-6)")


def test_criterion_2_node_solver_kkt():
    rng = np.random.default_rng(101)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(m + 1, 21))
        A = rng.normal(size=(m, n))
        b = A @ rng.normal(size=n)
        sp = RowSubproblem(A, b)
        v = rng.normal(size=n)
        c = float(rng.uniform(0.2, 4.0))
        sol = nl.solve_row_node(sp, v, c, grad_tol=1e-10, max_iter=5000)
        assert sol.converged
        assert np.abs(A @ sol.x - b).max() <= 1e-8 * (1 + np.abs(b).max())
        np.testing.assert_allclose(sol.x, x_of_u(v - A.T @ sol.lam, c), atol=1e-8)
    # objective agreement with the sign-pattern enumeration oracle
    for _ in range(20):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 1, 7))
        A = rng.normal(size=(m, n))
        b = A @ rng.normal(size=n)
        sp = RowSubproblem(A, b)
        v = rng.normal(size=n)
        c = float(rng.uniform(0.3, 2.0))
        sol = nl.solve_row_node(sp, v, c, grad_tol=1e-10, max_iter=20000)
        _, obj_star = kkt_enumeration(A, b, v, c)
        obj = np.abs(sol.x).sum() + v @ sol.x + c * (sol.x @ sol.x)
        assert obj == pytest.approx(obj_star, abs=1e-6)
    _report(2, "node solver KKT residuals and enumeration oracle",
            "(200 + 20 instances, 1e-8 / 1e-6)")


def test_criterion_3_bipartite_grid_convergence():
    prob = nl.gen_instance(nl.InstanceSpec(m=64, n=256, P=64, k=8, seed=0))
    prob.x_ref = nl.solve_bp_centralized(prob.A, prob.b, tol=1e-10)
    graph = nl.generate_network("lattice", 64)
    coloring = greedy_coloring(graph)
    assert coloring.n_colors == 2  # the grid is bipartite
    trace = nl.run(SolverConfig(kind="dadmm_row", rho=1.0), prob, graph, coloring,
                   nl.StopRule(targets=(1e-2, 1e-5), max_comm_steps=10_000))
    steps = trace.steps_to_accuracy.get(1e-5)
    assert steps is not None and steps < 10_000
    # the evaluation total gates the scalar lockstep kernel of one-row blocks
    evaluations = sum(trace.inner_iterations)
    assert {"dadmm_row": {"steps": steps, "evaluations": evaluations}} == PINNED["criterion_3"]
    _report(3, "color-scheduled ADMM reaches 1e-5 on the 8x8 grid",
            f"(m=64, n=256, k=8, rho=1: {steps} steps)")


#: Criterion 3's run in a new interpreter, which prints the OpenBLAS kernel
#: set its products ran on, the steps at which each target was reached and
#: the total node evaluations.
CRITERION_3_STEPS = """
import json
import netl1 as nl
from trace_digest import blas_kernels

prob = nl.gen_instance(nl.InstanceSpec(m=64, n=256, P=64, k=8, seed=0))
prob.x_ref = nl.solve_bp_centralized(prob.A, prob.b, tol=1e-10)
graph = nl.generate_network("lattice", 64)
trace = nl.run(nl.SolverConfig(kind="dadmm_row", rho=1.0), prob, graph, nl.greedy_coloring(graph),
               nl.StopRule(targets=(1e-2, 1e-5), max_comm_steps=10_000))
print(json.dumps([blas_kernels(), sorted(trace.steps_to_accuracy.items()),
                  sum(trace.inner_iterations)]))
"""


def test_criterion_3_steps_on_haswell_kernels():
    # the step and evaluation pins hold off the BLAS kernels OpenBLAS picks
    # by default: OPENBLAS_CORETYPE forces the set an AVX2-only x86 CPU
    # gets, in the child process only
    from trace_digest import blas_kernels

    if blas_kernels() == "unknown":
        pytest.skip("numpy's BLAS does not report an OpenBLAS kernel set")
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.pathsep.join([str(Path(nl.__file__).parent.parent), str(tests)])}
    done = subprocess.run([sys.executable, "-c", CRITERION_3_STEPS], env=env, cwd=tests,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    kernels, steps, evaluations = json.loads(done.stdout.splitlines()[-1])
    assert kernels == "Haswell"
    pinned = PINNED["criterion_3"]["dadmm_row"]
    assert steps == [[1e-5, pinned["steps"]], [1e-2, 212]]
    assert evaluations == pinned["evaluations"]
    _report(3, "the grid run's counts under OpenBLAS's Haswell kernels",
            f"(212 to 1e-2, 355 to 1e-5, {evaluations} evaluations)")


def test_criterion_4_cross_algorithm_agreement(desk8):
    prob, graph, coloring = desk8
    budgets = nl.StopRule(targets=(1e-2, 1e-3), max_comm_steps=10_000)
    reached = {}
    for kind, rho in [("dadmm_row", 1.0), ("dlasso", 1.0),
                      ("mm_ngs", 10.0), ("mm_dqa", 10.0), ("dn", 10.0)]:
        trace = nl.run(SolverConfig(kind=kind, rho=rho), prob, graph, coloring, budgets)
        assert 1e-3 in trace.steps_to_accuracy, f"{kind} missed 1e-3"
        reached[kind] = trace.steps_to_accuracy[1e-3]
    sub = nl.run(SolverConfig(kind="subgradient"), prob, graph, coloring,
                 nl.StopRule(targets=(1e-1,), max_comm_steps=10_000))
    assert 1e-1 in sub.steps_to_accuracy, "subgradient missed 1e-1"
    reached["subgradient"] = sub.steps_to_accuracy[1e-1]
    assert reached == PINNED["criterion_4"]
    _report(4, "all algorithms agree with the certified oracle", f"{reached}")


@pytest.fixture(scope="module")
def bank10():
    """Criterion 5's instance (m=40, n=160, P=10) and its 7 networks, as
    (name, graph, coloring) in NETWORK_MODELS order."""
    prob = nl.gen_instance(nl.InstanceSpec(m=40, n=160, P=10, k=5, seed=1))
    prob.x_ref = nl.solve_bp_centralized(prob.A, prob.b, tol=1e-10)
    networks = []
    for name, model, params in NETWORK_MODELS:
        graph = nl.connected_network(model, 10, seed=2, **params)
        networks.append((name, graph, greedy_coloring(graph)))
    return prob, networks


def test_criterion_5_communication_step_ordering(bank10):
    # every sweep's best rho, its steps to 1e-5 and the steps the sweep
    # executed are pinned, and dadmm_row's node evaluations
    prob, networks = bank10
    rule = nl.StopRule(targets=(1e-2, 1e-5), max_comm_steps=10_000)
    table = {"dadmm_row": {}, "dlasso": {}}
    wins, ratios, lines = 0, [], []
    for name, graph, coloring in networks:
        for kind, cells in table.items():
            sweep = rho_sweep(RHO_GRID, SolverConfig(kind=kind), prob, graph, coloring, rule)
            cells[name] = {
                "best_rho": sweep.best_rho,
                "steps": sweep.best_trace.steps_to_accuracy.get(1e-5),
                "executed": sum(t.comm_steps for t in sweep.traces.values()),
            }
            if kind == "dadmm_row":
                # the sweep's node evaluations gate the per-node kernel: the
                # color classes are too narrow to batch
                cells[name]["evaluations"] = sum(
                    sum(t.inner_iterations) for t in sweep.traces.values())
        sa, sl = table["dadmm_row"][name]["steps"], table["dlasso"][name]["steps"]
        assert sa is not None, f"{name}: tuned solver missed 1e-5"
        if sl is None or sa <= sl:
            wins += 1
        if sl is not None:
            ratios.append(sa / sl)
        lines.append(f"{name}:{sa}/{sl}")
    assert table == PINNED["criterion_5"]
    assert wins >= 6, f"won only {wins}/7 networks"
    assert np.mean(ratios) <= 0.8, f"mean ratio {np.mean(ratios):.3f}"
    _report(5, "tuned step ordering across the 7 network models",
            f"(wins {wins}/7, mean ratio {np.mean(ratios):.2f}; steps {'; '.join(lines)})")


#: Criterion 5's dadmm_row sweeps in a new interpreter, which prints the
#: OpenBLAS kernel set its products ran on and each network's cell.
CRITERION_5_SWEEPS = """
import json
import netl1 as nl
from netl1.bench import NETWORK_MODELS, RHO_GRID, rho_sweep
from trace_digest import blas_kernels

prob = nl.gen_instance(nl.InstanceSpec(m=40, n=160, P=10, k=5, seed=1))
prob.x_ref = nl.solve_bp_centralized(prob.A, prob.b, tol=1e-10)
rule = nl.StopRule(targets=(1e-2, 1e-5), max_comm_steps=10_000)
cells = {}
for name, model, params in NETWORK_MODELS:
    graph = nl.connected_network(model, 10, seed=2, **params)
    sweep = rho_sweep(RHO_GRID, nl.SolverConfig(kind="dadmm_row"), prob, graph,
                      nl.greedy_coloring(graph), rule)
    cells[name] = {"best_rho": sweep.best_rho,
                   "steps": sweep.best_trace.steps_to_accuracy.get(1e-5),
                   "executed": sum(t.comm_steps for t in sweep.traces.values()),
                   "evaluations": sum(sum(t.inner_iterations) for t in sweep.traces.values())}
print(json.dumps([blas_kernels(), cells]))
"""


@pytest.mark.parametrize("kernels", ["Haswell", "Sandybridge"])
def test_criterion_5_counts_on_other_kernels(kernels):
    # dadmm_row's seven sweep cells, evaluations included, hold off the BLAS
    # kernels OpenBLAS picks by default: on the sets it gives AVX2-only and
    # AVX-only x86 CPUs (OPENBLAS_CORETYPE, in the child process only, as
    # for criterion 3)
    from trace_digest import blas_kernels

    if blas_kernels() == "unknown":
        pytest.skip("numpy's BLAS does not report an OpenBLAS kernel set")
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_CORETYPE": kernels,
           "PYTHONPATH": os.pathsep.join([str(Path(nl.__file__).parent.parent), str(tests)])}
    done = subprocess.run([sys.executable, "-c", CRITERION_5_SWEEPS], env=env, cwd=tests,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    found, cells = json.loads(done.stdout.splitlines()[-1])
    assert found == kernels
    assert cells == PINNED["criterion_5"]["dadmm_row"]
    _report(5, f"dadmm_row's sweep counts under OpenBLAS's {kernels} kernels",
            f"({sum(c['evaluations'] for c in cells.values())} evaluations over 7 sweeps)")


def test_criterion_5_column_partition_sweeps(bank10):
    # dadmm_col tuned over RHO_GRID on two of the networks, with criterion
    # 5's instance drawn as a column partition: the fields of dadmm_row's
    # cells are pinned, no node solve hits its cap, and the
    # delta-regularized solution the runs converge to lies within criterion
    # 7's floor of x_ref
    prob, networks = bank10
    columns = prob.with_partition("column", 10)
    delta = 1e-3
    floor = nl.relative_error(solve_regularized_bp(prob.A, prob.b, delta, tol=1e-10),
                              prob.x_ref)
    assert floor <= 1e-8, f"delta={delta}: floor {floor:.2e}"
    rule = nl.StopRule(targets=(1e-2, 1e-5), max_comm_steps=10_000)
    cells = {}
    for name, graph, coloring in networks:
        if name not in ("erdos_renyi_dense", "lattice"):
            continue
        sweep = rho_sweep(RHO_GRID, SolverConfig(kind="dadmm_col", delta=delta), columns, graph,
                          coloring, rule)
        assert all(t.flagged_rounds == 0 for t in sweep.traces.values()), \
            f"{name}: a node solve hit its cap"
        cells[name] = {
            "best_rho": sweep.best_rho,
            "steps": sweep.best_trace.steps_to_accuracy.get(1e-5),
            "executed": sum(t.comm_steps for t in sweep.traces.values()),
            "evaluations": sum(sum(t.inner_iterations) for t in sweep.traces.values()),
        }
    assert {"dadmm_col": cells} == PINNED["criterion_5_column"]
    _report(5, "tuned column-partition sweeps",
            f"(steps {cells['erdos_renyi_dense']['steps']} and {cells['lattice']['steps']}, "
            f"floor {floor:.1e})")


def test_criterion_5_baselines_capped_at_dadmm_row_steps(bank10):
    # the double-looped baselines, tuned over RHO_GRID with each sweep's
    # budget capped at dadmm_row's pinned steps to 1e-5 on that network:
    # none reaches 1e-5 within them, and every weight runs the whole cap
    prob, networks = bank10
    table = {"mm_ngs": {}, "dn": {}, "mm_dqa": {}}
    for name, graph, coloring in networks:
        cap = PINNED["criterion_5"]["dadmm_row"][name]["steps"]
        rule = nl.StopRule(targets=(1e-2, 1e-5), max_comm_steps=cap)
        for kind, cells in table.items():
            sweep = rho_sweep(RHO_GRID, SolverConfig(kind=kind), prob, graph, coloring, rule)
            cells[name] = {
                "steps": sweep.best_trace.steps_to_accuracy.get(1e-5),
                "executed": sum(t.comm_steps for t in sweep.traces.values()),
            }
    assert table == PINNED["criterion_5_capped"]
    _report(5, "no tuned double-looped baseline reaches 1e-5 within dadmm_row's steps",
            "(mm_ngs, dn, mm_dqa on the 7 network models)")


def test_criterion_5_baselines_uncapped(bank10):
    # the double-looped baselines tuned over RHO_GRID with a budget of 5000
    # steps on two of the networks: each one's best rho, its steps to 1e-5
    # and the steps its sweep executed, next to dadmm_row's pinned steps
    prob, networks = bank10
    rule = nl.StopRule(targets=(1e-2, 1e-5), max_comm_steps=5000)
    table = {"mm_ngs": {}, "dn": {}, "mm_dqa": {}}
    for name, graph, coloring in networks:
        if name not in ("erdos_renyi_dense", "lattice"):
            continue
        for kind, cells in table.items():
            sweep = rho_sweep(RHO_GRID, SolverConfig(kind=kind), prob, graph, coloring, rule)
            cells[name] = {
                "best_rho": sweep.best_rho,
                "steps": sweep.best_trace.steps_to_accuracy.get(1e-5),
                "executed": sum(t.comm_steps for t in sweep.traces.values()),
            }
            assert cells[name]["steps"] > PINNED["criterion_5"]["dadmm_row"][name]["steps"]
    assert table == PINNED["criterion_5_uncapped"]
    _report(5, "the tuned double-looped baselines need more steps than dadmm_row",
            "(mm_ngs, dn, mm_dqa on erdos_renyi_dense and lattice, budget 5000)")


def test_criterion_6_scaling_exponent():
    result = nl.scale_experiment(m=128, n=512, k=16, p_values=(2, 4, 8, 16, 32, 64),
                                 seed=0, rho=RHO_SCALE, target=1e-3, max_comm_steps=10_000)
    admm, lasso = result.steps["dadmm_row"], result.steps["dlasso"]
    assert all(s > 0 for s in admm + lasso), "a cell exhausted the step budget"
    exponent = result.exponents["dadmm_row"]
    assert 0.6 <= exponent <= 1.0, f"fitted exponent {exponent:.3f} outside [0.6, 1.0]"
    assert all(a <= l for a, l in zip(admm, lasso)), "ordering violated at some P"
    pinned = PINNED["criterion_6"]
    assert (admm, lasso) == (pinned["dadmm_row"], pinned["dlasso"])
    assert round(exponent, 3) == pinned["exponent"]
    _report(6, "network-size scaling", f"(exponent {exponent:.3f}, steps {admm} vs {lasso})")


def test_criterion_7_column_partition_recovery():
    prob = nl.gen_instance(nl.InstanceSpec(m=40, n=160, P=8, k=5, seed=3), kind="column")
    prob.x_ref = nl.solve_bp_centralized(prob.A, prob.b, tol=1e-10)
    graph = nl.generate_network("lattice", 8)
    coloring = greedy_coloring(graph)
    rule = nl.StopRule(targets=(1e-2, 1e-5), max_comm_steps=6000)
    estimates, steps, floors = {}, {}, {}
    for delta in (1e-3, 5e-4):
        # the column run converges to the delta-regularized solution: how
        # far that lies from x_ref is the floor of the run's error
        x_delta = solve_regularized_bp(prob.A, prob.b, delta, tol=1e-10)
        floors[delta] = nl.relative_error(x_delta, prob.x_ref)
        assert floors[delta] <= 1e-8, f"delta={delta}: floor {floors[delta]:.2e}"
        config = SolverConfig(kind="dadmm_col", rho=1.0, delta=delta)
        stepper = make_stepper(config, prob, graph, coloring)
        err = np.inf
        for k in range(1, rule.max_comm_steps + 1):
            assert stepper.step(k).flagged == 0, f"delta={delta}: a node solve hit its cap"
            fragments = np.concatenate(
                [psi_p(sp, y)[1] for sp, y in zip(stepper.col_blocks, stepper.states.primal)]
            )
            err = nl.relative_error(fragments, prob.x_ref)
            if err <= rule.finest:
                steps[str(delta)] = k
                break
        estimates[delta] = fragments
        assert err <= 1e-4, f"delta={delta} stalled at relative error {err:.2e}"
    drift = float(np.linalg.norm(estimates[1e-3] - estimates[5e-4])
                  / np.linalg.norm(prob.x_ref))
    assert drift <= 1e-4, f"halving delta moved the solution by {drift:.2e}"
    assert {"dadmm_col": steps} == PINNED["criterion_7"]
    _report(7, "column-partition recovery and delta stability",
            f"(steps {steps}, drift {drift:.1e}, floors {floors[1e-3]:.1e} and "
            f"{floors[5e-4]:.1e})")


def test_criterion_8_exact_invariants(desk8):
    prob, graph, coloring = desk8
    # gamma sums to zero every round for the three ADMM variants
    for kind, pkind in [("dadmm_row", "row"), ("dlasso", "row"), ("dadmm_col", "column")]:
        p = prob if pkind == "row" else nl.gen_instance(
            nl.InstanceSpec(m=40, n=160, P=8, k=5, seed=3), kind="column")
        p.x_ref = prob.x_ref
        stepper = make_stepper(SolverConfig(kind=kind, rho=1.0), p, graph, coloring)
        for k in range(1, 6):
            stepper.step(k)
            assert np.abs(stepper.states.gamma.sum(axis=0)).max() <= 1e-9

    # proper colorings on 100 random graphs, and diagonal per-class incidence
    models = [("erdos_renyi", {"p": 0.3}), ("watts_strogatz", {"n": 4, "p": 0.5}),
              ("barabasi_albert", {}), ("geometric", {"d": 0.5})]
    for seed in range(100):
        model, params = models[seed % len(models)]
        g = nl.generate_network(model, 12, seed, **params)
        col = greedy_coloring(g)
        assert is_proper(g, col)
        B = incidence_oracle(g.n_nodes, g.edges)
        for cls in col.classes:
            rows = B[list(cls), :]
            np.testing.assert_allclose(rows @ rows.T, np.diag(g.degrees[list(cls)]), atol=0)

    # stale/fresh message discipline: the class sweep agrees bitwise with
    # a reference round reading X_new[j] exactly for lower-color neighbors
    blocks = [RowSubproblem(Ap, bp) for Ap, bp in partition(prob.A, prob.b, prob.partition)]
    stepper = make_stepper(SolverConfig(kind="dadmm_row", rho=1.0), prob, graph, coloring)
    X, gamma = stepper.states.primal, stepper.states.gamma
    for k in range(1, 4):
        X, gamma = reference_color_round(
            X, gamma, graph.edges, coloring.colors, coloring.classes, 1.0,
            lambda p, v, c: solve_row_node(blocks[p], v, c, grad_tol=solvers.GRAD_TOL,
                                           max_iter=solvers.MAX_ITER).x)
        stepper.step(k)
        assert np.array_equal(stepper.states.primal, X)
        assert np.array_equal(stepper.states.gamma, gamma)

    # repeated runs give byte-identical traces
    rule = nl.StopRule(targets=(1e-2,), max_comm_steps=60)
    byte_versions = []
    for _ in range(2):
        tr = nl.run(SolverConfig(kind="dadmm_row", rho=1.0), prob, graph, coloring, rule)
        rows = [f"{a:.17g},{b:.17g},{c:.17g},{d:.17g}" for a, b, c, d in zip(
            tr.max_rel_err, tr.node0_rel_err, tr.consensus_residual, tr.objective)]
        byte_versions.append("\n".join(rows).encode())
    assert byte_versions[0] == byte_versions[1]
    _report(8, "exact invariant suite",
            "(gamma sums, 100 colorings, diagonal class incidence, reference rounds, "
            "trace bytes)")


def test_criterion_9_gradient_checks():
    rng = np.random.default_rng(102)
    # column-side dual building block
    for _ in range(5):
        sp = ColSubproblem(rng.normal(size=(4, 6)), delta=0.7)
        y = rng.normal(size=4)
        _, _, grad = psi_p(sp, y)
        fd = central_difference_gradient(lambda yy: psi_p(sp, yy)[0], y)
        assert np.abs(grad - fd).max() <= 1e-5 * (1 + np.abs(fd).max())
    # smooth part of the accelerated inner loop on a triangle graph
    g = nl.Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    rho = 0.9
    lam = rng.normal(size=(3, 5))
    gamma = incidence_oracle(g.n_nodes, g.edges) @ lam
    X = rng.normal(size=(3, 5))

    def smooth(xflat):
        Xv = xflat.reshape(3, 5)
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
    fd = central_difference_gradient(smooth, X.ravel()).reshape(3, 5)
    assert np.abs(analytic - fd).max() <= 1e-5 * (1 + np.abs(fd).max())
    _report(9, "analytic gradients match central differences", "(1e-5 relative)")
