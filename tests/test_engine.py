import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import netl1 as nl
from netl1 import engine, solvers
from netl1.engine import RunTrace, StopRule, global_estimate, relative_error, run
from netl1.linalg import InputError, PartitionSpec
from netl1.nodeprob import ColSubproblem
from netl1.solvers import NodeStates, SolverConfig, make_stepper

from test_solvers import KIND_COUNTS, desk_problem


def small_problem(P=4, kind="row", seed=30):
    prob = nl.gen_instance(nl.InstanceSpec(m=16, n=48, P=P, k=2, seed=seed), kind=kind)
    prob.x_ref = nl.solve_bp_centralized(prob.A, prob.b, tol=1e-10)
    return prob


class TestRelativeError:
    def test_exact(self):
        x = np.array([1.0, -2.0])
        assert relative_error(x, x) == 0.0

    def test_zero_estimate(self):
        assert relative_error(np.zeros(3), np.array([0.0, 3.0, 4.0])) == 1.0

    def test_double(self):
        x = np.array([1.0, 2.0, -1.0])
        assert relative_error(2 * x, x) == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(InputError):
            relative_error(np.ones(2), np.zeros(2))


class TestStopRule:
    def test_defaults(self):
        rule = StopRule()
        assert rule.targets == (1e-2, 1e-5) and rule.max_comm_steps == 10_000

    def test_must_decrease(self):
        with pytest.raises(InputError):
            StopRule(targets=(1e-5, 1e-2))
        with pytest.raises(InputError):
            StopRule(targets=())

    @pytest.mark.parametrize("bad", [2.5, 3.0, 0, "10"])
    def test_budget_must_be_a_positive_integer(self, bad):
        # a float budget would otherwise fail in run, inside range()
        with pytest.raises(InputError):
            StopRule(max_comm_steps=bad)
        assert StopRule(max_comm_steps=np.int64(3)).max_comm_steps == 3


class TestGlobalEstimate:
    def test_row_identical_copies(self):
        states = NodeStates.zeros(3, 4)
        states.primal[:] = [1.0, 2.0, 3.0, 4.0]
        spec = PartitionSpec("row", (2, 2, 2))
        np.testing.assert_array_equal(
            global_estimate(states, spec, x_ref=np.ones(4)), [1.0, 2.0, 3.0, 4.0]
        )

    def test_row_returns_worst_node(self):
        states = NodeStates.zeros(2, 3)
        x_ref = np.array([1.0, 0.0, 0.0])
        states.primal[0] = x_ref
        states.primal[1] = [0.0, 5.0, 0.0]
        spec = PartitionSpec("row", (1, 1))
        np.testing.assert_array_equal(global_estimate(states, spec, x_ref), [0.0, 5.0, 0.0])

    def test_column_concatenates_fragments_in_node_order(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 5))
        spec = PartitionSpec("column", (2, 3))
        blocks = [ColSubproblem(A[:, :2], 1.0), ColSubproblem(A[:, 2:], 1.0)]
        states = NodeStates.zeros(2, 3)
        states.primal = rng.normal(size=(2, 3)) * 4
        est = global_estimate(states, spec, x_ref=np.ones(5), col_blocks=blocks)
        from netl1.nodeprob import psi_p

        expected = np.concatenate(
            [psi_p(blocks[p], states.primal[p])[1] for p in range(2)]
        )
        np.testing.assert_array_equal(est, expected)
        assert est.shape == (5,)


class TestRun:
    def test_step_zero_error_is_one(self):
        prob = small_problem()
        g = nl.generate_network("lattice", 4)
        tr = run(SolverConfig(kind="dadmm_row"), prob, g,
                 rule=StopRule(targets=(1e-2,), max_comm_steps=5))
        assert tr.max_rel_err[0] == pytest.approx(1.0)
        assert tr.consensus_residual[0] == 0.0
        assert tr.objective[0] == 0.0

    def test_series_lengths_and_steps_consistent(self):
        prob = small_problem()
        g = nl.generate_network("lattice", 4)
        rule = StopRule(targets=(1e-2, 1e-4), max_comm_steps=2000)
        tr = run(SolverConfig(kind="dadmm_row"), prob, g, rule=rule)
        assert len(tr.max_rel_err) == tr.comm_steps + 1
        for target, step in tr.steps_to_accuracy.items():
            assert tr.max_rel_err[step] <= target
            assert all(e > target for e in tr.max_rel_err[:step])
        assert tr.converged

    def test_disconnected_graph_rejected(self):
        prob = small_problem()
        g = nl.Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(InputError):
            run(SolverConfig(kind="dadmm_row"), prob, g)

    def test_missing_reference_rejected(self):
        prob = small_problem()
        prob.x_ref = None
        g = nl.generate_network("lattice", 4)
        with pytest.raises(InputError):
            run(SolverConfig(kind="dadmm_row"), prob, g)

    @pytest.mark.parametrize("bad", ["nan", "inf", "short"])
    def test_reference_set_after_construction_is_checked(self, bad):
        # a NaN or inf entry used to give a 0-step trace with a NaN error,
        # and a short vector numpy's broadcast ValueError
        prob = small_problem()
        x_ref = prob.x_ref.copy()
        if bad == "short":
            x_ref = x_ref[:-1]
        else:
            x_ref[3] = float(bad)
        prob.x_ref = x_ref
        g = nl.generate_network("lattice", 4)
        with pytest.raises(InputError, match="x_ref"):
            run(SolverConfig(kind="dadmm_row"), prob, g)
        with pytest.raises(InputError, match="x_ref"):
            nl.rho_sweep((0.1, 1.0), SolverConfig(kind="dadmm_row"), prob, g)

    def test_budget_exhaustion_not_converged(self):
        prob = small_problem()
        g = nl.generate_network("lattice", 4)
        tr = run(SolverConfig(kind="dadmm_row"), prob, g,
                 rule=StopRule(targets=(1e-8,), max_comm_steps=3))
        assert not tr.converged and tr.comm_steps == 3

    def test_start_meeting_the_finest_target_takes_no_step(self):
        # the zero start has error 1
        prob = small_problem()
        g = nl.generate_network("lattice", 4)
        tr = run(SolverConfig(kind="dadmm_row"), prob, g,
                 rule=StopRule(targets=(2.0,), max_comm_steps=5))
        assert (tr.comm_steps, tr.converged, tr.steps_to_accuracy) == (0, True, {2.0: 0})
        assert list(tr.max_rel_err) == [1.0] and list(tr.inner_iterations) == [0]

    def test_capped_node_solves_are_flagged(self, monkeypatch):
        # one Newton step per solve is too few, so every step has a group
        # solve that hits its cap
        prob = small_problem()
        g = nl.generate_network("lattice", 4)
        monkeypatch.setattr(solvers, "MAX_ITER", 1)
        config = SolverConfig(kind="dadmm_row")
        tr = run(config, prob, g, rule=StopRule(targets=(1e-8,), max_comm_steps=5))
        assert tr.flagged_rounds == tr.comm_steps == 5
        stepper = make_stepper(config, prob, g, nl.greedy_coloring(g))
        assert 1 <= stepper.step(1).flagged <= len(stepper.groups)

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        prob = small_problem(seed=31)
        g = nl.connected_network("erdos_renyi", 4, seed=2, p=0.6)
        rule = StopRule(targets=(1e-2, 1e-4), max_comm_steps=300)
        paths = []
        for repeat in range(2):
            tr = run(SolverConfig(kind="dadmm_row"), prob, g, rule=rule)
            path = tmp_path / f"trace_{repeat}.csv"
            tr.to_csv(path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_trace_csv_format(self, tmp_path):
        prob = small_problem()
        g = nl.generate_network("lattice", 4)
        tr = run(SolverConfig(kind="dadmm_row"), prob, g,
                 rule=StopRule(targets=(1e-2,), max_comm_steps=4))
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,max_rel_err,node0_rel_err,consensus_residual,objective"
        assert len(lines) == len(tr.max_rel_err) + 1
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 1.0

    def test_double_loop_accounting_one_step_per_inner_iteration(self, monkeypatch):
        # the trace advances one step per inner iteration; outer updates are free
        prob = small_problem(seed=33)
        g = nl.generate_network("lattice", 4)
        monkeypatch.setattr(solvers, "INNER_CAP", 7)
        stepper = make_stepper(SolverConfig(kind="mm_ngs", rho=10.0), prob, g)
        gamma_before = stepper.states.gamma.copy()
        for k in range(1, 8):
            stepper.step(k)
        # after at most INNER_CAP steps the outer update must have fired
        assert not np.array_equal(stepper.states.gamma, gamma_before)

    def test_desk_instance_on_grid_reaches_fine_target(self):
        prob = nl.gen_instance(nl.InstanceSpec(m=40, n=160, P=8, k=5, seed=3))
        prob.x_ref = nl.solve_bp_centralized(prob.A, prob.b, tol=1e-10)
        g = nl.generate_network("lattice", 8)
        tr = run(SolverConfig(kind="dadmm_row", rho=1.0), prob, g)
        steps = tr.steps_to_accuracy.get(1e-5)
        assert steps is not None and steps < 10_000

    def test_final_error_below_first_on_convergent_runs(self):
        # per-step monotonicity is not promised, but convergent runs end
        # below their starting error
        prob = small_problem(seed=32)
        g = nl.generate_network("lattice", 4)
        for kind in ("dadmm_row", "dlasso"):
            tr = run(SolverConfig(kind=kind, rho=1.0), prob, g,
                     rule=StopRule(targets=(1e-2, 1e-4), max_comm_steps=3000))
            assert tr.converged
            assert tr.max_rel_err[-1] <= tr.max_rel_err[0]

    def test_column_run_records_fragment_error(self):
        prob = small_problem(P=4, kind="column", seed=34)
        g = nl.generate_network("lattice", 4)
        tr = run(SolverConfig(kind="dadmm_col", rho=0.5), prob, g,
                 rule=StopRule(targets=(1e-1,), max_comm_steps=500))
        assert tr.max_rel_err[0] == pytest.approx(1.0)
        assert tr.node0_rel_err == tr.max_rel_err


SERIES = ("max_rel_err", "node0_rel_err", "consensus_residual", "objective", "inner_iterations")


def subgradient_run():
    """The KIND_COUNTS subgradient run (310 steps) and the inputs it ran on."""
    rho, steps, reached, _ = KIND_COUNTS["subgradient"]
    prob = desk_problem()
    g = nl.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    coloring = nl.greedy_coloring(g)
    rule = StopRule(targets=tuple(reached), max_comm_steps=3000)
    return (SolverConfig(kind="subgradient", rho=rho), prob, g, coloring, rule), steps


class TestCompactSeries:
    def test_series_are_typed_arrays(self):
        tr = run(*subgradient_run()[0])
        for name in SERIES:
            series = getattr(tr, name)
            assert isinstance(series, array)
            assert series.typecode == ("q" if name == "inner_iterations" else "d")
            assert len(series) == tr.comm_steps + 1

    def test_recorded_run_holds_at_most_64_bytes_per_step(self):
        args, steps = subgradient_run()
        _, _, g, coloring, _ = args
        g.degrees, g.endpoints, g.adjacency_matrix, coloring.classes  # cached first
        tracemalloc.start()
        try:
            tr = run(*args)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = snapshot.filter_traces([tracemalloc.Filter(True, engine.__file__)])
        size = sum(stat.size for stat in held.statistics("filename"))
        assert tr.comm_steps == steps >= 300
        assert size / (steps + 1) <= 64, f"{size / (steps + 1):.1f} bytes per recorded step"

    def test_identical_runs_compare_equal(self):
        args, _ = subgradient_run()
        assert run(*args) == run(*args)  # every field, each series included

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rows=st.lists(st.tuples(*[st.floats(allow_nan=False)] * 4), min_size=1, max_size=20))
    def test_csv_roundtrip_is_exact(self, tmp_path_factory, rows):
        # 17 significant digits name every double, signed zeros and
        # infinities included
        tr = RunTrace(solver="dadmm_row", rho=1.0, delta=None)
        for row in rows:
            for name, value in zip(SERIES, row):
                getattr(tr, name).append(value)
        path = tmp_path_factory.mktemp("csv") / "trace.csv"
        tr.to_csv(path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(rows) + 1
        columns = list(zip(*(line.split(",") for line in lines[1:])))
        assert [int(s) for s in columns[0]] == list(range(len(rows)))
        for name, column in zip(SERIES, columns[1:]):
            parsed = array("d", map(float, column))
            assert parsed.tobytes() == array("d", getattr(tr, name)).tobytes()


def replayed_series(config, prob, g, coloring, steps):
    """The trace's four series at steps 0..steps, taken by replaying the run
    through make_stepper and the public helpers, and for row partitions the
    worst node at each step."""
    stepper = make_stepper(config, prob, g, coloring)
    i, j = g.endpoints
    series, worst = [], []
    for k in range(steps + 1):
        if k:
            stepper.step(k)
        X = stepper.states.primal
        estimate = global_estimate(stepper.states, prob.partition, prob.x_ref, stepper.col_blocks)
        max_err = node0 = relative_error(estimate, prob.x_ref)
        if stepper.col_blocks is None:
            node0 = relative_error(X[0], prob.x_ref)
            worst.append(int(np.argmax(np.linalg.norm(X - prob.x_ref, axis=1))))
        series.append((max_err, node0, float(np.linalg.norm(X[i] - X[j], axis=1).max()),
                       float(np.abs(estimate).sum())))
    return series, worst


@pytest.mark.parametrize("kind, rho, partition", [
    ("dadmm_row", 1.0, "row"),
    ("subgradient", 1.0, "row"),
    ("dadmm_col", 0.5, "column"),
])
def test_recorded_series_match_public_helpers(kind, rho, partition):
    # run records every step in one pass over the copies; each recorded
    # float must be bitwise what the public helpers give for that step
    prob = small_problem(P=4, kind=partition, seed=35)
    g = nl.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    coloring = nl.greedy_coloring(g)
    config = SolverConfig(kind=kind, rho=rho)
    tr = run(config, prob, g, coloring, StopRule(targets=(1e-1, 1e-4), max_comm_steps=60))
    series, worst = replayed_series(config, prob, g, coloring, tr.comm_steps)
    recorded = list(zip(tr.max_rel_err, tr.node0_rel_err, tr.consensus_residual, tr.objective))
    assert recorded == series
    if partition == "row":
        assert any(p != 0 for p in worst)  # the worst copy is not always node 0's
    assert len(recorded) > 10
