import numpy as np
import pytest

import netl1 as nl
from netl1.bench import (
    RHO_GRID,
    InstanceSpec,
    ToleranceError,
    _achieved,
    connected_network,
    gen_instance,
    rho_sweep,
    scale_experiment,
    solve_bp_centralized,
)
from netl1.engine import StopRule
from netl1.linalg import InputError
from netl1.solvers import SolverConfig

from oracles import ascending_rho_sweep, solve_regularized_bp


class TestGenInstance:
    def test_scenario_block_sizes(self):
        spec = InstanceSpec(m=500, n=2000, P=50, k=10, seed=0)
        prob = gen_instance(spec)
        assert prob.partition.sizes == (10,) * 50

    def test_rhs_exactly_consistent(self):
        prob = gen_instance(InstanceSpec(m=24, n=96, P=4, k=3, seed=1))
        # b was computed as A @ x0 with a +-1 sparse x0
        x_ref = solve_bp_centralized(prob.A, prob.b, tol=1e-10)
        assert np.abs(np.rint(x_ref) - x_ref).max() < 1e-6  # recovers +-1 signal
        assert np.count_nonzero(np.rint(x_ref)) == 3

    def test_entry_variance(self):
        spec = InstanceSpec(m=250, n=400, P=10, k=5, seed=2)
        prob = gen_instance(spec)
        sample = prob.A.ravel()
        assert sample.size == 100_000
        assert abs(sample.var() - 1 / np.sqrt(250)) <= 0.05 / np.sqrt(250)

    def test_deterministic(self):
        a = gen_instance(InstanceSpec(m=16, n=32, P=4, k=2, seed=9))
        b = gen_instance(InstanceSpec(m=16, n=32, P=4, k=2, seed=9))
        assert (a.A == b.A).all() and (a.b == b.b).all()

    def test_invalid_specs_rejected(self):
        with pytest.raises(InputError):
            InstanceSpec(m=32, n=32, P=4, k=2)  # m >= n
        with pytest.raises(InputError):
            InstanceSpec(m=16, n=32, P=4, k=9)  # k > m/2
        with pytest.raises(InputError):
            gen_instance(InstanceSpec(m=16, n=32, P=5, k=2))  # P does not divide m
        with pytest.raises(InputError):
            gen_instance(InstanceSpec(m=16, n=33, P=4, k=2), kind="column")
        with pytest.raises(InputError, match="InstanceSpec.seed must be non-negative"):
            InstanceSpec(m=16, n=48, P=4, k=2, seed=-1)  # numpy's ValueError from gen_instance

    @pytest.mark.parametrize("name", ["m", "n", "P", "k", "seed"])
    def test_non_integer_fields_rejected(self, name):
        # numpy's generator once raised its own TypeError for these, late
        spec = {"m": 40, "n": 160, "P": 8, "k": 5, "seed": 1}
        for value in (spec[name] + 0.5, float(spec[name])):
            with pytest.raises(InputError, match=f"InstanceSpec.{name} must be an integer"):
                InstanceSpec(**{**spec, name: value})
        prob = gen_instance(InstanceSpec(**{**spec, name: np.int64(spec[name])}))
        assert prob.A.shape == (40, 160) and prob.partition.sizes == (5,) * 8


class TestCentralizedOracle:
    def test_square_invertible_case(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(5, 5)) + 5 * np.eye(5)
        x_true = rng.normal(size=5)
        b = A @ x_true
        # unique feasible point, so the minimum-l1 point is x_true... only
        # when the system is square; solve directly and compare
        x = solve_bp_centralized(A, b, tol=1e-9)
        np.testing.assert_allclose(x, x_true, atol=1e-6)

    def test_collinear_geometry(self):
        A = np.array([[1.0, 1.0]])
        b = np.array([2.0])
        x = solve_bp_centralized(A, b, tol=1e-10)
        assert np.abs(x).sum() == pytest.approx(2.0, abs=1e-8)
        assert np.abs(A @ x - b).max() <= 1e-10 * 3

    def test_exact_recovery_with_certificate(self):
        prob = gen_instance(InstanceSpec(m=10, n=40, P=2, k=2, seed=4))
        x = solve_bp_centralized(prob.A, prob.b, tol=1e-10)
        x0 = np.zeros(40)
        # rebuild the planted signal from the generator streams
        support = np.random.default_rng([4, 1]).choice(40, size=2, replace=False)
        signs = np.random.default_rng([4, 2]).choice([-1.0, 1.0], size=2)
        x0[support] = signs
        assert np.linalg.norm(x - x0) <= 1e-6

    def test_matches_linear_programming_oracle(self):
        # independent route: solve min ||x||_1, Ax=b as an LP in (x+, x-)
        from scipy.optimize import linprog

        prob = gen_instance(InstanceSpec(m=12, n=36, P=2, k=2, seed=14))
        x = solve_bp_centralized(prob.A, prob.b, tol=1e-10)
        n = prob.n
        res = linprog(
            c=np.ones(2 * n),
            A_eq=np.hstack([prob.A, -prob.A]),
            b_eq=prob.b,
            bounds=[(0, None)] * (2 * n),
            method="highs",
        )
        assert res.status == 0
        x_lp = res.x[:n] - res.x[n:]
        assert np.abs(x).sum() == pytest.approx(np.abs(x_lp).sum(), abs=1e-8)
        np.testing.assert_allclose(x, x_lp, atol=1e-7)

    @pytest.mark.parametrize("case", ["short", "nan"])
    def test_rejects_a_bad_b_before_iterating(self, monkeypatch, case):
        # with a budget of no iterations only the entry check can raise
        # InputError; a valid b runs the budget out
        monkeypatch.setattr(nl.bench, "ORACLE_MAX_ITER", 0)
        prob = gen_instance(InstanceSpec(m=10, n=40, P=2, k=2, seed=4))
        with pytest.raises(ToleranceError):
            solve_bp_centralized(prob.A, prob.b)
        b = prob.b[:-1] if case == "short" else np.where(np.arange(10) == 3, np.nan, prob.b)
        with pytest.raises(InputError):
            solve_bp_centralized(prob.A, b)

    def test_self_consistency_under_tightening(self):
        prob = gen_instance(InstanceSpec(m=16, n=48, P=4, k=2, seed=5))
        tol = 1e-7
        x1 = solve_bp_centralized(prob.A, prob.b, tol=tol)
        x2 = solve_bp_centralized(prob.A, prob.b, tol=tol / 10)
        assert np.linalg.norm(x1 - x2) <= 10 * tol


class TestRegularizedOracle:
    def test_small_delta_matches_bp_on_recovery_instances(self):
        prob = gen_instance(InstanceSpec(m=24, n=96, P=4, k=3, seed=6))
        x_bp = solve_bp_centralized(prob.A, prob.b, tol=1e-10)
        x_d3 = solve_regularized_bp(prob.A, prob.b, delta=1e-3, tol=1e-10)
        x_d4 = solve_regularized_bp(prob.A, prob.b, delta=1e-4, tol=1e-10)
        assert np.linalg.norm(x_d3 - x_d4) <= 1e-4
        assert np.linalg.norm(x_d3 - x_bp) <= 1e-4

    def test_rejects_bad_delta(self):
        with pytest.raises(InputError):
            solve_regularized_bp(np.eye(2), np.ones(2), delta=0.0)


class TestConnectedNetwork:
    def test_retries_until_connected(self):
        g = connected_network("erdos_renyi", 20, seed=0, p=0.15)
        assert nl.is_connected(g)

    def test_small_watts_strogatz_clamped(self):
        g = connected_network("watts_strogatz", 2, seed=0, n=4, p=0.6)
        assert g.n_nodes == 2 and g.n_edges == 1
        g4 = connected_network("watts_strogatz", 4, seed=0, n=4, p=0.6)
        assert nl.is_connected(g4)
        # an odd count on an odd P has no chords: n=3 is lowered to the ring
        g5 = connected_network("watts_strogatz", 5, n=3, p=0.0)
        assert g5 == nl.generate_network("watts_strogatz", 5, n=2, p=0.0)
        assert (g5.degrees == 2).all()

    def test_missing_parameter_is_an_input_error(self):
        with pytest.raises(InputError, match=r"watts_strogatz takes the parameters \(n, p\)"):
            connected_network("watts_strogatz", 8, p=0.5)


class TestRhoSweep:
    def _setup(self):
        prob = gen_instance(InstanceSpec(m=16, n=48, P=4, k=2, seed=7))
        prob.x_ref = solve_bp_centralized(prob.A, prob.b, tol=1e-10)
        g = nl.generate_network("lattice", 4)
        return prob, g

    def test_singleton_grid(self):
        prob, g = self._setup()
        rule = StopRule(targets=(1e-2, 1e-4), max_comm_steps=2000)
        result = rho_sweep((1.0,), SolverConfig(kind="dadmm_row"), prob, g, rule=rule)
        assert result.best_rho == 1.0
        assert result.best_trace.converged

    def test_winner_reaches_finest_target(self):
        prob, g = self._setup()
        rule = StopRule(targets=(1e-2, 1e-4), max_comm_steps=3000)
        result = rho_sweep((1e-2, 1e-1, 1.0), SolverConfig(kind="dadmm_row"),
                           prob, g, rule=rule)
        assert 1e-4 in result.best_trace.steps_to_accuracy
        steps = {r: t.steps_to_accuracy.get(1e-4) for r, t in result.traces.items()}
        best = result.best_trace.steps_to_accuracy[1e-4]
        assert all(s is None or s >= best for s in steps.values())

    def test_budget_prefix_property(self):
        # doubling the budget never increases the winner's steps-to-accuracy
        prob, g = self._setup()
        short = rho_sweep((1e-1, 1.0), SolverConfig(kind="dadmm_row"), prob, g,
                          rule=StopRule(targets=(1e-2,), max_comm_steps=150))
        long = rho_sweep((1e-1, 1.0), SolverConfig(kind="dadmm_row"), prob, g,
                         rule=StopRule(targets=(1e-2,), max_comm_steps=300))
        s_short = short.best_trace.steps_to_accuracy.get(1e-2)
        s_long = long.best_trace.steps_to_accuracy.get(1e-2)
        if s_short is not None:
            assert s_long is not None and s_long <= s_short

    def test_best_rho_in_expected_decade(self):
        # tuned color-scheduled ADMM lands in the 1e-2..1 decade band
        prob = gen_instance(InstanceSpec(m=40, n=160, P=8, k=5, seed=3))
        prob.x_ref = solve_bp_centralized(prob.A, prob.b, tol=1e-10)
        g = nl.generate_network("lattice", 8)
        rule = StopRule(targets=(1e-2, 1e-5), max_comm_steps=10_000)
        result = rho_sweep((1e-3, 1e-2, 1e-1, 1.0, 10.0), SolverConfig(kind="dadmm_row"),
                           prob, g, rule=rule)
        assert result.best_rho in (1e-2, 1e-1, 1.0)

    def test_early_abandon_same_winner(self):
        # the capped sweep picks the winner of one full-budget run per rho,
        # ranked by the same key
        prob, g = self._setup()
        grid = (1e-2, 1e-1, 1.0)
        rule = StopRule(targets=(1e-2, 1e-4), max_comm_steps=3000)
        fast = rho_sweep(grid, SolverConfig(kind="dadmm_row"), prob, g, rule=rule)
        full = {rho: nl.run(SolverConfig(kind="dadmm_row", rho=rho), prob, g, rule=rule)
                for rho in grid}
        best_rho = min(grid, key=lambda rho: _achieved(full[rho], rule.targets) + (rho,))
        assert fast.best_rho == best_rho
        assert (fast.best_trace.steps_to_accuracy[1e-4]
                == full[best_rho].steps_to_accuracy[1e-4])

    @pytest.mark.parametrize("grid, budget", [
        (RHO_GRID, 3000),
        (RHO_GRID[::-1], 3000),
        ((1.0,), 3000),
        ((1e-1, 1.0), 3000),
        ((1.0, 1e-1, 1.0, 1e-2), 3000),
        (RHO_GRID, 14),  # the median, 0.1, needs 16 steps to 1e-4; 1.0 needs 12
    ])
    def test_same_winner_as_ascending_sweep(self, grid, budget):
        prob, g = self._setup()
        rule = StopRule(targets=(1e-2, 1e-4), max_comm_steps=budget)
        config = SolverConfig(kind="dadmm_row")
        new = rho_sweep(grid, config, prob, g, rule=rule)
        ref, ref_executed = ascending_rho_sweep(grid, config, prob, g, rule=rule)
        assert new.best_rho == ref.best_rho
        assert new.best_trace == ref.best_trace  # every series bitwise equal
        assert list(new.traces) == list(ref.traces)
        for rho, trace in new.traces.items():
            other = ref.traces[rho]
            n = min(trace.comm_steps, other.comm_steps) + 1
            for name in ("max_rel_err", "node0_rel_err", "consensus_residual",
                         "objective", "inner_iterations"):
                assert getattr(trace, name)[:n] == getattr(other, name)[:n]
        assert sum(t.comm_steps for t in new.traces.values()) <= ref_executed

    def test_weights_above_a_first_winner_run_one_step_less(self):
        # the median 0.1 runs first on RHO_GRID and wins here in s steps: a
        # larger weight wins only in fewer (ties go to the smaller weight),
        # so 1 and 10 run at most s - 1, and 0.01 and 0.001 at most s
        prob = gen_instance(InstanceSpec(m=16, n=48, P=4, k=2, seed=0))
        prob.x_ref = solve_bp_centralized(prob.A, prob.b, tol=1e-10)
        g = nl.generate_network("lattice", 4)
        rule = StopRule(targets=(1e-2, 1e-4), max_comm_steps=3000)
        config = SolverConfig(kind="dadmm_row")
        result = rho_sweep(RHO_GRID, config, prob, g, rule=rule)
        assert result.best_rho == 0.1
        s = result.best_trace.steps_to_accuracy[1e-4]
        for rho, trace in result.traces.items():
            assert trace.comm_steps <= (s - 1 if rho > 0.1 else s)
        ref, _ = ascending_rho_sweep(RHO_GRID, config, prob, g, rule=rule)
        assert (result.best_rho, result.best_trace) == (ref.best_rho, ref.best_trace)

    def test_target_met_at_step_zero(self):
        # every weight meets 2.0 at the zero start (error 1) and takes no
        # step; the cap is 0 steps, and each later weight's budget is 1
        prob, g = self._setup()
        rule = StopRule(targets=(2.0,), max_comm_steps=10)
        result = rho_sweep(RHO_GRID, SolverConfig(kind="dadmm_row"), prob, g, rule=rule)
        assert result.best_rho == min(RHO_GRID)
        for trace in result.traces.values():
            assert trace.steps_to_accuracy == {2.0: 0}
            assert (trace.comm_steps, trace.converged, len(trace.max_rel_err)) == (0, True, 1)

    @pytest.mark.parametrize("bad", [0.0, -0.1, float("nan"), float("inf")])
    def test_bad_grid_value_rejected_before_any_run(self, bad, monkeypatch):
        # the subgradient accepts rho = 0 as a run's weight, the sweep does not
        prob, g = self._setup()
        runs = []
        monkeypatch.setattr(nl.bench, "run", lambda *args: runs.append(args))
        with pytest.raises(InputError, match="positive and finite"):
            rho_sweep((1.0, bad), SolverConfig(kind="subgradient"), prob, g)
        assert runs == []


class TestScaleExperiment:
    def test_tiny_scaling_run(self):
        result = scale_experiment(m=32, n=128, k=4, p_values=(2, 4), seed=1,
                                  target=1e-2, max_comm_steps=3000)
        assert result.p_values == [2, 4]
        for kind in ("dadmm_row", "dlasso"):
            assert len(result.steps[kind]) == 2
            assert all(s >= 1 for s in result.steps[kind])

    def test_indivisible_p_rejected(self):
        with pytest.raises(InputError):
            scale_experiment(m=30, n=128, k=3, p_values=(4,), target=1e-2)

    @pytest.mark.parametrize("p_values", [(2, 4, 8, 3), (2, 4, 1), (2, 4.0)])
    def test_every_size_checked_before_any_solve(self, p_values, monkeypatch):
        # a size that does not divide m, a size of 1 or a non-integer size
        # fails before the oracle solve and the first run
        calls = []
        monkeypatch.setattr(nl.bench, "run", lambda *args: calls.append("run"))
        monkeypatch.setattr(nl.bench, "solve_bp_centralized",
                            lambda *args, **kwargs: calls.append("oracle"))
        with pytest.raises(InputError, match=f"network size P={p_values[-1]} must be"):
            scale_experiment(m=32, n=128, k=4, p_values=p_values)
        assert calls == []

    def test_csv_output(self, tmp_path):
        result = scale_experiment(m=32, n=128, k=4, p_values=(2,), seed=1,
                                  target=1e-2, max_comm_steps=2000)
        path = tmp_path / "scale.csv"
        result.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "P,dadmm_row,dlasso"
        assert lines[1].startswith("2,")
