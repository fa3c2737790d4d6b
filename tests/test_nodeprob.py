import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netl1.linalg import InputError
from netl1.nodeprob import (
    BATCH_MIN_WIDTH,
    BBConfig,
    ColSubproblem,
    RowGroup,
    RowSubproblem,
    bb_lockstep,
    bb_minimize,
    psi_p,
    row_dual_value,
    solve_col_node,
    solve_row_node,
    x_of_u,
)

from oracles import (
    brute_force_scalar_min,
    brute_force_scalar_min_many,
    central_difference_gradient,
    kkt_enumeration,
)


class TestScalarKernel:
    def test_dead_zone(self):
        assert x_of_u(0.5, 1.0) == 0.0
        assert x_of_u(-1.0, 2.0) == 0.0
        assert x_of_u(1.0, 2.0) == 0.0

    def test_branches(self):
        assert x_of_u(3.0, 1.0) == pytest.approx(-1.0)
        assert x_of_u(-2.0, 0.5) == pytest.approx(1.0)

    def test_against_brute_force(self):
        assert x_of_u(-2.0, 0.5) == pytest.approx(brute_force_scalar_min(-2.0, 0.5), abs=1e-6)
        rng = np.random.default_rng(0)
        us = rng.uniform(-4, 4, size=50)
        cs = rng.uniform(0.05, 3.0, size=50)
        expected = brute_force_scalar_min_many(us, cs)
        got = np.array([x_of_u(u, c) for u, c in zip(us, cs)])
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_odd_symmetry_and_lipschitz(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            u = rng.uniform(-5, 5)
            c = rng.uniform(0.1, 2.0)
            assert x_of_u(-u, c) == pytest.approx(-x_of_u(u, c), abs=1e-14)
            u2 = u + rng.uniform(-1, 1)
            assert abs(x_of_u(u, c) - x_of_u(u2, c)) <= abs(u - u2) / (2 * c) + 1e-14

    def test_vectorized(self):
        u = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
        np.testing.assert_allclose(x_of_u(u, 1.0), [1.0, 0.0, 0.0, 0.0, -1.0])

    def test_rejects_nonpositive_c(self):
        with pytest.raises(InputError):
            x_of_u(1.0, 0.0)


class TestShrink:
    """The column kernel's shrink: the minimizer of |x| + u*x + (delta/2)*x^2
    is x_of_u(u, delta/2)."""

    def test_dead_zone(self):
        assert x_of_u(0.9, 1e-3 / 2.0) == 0.0

    def test_branch(self):
        assert x_of_u(2.0, 1.0 / 2.0) == pytest.approx(-1.0)

    def test_equals_scalar_kernel(self):
        # soft thresholding at 1, scaled by 1/delta
        rng = np.random.default_rng(2)
        for _ in range(100):
            u = rng.uniform(-4, 4)
            delta = rng.uniform(1e-4, 2.0)
            expected = -np.sign(u) * max(abs(u) - 1.0, 0.0) / delta
            assert x_of_u(u, delta / 2.0) == pytest.approx(expected, rel=1e-12, abs=0.0)


def random_row_subproblem(rng, m, n):
    A = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    return RowSubproblem(A, A @ x0)


class TestRowSolver:
    def test_identity_block_pins_solution(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=5)
        sp = RowSubproblem(np.eye(5), b)
        sol = solve_row_node(sp, rng.normal(size=5), 1.0, BBConfig())
        np.testing.assert_allclose(sol.x, b, atol=1e-9)

    def test_scalar_kkt(self):
        sp = RowSubproblem(np.array([[1.0]]), np.array([2.0]))
        sol = solve_row_node(sp, np.zeros(1), 0.5, BBConfig())
        assert sol.x[0] == pytest.approx(2.0, abs=1e-9)
        assert sol.lam[0] == pytest.approx(3.0, abs=1e-8)  # 2c x + sign(x)

    def test_two_variable_symmetry(self):
        sp = RowSubproblem(np.array([[1.0, 1.0]]), np.array([1.0]))
        sol = solve_row_node(sp, np.zeros(2), 1.0, BBConfig())
        # brute force over the feasible line x = (t, 1 - t)
        t = np.linspace(-3, 4, 70001)
        obj = np.abs(t) + np.abs(1 - t) + t**2 + (1 - t) ** 2
        t_best = t[np.argmin(obj)]
        np.testing.assert_allclose(sol.x, [t_best, 1 - t_best], atol=1e-6)

    def test_kkt_residuals_many_instances(self):
        rng = np.random.default_rng(4)
        cfg = BBConfig(grad_tol=1e-10, max_iter=5000)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(m + 1, 21))
            sp = random_row_subproblem(rng, m, n)
            v = rng.normal(size=n)
            c = float(rng.uniform(0.2, 4.0))
            sol = solve_row_node(sp, v, c, cfg)
            assert sol.converged
            feas = np.abs(sp.A @ sol.x - sp.b).max()
            assert feas <= 1e-8 * (1 + np.abs(sp.b).max())
            # iterate must sit exactly on the closed-form graph
            u = v - sp.A.T @ sol.lam
            np.testing.assert_allclose(sol.x, x_of_u(u, c), atol=1e-8)

    def test_objective_matches_kkt_enumeration(self):
        rng = np.random.default_rng(5)
        cfg = BBConfig(grad_tol=1e-10, max_iter=20000)
        for _ in range(25):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m + 1, 7))
            sp = random_row_subproblem(rng, m, n)
            v = rng.normal(size=n)
            c = float(rng.uniform(0.3, 2.0))
            sol = solve_row_node(sp, v, c, cfg)
            x_star, obj_star = kkt_enumeration(sp.A, sp.b, v, c)
            assert x_star is not None
            obj = np.abs(sol.x).sum() + v @ sol.x + c * (sol.x @ sol.x)
            assert obj == pytest.approx(obj_star, abs=1e-6)

    def test_warm_start_updated_in_place(self):
        rng = np.random.default_rng(6)
        sp = random_row_subproblem(rng, 3, 8)
        v = rng.normal(size=8)
        sol = solve_row_node(sp, v, 1.0, BBConfig())
        np.testing.assert_array_equal(sp.warm_lambda, sol.lam)
        # re-solving the same problem from the warm start is immediate
        again = solve_row_node(sp, v, 1.0, BBConfig())
        assert again.iterations == 0

    def test_max_iter_returns_best_flagged(self):
        rng = np.random.default_rng(7)
        sp = random_row_subproblem(rng, 4, 12)
        sol = solve_row_node(sp, rng.normal(size=12), 1.0, BBConfig(max_iter=2))
        assert not sol.converged
        assert np.all(np.isfinite(sol.x))

    def test_rejects_nonpositive_c(self):
        sp = RowSubproblem(np.array([[1.0, 0.0]]), np.array([1.0]))
        with pytest.raises(InputError):
            solve_row_node(sp, np.zeros(2), 0.0, BBConfig())

    def test_dual_nondecreasing_at_safeguard_restarts(self):
        # a small divergence factor makes the nonmonotone BB steps trip the
        # safeguard; the dual value at the restart points must not decrease
        rng = np.random.default_rng(8)
        fired = 0
        for trial in range(20):
            sp = random_row_subproblem(rng, 4, 10)
            v = rng.normal(size=10) * 5
            c = 0.5
            values = []

            def on_safeguard(lam_best):
                values.append(row_dual_value(sp, v, c, lam_best))

            cfg = BBConfig(grad_tol=1e-9, max_iter=800, divergence_factor=3.0)
            sol = solve_row_node(sp, v, c, cfg, on_safeguard=on_safeguard)
            assert np.all(np.isfinite(sol.x))
            fired += len(values)
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        assert fired > 0  # the safeguard actually triggered somewhere


def per_node_solutions(blocks, V, C, cfg):
    """The reference for a group solve: every node solved on its own by the
    per-node kernel, from a copy of its warm start."""
    solutions = []
    for sp, v, c in zip(blocks, V, C):
        alone = RowSubproblem(sp.A, sp.b)
        alone.warm_lambda = sp.warm_lambda.copy()
        solutions.append(solve_row_node(alone, v, c, cfg))
    return solutions


def assert_group_matches_per_node(blocks, V, C, cfg):
    reference = per_node_solutions(blocks, V, C, cfg)
    sol = solve_row_node(RowGroup(blocks), V, C, cfg)
    np.testing.assert_allclose(sol.x, [r.x for r in reference], atol=1e-9, rtol=0)
    assert sol.converged == all(r.converged for r in reference)
    for sp, x, lam in zip(blocks, sol.x, sol.lam):
        assert sp.warm_lambda is lam
        if sol.converged:
            assert np.abs(sp.A @ x - sp.b).max() <= cfg.grad_tol * (1 + np.abs(sp.b).max())


def _row_value(fg, H, target, z):
    """One row of a batched value-gradient function, for bb_minimize."""
    value, grad = fg(H[None], target[None], z[None])
    return float(value[0]), grad[0]


class TestRowGroup:
    """A wide group is solved by the lockstep kernel, a narrow one node by
    node; both must give what the per-node kernel gives each node."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        width=st.integers(BATCH_MIN_WIDTH - 1, BATCH_MIN_WIDTH + 5),
        height=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        warm=st.booleans(),
    )
    def test_batched_kernel_matches_per_node_loop(self, width, height, seed, warm):
        rng = np.random.default_rng(seed)
        n = height + int(rng.integers(2, 14))
        blocks = [random_row_subproblem(rng, height, n) for _ in range(width)]
        if warm:
            for sp in blocks:
                sp.warm_lambda = rng.normal(size=height)
        V = rng.normal(size=(width, n)) * rng.uniform(0.1, 5.0)
        C = rng.uniform(0.2, 4.0, size=width)
        assert_group_matches_per_node(blocks, V, C, BBConfig(grad_tol=1e-12, max_iter=20000))

    def test_width_decides_the_path(self):
        rng = np.random.default_rng(30)
        cfg = BBConfig(grad_tol=1e-12, max_iter=20000)
        for width in (BATCH_MIN_WIDTH - 1, BATCH_MIN_WIDTH):
            blocks = [random_row_subproblem(rng, 2, 9) for _ in range(width)]
            group = RowGroup(blocks)
            if width < BATCH_MIN_WIDTH:
                assert group.stack is None
            else:
                A, b = group.stack
                assert A.shape == (width, 2, 9) and b.shape == (width, 2)
            assert group.A.shape == (2 * width, 9)
            V, C = rng.normal(size=(width, 9)), rng.uniform(0.5, 2.0, size=width)
            assert_group_matches_per_node(blocks, V, C, cfg)

    def test_narrow_group_is_the_per_node_loop_bitwise(self):
        rng = np.random.default_rng(31)
        width = BATCH_MIN_WIDTH - 1
        blocks = [random_row_subproblem(rng, 3, 10) for _ in range(width)]
        V, C = rng.normal(size=(width, 10)), rng.uniform(0.5, 2.0, size=width)
        reference = per_node_solutions(blocks, V, C, BBConfig())
        sol = solve_row_node(RowGroup(blocks), V, C, BBConfig())
        np.testing.assert_array_equal(sol.x, [r.x for r in reference])
        assert sol.iterations == sum(r.iterations for r in reference)

    def test_mixed_heights_run_node_by_node(self):
        # however wide, a group whose blocks differ in height is the
        # per-node loop
        rng = np.random.default_rng(32)
        heights = [2] * BATCH_MIN_WIDTH + [1] + [3] * BATCH_MIN_WIDTH + [1]
        blocks = [random_row_subproblem(rng, h, 11) for h in heights]
        group = RowGroup(blocks)
        assert group.stack is None
        assert group.A.shape == (sum(heights), 11)
        V, C = rng.normal(size=(len(heights), 11)), rng.uniform(0.5, 2.0, size=len(heights))
        cfg = BBConfig(grad_tol=1e-12, max_iter=20000)
        reference = per_node_solutions(blocks, V, C, cfg)
        sol = solve_row_node(group, V, C, cfg)
        np.testing.assert_array_equal(sol.x, [r.x for r in reference])
        assert sol.iterations == sum(r.iterations for r in reference)
        assert sol.converged == all(r.converged for r in reference)
        for sp, lam, r in zip(blocks, sol.lam, reference):
            assert sp.warm_lambda is lam
            np.testing.assert_array_equal(lam, r.lam)

    def test_divergence_restart_on_batched_path(self):
        # the safeguard test's setting, one batch of BATCH_MIN_WIDTH nodes
        rng = np.random.default_rng(8)
        fired = 0
        for trial in range(5):
            blocks = [random_row_subproblem(rng, 4, 10) for _ in range(BATCH_MIN_WIDTH)]
            V = rng.normal(size=(BATCH_MIN_WIDTH, 10)) * 5
            C = np.full(BATCH_MIN_WIDTH, 0.5)
            restarts = []
            cfg = BBConfig(grad_tol=1e-9, max_iter=800, divergence_factor=3.0)
            sol = solve_row_node(RowGroup(blocks), V, C, cfg, on_safeguard=restarts.append)
            assert np.all(np.isfinite(sol.x))
            assert all(np.all(np.isfinite(lam)) for lam in restarts)
            fired += len(restarts)
        assert fired > 0

    @pytest.mark.parametrize("divergence_factor", [1e6, 10.0])
    def test_lockstep_counts_and_flags_match_bb_minimize(self, divergence_factor):
        # independent quadratics: one starts at its minimizer, three finish
        # at different evaluations and one is ill-conditioned enough to hit
        # the cap (and, at factor 10, to trip the divergence restart)
        rng = np.random.default_rng(33)
        H = np.stack([np.diag(rng.uniform(1.0, 10.0, size=6)) for _ in range(5)])
        H[4] = np.diag(np.logspace(0.0, 8.0, 6))
        target = rng.normal(size=(5, 6))
        x0 = np.zeros((5, 6))
        x0[0] = target[0]

        def fg(H, target, X):
            D = X - target
            HD = np.einsum("kij,kj->ki", H, D)
            return 0.5 * np.einsum("ki,ki->k", D, HD), HD

        cfg = BBConfig(max_iter=25, divergence_factor=divergence_factor)
        tol = np.array([1e-10, 1e-2, 1e-5, 1e-8, 1e-10])  # rows finish at different evaluations
        restarts, alone = [], []
        x, iterations, converged = bb_lockstep(fg, (H, target), x0, tol, cfg,
                                               on_safeguard=restarts.append)
        for i in range(5):
            xi, its, ok = bb_minimize(lambda z: _row_value(fg, H[i], target[i], z),
                                      x0[i], tol[i], cfg, on_safeguard=alone.append)
            assert (iterations[i], converged[i]) == (its, ok)
            np.testing.assert_allclose(x[i], xi, atol=1e-9, rtol=0)
        assert len(set(iterations)) == 5 and list(converged) == [True] * 4 + [False]
        assert len(restarts) == len(alone) and (len(alone) > 0) == (divergence_factor < 1e6)


class TestBBCore:
    def test_quadratic_minimized(self):
        H = np.diag([1.0, 10.0, 100.0])
        target = np.array([1.0, -2.0, 3.0])

        def fg(x):
            d = x - target
            return 0.5 * float(d @ H @ d), H @ d

        x, iters, ok = bb_minimize(fg, np.zeros(3), 1e-12, BBConfig())
        assert ok and iters > 0
        np.testing.assert_allclose(x, target, atol=1e-9)

    def test_zero_gradient_returns_immediately(self):
        x, iters, ok = bb_minimize(lambda x: (0.0, np.zeros(2)), np.ones(2), 1e-12, BBConfig())
        assert ok and iters == 0


class TestColumnSide:
    def test_psi_at_zero(self):
        rng = np.random.default_rng(9)
        sp = ColSubproblem(rng.normal(size=(4, 3)), delta=1e-3)
        value, x, grad = psi_p(sp, np.zeros(4))
        assert value == 0.0
        np.testing.assert_array_equal(x, 0.0)
        np.testing.assert_array_equal(grad, 0.0)

    def test_psi_closed_form_single_column(self):
        a = np.array([2.0, 0.0])
        sp = ColSubproblem(a.reshape(2, 1), delta=1.0)
        y = np.array([1.0, 0.3])  # a'y = 2
        value, x, grad = psi_p(sp, y)
        assert x[0] == pytest.approx(-1.0)
        assert value == pytest.approx(0.5)
        np.testing.assert_allclose(grad, -a * x[0])

    def test_psi_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            sp = ColSubproblem(rng.normal(size=(4, 6)), delta=0.8)
            y = rng.normal(size=4)
            _, _, grad = psi_p(sp, y)
            fd = central_difference_gradient(lambda yy: psi_p(sp, yy)[0], y)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_zero_block_gives_closed_form(self):
        sp = ColSubproblem(np.zeros((3, 2)), delta=1e-3)
        v = np.array([1.0, -2.0, 0.5])
        b = np.array([0.3, 0.3, 0.3])
        sol = solve_col_node(sp, v, b, 3, q=2.0, cfg=BBConfig())
        np.testing.assert_allclose(sol.y, -(v + b / 3) / 4.0, atol=1e-10)

    def test_zero_linear_term_gives_zero(self):
        sp = ColSubproblem(np.zeros((3, 2)), delta=1e-3)
        b = np.array([1.0, 2.0, 3.0])
        sol = solve_col_node(sp, -b / 3.0, b, 3, q=1.0, cfg=BBConfig())
        np.testing.assert_allclose(sol.y, 0.0, atol=1e-12)

    def test_random_instance_first_order_optimal(self):
        rng = np.random.default_rng(11)
        sp = ColSubproblem(rng.normal(size=(3, 2)), delta=0.5)
        v = rng.normal(size=3)
        b = rng.normal(size=3)
        q = 1.3
        cfg = BBConfig(grad_tol=1e-9, max_iter=5000)
        sol = solve_col_node(sp, v, b, 4, q, cfg)
        assert sol.converged

        def objective(y):
            value, _, _ = psi_p(sp, y)
            return value + (v + b / 4) @ y + q * (y @ y)

        base = objective(sol.y)
        for _ in range(1000):
            assert objective(sol.y + rng.normal(size=3) * 0.05) >= base - 1e-10

    def test_rejects_bad_delta_and_q(self):
        with pytest.raises(InputError):
            ColSubproblem(np.ones((2, 2)), delta=0.0)
        sp = ColSubproblem(np.ones((2, 2)), delta=1.0)
        with pytest.raises(InputError):
            solve_col_node(sp, np.zeros(2), np.zeros(2), 2, q=0.0, cfg=BBConfig())
