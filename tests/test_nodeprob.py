import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netl1.linalg import InputError
from netl1.nodeprob import (
    BATCH_MIN_WIDTH,
    ColSubproblem,
    NodeSolution,
    RowGroup,
    RowSubproblem,
    _newton_lockstep,
    _scalar_lockstep,
    psi_p,
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

#: The kernel controls of the tests that set none of their own.
CONTROLS = {"grad_tol": 1e-10, "max_iter": 2000}


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
        for c in (0.0, -1.0, np.nan, np.inf):  # a NaN c used to give a NaN x
            with pytest.raises(InputError):
                x_of_u(1.0, c)


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


def random_row_subproblem(rng, m, n, copies=1):
    """A Gaussian m x n block B, or with copies > 1 the block A = [B, B, ...]
    of that many copies of it: its active sets can hold m or more columns
    without spanning the rows."""
    A = np.tile(rng.normal(size=(m, n)), copies)
    x0 = rng.normal(size=n * copies)
    return RowSubproblem(A, A @ x0)


class TestRowSolver:
    def test_identity_block_pins_solution(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=5)
        sp = RowSubproblem(np.eye(5), b)
        sol = solve_row_node(sp, rng.normal(size=5), 1.0, **CONTROLS)
        np.testing.assert_allclose(sol.x, b, atol=1e-9)

    def test_scalar_kkt(self):
        sp = RowSubproblem(np.array([[1.0]]), np.array([2.0]))
        sol = solve_row_node(sp, np.zeros(1), 0.5, **CONTROLS)
        assert sol.x[0] == pytest.approx(2.0, abs=1e-9)
        assert sol.lam[0] == pytest.approx(3.0, abs=1e-8)  # 2c x + sign(x)

    def test_two_variable_symmetry(self):
        sp = RowSubproblem(np.array([[1.0, 1.0]]), np.array([1.0]))
        sol = solve_row_node(sp, np.zeros(2), 1.0, **CONTROLS)
        # brute force over the feasible line x = (t, 1 - t)
        t = np.linspace(-3, 4, 70001)
        obj = np.abs(t) + np.abs(1 - t) + t**2 + (1 - t) ** 2
        t_best = t[np.argmin(obj)]
        np.testing.assert_allclose(sol.x, [t_best, 1 - t_best], atol=1e-6)

    def test_kkt_residuals_many_instances(self):
        rng = np.random.default_rng(4)
        cfg = dict(grad_tol=1e-10, max_iter=5000)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(m + 1, 21))
            sp = random_row_subproblem(rng, m, n)
            v = rng.normal(size=n)
            c = float(rng.uniform(0.2, 4.0))
            sol = solve_row_node(sp, v, c, **cfg)
            assert sol.converged
            feas = np.abs(sp.A @ sol.x - sp.b).max()
            assert feas <= 1e-8 * (1 + np.abs(sp.b).max())
            # iterate must sit exactly on the closed-form graph
            u = v - sp.A.T @ sol.lam
            np.testing.assert_allclose(sol.x, x_of_u(u, c), atol=1e-8)

    def test_objective_matches_kkt_enumeration(self):
        rng = np.random.default_rng(5)
        cfg = dict(grad_tol=1e-10, max_iter=20000)
        for _ in range(25):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m + 1, 7))
            sp = random_row_subproblem(rng, m, n)
            v = rng.normal(size=n)
            c = float(rng.uniform(0.3, 2.0))
            sol = solve_row_node(sp, v, c, **cfg)
            x_star, obj_star = kkt_enumeration(sp.A, sp.b, v, c)
            assert x_star is not None
            obj = np.abs(sol.x).sum() + v @ sol.x + c * (sol.x @ sol.x)
            assert obj == pytest.approx(obj_star, abs=1e-6)

    def test_warm_start_updated_in_place(self):
        # each solve keeps its solution in last_lambda, a copy of its v in
        # last_v, and the matrix and active set of its last Newton direction
        rng = np.random.default_rng(6)
        sp = random_row_subproblem(rng, 3, 8)
        v = rng.normal(size=8)
        for w in (v, 3.0 * rng.normal(size=8)):  # the second moves the active set
            sol = solve_row_node(sp, w, 1.0, **CONTROLS)
            assert sol.iterations > 0 and sp.last_lambda is sol.lam
            assert sp.last_v.tobytes() == w.tobytes() and not np.shares_memory(sp.last_v, w)
            assert sp.hessian.shape == (3, 3) and sp.mask.shape == (8,) and sp.mask.dtype == bool
        # re-solving the same problem starts from its solution and is immediate
        hessian, mask, last = sp.hessian.copy(), sp.mask.copy(), sp.last_lambda.copy()
        again = solve_row_node(sp, w, 1.0, **CONTROLS)
        assert again.iterations == 0 and sp.last_lambda.tobytes() == last.tobytes()
        # no step: the last direction stays
        assert sp.hessian.tobytes() == hessian.tobytes() and sp.mask.tobytes() == mask.tobytes()
        # a block with no direction yet has an empty mask: it starts from
        # last_lambda itself, whatever v moved by
        fresh = RowSubproblem(sp.A, sp.b)
        fresh.last_lambda = last.copy()
        assert solve_row_node(fresh, w, 1.0, **CONTROLS).iterations == 0
        assert fresh.last_lambda.tobytes() == last.tobytes()
        # a run keeps its c; at another one the tangent is only a start: the
        # solve still meets the KKT conditions, with the bits of a block
        # solved from the same carried state
        u = w + 0.1 * rng.normal(size=8)
        reference = per_node_solutions([sp], [u], [2.0], **CONTROLS)[0]
        sol = solve_row_node(sp, u, 2.0, **CONTROLS)
        assert sol.converged and sol.lam.tobytes() == reference.lam.tobytes()
        assert_kkt(sp, u, 2.0, sol, CONTROLS["grad_tol"] * sp.b_scale)

    def test_max_iter_returns_best_flagged(self):
        rng = np.random.default_rng(7)
        sp = random_row_subproblem(rng, 4, 12)
        sol = solve_row_node(sp, rng.normal(size=12), 1.0, grad_tol=1e-10, max_iter=2)
        assert not sol.converged
        assert np.all(np.isfinite(sol.x))

    def test_rejects_nonpositive_c(self):
        sp = RowSubproblem(np.array([[1.0, 0.0]]), np.array([1.0]))
        for c in (0.0, -1.0, np.nan, np.inf):  # an infinite c used to spend the whole cap
            with pytest.raises(InputError):
                solve_row_node(sp, np.zeros(2), c, **CONTROLS)

    def test_rejects_non_finite_v(self):
        sp = RowSubproblem(np.array([[1.0, 0.0]]), np.array([1.0]))
        with pytest.raises(InputError):
            solve_row_node(sp, np.array([0.0, np.nan]), 1.0, **CONTROLS)

    @pytest.mark.parametrize("bad", [{"grad_tol": np.nan}, {"grad_tol": 0.0}, {"grad_tol": -1e-8},
                                     {"grad_tol": np.inf}, {"max_iter": 0}, {"max_iter": -5},
                                     {"max_iter": 2.5}, {"max_iter": 3.0}])
    def test_config_rejects_bad_controls(self, bad):
        # every kernel checks the controls it is given: a node, a stacked
        # one-row group and the column kernel (a NaN grad_tol once ran
        # nothing on a node and the whole cap on a group, max_iter 2.5
        # three evaluations)
        rng = np.random.default_rng(8)
        controls = {**CONTROLS, **bad}
        sp = random_row_subproblem(rng, 2, 6)
        group = RowGroup([random_row_subproblem(rng, 1, 6) for _ in range(BATCH_MIN_WIDTH)])
        assert group.squares is not None
        col = ColSubproblem(rng.normal(size=(3, 6)), delta=1e-3)
        V, C = rng.normal(size=(BATCH_MIN_WIDTH, 6)), np.ones(BATCH_MIN_WIDTH)
        for solve in (lambda: solve_row_node(sp, V[0], 1.0, **controls),
                      lambda: solve_row_node(group, V, C, **controls),
                      lambda: solve_col_node(col, V[0, :3], 1.0, **controls)):
            with pytest.raises(InputError):
                solve()
        one = {"grad_tol": np.float64(1e-10), "max_iter": np.int64(1)}
        assert solve_row_node(sp, V[0], 1.0, **one).iterations <= 1
        assert solve_row_node(group, V, C, **one).iterations <= BATCH_MIN_WIDTH
        assert solve_col_node(col, V[0, :3], 1.0, **one).iterations <= 1


def assert_kkt(sp, v, c, sol, tol):
    """The node problem's optimality conditions at (sol.x, sol.lam):
    A x = b within tol, 0 in sign(x_i) + u_i + 2c x_i where x_i != 0 and
    |u_i| <= 1 where x_i = 0, for u = v - A' lam."""
    assert np.abs(sp.A @ sol.x - sp.b).max() <= tol
    u = v - sp.A.T @ sol.lam
    on = sol.x != 0.0
    np.testing.assert_allclose(np.sign(sol.x[on]) + u[on] + 2.0 * c * sol.x[on], 0.0,
                               atol=1e-9 * (1.0 + np.abs(u[on]).max(initial=0.0)))
    assert np.all(np.abs(u[~on]) <= 1.0 + 1e-12)


class TestRowNewton:
    """The semismooth Newton row kernel, per node and in lockstep."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        m=st.integers(1, 8),
        extra=st.integers(1, 24),
        log_c=st.floats(-2.0, 3.0),
        seed=st.integers(0, 2**16),
        cold=st.booleans(),
        copies=st.integers(1, 3),
    )
    def test_kkt_property(self, m, extra, log_c, seed, cold, copies):
        rng = np.random.default_rng(seed)
        sp = random_row_subproblem(rng, m, m + extra, copies)
        n = sp.A.shape[1]
        c = 10.0**log_c
        v = np.zeros(n) if cold else rng.normal(size=n) * rng.uniform(0.1, 5.0)
        if not cold:
            sp.last_lambda = rng.normal(size=m)
        cfg = dict(grad_tol=1e-10, max_iter=20000)
        sol = solve_row_node(sp, v, c, **cfg)
        assert sol.converged
        np.testing.assert_array_equal(sol.x, x_of_u(v - sp.A.T @ sol.lam, c))
        assert_kkt(sp, v, c, sol, cfg["grad_tol"] * (1 + np.abs(sp.b).max()))

    def test_cold_start_converges_in_ten_evaluations(self):
        # a desk-scale block (5x160, an 8-sparse planted signal) from
        # lam = 0 and v = 0, where the active set starts empty
        rng = np.random.default_rng(12)
        for c in (1.0, 10.0, 100.0, 1000.0):
            A = rng.normal(size=(5, 160))
            x0 = np.zeros(160)
            x0[rng.choice(160, 8, replace=False)] = rng.choice([-1.0, 1.0], 8)
            sp = RowSubproblem(A, A @ x0)
            sol = solve_row_node(sp, np.zeros(160), c, **CONTROLS)
            assert sol.converged and sol.iterations <= 10

    def test_lockstep_matches_per_node_solves(self):
        # random groups, cold and warm, with caps that stop some problems
        rng = np.random.default_rng(13)
        for trial in range(30):
            width, m = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            n = m + int(rng.integers(1, 30))
            blocks = [random_row_subproblem(rng, m, n) for _ in range(width)]
            V = rng.normal(size=(width, n)) * rng.uniform(0.0, 5.0)
            C = 10.0 ** rng.uniform(-1.0, 3.0, size=width)
            if trial % 2:
                for sp in blocks:
                    sp.last_lambda = rng.normal(size=m)
            cfg = dict(grad_tol=1e-12, max_iter=int(rng.choice([3, 8, 20000])))
            lam, X, iterations, converged = lockstep(
                blocks, V, C, np.stack([sp.last_lambda for sp in blocks]), **cfg)
            for i, r in enumerate(per_node_solutions(blocks, V, C, **cfg)):
                np.testing.assert_allclose(X[i], r.x, atol=1e-10, rtol=0)
                assert (iterations[i], converged[i]) == (r.iterations, r.converged)
                np.testing.assert_allclose(lam[i], r.lam, atol=1e-10, rtol=0)
        # one group of blocks A = [B, B, B], solved warm three times over
        # with c in [0.01, 10]: their active sets can hold m or more columns
        # and still leave A_S A_S' singular; every solve converges
        width, m = 5, 3
        blocks = [random_row_subproblem(rng, m, m + 1, copies=3) for _ in range(width)]
        n = blocks[0].A.shape[1]
        cfg = dict(grad_tol=1e-12, max_iter=2000)
        for _ in range(3):
            V = rng.normal(size=(width, n)) * rng.uniform(0.1, 5.0)
            C = 10.0 ** rng.uniform(-2.0, 1.0, size=width)
            reference = per_node_solutions(blocks, V, C, **cfg)
            lam, X, iterations, converged = lockstep(
                blocks, V, C, np.stack([sp.last_lambda for sp in blocks]), **cfg)
            for sp, v, c, r, lam_i, x_i, its, ok in zip(blocks, V, C, reference, lam, X,
                                                       iterations, converged):
                assert r.converged and ok and its == r.iterations
                np.testing.assert_allclose(x_i, r.x, atol=1e-10, rtol=0)
                np.testing.assert_allclose(lam_i, r.lam, atol=1e-10, rtol=0)
                assert_kkt(sp, v, c, r, cfg["grad_tol"] * (1 + np.abs(sp.b).max()))
                sp.last_lambda = r.lam  # no c kept: the next solve starts here

    def test_finished_rows_stay_put(self):
        # one batch that mixes problems finished at their warm starts (a zero
        # b with a -0.0 start, and a start already solved), one that the cap
        # stops and ordinary ones that finish early and ride along: each row
        # is bitwise that of the problem run alone
        rng = np.random.default_rng(15)
        m, n, width = 3, 20, 7
        cfg = dict(grad_tol=1e-12, max_iter=12)
        blocks = [random_row_subproblem(rng, m, n) for _ in range(width)]
        blocks[0] = RowSubproblem(blocks[0].A, np.zeros(m))
        V = rng.normal(size=(width, n))
        V[0] = V[2] = 0.0
        C = np.array([1.0, 1.0, 0.01, 1.0, 10.0, 100.0, 3.0])
        Lam = rng.normal(size=(width, m))
        Lam[0], Lam[2] = -0.0, 0.0
        Lam[1] = lockstep(blocks[1:2], V[1:2], C[1:2], Lam[1:2], grad_tol=1e-12,
                          max_iter=2000)[0][0]
        lam, X, iterations, converged = lockstep(blocks, V, C, Lam.copy(), **cfg)
        for i in range(width):
            alone = lockstep(blocks[i : i + 1], V[i : i + 1], C[i : i + 1], Lam[i : i + 1].copy(),
                             **cfg)
            assert lam[i].tobytes() == alone[0][0].tobytes()
            assert X[i].tobytes() == alone[1][0].tobytes()
            assert (iterations[i], converged[i]) == (alone[2][0], alone[3][0])
        assert lam[:2].tobytes() == Lam[:2].tobytes() and list(iterations[:2]) == [0, 0]
        assert not converged[2] and iterations[2] == cfg["max_iter"]
        assert converged[3:].all() and iterations[3:].max() < cfg["max_iter"]

    @pytest.mark.parametrize("width", [1, BATCH_MIN_WIDTH])
    def test_cap_of_one_evaluation(self, width):
        # both paths stop after one evaluation past the first and flag it
        rng = np.random.default_rng(14)
        blocks = [random_row_subproblem(rng, 4, 12) for _ in range(width)]
        V, C = rng.normal(size=(width, 12)), np.full(width, 1.0)
        group = RowGroup(blocks)
        assert (group.stack is not None) == (width >= BATCH_MIN_WIDTH)
        sol = solve_row_node(group, V, C, grad_tol=1e-10, max_iter=1)
        assert not sol.converged and sol.iterations == width
        assert np.all(np.isfinite(sol.x))


def lockstep(blocks, V, C, Lam, *, grad_tol, max_iter):
    """_newton_lockstep on the stacked blocks of one height, from the rows
    Lam, with the damping scales and tolerances of their RowGroup; its
    directions go to arrays of its own."""
    group = RowGroup(blocks)
    (width, m), n = Lam.shape, V.shape[1]
    return _newton_lockstep(group.A.reshape(width, m, n), np.stack([sp.b for sp in blocks]), V,
                            2.0 * C[:, None], Lam, group.frobenius_sq / (2.0 * C * n),
                            grad_tol * group.b_scale, max_iter, np.zeros((width, m, m)),
                            np.zeros((width, n), dtype=bool))


#: The fields of a RowSubproblem that carry its dual from solve to solve.
CARRIED = ("last_lambda", "last_v", "hessian", "mask")


def per_node_solutions(blocks, V, C, **controls):
    """The reference for a group solve: every node solved on its own by the
    per-node kernel, from a copy of its carried dual."""
    solutions = []
    for sp, v, c in zip(blocks, V, C):
        alone = RowSubproblem(sp.A, sp.b)
        for name in CARRIED:
            setattr(alone, name, np.copy(getattr(sp, name)))
        solutions.append(solve_row_node(alone, v, c, **controls))
    return solutions


def scalar(blocks, V, C, lam, *, grad_tol, max_iter):
    """_scalar_lockstep on one-row blocks, from the multipliers lam, with
    the damping scales and tolerances of their RowGroup; its slopes and
    active sets go to arrays of its own."""
    group = RowGroup(blocks)
    a, (width, n) = group.A, V.shape
    return _scalar_lockstep(a, a * a, np.array([sp.b[0] for sp in blocks]), V, 2.0 * C[:, None],
                            lam, group.frobenius_sq / (2.0 * C * n), grad_tol * group.b_scale,
                            max_iter, np.ones(width), np.zeros((width, n), dtype=bool))


class TestScalarLockstep:
    """The bracketed scalar Newton method of stacked one-row groups."""

    def test_matches_per_node_solves(self):
        # random one-row groups, cold and warm, with c from 1e-2 to 1e3
        rng = np.random.default_rng(40)
        cfg = dict(grad_tol=1e-12, max_iter=20000)
        for trial in range(20):
            width, n = int(rng.integers(BATCH_MIN_WIDTH, 40)), int(rng.integers(2, 300))
            blocks = [random_row_subproblem(rng, 1, n) for _ in range(width)]
            V = rng.normal(size=(width, n)) * rng.uniform(0.0, 5.0)
            C = 10.0 ** rng.uniform(-2.0, 3.0, size=width)
            if trial % 2:
                for sp in blocks:
                    sp.last_lambda = rng.normal(size=1) * rng.uniform(0.1, 10.0)
            reference = per_node_solutions(blocks, V, C, **cfg)
            direct = scalar(blocks, V, C, np.stack([sp.last_lambda[0] for sp in blocks]), **cfg)
            group = RowGroup(blocks)
            assert group.squares is not None  # the group takes the scalar kernel
            sol = solve_row_node(group, V, C, **cfg)
            assert sol.converged and direct[3].all()
            assert sol.x.tobytes() == direct[1].tobytes()
            assert sol.lam[:, 0].tobytes() == direct[0].tobytes()
            for sp, v, c, x, lam, r in zip(blocks, V, C, sol.x, sol.lam, reference):
                assert r.converged
                np.testing.assert_allclose(x, r.x, atol=1e-10, rtol=0)
                # the stopping test fixes lam only to within tol / h of the
                # root, and h = ||a||^2 / 2c is small at c = 1e3, where |lam|
                # reaches about 100: lam agrees to 1e-10 or 1e-12 relative
                np.testing.assert_allclose(lam, r.lam, atol=1e-10, rtol=1e-12)
                assert_kkt(sp, v, c, NodeSolution(x=x, lam=lam, iterations=0, converged=True),
                           cfg["grad_tol"] * sp.b_scale)

    def test_midpoint_when_the_newton_point_leaves_the_bracket(self):
        # g(lam) = soft(lam + 1) + soft(lam - 3) at c = 1/2, with soft(z) =
        # sign(z) max(|z| - 1, 0), has its root at 1 and slope 2 on [0, 2],
        # but at lam = 0 and at lam = 2 one coordinate sits on its kink
        # (|u| = 1) and counts as inactive, so the slope read there is 1.
        # Undamped (scale 0, so every float is exact), Newton from 2 lands
        # on 0 and from 0 on 2 again, a cycle; the bracket (0, 2) rejects
        # that point and takes its midpoint, the root. Each pass leaves its
        # slope and active set in the arrays handed in: the last pass's.
        a, v = np.array([[1.0, 1.0]]), np.array([[-1.0, 3.0]])
        args = (a, a * a, np.zeros(1), v, np.ones((1, 1)))
        controls = (np.zeros(1), np.zeros(1))  # damping scale 0, tolerance 0
        slope, mask = np.zeros(1), np.zeros((1, 2), dtype=bool)
        assert _scalar_lockstep(*args, np.array([2.0]), *controls, 1, slope, mask)[0][0] == 0.0
        assert slope[0] == 1.0 and mask.tolist() == [[True, False]]  # the pass at 2
        lam, x, iterations, converged = _scalar_lockstep(*args, np.array([2.0]), *controls, 5,
                                                         slope, mask)
        assert (lam[0], iterations[0], converged[0]) == (1.0, 2, True)
        np.testing.assert_array_equal(x, [[1.0, -1.0]])
        assert slope[0] == 1.0 and mask.tolist() == [[False, True]]  # the pass at 0

    @pytest.mark.parametrize("cap", [1, 3])
    def test_capped_rows_are_flagged(self, cap):
        rng = np.random.default_rng(41)
        width, n = 12, 64
        blocks = [random_row_subproblem(rng, 1, n) for _ in range(width)]
        V, C = rng.normal(size=(width, n)) * 3.0, 10.0 ** rng.uniform(-2.0, 3.0, size=width)
        lam, X, iterations, converged = scalar(blocks, V, C, np.zeros(width), grad_tol=1e-12,
                                               max_iter=cap)
        assert not converged.all()
        assert np.all(iterations[~converged] == cap) and np.all(iterations <= cap)
        assert np.all(np.isfinite(lam)) and np.all(np.isfinite(X))
        sol = solve_row_node(RowGroup(blocks), V, C, grad_tol=1e-12, max_iter=cap)
        assert not sol.converged and sol.iterations == iterations.sum()

    def test_rows_finished_at_their_warm_start_stay_put(self):
        # a zero b and v with a -0.0 start, and starts already solved, ride
        # along with problems that still move
        rng = np.random.default_rng(42)
        width, n = 8, 40
        cfg = dict(grad_tol=1e-12, max_iter=2000)
        blocks = [random_row_subproblem(rng, 1, n) for _ in range(width)]
        blocks[0] = RowSubproblem(blocks[0].A, np.zeros(1))
        V, C = rng.normal(size=(width, n)), rng.uniform(0.1, 10.0, size=width)
        V[0] = 0.0
        Lam = scalar(blocks, V, C, rng.normal(size=width), **cfg)[0]
        Lam[0] = -0.0
        Lam[5:] = rng.normal(size=3)
        lam, X, iterations, converged = scalar(blocks, V, C, Lam.copy(), **cfg)
        assert converged.all()
        assert lam[:5].tobytes() == Lam[:5].tobytes() and not iterations[:5].any()
        assert iterations[5:].all()
        for i in range(width):
            alone = scalar(blocks[i : i + 1], V[i : i + 1], C[i : i + 1], Lam[i : i + 1].copy(),
                           **cfg)
            assert (lam[i : i + 1].tobytes(), X[i].tobytes()) == (alone[0].tobytes(),
                                                                  alone[1][0].tobytes())

    def test_empty_active_set_cold_start_converges(self):
        # v = 0 and lam = 0 put every u in the dead zone: the first steps
        # are damped by |g|
        rng = np.random.default_rng(43)
        width, n = 10, 256
        blocks = [random_row_subproblem(rng, 1, n) for _ in range(width)]
        V, C = np.zeros((width, n)), 10.0 ** np.linspace(-2.0, 3.0, width)
        cfg = dict(grad_tol=1e-12, max_iter=20000)
        lam, X, iterations, converged = scalar(blocks, V, C, np.zeros(width), **cfg)
        assert converged.all()
        for sp, v, c, x, l in zip(blocks, V, C, X, lam):
            assert_kkt(sp, v, c, NodeSolution(x=x, lam=np.array([l]), iterations=0,
                                              converged=True), cfg["grad_tol"] * sp.b_scale)


def assert_group_matches_per_node(blocks, V, C, *, grad_tol, max_iter):
    reference = per_node_solutions(blocks, V, C, grad_tol=grad_tol, max_iter=max_iter)
    group = RowGroup(blocks)
    sol = solve_row_node(group, V, C, grad_tol=grad_tol, max_iter=max_iter)
    np.testing.assert_allclose(sol.x, [r.x for r in reference], atol=1e-10, rtol=0)
    assert sol.converged == all(r.converged for r in reference)
    stacked = group.stack is not None
    for sp, v, x, lam in zip(blocks, V, sol.x, sol.lam):
        # what the next solve starts from, kept by the block: a stacked
        # group's rows, viewed by its blocks
        assert sp.last_lambda.tobytes() == lam.tobytes()
        assert sp.last_v.tobytes() == v.tobytes()
        for name in CARRIED:
            assert stacked == np.shares_memory(getattr(sp, name), getattr(group, name))
        if sol.converged:
            assert np.abs(sp.A @ x - sp.b).max() <= grad_tol * (1 + np.abs(sp.b).max())


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
                sp.last_lambda = rng.normal(size=height)
        V = rng.normal(size=(width, n)) * rng.uniform(0.1, 5.0)
        C = rng.uniform(0.2, 4.0, size=width)
        assert_group_matches_per_node(blocks, V, C, grad_tol=1e-12, max_iter=20000)

    def test_width_decides_the_path(self):
        rng = np.random.default_rng(30)
        cfg = dict(grad_tol=1e-12, max_iter=20000)
        for width in (BATCH_MIN_WIDTH - 1, BATCH_MIN_WIDTH):
            blocks = [random_row_subproblem(rng, 2, 9) for _ in range(width)]
            group = RowGroup(blocks)
            if width < BATCH_MIN_WIDTH:
                assert group.stack is None
            else:
                A, b = group.stack
                assert A.shape == (width, 2, 9) and b.shape == (width, 2)
                assert np.shares_memory(A, group.A)  # a view, not a second copy
            assert group.A.shape == (2 * width, 9)
            V, C = rng.normal(size=(width, 9)), rng.uniform(0.5, 2.0, size=width)
            assert_group_matches_per_node(blocks, V, C, **cfg)

    def test_narrow_group_is_the_per_node_loop_bitwise(self):
        rng = np.random.default_rng(31)
        width = BATCH_MIN_WIDTH - 1
        blocks = [random_row_subproblem(rng, 3, 10) for _ in range(width)]
        V, C = rng.normal(size=(width, 10)), rng.uniform(0.5, 2.0, size=width)
        reference = per_node_solutions(blocks, V, C, **CONTROLS)
        sol = solve_row_node(RowGroup(blocks), V, C, **CONTROLS)
        np.testing.assert_array_equal(sol.x, [r.x for r in reference])
        assert sol.iterations == sum(r.iterations for r in reference)

    @pytest.mark.parametrize("width", [1, BATCH_MIN_WIDTH])
    @pytest.mark.parametrize("bad", ["nan_v", "inf_v", "zero_c", "negative_c", "nan_c", "inf_c"])
    def test_group_checks_v_and_c(self, width, bad):
        # the checks run once per group: on a one-node group (the shape the
        # Gauss-Seidel sweep solves) and on a batched one
        rng = np.random.default_rng(33)
        group = RowGroup([random_row_subproblem(rng, 2, 7) for _ in range(width)])
        V, C = rng.normal(size=(width, 7)), rng.uniform(0.5, 2.0, size=width)
        if bad.endswith("_v"):
            V[-1, 3] = np.nan if bad == "nan_v" else np.inf
        else:
            C[-1] = {"zero_c": 0.0, "negative_c": -1.0, "nan_c": np.nan, "inf_c": np.inf}[bad]
        with pytest.raises(InputError):
            solve_row_node(group, V, C, **CONTROLS)

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
        cfg = dict(grad_tol=1e-12, max_iter=20000)
        reference = per_node_solutions(blocks, V, C, **cfg)
        sol = solve_row_node(group, V, C, **cfg)
        np.testing.assert_array_equal(sol.x, [r.x for r in reference])
        assert sol.iterations == sum(r.iterations for r in reference)
        assert sol.converged == all(r.converged for r in reference)
        for sp, v, lam, r in zip(blocks, V, sol.lam, reference):
            assert sp.last_lambda is lam and sp.last_v.tobytes() == v.tobytes()
            np.testing.assert_array_equal(lam, r.lam)

    def test_node_solve_keeps_a_stacked_block_a_view(self):
        # a block of a stacked group solved on its own writes its row of the
        # group's carried state; the per-node kernel used to rebind the
        # block's last_lambda, hessian and mask, detaching them from the
        # group, whose row then stayed stale for its next solve
        rng = np.random.default_rng(35)
        blocks = [random_row_subproblem(rng, 2, 9) for _ in range(BATCH_MIN_WIDTH)]
        group = RowGroup(blocks)
        V, C = rng.normal(size=(BATCH_MIN_WIDTH, 9)), rng.uniform(0.5, 2.0, size=BATCH_MIN_WIDTH)
        solve_row_node(group, V, C, **CONTROLS)
        sol = solve_row_node(blocks[0], 3.0 * rng.normal(size=9), C[0], **CONTROLS)
        assert sol.iterations > 0 and sol.lam is blocks[0].last_lambda
        for name in CARRIED:
            assert np.shares_memory(getattr(blocks[0], name), getattr(group, name))
            assert getattr(group, name)[0].tobytes() == getattr(blocks[0], name).tobytes()

    @pytest.mark.parametrize("height", [1, 2])
    def test_stacked_rows_take_the_per_node_prediction(self, height):
        # three solves of a stacked group (the scalar kernel at height 1, the
        # lockstep at 2): each block ends where its node's kernel run alone
        # from its tangent start last_lambda + hessian^-1 A ((v - last_v) *
        # mask) / 2c ends, with as many iterations. Before the first
        # direction the mask is empty and the start is last_lambda.
        rng = np.random.default_rng(34)
        width, n = BATCH_MIN_WIDTH + 2, 12
        cfg = dict(grad_tol=1e-12, max_iter=2000)
        group = RowGroup([random_row_subproblem(rng, height, n) for _ in range(width)])
        assert group.stack is not None
        alone = scalar if height == 1 else lockstep
        V, C = rng.normal(size=(width, n)), rng.uniform(0.5, 2.0, size=width)
        for trial in range(3):
            V = V + 0.1 * rng.normal(size=(width, n))
            before = {name: getattr(group, name).copy() for name in CARRIED}
            sol = solve_row_node(group, V, C, **cfg)
            iterations = 0
            for i, sp in enumerate(group.blocks):
                dv = (V[i] - before["last_v"][i]) * before["mask"][i]
                start = before["last_lambda"][i] + np.linalg.solve(before["hessian"][i],
                                                                   sp.A @ dv) / (2.0 * C[i])
                lam, _, its, _ = alone([sp], V[i : i + 1], C[i : i + 1],
                                       start[None, :] if height == 2 else start, **cfg)
                if trial:  # the tangent, formed row by row here
                    np.testing.assert_allclose(sol.lam[i], lam.reshape(height), atol=1e-10,
                                               rtol=0)
                else:  # the last solution itself: the same start, bit for bit
                    assert start.tobytes() == before["last_lambda"][i].tobytes()
                    assert sol.lam[i].tobytes() == lam.reshape(height).tobytes()
                assert sp.last_lambda.tobytes() == sol.lam[i].tobytes()
                iterations += int(its[0])
            assert sol.iterations == iterations
        # re-solved at the same v and c, every node is done at once
        solved = group.last_lambda.copy()
        again = solve_row_node(group, V, C, **cfg)
        assert again.iterations == 0 and group.last_lambda.tobytes() == solved.tobytes()
        # a run keeps each node's c; at another c for two nodes the tangent
        # is only a start, and every node still meets the KKT conditions and
        # ends where the per-node kernel from the same carried state ends
        C[:2] *= 2.0
        V = V + 0.1 * rng.normal(size=(width, n))
        reference = per_node_solutions(group.blocks, V, C, **cfg)
        sol = solve_row_node(group, V, C, **cfg)
        assert sol.converged
        for sp, v, c, x, lam, r in zip(group.blocks, V, C, sol.x, sol.lam, reference):
            assert r.converged
            np.testing.assert_allclose(x, r.x, atol=1e-10, rtol=0)
            np.testing.assert_allclose(lam, r.lam, atol=1e-10, rtol=0)
            assert_kkt(sp, v, c, NodeSolution(x=x, lam=lam, iterations=0, converged=True),
                       cfg["grad_tol"] * sp.b_scale)


class TestTangentStart:
    """Within a fixed active set a node's solution is affine in its linear
    term, and every kernel starts from the tangent of its last solution: a
    re-solve at a linear term that moved too little to change the active set
    is done at its first evaluation."""

    @pytest.mark.parametrize("height", [None, 3, 1])
    def test_row_kernels(self, height):
        # a block on its own (the per-node kernel), and a stacked group of
        # blocks of 3 rows (the lockstep) or of one row (the scalar kernel)
        rng = np.random.default_rng(50)
        cfg = dict(grad_tol=1e-10, max_iter=2000)
        width, n = BATCH_MIN_WIDTH + 1, 40
        blocks = [random_row_subproblem(rng, height or 4, n)
                  for _ in range(1 if height is None else width)]
        V, C = 2.0 * rng.normal(size=(len(blocks), n)), rng.uniform(0.5, 2.0, size=len(blocks))
        if height is None:
            node, V, C = blocks[0], V[0], float(C[0])
        else:
            node = RowGroup(blocks)
            assert node.stack is not None and (node.squares is not None) == (height == 1)
        first = solve_row_node(node, V, C, **cfg)
        assert first.converged and first.iterations > 0
        moved = V + 1e-4 * rng.normal(size=V.shape)
        again = solve_row_node(node, moved, C, **cfg)
        assert again.converged and again.iterations == 0
        for sp, v, c, x, lam, x_first in zip(blocks, np.atleast_2d(moved), np.atleast_1d(C),
                                             np.atleast_2d(again.x), np.atleast_2d(again.lam),
                                             np.atleast_2d(first.x)):
            np.testing.assert_array_equal(x != 0.0, x_first != 0.0)  # the active set held
            assert_kkt(sp, v, c, NodeSolution(x=x, lam=lam, iterations=0, converged=True),
                       cfg["grad_tol"] * sp.b_scale)

    def test_column_kernel(self):
        # criterion 7's stiff regime: a 40-row block and a curvature of
        # order 1/delta
        rng = np.random.default_rng(51)
        sp = ColSubproblem(rng.normal(size=(40, 20)), delta=1e-3)
        lin, q, grad_tol = rng.normal(size=40), 1.0, 1e-9
        first = solve_col_node(sp, lin, q, grad_tol=grad_tol, max_iter=2000)
        assert first.converged and first.iterations > 0
        lin = lin + 1e-4 * rng.normal(size=40)
        again = solve_col_node(sp, lin, q, grad_tol=grad_tol, max_iter=2000)
        assert again.converged and again.iterations == 0
        np.testing.assert_array_equal(again.x != 0.0, first.x != 0.0)
        value, x, grad = psi_p(sp, again.lam)
        assert np.abs(grad + lin + 2.0 * q * again.lam).max() <= grad_tol


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
        sol = solve_col_node(sp, v + b / 3, q=2.0, **CONTROLS)
        np.testing.assert_allclose(sol.lam, -(v + b / 3) / 4.0, atol=1e-10)

    def test_zero_linear_term_gives_zero(self):
        sp = ColSubproblem(np.zeros((3, 2)), delta=1e-3)
        sol = solve_col_node(sp, np.zeros(3), q=1.0, **CONTROLS)
        np.testing.assert_allclose(sol.lam, 0.0, atol=1e-12)

    def test_random_instance_first_order_optimal(self):
        # the second input is criterion 7's stiff regime: 40-row blocks and a
        # curvature of order 1/delta
        rng = np.random.default_rng(11)
        cfg = dict(grad_tol=1e-9, max_iter=5000)
        for m, n, delta, q in [(3, 2, 0.5, 1.3), (40, 20, 1e-3, 1.0)]:
            sp = ColSubproblem(rng.normal(size=(m, n)), delta=delta)
            lin = rng.normal(size=m) + rng.normal(size=m) / 4  # v + b/P at P = 4
            sol = solve_col_node(sp, lin, q, **cfg)
            assert sol.converged

            def value_grad(y):
                value, _, grad = psi_p(sp, y)
                return value + lin @ y + q * (y @ y), grad + lin + 2.0 * q * y

            base = value_grad(sol.lam)[0]
            for _ in range(1000):
                assert value_grad(sol.lam + rng.normal(size=m) * 0.05)[0] >= base - 1e-10

            # the objective is 2q-strongly convex, so the minimizer lies within
            # ||g||_2 / (2q) of sol.lam, for g the gradient there by psi_p's arithmetic
            assert np.linalg.norm(value_grad(sol.lam)[1]) / (2.0 * q) <= 1e-9

    def test_warm_start_is_the_linear_prediction(self):
        # each solve keeps its y, a copy of its lin and its last direction's
        # matrix A_S A_S' / delta + 2q I (None before the first), and the
        # next one starts from the tangent last_y - hessian^-1 (lin -
        # last_lin): it ends with the bits of a block with no direction yet,
        # which starts from its last_y, set there.
        rng = np.random.default_rng(12)
        sp = ColSubproblem(rng.normal(size=(6, 4)), delta=0.5)
        assert sp.hessian is None
        lin = rng.normal(size=6)
        sol = solve_col_node(sp, lin, 1.0, **CONTROLS)
        assert sol.iterations > 0 and sp.last_y is sol.lam
        assert sp.last_lin.tobytes() == lin.tobytes() and not np.shares_memory(sp.last_lin, lin)
        active = sp.A[:, sol.x != 0.0]
        np.testing.assert_allclose(sp.hessian, active @ active.T / 0.5 + 2.0 * np.eye(6),
                                   rtol=1e-14, atol=1e-14)
        for step in (0.5, 1.0):
            lin = lin + step * rng.normal(size=6)
            alone = ColSubproblem(sp.A, 0.5)
            alone.last_y = sp.last_y - np.linalg.solve(sp.hessian, lin - sp.last_lin)
            for block in (sp, alone):
                solve_col_node(block, lin, 1.0, **CONTROLS)
            assert sp.last_y.tobytes() == alone.last_y.tobytes()
        # a run keeps its q; at another one the tangent is only a start: the
        # solve still meets the gradient tolerance, with the bits of a block
        # solved from the same carried state
        lin = lin + rng.normal(size=6)
        twin = ColSubproblem(sp.A, 0.5)
        twin.last_y, twin.last_lin, twin.hessian = (np.copy(getattr(sp, name))
                                                    for name in ("last_y", "last_lin", "hessian"))
        sol, reference = (solve_col_node(block, lin, 3.0, **CONTROLS) for block in (sp, twin))
        assert sol.converged and sol.lam.tobytes() == reference.lam.tobytes()
        _, _, grad = psi_p(sp, sol.lam)
        assert np.abs(grad + lin + 6.0 * sol.lam).max() <= CONTROLS["grad_tol"]

    def test_keeps_the_fragment_of_its_solution(self):
        # x and sp.last_x are psi_p's fragment at the returned y, bit for
        # bit: after a normal solve, after a restart from the solution (no
        # evaluation after the first) and after a solve capped at one
        # evaluation, whose line search rejects its one trial and ends at
        # the start
        rng = np.random.default_rng(13)
        sp = ColSubproblem(rng.normal(size=(40, 20)), delta=1e-3)
        np.testing.assert_array_equal(sp.last_x, np.zeros(20))
        lin = rng.normal(size=40)

        def solve(lin, **controls):
            sol = solve_col_node(sp, lin, 1.0, **{**CONTROLS, **controls})
            fragment = psi_p(sp, sol.lam)[1]
            assert sol.x.tobytes() == sp.last_x.tobytes() == fragment.tobytes()
            assert sol.lam.tobytes() == sp.last_y.tobytes()
            return sol

        sol = solve(lin)
        assert sol.converged and sol.iterations > 1
        assert solve(lin).iterations == 0  # the same lin: the start is the solution
        start = 0.1 * rng.normal(size=40)
        sp.last_y, sp.hessian = start.copy(), None  # no direction: the solve starts at last_y
        sol = solve(-lin, max_iter=1)
        assert not sol.converged and sol.iterations == 1
        assert sol.lam.tobytes() == start.tobytes() and np.abs(sol.x).max() > 0.0

    def test_rejects_bad_delta_and_q(self):
        # a NaN delta or q used to return y = 0, unconverged, after 0 iterations
        sp = ColSubproblem(np.ones((2, 2)), delta=1.0)
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InputError):
                ColSubproblem(np.ones((2, 2)), delta=bad)
            with pytest.raises(InputError):
                solve_col_node(sp, np.zeros(2), q=bad, **CONTROLS)
