import numpy as np
import pytest

from netl1.linalg import (
    FactorizationError,
    InputError,
    PartitionSpec,
    affine_projection,
    gram_factorization,
    partition,
    projector_stack,
)
from netl1.bench import solve_bp_centralized
from netl1.graphs import Graph, generate_network, greedy_coloring
from netl1.nodeprob import RowSubproblem
from netl1.problems import ProblemInstance
from netl1.solvers import SolverConfig, make_stepper

from oracles import jacobi_eigenvalues, kkt_projection, laplacian_oracle


class TestPartition:
    def test_row_blocks_restack(self):
        A = np.arange(8.0).reshape(4, 2)
        b = np.arange(4.0)
        blocks = partition(A, b, PartitionSpec("row", (2, 2)))
        assert len(blocks) == 2
        assert all(Ap.shape == (2, 2) for Ap, _ in blocks)
        np.testing.assert_array_equal(np.vstack([Ap for Ap, _ in blocks]), A)
        np.testing.assert_array_equal(np.concatenate([bp for _, bp in blocks]), b)

    def test_column_blocks(self):
        A = np.arange(8.0).reshape(2, 4)
        blocks = partition(A, np.zeros(2), PartitionSpec("column", (1, 3)))
        assert blocks[0].shape == (2, 1) and blocks[1].shape == (2, 3)
        np.testing.assert_array_equal(np.hstack(blocks), A)

    def test_scenario_sizes(self):
        spec = PartitionSpec.even("row", 500, 50)
        assert spec.sizes == (10,) * 50
        rng = np.random.default_rng(0)
        A = rng.normal(size=(500, 40))
        blocks = partition(A, np.zeros(500), spec)
        assert len(blocks) == 50 and all(Ap.shape == (10, 40) for Ap, _ in blocks)

    def test_roundtrip_is_bitwise(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(12, 7))
        b = rng.normal(size=12)
        blocks = partition(A, b, PartitionSpec("row", (3, 4, 5)))
        restacked = np.vstack([Ap for Ap, _ in blocks])
        assert (restacked == A).all()
        assert (np.concatenate([bp for _, bp in blocks]) == b).all()

    def test_size_mismatch_rejected(self):
        A = np.ones((4, 2))
        with pytest.raises(InputError):
            partition(A, np.zeros(4), PartitionSpec("row", (2, 3)))
        with pytest.raises(InputError):
            PartitionSpec.even("row", 5, 2)

    @pytest.mark.parametrize("sizes", [(2.5, 1.9), (2.0, 2), (2, np.nan)],
                             ids=["fractions", "float", "nan"])
    def test_non_integer_sizes_rejected(self, sizes):
        with pytest.raises(InputError):
            PartitionSpec("row", sizes)
        assert PartitionSpec("row", (np.int64(2), 1)).sizes == (2, 1)


class TestAffineProjection:
    def test_coordinate_constraint(self):
        A = np.array([[1.0, 0.0]])
        b = np.array([1.0])
        x = affine_projection(A, b, gram_factorization(A), np.array([0.0, 5.0]))
        np.testing.assert_allclose(x, [1.0, 5.0])

    def test_feasible_point_unchanged(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 6))
        x0 = rng.normal(size=6)
        b = A @ x0
        fact = gram_factorization(A)
        np.testing.assert_allclose(affine_projection(A, b, fact, x0), x0, atol=1e-12)

    def test_idempotent_and_feasible(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(4, 9))
        b = rng.normal(size=4)
        fact = gram_factorization(A)
        for _ in range(20):
            p = rng.normal(size=9) * 10
            x = affine_projection(A, b, fact, p)
            assert np.linalg.norm(A @ x - b) <= 1e-9 * (1 + np.linalg.norm(b))
            x2 = affine_projection(A, b, fact, x)
            np.testing.assert_allclose(x2, x, atol=1e-10)

    def test_matches_kkt_oracle(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(3, 6))
        b = rng.normal(size=3)
        fact = gram_factorization(A)
        for _ in range(10):
            p = rng.normal(size=6)
            np.testing.assert_allclose(
                affine_projection(A, b, fact, p), kkt_projection(A, b, p), atol=1e-8
            )

    def test_stack_matches_per_block_projections(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(6, 3, 10)) * rng.uniform(0.1, 10.0, size=(6, 1, 1))
        b = rng.normal(size=(6, 3))
        facts = [gram_factorization(A_p) for A_p in A]
        points = rng.normal(size=(6, 10)) * 10
        X = affine_projection(A, b, projector_stack(A, facts), points)
        for A_p, b_p, fact, p, x in zip(A, b, facts, points, X):
            np.testing.assert_allclose(x, affine_projection(A_p, b_p, fact, p), rtol=0, atol=1e-12)
            assert np.abs(A_p @ x - b_p).max() <= 1e-10

    def test_stack_rejects_a_non_finite_point(self):
        rng = np.random.default_rng(6)
        A, b = rng.normal(size=(4, 2, 5)), rng.normal(size=(4, 2))
        projector = projector_stack(A, [gram_factorization(A_p) for A_p in A])
        for bad in (np.nan, np.inf):
            points = rng.normal(size=(4, 5))
            points[2, 3] = bad
            with pytest.raises(InputError):
                affine_projection(A, b, projector, points)

    def test_rank_deficient_block_rejected(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1; scaled to zero it has rank 0
        with pytest.raises(FactorizationError):
            gram_factorization(A * 0.0)


def rank_deficient(case):
    """A two-node row instance whose second block (rows m/2..m-1) lacks
    full row rank, and that block."""
    rng = np.random.default_rng(40)
    if case == "more_rows_than_columns":
        A = rng.normal(size=(12, 4))
    else:
        A = rng.normal(size=(8, 20))
        A[6] = A[4] if case == "duplicated_row" else A[4] / 3.0
    b = rng.normal(size=A.shape[0])  # inconsistent on the dependent rows
    half = A.shape[0] // 2
    return ProblemInstance(A=A, b=b).with_partition("row", 2), A[half:], b[half:]


@pytest.mark.parametrize("case", ["duplicated_row", "scaled_row", "more_rows_than_columns"])
class TestRowRank:
    """A block without full row rank is rejected wherever it is factorized."""

    def test_row_subproblem(self, case):
        _, block, b = rank_deficient(case)
        with pytest.raises(FactorizationError):
            RowSubproblem(block, b)

    def test_make_stepper(self, case):
        problem, _, _ = rank_deficient(case)
        graph = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(FactorizationError):
            make_stepper(SolverConfig(kind="dadmm_row"), problem, graph, greedy_coloring(graph))

    def test_oracle(self, case):
        problem, _, _ = rank_deficient(case)
        with pytest.raises(FactorizationError):
            solve_bp_centralized(problem.A, problem.b)


class TestGramInverse:
    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(6, 15))
        inverse = gram_factorization(A)
        gram = A @ A.T
        assert np.linalg.norm(inverse @ gram - np.eye(6)) <= 1e-10
        np.testing.assert_array_equal(inverse, inverse.T)

    def test_solve_matches_dense(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(4, 11))
        rhs = rng.normal(size=4)
        np.testing.assert_allclose(gram_factorization(A) @ rhs, np.linalg.solve(A @ A.T, rhs),
                                   rtol=1e-12)

    def test_singular_factor_rejected(self, monkeypatch):
        # a full-rank block passes the rank check; a zero on its factor's
        # diagonal must still be rejected
        A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        monkeypatch.setattr(np.linalg, "cholesky", lambda gram: np.diag([1.0, 0.0]))
        with pytest.raises(FactorizationError):
            gram_factorization(A)


def lambda_max(g):
    """The largest Laplacian eigenvalue as dn's step size takes it: eigvalsh
    of L = D - Adj from the graph's adjacency operator."""
    laplacian = np.diag(g.degrees.astype(float)) - g.adjacency_matrix
    return np.linalg.eigvalsh(laplacian)[-1]


class TestLambdaMax:
    def test_complete_graph(self):
        g = generate_network("erdos_renyi", 5, 0, p=1.0)
        assert lambda_max(g) == pytest.approx(5.0, rel=1e-12)

    def test_single_edge(self):
        assert lambda_max(Graph.from_edges(2, [(0, 1)])) == pytest.approx(2.0, rel=1e-12)

    def test_lattice_matches_jacobi_oracle(self):
        g = generate_network("lattice", 64)
        expected = jacobi_eigenvalues(laplacian_oracle(g.n_nodes, g.edges))[-1]
        assert lambda_max(g) == pytest.approx(expected, rel=1e-10)

    def test_spectral_bounds_on_generated_graphs(self):
        for seed in range(5):
            g = generate_network("erdos_renyi", 12, seed, p=0.4)
            if g.n_edges == 0:
                continue
            lam = lambda_max(g)
            max_row_sum = np.abs(laplacian_oracle(g.n_nodes, g.edges)).sum(axis=1).max()
            assert lam >= max_row_sum / 2 - 1e-8
            assert lam <= 2 * g.degrees.max() + 1e-8
