"""Small dense linear algebra: matrix partitioning, affine projection and
Gram factorizations.

Everything here works on plain float64 numpy arrays and has value
semantics; nothing keeps mutable shared state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs


class InputError(ValueError):
    """Rejected input (bad shapes, invalid parameters, inconsistent sizes)."""


class FactorizationError(RuntimeError):
    """A block without full row rank, whose Gram matrix cannot be factorized."""


def as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise InputError(f"expected a nonempty 2-d matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise InputError("matrix entries must be finite")
    return A


def as_vector(v, length: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=float).ravel()
    if length is not None and v.shape[0] != length:
        raise InputError(f"{name} must have length {length}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise InputError(f"{name} entries must be finite")
    return v


@dataclass(frozen=True)
class PartitionSpec:
    """How a matrix is split across nodes.

    kind is "row" or "column"; sizes holds the per-node block sizes, which
    must sum to the corresponding matrix dimension.
    """

    kind: str
    sizes: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("row", "column"):
            raise InputError(f"partition kind must be 'row' or 'column', got {self.kind!r}")
        if len(self.sizes) == 0 or any(int(s) <= 0 for s in self.sizes):
            raise InputError("partition sizes must be positive integers")
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))

    @property
    def n_nodes(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    @classmethod
    def even(cls, kind: str, total: int, n_nodes: int) -> "PartitionSpec":
        """Equal-size partition; requires n_nodes to divide total."""
        if n_nodes <= 0 or total % n_nodes != 0:
            raise InputError(f"{n_nodes} nodes do not evenly divide dimension {total}")
        return cls(kind, (total // n_nodes,) * n_nodes)


@dataclass(frozen=True)
class GramFactorization:
    """Cholesky factor of A A^T for an m-by-n matrix A of full row rank:
    lower is lower triangular with lower @ lower.T == A @ A.T."""

    lower: np.ndarray


def gram_factorization(A) -> GramFactorization:
    """Factor A A^T.

    Raises FactorizationError unless A has full row rank (numerical rank
    by np.linalg.matrix_rank), so a block with a dependent row, or with
    more rows than columns, is rejected before any solve uses it.
    """
    A = as_matrix(A)
    m, n = A.shape
    if np.linalg.matrix_rank(A) < m:
        raise FactorizationError(f"a {m}x{n} block does not have full row rank")
    try:
        lower = np.linalg.cholesky(A @ A.T)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"Gram matrix of a {m}x{n} block is singular") from exc
    return GramFactorization(lower=lower)


def gram_solve(fact: GramFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve (A A^T) z = rhs using the cached Cholesky factor.

    With U = lower.T (upper triangular, Fortran-ordered), LAPACK's trtrs
    solves U' y = rhs and then U z = y: the calls scipy's solve_triangular
    makes, without its per-call validation and batching.
    """
    rhs = np.asarray(rhs, dtype=float)
    if not np.isfinite(rhs).all():
        raise InputError("right-hand side entries must be finite")
    upper = fact.lower.T
    y, info = dtrtrs(upper, rhs, lower=0, trans=1)
    if info == 0:
        y, info = dtrtrs(upper, y, lower=0, trans=0)
    if info != 0:
        raise FactorizationError(f"triangular solve with the Gram factor failed (info {info})")
    return y


def partition(A, b, spec: PartitionSpec):
    """Slice A (and b, for row partitions) into contiguous per-node blocks.

    Returns a list of (A_p, b_p) pairs for a row partition, or a list of
    column blocks A_p for a column partition (b is shared by all nodes).
    Concatenating the blocks in node order reconstructs the inputs exactly.
    """
    A = as_matrix(A)
    m, n = A.shape
    b = as_vector(b, m, "b")
    if spec.kind == "row":
        if spec.total != m:
            raise InputError(f"row partition sizes sum to {spec.total}, expected m={m}")
        offsets = np.cumsum((0,) + spec.sizes)
        return [
            (A[offsets[p] : offsets[p + 1], :].copy(), b[offsets[p] : offsets[p + 1]].copy())
            for p in range(spec.n_nodes)
        ]
    if spec.total != n:
        raise InputError(f"column partition sizes sum to {spec.total}, expected n={n}")
    offsets = np.cumsum((0,) + spec.sizes)
    return [A[:, offsets[p] : offsets[p + 1]].copy() for p in range(spec.n_nodes)]


def affine_projection(A, b, fact: GramFactorization, point) -> np.ndarray:
    """Project a point onto the affine set {x : A x = b}.

    Computes x = p - A^T (A A^T)^{-1} (A p - b), i.e. the Euclidean
    projection. A must have full row rank and fact must be its cached
    Gram factorization.
    """
    A = as_matrix(A)
    p = as_vector(point, A.shape[1], "point")
    bv = as_vector(b, A.shape[0], "b")
    residual = A @ p - bv
    return p - A.T @ gram_solve(fact, residual)
