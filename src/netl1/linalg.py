"""Small dense linear algebra: matrix partitioning, affine projection and
Gram inverses.

Everything here works on plain float64 numpy arrays and has value
semantics; nothing keeps mutable shared state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
        if len(self.sizes) == 0 or not all(isinstance(s, (int, np.integer)) and s > 0
                                           for s in self.sizes):
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


def gram_factorization(A) -> np.ndarray:
    """The Gram inverse (A A^T)^{-1}, formed once from the Cholesky factor
    L of A A^T as inv(L)^T inv(L), so that each solve is one product.

    Raises FactorizationError unless A has full row rank (numerical rank
    by np.linalg.matrix_rank), so a block with a dependent row, or with
    more rows than columns, is rejected before any solve uses it.
    """
    A = as_matrix(A)
    m, n = A.shape
    if np.linalg.matrix_rank(A) < m:
        raise FactorizationError(f"a {m}x{n} block does not have full row rank")
    try:
        lower_inv = np.linalg.inv(np.linalg.cholesky(A @ A.T))
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"Gram matrix of a {m}x{n} block is singular") from exc
    return lower_inv.T @ lower_inv


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


def projector_stack(A, inverses) -> np.ndarray:
    """The stacked A_p^T (A_p A_p^T)^{-1} of k blocks A (k, m, n) of full row
    rank, from their Gram inverses: one (k, n, m) array, the operator that
    affine_projection takes for a stack of blocks."""
    return np.stack([(inverse @ A_p).T for A_p, inverse in zip(A, inverses)])


def affine_projection(A, b, inverse, point) -> np.ndarray:
    """Project a point onto the affine set {x : A x = b}.

    Computes x = p - A^T (A A^T)^{-1} (A p - b), i.e. the Euclidean
    projection. A must have full row rank and inverse must be its cached
    Gram inverse (gram_factorization).

    For a stack of k blocks of one height, A is (k, m, n), b (k, m), point
    (k, n) and inverse the blocks' projector_stack (k, n, m); row p of the
    result is point p projected onto block p's set, by two stacked products.
    """
    if np.ndim(A) == 3:
        points = np.asarray(point, dtype=float)
        if not np.isfinite(points).all():
            raise InputError("point entries must be finite")
        residual = np.matmul(A, points[:, :, None]) - b[:, :, None]
        return points - np.matmul(inverse, residual)[:, :, 0]
    A = as_matrix(A)
    p = as_vector(point, A.shape[1], "point")
    bv = as_vector(b, A.shape[0], "b")
    residual = A @ p - bv
    return p - A.T @ (inverse @ residual)
