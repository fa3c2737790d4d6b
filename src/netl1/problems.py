"""Problem instances and their text file format."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import InputError, PartitionSpec, as_matrix, as_vector


@dataclass
class ProblemInstance:
    """A basis pursuit instance: dense A (m x n, m < n), right-hand side b,
    optional reference solution and optional partition descriptor."""

    A: np.ndarray
    b: np.ndarray
    x_ref: np.ndarray | None = None
    partition: PartitionSpec | None = None

    def __post_init__(self):
        self.A = as_matrix(self.A)
        self.b = as_vector(self.b, self.A.shape[0], "b")
        if self.x_ref is not None:
            self.x_ref = as_vector(self.x_ref, self.A.shape[1], "x_ref")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def with_partition(self, kind: str, n_nodes: int) -> "ProblemInstance":
        total = self.m if kind == "row" else self.n
        return replace(self, partition=PartitionSpec.even(kind, total, n_nodes))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def save_instance(path, problem: ProblemInstance) -> None:
    """Write the text format: 'm n', m rows of A, one row b, optional x_ref."""
    lines = [f"{problem.m} {problem.n}"]
    lines += [" ".join(_fmt(v) for v in row) for row in problem.A]
    lines.append(" ".join(_fmt(v) for v in problem.b))
    if problem.x_ref is not None:
        lines.append(" ".join(_fmt(v) for v in problem.x_ref))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_instance(path) -> ProblemInstance:
    with open(path) as fh:
        rows = [line.split() for line in fh if line.strip()]
    if not rows:
        raise InputError("instance file must start with an 'm n' line")
    try:
        m, n = (int(token) for token in rows[0])
    except ValueError:
        raise InputError(f"line {' '.join(rows[0])!r} must be an 'm n' header of two "
                         "integers") from None
    if len(rows) not in (m + 2, m + 3):
        raise InputError(f"instance file should have {m}+2 or {m}+3 lines")
    try:
        A = np.array([[float(v) for v in row] for row in rows[1 : m + 1]])
        b = np.array([float(v) for v in rows[m + 1]])
        x_ref = np.array([float(v) for v in rows[m + 2]]) if len(rows) == m + 3 else None
    except ValueError as exc:
        raise InputError(f"malformed number in instance file: {exc}") from exc
    if A.shape != (m, n):
        raise InputError(f"matrix block has shape {A.shape}, expected {(m, n)}")
    return ProblemInstance(A=A, b=b, x_ref=x_ref)
