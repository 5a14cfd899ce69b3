"""Elements of C (x) C for free abelian C of finite rank, and induced maps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass(frozen=True)
class TensorElement:
    """Integer coefficient matrix over the basis {c_i (x) c_j}."""

    n: int
    coeffs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.coeffs) != self.n or any(len(r) != self.n for r in self.coeffs):
            raise ValueError("coefficient matrix must be n x n")

    @staticmethod
    def basis(n: int, i: int, j: int) -> "TensorElement":
        return TensorElement(n, tuple(
            tuple(1 if (r, c) == (i, j) else 0 for c in range(n)) for r in range(n)))

    @staticmethod
    def outer(a: Sequence[int], b: Sequence[int]) -> "TensorElement":
        """{a} (x) {b} for coordinate vectors a, b."""
        if len(a) != len(b):
            raise ValueError("outer product needs vectors of equal length")
        return TensorElement(len(a), tuple(tuple(x * y for y in b) for x in a))

    def __add__(self, other: "TensorElement") -> "TensorElement":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return TensorElement(self.n, tuple(
            tuple(x + y for x, y in zip(r, s)) for r, s in zip(self.coeffs, other.coeffs)))

    def induced(self, f: Sequence[Sequence[int]]) -> "TensorElement":
        """Image under f (x) f for a matrix f acting on coordinate columns.

        outer(a, b) maps to outer(f a, f b), i.e. coeffs |-> f coeffs f^T.
        """
        m = len(f)
        fc = [[sum(f[i][k] * self.coeffs[k][j] for k in range(self.n))
               for j in range(self.n)] for i in range(m)]
        out = tuple(tuple(sum(fc[i][k] * f[j][k] for k in range(self.n))
                          for j in range(m)) for i in range(m))
        return TensorElement(m, out)

    def entries(self) -> Iterator[tuple[int, int, int]]:
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c:
                    yield i, j, c
