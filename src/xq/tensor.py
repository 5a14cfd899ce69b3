"""Elements of C (x) C for free abelian C of finite rank, and induced maps."""

from __future__ import annotations

from typing import Iterator, Sequence


class TensorElement:
    """Integer coefficient matrix over the basis {c_i (x) c_j}.  An
    immutable value: equal matrices are equal and hash alike."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple[tuple[int, ...], ...]):
        if len(coeffs) != n or any(len(r) != n for r in coeffs):
            raise ValueError("coefficient matrix must be n x n")
        _set_n(self, n)
        _set_coeffs(self, coeffs)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"TensorElement is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return TensorElement, (self.n, self.coeffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.n, self.coeffs))

    def __repr__(self) -> str:
        return f"TensorElement(n={self.n!r}, coeffs={self.coeffs!r})"

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


# the slots' own setters, which the frozen __setattr__ leaves to __init__
_set_n, _set_coeffs = TensorElement.n.__set__, TensorElement.coeffs.__set__
