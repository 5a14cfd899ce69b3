"""Free nil(2) groups: canonical normal forms and exact arithmetic.

Convention: commutators are (x, y) = -x - y + x + y, groups are written
additively, and every element of the free nil(2) group on g_0..g_{n-1} has a
unique normal form

    a_0 g_0 + ... + a_{n-1} g_{n-1} + sum_{i<j} c_ij (g_i, g_j)

with the basic commutators (g_i, g_j), i < j, central.  Multiplication
collects the second base block past the first; each crossing of a g_j letter
(j > i) over a g_i letter emits (g_j, g_i) = -(g_i, g_j), giving the frozen
collection correction

    (a, c) * (a', c') = (a + a', c + c' + delta(a, a')),
    delta(a, a')[i, j] = -a[j] * a'[i]            for i < j.

The formula was derived against the independent letter-rewriting oracle in
tests/oracle.py and is validated there on random words.

Commutators are read off in closed form,

    (x, y) = sum_{i<j} (x_i y_j - x_j y_i) (g_i, g_j),

x_i and y_i the base exponents.  By `mul`, y + x and x + y share the base
s = a + b and have commutator parts c + c' + delta(b, a) and c + c' +
delta(a, b); -(y + x) has commutator part -(c + c' + delta(b, a)) - s_i s_j
(see `inv`), and adding x + y to it crosses -s past s, which emits
delta(-s, s)[i, j] = s_i s_j.  So -x - y + x + y = -(y + x) + (x + y) has
base 0 and commutator part delta(a, b) - delta(b, a), that is a_i b_j -
a_j b_i at (i, j).

A sum k_1 x_1 + ... + k_m x_m is collected in one pass (`fold`): by `power`,
k x = (k a, k c + C(k, 2) delta(a, a)) for x = (a, c), and by `mul` adding
it to a running (B, C) gives (B + k a, C + k c + C(k, 2) delta(a, a) +
delta(B, k a)), with delta(B, k a)[i, j] = -k B_j a_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable


@lru_cache(maxsize=None)
def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (i, j), i < j, in lexicographic order."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@lru_cache(maxsize=None)
def pair_index(n: int) -> dict[tuple[int, int], int]:
    return {p: k for k, p in enumerate(pair_list(n))}


@dataclass(frozen=True)
class Nil2Element:
    """Normal form: base exponents plus basic commutator exponents."""

    base: tuple[int, ...]
    comm: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.base)

    def is_central(self) -> bool:
        return all(a == 0 for a in self.base)


def identity(n: int) -> Nil2Element:
    return Nil2Element((0,) * n, (0,) * len(pair_list(n)))


def generator(n: int, i: int) -> Nil2Element:
    if not 0 <= i < n:
        raise ValueError(f"generator index {i} out of range for rank {n}")
    return Nil2Element(tuple(1 if k == i else 0 for k in range(n)),
                       (0,) * len(pair_list(n)))


def basic_commutator(n: int, i: int, j: int) -> Nil2Element:
    """(g_i, g_j); for i > j the inverse of (g_j, g_i), for i == j zero."""
    if i == j:
        return identity(n)
    sign = 1 if i < j else -1
    key = (i, j) if i < j else (j, i)
    k = pair_index(n)[key]
    return Nil2Element((0,) * n,
                       tuple(sign if m == k else 0 for m in range(len(pair_list(n)))))


def mul(x: Nil2Element, y: Nil2Element) -> Nil2Element:
    """x + y = (a + a', c + c' + delta(a, a'))."""
    a, b = x.base, y.base
    if len(b) != len(a):
        raise ValueError("rank mismatch")
    return Nil2Element(tuple(p + q for p, q in zip(a, b)),
                       tuple(c + d - a[j] * b[i] for c, d, (i, j)
                             in zip(x.comm, y.comm, pair_list(len(a)))))


def fold(n: int, terms: Iterable[tuple[Nil2Element, int]]) -> Nil2Element:
    """k_1 x_1 + ... + k_m x_m in rank n for the (x, k) pairs of terms, in
    order, by the one-pass collection of the module docstring."""
    pairs = pair_list(n)
    base, comm = [0] * n, [0] * len(pairs)
    for x, k in terms:
        if not k:
            continue
        a = x.base
        if len(a) != n:
            raise ValueError("rank mismatch")
        binom = k * (k - 1) // 2
        comm = [s + k * c - (binom * a[j] + k * base[j]) * a[i]
                for s, c, (i, j) in zip(comm, x.comm, pairs)]
        base = [s + k * e for s, e in zip(base, a)]
    return Nil2Element(tuple(base), tuple(comm))


def inv(x: Nil2Element) -> Nil2Element:
    """-x = (-a, -c + delta(a, a)), as `power` gives for k = -1."""
    return power(x, -1)


def power(x: Nil2Element, k: int) -> Nil2Element:
    """k x for any integer k, in closed form: delta is bilinear, so
    induction on k gives (k a, k c + C(k, 2) delta(a, a))."""
    return fold(x.n, ((x, k),))


def commutator(x: Nil2Element, y: Nil2Element) -> Nil2Element:
    """(x, y) = -x - y + x + y, in the closed form of the module docstring."""
    n = x.n
    if y.n != n:
        raise ValueError("rank mismatch")
    a, b = x.base, y.base
    return Nil2Element((0,) * n, tuple(a[i] * b[j] - a[j] * b[i] for i, j in pair_list(n)))


def word_runs(x: Nil2Element) -> list[tuple[tuple[tuple[int, int], ...], int]]:
    """The canonical word of the normal form as runs (block, count), each
    block of (generator, sign) pairs repeated count times: the generators
    in order, then each basic commutator (g_i, g_j) with exponent c as
    -g_i - g_j + g_i + g_j, c times (or, for c < 0, -g_j - g_i + g_j + g_i,
    -c times)."""
    runs = [(((i, 1 if a > 0 else -1),), abs(a)) for i, a in enumerate(x.base) if a]
    runs += [(((i, -1), (j, -1), (i, 1), (j, 1)) if c > 0
              else ((j, -1), (i, -1), (j, 1), (i, 1)), abs(c))
             for c, (i, j) in zip(x.comm, pair_list(x.n)) if c]
    return runs
