"""Exact linear algebra over the integers.

Everything works on plain Python ints (arbitrary precision) and lists/tuples
of them; no floating point, no modular shortcuts.  There is one integer
elimination, `Lattice.add`, which keeps a row lattice in echelon form: it
decides lattice membership and reduces vectors to canonical coset
representatives.  `hnf_with_transform` runs it on a matrix augmented by the
identity to get the Hermite form with its transform, from which
`solve_left` solves u * A = b over Z together with the kernel lattice.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == x*a + y*b."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def vec_sub(u: Sequence[int], v: Sequence[int]) -> list[int]:
    return [a - b for a, b in zip(u, v)]


def vec_neg(u: Sequence[int]) -> list[int]:
    return [-a for a in u]


def vec_is_zero(u: Iterable[int]) -> bool:
    return all(a == 0 for a in u)


class Lattice:
    """Integer row lattice in Z^n kept in row echelon form with positive pivots.

    `reduce` floor-reduces a vector at each pivot column, which yields the
    canonical representative of the coset vec + L (pivot columns and pivot
    values are basis-independent invariants of L, and a lattice vector
    vanishing on all pivot columns is zero, so the representative is unique).
    """

    def __init__(self, n: int, rows: Iterable[Sequence[int]] = ()):
        self.n = n
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        for row in rows:
            self.add(row)

    def add(self, row: Sequence[int]) -> None:
        if len(row) != self.n:
            raise ValueError(f"expected vector of length {self.n}, got {len(row)}")
        vec = list(row)
        while True:
            j = next((k for k, a in enumerate(vec) if a != 0), None)
            if j is None:
                return
            pos = bisect_left(self.pivots, j)
            if pos == len(self.pivots) or self.pivots[pos] != j:
                if vec[j] < 0:
                    vec = vec_neg(vec)
                self.rows.insert(pos, vec)
                self.pivots.insert(pos, j)
                return
            head = self.rows[pos]
            a, b = head[j], vec[j]
            if b % a == 0:
                q = b // a
                vec = [x - q * y for x, y in zip(vec, head)]
            else:
                g, s, t = xgcd(a, b)
                self.rows[pos] = [s * x + t * y for x, y in zip(head, vec)]
                vec = [(a // g) * y - (b // g) * x for x, y in zip(head, vec)]

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.n:
            raise ValueError(f"expected vector of length {self.n}, got {len(vec)}")
        out = list(vec)
        for pos, j in enumerate(self.pivots):
            q = out[j] // self.rows[pos][j]
            if q:
                out = [x - q * y for x, y in zip(out, self.rows[pos])]
        return tuple(out)

    def __contains__(self, vec: Sequence[int]) -> bool:
        return vec_is_zero(self.reduce(vec))

    def basis(self) -> list[tuple[int, ...]]:
        return [tuple(r) for r in self.rows]


def hnf_with_transform(rows: Sequence[Sequence[int]], n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite form with transform: returns (H, U) with U * rows == H.

    (H, U) is the echelon basis `Lattice` builds for the rows (rows[i], e_i)
    of Z^(n+m), split after column n, with the entries above each pivot
    reduced into [0, pivot) after every row is added (left unreduced, the
    entries of U grow with every pivot).  U is unimodular, H has positive
    pivots with reduced entries above them, and zero rows of H sit at the
    bottom (their U rows span the left kernel).
    """
    m = len(rows)
    echelon = Lattice(n + m)
    basis = echelon.rows
    for i, row in enumerate(rows):
        echelon.add(list(row) + [int(k == i) for k in range(m)])
        for k, p in enumerate(echelon.pivots):
            for j in range(k):
                q = basis[j][p] // basis[k][p]
                if q:
                    basis[j] = [u - q * v for u, v in zip(basis[j], basis[k])]
    return [row[:n] for row in basis], [row[n:] for row in basis]


def solve_left(rows: Sequence[Sequence[int]], target: Sequence[int]
               ) -> tuple[list[int] | None, list[tuple[int, ...]]]:
    """(u with sum_i u[i] * rows[i] == target, or None if unsolvable, and a
    basis of the left kernel {u : sum_i u[i] * rows[i] == 0}), both read off
    one Hermite reduction."""
    n = len(target)
    if not rows:
        return ([] if vec_is_zero(target) else None), []
    h, u_rows = hnf_with_transform(rows, n)
    kernel = [tuple(u_rows[k]) for k in range(len(h)) if vec_is_zero(h[k])]
    t = list(target)
    coeff = [0] * len(rows)
    for k, hrow in enumerate(h):
        p = next((j for j in range(n) if hrow[j] != 0), None)
        if p is None:
            break
        q = t[p] // hrow[p]
        if q:
            t = [a - q * b for a, b in zip(t, hrow)]
            coeff[k] = q
    if not vec_is_zero(t):
        return None, kernel
    out = [0] * len(rows)
    for k, c in enumerate(coeff):
        if c:
            out = [a + c * b for a, b in zip(out, u_rows[k])]
    return out, kernel


def reduce_with_order(vec: Sequence[int], rows: Iterable[Sequence[int]],
                      order: Sequence[int] | None = None) -> tuple[int, ...]:
    """Canonical representative of vec modulo the row lattice, reducing
    coordinates in the given priority order (earlier entries reduced first)."""
    n = len(vec)
    if order is None:
        order = list(range(n))
    pvec = [vec[c] for c in order]
    prows = [[r[c] for c in order] for r in rows]
    red = Lattice(n, prows).reduce(pvec)
    out = [0] * n
    for pos, c in enumerate(order):
        out[c] = red[pos]
    return tuple(out)


def split_lattice(rows: Sequence[Sequence[int]], col: int
                  ) -> tuple[list[int] | None, list[list[int]]]:
    """A basis of the row lattice split at coordinate `col`: one row whose
    value s > 0 there divides the value of every lattice vector there (None
    when they all vanish there), and a basis of the vectors vanishing there.
    An echelon basis with `col` as its first column has this shape."""
    if not rows:
        return None, []
    n = len(rows[0])
    order = [col] + [c for c in range(n) if c != col]
    echelon = Lattice(n, [[r[c] for c in order] for r in rows])
    basis = [[0] * n for _ in echelon.rows]
    for out, row in zip(basis, echelon.rows):
        for pos, c in enumerate(order):
            out[c] = row[pos]
    if echelon.pivots and echelon.pivots[0] == 0:
        return basis[0], basis[1:]
    return None, basis


class ZSystem:
    """Affine constraint system over integer variables.

    Each equation block lives in Z^dim and reads
        sum_v u_v * coeff_v == rhs   (mod the lattice spanned by mod_rows).
    Mod lattices are folded in as slack variables; one Hermite reduction then
    yields a particular solution and the kernel lattice projected onto the
    real variables.
    """

    def __init__(self) -> None:
        self.nvars = 0
        self._eqs: list[tuple[int, list[tuple[int, list[int]]], list[int], list[list[int]]]] = []

    def new_vars(self, k: int) -> list[int]:
        out = list(range(self.nvars, self.nvars + k))
        self.nvars += k
        return out

    def add(self, dim: int, terms: Iterable[tuple[int, Sequence[int]]],
            rhs: Sequence[int], mod_rows: Iterable[Sequence[int]] = ()) -> None:
        terms = [(v, list(c)) for v, c in terms]
        mod_rows = [list(r) for r in mod_rows]
        for _, c in terms:
            if len(c) != dim:
                raise ValueError("coefficient dimension mismatch")
        if len(rhs) != dim:
            raise ValueError("rhs dimension mismatch")
        self._eqs.append((dim, terms, list(rhs), mod_rows))

    def solve(self) -> tuple[list[int], list[tuple[int, ...]]] | None:
        """Return (particular solution, kernel basis) on the real variables."""
        total = sum(dim for dim, _, _, _ in self._eqs)
        nslack = sum(len(mod) for _, _, _, mod in self._eqs)
        nrows = self.nvars + nslack
        a = [[0] * total for _ in range(nrows)]
        b: list[int] = []
        col = 0
        srow = self.nvars
        for dim, terms, rhs, mod in self._eqs:
            for var, coeff in terms:
                row = a[var]
                for j, x in enumerate(coeff):
                    row[col + j] += x
            for mrow in mod:
                for j, x in enumerate(mrow):
                    a[srow][col + j] = x
                srow += 1
            b.extend(rhs)
            col += dim
        u, kernel = solve_left(a, b)
        if u is None:
            return None
        u0 = u[: self.nvars]
        proj = Lattice(self.nvars, [k[: self.nvars] for k in kernel])
        return u0, proj.basis()
