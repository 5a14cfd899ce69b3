"""Exact integer linear algebra against brute-force enumeration."""

import itertools
import random
from types import SimpleNamespace

from xq.crossed import ShiftedSolutions
from xq.intlinalg import Lattice, ZSystem, hnf_with_transform, solve_left, vec_sub, xgcd


def brute_combinations(rows, box):
    """All integer combinations of rows with coefficients in [-box, box]."""
    if not rows:
        return {tuple([0] * 0)}
    n = len(rows[0])
    out = set()
    for coeffs in itertools.product(range(-box, box + 1), repeat=len(rows)):
        v = [0] * n
        for c, row in zip(coeffs, rows):
            for i, a in enumerate(row):
                v[i] += c * a
        out.add(tuple(v))
    return out


def test_xgcd():
    rng = random.Random(1)
    for _ in range(300):
        a = rng.randint(-40, 40)
        b = rng.randint(-40, 40)
        g, x, y = xgcd(a, b)
        assert a * x + b * y == g
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_lattice_membership_against_brute_force():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 3)
        rows = [[rng.randint(-2, 2) for _ in range(n)]
                for _ in range(rng.randint(0, 3))]
        lat = Lattice(n, rows)
        span = brute_combinations(rows, 3) if rows else {tuple([0] * n)}
        for v in itertools.product(range(-3, 4), repeat=n):
            if list(v) in lat:
                # membership certificate: solve for the combination
                assert solve_left(rows, list(v))[0] is not None
            elif v in span:
                raise AssertionError(f"{v} in span but rejected")


def test_lattice_reduce_is_canonical_on_cosets():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)]
                for _ in range(rng.randint(0, n))]
        lat = Lattice(n, rows)
        v = [rng.randint(-8, 8) for _ in range(n)]
        rv = lat.reduce(v)
        assert vec_sub(v, rv) in lat
        for row in rows:
            shifted = [a + b for a, b in zip(v, row)]
            assert lat.reduce(shifted) == rv
        assert lat.reduce(rv) == rv


def test_hnf_transform_identity():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        h, u = hnf_with_transform(rows, n)
        assert len(h) == m and len(u) == m
        # U . rows == H, row by row
        for i in range(m):
            acc = [0] * n
            for k in range(m):
                for j in range(n):
                    acc[j] += u[i][k] * rows[k][j]
            assert acc == list(h[i])


def test_hnf_is_reduced_above_each_pivot():
    rng = random.Random(7)
    for _ in range(50):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        h, _ = hnf_with_transform(rows, n)
        for k, row in enumerate(h):
            p = next((j for j in range(n) if row[j]), None)
            if p is None:
                assert all(not any(r) for r in h[k:])
                break
            assert row[p] > 0
            assert all(0 <= h[i][p] < row[p] for i in range(k))


def test_hnf_transform_entries_stay_small():
    # entries drawn row by row from {0, 1, -1, 2}; an echelon basis left
    # unreduced above its pivots reaches 683 and 6,778 bits here
    for (m, n), bits in (((20, 30), 33), ((30, 45), 60)):
        rng = random.Random(1)
        rows = [[rng.choice((0, 1, -1, 2)) for _ in range(n)] for _ in range(m)]
        h, u = hnf_with_transform(rows, n)
        assert max(abs(a).bit_length() for row in h + u for a in row) <= bits


def test_solve_left_and_kernel():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        # solvable instance: random combination
        coeffs = [rng.randint(-3, 3) for _ in range(m)]
        target = [sum(c * rows[k][j] for k, c in enumerate(coeffs))
                  for j in range(n)]
        sol, ker = solve_left(rows, target)
        assert sol is not None
        assert [sum(s * rows[k][j] for k, s in enumerate(sol))
                for j in range(n)] == target
        # kernel rows annihilate, and brute-force kernel vectors lie in the
        # kernel lattice
        for kv in ker:
            assert all(sum(kv[k] * rows[k][j] for k in range(m)) == 0
                       for j in range(n))
        ker_lat = Lattice(m, ker)
        for coeffs in itertools.product(range(-2, 3), repeat=m):
            image = [sum(c * rows[k][j] for k, c in enumerate(coeffs))
                     for j in range(n)]
            if all(a == 0 for a in image):
                assert list(coeffs) in ker_lat


def test_solve_left_detects_unsolvable():
    assert solve_left([[2, 0], [0, 2]], [1, 0]) == (None, [])
    assert solve_left([[2, 4]], [1, 2]) == (None, [])
    assert solve_left([], [0, 0]) == ([], [])
    assert solve_left([], [1]) == (None, [])
    # the kernel comes with an unsolvable system too
    sol, ker = solve_left([[2, 4], [1, 2]], [1, 0])
    assert sol is None and len(ker) == 1
    assert ker[0][0] * 2 + ker[0][1] == 0 and ker[0] != (0, 0)


def random_zsystem(rng, nv):
    """A random ZSystem on nv unknowns and its `satisfies(assign)` test."""
    sys_ = ZSystem()
    xs = sys_.new_vars(nv)
    eqs = []
    for _ in range(rng.randint(1, 3)):
        dim = rng.randint(1, 2)
        cols = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(nv)]
        rhs = [rng.randint(-2, 2) for _ in range(dim)]
        mod_rows = []
        if rng.random() < 0.5:
            mod_rows = [[rng.randint(-2, 2) for _ in range(dim)]]
        sys_.add(dim, [(xs[i], cols[i]) for i in range(nv)], rhs,
                 mod_rows=mod_rows)
        eqs.append((dim, cols, rhs, mod_rows))

    def satisfies(assign):
        for dim, cols, rhs, mod_rows in eqs:
            val = [sum(assign[i] * cols[i][d] for i in range(nv)) - rhs[d]
                   for d in range(dim)]
            if list(val) not in Lattice(dim, mod_rows):
                return False
        return True

    return sys_, satisfies


def test_zsystem_against_brute_force():
    rng = random.Random(6)
    for _ in range(40):
        nv = rng.randint(1, 3)
        sys_, satisfies = random_zsystem(rng, nv)
        got = sys_.solve()
        brute = [assign for assign in
                 itertools.product(range(-4, 5), repeat=nv)
                 if satisfies(assign)]
        if got is None:
            assert not brute, f"solver missed {brute[:3]}"
        else:
            u0, kernel = got
            assert satisfies(u0[:nv])
            # the solution comes reduced, by a kernel basis in echelon form
            assert Lattice(nv, kernel).reduce(u0) == tuple(u0)
            leads = [next(i for i, a in enumerate(kv) if a) for kv in kernel]
            assert leads == sorted(set(leads))
            for kv in kernel:
                assert satisfies([u0[i] + kv[i] for i in range(nv)])
            # every small brute solution is u0 + kernel combination
            klat = Lattice(nv, [kv[:nv] for kv in kernel])
            for assign in brute:
                assert vec_sub(assign, u0[:nv]) in klat


def test_shifted_solutions_admit_exactly_the_solvable_shifts():
    # unknown 0 is the shift t; a t is admitted exactly when the system with
    # t fixed has an integer solution, and solution_at gives one
    rng = random.Random(8)
    for _ in range(60):
        nv = rng.randint(1, 3)
        sys_, satisfies = random_zsystem(rng, nv)
        got = sys_.solve()
        brute = [assign for assign in
                 itertools.product(range(-4, 5), repeat=nv)
                 if satisfies(assign)]
        if got is None:
            assert not brute
            continue
        sols = ShiftedSolutions(SimpleNamespace(), *got)
        for t in range(-6, 7):
            u = sols.solution_at(t)
            assert (u is not None) == sols.admits(t)
            if sols.admits(t):
                assert u[0] == t and satisfies(u)
                if sols.step:
                    assert sols.admits(t + sols.step) and not any(
                        sols.admits(t + k) for k in range(1, sols.step))
            else:
                assert not any(a[0] == t for a in brute)


def test_coset_points_against_the_box():
    rng = random.Random(21)
    for _ in range(1500):
        n, bound = rng.randint(1, 3), rng.randint(0, 4)
        lattice = Lattice(n, [[rng.randint(-3, 3) for _ in range(n)]
                              for _ in range(rng.randint(0, 3))])
        offset = [rng.randint(-6, 6) for _ in range(n)]
        box = [p for p in itertools.product(range(-bound, bound + 1), repeat=n)
               if vec_sub(p, offset) in lattice]
        assert list(lattice.coset_points(offset, bound)) == box
