"""The rq homotopy decider solves the system the verifier checks: at any
integer point u of the decider's unknowns, `verify_rq_homotopy` accepts the
witness that u gives exactly when the decider's integer system holds at u.

The system is read from the `LinearHomotopy` that `rq_homotopy_decision`
builds, and evaluated here over its stored equations, one reduction per
equation block.  The points are the system's solutions (its particular
solution plus integer combinations of its kernel), those moved in one
unknown, and random points; so a row of the system that the verifier does
not check, or a check the system leaves out, shows as a point where the
two disagree.  With the shift unknown t (unknown 0), the point is checked
against g_t, whose f3 is g3 + t shift."""

import random

import pytest

import xq.quadratic
from xq.crossed import LinearHomotopy
from xq.groups import FreeAbelianGroup, FreeNil2Group, GroupHom
from xq.intlinalg import Lattice
from xq.quadratic import (QCHomotopy, QCMorphism, ReducedQuadraticComplex4,
                          ReducedQuadraticModule, rq_homotopy_decision, verify_rq_homotopy)
from xq.sphere import retraction_candidate, retraction_shift

from test_shared_values import MORPHISM_FILES, broken_f3, shipped  # noqa: F401


@pytest.fixture
def decide(monkeypatch):
    """decide(f, g, shift=None) -> the `LinearHomotopy` of that decision."""
    made = []

    class Kept(LinearHomotopy):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)
    monkeypatch.setattr(xq.quadratic, "LinearHomotopy", Kept)

    def run(f, g, shift=None):
        rq_homotopy_decision(f, g, shift)
        return made[-1]
    return run


def holds(lin, u) -> bool:
    """Whether every equation of the decider's system holds at u."""
    return all(not any(Lattice(dim, mod).reduce(
        [sum(u[v] * c[k] for v, c in terms) - rhs[k] for k in range(dim)]))
        for dim, terms, rhs, mod in lin.system._eqs)


def shifted(g, shift, t):
    """g with t shift added to its f3 images."""
    q3 = g.target.q3
    return QCMorphism(g.source, g.target, g.f2, GroupHom(
        g.source.q3, q3, [q3.op(im, q3.pow(s, t)) for im, s in zip(g.f3.images, shift)]), g.f4)


def points(lin, rng, count=12):
    """Solutions, solutions moved in one unknown, and random points."""
    n, solved = lin.system.nvars, lin.system.solve()
    out = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(count // 3)]
    if solved is not None:
        u0, kernel = solved
        for _ in range(count):
            u = list(u0)
            for row in kernel:
                c = rng.randint(-3, 3)
                u = [a + c * b for a, b in zip(u, row)]
            out.append(u)
            if n:
                moved = list(u)
                moved[rng.randrange(n)] += rng.choice((-2, -1, 1, 2))
                out.append(moved)
    return out


def assert_same_verdicts(decide, f, g, rng, shift=None) -> int:
    """The verifier's verdict is the system's at every point; returns how
    many points the system holds at."""
    lin = decide(f, g, shift)
    if not lin.blocks:
        # refuted in degree 2 before any unknown: no witness is accepted
        assert [c.check_id for c in lin.rep.failed()] == ["degree2_solvable"]
        q3, q4 = f.target.q3, f.target.q4
        for _ in range(4):
            h = QCHomotopy(tuple(q3.random_element(rng) for _ in range(f.source.q2.ngens)),
                           tuple(q4.random_element(rng) for _ in range(f.source.q3.ngens)))
            assert not verify_rq_homotopy(f, g, h).ok
        return 0
    held = 0
    for u in points(lin, rng):
        g_t = g if shift is None else shifted(g, shift, u[0])
        ok = holds(lin, u)
        assert verify_rq_homotopy(f, g_t, QCHomotopy(*lin.values(u))).ok == ok, u
        held += ok
    return held


def test_shipped_pairs_and_a_corrupted_f3(decide, shipped, cylinder_q, sphere_d):  # noqa: F811
    rng = random.Random(2301)
    _, _, bind = shipped
    ms = [bind(name) for name in MORPHISM_FILES]
    held = sum(assert_same_verdicts(decide, f, g, rng) for f in ms for g in ms)
    good = retraction_candidate(cylinder_q, sphere_d, 1, 0, 0)
    held += assert_same_verdicts(decide, broken_f3(cylinder_q, sphere_d), good, rng)
    assert held > 0


def test_bench_style_pairs_with_r_up_to_50(decide, cylinder_q, sphere_d):
    """Same-class and cross-class retractions (a, b) in {(1, 0), (0, 1)}
    with f3(e3) = r w(e,e), |r| <= 50, as the homotopy_pairs workload
    draws them."""
    rng = random.Random(2302)
    classes = ((1, 0), (0, 1))
    held = 0
    for k in range(8):
        abf, abg = classes[k % 2], classes[(k // 2) % 2]
        f, g = (retraction_candidate(cylinder_q, sphere_d, *ab, rng.randint(-50, 50))
                for ab in (abf, abg))
        held += assert_same_verdicts(decide, f, g, rng)
    assert held > 0


def test_shifted_decisions_at_integer_t(decide, cylinder_q, sphere_d):
    """The family decisions of classify: g_t agrees with g but for
    f3(e3) = r + t, and the system's points are checked against g_t."""
    rng = random.Random(2303)
    shift = retraction_shift(cylinder_q, sphere_d)
    held = 0
    for ab in ((1, 0), (0, 1)):
        for rf, rg in ((0, 0), (-7, 3), (50, -50)):
            f, g = (retraction_candidate(cylinder_q, sphere_d, *ab, r) for r in (rf, rg))
            held += assert_same_verdicts(decide, f, g, rng, shift)
    assert held > 0


def test_a_target_with_degree4_unknowns(decide, cylinder_q):
    """Q into T = (Z<x>, Z<t>, Z<s>) with d3' = d4' = 0 and omega' = 0:
    alpha3 has unknowns, so Q3's relation rows, degree 4 and the under
    row of alpha3 are equations with something to hold."""
    q = cylinder_q
    x2, t3, s4 = FreeNil2Group(1, names=("x",)), FreeAbelianGroup(1), FreeAbelianGroup(1)
    target = ReducedQuadraticComplex4(
        ReducedQuadraticModule(x2, t3, ((t3.identity(),),), GroupHom.zero(t3, x2)),
        s4, GroupHom.zero(s4, t3), name="T")

    def m(r, w):
        return QCMorphism(q, target, GroupHom.zero(q.q2, x2),
                          GroupHom(q.q3, t3, [(r,)] + [(0,)] * (q.q3.ngens - 1)),
                          GroupHom(q.q4, s4, [(w,)]))
    rng = random.Random(2304)
    held = sum(assert_same_verdicts(decide, m(*a), m(*b), rng)
               for a, b in (((0, 0), (0, 0)), ((0, 0), (2, 3)), ((1, -1), (-4, 5))))
    assert held > 0
