"""Each homotopy decider solves the system its verifier checks: at any
integer point u of the decider's unknowns, `verify_rq_homotopy` (for
reduced quadratic complexes) or `verify_xc3_homotopy` (for crossed
complexes) accepts the witness that u gives exactly when the decider's
integer system holds at u.

The system is read from the `LinearHomotopy` that `rq_homotopy_decision`
or `xc3_homotopy_decision` builds, and evaluated here over its stored
equations, one reduction per equation block.  The points are the system's
solutions (its particular solution plus integer combinations of its
kernel), those moved in one unknown, and random points; so a row of the
system that the verifier does not check, or a check the system leaves out,
shows as a point where the two disagree.  With the shift unknown t
(unknown 0), the point is checked against g_t, whose f3 is g3 + t shift."""

import random

import pytest

import xq.crossed
import xq.quadratic
from xq import structfile as sf
from xq.crossed import (CrossedComplex3, GroupAction, LinearHomotopy, XC3Homotopy,
                        XC3Morphism, verify_xc3_homotopy, xc3_homotopy_decision)
from xq.groups import FgAbelianGroup, FreeAbelianGroup, FreeNil2Group, GroupHom
from xq.intlinalg import Lattice
from xq.quadratic import (QCHomotopy, QCMorphism, ReducedQuadraticComplex4,
                          ReducedQuadraticModule, rq_homotopy_decision, verify_rq_homotopy)
from xq.sphere import retraction_candidate, retraction_shift

import output_manifest
from test_check_firing import rank1_xc3, xc3_map
from test_shared_values import MORPHISM_FILES, broken_f3, shipped  # noqa: F401


def kept(monkeypatch, module) -> list:
    """The `LinearHomotopy` of each decision that `module` makes, in order."""
    made = []

    class Kept(LinearHomotopy):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)
    monkeypatch.setattr(module, "LinearHomotopy", Kept)
    return made


@pytest.fixture
def decide(monkeypatch):
    """decide(f, g, shift=None) -> the `LinearHomotopy` of that decision."""
    made = kept(monkeypatch, xq.quadratic)

    def run(f, g, shift=None):
        rq_homotopy_decision(f, g, shift)
        return made[-1]
    return run


@pytest.fixture
def decide_xc3(monkeypatch):
    """decide_xc3(f, g) -> the `LinearHomotopy` of that decision."""
    made = kept(monkeypatch, xq.crossed)

    def run(f, g):
        xc3_homotopy_decision(f, g)
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


# -- crossed 3-complexes ---------------------------------------------------------

def assert_xc3_verdicts(decide_xc3, f, g, rng) -> int:
    """The verifier's verdict is the system's at every point; returns how
    many points the system holds at."""
    lin = decide_xc3(f, g)
    if not lin.blocks:
        # refuted in degree 1 or 2 before any unknown: no witness is accepted
        assert [c.check_id for c in lin.rep.failed()] in (["f1_equals_g1"],
                                                          ["degree2_solvable"])
        for _ in range(4):
            h = XC3Homotopy(tuple(f.target.m3.random_element(rng)
                                  for _ in range(f.source.m2.ngens)))
            assert not verify_xc3_homotopy(f, g, h).ok
        return 0
    held = 0
    for u in points(lin, rng):
        ok = holds(lin, u)
        assert verify_xc3_homotopy(f, g, XC3Homotopy(*lin.values(u))).ok == ok, u
        held += ok
    return held


def bound(pair_raw: dict, *maps: dict) -> list:
    """The morphisms with these maps between the sides of the pair file."""
    (kind, source), (_, target) = sf.build_structure(pair_raw).value
    return [sf.bind_maps(m, "$.body.maps", kind, source, target) for m in maps]


def test_the_bench_xc3_pairs(decide_xc3):
    """Homotopic, even and under pairs as the homotopy_pairs workload draws
    them: Z --x2--> Z --0--> Z with the morphisms (id, x -> m x, t -> m t),
    and x under the cofibration for the under pairs."""
    inputs, rng = output_manifest.bench_inputs(), random.Random(3701)
    k = inputs.XC3_K_BOUND

    def pair(under2, mf, mg):
        return bound(inputs._xc3_pair(under2), *(
            inputs._xc3_morphism(under2, m)["body"]["maps"] for m in (mf, mg)))
    held = 0
    for _ in range(4):
        held += assert_xc3_verdicts(decide_xc3, *pair(
            False, 1 + 2 * rng.randint(-k, k), 1 + 2 * rng.randint(-k, k)), rng)
        assert_xc3_verdicts(decide_xc3, *pair(
            False, 1 + 2 * rng.randint(-k, k), 2 * rng.choice([-3, -1, 1, 2])), rng)
        held += assert_xc3_verdicts(decide_xc3, *pair(True, 1, 1), rng)
        assert_xc3_verdicts(decide_xc3, *pair(True, 1, 1 + 2 * rng.choice([-2, -1, 1, 3])), rng)
    assert held > 0


def test_the_manifest_complexes_with_swap_and_conjugation_actions(decide_xc3):
    """The crossed complexes of the output manifest: a swaps the generators
    of M2 = Z^2, and nil(2)<a, b> acts on itself by conjugation, so degree
    2 is compared as elements; their listed pairs and more morphisms."""
    rng, held = random.Random(3702), 0
    for name, side, maps, pairs in output_manifest.crossed_cases():
        raw = {"version": "1", "kind": "pair", "body": {"source": side, "target": side}}
        more = ([((p, q), (p + 2 * r, q + 2 * r)) for p, q, r in ((1, 0, -2), (0, 1, 3), (2, 5, 1))]
                if name == "swap" else [((1,), (k,)) for k in (-1, 0, 2)])
        for mf, mg in [(f, g) for f, g, _ in pairs] + more:
            held += assert_xc3_verdicts(decide_xc3, *bound(raw, maps(*mf), maps(*mg)), rng)
    assert held > 0


def test_rank1_complexes_with_negating_actions(decide_xc3):
    """Z --x2--> Z --0--> Z on which a acts by -1 in degrees 2 and 3
    (`test_check_firing.rank1_xc3`), with the morphisms multiplying by f1,
    f2 and f3."""
    x, rng = rank1_xc3(negate2=True, negate3=True), random.Random(3703)
    maps = [(1, 1, 1), (1, 3, 3), (1, -1, -1), (1, 2, 2), (3, 1, 1), (3, 5, 5)]
    held = sum(assert_xc3_verdicts(decide_xc3, xc3_map(x, *a), xc3_map(x, *b), rng)
               for a in maps for b in maps)
    assert held > 0


def torsion_complex(m2, m3, d3_images):
    """M1 = nil(2)<a>, d2 = 0 and trivial actions."""
    m1 = FreeNil2Group(1, names=("a",))
    return CrossedComplex3(m1, m2, m3, GroupHom.zero(m2, m1), GroupHom(m3, m2, d3_images),
                           GroupAction.trivial(m1, m2), GroupAction.trivial(m1, m3))


def test_a_degree3_map_that_is_no_homomorphism(decide_xc3):
    """M3 = Z^2/<(1, 1)> with d2 = d3 = 0, f = id and g3 with images (5, 0)
    and (0, 1), which does not kill (1, 1).  At the canonical generators,
    where the verifier reads g3, it agrees with f3, so the zero witness
    verifies; the decider once read g3's images, found -f3 + g3 != 0 there
    and said that no witness exists."""
    m2, m3 = FreeNil2Group(1, names=("x",)), FgAbelianGroup(2, [[1, 1]], names=("s", "t"))
    x = torsion_complex(m2, m3, [m2.identity()] * 2)
    f = XC3Morphism(x, x, GroupHom.identity(x.m1), GroupHom.identity(m2), GroupHom.identity(m3))
    g = XC3Morphism(x, x, f.f1, f.f2, GroupHom(m3, m3, [(5, 0), (0, 1)]))
    zero = XC3Homotopy((m3.identity(),))
    assert verify_xc3_homotopy(f, g, zero).ok
    witness, rep = xc3_homotopy_decision(f, g)
    assert rep.ok and witness.alpha == zero.alpha
    assert assert_xc3_verdicts(decide_xc3, f, g, random.Random(3704)) > 0


def test_a_degree2_map_that_is_no_homomorphism(decide_xc3):
    """The same fault in degree 2: M2 = Z^2/<(1, 1)>, d3(t) = (1, 0), and g2
    with images (5, 0) and (0, 1) agrees with f2 = id at the canonical
    generators but not at the images."""
    m2, m3 = FgAbelianGroup(2, [[1, 1]], names=("x", "y")), FreeAbelianGroup(1, names=("t",))
    x = torsion_complex(m2, m3, [(1, 0)])
    f = XC3Morphism(x, x, GroupHom.identity(x.m1), GroupHom.identity(m2), GroupHom.identity(m3))
    g = XC3Morphism(x, x, f.f1, GroupHom(m2, m2, [(5, 0), (0, 1)]), f.f3)
    zero = XC3Homotopy((m3.identity(),) * 2)
    assert verify_xc3_homotopy(f, g, zero).ok
    witness, rep = xc3_homotopy_decision(f, g)
    assert rep.ok and witness.alpha == zero.alpha
    assert assert_xc3_verdicts(decide_xc3, f, g, random.Random(3705)) > 0
