"""Every failure scan of the checkers fires on a corrupted input.

Each test breaks one condition of a small structure and pins the failed
check ids and their witness texts, so a change to how a scan records its
first failure cannot silently change what a report says.
"""

import random

from xq.crossed import (CrossedComplex3, GroupAction, PreCrossedModule,
                        XC3Homotopy, XC3Morphism, check_precrossed,
                        verify_xc3_homotopy, xc3_check, xc3_morphism_check)
from xq.groups import (FgAbelianGroup, FreeAbelianGroup, FreeGroup,
                       FreeNil2Group, GroupHom)
from xq.quadratic import (QCHomotopy, QCMorphism, QuadraticModule,
                          ReducedQuadraticComplex4, ReducedQuadraticModule,
                          UnderCofibration, qm_check, rqc4_check, rqm_check,
                          verify_rq_homotopy)


def failed(rep):
    return {c.check_id: c.witness for c in rep.failed()}


def negate(group):
    """The action table sending the single generator of `group` to its inverse."""
    return [[group.inv(group.gen(0))]]


# -- homomorphisms ----------------------------------------------------------------

def test_check_hom_fires_on_non_commuting_images_of_an_abelian_source():
    # Z^2 -> free nil(2) by s -> x, t -> y: t + s = s + t in Z^2, but
    # h(t) + h(s) = y + x != x + y = h(s) + h(t)
    src = FreeAbelianGroup(2, names=("s", "t"))
    tgt = FreeNil2Group(2, names=("x", "y"))
    h = GroupHom(src, tgt, tgt.generators())
    assert h.check_hom() == (False, "images of s and t do not commute in the target")
    rqm = ReducedQuadraticModule(tgt, src, ((src.identity(),) * 2,) * 2, h)
    assert failed(rqm_check(rqm, samples=0, seed=0))["d3_is_homomorphism"] == \
        "images of s and t do not commute in the target"


# -- reduced quadratic modules and complexes ---------------------------------

def doubling(omega_value=False, d4_hits_t=False, under=False):
    """Q2 = Z<x>, Q3 = Z<t>, d3(t) = 2x, Q4 = Z<s>; omega(x (x) x) is t when
    `omega_value`, else 0; d4(s) is t when `d4_hits_t`, else 0."""
    q2 = FreeNil2Group(1, names=("x",))
    q3 = FreeAbelianGroup(1, names=("t",))
    t = q3.gen(0)
    rqm = ReducedQuadraticModule(q2, q3, ((t if omega_value else q3.identity(),),),
                                 GroupHom(q3, q2, [q2.pow(q2.gen(0), 2)]))
    q4 = FreeAbelianGroup(1, names=("s",))
    d4 = GroupHom(q4, q3, [t]) if d4_hits_t else GroupHom.zero(q4, q3)
    c = ReducedQuadraticComplex4(rqm, q4, d4)
    if under:
        c.under = UnderCofibration(c, GroupHom.identity(q2), GroupHom.identity(q3),
                                   GroupHom.identity(q4))
    return c


def scale(c, u, w):
    return QCMorphism(c, c, GroupHom(c.q2, c.q2, [c.q2.pow(c.q2.gen(0), u)]),
                      GroupHom(c.q3, c.q3, [c.q3.pow(c.q3.gen(0), u)]),
                      GroupHom(c.q4, c.q4, [c.q4.pow(c.q4.gen(0), w)]))


def test_rqm_axioms_3_and_4_fire_on_a_nonzero_omega_over_a_boundary():
    rep = rqm_check(doubling(omega_value=True).rqm, samples=5, seed=0)
    assert failed(rep) == {
        "axiom2_d3_omega_is_commutator":
            "d3 omega({x} (x) {y}) != (x, y) at x=x, y=x",
        "axiom3_boundary_tensors_vanish":
            "omega({d3 p} (x) {x} + {x} (x) {d3 p}) != 0",
        "axiom4_q3_commutators": "(p, q) != omega({d3 p} (x) {d3 q})",
    }


def test_rqc4_d3_d4_zero_fires():
    rep = rqc4_check(doubling(d4_hits_t=True), samples=5, seed=0)
    assert failed(rep) == {"d3_d4_zero": "d3 d4 != 0 at generator s"}


def test_verify_rq_homotopy_degree2_fires():
    c = doubling()
    zero = QCHomotopy((c.q3.identity(),), (c.q4.identity(),))
    rep = verify_rq_homotopy(scale(c, 1, 0), scale(c, 3, 0), zero)
    assert failed(rep) == {
        "homotopy_degree2": "-f2 + g2 != d3' alpha2 at generator x",
        "homotopy_degree3": "-f3 + g3 != d4' alpha3 + alpha2 d3 at generator t",
    }


def test_verify_rq_homotopy_degree4_fires():
    c = doubling()
    zero = QCHomotopy((c.q3.identity(),), (c.q4.identity(),))
    rep = verify_rq_homotopy(scale(c, 1, 0), scale(c, 1, 1), zero)
    assert failed(rep) == {"homotopy_degree4": "-f4 + g4 != alpha3 d4 at generator s"}


def test_verify_rq_homotopy_alpha3_under_fires():
    c = doubling(under=True)
    f = scale(c, 1, 0)
    rep = verify_rq_homotopy(f, f, QCHomotopy((c.q3.identity(),), (c.q4.gen(0),)))
    assert failed(rep) == {"alpha3_vanishes_on_under": "alpha3 does not vanish on t"}


# -- quadratic modules over a pre-crossed base ---------------------------------

def rank1_qm(d_to_a=False, d3_to_x=False, omega_w=False, negate3=False, q2=None):
    """Q1 = Z<a>, Q2 = Z<x> (or `q2`), Q3 = Z<w>, trivial action on Q2.  The
    flags make d2(x) = a, d3(w) = x, omega(x (x) x) = w and w^a = -w; left
    off, each map is zero and the action on Q3 trivial."""
    q1 = FreeNil2Group(1, names=("a",))
    q2 = q2 or FreeNil2Group(1, names=("x",))
    q3 = FreeAbelianGroup(1, names=("w",))
    d = GroupHom(q2, q1, [q1.gen(0)] * q2.ngens) if d_to_a else GroupHom.zero(q2, q1)
    pre = PreCrossedModule(q1, q2, d, GroupAction.trivial(q1, q2))
    d3 = GroupHom(q3, q2, [q2.gen(0)]) if d3_to_x else GroupHom.zero(q3, q2)
    n = q2.ngens
    omega = tuple(tuple(q3.gen(0) if omega_w else q3.identity() for _ in range(n))
                  for _ in range(n))
    action3 = (GroupAction(q1, q3, table=negate(q3)) if negate3
               else GroupAction.trivial(q1, q3))
    return QuadraticModule(pre, q3, d3, omega, action3)


def test_qm_axiom1_nil2_fires_over_a_free_group():
    rep = qm_check(rank1_qm(q2=FreeGroup(2, names=("x", "y"))), samples=20, seed=0)
    assert failed(rep)["axiom1_nil2"] == "<<x,y>,z> does not vanish"


def test_qm_omega_well_defined_fires_on_a_torsion_c():
    rep = qm_check(rank1_qm(q2=FgAbelianGroup(1, [[2]], names=("x",)), omega_w=True),
                   samples=5, seed=0)
    assert failed(rep)["omega_well_defined_on_C"] == \
        "omega does not kill the C-relation [2]"


def test_qm_d2_d3_zero_fires():
    rep = qm_check(rank1_qm(d_to_a=True, d3_to_x=True), samples=5, seed=0)
    assert failed(rep) == {"d2_d3_zero": "d2 d3 != 0"}


def test_qm_axioms_3_and_4_fire_on_a_nonzero_omega_over_a_boundary():
    rep = qm_check(rank1_qm(d3_to_x=True, omega_w=True), samples=5, seed=0)
    assert failed(rep) == {
        "axiom2_d3_omega_is_w": "d3 omega != w (Peiffer lift)",
        "axiom3_action_formula":
            "q^{d2 x} != q + omega({d3 q}(x){x} + {x}(x){d3 q})",
        "axiom4_q3_commutators": "(p, q) != omega({d3 p} (x) {d3 q})",
    }


def test_qm_d3_equivariant_fires():
    rep = qm_check(rank1_qm(d3_to_x=True, negate3=True), samples=5, seed=0)
    assert failed(rep) == {"d3_equivariant": "d3 not equivariant"}


def test_qm_omega_equivariant_fires():
    rep = qm_check(rank1_qm(omega_w=True, negate3=True), samples=5, seed=0)
    assert failed(rep) == {"omega_equivariant": "omega not equivariant"}


# -- pre-crossed modules and group actions ----------------------------------------

def test_precrossed_equivariance_fires():
    m1 = FreeAbelianGroup(1, names=("a",))
    m2 = FreeAbelianGroup(1, names=("x",))
    m = PreCrossedModule(m1, m2, GroupHom(m2, m1, [m1.gen(0)]),
                         GroupAction(m1, m2, table=negate(m2)))
    rep = check_precrossed(m, samples=5, seed=0)
    assert failed(rep) == {"equivariance": "d(x^m) != -m + d(x) + m at x=x, m=a"}


def test_action_endos_are_homs_fires():
    # x0 has order 2 but its image x1 does not
    acting = FreeAbelianGroup(1, names=("a",))
    acted = FgAbelianGroup(2, [[2, 0]], names=("x0", "x1"))
    action = GroupAction(acting, acted, table=[[acted.gen(1)], [acted.gen(1)]])
    rep = action.check(random.Random(0), 0)
    assert failed(rep) == {"action_endos_are_homs":
                           "generator a: relation [2, 0] maps to a non-identity element"}


def test_action_without_inverse_fails_when_sampled():
    # the endomorphism of a is not invertible, so -a does not act
    acting = FreeAbelianGroup(1, names=("a",))
    acted = FgAbelianGroup(2, [[2, 0]], names=("x0", "x1"))
    action = GroupAction(acting, acted, table=[[acted.gen(1)], [acted.gen(1)]])
    rep = action.check(random.Random(0), 5)
    assert failed(rep) == {
        "action_endos_are_homs": "generator a: relation [2, 0] maps to a non-identity element",
        "action_axioms_sampled": "action of -a is not available: endomorphism is not invertible"}


# -- crossed 3-complexes, their morphisms and homotopies ---------------------------

def rank1_xc3(d2_to_a=False, d3_double=True, negate2=False, negate3=False,
              under2=(), under3=()):
    """M1 = Z<a>, M2 = Z<x>, M3 = Z<t>.  The flags make d2(x) = a, d3(t) = 2x
    (else 0), x^a = -x and t^a = -t; left off, each action is trivial."""
    m1 = FreeNil2Group(1, names=("a",))
    m2 = FreeNil2Group(1, names=("x",))
    m3 = FreeAbelianGroup(1, names=("t",))
    d2 = GroupHom(m2, m1, [m1.gen(0)]) if d2_to_a else GroupHom.zero(m2, m1)
    d3 = GroupHom(m3, m2, [m2.pow(m2.gen(0), 2)]) if d3_double else GroupHom.zero(m3, m2)
    act2 = GroupAction(m1, m2, table=negate(m2)) if negate2 else GroupAction.trivial(m1, m2)
    act3 = GroupAction(m1, m3, table=negate(m3)) if negate3 else GroupAction.trivial(m1, m3)
    return CrossedComplex3(m1, m2, m3, d2, d3, act2, act3, under2, under3)


def xc3_map(x, f1=1, f2=1, f3=1):
    """Multiplication by f1, f2, f3 in degrees 1, 2, 3."""
    return XC3Morphism(x, x, GroupHom(x.m1, x.m1, [x.m1.pow(x.m1.gen(0), f1)]),
                       GroupHom(x.m2, x.m2, [x.m2.pow(x.m2.gen(0), f2)]),
                       GroupHom(x.m3, x.m3, [x.m3.pow(x.m3.gen(0), f3)]))


def test_xc3_d2_d3_zero_fires():
    rep = xc3_check(rank1_xc3(d2_to_a=True), samples=5, seed=0)
    assert failed(rep) == {"d2_d3_zero": "d2 d3 != 0 at t"}


def test_xc3_im_d2_acts_trivially_fires():
    rep = xc3_check(rank1_xc3(d2_to_a=True, d3_double=False, negate3=True),
                    samples=5, seed=0)
    assert failed(rep) == {"im_d2_acts_trivially_on_m3": "im(d2) moves t"}


def test_xc3_d3_equivariant_fires():
    rep = xc3_check(rank1_xc3(negate3=True), samples=5, seed=0)
    assert failed(rep) == {"d3_equivariant": "d3 not equivariant at t"}


def test_xc3_morphism_square_d2_fires():
    x = rank1_xc3(d2_to_a=True, d3_double=False)
    rep = xc3_morphism_check(xc3_map(x, f2=2), samples=5, seed=0)
    assert failed(rep) == {"square_d2": "f1 d2 != d2' f2 at x"}


def test_xc3_morphism_equivariance_fires():
    x = rank1_xc3(d3_double=False, negate2=True, negate3=True)
    rep = xc3_morphism_check(xc3_map(x, f1=0), samples=5, seed=0)
    assert failed(rep) == {"f2_equivariant": "f2 not equivariant",
                           "f3_equivariant": "f3 not equivariant"}


def test_xc3_morphism_under_checks_fire():
    m2 = FreeNil2Group(1, names=("x",))
    m3 = FreeAbelianGroup(1, names=("t",))
    x = rank1_xc3(under2=(m2.gen(0),), under3=(m3.gen(0),))
    rep = xc3_morphism_check(xc3_map(x, f2=3, f3=3), samples=5, seed=0)
    assert failed(rep) == {"under_degree2": "f2 moves under generator x",
                           "under_degree3": "f3 moves under generator t"}


def test_verify_xc3_alpha_under_fires():
    x = rank1_xc3(under2=(FreeNil2Group(1, names=("x",)).gen(0),))
    f = xc3_map(x)
    rep = verify_xc3_homotopy(f, f, XC3Homotopy((x.m3.gen(0),)))
    assert failed(rep) == {
        "degree2_equation": "-f2 + g2 != d3' alpha at generator x",
        "degree3_equation": "-f3 + g3 != alpha d3 at generator t",
        "alpha_vanishes_on_under": "alpha does not vanish on x",
    }


def test_verify_xc3_alpha_equivariant_fires():
    x = rank1_xc3(d3_double=False, negate3=True)
    f = xc3_map(x)
    rep = verify_xc3_homotopy(f, f, XC3Homotopy((x.m3.gen(0),)))
    assert failed(rep) == {"alpha_equivariant": "alpha not f1-equivariant"}
