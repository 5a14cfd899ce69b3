import random

import pytest

from xq.crossed import GroupAction, PreCrossedModule
from xq.groups import (FgAbelianGroup, FreeAbelianGroup, FreeGroup,
                       FreeNil2Group, GroupHom)
from xq.quadratic import (QCHomotopy, QCMorphism, QuadraticModule,
                          ReducedQuadraticComplex4, ReducedQuadraticModule,
                          alpha2_extend, qcm_check, qm_check, rq_homotopic,
                          rq_homotopy_decision, rqc4_check, rqm_check,
                          verify_rq_homotopy)
from xq.quadratic import complex_from_rqm
from xq.sphere import (build_cylinder_Q, build_sphere_D, derive_reduced_q3,
                       retraction_candidate)
from xq.tensor import TensorElement


def doubling_complex():
    """Q2 = Z<x>, Q3 = Z<t>, d3(t) = 2x, omega = 0, Q4 = Z<s>, d4 = 0."""
    q2 = FreeNil2Group(1, names=("x",))
    q3 = FreeAbelianGroup(1, names=("t",))
    d3 = GroupHom(q3, q2, [q2.pow(q2.gen(0), 2)])
    rqm = ReducedQuadraticModule(q2, q3, ((q3.identity(),),), d3)
    q4 = FreeAbelianGroup(1, names=("s",))
    return ReducedQuadraticComplex4(rqm, q4, GroupHom.zero(q4, q3),
                                    name="doubling complex")


def scale_qcm(c, u, w):
    """(x -> ux, t -> ut, s -> ws) is a morphism of the doubling complex."""
    return QCMorphism(c, c,
                      GroupHom(c.q2, c.q2, [c.q2.pow(c.q2.gen(0), u)]),
                      GroupHom(c.q3, c.q3, [c.q3.pow(c.q3.gen(0), u)]),
                      GroupHom(c.q4, c.q4, [c.q4.pow(c.q4.gen(0), w)]),
                      tag=(u, w))


def test_doubling_complex_is_valid():
    rep = rqc4_check(doubling_complex())
    assert rep.ok, rep.text()


def test_rqm_axiom2_failure_has_witness():
    # omega = 0 on a rank-2 nil(2) group cannot hit the commutators
    q2 = FreeNil2Group(2)
    q3 = FreeAbelianGroup(1)
    zero = q3.identity()
    rqm = ReducedQuadraticModule(q2, q3, ((zero, zero), (zero, zero)),
                                 GroupHom.zero(q3, q2))
    rep = rqm_check(rqm)
    assert not rep.ok
    failed = {c.check_id for c in rep.failed()}
    assert "axiom2_d3_omega_is_commutator" in failed


def test_omega_values_must_be_canonical_elements_of_q3():
    q2 = FreeNil2Group(1)
    z2 = FgAbelianGroup(1, [[2]])
    d3 = GroupHom.zero(z2, q2)
    assert ReducedQuadraticModule(q2, z2, (((1,),),), d3).omega == (((1,),),)
    for bad, why in (((2,), "canonical in Q3"), ((1, 0), "length")):
        with pytest.raises(ValueError, match=why):
            ReducedQuadraticModule(q2, z2, ((bad,),), d3)
    qm = free_truncated_qm()
    with pytest.raises(ValueError, match="length"):
        QuadraticModule(qm.pre, qm.q3, qm.d3, (((0, 0),) * 2,) * 2, qm.action3)


def test_qcm_check_catches_broken_squares():
    c = doubling_complex()
    assert qcm_check(scale_qcm(c, 3, 5)).ok
    bad = QCMorphism(c, c,
                     GroupHom(c.q2, c.q2, [c.q2.pow(c.q2.gen(0), 2)]),
                     GroupHom(c.q3, c.q3, [c.q3.gen(0)]),
                     GroupHom.identity(c.q4))
    rep = qcm_check(bad)
    assert not rep.ok
    assert any(c_.check_id == "square_d3" for c_ in rep.failed())


def test_rq_homotopy_linear_route_parity():
    c = doubling_complex()
    f = scale_qcm(c, 1, 0)
    for u in (3, -1, 5):
        g = scale_qcm(c, u, 0)
        h, rep = rq_homotopy_decision(f, g)
        assert h is not None, rep.text()
        # unique witness: alpha2(x) = ((u - 1) / 2) t
        assert c.q3.eq(h.alpha2[0], c.q3.pow(c.q3.gen(0), (u - 1) // 2))
        assert verify_rq_homotopy(f, g, h).ok
    # parity obstruction
    h, rep = rq_homotopy_decision(f, scale_qcm(c, 2, 0))
    assert h is None and not rep.ok
    # degree-4 component must match exactly (alpha3 d4 = 0 here)
    h, rep = rq_homotopy_decision(f, scale_qcm(c, 1, 1))
    assert h is None and not rep.ok


def test_rq_homotopy_reflexive_witness_is_zero():
    c = doubling_complex()
    f = scale_qcm(c, 3, 2)
    h, _ = rq_homotopy_decision(f, f)
    assert h is not None
    assert c.q3.is_identity(h.alpha2[0])
    assert c.q4.is_identity(h.alpha3[0])


def test_d3_zero_short_circuit_message():
    d = build_sphere_D()
    q = build_cylinder_Q(d)
    f = retraction_candidate(q, d, 1, 0, 0)
    g = retraction_candidate(q, d, 0, 1, 0)
    h, rep = rq_homotopy_decision(f, g)
    assert h is None
    assert rep.obstructions
    reason = rep.obstructions[0]["reason"]
    assert "d3 = 0 in the target forces f2 = g2" in reason
    assert "e'" in reason


def test_alpha2_extension_rule():
    d = build_sphere_D()
    q = build_cylinder_Q(d)
    f = retraction_candidate(q, d, 1, 0, 0)
    g = retraction_candidate(q, d, 1, 0, 1)
    h = rq_homotopic(f, g)
    assert h is not None
    src2, tgt = q.q2, d
    rng = random.Random(5)
    omega_p = tgt.omega_apply
    for _ in range(200):
        x = src2.random_element(rng)
        y = src2.random_element(rng)
        ax = alpha2_extend(h.alpha2, f, g, x)
        ay = alpha2_extend(h.alpha2, f, g, y)
        axy = alpha2_extend(h.alpha2, f, g, src2.op(x, y))
        dvec = [b - a for a, b in zip(tgt.q2.ab(f.f2(x)), tgt.q2.ab(g.f2(x)))]
        corr = omega_p(TensorElement.outer(dvec, tgt.q2.ab(f.f2(y))))
        assert tgt.q3.eq(axy, tgt.q3.op_all(ax, ay, corr))
        # inversion rule
        ainv = alpha2_extend(h.alpha2, f, g, src2.inv(x))
        corr_inv = omega_p(TensorElement.outer(dvec, tgt.q2.ab(f.f2(x))))
        assert tgt.q3.eq(ainv, tgt.q3.op(tgt.q3.inv(ax), corr_inv))


def test_verify_rejects_wrong_witness():
    d = build_sphere_D()
    q = build_cylinder_Q(d)
    f = retraction_candidate(q, d, 1, 0, 0)
    g = retraction_candidate(q, d, 1, 0, 1)
    wrong = QCHomotopy((d.q3.gen(0), d.q3.identity(), d.q3.identity()),
                       tuple(d.q4.identity() for _ in range(q.q3.ngens)))
    rep = verify_rq_homotopy(f, g, wrong)
    assert not rep.ok


def free_truncated_qm():
    """The free quadratic module on a rank-2 nil(2) group with zero boundary:
    omega sends the C-basis tensors to lifts of the commutators."""
    q2 = FreeNil2Group(2)
    q1 = FreeNil2Group(1, names=("a",))
    pre = PreCrossedModule(q1, q2, GroupHom.zero(q2, q1),
                           GroupAction.trivial(q1, q2))
    q3 = FreeAbelianGroup(1, names=("w",))
    w = q3.gen(0)
    zero = q3.identity()
    d3 = GroupHom(q3, q2, [q2.commutator(q2.gen(0), q2.gen(1))])
    omega = ((zero, w), (q3.inv(w), zero))
    action3 = GroupAction.trivial(q1, q3)
    return QuadraticModule(pre, q3, d3, omega, action3)


def test_quadratic_module_checks():
    qm = free_truncated_qm()
    rep = qm_check(qm, samples=150, seed=1)
    assert rep.ok, rep.text()


def test_quadratic_module_axiom2_failure():
    qm = free_truncated_qm()
    w = qm.q3.gen(0)
    zero = qm.q3.identity()
    broken = QuadraticModule(qm.pre, qm.q3, qm.d3,
                             ((zero, w), (w, zero)), qm.action3)
    rep = qm_check(broken, samples=150, seed=1)
    assert not rep.ok
    assert any("axiom2" in c.check_id for c in rep.failed())


def test_qcm_check_report_lists_every_check_in_order():
    d = build_sphere_D()
    q = build_cylinder_Q(d)
    rep = qcm_check(retraction_candidate(q, d, 1, 1, 0))
    assert [(c.check_id, c.passed, c.witness) for c in rep.checks] == [
        ("f2_is_homomorphism", True, None),
        ("f3_is_homomorphism", False,
         "relation [0, 1, -1, -1, -1, 1, 1, -1, 1, 1] maps to a non-identity element"),
        ("f4_is_homomorphism", True, None),
        ("square_d3", False, "f2 d3 != d3' f3 at generator e3"),
        ("square_d4", False, "f3 d4 != d4' f4 at generator e4"),
        ("square_omega", False,
         "f3 omega != omega' (f2^ab (x) f2^ab) at basis (0,0)"),
        ("under_degree2", True, None),
        ("under_degree3", False,
         "f does not commute with the cofibration in degree 3"),
        ("under_degree4", True, None),
    ]


def test_rqm_axiom1_stops_at_first_failing_triple():
    q2 = FreeGroup(2)
    q3 = FgAbelianGroup(0)
    rqm = ReducedQuadraticModule(q2, q3, ((q3.identity(),) * 2,) * 2,
                                 GroupHom.zero(q3, q2))
    calls = []
    commutator = q2.commutator
    q2.commutator = lambda x, y: calls.append(1) or commutator(x, y)
    at_next_check = []
    check_hom = rqm.d3.check_hom
    rqm.d3.check_hom = lambda *a: at_next_check.append(len(calls)) or check_hom(*a)
    rep = rqm_check(rqm)
    failed = {c.check_id: c.witness for c in rep.failed()}
    assert failed["axiom1_q2_nil2"] == "triple commutator of generators does not vanish"
    # (x, y, z) = (g0, g0, g0), (g0, g0, g1) vanish; (g0, g1, g0) is the first
    # failure, two commutators each
    assert at_next_check == [6]


def test_q4_abelian_names_the_first_non_commuting_pair():
    d = build_sphere_D()
    q4 = FreeGroup(2, names=("k", "l"))
    c = ReducedQuadraticComplex4(d.rqm, q4, GroupHom.zero(q4, d.q3))
    rep = rqc4_check(c)
    failed = {c_.check_id: c_.witness for c_ in rep.failed()}
    assert failed == {"q4_abelian": "generators k and l do not commute"}


def test_omega_well_defined_names_the_first_failing_relation():
    # omega is injective, so it kills neither relation row of Z/2 + Z/2
    q2 = FgAbelianGroup(2, [[2, 0], [0, 2]], names=("x", "y"))
    q3 = FreeAbelianGroup(4)
    omega = tuple(tuple(q3.gen(2 * i + j) for j in range(2)) for i in range(2))
    rqm = ReducedQuadraticModule(q2, q3, omega, GroupHom.zero(q3, q2))
    rep = rqm_check(rqm)
    failed = {c.check_id: c.witness for c in rep.failed()}
    assert failed["omega_well_defined_on_C"] == \
        "omega does not kill the relation [2, 0]"


def central_boundary_complex():
    """Q2 free nil(2) on x, y; Q3 = Z^4 on the omega symbols with d3 the
    commutator map, so d3 is non-zero with central values; Q4 = 0."""
    q2 = FreeNil2Group(2, names=("x", "y"))
    rels, boundaries = derive_reduced_q3(q2, [])
    q3 = FgAbelianGroup(4, rels, names=[f"w({a},{b})" for a in "xy" for b in "xy"])
    omega = tuple(tuple(q3.gen(2 * i + j) for j in range(2)) for i in range(2))
    return complex_from_rqm(ReducedQuadraticModule(q2, q3, omega,
                                                   GroupHom(q3, q2, boundaries)))


def central_qcm(c, images):
    """The morphism with f2 given on x, y and f3 forced by omega."""
    f3 = [c.omega_apply(TensorElement.outer(c.braces(images[i]), c.braces(images[j])))
          for i in range(2) for j in range(2)]
    return QCMorphism(c, c, GroupHom(c.q2, c.q2, images),
                      GroupHom(c.q3, c.q3, f3), GroupHom.identity(c.q4))


def test_rq_homotopy_with_central_nonzero_d3():
    c = central_boundary_complex()
    assert rqc4_check(c).ok
    q2 = c.q2
    x, y = q2.generators()
    xy = q2.commutator(x, y)
    f = central_qcm(c, [x, y])
    # central shifts in degree 2 are boundaries: a witness exists
    for images in ([q2.op(x, xy), y], [x, q2.op(y, q2.pow(xy, 3))]):
        g = central_qcm(c, images)
        assert qcm_check(g).ok
        h, rep = rq_homotopy_decision(f, g)
        assert h is not None, rep.text()
        assert rep.meta["method"] == "linear"
        assert verify_rq_homotopy(f, g, h).ok
    # x -> x + y differs from the identity by y, which is not central
    g = central_qcm(c, [q2.op(x, y), y])
    assert qcm_check(g).ok
    h, rep = rq_homotopy_decision(f, g)
    assert h is None
    assert [(c_.check_id, c_.witness) for c_ in rep.failed()] == [
        ("degree2_solvable",
         "-f2 + g2 is not central at generator x, but every d3' value is central")]


def test_rq_homotopy_with_noncentral_d3_is_unsupported():
    q = build_cylinder_Q(build_sphere_D())
    ident = QCMorphism(q, q, GroupHom.identity(q.q2), GroupHom.identity(q.q3),
                       GroupHom.identity(q.q4))
    with pytest.raises(ValueError, match="not central at generator e3"):
        rq_homotopy_decision(ident, ident)


def nonabelian_omega_module():
    """Q2 free nil(2) on x, y and Q3 free nil(2) of rank 3, omega sending
    the four basis tensors to elements that do not commute, d3 = 0: sums of
    omega values then depend on their order."""
    q2, q3 = FreeNil2Group(2, names=("x", "y")), FreeNil2Group(3)
    g = q3.generators()
    omega = ((g[0], q3.op(g[1], g[2])), (q3.op(g[2], g[0]), q3.inv(g[1])))
    return ReducedQuadraticModule(q2, q3, omega, GroupHom.zero(q3, q2))


@pytest.mark.parametrize("name", ["D", "Q", "nonabelian"])
def test_omega_outer_is_omega_of_the_outer_tensor(sphere_d, cylinder_q, name):
    q = {"D": sphere_d.rqm, "Q": cylinder_q.rqm,
         "nonabelian": nonabelian_omega_module()}[name]
    assert q.q3.is_abelian == (name != "nonabelian")
    n, rng = q.q2.ngens, random.Random(41)
    for _ in range(100):
        u, v = ([rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n)]
                for _ in range(2))
        assert q.omega_outer(u, v) == q.omega_apply(TensorElement.outer(u, v)), (u, v)
    for u, v in (((1,) * n, (1,) * (n + 1)), ((1,) * (n + 1), (1,) * (n + 1))):
        with pytest.raises(ValueError) as want:
            q.omega_apply(TensorElement.outer(u, v))
        with pytest.raises(ValueError, match=str(want.value)):
            q.omega_outer(u, v)
