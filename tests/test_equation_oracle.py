"""`qcm_check` and `verify_rq_homotopy`, which decide equations in abelian
groups from coordinate tables, against the element-by-element scans of
`equation_oracle.py`: the same checks, verdicts and first-failure
witnesses, on passing and perturbed morphisms and witnesses."""

import random

import pytest

from equation_oracle import scan_qcm_check, scan_verify_rq_homotopy
from test_enumeration import doubling_target
from test_shared_values import identity_morphism, twisted_identity
from xq.groups import CyclicGroup, FreeAbelianGroup, FreeNil2Group, GroupHom
from xq.quadratic import (CoordinateEquations, QCHomotopy, QCMorphism,
                          ReducedQuadraticComplex4, ReducedQuadraticModule, qcm_check,
                          qcm_equations, rq_homotopy_decision, verify_rq_homotopy)
from xq.sphere import retraction_candidate


def checks(rep):
    return [c.to_json() for c in rep.checks]


def assert_morphism_matches(m):
    got = checks(qcm_check(m))
    assert got == checks(scan_qcm_check(m))
    return got


def assert_witness_matches(f, g, h):
    got = checks(verify_rq_homotopy(f, g, h))
    assert got == checks(scan_verify_rq_homotopy(f, g, h))
    return got


def failed(got):
    return [c["id"] for c in got if not c["passed"]]


def torsion_target():
    """T2 = Z, T3 = Z/4 with d3'(t) = x, which kills no multiple of the
    relation 4t but the zero one, omega' = 0, T4 = Z with d4' = 0.  d3' is
    not a homomorphism, so a value of f3 must be reduced modulo 4 before
    d3' reads it, as evaluating d3' on the element does."""
    t2, t3, t4 = FreeAbelianGroup(1, names=("x",)), CyclicGroup(4, names=("t",)), \
        FreeAbelianGroup(1, names=("u",))
    rqm = ReducedQuadraticModule(t2, t3, ((t3.identity(),),), GroupHom(t3, t2, [t2.gen(0)]))
    return ReducedQuadraticComplex4(rqm, t4, GroupHom.zero(t4, t3), name="torsion target")


def nonabelian_degree3_target():
    """T2 = Z, T3 free nil(2) on s, t with d3'(s) = x, d3'(t) = 2x and
    omega' = s, T4 = Z with d4'(u) = (s, t): square d3 and homotopy degree 2
    are decided in coordinates of T2 from values in a group that is not
    abelian, and the degree-3 checks compare elements."""
    t2, t3, t4 = FreeAbelianGroup(1, names=("x",)), FreeNil2Group(2, names=("s", "t")), \
        FreeAbelianGroup(1, names=("u",))
    rqm = ReducedQuadraticModule(t2, t3, ((t3.gen(0),),),
                                 GroupHom(t3, t2, [t2.gen(0), t2.pow(t2.gen(0), 2)]))
    return ReducedQuadraticComplex4(rqm, t4, GroupHom(t4, t3, [t3.commutator(t3.gen(0),
                                                                             t3.gen(1))]))


def random_morphism(q, target, rng, size=5):
    def element(grp):
        return grp.fold((x, rng.randint(-size, size)) for x in grp.generators())
    return QCMorphism(q, target, GroupHom(q.q2, target.q2, [element(target.q2) for _ in range(3)]),
                      GroupHom(q.q3, target.q3, [element(target.q3) for _ in range(q.q3.ngens)]),
                      GroupHom(q.q4, target.q4, [element(target.q4) for _ in range(q.q4.ngens)]))


def perturbed(m, degree, i, by):
    """m with `by` added to image i of its degree map."""
    maps = {k: getattr(m, k) for k in ("f2", "f3", "f4")}
    h = maps[f"f{degree}"]
    maps[f"f{degree}"] = h.with_image(i, h.target.op(h.images[i], by))
    return QCMorphism(m.source, m.target, **maps, tag=m.tag)


def perturbations(m, rng):
    """m with one f2, f3 or f4 image moved by a generator multiple."""
    out = []
    for degree in (2, 3, 4):
        h = getattr(m, f"f{degree}")
        if not h.images or not h.target.ngens:
            continue
        i = rng.randrange(len(h.images))
        by = h.target.pow(h.target.gen(rng.randrange(h.target.ngens)), rng.choice((-2, -1, 1, 3)))
        out.append(perturbed(m, degree, i, by))
    return out


def test_retractions_and_perturbed_candidates_match_the_scan(cylinder_q, sphere_d):
    rng = random.Random(7)
    fired = set()
    for a, b, r in [(0, 1, 0), (1, 0, 5), (1, 0, -3), (2, 2, 1), (-1, 2, 0), (3, -2, 4)]:
        m = retraction_candidate(cylinder_q, sphere_d, a, b, r)
        got = assert_morphism_matches(m)
        assert (failed(got) == []) == ((a, b) in ((0, 1), (1, 0)))
        for _ in range(6):
            for p in perturbations(m, rng):
                fired.update(failed(assert_morphism_matches(p)))
    assert {"f3_is_homomorphism", "square_d3", "square_omega", "under_degree2",
            "under_degree3"} <= fired


@pytest.mark.parametrize("target_name", ["sphere", "doubling_z6", "torsion", "cylinder",
                                         "nonabelian3"])
def test_random_morphisms_match_the_scan(cylinder_q, sphere_d, target_name):
    target = {"sphere": sphere_d, "doubling_z6": doubling_target(CyclicGroup(6)),
              "torsion": torsion_target(), "cylinder": cylinder_q,
              "nonabelian3": nonabelian_degree3_target()}[target_name]
    rng = random.Random(target_name)
    morphisms = [random_morphism(cylinder_q, target, rng) for _ in range(40)]
    if target is cylinder_q:
        morphisms += [identity_morphism(cylinder_q)] * 10
    witnesses = set()
    for m in morphisms:
        for p in [m] + perturbations(m, rng):
            witnesses.add(tuple(c.get("witness") for c in assert_morphism_matches(p)))
    assert len(witnesses) > 1


def test_torsion_differences_that_vanish_modulo_the_relations_pass(cylinder_q):
    """Z/6 doubling target: square d3 at e3 reads (a + b - 1 - 2r) x = 0,
    so at (4, 3, 0) its coordinate difference is 6, which is not 0 but is
    0 in Z/6."""
    target = doubling_target(CyclicGroup(6))
    m = retraction_candidate(cylinder_q, target, 4, 3, 0)
    square_d3 = next(eqs for check_id, _, _, eqs in qcm_equations(m) if check_id == "square_d3")
    assert isinstance(square_d3, CoordinateEquations)
    assert square_d3.columns()[0] in ((6,), (-6,))
    assert list(square_d3.failures()) == []
    got = assert_morphism_matches(m)
    assert "square_d3" not in failed(got)
    # one more step of r is -2 in Z/6, which fails at e3
    got = assert_morphism_matches(retraction_candidate(cylinder_q, target, 4, 3, 1))
    assert [c["witness"] for c in got if c["id"] == "square_d3"] == \
        ["f2 d3 != d3' f3 at generator e3"]


def test_torsion_values_are_reduced_before_the_boundary_reads_them(cylinder_q):
    """f3 sends w(e',e') and w(e'',e'') to 2t and the rest to 0.  The Q3
    generator w(e,e) is canonically w(e',e') + w(e',e'') + w(e'',e') +
    w(e'',e''), so f3 there is 4t = 0 in Z/4, and d3' reads 0 there: the
    first failure of square d3 is at w(e',e'), not at w(e,e), where d3'
    would read 4x without the reduction."""
    q, target = cylinder_q, torsion_target()
    t2, t3 = target.q2, target.q3
    images = [t3.identity()] * q.q3.ngens
    images[5] = images[9] = t3.canon((2,))
    m = QCMorphism(q, target, GroupHom.zero(q.q2, t2), GroupHom(q.q3, t3, images),
                   GroupHom.zero(q.q4, target.q4))
    assert m.f3.at_generator(1) == t3.identity()
    got = assert_morphism_matches(m)
    assert [c["witness"] for c in got if c["id"] == "square_d3"] == \
        ["f2 d3 != d3' f3 at generator w(e',e')"]


def test_cofibration_of_q_and_its_perturbations_match_the_scan(cylinder_q):
    q = cylinder_q
    under = q.under
    cof = QCMorphism(under.base, q, under.q2, under.q3, under.q4)
    assert failed(assert_morphism_matches(cof)) == []
    fired = set()
    for degree, by in ((2, q.q2.gen(1)), (3, q.q3.gen(0)), (3, q.q3.gen(4))):
        fired.update(failed(assert_morphism_matches(perturbed(cof, degree, 0, by))))
    assert {"under_degree2", "under_degree3", "square_omega"} <= fired


def homotopies(cylinder_q, sphere_d):
    """(f, g, witness, passes): retraction pairs into D and the identity of
    Q with their witnesses, and the identity and twisted identity of Q with
    the zero witness, which fails but gives alpha2 corrections to read."""
    out = []
    for (a, b), rs in (((1, 0), (0, 3)), ((0, 1), (-2, 5))):
        f, g = (retraction_candidate(cylinder_q, sphere_d, a, b, r) for r in rs)
        h, _ = rq_homotopy_decision(f, g)
        out.append((f, g, h, True))
    q = cylinder_q
    zero = QCHomotopy((q.q3.identity(),) * q.q2.ngens, (q.q4.identity(),) * q.q3.ngens)
    ident = identity_morphism(q)
    out.append((ident, ident, zero, True))
    out.append((ident, twisted_identity(q), zero, False))
    return out


def mutations(h, q3, q4, rng):
    """h with one alpha2 or alpha3 value moved, once at every generator and
    then at random ones."""
    slots = [(2, i) for i in range(len(h.alpha2))] + [(3, i) for i in range(len(h.alpha3))]
    slots += [rng.choice(slots) for _ in range(12)]
    for degree, i in slots:
        values, grp = (list(h.alpha2), q3) if degree == 2 else (list(h.alpha3), q4)
        if not grp.ngens:
            continue
        by = grp.pow(grp.gen(rng.randrange(grp.ngens)), rng.choice((-1, 1, 2)))
        values[i] = grp.op(values[i], by)
        yield QCHomotopy(tuple(values), h.alpha3) if degree == 2 else \
            QCHomotopy(h.alpha2, tuple(values))


def test_homotopies_with_one_value_mutated_match_the_scan(cylinder_q, sphere_d):
    rng = random.Random(11)
    fired = set()
    for f, g, h, passes in homotopies(cylinder_q, sphere_d):
        assert (failed(assert_witness_matches(f, g, h)) == []) == passes
        for mutated in mutations(h, f.target.q3, f.target.q4, rng):
            fired.update(failed(assert_witness_matches(f, g, mutated)))
    assert {"alpha3_is_homomorphism", "homotopy_degree2", "homotopy_degree3",
            "homotopy_degree4", "alpha2_vanishes_on_under",
            "alpha3_vanishes_on_under"} <= fired


def test_random_witnesses_into_a_torsion_target_match_the_scan(cylinder_q):
    target = torsion_target()
    rng = random.Random(5)
    for _ in range(30):
        f, g = random_morphism(cylinder_q, target, rng), random_morphism(cylinder_q, target, rng)
        h = QCHomotopy(tuple(target.q3.canon((rng.randint(-5, 5),)) for _ in range(3)),
                       tuple(target.q4.canon((rng.randint(-5, 5),)) for _ in range(10)))
        assert_witness_matches(f, g, h)
        assert_witness_matches(f, f, QCHomotopy((target.q3.identity(),) * 3,
                                                (target.q4.identity(),) * 10))


def test_random_witnesses_into_a_non_abelian_degree_3_match_the_scan(cylinder_q):
    """omega' = s is not central in T3, so alpha2 has no closed form where
    f2 and g2 differ, and its checks fail with the `Undefined` message."""
    target = nonabelian_degree3_target()
    rng = random.Random(9)
    fired = set()
    for _ in range(30):
        f, g = random_morphism(cylinder_q, target, rng), random_morphism(cylinder_q, target, rng)
        for g in (f, g):
            h = QCHomotopy(tuple(target.q3.random_element(rng) for _ in range(3)),
                           tuple(target.q4.random_element(rng) for _ in range(10)))
            fired.update(c["witness"] for c in assert_witness_matches(f, g, h)
                         if not c["passed"] and "closed form" in c["witness"])
    assert fired


def test_a_non_abelian_target_degree_is_compared_as_elements(cylinder_q):
    """Into Q, degree 2 is free nil(2) of rank 3: its checks are element
    equations, the others coordinate equations."""
    kinds = {check_id: isinstance(eqs, CoordinateEquations)
             for check_id, h, _, eqs in qcm_equations(identity_morphism(cylinder_q)) if h is None}
    assert kinds == {"f3_is_homomorphism": True, "f4_is_homomorphism": True,
                     "square_d3": False, "square_d4": True, "square_omega": True,
                     "under_degree2": False, "under_degree3": True, "under_degree4": True}
    assert [check_id for check_id, h, _, _ in qcm_equations(identity_morphism(cylinder_q))
            if h is not None] == ["f2_is_homomorphism"]
