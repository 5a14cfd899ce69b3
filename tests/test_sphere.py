import pytest

import xq
from xq.quadratic import qcm_check, rq_homotopy_decision, rqc4_check
from xq.sphere import (classify_retractions, derive_reduced_q3,
                       enumerate_retractions, retraction_candidate,
                       solve_homology_constraints)


def test_structures_valid(sphere_d, cylinder_q):
    assert rqc4_check(sphere_d, samples=300, seed=0).ok
    assert rqc4_check(cylinder_q, samples=300, seed=0).ok


def test_sphere_d_shape(sphere_d):
    d = sphere_d
    assert d.q2.ngens == 1 and d.q2.is_nil2
    assert d.q3.ngens == 1 and d.q4.ngens == 0
    assert d.d3.is_zero()
    # omega is an isomorphism on the single basis tensor
    assert d.q3.eq(d.rqm.omega[0][0], d.q3.gen(0))
    # carries the identity cofibration so that retractions compose to id
    assert d.under is not None and d.under.base is d


def test_cylinder_q_relations_are_the_derived_ones(cylinder_q):
    rows, boundaries = derive_reduced_q3(
        cylinder_q.q2,
        [cylinder_q.q2.op_all(cylinder_q.q2.inv(cylinder_q.q2.gen(0)),
                              cylinder_q.q2.gen(1), cylinder_q.q2.gen(2))])
    assert rows == [
        [0, -2, 1, 1, 1, 0, 0, 1, 0, 0],
        [0, 0, -1, 0, -1, 2, 1, 0, 1, 0],
        [0, 0, 0, -1, 0, 0, 1, -1, 1, 2],
        [0, 1, -1, -1, -1, 1, 1, -1, 1, 1],
    ]
    # boundaries: the 3-cell then the commutator grid
    q2 = cylinder_q.q2
    assert q2.ab(boundaries[0]) == (-1, 1, 1)
    for i in range(3):
        for j in range(3):
            assert q2.eq(boundaries[1 + 3 * i + j],
                         q2.commutator(q2.gen(i), q2.gen(j)))
    # d4 attaches the symmetrized (e', e'') square
    e4 = cylinder_q.q4.gen(0)
    assert cylinder_q.q3.eq(cylinder_q.d4(e4),
                            cylinder_q.q3.op(cylinder_q.q3.gen(1 + 3 * 1 + 2),
                                             cylinder_q.q3.gen(1 + 3 * 2 + 1)))


def test_enumeration_finds_exactly_six(cylinder_q, sphere_d):
    ms = enumerate_retractions(cylinder_q, sphere_d, ab_range=2, r_bound=1)
    assert [m.tag for m in ms] == [
        (0, 1, -1), (0, 1, 0), (0, 1, 1),
        (1, 0, -1), (1, 0, 0), (1, 0, 1),
    ]
    for m in ms:
        assert qcm_check(m, samples=20, seed=0).ok


@pytest.mark.parametrize("a,b", [(1, 1), (0, 0), (2, 0), (-1, 1)])
def test_non_projection_candidates_are_rejected(cylinder_q, sphere_d, a, b):
    m = retraction_candidate(cylinder_q, sphere_d, a, b, 0)
    rep = qcm_check(m, samples=20, seed=0)
    assert not rep.ok
    failing = {c.check_id for c in rep.failed()}
    # the failure is structural: a homomorphism or square condition
    assert failing & {"f3_is_homomorphism", "square_d3", "square_d4",
                      "under_degree2", "under_degree3"}


def test_homology_constraints():
    sols, rep = solve_homology_constraints(5)
    assert rep.ok, rep.text()
    assert sols == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    # degree-4 obstruction k = 1 singles out the projection types
    assert sorted((a, b) for a, b, k in sols if k == 1) == [(0, 1), (1, 0)]


def test_classification_two_classes(cylinder_q, sphere_d):
    ms = enumerate_retractions(cylinder_q, sphere_d, ab_range=2, r_bound=1)
    classes = classify_retractions(ms)
    assert len(classes) == 2
    assert sorted(c.ab for c in classes) == [(0, 1), (1, 0)]
    for c in classes:
        assert c.representative.tag[2] == 0
        assert len(c.members) == 3


def test_classification_stable_under_larger_bounds(cylinder_q, sphere_d):
    for r_bound in (0, 2, 4):
        ms = enumerate_retractions(cylinder_q, sphere_d, ab_range=2,
                                   r_bound=r_bound)
        classes = classify_retractions(ms)
        assert sorted(c.ab for c in classes) == [(0, 1), (1, 0)]
        for c in classes:
            assert len(c.members) == 2 * r_bound + 1


@pytest.mark.parametrize("family,expect_index", [((1, 0), 1), ((0, 1), 2)])
def test_canonical_family_witnesses(cylinder_q, sphere_d, family, expect_index):
    a, b = family
    base = retraction_candidate(cylinder_q, sphere_d, a, b, 0)
    for r in (-3, -1, 1, 2):
        other = retraction_candidate(cylinder_q, sphere_d, a, b, r)
        h, rep = rq_homotopy_decision(base, other)
        assert h is not None, rep.text()
        # canonical witness: alpha2 supported on the generator the
        # retraction kills, with coefficient r
        for i in range(3):
            expected = sphere_d.q3.pow(sphere_d.q3.gen(0),
                                       r if i == expect_index else 0)
            assert sphere_d.q3.eq(h.alpha2[i], expected)
        assert all(sphere_d.q4.is_identity(x) for x in h.alpha3)
        assert xq.verify_rq_homotopy(base, other, h).ok


def test_classification_report_passes():
    rep = xq.classification_report(ab_range=2, r_bound=2)
    assert rep.ok, rep.text()
    assert rep.meta["count"] == 16
    assert sorted(tuple(c["ab"]) for c in rep.meta["classes"]) == [(0, 1), (1, 0)]
    assert rep.axioms  # topological inputs are declared, not computed
    assert rep.obstructions  # the cross-class obstruction is recorded


def test_count_assembly():
    rep = xq.assemble_selfmap_count()
    assert rep.ok, rep.text()
    assert rep.meta["count"] == 16
    assert rep.meta["per_factor"] == 4
    # unexpected class counts flag the derivation but still report a number
    rep3 = xq.assemble_selfmap_count(orbit_count=3)
    assert not rep3.ok
    assert rep3.meta["count"] == 36
    assert any(c.check_id == "orbit_count_is_2" for c in rep3.failed())


def test_classification_keeps_each_members_witness(cylinder_q, sphere_d):
    ms = enumerate_retractions(cylinder_q, sphere_d, ab_range=2, r_bound=2)
    for c in classify_retractions(ms):
        assert [m.tag[2] for m in c.members] == [-2, -1, 0, 1, 2]
        for m, h in zip(c.members, c.witnesses):
            if m is c.representative:
                assert h is None
            else:
                assert xq.verify_rq_homotopy(c.representative, m, h).ok


def test_classification_report_decides_each_pair_once(monkeypatch):
    import hashlib

    import xq.quadratic
    import xq.sphere

    calls = []
    decide = xq.quadratic.rq_homotopy_decision

    def counting(f, g):
        calls.append((f.tag, g.tag))
        return decide(f, g)

    monkeypatch.setattr(xq.quadratic, "rq_homotopy_decision", counting)
    monkeypatch.setattr(xq.sphere, "rq_homotopy_decision", counting)
    rep = xq.classification_report(ab_range=3, r_bound=10, seed=0)
    # 61 to classify 42 retractions, one (rep, rep) per class, one cross pair
    assert len(calls) == 64
    # the report is byte-identical to the one that decided every pair twice
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == \
        "863a0947f6e14da4783f58694c84cf3d85ba22fee057cbd34c042e4ee66b2405"
    assert hashlib.sha256(rep.text().encode()).hexdigest() == \
        "184579fd57d83b7237ce9dfea7ac62b36ca8bd22dc0eb908a7593c2f83d1000a"
