"""The fitted solver of `enumerate_retractions` against the scan it
replaced, its guard, and the one-unknown integer solve it rests on."""

import pytest

import xq
from xq import sphere
from xq.groups import CyclicGroup, FreeAbelianGroup, FreeNil2Group, GroupHom
from xq.intlinalg import Lattice, ZSystem
from xq.quadratic import (ReducedQuadraticComplex4, ReducedQuadraticModule,
                          qcm_check, rqc4_check)

from scan_oracle import scan_members, scan_retractions


@pytest.mark.parametrize("ab_range,r_bound", [(0, 0), (1, 0), (2, 1), (2, 2), (3, 10),
                                              (6, 1), (4, 3)])
def test_solver_matches_scan(cylinder_q, sphere_d, ab_range, r_bound):
    solved = sphere.enumerate_retractions(cylinder_q, sphere_d, ab_range, r_bound)
    scanned = scan_retractions(cylinder_q, sphere_d, ab_range, r_bound)
    assert [m.tag for m in solved] == [m.tag for m in scanned]
    for m in solved:
        assert qcm_check(sphere.family_member(m.base, m.tag[2])).ok


def doubling_target(q2):
    """A target with D3 = Z<t>, d3(t) = 2x, omega = 0, D4 = Z, no
    under-object.  Square d3 at e3 reads (a + b - 1) x = 2 r x, so r is a
    single value when D2 = Z and a progression r0 + 3Z when D2 = Z/6."""
    q3 = FreeAbelianGroup(1, names=("t",))
    rqm = ReducedQuadraticModule(q2, q3, ((q3.identity(),),),
                                 GroupHom(q3, q2, [q2.pow(q2.gen(0), 2)]))
    q4 = FreeAbelianGroup(1)
    return ReducedQuadraticComplex4(rqm, q4, GroupHom.zero(q4, q3))


@pytest.mark.parametrize("q2,order", [(FreeNil2Group(1), None), (CyclicGroup(6), 6)],
                         ids=["single", "progression"])
def test_solver_matches_scan_when_r_is_pinned(cylinder_q, q2, order):
    target = doubling_target(q2)
    assert rqc4_check(target).ok
    solved = sphere.enumerate_retractions(cylinder_q, target, 3, 2)
    expected = []
    for a in range(-3, 4):
        for b in range(-3, 4):
            for r in range(-2, 3):
                diff = a + b - 1 - 2 * r
                if diff == 0 or (order is not None and diff % order == 0):
                    expected.append((a, b, r))
    assert [m.tag for m in solved] == expected
    assert expected == [m.tag for m in scan_retractions(cylinder_q, target, 3, 2)]
    assert (3, 0, 1) in expected and (3, 0, -1) not in expected
    # (a, b) = (-3, -2) needs r = -3, outside [-2, 2]; modulo 3 it is r = 0
    assert ((-3, -2, 0) in expected) == (order is not None)


@pytest.mark.parametrize("q2", [FreeNil2Group(1), CyclicGroup(6)],
                         ids=["single", "progression"])
def test_solver_matches_scan_on_doubling_targets_at_a_wider_box(cylinder_q, q2):
    target = doubling_target(q2)
    solved = sphere.enumerate_retractions(cylinder_q, target, 4, 3)
    assert [m.tag for m in solved] == [m.tag for m in scan_retractions(cylinder_q, target, 4, 3)]
    assert solved


def test_classification_report_matches_scan(monkeypatch):
    solved = xq.classification_report(3, 10).to_json()
    monkeypatch.setattr(sphere, "enumerate_retractions", scan_members)
    assert xq.classification_report(3, 10).to_json() == solved


def test_solver_builds_eight_probes_plus_one_base_per_family(monkeypatch, cylinder_q, sphere_d):
    built = []
    original = sphere.retraction_candidate

    def counting(q, d, a, b, r):
        built.append((a, b, r))
        return original(q, d, a, b, r)

    monkeypatch.setattr(sphere, "retraction_candidate", counting)
    for ab_range in (2, 5):
        built.clear()
        kept = sphere.enumerate_retractions(cylinder_q, sphere_d, ab_range, 30)
        assert len(kept) == 2 * 61
        # the members are built from their family's base, the candidate at r = 0
        assert len(built) == 8 + 2
        assert built[8:] == [(0, 1, 0), (1, 0, 0)]


@pytest.mark.parametrize("ab_range,r_bound", [(3, 10), (8, 60), (20, 200)])
def test_r_is_solved_only_at_admissible_points(monkeypatch, cylinder_q, sphere_d,
                                               ab_range, r_bound):
    built, candidate = [], sphere.retraction_candidate

    def counting_candidate(*args):
        built.append(args[2:])
        return candidate(*args)

    monkeypatch.setattr(sphere, "retraction_candidate", counting_candidate)
    kept = sphere.enumerate_retractions(cylinder_q, sphere_d, ab_range, r_bound)
    # every r at each of (0, 1) and (1, 0), the only (a, b) some r solves
    assert [m.tag for m in kept] == [(a, b, r) for a, b in ((0, 1), (1, 0))
                                     for r in range(-r_bound, r_bound + 1)]
    # eight probes and one base per r-family, at every box
    assert len(built) == 10
    assert built[8:] == [(0, 1, 0), (1, 0, 0)]


def test_family_members_are_the_candidates_they_stand_for(cylinder_q, sphere_d):
    base = sphere.retraction_candidate(cylinder_q, sphere_d, 1, 0, 0)
    for r in (-3, 0, 7):
        member = sphere.family_member(base, r)
        fresh = sphere.retraction_candidate(cylinder_q, sphere_d, 1, 0, r)
        assert member.tag == fresh.tag == (1, 0, r)
        assert member.maps_json() == fresh.maps_json()
        assert member.f2 is base.f2
        assert all(x is y for x, y in zip(member.f3.images[1:], base.f3.images[1:]))


def test_fit_guard_fires_on_a_cubic_defect(monkeypatch, cylinder_q, sphere_d):
    # f2(e') = a^3 e makes square_d3 at e3 read (-1 + a^3 + b) e = 0, which
    # no quadratic in (a, b) fits at the guard point
    original = sphere.retraction_candidate

    def cubic(q, d, a, b, r):
        m = original(q, d, a, b, r)
        images = list(m.f2.images)
        images[1] = d.q2.pow(d.q2.gen(0), a ** 3)
        m.f2 = xq.GroupHom(q.q2, d.q2, images)
        return m

    monkeypatch.setattr(sphere, "retraction_candidate", cubic)
    with pytest.raises(ValueError, match=r"square_d3 \(f2 d3 != d3' f3 at generator e3\)"):
        sphere.enumerate_retractions(cylinder_q, sphere_d, 1, 0)


def test_solved_candidate_failing_the_check_is_an_internal_error(
        monkeypatch, cylinder_q, sphere_d):
    monkeypatch.setattr(sphere, "qcm_check",
                        lambda m, **_: xq.Report("always failing",
                                                 [xq.Check("c", False)]))
    with pytest.raises(RuntimeError, match=r"\(0, 1, 0\)"):
        sphere.enumerate_retractions(cylinder_q, sphere_d, 1, 0)


def test_target_without_abelian_coordinates_is_rejected(cylinder_q):
    # Q2 is free nil(2) of rank 3, which is not abelian
    with pytest.raises(ValueError, match="abelian coordinates"):
        sphere.enumerate_retractions(cylinder_q, cylinder_q, 0, 0)


def _solve(bound, *blocks):
    """The solutions in [-bound, bound] of one unknown r from blocks (coeff,
    rhs, mod rows) in Z^dim: r coeff == rhs modulo the rows, solved as
    `enumerate_retractions` solves r: one `ZSystem`, its solutions listed
    by `Lattice.coset_points`."""
    system = ZSystem()
    r = system.new_vars(1)[0]
    for coeff, rhs, mod in blocks:
        system.add(len(coeff), [(r, coeff)], rhs, mod)
    solved = system.solve()
    if solved is None:
        return []
    r0, kernel = solved
    return [x for x, in Lattice(1, kernel).coset_points(r0, bound)]


def test_one_unknown_empty():
    assert _solve(10, ([2], [1], [])) == []
    # two blocks with different single solutions
    assert _solve(10, ([1], [3], []), ([1], [4], [])) == []


def test_one_unknown_single_value_inside_and_outside():
    assert _solve(5, ([2, 1], [-6, -3], [])) == [-3]
    assert _solve(5, ([1], [7], [])) == []
    assert _solve(5, ([1], [-5], [])) == [-5]


def test_one_unknown_progression_from_torsion_rows():
    # 2 r == 4 modulo 6: r = 2 + 3 k
    assert _solve(7, ([2], [4], [[6]])) == [-7, -4, -1, 2, 5]
    # a torsion row in a second coordinate: r (1, 1) == (1, 0) mod (0, 4)
    assert _solve(0, ([1, 1], [1, 0], [[0, 4]])) == []
    assert _solve(3, ([1, 4], [1, 0], [[0, 4]])) == [1]


def test_one_unknown_all_of_z():
    assert _solve(2, ([0], [0], [])) == [-2, -1, 0, 1, 2]
    assert _solve(1) == [-1, 0, 1]
    # a coefficient that is zero modulo the relations
    assert _solve(1, ([3], [0], [[3]])) == [-1, 0, 1]


def test_one_unknown_zero_bound():
    assert _solve(0) == [0]
    assert _solve(0, ([1], [0], [])) == [0]
    assert _solve(0, ([1], [1], [])) == []
    assert _solve(0, ([2], [4], [[6]])) == []
