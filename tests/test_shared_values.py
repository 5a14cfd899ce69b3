"""Values kept at generators change no report: `qcm_check` and
`verify_rq_homotopy` give the JSON that fresh calls on freshly built
morphisms give, on passing and on corrupted witnesses, and classification
evaluates the maps of the source complex a constant number of times."""

import os

import pytest

import xq
import xq.sphere
from xq import structfile as sf
from xq.groups import GroupHom
from xq.quadratic import (QCHomotopy, QCMorphism, qcm_check, rq_homotopy_decision,
                          verify_rq_homotopy)
from xq.sphere import retraction_candidate

MORPHISM_FILES = ("retraction_pr1.json", "retraction_pr1_twisted.json",
                  "retraction_pr2.json")


def _read(structures_dir, name):
    with open(os.path.join(structures_dir, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def shipped(structures_dir):
    """(source, target, bind) of the shipped pair; bind(name) builds the
    named shipped morphism afresh, with hom objects of its own."""
    (_, source), (_, target) = sf.load_structure(
        _read(structures_dir, "retraction_pair.json")).value
    maps = {name: sf.parse_structure(_read(structures_dir, name))["body"]["maps"]
            for name in MORPHISM_FILES}
    return source, target, lambda name: sf.bind_maps(
        maps[name], "$.body.maps", "rqc4", source, target)


def identity_morphism(q):
    """The identity Q -> Q, built afresh: a target with d3', d4' and Q4 not
    zero, so that every degree of a witness can be corrupted."""
    return QCMorphism(q, q, GroupHom.identity(q.q2), GroupHom.identity(q.q3),
                      GroupHom.identity(q.q4))


def twisted_identity(q):
    """The identity Q -> Q but for e'' |-> e'' + e in degree 2: against the
    identity, g2 != f2 and omega' != 0, so alpha2 carries non-zero
    corrections."""
    q2 = q.q2
    return QCMorphism(q, q, GroupHom(q2, q2, [q2.gen(0), q2.gen(1), q2.op(q2.gen(2), q2.gen(0))]),
                      GroupHom.identity(q.q3), GroupHom.identity(q.q4))


def broken_f3(q, d):
    """The retraction (1, 0, 0) with f3 sending Q3 generator 1 to 3 w(e,e).
    That generator is canonically (0,0,0,0,0,1,1,0,1,1), so the value of f3
    at it folds the other images and differs from `f3.images[1]`; f3 fails
    `f3_is_homomorphism` and nothing else."""
    m = retraction_candidate(q, d, 1, 0, 0)
    images = list(m.f3.images)
    images[1] = d.q3.pow(d.q3.gen(0), 3)
    return QCMorphism(m.source, m.target, m.f2, GroupHom(q.q3, d.q3, images), m.f4, m.tag)


def fresh_copy(m):
    """The same maps with new hom objects, so that nothing kept on the homs
    of m is read."""
    return QCMorphism(m.source, m.target, *(GroupHom(h.source, h.target, h.images)
                                            for h in (m.f2, m.f3, m.f4)), m.tag)


def shifted(values, i, by, group):
    """values with by added to entry i."""
    values = list(values)
    values[i] = group.op(values[i], by)
    return tuple(values)


def cases(shipped, cylinder_q, sphere_d):
    """(f, g, witness, check id the witness must fail or None), with f and g
    the shared morphism objects."""
    source, target, bind = shipped
    ms = {name: bind(name) for name in MORPHISM_FILES}
    e3 = target.q3.gen(0)
    out = []
    for fname in MORPHISM_FILES:
        for gname in MORPHISM_FILES:
            f, g = ms[fname], ms[gname]
            h, _ = rq_homotopy_decision(f, g)
            if h is None:
                continue
            out.append((f, g, h, None))
            # alpha2 on e' enters alpha2(d3 e3); alpha2 on e is on the under-object
            out.append((f, g, QCHomotopy(shifted(h.alpha2, 1, e3, target.q3), h.alpha3),
                        "homotopy_degree3"))
            out.append((f, g, QCHomotopy(shifted(h.alpha2, 0, e3, target.q3), h.alpha3),
                        "alpha2_vanishes_on_under"))
    q = cylinder_q
    ident = identity_morphism(q)
    zero = QCHomotopy((q.q3.identity(),) * q.q2.ngens, (q.q4.identity(),) * q.q3.ngens)
    e4 = q.q4.gen(0)

    def alpha3_at(i):
        return QCHomotopy(zero.alpha2, shifted(zero.alpha3, i, e4, q.q4))
    out += [
        (ident, ident, zero, None),
        (ident, ident, QCHomotopy(shifted(zero.alpha2, 1, q.q3.gen(0), q.q3), zero.alpha3),
         "homotopy_degree2"),
        (ident, ident, alpha3_at(0), "homotopy_degree3"),
        # d4(e4) = w(e',e'') + w(e'',e'), generators 6 and 8 of Q3
        (ident, ident, alpha3_at(6), "homotopy_degree4"),
        # the under-object's w(e,e) is Q3 generator 1, canonically
        # (0,0,0,0,0,1,1,0,1,1): alpha3 is read on coordinates 5, 6, 8, 9
        (ident, ident, alpha3_at(5), "alpha3_vanishes_on_under"),
    ]
    out.append((ident, twisted_identity(q),
                QCHomotopy(shifted(zero.alpha2, 1, q.q3.gen(0), q.q3), zero.alpha3),
                "homotopy_degree2"))
    good = retraction_candidate(q, sphere_d, 1, 0, 0)
    w, _ = rq_homotopy_decision(good, good)
    out.append((broken_f3(q, sphere_d), good, w, None))
    return out


def test_shared_verification_matches_fresh_calls(shipped, cylinder_q, sphere_d):
    fired = set()
    all_cases = cases(shipped, cylinder_q, sphere_d)
    # twice over, so the second round reads only what the first one kept
    for f, g, h, must_fail in all_cases + all_cases:
        got = verify_rq_homotopy(f, g, h)
        assert got.to_json() == \
            verify_rq_homotopy(fresh_copy(f), fresh_copy(g), h).to_json()
        if must_fail is None:
            assert got.ok
        else:
            assert must_fail in [c.check_id for c in got.failed()]
            fired.add(must_fail)
    assert fired == {"homotopy_degree2", "homotopy_degree3", "homotopy_degree4",
                     "alpha2_vanishes_on_under", "alpha3_vanishes_on_under"}


def test_kept_values_check_as_fresh_calls(shipped, cylinder_q, sphere_d):
    _, _, bind = shipped
    ms = [bind(name) for name in MORPHISM_FILES]
    ms += [identity_morphism(cylinder_q), broken_f3(cylinder_q, sphere_d)]
    for m in ms + ms:
        assert qcm_check(m, samples=5, seed=0).to_json() == \
            qcm_check(fresh_copy(m), samples=5, seed=0).to_json()
    assert [c.check_id for c in qcm_check(ms[-1], samples=5, seed=0).failed()] == \
        ["f3_is_homomorphism"]


def test_values_are_read_at_the_canonical_generator(cylinder_q, sphere_d):
    m = broken_f3(cylinder_q, sphere_d)
    gen1 = cylinder_q.q3.generators()[1]
    assert gen1 == (0, 0, 0, 0, 0, 1, 1, 0, 1, 1)
    assert m.f3.at_generator(1) == m.f3(gen1) != m.f3.images[1]
    # so the broken images[1] is never read: the homotopy equations see the
    # values of the retraction it was made from
    good = retraction_candidate(cylinder_q, sphere_d, 1, 0, 0)
    w, _ = rq_homotopy_decision(good, good)
    assert verify_rq_homotopy(m, good, w).to_json() == \
        verify_rq_homotopy(good, good, w).to_json()
    # the maps of the complex are kept the same way
    q = cylinder_q
    for hom in (q.d3, q.d4, q.under.q2, q.under.q3, q.under.q4):
        gens = hom.source.generators()
        assert [hom.at_generator(i) for i in range(len(gens))] == list(map(hom, gens))


def test_generators_are_built_once_and_returned_as_fresh_lists(cylinder_q):
    gens = cylinder_q.q3.generators()
    gens.pop()
    again = cylinder_q.q3.generators()
    assert len(again) == cylinder_q.q3.ngens and again is not gens
    assert again[1] is cylinder_q.q3.generators()[1]


def test_classification_evaluates_the_source_maps_a_constant_number_of_times(
        monkeypatch):
    counts = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    built = {}

    def build_q(d):
        built["q"] = q = build_cylinder_q(d)
        return q

    build_cylinder_q = xq.sphere.build_cylinder_Q
    monkeypatch.setattr(xq.sphere, "build_cylinder_Q", build_q)
    call = GroupHom.__call__

    def counting_call(hom, x):
        counts[id(hom)] = counts.get(id(hom), 0) + 1
        return call(hom, x)

    monkeypatch.setattr(GroupHom, "__call__", counting_call)
    monkeypatch.setattr(xq.sphere, "qcm_check", counting("check", xq.sphere.qcm_check))
    monkeypatch.setattr(xq.sphere, "verify_rq_homotopy",
                        counting("verify", xq.sphere.verify_rq_homotopy))
    seen, checked, cached = [], [], []
    for ab_range, r_bound in ((3, 10), (3, 20)):
        counts.clear()
        xq.classification_report(ab_range=ab_range, r_bound=r_bound)
        checked.append((counts["check"], counts["verify"]))
        q = built["q"]
        source_maps = (q.d3, q.d4, q.under.q2, q.under.q3, q.under.q4)
        seen.append([counts.get(id(h), 0) for h in source_maps])
        cached.append([set(hom._values) for hom in source_maps])
        for hom in source_maps:
            # the one value cache holds each generator at most once, and at
            # most one other element: d3 meets d4's image in the check that
            # d3 d4 = 0, and the under-map of Q2 the identity
            others = [x for x in hom._values if x not in hom.source.generators()]
            assert len(hom._values) - len(others) <= hom.source.ngens
            assert len(others) <= 1
    # the checks of Q and the fit evaluate the maps of Q, and each r-family is
    # certified by a fixed number of checks: neither grows with the members
    assert seen[0] == seen[1]
    assert checked[0] == checked[1]
    assert cached[0] == cached[1]
