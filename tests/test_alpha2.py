"""alpha2 in closed form (`quadratic.Alpha2`) against the extension rule
walked letter by letter (`letter_oracle`): the same values, the same affine
form for the homotopy system, and the same reports; and the `Undefined`
witness when an omega' value is not central."""

import json
import random

import pytest

import xq.quadratic
from xq import nil2
from xq.groups import (FgAbelianGroup, FreeAbelianGroup, FreeGroup, FreeNil2Group,
                       GroupHom)
from xq.quadratic import (Alpha2, QCHomotopy, QCMorphism, ReducedQuadraticModule,
                          UnderCofibration, alpha2_extend, complex_from_rqm,
                          rq_homotopy_decision, verify_rq_homotopy)
from xq.report import Undefined
from xq.sphere import classification_report, retraction_candidate

from classify_oracle import derived_witnesses, homotopy_from_json
from letter_oracle import alpha2_affine, alpha2_fold
from test_shared_values import cases, identity_morphism, shipped, twisted_identity  # noqa: F401


class LetterAlpha2:
    """`Alpha2` with the letter-by-letter walk in its place.  It never
    reports that every correction is 0, so the equations walk the letters
    at every point where they read alpha2."""

    zero = False

    def __init__(self, f, g):
        self.f, self.g = f, g

    def correction(self, x):
        return alpha2_affine(self.f, self.g, x)[1]

    def __call__(self, values, x):
        return alpha2_fold(values.images, self.f, self.g, x)


def random_source_element(group, rng, size=6):
    """Exponents up to `size` in every coordinate, commutator parts and
    free-group syllables included."""
    if isinstance(group, FreeNil2Group):
        return nil2.Nil2Element(
            tuple(rng.randint(-size, size) for _ in range(group.ngens)),
            tuple(rng.randint(-size, size) for _ in nil2.pair_list(group.ngens)))
    if isinstance(group, FreeGroup):
        return group.canon([(rng.randrange(group.ngens), rng.randint(-size, size))
                            for _ in range(rng.randint(0, 5))])
    return group.canon(tuple(rng.randint(-size, size) for _ in range(group.ngens)))


def points(f, rng, samples=20):
    """Where the checks read alpha2 (d3 of the Q3 generators, the
    under-object's degree-2 generators), the Q2 generators, and samples."""
    src = f.source
    xs = [src.d3.at_generator(i) for i in range(src.q3.ngens)]
    if src.under is not None:
        xs += [src.under.q2.at_generator(j) for j in range(src.under.base.q2.ngens)]
    return xs + src.q2.generators() + [random_source_element(src.q2, rng)
                                       for _ in range(samples)]


def assert_matches_the_fold(f, g, values, xs):
    """The closed form is the letter fold at every x; with Q3' abelian its
    affine form is the fold's.  Returns how many corrections are not 0."""
    q3 = f.target.q3
    form, hom = Alpha2(f, g), GroupHom(f.source.q2, q3, values)
    nonzero = 0
    for x in xs:
        want = alpha2_fold(values, f, g, x)
        assert q3.eq(form(hom, x), want), x
        assert q3.eq(alpha2_extend(values, f, g, x), want)
        nonzero += not q3.is_identity(form.correction(x))
        if q3.is_abelian:
            coeffs, const = alpha2_affine(f, g, x)
            assert coeffs == f.source.q2.ab(x)
            assert q3.eq(form.correction(x), const)
    return nonzero


def test_shipped_pairs_with_correct_and_corrupted_witnesses(shipped, cylinder_q,  # noqa: F811
                                                              sphere_d, monkeypatch):
    rng = random.Random(40)
    all_cases = cases(shipped, cylinder_q, sphere_d)
    for f, g, h, _ in all_cases:
        assert_matches_the_fold(f, g, h.alpha2, points(f, rng))

    def reports():
        """Each case's verification, and the decision of its pair where the
        target's d3 is central (not on Q -> Q)."""
        return [(verify_rq_homotopy(f, g, h).to_json(),
                 f.target is not cylinder_q and rq_homotopy_decision(f, g)[1].to_json())
                for f, g, h, _ in all_cases]
    closed = reports()
    monkeypatch.setattr(xq.quadratic, "Alpha2", LetterAlpha2)
    assert reports() == closed


def test_twisted_identity_matches_the_letter_fold(cylinder_q):
    """Q -> Q: C' has rank 3, and the twist makes the corrections non-zero;
    the points are nil(2) elements with exponents up to 6 and commutator
    parts."""
    q = cylinder_q
    rng = random.Random(41)
    ident, twist = identity_morphism(q), twisted_identity(q)
    nonzero = 0
    for f, g in ((ident, twist), (twist, ident), (twist, twist), (ident, ident)):
        for _ in range(5):
            values = [q.q3.random_element(rng) for _ in range(q.q2.ngens)]
            count = assert_matches_the_fold(f, g, values, points(f, rng))
            if f.f2.images == g.f2.images:
                assert count == 0
            nonzero += count
    assert nonzero > 0


def test_classification_witnesses_match_the_letter_fold(cylinder_q, sphere_d):
    """Every witness a classification report gives, from a class
    representative to a member, at the points its verification reads."""
    rep = classification_report(2, 4)
    pairs = [(retraction_candidate(cylinder_q, sphere_d, *w["pair"][0]),
              retraction_candidate(cylinder_q, sphere_d, *w["pair"][1]),
              homotopy_from_json(w, sphere_d))
             for w in derived_witnesses(json.loads(rep.to_json())) if w["pair"][0] != w["pair"][1]]
    assert len(pairs) > 10
    rng = random.Random(44)
    for f, g, w in pairs:
        assert_matches_the_fold(f, g, w.alpha2, points(f, rng, samples=2))


def rq_complex(q2, q3, omega, d3_images=None, under=False):
    """A 4-complex with Q4 = 0 on the given groups, d3 zero unless given;
    with `under`, the identity cofibration from itself."""
    d3 = GroupHom(q3, q2, d3_images) if d3_images else GroupHom.zero(q3, q2)
    c = complex_from_rqm(ReducedQuadraticModule(q2, q3, omega, d3))
    if under:
        c.under = UnderCofibration(c, GroupHom.identity(q2), GroupHom.identity(q3),
                                   GroupHom.identity(c.q4))
    return c


def pair_of_maps(src, tgt, rng):
    """Two morphisms src -> tgt with random degree-2 images and zero
    elsewhere; alpha2 reads only f2 and g2."""
    def one():
        f2 = GroupHom(src.q2, tgt.q2, [tgt.q2.random_element(rng)
                                       for _ in range(src.q2.ngens)])
        return QCMorphism(src, tgt, f2, GroupHom.zero(src.q3, tgt.q3),
                          GroupHom.zero(src.q4, tgt.q4))
    return one(), one()


@pytest.mark.parametrize("q2", [FgAbelianGroup(2, [[4, 2]]), FreeGroup(2)],
                         ids=lambda g: g.kind)
def test_other_sources_match_the_letter_fold(q2, cylinder_q):
    """An abelian source with relations, whose canonical coordinates are
    the word, and a free source read syllable by syllable."""
    rng = random.Random(42)
    src = rq_complex(q2, FreeAbelianGroup(1), ((FreeAbelianGroup(1).identity(),) * 2,) * 2)
    nonzero = 0
    for _ in range(10):
        f, g = pair_of_maps(src, cylinder_q, rng)
        values = [cylinder_q.q3.random_element(rng) for _ in range(q2.ngens)]
        nonzero += assert_matches_the_fold(f, g, values, points(f, rng))
    assert nonzero > 0


def test_central_omega_values_in_a_free_nil2_q3(cylinder_q):
    """Q3' free nil(2), so not abelian, with omega' values basic
    commutators: these are central, and the closed form is the letter fold
    also for values that do not commute."""
    q2t, q3t = FreeNil2Group(2), FreeNil2Group(3)
    omega = ((q3t.basic_commutator(0, 1), q3t.basic_commutator(0, 2)),
             (q3t.basic_commutator(1, 2), q3t.pow(q3t.basic_commutator(0, 1), 2)))
    tgt = rq_complex(q2t, q3t, omega)
    rng = random.Random(43)
    nonzero = 0
    for _ in range(10):
        f, g = pair_of_maps(cylinder_q, tgt, rng)
        assert Alpha2(f, g).not_central is None
        values = [q3t.random_element(rng) for _ in range(cylinder_q.q2.ngens)]
        nonzero += assert_matches_the_fold(f, g, values, points(f, rng))
    assert nonzero > 0


def test_non_central_omega_value_is_an_undefined_witness():
    q2, q3 = FreeNil2Group(1, names=("x",)), FreeAbelianGroup(1, names=("t",))
    src = rq_complex(q2, q3, ((q3.identity(),),), [q2.gen(0)], under=True)
    q2t, q3t = FreeNil2Group(1), FreeNil2Group(2)
    tgt = rq_complex(q2t, q3t, ((q3t.gen(0),),))

    def morphism(k):
        return QCMorphism(src, tgt, GroupHom(q2, q2t, [q2t.pow(q2t.gen(0), k)]),
                          GroupHom.zero(q3, q3t), GroupHom.zero(src.q4, tgt.q4))
    f, g = morphism(1), morphism(2)
    h = QCHomotopy((q3t.identity(),), (tgt.q4.identity(),))
    with pytest.raises(Undefined, match="not central"):
        alpha2_extend(h.alpha2, f, g, q2.gen(0))
    # with f2 = g2 every correction is 0, and alpha2 is the fold of the values
    assert alpha2_extend(h.alpha2, f, f, q2.gen(0)) == q3t.identity()
    rep = verify_rq_homotopy(f, g, h)
    failed = {c.check_id: c.witness for c in rep.failed()}
    # degree 2 fails on its own: d3' = 0 while f2 != g2
    assert set(failed) == {"homotopy_degree2", "homotopy_degree3",
                           "alpha2_vanishes_on_under"}
    for check_id in ("homotopy_degree3", "alpha2_vanishes_on_under"):
        assert failed[check_id].startswith("omega' at basis (0,0) is g0, which is not central")
