import random

import pytest

from xq.groups import (CyclicGroup, FgAbelianGroup, FreeAbelianGroup,
                       FreeGroup, FreeNil2Group, GroupHom, group_from_json,
                       invert_hom, trivial_group)

from axiom_oracle import group_law_failures


ALL_GROUPS = [
    FreeGroup(2, names=("x", "y")),
    FreeNil2Group(3),
    FreeAbelianGroup(2),
    FgAbelianGroup(3, [[2, 0, 0], [0, 3, 3]]),
    CyclicGroup(5),
    CyclicGroup(1),
    trivial_group(),
]


@pytest.mark.parametrize("g", ALL_GROUPS, ids=lambda g: f"{g.kind}{g.ngens}")
def test_group_laws_sampled(g):
    # every group kind: the laws a `group` file's check reports as holding
    # by construction of the normal forms
    assert group_law_failures(g, samples=150, seed=7) == dict.fromkeys(
        ("associativity", "identity", "inverses", "canonical_form_idempotent"))


@pytest.mark.parametrize("g", ALL_GROUPS, ids=lambda g: f"{g.kind}{g.ngens}")
def test_element_json_round_trip(g):
    rng = random.Random(8)
    for _ in range(50):
        x = g.random_element(rng)
        assert g.eq(g.element_from_json(g.element_to_json(x)), x)


@pytest.mark.parametrize("g", ALL_GROUPS, ids=lambda g: f"{g.kind}{g.ngens}")
def test_group_json_round_trip(g):
    g2 = group_from_json(g.to_json())
    assert g2 == g
    rng = random.Random(9)
    x = g.random_element(rng)
    assert g2.eq(g2.canon(x), g.canon(x))


def test_fg_abelian_cosets_against_brute_force():
    # Z^2 / <(2, 0), (1, 3)> has order 6; canonical forms must pick exactly
    # one representative per coset
    g = FgAbelianGroup(2, [[2, 0], [1, 3]])
    reps = {g.canon((a, b)) for a in range(-6, 7) for b in range(-6, 7)}
    assert len(reps) == 6
    # cosets agree with brute-force membership of differences
    span = set()
    for c1 in range(-8, 9):
        for c2 in range(-8, 9):
            span.add((2 * c1 + c2, 3 * c2))
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                for d in range(-3, 4):
                    same = g.canon((a, b)) == g.canon((c, d))
                    assert same == ((a - c, b - d) in span)


def rebuild(g, x):
    """x rebuilt from its runs (`Group.word_runs`), one block at a time."""
    acc = g.identity()
    for block, count in g.word_runs(x):
        for _ in range(count):
            for i, s in block:
                acc = g.op(acc, g.pow(g.gen(i), s))
    return acc


def test_fg_abelian_word_of_and_from_ab():
    g = FgAbelianGroup(2, [[4, 0]])
    x = g.canon((7, -2))
    assert g.eq(rebuild(g, x), x)
    assert g.eq(g.from_ab(g.ab(x)), x)


def test_nil2_group_ops_and_word_of():
    g = FreeNil2Group(3)
    rng = random.Random(10)
    for _ in range(100):
        x = g.random_element(rng)
        y = g.random_element(rng)
        # the runs of the canonical word reconstruct the element
        assert g.eq(rebuild(g, x), x)
        # ab is a homomorphism onto Z^3
        assert g.ab(g.op(x, y)) == tuple(a + b for a, b in zip(g.ab(x), g.ab(y)))


def test_hom_validity_checks():
    src = FgAbelianGroup(1, [[2]])  # Z/2
    tgt = FreeAbelianGroup(1)
    # Z/2 -> Z sending the generator to 1 is not a homomorphism
    h = GroupHom(src, tgt, [tgt.gen(0)])
    ok, why = h.check_hom()
    assert not ok and why
    # the zero map is
    ok, _ = GroupHom.zero(src, tgt).check_hom()
    assert ok


def test_hom_composition():
    g = FreeNil2Group(2)
    h = FreeNil2Group(2)
    f = GroupHom(g, h, [h.op(h.gen(0), h.gen(1)), h.gen(1)])
    ok, _ = f.check_hom()
    assert ok
    rng = random.Random(11)
    for _ in range(50):
        x = g.random_element(rng)
        y = g.random_element(rng)
        assert h.eq(f(g.op(x, y)), h.op(f(x), f(y)))


def test_invert_hom_nil2_automorphism():
    g = FreeNil2Group(2)
    # the shear x -> x + y, y -> y is invertible
    f = GroupHom(g, g, [g.op(g.gen(0), g.gen(1)), g.gen(1)])
    finv = invert_hom(f)
    rng = random.Random(12)
    for _ in range(100):
        x = g.random_element(rng)
        assert g.eq(finv(f(x)), x)
        assert g.eq(f(finv(x)), x)


def test_invert_hom_abelian_and_failure():
    g = FgAbelianGroup(1, [[5]])  # Z/5
    f = GroupHom(g, g, [g.pow(g.gen(0), 2)])  # x -> 2x is invertible mod 5
    finv = invert_hom(f)
    for k in range(5):
        x = g.pow(g.gen(0), k)
        assert g.eq(finv(f(x)), x)
    z = FreeAbelianGroup(1)
    with pytest.raises(ValueError):
        invert_hom(GroupHom(z, z, [z.pow(z.gen(0), 2)]))  # doubling on Z


NON_INTEGERS = [pytest.param(1.5, id="float"), pytest.param("1", id="string"),
                pytest.param(True, id="bool")]


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_nil2_element_entries_must_be_integers(bad):
    g = FreeNil2Group(2)
    with pytest.raises(ValueError, match="base entries must be integers"):
        g.element_from_json({"base": [bad, 0], "comm": [0]})
    with pytest.raises(ValueError, match="comm entries must be integers"):
        g.element_from_json({"base": [1, 0], "comm": [bad]})


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_abelian_element_entries_must_be_integers(bad):
    for g in (FgAbelianGroup(2, [[2, 0]]), CyclicGroup(3)):
        with pytest.raises(ValueError, match="coordinate entries must be integers"):
            g.element_from_json([bad] + [0] * (g.ngens - 1))


def test_with_image_replaces_one_image():
    src, tgt = FreeAbelianGroup(2), CyclicGroup(5)
    f = GroupHom(src, tgt, [tgt.gen(0), tgt.pow(tgt.gen(0), 2)])
    assert tgt.eq(f.at_generator(1), tgt.pow(tgt.gen(0), 2))
    g = f.with_image(1, tgt.pow(tgt.gen(0), 8))
    fresh = GroupHom(src, tgt, [tgt.gen(0), tgt.pow(tgt.gen(0), 8)])
    # only the new image is canonicalized; the others are shared, and f and
    # its values at generators are unchanged
    assert g.images == fresh.images and g.images[0] is f.images[0]
    assert tgt.eq(f.at_generator(1), tgt.pow(tgt.gen(0), 2))
    assert tgt.eq(g.at_generator(1), tgt.pow(tgt.gen(0), 3))
    x = src.canon((4, -7))
    assert tgt.eq(g(x), fresh(x))


FOLD_EXPONENTS = (0, 1, -1, 7, -7, 2 ** 60, -2 ** 60)
FOLD_GROUPS = ([FreeGroup(n) for n in range(4)] + [FreeNil2Group(n) for n in range(5)]
               + [CyclicGroup(6), FgAbelianGroup(3, [[2, 0, 0], [0, 3, 3]])])


def sequential_fold(g, terms):
    """k_1 x_1 + ... + k_m x_m by one op and one pow per term."""
    acc = g.identity()
    for x, k in terms:
        acc = g.op(acc, g.pow(x, k))
    return acc


def fold_terms(g, rng, length):
    """`length` seeded (x, k) terms.  In a free group of rank >= 2, a huge k
    multiplies a conjugate of a syllable, u (i, e) u^-1, so that its powers
    stay short words; every other k multiplies a random element."""
    terms = []
    for _ in range(length):
        k = rng.choice(FOLD_EXPONENTS)
        if isinstance(g, FreeGroup) and g.ngens >= 2 and abs(k) > 7:
            u = g.random_element(rng)
            x = g.op_all(u, g.pow(g.gen(rng.randrange(g.ngens)), rng.randint(1, 3)), g.inv(u))
        else:
            x = g.random_element(rng)
        terms.append((x, k))
    return terms


def assert_fold_is_sequential(g, rng, rounds=60):
    assert g.fold([]) == g.identity()
    for _ in range(rounds):
        terms = fold_terms(g, rng, rng.randint(1, 6))
        assert g.fold(terms) == g.canon(sequential_fold(g, terms))
        # any iterable of terms, read once
        assert g.fold(iter(terms)) == g.fold(terms)


@pytest.mark.parametrize("g", FOLD_GROUPS, ids=lambda g: f"{g.kind}{g.ngens}")
def test_fold_equals_the_sequential_op_pow_loop(g):
    assert_fold_is_sequential(g, random.Random(f"fold:{g.kind}:{g.ngens}"))


def test_fold_in_the_degree_3_group_of_the_cylinder():
    from xq.sphere import build_cylinder_Q

    q3 = build_cylinder_Q().q3
    assert q3.ab_relation_rows()  # relations, so the single reduction matters
    assert_fold_is_sequential(q3, random.Random(22))


def test_nil2_fold_rejects_a_rank_mismatch():
    from xq import nil2

    with pytest.raises(ValueError, match="rank mismatch") as folded:
        nil2.fold(2, [(nil2.generator(2, 0), 1), (nil2.generator(3, 0), 7)])
    with pytest.raises(ValueError) as multiplied:
        nil2.mul(nil2.generator(2, 0), nil2.generator(3, 0))
    assert str(folded.value) == str(multiplied.value)
    # a term with k = 0 adds nothing and is not read
    assert nil2.fold(2, [(nil2.generator(3, 0), 0)]) == nil2.identity(2)


def abelian_representatives(g, rng, x):
    """x and a few seeded non-canonical representatives of its class: x plus
    integer combinations of the relation rows."""
    rows = g.ab_relation_rows()
    reps = [tuple(x)]
    for _ in range(3):
        y = list(x)
        for row in rows:
            k = rng.randint(-3, 3)
            y = [a + k * b for a, b in zip(y, row)]
        reps.append(tuple(y))
    return reps


EQ_GROUPS = [CyclicGroup(6), FgAbelianGroup(3, [[2, 0, 0], [0, 3, 3]]),
             FreeAbelianGroup(2), trivial_group()]


def assert_eq_is_equality_of_canonical_forms(g, rng, rounds=80):
    for _ in range(rounds):
        x = tuple(rng.randint(-9, 9) for _ in range(g.ngens))
        # y is x's class half the time, another random class otherwise
        y = x if rng.random() < 0.5 else tuple(rng.randint(-9, 9) for _ in range(g.ngens))
        for u in abelian_representatives(g, rng, x):
            for v in abelian_representatives(g, rng, y):
                assert g.eq(u, v) == (g.canon(u) == g.canon(v))
                assert g.is_identity(u) == (g.canon(u) == g.identity())


@pytest.mark.parametrize("g", EQ_GROUPS, ids=lambda g: f"{g.kind}{g.ngens}")
def test_fg_abelian_eq_is_equality_of_canonical_forms(g):
    assert_eq_is_equality_of_canonical_forms(g, random.Random(f"eq:{g.kind}:{g.ngens}"))


def test_fg_abelian_eq_in_the_degree_3_group_of_the_cylinder():
    from xq.sphere import build_cylinder_Q

    q3 = build_cylinder_Q().q3
    assert q3.ab_relation_rows()
    assert_eq_is_equality_of_canonical_forms(q3, random.Random(23))


@pytest.mark.parametrize("g", EQ_GROUPS, ids=lambda g: f"{g.kind}{g.ngens}")
def test_fg_abelian_eq_rejects_an_element_of_the_wrong_length(g):
    short, x = (0,) * (g.ngens + 1), g.identity()
    for args in ((short, x), (x, short), (short, short)):
        with pytest.raises(ValueError, match="element length does not match rank"):
            g.eq(*args)


def test_at_generator_is_the_value_at_the_canonical_generator():
    # Z^2 / <(1, 2)>: the canonical form of the first generator is (0, -2),
    # not the unit vector, and the images below do not kill the relation,
    # so at_generator(0) is not images[0]
    src, tgt = FgAbelianGroup(2, [[1, 2]]), FreeAbelianGroup(2)
    h = GroupHom(src, tgt, [tgt.gen(0), tgt.gen(1)])
    assert not h.check_hom()[0]
    assert src.generators() == [(0, -2), (0, 1)]
    for i, g in enumerate(src.generators()):
        assert h.at_generator(i) == h(g) == h(list(g))
    assert [h.at_generator(i) for i in range(2)] != list(h.images)


def test_fg_abelian_gen_is_the_kept_canonical_generator(monkeypatch):
    g = FgAbelianGroup(2, [[1, 2]])
    reduced = []
    reduce = g.lattice.reduce
    monkeypatch.setattr(g.lattice, "reduce", lambda v: reduced.append(v) or reduce(v))
    assert g.gen(0) == (0, -2) and g.gen(1) == (0, 1)
    assert len(reduced) == 2
    assert g.gen(0) is g.gen(0) is g.generators()[0]
    assert len(reduced) == 2
    with pytest.raises(ValueError, match="out of range"):
        g.gen(2)


@pytest.mark.parametrize("g", ALL_GROUPS, ids=lambda g: f"{g.kind}{g.ngens}")
def test_from_ab_is_the_fold_of_the_generators(g):
    rng = random.Random(43)
    for _ in range(20):
        vec = [rng.randint(-9, 9) for _ in range(g.ngens)]
        assert g.from_ab(vec) == g.fold(zip(g.generators(), vec))
    with pytest.raises(ValueError):
        g.from_ab([0] * (g.ngens + 1))


def test_maps_from_canonical_values_are_not_canonicalized_again(monkeypatch):
    mid, tgt = FreeAbelianGroup(2), FreeNil2Group(2)
    h = GroupHom(mid, mid, [(1, 1), (0, 1)])
    k = GroupHom(mid, tgt, tgt.generators())
    canon = []
    monkeypatch.setattr(tgt, "canon", lambda x: canon.append(x) or x)
    composite = h.then(k)
    direct = GroupHom.of_canonical(mid, tgt, [tgt.op(tgt.gen(0), tgt.gen(1)), tgt.gen(1)])
    assert canon == []
    assert composite.images == direct.images
    with pytest.raises(ValueError, match="one image per source generator"):
        GroupHom.of_canonical(mid, tgt, [tgt.gen(0)])
