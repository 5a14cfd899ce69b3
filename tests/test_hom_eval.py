"""Homomorphisms evaluated on normal forms against the letter-by-letter
reference, nil(2) multiples in closed form, and the parsing and rendering
paths that no longer spell elements as letters."""

import random
from itertools import groupby

import pytest

from xq import nil2
from xq.groups import (CyclicGroup, FgAbelianGroup, FreeAbelianGroup,
                       FreeGroup, FreeNil2Group, GroupHom, format_terms)
from xq.sphere import build_sphere_D

from hom_oracle import letter_eval
from letter_oracle import normalize_word, spell, word_of
from oracle import oracle_normal_form, random_word

SOURCES = [FreeAbelianGroup(2), FgAbelianGroup(3, [[2, 0, 0], [0, 3, 3]]),
           CyclicGroup(5), FreeNil2Group(1), FreeNil2Group(2), FreeNil2Group(3),
           FreeGroup(2)]
# targets abelian as presented, where the fold sums and reduces once, and
# the others
TARGETS = [FreeNil2Group(2), FgAbelianGroup(2, [[4, 2]]), FreeGroup(2),
           FreeNil2Group(1), FreeAbelianGroup(1), CyclicGroup(6), FgAbelianGroup(0),
           FreeGroup(1)]
# free-group images that pairwise do not commute
FREE_IMAGES = [((0, 1),), ((1, 1), (0, -1)), ((0, 1), (1, 1), (0, 1))]


def big_element(g, rng, size=12):
    """A random element with coefficients up to `size`, larger than
    `random_element` draws, so that runs and commutator powers are long."""
    if isinstance(g, FreeGroup):
        return g.canon([(rng.randrange(g.ngens), rng.randint(-size, size))
                        for _ in range(6)])
    if isinstance(g, FreeNil2Group):
        return nil2.Nil2Element(
            tuple(rng.randint(-size, size) for _ in range(g.ngens)),
            tuple(rng.randint(-size, size) for _ in nil2.pair_list(g.ngens)))
    return g.canon(tuple(rng.randint(-size, size) for _ in range(g.ngens)))


@pytest.mark.parametrize("target", TARGETS, ids=lambda g: f"{g.kind}{g.ngens}")
@pytest.mark.parametrize("source", SOURCES, ids=lambda g: f"{g.kind}{g.ngens}")
def test_normal_form_eval_matches_letter_oracle(source, target):
    rng = random.Random(31)
    for _ in range(10):
        if isinstance(target, FreeGroup) and target.ngens > 1:
            images = FREE_IMAGES[:source.ngens]
        else:
            images = [target.random_element(rng) for _ in range(source.ngens)]
        hom = GroupHom(source, target, images)
        for _ in range(10):
            x = big_element(source, rng)
            assert hom(x) == letter_eval(hom, x), (images, x)
        assert list(hom.relation_images()) == [
            (row, target.fold(zip(hom.images, row)))
            for row in source.ab_relation_rows()]


@pytest.mark.parametrize("group", SOURCES, ids=lambda g: f"{g.kind}{g.ngens}")
def test_word_runs_spell_the_canonical_word(group):
    rng = random.Random(33)
    for _ in range(20):
        x = (group.random_element(rng, size=12) if isinstance(group, FreeGroup)
             else big_element(group, rng))
        spelled = tuple(letter for block, count in group.word_runs(x)
                        for _ in range(count) for letter in block)
        assert spelled == word_of(group, x)
    assert group.word_runs(group.identity()) == []


@pytest.mark.parametrize("k", range(-6, 7))
def test_nil2_power_matches_repeated_mul_and_oracle(k):
    rng = random.Random(32 + k)
    for _ in range(50):
        n = rng.randint(1, 3)
        w = random_word(rng, n, 6)
        x = normalize_word(w, n)
        step = x if k >= 0 else nil2.inv(x)
        folded = nil2.identity(n)
        for _ in range(abs(k)):
            folded = nil2.mul(folded, step)
        got = nil2.power(x, k)
        assert got == folded
        spelled = w * k if k >= 0 else [(i, -s) for i, s in reversed(w)] * -k
        assert (got.base, got.comm) == oracle_normal_form(spelled, n)


def test_d3_of_sphere_D_at_exponent_10_18():
    d = build_sphere_D()
    assert d.d3(d.q3.canon((10 ** 18,))).base == (0,)


def test_nil2_word_input_is_folded_per_pair():
    g = FreeNil2Group(3)
    # 2 g0 + 3 g1 - g0: moving -g0 back past 3 g1 leaves 3 (g0, g1)
    assert g.element_from_json([[0, 2], [1, 3], [0, -1]]) == \
        g.element_from_json({"base": [1, 3, 0], "comm": [3, 0, 0]})
    rng = random.Random(33)
    for _ in range(200):
        pairs = [[rng.randrange(3), rng.randint(-5, 5)] for _ in range(rng.randint(0, 5))]
        x = g.element_from_json(pairs)
        assert x == normalize_word([c for i, e in pairs for c in spell(i, e)], 3)
        assert g.element_from_json(g.element_to_json(x)) == x


def test_nil2_word_input_with_exponent_10_18():
    g = FreeNil2Group(2)
    e = 10 ** 18
    x = g.element_from_json([[1, e], [0, e]])
    assert x == nil2.Nil2Element((e, e), (-e * e,))


@pytest.mark.parametrize("coords, text", [
    ((1, -1), "x - y"), ((-1, 1), "-x + y"), ((3, -3), "3*x - 3*y"),
    ((-3, 3), "-3*x + 3*y"), ((0, 0), "0"), ((0, -1), "-y"),
    ((10 ** 12, -10 ** 12), "1000000000000*x - 1000000000000*y")])
def test_abelian_format_element(coords, text):
    assert FreeAbelianGroup(2, names=("x", "y")).format_element(coords) == text


@pytest.mark.parametrize("g", [FgAbelianGroup(3, [[2, 0, 0], [0, 3, 3]]),
                               CyclicGroup(5), FreeAbelianGroup(2)],
                         ids=lambda g: f"{g.kind}{g.ngens}")
def test_abelian_format_element_matches_word_rendering(g):
    rng = random.Random(34)
    for _ in range(200):
        x = g.random_element(rng)
        # the rendering of the canonical word with its runs collapsed
        runs = groupby(word_of(g, x), key=lambda letter: letter[0])
        assert g.format_element(x) == format_terms(
            (sum(s for _, s in run), g.names[i]) for i, run in runs)


# -- values ----------------------------------------------------------------------

def test_values_depend_on_the_element_not_its_spelling():
    src, tgt = FgAbelianGroup(2, [[0, 4]]), FreeNil2Group(2)
    h = GroupHom(src, tgt, [tgt.gen(0), tgt.gen(1)])
    x = (3, 5)
    value = h(x)
    assert value == letter_eval(h, x) == tgt.from_ab((3, 1))
    assert h(x) == h(list(x)) == value
    # (3, 5) and (3, 1) are the same element
    assert h((3, 1)) == value


def test_derived_maps_evaluate_their_own_images():
    g = FreeAbelianGroup(2)
    h = GroupHom(g, g, [(1, 1), (0, 1)])  # the shear (a, b) -> (a, a + b)
    x = (2, 3)
    assert h(x) == (2, 5) and h.at_generator(0) == (1, 1)
    swapped = h.with_image(0, (0, 5))
    assert swapped(x) == GroupHom(g, g, [(0, 5), (0, 1)])(x) == (0, 13)
    assert swapped.at_generator(0) == (0, 5)
    assert h.then(h)(x) == h.power(2)(x) == h(h(x)) == (2, 7)
    assert h.power(3).at_generator(0) == (1, 3)
    assert h(x) == (2, 5) and h.at_generator(0) == (1, 1)


def test_at_generator_and_call_share_the_value_at_the_canonical_generator():
    # Z^2 / <(1, 2)> with images that kill no relation: the value at the
    # canonical generator (0, -2) is not images[0], in whichever order the
    # two entry points are called
    src, tgt = FgAbelianGroup(2, [[1, 2]]), FreeNil2Group(2)
    for at_first in (True, False):
        h = GroupHom(src, tgt, [tgt.gen(0), tgt.gen(1)])
        g0 = src.generators()[0]
        first, second = ((h.at_generator(0), h(g0)) if at_first
                         else (h(g0), h.at_generator(0)))
        assert first == second == letter_eval(h, g0) == tgt.pow(tgt.gen(1), -2)
        assert first != h.images[0]
