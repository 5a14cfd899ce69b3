"""Free nil(2) normal forms against the independent rewriting oracle."""

import random

from xq import nil2
from xq.groups import FreeNil2Group
from xq.nil2 import Nil2Element, basic_commutator, generator, identity

from letter_oracle import normalize_word, word_of
from oracle import oracle_normal_form, random_word


def test_normal_form_matches_oracle_on_random_words():
    rng = random.Random(11)
    for _ in range(3000):
        n = rng.randint(1, 3)
        w = random_word(rng, n, 8)
        got = normalize_word(w, n)
        base, comm = oracle_normal_form(w, n)
        assert (got.base, got.comm) == (base, comm), f"word {w}"


def test_product_matches_oracle_concatenation():
    rng = random.Random(12)
    for _ in range(2000):
        n = rng.randint(2, 3)
        w1 = random_word(rng, n, 6)
        w2 = random_word(rng, n, 6)
        x = normalize_word(w1, n)
        y = normalize_word(w2, n)
        base, comm = oracle_normal_form(w1 + w2, n)
        got = nil2.mul(x, y)
        assert (got.base, got.comm) == (base, comm)


def test_inverse_and_identity_laws():
    rng = random.Random(13)
    n = 3
    for _ in range(1000):
        x = normalize_word(random_word(rng, n, 8), n)
        assert nil2.mul(x, nil2.inv(x)) == identity(n)
        assert nil2.mul(nil2.inv(x), x) == identity(n)
        assert nil2.mul(x, identity(n)) == x


def test_frozen_small_examples():
    n = 2
    g1, g2 = generator(n, 0), generator(n, 1)
    # collecting g2 g1 into generator order costs one inverse commutator
    assert nil2.mul(g2, g1) == Nil2Element((1, 1), (-1,))
    # the commutator of the ordered pair is the positive basis element
    assert nil2.commutator(g1, g2) == basic_commutator(n, 0, 1)
    assert nil2.commutator(g2, g1) == nil2.inv(basic_commutator(n, 0, 1))
    assert basic_commutator(n, 0, 1) == Nil2Element((0, 0), (1,))


def test_commutators_are_central_and_bilinear():
    rng = random.Random(14)
    n = 3
    for _ in range(500):
        x = normalize_word(random_word(rng, n, 6), n)
        y = normalize_word(random_word(rng, n, 6), n)
        z = normalize_word(random_word(rng, n, 6), n)
        c = nil2.commutator(x, y)
        assert c.base == (0,) * n and c.is_central()
        # (x, y z) = (x, y)(x, z) in class 2
        lhs = nil2.commutator(x, nil2.mul(y, z))
        rhs = nil2.mul(nil2.commutator(x, y), nil2.commutator(x, z))
        assert lhs == rhs


def test_word_round_trip():
    rng = random.Random(15)
    n = 3
    for _ in range(500):
        x = normalize_word(random_word(rng, n, 8), n)
        assert normalize_word(word_of(FreeNil2Group(n), x), n) == x


def test_commutator_closed_form_matches_the_oracle_word():
    """(x, y) against the oracle's normal form of the word -x -y +x +y."""
    rng = random.Random(16)
    for _ in range(1200):
        n = rng.randint(1, 4)
        wx, wy = random_word(rng, n, 8), random_word(rng, n, 8)
        x, y = normalize_word(wx, n), normalize_word(wy, n)
        minus_x, minus_y = ([(g, -s) for g, s in reversed(w)] for w in (wx, wy))
        base, comm = oracle_normal_form(minus_x + minus_y + wx + wy, n)
        got = nil2.commutator(x, y)
        assert (got.base, got.comm) == (base, comm), f"words {wx}, {wy}"
        assert FreeNil2Group(n).commutator(x, y) == got
