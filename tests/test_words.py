import random

from xq.groups import FreeGroup
from xq.words import invert_word, join_words, word_from_pairs

from letter_oracle import spell


def random_pairs(rng, gens=3, length=10, size=3):
    return [(rng.randrange(gens), rng.randint(-size, size))
            for _ in range(rng.randint(0, length))]


def reduce_letters(letters):
    """Free reduction of signed letters (i, +-1), cancelling adjacent
    inverse pairs: the reference for the syllable reduction."""
    out = []
    for letter in letters:
        if out and out[-1] == (letter[0], -letter[1]):
            out.pop()
        else:
            out.append(letter)
    return out


def is_reduced(word):
    return (all(e != 0 for _, e in word)
            and all(a != b for (a, _), (b, _) in zip(word, word[1:])))


def test_reduce_cancels_adjacent_inverses():
    assert word_from_pairs([(0, 1), (0, -1)]) == ()
    assert word_from_pairs([[0, 2], [0, -2]]) == ()
    assert word_from_pairs([(0, 1), (1, 1), (1, -1), (0, -1)]) == ()
    assert word_from_pairs([(0, 1), (1, -1), (0, 1)]) == ((0, 1), (1, -1), (0, 1))
    # a cancellation lets the neighbours merge
    assert word_from_pairs([(0, 2), (1, 3), (1, -3), (0, 1)]) == ((0, 3),)
    assert join_words(((0, 2), (1, 3)), ((1, -3), (0, -2), (1, 1))) == ((1, 1),)


def test_reduce_is_idempotent_and_invert_is_involutive():
    rng = random.Random(0)
    for _ in range(500):
        r = word_from_pairs(random_pairs(rng))
        s = word_from_pairs(random_pairs(rng))
        assert is_reduced(r)
        assert word_from_pairs(r) == r
        assert invert_word(invert_word(r)) == r
        assert join_words(r, invert_word(r)) == ()
        assert join_words(invert_word(r), r) == ()
        # the seam merge is the full reduction of the concatenation
        assert join_words(r, s) == word_from_pairs(r + s)


def test_pairs_round_trip():
    rng = random.Random(1)
    g = FreeGroup(3)
    for _ in range(300):
        pairs = random_pairs(rng)
        w = g.element_from_json(pairs)
        # the syllables are the letter reduction with its runs collapsed
        letters = reduce_letters(c for i, e in pairs for c in spell(i, e))
        assert [c for i, e in w for c in spell(i, e)] == letters
        out = g.element_to_json(w)
        assert out == [list(s) for s in w]
        assert g.element_from_json(out) == w
        # runs are collapsed: consecutive pairs never share a generator
        for (a, _), (b, _) in zip(out, out[1:]):
            assert a != b


def test_word_from_pairs_merges_and_cancels():
    assert word_from_pairs([(0, 3)]) == ((0, 3),)
    assert word_from_pairs([(0, 2), (0, 3)]) == ((0, 5),)
    assert word_from_pairs([(1, -2), (1, 2)]) == ()
    assert word_from_pairs([(0, 0)]) == ()
    assert word_from_pairs([(0, 3), (1, 0), (0, -1)]) == ((0, 2),)
    # exponents of any size are one syllable each
    e = 10 ** 18
    assert word_from_pairs([(0, e), (1, 1), (1, -1), (0, 1 - e)]) == ((0, 1),)
