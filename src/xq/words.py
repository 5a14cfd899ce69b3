"""Words over free generators as freely reduced syllables.

A syllable is (generator index, exponent) with a non-zero exponent; a word
is a tuple of syllables in which adjacent syllables have different
generators.  Exponents may be of any size: nothing here spells a syllable
out letter by letter.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Syllable = tuple[int, int]


def word_from_pairs(pairs: Iterable[Sequence[int]]) -> tuple[Syllable, ...]:
    """The freely reduced word of [(gen, exponent), ...]: adjacent pairs of
    one generator merge, and zero exponents, given or left by a merge,
    drop out, after which the neighbours may merge in turn."""
    out: list[Syllable] = []
    for gen, exp in pairs:
        if out and out[-1][0] == gen:
            exp += out.pop()[1]
        if exp:
            out.append((gen, exp))
    return tuple(out)


def invert_word(word: Sequence[Syllable]) -> tuple[Syllable, ...]:
    return tuple((i, -e) for i, e in reversed(word))


def join_words(x: Sequence[Syllable], y: Sequence[Syllable]) -> tuple[Syllable, ...]:
    """The product of reduced words x and y: only syllables at the seam can
    merge or cancel."""
    x, k = list(x), 0
    while x and k < len(y) and x[-1][0] == y[k][0]:
        gen, exp = y[k]
        exp += x.pop()[1]
        k += 1
        if exp:
            x.append((gen, exp))
            break
    return tuple(x) + tuple(y[k:])
