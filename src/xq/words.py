"""Words over free generators: signed letters with free reduction.

A letter is (generator index, sign) with sign +1 or -1; a word is a tuple of
letters.  Input may carry arbitrary exponents, which are split into signed
letters before reduction.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Letter = tuple[int, int]


def reduce_word(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Unique freely reduced form: cancel adjacent (i, s)(i, -s) pairs."""
    out: list[Letter] = []
    for i, s in letters:
        if s not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {s}")
        if out and out[-1][0] == i and out[-1][1] == -s:
            out.pop()
        else:
            out.append((i, s))
    return tuple(out)


def invert_word(letters: Sequence[Letter]) -> tuple[Letter, ...]:
    return tuple((i, -s) for i, s in reversed(letters))


def concat_words(*words: Sequence[Letter]) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for w in words:
        out.extend(w)
    return reduce_word(out)


def word_from_pairs(pairs: Iterable[Sequence[int]]) -> tuple[Letter, ...]:
    """Expand [(gen, exponent), ...] with arbitrary exponents into letters."""
    out: list[Letter] = []
    for gen, exp in pairs:
        sign = 1 if exp > 0 else -1
        out.extend((gen, sign) for _ in range(abs(exp)))
    return reduce_word(out)


def letter_run(gen: int, exp: int) -> tuple[tuple[Letter, ...], int]:
    """The run gen^exp, exp != 0, as (block of one letter, count)."""
    return ((gen, 1 if exp > 0 else -1),), abs(exp)


def word_to_pairs(letters: Sequence[Letter]) -> list[list[int]]:
    """Collapse runs of equal letters into [gen, exponent] pairs."""
    out: list[list[int]] = []
    for i, s in letters:
        if out and out[-1][0] == i and (out[-1][1] > 0) == (s > 0):
            out[-1][1] += s
        else:
            out.append([i, s])
    return out
