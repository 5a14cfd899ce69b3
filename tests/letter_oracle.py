"""Letter-by-letter references, kept for tests: the canonical word of an
element spelled as signed generators (g, +-1), the free nil(2) normal form
of such a word folded one letter at a time, and the alpha2 extension rule
walked letter by letter.  The package reads normal forms as runs instead;
these spell every exponent out, so their cost is linear in the sum of the
exponents and tests feed them small elements."""

from xq import nil2
from xq.groups import FreeGroup, FreeNil2Group
from xq.intlinalg import vec_neg, vec_sub
from xq.tensor import TensorElement


def spell(gen, exp):
    """The syllable exp g_gen as |exp| signed letters."""
    return [(gen, 1 if exp > 0 else -1)] * abs(exp)


def word_of(group, x):
    """The canonical word of x: the syllables of a free-group element, the
    coordinates of an abelian one in generator order, or for a free nil(2)
    element its base in generator order and then each basic commutator
    (g_i, g_j), i < j, with exponent c as c copies of -g_i - g_j + g_i + g_j
    (-c copies of -g_j - g_i + g_j + g_i when c < 0)."""
    x = group.canon(x)
    if isinstance(group, FreeGroup):
        return tuple(letter for i, e in x for letter in spell(i, e))
    base = x.base if isinstance(group, FreeNil2Group) else x
    out = [letter for i, e in enumerate(base) for letter in spell(i, e)]
    if isinstance(group, FreeNil2Group):
        for c, (i, j) in zip(x.comm, nil2.pair_list(group.ngens)):
            block = ([(i, -1), (j, -1), (i, 1), (j, 1)] if c > 0
                     else [(j, -1), (i, -1), (j, 1), (i, 1)])
            out += block * abs(c)
    return tuple(out)


def normalize_word(letters, n):
    """Free nil(2) normal form of a word of letters (i, +-1), one
    multiplication per letter."""
    acc = nil2.identity(n)
    for i, s in letters:
        g = nil2.generator(n, i)
        acc = nil2.mul(acc, g if s > 0 else nil2.inv(g))
    return acc


def alpha2_steps(word, f, g):
    """The extension rule on a word of letters (i, s): yields (i, s, c) per
    letter, meaning alpha2 gains s alpha2(x_i) and then the correction c in
    the target Q3."""
    tgt = f.target
    f2ab = [tgt.q2.ab(im) for im in f.f2.images]
    g2ab = [tgt.q2.ab(im) for im in g.f2.images]
    run = [0] * tgt.q2.ngens  # {g2 w} - {f2 w} on the prefix w read so far
    for i, s in word:
        dvec = vec_sub(g2ab[i], f2ab[i])
        step = f2ab[i] if s > 0 else vec_neg(f2ab[i])
        corr = tgt.omega_apply(TensorElement.outer(run, step))
        if s < 0:
            corr = tgt.q3.op(tgt.omega_apply(TensorElement.outer(dvec, f2ab[i])), corr)
        yield i, s, corr
        run = [a + s * b for a, b in zip(run, dvec)]


def alpha2_fold(values, f, g, x):
    """alpha2(x) folded letter by letter over the canonical word of x, each
    value and correction in order, as the target Q3 need not be abelian."""
    q3 = f.target.q3
    acc = q3.identity()
    for i, s, corr in alpha2_steps(word_of(f.source.q2, x), f, g):
        val = q3.canon(values[i])
        acc = q3.op_all(acc, val if s > 0 else q3.inv(val), corr)
    return acc


def alpha2_affine(f, g, x):
    """The affine form of alpha2 on x, letter by letter: the coefficient of
    each source generator's value and the sum of the corrections, in an
    abelian target Q3."""
    q3 = f.target.q3
    coeffs = [0] * f.source.q2.ngens
    const = q3.identity()
    for i, s, corr in alpha2_steps(word_of(f.source.q2, x), f, g):
        coeffs[i] += s
        const = q3.op(const, corr)
    return tuple(coeffs), const
