"""The letter-by-letter homomorphism evaluator, kept as a reference for
`GroupHom.__call__`: spell x as its canonical word and fold the image of
each letter, or its inverse, in order; and the letter-by-letter action, kept
as a reference for `GroupAction.apply`.  Their cost is linear in the sum of
the exponents, so tests feed them small elements."""


def letter_eval(hom, x):
    t = hom.target
    acc = t.identity()
    for i, s in hom.source.word_of(hom.source.canon(x)):
        img = hom.images[i]
        acc = t.op(acc, img if s > 0 else t.inv(img))
    return acc


def letter_act(action, x, a):
    """x^a, applying the endomorphism of each letter of a's canonical word."""
    out = action.acted.canon(x)
    for i, s in action.acting.word_of(action.acting.canon(a)):
        out = action.endo(i, s)(out)
    return out
