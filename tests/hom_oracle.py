"""The letter-by-letter homomorphism evaluator, kept as a reference for
`GroupHom.__call__`: spell x as its canonical word and fold the image of
each letter, or its inverse, in order.  Its cost is linear in the sum of
the exponents, so tests feed it small elements."""


def letter_eval(hom, x):
    t = hom.target
    acc = t.identity()
    for i, s in hom.source.word_of(hom.source.canon(x)):
        img = hom.images[i]
        acc = t.op(acc, img if s > 0 else t.inv(img))
    return acc
