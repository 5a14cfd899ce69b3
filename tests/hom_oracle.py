"""The letter-by-letter homomorphism evaluator, kept as a reference for
`GroupHom.__call__`: spell x as its canonical word and fold the image of
each letter, or its inverse, in order; and the letter-by-letter action, kept
as a reference for `GroupAction.apply`.  Their cost is linear in the sum of
the exponents, so tests feed them small elements.  Also the sampled scan of
the nil(2) laws that `GroupHom.check_hom` ran before generator triples were
shown to decide them."""

from letter_oracle import word_of


def letter_eval(hom, x):
    t = hom.target
    acc = t.identity()
    for i, s in word_of(hom.source, x):
        img = hom.images[i]
        acc = t.op(acc, img if s > 0 else t.inv(img))
    return acc


def letter_act(action, x, a):
    """x^a, applying the endomorphism of each letter of a's canonical word."""
    out = action.acted.canon(x)
    for i, s in word_of(action.acting, a):
        out = action.endo(i, s)(out)
    return out


def sampled_check_hom(hom, rng, samples):
    """The verdict of `GroupHom.check_hom` when it still sampled the nil(2)
    laws of a nil(2) source in a target that is not nil(2): relation rows,
    all generator triples, then `samples` triples of images of random
    elements."""
    t, images = hom.target, hom.images
    if any(not t.is_identity(img) for _, img in hom.relation_images()):
        return False
    n = hom.source.ngens
    if any(not t.is_identity(t.commutator(t.commutator(images[a], images[b]), images[c]))
           for a in range(n) for b in range(n) for c in range(n)):
        return False
    for _ in range(samples):
        x, y, z = (hom(hom.source.random_element(rng)) for _ in range(3))
        if not t.is_identity(t.commutator(t.commutator(x, y), z)):
            return False
    return True
