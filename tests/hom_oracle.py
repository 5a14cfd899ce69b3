"""The letter-by-letter homomorphism evaluator, kept as a reference for
`GroupHom.__call__`: spell x as its canonical word and fold the image of
each letter, or its inverse, in order; and the letter-by-letter action, kept
as a reference for `GroupAction.apply`.  Their cost is linear in the sum of
the exponents, so tests feed them small elements.  Also the sampled scan of
the nil(2) laws that `GroupHom.check_hom` ran before generator triples were
shown to decide them.  And the coordinates of maps at generators read
from values evaluated as elements, kept as a reference for
`GroupHom.coords_at_generators` and the tables of `quadratic.Coordinates`."""

from xq.groups import coords_of

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


def coords_at_generators_by_elements(hom):
    """The coordinates of hom at its source's canonical generators read as
    they were before `GroupHom.coords_at_generators`: each value evaluated
    as an element (`GroupHom.__call__`), then abelianized (`coords_of`)."""
    return [coords_of(hom.target, hom(x)) for x in hom.source.generators()]


def coordinate_tables_by_elements(c):
    """The tables of `quadratic.Coordinates` that read the maps of complex c
    at generators, built by evaluating each map at each generator as an
    element: name -> table."""
    boundaries = [c.d3.at_generator(i) for i in range(c.q3.ngens)]
    tables = {"boundaries": boundaries,
              "d3": [coords_of(c.q2, x) for x in boundaries],
              "d4": coords_at_generators_by_elements(c.d4)}
    if c.under is not None:
        maps = (c.under.q2, c.under.q3, c.under.q4)
        tables["under"] = {k: coords_at_generators_by_elements(h)
                           for k, h in zip((2, 3, 4), maps)}
        tables["under_rows"] = {k: [list(r) for r in zip(*cols)]
                                or [[] for _ in range(h.target.ngens)]
                                for (k, cols), h in zip(tables["under"].items(), maps)}
    return tables
