"""Scans kept as references for checks that `xq` decides without them.

`group_law_failures` tests the group laws on random elements of a group
class, the scan a `group` file's check once ran; the check now reports the
laws as holding by construction of the normal forms, and this scan is the
evidence for that claim.

The pair-by-pair scans of the reduced quadratic module axioms 2 to 4 are a
reference for `rqm_check`, which proves them on generator pairs and decides
each distinct pair of classes once.

`sampled_axioms` tests each axiom on all generator pairs and then on
`samples` random pairs, drawn axiom by axiom from one seeded generator, and
returns {check id: witness}, None for a pass.  `per_pair_axioms` repeats
the scan `rqm_check` makes, on generator pairs only and every pair tested
on its own, with the basis "proved" where the conditions of its argument
hold, and returns {check id: (passed, witness, note, basis)}."""

import random

from xq.groups import generator_pairs
from xq.tensor import TensorElement

AXIOMS = ("axiom2_d3_omega_is_commutator", "axiom3_boundary_tensors_vanish",
          "axiom4_q3_commutators")


def scan_axioms(q, samples, seed):
    """{check id: witness} of the scans, axiom k drawing samples[k] pairs."""
    rng = random.Random(seed)
    g2, g3 = q.q2, q.q3

    def boundary_tensor(p, x):
        bnd, bx = q.braces(q.d3(p)), q.braces(x)
        return TensorElement.outer(bnd, bx) + TensorElement.outer(bx, bnd)

    def first(failures):
        return next(iter(failures), None)

    out = {}
    out["axiom2_d3_omega_is_commutator"] = first(
        f"d3 omega({{x}} (x) {{y}}) != (x, y) at "
        f"x={g2.format_element(x)}, y={g2.format_element(y)}"
        for x, y in generator_pairs(g2, g2, rng, samples["axiom2_d3_omega_is_commutator"])
        if not g2.eq(q.d3(q.omega_apply(TensorElement.outer(q.braces(x), q.braces(y)))),
                     g2.commutator(x, y)))
    out["axiom3_boundary_tensors_vanish"] = first(
        "omega({d3 p} (x) {x} + {x} (x) {d3 p}) != 0"
        for p, x in generator_pairs(g3, g2, rng, samples["axiom3_boundary_tensors_vanish"])
        if not g3.is_identity(q.omega_apply(boundary_tensor(p, x))))
    out["axiom4_q3_commutators"] = first(
        "(p, q) != omega({d3 p} (x) {d3 q})"
        for p, r in generator_pairs(g3, g3, rng, samples["axiom4_q3_commutators"])
        if not g3.eq(g3.commutator(p, r), q.omega_apply(
            TensorElement.outer(q.braces(q.d3(p)), q.braces(q.d3(r))))))
    return out


def group_law_failures(g, samples, seed):
    """{law: the first element at which it fails, or None} for
    associativity, identity, inverses and idempotence of the canonical form
    on `samples` random triples of elements of g."""
    rng = random.Random(seed)
    draws = [tuple(g.random_element(rng) for _ in range(3)) for _ in range(samples)]
    e = g.identity()
    laws = {
        "associativity": lambda x, y, z: g.eq(g.op(g.op(x, y), z), g.op(x, g.op(y, z))),
        "identity": lambda x, y, z: g.eq(g.op(x, e), x) and g.eq(g.op(e, x), x),
        "inverses": lambda x, y, z: g.is_identity(g.op(x, g.inv(x))),
        "canonical_form_idempotent": lambda x, y, z: g.canon(x) == g.canon(g.canon(x)),
    }
    return {law: next((g.format_element(d[0]) for d in draws if not holds(*d)), None)
            for law, holds in laws.items()}


def sampled_axioms(q, samples=1000, seed=0):
    return scan_axioms(q, dict.fromkeys(AXIOMS, samples), seed)


def per_pair_axioms(q):
    g2, g3 = q.q2, q.q3
    classes = [q.braces(x) for x in g2.generators()]
    omega_on_c = all(g3.is_identity(q.omega_apply(t))
                     for row in g2.ab_relation_rows() for c in classes
                     for t in (TensorElement.outer(row, c), TensorElement.outer(c, row)))
    central = all(g3.is_identity(g3.commutator(w, z))
                  for row in q.omega for w in row for z in g3.generators())
    bilinear = central and q.d3.check_hom()[0] and omega_on_c
    proved = {"axiom2_d3_omega_is_commutator": bilinear and g2.is_nil2,
              "axiom3_boundary_tensors_vanish": bilinear,
              "axiom4_q3_commutators": bilinear}
    witnesses = scan_axioms(q, dict.fromkeys(AXIOMS, 0), 0)
    return {k: (w is None, w) + (("all generator pairs; bilinear", "proved") if proved[k]
                                 else ("all generator pairs", None))
            for k, w in witnesses.items()}
