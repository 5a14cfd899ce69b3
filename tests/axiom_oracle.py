"""Pair-by-pair scans of the reduced quadratic module axioms 2 to 4, kept as
a reference for `rqm_check`, which proves them on generator pairs and
decides each distinct pair of classes once.

`sampled_axioms` tests each axiom on all generator pairs and then on
`samples` random pairs, drawn axiom by axiom from one seeded generator, and
returns {check id: witness}, None for a pass.  `per_pair_axioms` repeats
the scan `rqm_check` makes, every pair tested on its own: an axiom the
classes make bilinear is scanned on generator pairs only, and returns
{check id: (passed, witness, note, basis)}."""

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


def sampled_axioms(q, samples=1000, seed=0):
    return scan_axioms(q, dict.fromkeys(AXIOMS, samples), seed)


def per_pair_axioms(q, samples, seed):
    g2, g3 = q.q2, q.q3
    classes = [q.braces(x) for x in g2.generators()]
    omega_on_c = all(g3.is_identity(q.omega_apply(t))
                     for row in g2.ab_relation_rows() for c in classes
                     for t in (TensorElement.outer(row, c), TensorElement.outer(c, row)))
    bilinear = g3.is_abelian and q.d3.check_hom()[0] and omega_on_c
    proved = {"axiom2_d3_omega_is_commutator": bilinear and g2.is_nil2,
              "axiom3_boundary_tensors_vanish": bilinear,
              "axiom4_q3_commutators": bilinear}
    witnesses = scan_axioms(q, {k: 0 if proved[k] else samples for k in AXIOMS}, seed)
    return {k: (w is None, w) + (("all generator pairs; bilinear", "proved") if proved[k]
                                 else (f"all generator pairs + {samples} samples", "sampled"))
            for k, w in witnesses.items()}
