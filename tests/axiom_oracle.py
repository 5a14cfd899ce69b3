"""The sampled scans of the reduced quadratic module axioms 2 to 4, kept as a
reference for the checks `rqm_check` proves on generator pairs: each axiom
is tested on all generator pairs and then on `samples` random pairs, drawn
axiom by axiom from one seeded generator.  Returns {check id: witness},
None for a pass."""

import random

from xq.groups import generator_pairs
from xq.tensor import TensorElement


def sampled_axioms(q, samples=1000, seed=0):
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
        for x, y in generator_pairs(g2, g2, rng, samples)
        if not g2.eq(q.d3(q.omega_apply(TensorElement.outer(q.braces(x), q.braces(y)))),
                     g2.commutator(x, y)))
    out["axiom3_boundary_tensors_vanish"] = first(
        "omega({d3 p} (x) {x} + {x} (x) {d3 p}) != 0"
        for p, x in generator_pairs(g3, g2, rng, samples)
        if not g3.is_identity(q.omega_apply(boundary_tensor(p, x))))
    out["axiom4_q3_commutators"] = first(
        "(p, q) != omega({d3 p} (x) {d3 q})"
        for p, r in generator_pairs(g3, g3, rng, samples)
        if not g3.eq(g3.commutator(p, r), q.omega_apply(
            TensorElement.outer(q.braces(q.d3(p)), q.braces(q.d3(r))))))
    return out
