"""The case study: the sphere structure D, the mapping-cylinder complex Q,
retraction enumeration and classification, homology constraints, and the
count of diagonal-fixing self-map classes of S^2 x S^2.

Topological inputs are not computed; they are carried as a declarative axiom
manifest attached to every report produced here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (FgAbelianGroup, FreeAbelianGroup, FreeNil2Group, Group,
                     GroupHom, abelian_coords_info)
from .intlinalg import ZSystem, solve_one_unknown, vec_neg, vec_sub
from .monoid import mbar_elements
from .quadratic import (QCHomotopy, QCMorphism, ReducedQuadraticComplex4,
                        ReducedQuadraticModule, UnderCofibration, morphism_frame,
                        qcm_check, qcm_equations, rq_homotopic,
                        rq_homotopy_decision, rqc4_check)
from .report import Report
from .tensor import TensorElement

PI4_S2_ORDER = 2

AXIOMS = (
    "pi_4(S^2) = Z/2",
    "pi_4(S^2 x S^2) = Z/2 + Z/2",
    "diagonal-fixing self-map classes of S^2 x S^2 split as pairs of "
    "diagonal-fixing classes of maps to one factor",
    "diagonal-fixing classes of maps to a factor form free pi_4(S^2)-orbits "
    "over the homotopy classes of algebraic retractions of the cylinder model",
    "I acts as the identity on both sides of the Z/2 + Z/2 bimodule "
    "(unit axiom; not displayed in the composition table)",
)


def derive_reduced_q3(q2: Group, cells):
    """Present the degree-3 group of the reduced complex freely generated by
    the given cells: generators are the cells followed by the n^2 omega
    symbols; the relation rows are derived mechanically from the reduced
    quadratic module axioms (3) and (4), the latter forcing commutativity.

    Returns (relation rows, boundary images for all generators)."""
    n = q2.ngens
    ncells = len(cells)
    ngens = ncells + n * n
    boundaries = [q2.canon(c) for c in cells]
    boundaries += [q2.commutator(q2.gen(i), q2.gen(j))
                   for i in range(n) for j in range(n)]
    ab = [q2.ab(x) for x in boundaries]

    def tensor_row(t: TensorElement) -> list[int]:
        row = [0] * ngens
        for i, j, c in t.entries():
            row[ncells + n * i + j] += c
        return row

    rows: list[list[int]] = []
    basis = [q2.ab(q2.gen(x)) for x in range(n)]
    for v in ab:
        if any(v):
            for ex in basis:
                rows.append(tensor_row(TensorElement.outer(v, ex)
                                       + TensorElement.outer(ex, v)))
    for vp in ab:
        if any(vp):
            for vq in ab:
                if any(vq):
                    rows.append(tensor_row(TensorElement.outer(vp, vq)))
    return [r for r in rows if any(r)], boundaries


def build_sphere_D() -> ReducedQuadraticComplex4:
    """D2 = Z<e> (free nil(2) of rank 1), D3 = Z<w(e,e)>, d3 = 0, omega an
    isomorphism, D4 = 0; carries the identity cofibration."""
    d2 = FreeNil2Group(1, names=("e",))
    d3 = FreeAbelianGroup(1, names=("w(e,e)",))
    rqm = ReducedQuadraticModule(d2, d3, ((d3.gen(0),),), GroupHom.zero(d3, d2))
    d4 = FgAbelianGroup(0)
    cx = ReducedQuadraticComplex4(rqm, d4, GroupHom.zero(d4, d3),
                                  name="sphere structure D")
    cx.under = UnderCofibration(cx, GroupHom.identity(d2),
                                GroupHom.identity(d3), GroupHom.identity(d4))
    return cx


def build_cylinder_Q(d: ReducedQuadraticComplex4 | None = None
                     ) -> ReducedQuadraticComplex4:
    """The reduced quadratic 4-complex of the mapping cylinder: Q2 free
    nil(2) on e, e', e''; Q3 generated by the 3-cell e3 (boundary
    -e + e' + e'') and the omega symbols, with mechanically derived
    relations; Q4 = Z<e4> with d4(e4) = w(e',e'') + w(e'',e')."""
    if d is None:
        d = build_sphere_D()
    q2 = FreeNil2Group(3, names=("e", "e'", "e''"))
    cell = q2.op_all(q2.inv(q2.gen(0)), q2.gen(1), q2.gen(2))
    rels, boundaries = derive_reduced_q3(q2, [cell])
    names = ["e3"] + [f"w({q2.names[i]},{q2.names[j]})"
                      for i in range(3) for j in range(3)]
    q3 = FgAbelianGroup(1 + 9, rels, names=names)
    omega = tuple(tuple(q3.gen(1 + 3 * i + j) for j in range(3)) for i in range(3))
    d3 = GroupHom(q3, q2, boundaries)
    ok, why = d3.check_hom()
    if not ok:
        raise AssertionError(f"derived relations are not killed by d3: {why}")
    rqm = ReducedQuadraticModule(q2, q3, omega, d3)
    # commutativity of Q3 is a consequence of the axioms, not an input:
    # every generator-pair commutator equals omega({d3 p} (x) {d3 q}), which
    # must already die in the derived presentation.
    for vp in (q2.ab(x) for x in boundaries):
        for vq in (q2.ab(x) for x in boundaries):
            val = rqm.omega_apply(TensorElement.outer(vp, vq))
            if not q3.is_identity(val):
                raise AssertionError("derived presentation is not abelian-consistent")
    q4 = FreeAbelianGroup(1, names=("e4",))
    d4 = GroupHom(q4, q3, [q3.op(q3.gen(1 + 3 * 1 + 2), q3.gen(1 + 3 * 2 + 1))])
    under = UnderCofibration(d,
                             GroupHom(d.q2, q2, [q2.gen(0)]),
                             GroupHom(d.q3, q3, [q3.gen(1)]),
                             GroupHom(d.q4, q4, []))
    return ReducedQuadraticComplex4(rqm, q4, d4, under,
                                    name="mapping cylinder structure Q")


def solve_homology_constraints(search_range: int = 5) -> tuple[list[tuple[int, int, int]], Report]:
    """All integer solutions of 2a(1-a) = 0, 2b(1-b) = 0, k = a + b - 2ab
    with |a|, |b| <= search_range, plus the symbolic certificate that the
    first two equations force a, b in {0, 1} over Z."""
    rep = Report("homology constraints for diagonal-fixing self-maps")
    rep.meta["search_range"] = search_range
    sols = []
    for a in range(-search_range, search_range + 1):
        for b in range(-search_range, search_range + 1):
            if 2 * a * (1 - a) == 0 and 2 * b * (1 - b) == 0:
                sols.append((a, b, a + b - 2 * a * b))
    sols.sort()
    rep.witnesses = [{"a": a, "b": b, "k": k} for (a, b, k) in sols]
    rep.add("certificate_a", all(a in (0, 1) for a, _, _ in sols),
            note="2a(1-a) = 0 over Z: 2 and the factors a, 1-a are not zero "
                 "divisors, so a = 0 or a = 1")
    rep.add("certificate_b", all(b in (0, 1) for _, b, _ in sols),
            note="same factorization in b")
    expected = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    rep.add("solution_set", sols == expected,
            None if sols == expected else f"got {sols}")
    return sols, rep


def retraction_candidate(q: ReducedQuadraticComplex4, d: ReducedQuadraticComplex4,
                         a: int, b: int, r: int) -> QCMorphism:
    """The candidate retraction with f2 = (e, a e, b e) and f3(e3) = r w(e,e);
    the omega-symbol images are forced by omega compatibility."""
    f2_images = [d.q2.gen(0), d.q2.pow(d.q2.gen(0), a), d.q2.pow(d.q2.gen(0), b)]
    f2 = GroupHom(q.q2, d.q2, f2_images)
    f3_images = [d.q3.pow(d.q3.gen(0), r)]
    for i in range(3):
        for j in range(3):
            forced = d.omega_apply(TensorElement.outer(
                d.braces(f2_images[i]), d.braces(f2_images[j])))
            f3_images.append(forced)
    f3 = GroupHom(q.q3, d.q3, f3_images)
    f4 = GroupHom.zero(q.q4, d.q4)
    return QCMorphism(q, d, f2, f3, f4, tag=(a, b, r))


def enumerate_retractions(q: ReducedQuadraticComplex4, d: ReducedQuadraticComplex4,
                          ab_range: int = 2, r_bound: int = 1) -> list[QCMorphism]:
    """All morphisms Q -> D under D within the parameter box |a|, |b| <=
    ab_range, |r| <= r_bound, i.e. the candidates passing every morphism
    check (boundary squares, omega compatibility, and g q = id on the
    under-object), in the order (a, b, r) ascending.

    r is solved for, not scanned.  For fixed (a, b), r enters a candidate only
    through f3(e3) = r w(e,e).  With abelian coordinates on the target in
    degrees 2-4 (so the target is nil(2), and the homomorphism checks are
    exactly the relation-row equations), each side of every equation of
    `qcm_equations` is affine in r modulo the target's relation rows, so its
    defect is defect(0) + r (defect(1) - defect(0)).  The candidates at r = 0
    and r = 1 give one `ZSystem` block per equation in the single unknown r;
    its solutions in [-r_bound, r_bound] are built and each is re-checked
    with `qcm_check`.  The cost is 2 (2 ab_range + 1)^2 probe candidates plus one
    check per morphism kept, independent of r_bound for fixed (a, b).

    Raises ValueError when the target has no abelian coordinates in degrees
    2, 3 or 4, and RuntimeError if a solved candidate fails `qcm_check`.
    """
    coords = {grp: abelian_coords_info(grp) for grp in (d.q2, d.q3, d.q4)}
    if any(info is None for info in coords.values()):
        raise ValueError("solving for r needs abelian coordinates on the "
                         "target in degrees 2, 3 and 4")
    frame = morphism_frame(q, d)
    out = []
    for a in range(-ab_range, ab_range + 1):
        for b in range(-ab_range, ab_range + 1):
            system = ZSystem()
            (rv,) = system.new_vars(1)
            probes = [qcm_equations(retraction_candidate(q, d, a, b, r), frame)
                      for r in (0, 1)]
            for (_, _, grp, eqs0), (_, _, _, eqs1) in zip(*probes):
                dim, to_coords, _, rows = coords[grp]
                for (lhs0, rhs0, _), (lhs1, rhs1, _) in zip(eqs0, eqs1):
                    at0 = vec_sub(to_coords(lhs0), to_coords(rhs0))
                    at1 = vec_sub(to_coords(lhs1), to_coords(rhs1))
                    system.add(dim, [(rv, vec_sub(at1, at0))], vec_neg(at0), rows)
            for r in solve_one_unknown(system, r_bound):
                m = retraction_candidate(q, d, a, b, r)
                if not qcm_check(m, samples=5, seed=0).ok:
                    raise RuntimeError(f"internal error: solved candidate {m.tag} "
                                       "fails the morphism checks")
                out.append(m)
    return out


@dataclass
class RetractionClass:
    """witnesses[k] is the homotopy from the representative to members[k]
    (None for the representative itself)."""

    ab: tuple[int, int]
    members: list[QCMorphism]
    representative: QCMorphism
    witnesses: list[QCHomotopy | None]


def classify_retractions(morphisms: list[QCMorphism]) -> list[RetractionClass]:
    """Partition into homotopy classes, greedily against representatives.

    Candidates with r = 0 are taken first (a stable sort), so the member that
    opens a class, its representative, is the one with r = 0 when present.
    Every other member keeps the witness of its homotopy from the
    representative.  Members and classes are listed in input order."""
    order = sorted(range(len(morphisms)),
                   key=lambda k: not (morphisms[k].tag and morphisms[k].tag[2] == 0))
    opened: list[tuple[QCMorphism, list]] = []  # representative, [(index, witness)]
    for k in order:
        for representative, entries in opened:
            witness = rq_homotopic(representative, morphisms[k])
            if witness is not None:
                entries.append((k, witness))
                break
        else:
            opened.append((morphisms[k], [(k, None)]))
    for _, entries in opened:
        entries.sort(key=lambda e: e[0])
    opened.sort(key=lambda o: o[1][0][0])
    classes = []
    for representative, entries in opened:
        first = morphisms[entries[0][0]]
        classes.append(RetractionClass((first.tag[0], first.tag[1]) if first.tag else (0, 0),
                                       [morphisms[k] for k, _ in entries], representative,
                                       [w for _, w in entries]))
    return classes


def classification_report(ab_range: int = 3, r_bound: int = 10,
                          samples: int = 100, seed: int | None = None) -> Report:
    """Full classification run: structures checked, retractions enumerated
    and classified, canonical witnesses and a cross-class obstruction
    recorded, homology route compared."""
    rep = Report("classification of retraction classes under D")
    rep.axioms = list(AXIOMS)
    rep.meta.update(ab_range=ab_range, r_bound=r_bound)
    d = build_sphere_D()
    q = build_cylinder_Q(d)
    for name, cx in (("D", d), ("Q", q)):
        chk = rqc4_check(cx, samples=samples, seed=seed)
        first_fail = None if chk.ok else chk.failed()[0].check_id
        rep.add(f"structure_{name}_valid", chk.ok, first_fail)
    morphisms = enumerate_retractions(q, d, ab_range, r_bound)
    rep.meta["retractions"] = len(morphisms)
    classes = classify_retractions(morphisms)
    rep.add("two_classes", len(classes) == 2, f"found {len(classes)} classes")
    ab_set = sorted(c.ab for c in classes)
    rep.add("classes_are_projection_types", ab_set == [(0, 1), (1, 0)],
            f"(a,b) sets {ab_set}")
    sols, _ = solve_homology_constraints(max(ab_range, 2))
    top = sorted({(a, b) for (a, b, k) in sols if k == 1})
    rep.add("independent_routes_agree", top == ab_set,
            f"homology route {top} vs retraction route {ab_set}")
    rep.meta["classes"] = [{"ab": list(c.ab),
                            "representative": list(c.representative.tag),
                            "members": [list(m.tag) for m in c.members]}
                           for c in classes]
    for c in classes:
        for m, witness in zip(c.members, c.witnesses):
            if witness is None:  # the representative, against itself
                witness = rq_homotopic(m, m)
            rep.witnesses.append({"pair": [list(c.representative.tag), list(m.tag)],
                                  **witness.to_json(d)})
    if len(classes) == 2:
        _, crep = rq_homotopy_decision(classes[0].representative,
                                       classes[1].representative)
        rep.obstructions.extend(
            {**o, "pair": [list(classes[0].representative.tag),
                           list(classes[1].representative.tag)]}
            for o in crep.obstructions)
        rep.add("cross_class_obstruction", bool(crep.obstructions),
                "expected an obstruction between the two classes")
    count = (len(classes) * PI4_S2_ORDER) ** 2
    rep.meta["count"] = count
    rep.add("count_equals_extended_monoid_order", count == len(mbar_elements()),
            f"{count} != {len(mbar_elements())}")
    return rep


def assemble_selfmap_count(ab_range: int = 2, r_bound: int = 2,
                           orbit_count: int | None = None) -> Report:
    """count = (orbit_count * |pi_4(S^2)|)^2, cross-checked against the
    extended monoid order; unexpected orbit counts flag the derivation."""
    rep = Report("count of diagonal-fixing self-map classes")
    rep.axioms = list(AXIOMS)
    if orbit_count is None:
        d = build_sphere_D()
        q = build_cylinder_Q(d)
        classes = classify_retractions(enumerate_retractions(q, d, ab_range, r_bound))
        orbit_count = len(classes)
        rep.meta["orbit_count_source"] = (f"classification with ab_range={ab_range}, "
                                          f"r_bound={r_bound}")
    else:
        rep.meta["orbit_count_source"] = "supplied"
    per_factor = orbit_count * PI4_S2_ORDER
    count = per_factor ** 2
    rep.meta.update(orbit_count=orbit_count, pi4_s2_order=PI4_S2_ORDER,
                    per_factor=per_factor, count=count,
                    derivation="count = (orbit_count * |pi_4(S^2)|)^2")
    rep.add("orbit_count_is_2", orbit_count == 2,
            f"classification produced {orbit_count} classes")
    rep.add("count_equals_extended_monoid_order",
            count == len(mbar_elements()),
            f"derived {count}, extended monoid has {len(mbar_elements())}")
    return rep
