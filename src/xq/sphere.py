"""The case study: the sphere structure D, the mapping-cylinder complex Q,
retraction enumeration and classification, homology constraints, and the
count of diagonal-fixing self-map classes of S^2 x S^2.

Topological inputs are not computed; they are carried as a declarative axiom
manifest attached to every report produced here.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter

from .groups import FgAbelianGroup, FreeAbelianGroup, FreeNil2Group, Group, GroupHom
from .intlinalg import Lattice, ZSystem, vec_neg
from .monoid import mbar_elements
from .quadratic import (QCHomotopy, QCMorphism, ReducedQuadraticComplex4,
                        ReducedQuadraticModule, UnderCofibration, qcm_check,
                        qcm_equations, rq_homotopy_decision, rqc4_check,
                        verify_rq_homotopy)
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
    relations; Q4 = Z<e4> with d4(e4) = w(e',e'') + w(e'',e').

    Nothing is checked here: `rqc4_check` decides that the derived
    relations are killed by d3 (`d3_is_homomorphism`) and that Q3 is
    commutative, as axiom (4) forces (`axiom4_q3_commutators`)."""
    if d is None:
        d = build_sphere_D()
    q2 = FreeNil2Group(3, names=("e", "e'", "e''"))
    cell = q2.op_all(q2.inv(q2.gen(0)), q2.gen(1), q2.gen(2))
    rels, boundaries = derive_reduced_q3(q2, [cell])
    names = ["e3"] + [f"w({q2.names[i]},{q2.names[j]})"
                      for i in range(3) for j in range(3)]
    q3 = FgAbelianGroup(1 + 9, rels, names=names)
    omega = tuple(tuple(q3.gen(1 + 3 * i + j) for j in range(3)) for i in range(3))
    rqm = ReducedQuadraticModule(q2, q3, omega, GroupHom(q3, q2, boundaries))
    q4 = FreeAbelianGroup(1, names=("e4",))
    d4 = GroupHom(q4, q3, [q3.op(q3.gen(1 + 3 * 1 + 2), q3.gen(1 + 3 * 2 + 1))])
    under = UnderCofibration(d,
                             GroupHom(d.q2, q2, [q2.gen(0)]),
                             GroupHom(d.q3, q3, [q3.gen(1)]),
                             GroupHom(d.q4, q4, []))
    return ReducedQuadraticComplex4(rqm, q4, d4, under,
                                    name="mapping cylinder structure Q")


def solve_homology_constraints() -> tuple[list[tuple[int, int, int]], Report]:
    """All integer solutions of 2a(1-a) = 0, 2b(1-b) = 0, k = a + b - 2ab,
    listed from the factorization rather than searched for.

    Z has no zero divisors and 2 != 0, so 2a(1-a) = 0 holds exactly when
    one of the factors a, 1-a is 0: a = 0 or a = 1, and likewise b.  The
    solutions are therefore the four (a, b) in {0, 1}^2 with their k; the
    report checks that each root solves its equation."""
    rep = Report("homology constraints for diagonal-fixing self-maps")
    roots = (0, 1)  # the roots of the factors a and 1 - a
    sols = [(a, b, a + b - 2 * a * b) for a in roots for b in roots]
    rep.witnesses = [{"a": a, "b": b, "k": k} for (a, b, k) in sols]
    rep.add("certificate_a", all(2 * a * (1 - a) == 0 for a, _, _ in sols),
            note="2a(1-a) = 0 over Z: 2 and the factors a, 1-a are not zero "
                 "divisors, so a = 0 or a = 1")
    rep.add("certificate_b", all(2 * b * (1 - b) == 0 for _, b, _ in sols),
            note="same factorization in b")
    return sols, rep


def retraction_candidate(q: ReducedQuadraticComplex4, d: ReducedQuadraticComplex4,
                         a: int, b: int, r: int) -> QCMorphism:
    """The candidate retraction with f2 = (e, a e, b e) and f3(e3) = r w(e,e);
    the omega-symbol images are forced by omega compatibility, read from D's
    omega forms (`ReducedQuadraticModule.omega_rows`), so D3 must be
    abelian."""
    f2 = GroupHom(q.q2, d.q2, [d.q2.pow(d.q2.gen(0), k) for k in (1, a, b)])
    forced = zip(*d.rqm.omega_rows([d.q2.ab(x) for x in f2.images]))
    f3 = GroupHom(q.q3, d.q3, [d.q3.pow(d.q3.gen(0), r)] + list(map(d.q3.from_ab, forced)))
    f4 = GroupHom.zero(q.q4, d.q4)
    return QCMorphism(q, d, f2, f3, f4, tag=(a, b, r))


def family_member(base: QCMorphism, r: int) -> QCMorphism:
    """The candidate (a, b, r), given base, a candidate (a, b, r') of its
    r-family: base with f3(e3) = r w(e,e), sharing its f2, f4 and forced
    omega-symbol images."""
    q3 = base.target.q3
    return QCMorphism(base.source, base.target, base.f2,
                      base.f3.with_image(0, q3.pow(q3.gen(0), r)), base.f4, base.tag[:2] + (r,))


def retraction_shift(q: ReducedQuadraticComplex4, d: ReducedQuadraticComplex4) -> tuple:
    """What candidate (a, b, r + 1) adds to the f3 images of (a, b, r), per
    generator of Q3: w(e,e) on e3 and 0 on the omega symbols."""
    return (d.q3.gen(0),) + (d.q3.identity(),) * (q.q3.ngens - 1)


# Six points that determine a polynomial of total degree <= 2 in (a, b),
# and the point (a, b, r) at which the fit is checked.
NEWTON_POINTS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
GUARD_POINT = (-1, 2, 2)

# In the binomial basis p(a, b) = c00 + a c10 + b c01 + C(a,2) c20 + ab c11
# + C(b,2) c02, the coefficients are integer finite differences of the
# values at NEWTON_POINTS (c10 = p(1,0) - p(0,0), c20 = p(2,0) - 2 p(1,0) +
# p(0,0), ...); row k gives the k-th coefficient.
FINITE_DIFFERENCES = ((1, 0, 0, 0, 0, 0),
                      (-1, 1, 0, 0, 0, 0),
                      (-1, 0, 1, 0, 0, 0),
                      (1, -2, 0, 1, 0, 0),
                      (1, -1, -1, 0, 1, 0),
                      (1, 0, -2, 0, 0, 1))


def monomials(a: int, b: int) -> tuple[int, ...]:
    """The non-constant monomials of the binomial basis: a, b, C(a,2), ab,
    C(b,2)."""
    return (a, b, a * (a - 1) // 2, a * b, b * (b - 1) // 2)


def enumerate_retractions(q: ReducedQuadraticComplex4, d: ReducedQuadraticComplex4,
                          ab_range: int = 2, r_bound: int = 1) -> list[Retraction]:
    """All morphisms Q -> D under D within the parameter box |a|, |b| <=
    ab_range, |r| <= r_bound, i.e. the candidates passing every morphism
    check (boundary squares, omega compatibility, and g q = id on the
    under-object), in the order (a, b, r) ascending.

    The equations are fitted once, not evaluated per box point.  The target
    needs abelian coordinates in degrees 2-4, so it is nil(2) and the
    homomorphism checks of `qcm_equations` are exactly its relation-row
    equations.  Modulo the target's relation rows, every coordinate of the
    defect lhs - rhs of every equation is then an integer polynomial of
    total degree <= 2 in (a, b) plus r times a vector that does not depend
    on (a, b):
      * f2 sends e, e', e'' to e, a e, b e, all in <e>, so the coordinates
        of f2 on any fixed source element are linear in (a, b);
      * f3 sends the omega symbols to omega'({f2 x} (x) {f2 y}), and
        omega' is bilinear, so those images are of degree <= 2 in (a, b);
      * r enters only through f3(e3) = r w(e,e), linearly, and f4 = 0;
      * each side of an equation is one of these images, a constant, or a
        fixed homomorphism (d3', d4', a relation row) applied to them.
    So the defects at `NEWTON_POINTS` with r = 0 give the coefficients c00,
    c10, ..., c02 of the defect at every (a, b, 0) in the binomial basis
    (`FINITE_DIFFERENCES`), and the defect at (0, 0, 1) minus that at (0,
    0, 0) is the coefficient S of r.  The candidate at `GUARD_POINT` must
    match the fit modulo the rows; a mismatch raises ValueError naming the
    equation.

    The fit is then solved, in one `ZSystem` whose unknowns are the
    monomials u = `monomials(a, b)` and then r: c00 + sum_k u_k c_k + r S
    == 0 modulo the rows, with S a coefficient column like the c_k.  Its
    solutions are a coset (u0, r0) + K, and its kernel K, in echelon form,
    serves every (a, b) as one `Lattice`.  Only the box points of K's
    projection onto (a, b) are visited, listed from the projection's
    echelon basis (`Lattice.coset_points`).  The rows of K with a pivot
    before r decide the monomial coordinates of a reduction and the row
    with its pivot at r, if any, only shifts r, so one `reduce` of (u, 0)
    decides a point: some r solves it exactly when the reduction is (u0, x)
    for some x, and then the r that solve it are r0 - x plus the r-parts of
    the kernel rows that vanish before r, listed in [-r_bound, r_bound] by
    `Lattice.coset_points`.  On Q -> D the coset is (0, 1, 0, 0, 0, 0) +
    Z(1, -1, 0, 0, 0, 0) + Z(0, 0, 0, 0, 0, 1): the visited points are the
    (a, 1 - a) in the box, the kept ones (0, 1) and (1, 0), and every r
    solves them.  A kept point's r are its r-family, listed as
    `Retraction`s by tag: from the candidate (a, b, 0) only the first three
    members are built (`family_member`).

    A family is certified by `qcm_check` on its first three members (all,
    when it has fewer), independently of the fit.  At fixed (a, b) each
    defect is D + r S modulo the rows.  If it vanishes at consecutive
    members r1 and r1 + s, then s S vanishes, and so does the defect at
    every member r1 + k s.  Only at members: torsion in the rows can kill
    s S but not S (the Z/6 doubling target of the tests has s = 3).  The
    third member guards the claim that the defect is affine in r.  Cost:
    the coordinates of Q's and D's maps and omega once; per probe, a
    candidate and image products over them (`CoordinateEquations`); one
    `ZSystem` solve, one `reduce` per visited point, and per r-family one
    `retraction_candidate` and 3 members built and checked; only the
    visited points and the member tags grow with the box.

    Raises ValueError when the target has no abelian coordinates in degrees
    2, 3 or 4 or the fit misses its guard, and RuntimeError, naming the
    member, if a family's certificate fails.
    """
    if not all(grp.is_abelian for grp in (d.q2, d.q3, d.q4)):
        raise ValueError("solving for r needs abelian coordinates on the "
                         "target in degrees 2, 3 and 4")

    def defects(a, b, r):
        """(check id, equations, index, lhs - rhs) per equation: every
        target group is abelian, so every check's equations are
        `CoordinateEquations`, read by column."""
        return [(check_id, eqs, j, vec)
                for check_id, _, _, eqs in qcm_equations(retraction_candidate(q, d, a, b, r))
                for j, vec in enumerate(eqs.columns())]

    probes = [defects(a, b, 0) for a, b in NEWTON_POINTS]
    probes += [defects(0, 0, 1), defects(*GUARD_POINT)]
    # the coordinates of all equations end to end, each with its 8 probe
    # values, and each equation's relation rows padded to that length
    columns = list(zip(*([x for *_, vec in probe for x in vec] for probe in probes)))
    spans, rows, start = [], [], 0
    for check_id, eqs, j, _ in probes[0]:
        dim, grp_rows = eqs.grp.ngens, eqs.grp.ab_relation_rows()
        rows += [[0] * start + list(row) + [0] * (len(columns) - start - dim)
                 for row in grp_rows]
        spans.append((check_id, eqs, j, start, start + dim, grp_rows))
        start += dim
    slope = [col[6] - col[0] for col in columns]
    constant, *coefficients = ([sum(w * v for w, v in zip(row, col)) for col in columns]
                               for row in FINITE_DIFFERENCES)

    def fitted(a, b):
        return [c + sum(u * x for u, x in zip(monomials(a, b), xs))
                for c, *xs in zip(constant, *coefficients)]

    a, b, r = GUARD_POINT
    miss = [col[7] - x - r * s for col, x, s in zip(columns, fitted(a, b), slope)]
    for check_id, eqs, j, lo, hi, grp_rows in spans:
        if miss[lo:hi] not in Lattice(hi - lo, grp_rows):
            raise ValueError(f"the defect of {check_id} ({eqs.message(j)}) is not quadratic "
                             f"in (a, b) and affine in r: the fit misses it at "
                             f"(a, b, r) = {GUARD_POINT}")

    system = ZSystem()  # the unknowns: the monomials, then r
    system.add(len(columns), zip(system.new_vars(len(coefficients) + 1),
                                 coefficients + [slope]), vec_neg(constant), rows)
    solved = system.solve()
    if solved is None:
        return []
    u0, kernel = solved
    n = len(coefficients)
    coset = Lattice(n + 1, kernel)
    plane = Lattice(2, [row[:2] for row in kernel])
    fibre = Lattice(1, [row[n:] for row in kernel if not any(row[:n])])
    out = []
    for a, b in plane.coset_points(u0[:2], ab_range):
        point = coset.reduce(monomials(a, b) + (0,))
        if point[:n] != u0[:n]:
            continue
        rs = [r for r, in fibre.coset_points((u0[n] - point[n],), r_bound)]
        if not rs:
            continue
        base = retraction_candidate(q, d, a, b, 0)
        checked = [family_member(base, r) for r in rs[:3]]
        for m in checked:
            if not qcm_check(m).ok:
                raise RuntimeError(f"internal error: solved candidate {m.tag} "
                                   "fails the morphism checks")
        out += [Retraction((a, b, r), checked[0]) for r in rs]
    return out


class Retraction:
    """A solved retraction candidate, by its tag (a, b, r).  `base` is
    the morphism of the first member of its r-family, built and checked when
    the family was solved; `family_member(base, r)` builds the member's."""

    __slots__ = ("tag", "base")

    def __init__(self, tag: tuple[int, int, int], base: QCMorphism):
        self.tag, self.base = tag, base


class RetractionClass:
    def __init__(self, ab: tuple[int, int], members: list[Retraction],
                 representative: Retraction):
        self.ab, self.members, self.representative = ab, members, representative


class FamilyDecisions:
    """Homotopy decisions between r-families of retractions (the
    `Retraction`s that share (a, b)): one per ordered pair of families,
    between their first members (`Retraction.base`), made when first needed
    and kept.

    For retractions f = (a, b, r) and g = (a', b', r'), r and r' enter the
    homotopy equations (`rq_homotopy_system`, which `rq_homotopy_decision`
    solves and `verify_rq_homotopy` checks) only through -f3(e3) + g3(e3)
    = (r' - r) w(e,e); the rest is built from f2, g2 and the f3 images of
    the omega symbols, which (a, b) and (a', b') fix.  So the decision
    between the first members f0, g0 of two families, with the shift
    unknown t on g0 (`retraction_shift`), holds the system of every pair of
    their members: f ~ g exactly when t = (r' - r) - (r(g0) - r(f0)) admits
    a solution, and the witness at that t is the one the pair's own
    decision would give.  Members are decided by tag, without building
    their morphisms, and one witness entry per pair of families
    (`family_witness`) gives the witness of every pair of their members.

    A decision that admits some t is verified once for all its members
    (`_certify`), not per witness: the canonical values at t0 and, when
    step is not 0, at t0 + step, as homotopies from f0 to g0 shifted by t,
    and each t = 0 kernel row as a homotopy of f0 with itself (all pairs
    share the equations' linear part; for f0 with itself c = 0 below).  Q3'
    and Q4' are abelian, so each equation the verifier checks, which is an
    equation of the decided system, reads phi(t, u) = c, phi a
    homomorphism of t and the values' coordinates u: it holds at integer
    affine combinations of points where it holds, plus kernel rows.
    `solution_at(t)` is u0 + q step_row minus kernel rows, such a point,
    though the floor in `Lattice.reduce` is not affine in q.  A failing
    certificate raises RuntimeError."""

    def __init__(self):
        self.made: dict[tuple, tuple] = {}

    def decide(self, f: Retraction, g: Retraction) -> tuple:
        """(`ShiftedSolutions` or None, report) for the families of f and g."""
        key = (f.base, g.base)
        if key not in self.made:
            f0, g0 = key
            shift = retraction_shift(f0.source, f0.target)
            decided = rq_homotopy_decision(f0, g0, shift)
            if decided[0] is not None:
                self._certify(f0, g0, shift, decided[0])
            self.made[key] = decided
        return self.made[key]

    @staticmethod
    def _certify(f0: QCMorphism, g0: QCMorphism, shift: tuple, solutions) -> None:
        """Verify a decision's certificate; RuntimeError names a failing point."""
        q3, t0 = g0.target.q3, solutions.t0

        def shifted(t: int) -> QCMorphism:
            """g0 with t shift added to its f3 images, as the unknown t reads
            it; `op` and `pow` give canonical values, so they are kept."""
            return QCMorphism(g0.source, g0.target, g0.f2, GroupHom.of_canonical(
                g0.source.q3, q3, [q3.op(im, q3.pow(s, t)) for im, s in zip(g0.f3.images, shift)]),
                g0.f4, g0.tag)

        points = [(f"t = {t}", shifted(t), solutions.lin.values(solutions.solution_at(t)))
                  for t in dict.fromkeys((t0, t0 + solutions.step))]
        points += [(f"t = 0 kernel row {list(row)}", f0, solutions.lin.values(row))
                   for row in solutions.kernel0.basis()]
        for where, g, values in points:
            if not verify_rq_homotopy(f0, g, QCHomotopy(*values)).ok:
                raise RuntimeError("internal error: the homotopy certificate of r-families "
                                   f"{f0.tag[:2]} and {g0.tag[:2]} fails at {where}")

    def homotopic(self, f: Retraction, g: Retraction) -> bool:
        solutions, _ = self.decide(f, g)
        return solutions is not None and solutions.admits(self._shift(f, g))

    def _shift(self, f: Retraction, g: Retraction) -> int:
        return (g.tag[2] - f.tag[2]) - (g.base.tag[2] - f.base.tag[2])

    def family_witness(self, f: Retraction, g: Retraction) -> dict:
        """The witness entry of the families of f and g, which must be
        homotopic: their decision's `ShiftedSolutions` and the layout of its
        unknowns (`CoordinateBlock.to_json`), with the shift read as t =
        r(g) - r(f) for members f and g of the two families.  That adds
        r(g0) - r(f0) to unknown 0 and moves nothing else; t0 is then
        reduced into [0, step) and u0 is the reduced solution there, so the
        entry depends on the families alone.  The canonical witness of f ~ g
        is read block by block from `kernel.reduce(u0 + q step_row)` at t =
        t0 + q step (docs/structure-format.md)."""
        solutions, _ = self.decide(f, g)
        delta = g.base.tag[2] - f.base.tag[2]
        t0 = solutions.t0 + delta
        if solutions.step:
            t0 %= solutions.step
        u0 = solutions.solution_at(t0 - delta)
        return {"families": [list(f.tag[:2]), list(g.tag[:2])],
                "t0": t0, "step": solutions.step, "u0": [t0, *u0[1:]],
                "step_row": list(solutions.step_row) if solutions.step else None,
                "kernel": [list(row) for row in solutions.kernel0.basis()],
                "blocks": {name: block.to_json()
                           for name, block in zip(("alpha2", "alpha3"), solutions.lin.blocks)}}

    def report(self, f: Retraction, g: Retraction) -> Report:
        """The report of `rq_homotopy_decision` of f's and g's morphisms.
        When no t admits a homotopy, the family decision's refutation names
        no t, so its report is that report; otherwise f and g are decided
        afresh."""
        solutions, rep = self.decide(f, g)
        return rep if solutions is None else rq_homotopy_decision(
            family_member(f.base, f.tag[2]), family_member(g.base, g.tag[2]))[1]


def classify_retractions(members: list[Retraction],
                         decisions: FamilyDecisions | None = None
                         ) -> list[RetractionClass]:
    """Partition solved retractions into homotopy classes, with one homotopy
    decision per pair of r-families (`FamilyDecisions`) and none per member.

    The members must be `Retraction`s of `enumerate_retractions`: the family
    argument needs members that share (a, b) to differ only by r w(e,e) on
    e3.  Anything else raises ValueError.

    Two members of one family are homotopic exactly when their r agree
    modulo the step of the family's decision with itself (r itself when
    the step is 0).  So what is partitioned is the pairs (family, residue
    of r), each run of members of one family split by residue, and a class
    is a union of such pairs: a pair's first member joins the class of the
    first class opener it is homotopic to, or opens a class, and the rest of
    the pair follows it.  On Q -> D the step is 1, and each family is one
    class.  The representative of a class is its first member with r = 0,
    or its first member when none has r = 0.  Members and classes are
    listed in input order.  As homotopy is an equivalence relation, these
    are the classes and representatives of the greedy loop that decides
    each member against the representatives, r = 0 members first; the
    canonical witness of a member m follows from
    `decisions.family_witness(c.representative, m)`."""
    if not set(map(type, members)) <= {Retraction}:
        raise ValueError("not a tagged retraction candidate: classify Retractions")
    if decisions is None:
        decisions = FamilyDecisions()
    classes: list[list[Retraction]] = []
    for _, run in groupby(members, lambda m: m.base):
        run = list(run)
        # the step of the family's decision with itself; 0 when it admits no shift
        step = getattr(decisions.decide(run[0], run[0])[0], "step", 0)
        pairs: dict[int, list[Retraction]] = {}
        for m in run:
            pairs.setdefault(m.tag[2] % step if step else m.tag[2], []).append(m)
        for pair in pairs.values():
            opened = next((c for c in classes if decisions.homotopic(c[0], pair[0])), [])
            if not opened:
                classes.append(opened)
            opened += pair
    return [RetractionClass(c[0].tag[:2], c, next((m for m in c if m.tag[2] == 0), c[0]))
            for c in classes]


def family_witnesses(decisions: FamilyDecisions, classes: list[RetractionClass]) -> list[dict]:
    """One witness entry (`FamilyDecisions.family_witness`) per pair of a
    class representative's family and a member's family, in class and
    member order; the members of a family are consecutive in a class."""
    pairs = {(c.representative.tag[:2], base.tag[:2]): (c.representative, next(run))
             for c in classes for base, run in groupby(c.members, attrgetter("base"))}
    return [decisions.family_witness(f, g) for f, g in pairs.values()]


def classification_report(ab_range: int = 3, r_bound: int = 10) -> Report:
    """Full classification run: structures checked, retractions enumerated
    and classified, canonical witnesses and a cross-class obstruction
    recorded, homology route compared.

    The members are tags, and each class is a union of r-families, so the
    text costs what it prints.  The witnesses are one entry per pair of
    families (`family_witnesses`), from which each member's follows, so
    they cost the same at every box."""
    rep = Report("classification of retraction classes under D")
    rep.axioms = list(AXIOMS)
    rep.meta.update(ab_range=ab_range, r_bound=r_bound)
    d = build_sphere_D()
    q = build_cylinder_Q(d)
    for name, cx in (("D", d), ("Q", q)):
        chk = rqc4_check(cx)
        first_fail = None if chk.ok else chk.failed()[0].check_id
        rep.add(f"structure_{name}_valid", chk.ok, first_fail)
    members = enumerate_retractions(q, d, ab_range, r_bound)
    rep.meta["retractions"] = len(members)
    decisions = FamilyDecisions()
    classes = classify_retractions(members, decisions)
    rep.add("two_classes", len(classes) == 2, f"found {len(classes)} classes")
    ab_set = sorted(c.ab for c in classes)
    rep.add("classes_are_projection_types", ab_set == [(0, 1), (1, 0)],
            f"(a,b) sets {ab_set}")
    sols, _ = solve_homology_constraints()
    top = sorted({(a, b) for (a, b, k) in sols if k == 1})
    rep.add("independent_routes_agree", top == ab_set,
            f"homology route {top} vs retraction route {ab_set}")
    rep.meta["classes"] = [{"ab": list(c.ab),
                            "representative": list(c.representative.tag),
                            "members": [list(m.tag) for m in c.members]}
                           for c in classes]
    rep.witnesses = family_witnesses(decisions, classes)
    if len(classes) == 2:
        crep = decisions.report(classes[0].representative,
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

