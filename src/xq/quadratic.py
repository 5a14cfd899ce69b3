"""Quadratic modules, reduced quadratic modules, 4-dimensional reduced
complexes, their morphisms, and homotopy of morphisms.

Conventions (additive notation, right actions):
    C        = abelianization of the degree-2 group (for the reduced case),
    {x}      = class of x in C,
    (x, y)   = -x - y + x + y,
and the quadratic map omega is given by its values on the basis elements
c_i (x) c_j of C (x) C.

Homotopies (f2, f3, f4) ~ (g2, g3, g4) are witnessed by (alpha2, alpha3):
    -f2 x + g2 x = d3 alpha2(x),
    -f3 h + g3 h = d4 alpha3(h) + alpha2(d3 h),
    -f4 k + g4 k = alpha3(d4 k),
with alpha3 a homomorphism, alpha2 the quadratic derivation extended by
    alpha2(x + y) = alpha2 x + alpha2 y + omega'({-f2 x + g2 x} (x) {f2 y})
(left to right over canonical words, in closed form: `Alpha2`), and both
vanishing on the under-object.  Equations are imposed and verified
generator by generator.
"""

from __future__ import annotations

import functools
from operator import attrgetter, mul
from typing import Sequence

from .crossed import (GroupAction, LinearHomotopy, PreCrossedModule, ShiftedSolutions,
                      _as_rows, _check, _difference_at, _differences, _plus, _square,
                      check_precrossed, decide, hom_checks, peiffer_commutator,
                      system_checks)
from .groups import FgAbelianGroup, Group, GroupHom, coords_of, generator_pairs
from .intlinalg import vec_neg, vec_sub
from .report import Report, Undefined, sampled_report
from .tensor import TensorElement


class ReducedQuadraticModule:
    """omega: C (x) C -> Q3 over d3: Q3 -> Q2 with Q2 nil(2), C = Q2^ab.
    `canonical` says that the omega values are canonical in Q3 already
    (`_omega_table`)."""

    def __init__(self, q2: Group, q3: Group, omega: tuple, d3: GroupHom, canonical: bool = False):
        self.q2, self.q3, self.d3 = q2, q3, d3
        self.omega = _omega_table(omega, q3, q2.ngens, canonical)
        if self.d3.source != self.q3 or self.d3.target != self.q2:
            raise ValueError("d3 must map q3 to q2")

    def omega_apply(self, t: TensorElement):
        """omega of a tensor, folded over entries in row-major order;
        omega of an outer product is `omega_outer`."""
        if t.n != len(self.omega):
            raise ValueError("tensor rank must match rank of C")
        return self.q3.fold((self.omega[i][j], c) for i, j, c in t.entries())

    def omega_outer(self, u: Sequence[int], v: Sequence[int]):
        """omega({u} (x) {v}) for coordinate vectors u, v of C, without
        building the tensor: one fold over the nonzero u_i v_j in row-major
        order, so the same element as `omega_apply(TensorElement.outer(u,
        v))` in any Q3, with the same ValueErrors on bad lengths."""
        if len(u) != len(v):
            raise ValueError("outer product needs vectors of equal length")
        if len(u) != len(self.omega):
            raise ValueError("tensor rank must match rank of C")
        omega = self.omega
        return self.q3.fold((omega[i][j], a * b) for i, a in enumerate(u) if a
                            for j, b in enumerate(v) if b)

    def braces(self, x) -> tuple[int, ...]:
        """{x}: coordinates of x in C = Q2^ab."""
        return self.q2.ab(x)

    @functools.cached_property
    def omega_coords(self) -> list:
        """omega on c_i (x) c_j in the coordinates of Q3 (`coords_of`), in
        row-major order, built on first use and kept with omega, for the
        equations of every morphism from a complex of this module."""
        return [coords_of(self.q3, w) for row in self.omega for w in row]

    @functools.cached_property
    def omega_forms(self) -> list:
        """For each coordinate k of Q3, the matrix of omega_ij's k-th one."""
        n, omega = len(self.omega), self.omega_coords
        return [[[w[k] for w in omega[i * n:(i + 1) * n]] for i in range(n)]
                for k in range(self.q3.ngens)]

    def omega_rows(self, vectors: list) -> list:
        """omega({u} (x) {v}) for all pairs of vectors, in row-major order,
        as the rows of a matrix with one column per pair: coordinate k is
        u B_k v, B_k the k-th of `omega_forms`, as the fold of u_i v_j
        omega_ij (`omega_outer`) before reduction."""
        out = []
        for form in self.omega_forms:
            images = [[sum(map(mul, row, v)) for row in form] for v in vectors]
            out.append([sum(map(mul, u, bv)) for u in vectors for bv in images])
        return out


def _omega_table(omega, q3: Group, n: int, canonical: bool = False) -> tuple:
    """omega's values on the n x n basis of C (x) C, which must be canonical
    in q3 already, such as values of `element_from_json` or of q3's
    operations: a value that `q3.canon` rejects or changes raises, and none
    is replaced by its canonical form.  A caller whose values are canonical
    by construction says so with `canonical`, and they are not reduced
    again: the structure file reader, whose `Group.elements_from_json` has
    reduced each one."""
    omega = tuple(map(tuple, omega))
    if len(omega) != n or any(len(r) != n for r in omega):
        raise ValueError("omega must be given on the n x n basis of C (x) C")
    if not canonical and any(q3.canon(e) != e for r in omega for e in r):
        raise ValueError("omega values must be canonical in Q3")
    return omega


def rqm_check(q: ReducedQuadraticModule) -> Report:
    """Axioms of a reduced quadratic module, decided on generators.

    Axioms 2 to 4 are decided by all generator pairs once d3 is a
    homomorphism, omega is well defined on C and, when Q3 is not abelian as
    presented, every omega value is central (`omega_central`; a value is
    central once it commutes with the generators).  Then x |-> {x} is a
    homomorphism Q2 -> C and b(u, v) = omega(u (x) v) is biadditive on C,
    with central values.
      * Axiom 4: for fixed r, p |-> omega({d3 p} (x) {d3 r}) is a
        homomorphism into the centre, and so is p |-> (p, r) once Q3 is
        nil(2).  If axiom 4 holds on generator pairs, the commutators of
        generators are central, so Q3 modulo its centre is abelian and Q3
        is nil(2); then both sides are biadditive in (p, r) and agree
        everywhere.
      * Axiom 3: omega({d3 p} (x) {x} + {x} (x) {d3 p}) is biadditive in
        (p, x) and depends on x only through {x}, which is a sum of the
        classes of the generators; generator pairs decide it.
      * Axiom 2, when moreover Q2 is structurally nil(2): for fixed y, both
        x |-> d3 omega({x} (x) {y}) and x |-> (x, y) are homomorphisms Q2 ->
        Q2 (commutators are central and bilinear in a nil(2) group), so
        they agree everywhere once they agree on the generators; the same
        holds in y for fixed x.
    Such checks have basis "proved".  When a condition of the argument
    fails, the report fails, and the axioms are scanned on generator pairs
    with no basis.  A valid module loses nothing to the centrality check:
    d3 omega_ij = (g_i, g_j) has class 0 in C, so axiom 4 gives (omega_ij,
    r) = omega(0 (x) {d3 r}) = 0.

    Axioms 3 and 4 decide each distinct pair of classes once, in a memo
    that lives for this call only.  Axiom 3's verdict at (p, x) is omega of
    a tensor built from ({d3 p}, {x}) alone, so pairs with the same two
    classes share it.  When Q3 is abelian as presented, (p, r) is 0 and
    axiom 4's verdict at (p, r) depends only on ({d3 p}, {d3 r}); otherwise
    it is tested pair by pair.  On Q, {d3 p} takes 2 values over the 10
    generators of Q3, so axiom 3 evaluates omega 6 times instead of 30 and
    axiom 4 4 times instead of 100.
    """
    rep = Report("reduced quadratic module")
    g2, g3 = q.q2, q.q3

    gens = () if g2.is_nil2 else g2.generators()
    rep.first_failure("axiom1_q2_nil2",
                      ("triple commutator of generators does not vanish"
                       for x in gens for y in gens for z in gens
                       if not g2.is_identity(g2.commutator(g2.commutator(x, y), z))),
                      note="structural" if g2.is_nil2 else "generator triples", basis="proved")

    premises = [rep.add_hom("d3_is_homomorphism", q.d3)]
    rel_rows = g2.ab_relation_rows()
    premises.append(rep.first_failure(
        "omega_well_defined_on_C",
        _omega_kills(q, rel_rows, g2, "omega does not kill the relation"),
        note="vacuous: C free" if not rel_rows else "relation rows", basis="proved"))
    if not g3.is_abelian:
        premises.append(rep.first_failure(
            "omega_central", (f"omega at basis ({i},{j}) is {g3.format_element(w)}, which is "
                              "not central in Q3" for i, j, w in _noncentral_omega(q.omega, g3)),
            note="omega values against the generators of Q3", basis="proved"))
    bilinear = all(c.passed for c in premises)

    def how(proved: bool) -> dict:
        return (dict(note="all generator pairs; bilinear", basis="proved") if proved
                else dict(note="all generator pairs"))

    boundary = _boundary_classes(q)
    rep.first_failure("axiom2_d3_omega_is_commutator",
                      (f"d3 omega({{x}} (x) {{y}}) != (x, y) at "
                       f"x={g2.format_element(x)}, y={g2.format_element(y)}"
                       for x, y in generator_pairs(g2, g2)
                       if not g2.eq(q.d3(q.omega_outer(q.braces(x), q.braces(y))),
                                    g2.commutator(x, y))), **how(bilinear and g2.is_nil2))
    vanishes = functools.cache(
        lambda bnd, bx: g3.is_identity(q.omega_apply(_boundary_tensor(bnd, bx))))
    rep.first_failure("axiom3_boundary_tensors_vanish",
                      ("omega({d3 p} (x) {x} + {x} (x) {d3 p}) != 0"
                       for p, x in generator_pairs(g3, g2)
                       if not vanishes(boundary(p), q.braces(x))), **how(bilinear))
    rep.first_failure("axiom4_q3_commutators",
                      _q3_commutator_failures(q, boundary, generator_pairs(g3, g3)),
                      **how(bilinear))
    return rep


def _noncentral_omega(omega, q3: Group):
    """(i, j, omega_ij) for each omega value that does not commute with
    every generator of q3, in row-major order; a value that commutes with
    the generators is central."""
    gens = q3.generators()
    return ((i, j, w) for i, row in enumerate(omega) for j, w in enumerate(row)
            if any(not q3.is_identity(q3.commutator(w, z)) for z in gens))


def _omega_kills(q, rows, q2: Group, what: str):
    """Failures, as `what` and the row, of omega to kill a relation row of C
    tensored on either side with the class of a generator of q2."""
    g3 = q.q3
    return (f"{what} {list(row)}"
            for row in rows for ej in map(q.braces, q2.generators())
            if not (g3.is_identity(q.omega_outer(row, ej))
                    and g3.is_identity(q.omega_outer(ej, row))))


def _boundary_classes(q):
    """p |-> {d3 p}: read from `d3.coords_at_generators()` at a generator of
    Q3, which axioms 3 and 4 meet once per generator of Q2 or Q3, and
    computed once for each other p, such as the samples of `qm_check`."""
    at = dict(zip(q.q3.generators(), q.d3.coords_at_generators()))
    return functools.cache(lambda p: at[p] if p in at else q.braces(q.d3(p)))


def _boundary_tensor(bnd, bx) -> TensorElement:
    """{d3 p} (x) {x} + {x} (x) {d3 p}, given bnd = {d3 p} and bx = {x}."""
    return TensorElement.outer(bnd, bx) + TensorElement.outer(bx, bnd)


def _q3_commutator_failures(q, boundary, pairs):
    """Failures of axiom 4, (p, r) = omega({d3 p} (x) {d3 r}), on `pairs`;
    `boundary` is `_boundary_classes(q)`.  In a Q3 abelian as presented,
    (p, r) is 0, and the verdict is decided once per ({d3 p}, {d3 r})."""
    g3 = q.q3
    vanishes = functools.cache(lambda bp, br: g3.is_identity(q.omega_outer(bp, br)))

    def holds(p, r):
        if g3.is_abelian:
            return vanishes(boundary(p), boundary(r))
        return g3.eq(g3.commutator(p, r), q.omega_outer(boundary(p), boundary(r)))
    return ("(p, q) != omega({d3 p} (x) {d3 q})" for p, r in pairs if not holds(p, r))


class UnderCofibration:
    """Cofibration q: base >--> complex, one homomorphism per degree."""

    __slots__ = ("base", "q2", "q3", "q4")

    def __init__(self, base: ReducedQuadraticComplex4, q2: GroupHom, q3: GroupHom,
                 q4: GroupHom):
        self.base, self.q2, self.q3, self.q4 = base, q2, q3, q4


class ReducedQuadraticComplex4:
    """A reduced quadratic module extended by an abelian Q4 --d4--> Q3."""

    def __init__(self, rqm: ReducedQuadraticModule, q4: Group, d4: GroupHom,
                 under: UnderCofibration | None = None,
                 name: str = "reduced quadratic 4-complex"):
        self.rqm, self.q4, self.d4, self.under, self.name = rqm, q4, d4, under, name

    @property
    def under(self) -> UnderCofibration | None:
        """The cofibration from the under-object.  A complex that is its own
        base (D) keeps only the cofibration's maps and builds it on each
        read, so that it holds no reference to itself and is freed without
        the cycle collector."""
        u = self._under
        return UnderCofibration(self, *u) if u.__class__ is tuple else u

    @under.setter
    def under(self, u: UnderCofibration | None) -> None:
        self._under = (u.q2, u.q3, u.q4) if u is not None and u.base is self else u

    @property
    def q2(self) -> Group:
        return self.rqm.q2

    @property
    def q3(self) -> Group:
        return self.rqm.q3

    @property
    def d3(self) -> GroupHom:
        return self.rqm.d3


class QCMorphism:
    """(f2, f3, f4) between reduced quadratic 4-complexes (degree 1 trivial)."""

    __slots__ = ("source", "target", "f2", "f3", "f4", "tag")

    def __init__(self, source: ReducedQuadraticComplex4, target: ReducedQuadraticComplex4,
                 f2: GroupHom, f3: GroupHom, f4: GroupHom, tag: tuple | None = None):
        self.source, self.target, self.f2, self.f3, self.f4 = source, target, f2, f3, f4
        self.tag = tag

    def maps_json(self) -> dict:
        return {"f2": self.f2.element_json(), "f3": self.f3.element_json(),
                "f4": self.f4.element_json()}


def qcm_equations(m: QCMorphism):
    """The conditions on a morphism, in report order, as (check id, map,
    group, equations), the under-checks only when both sides carry
    cofibrations from bases that agree in Q2, Q3 and Q4.  The sides read
    the maps at the canonical generators, as evaluating them on elements
    does.

    In a group abelian as presented the equations of a check are one
    `CoordinateEquations`: the maps' image matrices times the maps' values
    at generators, which each map keeps (`GroupHom.coords_at_generators`),
    and times omega's coordinates, which the source's module keeps
    (`ReducedQuadraticModule.omega_coords`), so per morphism an equation
    costs a few integer products and no element is evaluated.  A
    `*_is_homomorphism` check is read by `hom_checks` through
    `system_checks`, as a homotopy's is: there it has the relation rows as
    equations, which is all `GroupHom.check_hom` tests into such a target.
    In any other group the equations are lazy (lhs, rhs, message) triples
    of elements, and a `*_is_homomorphism` check gives the map, for
    `check_hom`.
    """
    src, tgt = m.source, m.target
    yield from hom_checks({"f2": m.f2, "f3": m.f3, "f4": m.f4})
    n = src.q2.ngens
    yield _square("square_d3", tgt.q2, lambda i: f"f2 d3 != d3' f3 at generator {src.q3.names[i]}",
                  m.f2, src.d3, tgt.d3, m.f3)
    yield _square("square_d4", tgt.q3, lambda i: f"f3 d4 != d4' f4 at generator {src.q4.names[i]}",
                  m.f3, src.d4, tgt.d4, m.f4)
    yield _check(
        "square_omega", tgt.q3, n * n,
        lambda k: f"f3 omega != omega' (f2^ab (x) f2^ab) at basis ({k // n},{k % n})",
        lambda: (m.f3.image_products(src.rqm.omega_coords),
                 tgt.rqm.omega_rows([coords_of(tgt.q2, im) for im in m.f2.images])),
        lambda k: (m.f3(src.rqm.omega[k // n][k % n]),
                   tgt.rqm.omega_outer(*(tgt.q2.ab(m.f2.images[i]) for i in divmod(k, n)))))
    su, tu, degrees = src.under, tgt.under, attrgetter("q2", "q3", "q4")
    if su is None or tu is None or su.base is not tu.base and degrees(su.base) != degrees(tu.base):
        return
    for deg, fh, qs, qt in zip((2, 3, 4), (m.f2, m.f3, m.f4), degrees(su), degrees(tu)):
        yield _check(
            f"under_degree{deg}", qt.target, qs.source.ngens,
            lambda _, deg=deg: f"f does not commute with the cofibration in degree {deg}",
            lambda fh=fh, qs=qs, qt=qt: (fh.image_products(qs.coords_at_generators()),
                                         _as_rows(qt.coords_at_generators(), qt.target.ngens)),
            lambda j, fh=fh, qs=qs, qt=qt: (fh(qs.at_generator(j)), qt.at_generator(j)))


def qcm_check(m: QCMorphism) -> Report:
    """Boundary squares, omega compatibility, and under-object agreement:
    the equations of `qcm_equations`, decided in order (`decide`).  Per
    morphism a check in an abelian group costs its image products over the
    maps' values at generators and one comparison of its sides."""
    return decide(Report("quadratic complex morphism", basis="proved"), qcm_equations(m))


def rqc4_check(c: ReducedQuadraticComplex4) -> Report:
    rep = rqm_check(c.rqm)
    rep.title = c.name
    gens = c.q4.generators()
    rep.first_failure("q4_abelian",
                      (f"generators {c.q4.names[i]} and {c.q4.names[j]} do not commute"
                       for i, p in enumerate(gens) for j, r in enumerate(gens)
                       if not c.q4.is_identity(c.q4.commutator(p, r))),
                      note="structural" if c.q4.is_abelian else "generator pairs",
                      basis="proved")
    rep.add_hom("d4_is_homomorphism", c.d4)
    rep.first_failure("d3_d4_zero", (f"d3 d4 != 0 at generator {c.q4.names[i]}"
                                     for i, k in enumerate(gens)
                                     if not c.q2.is_identity(c.d3(c.d4(k)))), basis="proved")
    if c.under is not None:
        cof = QCMorphism(c.under.base, c, c.under.q2, c.under.q3, c.under.q4)
        sub = qcm_check(cof)
        rep.merge(sub, prefix="under.")
    return rep


# ---------------------------------------------------------------------------
# general (pre-crossed base) quadratic modules: checker only


class QuadraticModule:
    """w-lifted quadratic module over a nil(2) pre-crossed module."""

    def __init__(self, pre: PreCrossedModule, q3: Group, d3: GroupHom, omega: tuple,
                 action3: GroupAction):
        self.pre, self.q3, self.d3, self.action3 = pre, q3, d3, action3
        self.omega = _omega_table(omega, q3, pre.m2.ngens)

    def c_group(self) -> FgAbelianGroup:
        """C = (Q2^cr)^ab, derived mechanically: abelianize, then divide by
        x^m - x for generator pairs (closed under products)."""
        q2, q1 = self.pre.m2, self.pre.m1
        rows = [list(r) for r in q2.ab_relation_rows()]
        for j in range(q2.ngens):
            for a in range(q1.ngens):
                moved = q2.ab(self.pre.action.apply(q2.gen(j), q1.gen(a)))
                rows.append(list(vec_sub(moved, q2.ab(q2.gen(j)))))
        return FgAbelianGroup(q2.ngens, rows, names=q2.names)

    # the same fold: both classes hold omega on the basis of C (x) C and q3
    omega_apply = ReducedQuadraticModule.omega_apply
    omega_outer = ReducedQuadraticModule.omega_outer

    def braces(self, x) -> tuple[int, ...]:
        return self.pre.m2.ab(x)


def qm_check(q: QuadraticModule, samples: int = 200, seed: int | None = None) -> Report:
    rep = sampled_report("quadratic module", samples, seed)
    rep.merge(check_precrossed(q.pre), prefix="base.")
    g2, g3, g1 = q.pre.m2, q.q3, q.pre.m1
    boundary = _boundary_classes(q)

    def nil2_failures():
        for _ in range(samples):
            x, y, z = (g2.random_element(rep.rng) for _ in range(3))
            if not g2.is_identity(peiffer_commutator(
                    q.pre, peiffer_commutator(q.pre, x, y), z)):
                yield "<<x,y>,z> does not vanish"
            if not g2.is_identity(peiffer_commutator(
                    q.pre, x, peiffer_commutator(q.pre, y, z))):
                yield "<x,<y,z>> does not vanish"
    rep.first_failure("axiom1_nil2", nil2_failures(), note=f"{samples} samples",
                      basis="sampled")

    rep.first_failure("omega_well_defined_on_C",
                      _omega_kills(q, q.c_group().ab_relation_rows(), g2,
                                   "omega does not kill the C-relation"))

    rep.add_hom("d3_is_homomorphism", q.d3)
    rep.first_failure("d2_d3_zero", ("d2 d3 != 0" for p in g3.generators()
                                     if not g1.is_identity(q.pre.d(q.d3(p)))))

    sampled = dict(note=f"all generator pairs + {samples} samples", basis="sampled")
    rep.first_failure("axiom2_d3_omega_is_w",
                      ("d3 omega != w (Peiffer lift)"
                       for x, y in generator_pairs(g2, g2, rep.rng, samples)
                       if not g2.eq(q.d3(q.omega_outer(q.braces(x), q.braces(y))),
                                    peiffer_commutator(q.pre, x, y))), **sampled)

    rep.first_failure("axiom3_action_formula",
                      ("q^{d2 x} != q + omega({d3 q}(x){x} + {x}(x){d3 q})"
                       for p, x in generator_pairs(g3, g2, rep.rng, samples)
                       if not g3.eq(q.action3.apply(p, q.pre.d(x)),
                                    g3.op(g3.canon(p),
                                          q.omega_apply(_boundary_tensor(
                                              boundary(p), q.braces(x)))))), **sampled)
    rep.first_failure("axiom4_q3_commutators", _q3_commutator_failures(
        q, boundary, generator_pairs(g3, g3, rep.rng, samples)), **sampled)

    rep.first_failure("d3_equivariant",
                      ("d3 not equivariant"
                       for p in g3.generators() for a in g1.generators()
                       if not g2.eq(q.d3(q.action3.apply(p, a)),
                                    q.pre.action.apply(q.d3(p), a))))

    n = g2.ngens
    w_mats = []
    for a in g1.generators():
        w_cols = [g2.ab(q.pre.action.apply(g2.gen(j), a)) for j in range(n)]
        w_mats.append((a, [[w_cols[j][k] for j in range(n)] for k in range(n)]))
    rep.first_failure("omega_equivariant",
                      ("omega not equivariant"
                       for a, w_mat in w_mats for i in range(n) for j in range(n)
                       if not g3.eq(q.action3.apply(q.omega[i][j], a),
                                    q.omega_apply(TensorElement.basis(n, i, j)
                                                  .induced(w_mat)))))
    return rep


# ---------------------------------------------------------------------------
# homotopy


class QCHomotopy:
    """Witness (alpha2, alpha3): generator images in Q3' and Q4'."""

    __slots__ = ("alpha2", "alpha3")

    def __init__(self, alpha2: tuple, alpha3: tuple):
        self.alpha2, self.alpha3 = alpha2, alpha3

    def to_json(self, target: ReducedQuadraticComplex4) -> dict:
        return {"alpha2": [target.q3.element_to_json(a) for a in self.alpha2],
                "alpha3": [target.q4.element_to_json(a) for a in self.alpha3]}


class Alpha2:
    """alpha2 of a homotopy from f to g, in closed form on normal forms.

    Let f_i = {f2 g_i} and d_i = {g2 g_i} - {f2 g_i} in C'.  The extension
    rule reads the canonical word of x left to right: a letter s g_i, s =
    +-1, met while the running class {-f2 w + g2 w} of the prefix w is R,
    adds s alpha2(g_i) and then the correction omega'((s R + [s < 0] d_i)
    (x) f_i), and R becomes R + s d_i.  Summed over a run of `count`
    repeats of a block (`Group.word_runs`), R grows by count times the
    block's class, so the corrections of a run are one closed form and
    alpha2(x) = V(x) + omega'(T(x)) with T(x) = sum_i u_i (x) f_i:
    V(x) = `GroupHom(q2, Q3', values)(x)` is the fold of the values over
    the canonical word, and the u_i cost O(runs n').  A run of a letters
    of g_i, sign included, adds a R + C(a, 2) d_i to u_i; a commutator
    block leaves R unchanged.

    This is the fold of the letters exactly when the corrections commute
    with the values: always when Q3' is abelian or every d_i is 0 (then
    every correction is 0), and whenever the omega' values are central in
    Q3', as axioms 2 and 4 make them (d3' omega' is a commutator, so
    (omega'_ij, r) = omega'(0 (x) {d3' r}) = 0).  Otherwise Q3' is checked
    for this once; an omega' value that is not central makes alpha2 raise
    `Undefined`, naming it.
    """

    def __init__(self, f: QCMorphism, g: QCMorphism):
        tgt = f.target
        self.src2, self.q3, self.omega_apply = f.source.q2, tgt.q3, tgt.rqm.omega_apply
        self.n = tgt.q2.ngens
        self.fv = [tgt.q2.ab(im) for im in f.f2.images]
        self.dv = [vec_sub(tgt.q2.ab(b), a) for a, b in zip(self.fv, g.f2.images)]
        self.zero = not any(map(any, self.dv))
        q3 = tgt.q3
        self.not_central = None if q3.is_abelian or self.zero else next(
            (f"omega' at basis ({i},{j}) is {q3.format_element(w)}, which is not "
             "central in the target degree-3 group, so alpha2 has no closed form"
             for i, j, w in _noncentral_omega(tgt.rqm.omega, q3)), None)

    def tensor(self, x) -> TensorElement:
        """T(x) in C' (x) C'.  Over `count` repeats of a block whose class
        is `shift`, a letter s g_i met at R + k shift, k < count, adds s
        times count R + C(count, 2) shift to u_i, with R read before the
        letter when s > 0 and after it when s < 0."""
        n = self.n
        run, u = [0] * n, [[0] * n for _ in self.fv]
        for block, count in self.src2.word_runs(x):
            shift = [sum(s * self.dv[i][k] for i, s in block) for k in range(n)]
            pairs, at = count * (count - 1) // 2, run
            for i, s in block:
                di = self.dv[i]
                if s < 0:
                    at = [a - d for a, d in zip(at, di)]
                u[i] = [w + s * (count * a + pairs * c) for w, a, c in zip(u[i], at, shift)]
                if s > 0:
                    at = [a + d for a, d in zip(at, di)]
            run = [r + count * c for r, c in zip(run, shift)]
        return TensorElement(n, tuple(
            tuple(sum(ui[p] * fi[q] for ui, fi in zip(u, self.fv)) for q in range(n))
            for p in range(n)))

    def correction(self, x):
        """omega'(T(x)): what alpha2(x) adds to the fold of the values."""
        if self.not_central is not None:
            raise Undefined(self.not_central)
        return self.q3.identity() if self.zero else self.omega_apply(self.tensor(x))

    def __call__(self, values: GroupHom, x):
        """alpha2(x) for the values on the source degree-2 generators given
        as a hom, V."""
        return self.q3.op(values(x), self.correction(x))


def alpha2_extend(values: Sequence, f: QCMorphism, g: QCMorphism, x):
    """Evaluate alpha2 on x by the extension rule, given its values on the
    source degree-2 generators (`Alpha2`)."""
    return Alpha2(f, g)(GroupHom(f.source.q2, f.target.q3, values), x)


def rq_homotopy_system(f: QCMorphism, g: QCMorphism, form: Alpha2 | None = None):
    """The equations of a homotopy from f to g on generators, in report
    order, as (check id, group, terms, rhs).  Equation j of a check reads

        sum over terms (k, weights, left) of left alpha_k(x_j) = rhs_j

    in the coordinates of the group, modulo its relations: alpha_2 and
    alpha_3 are the homotopy's maps on the source groups of degrees 2 and 3,
    x_j is the point whose coordinates are weights[j], and left() is a map
    whose image matrix multiplies the value (None for none).  rhs, by rows
    and None for 0, is -f + g at the generators less alpha2's
    corrections (`Alpha2`) at the points where the equations read alpha2;
    it is given only in a group abelian as presented.  `verify_rq_homotopy`
    evaluates these equations at a witness, and `rq_homotopy_decision`
    solves them, with degree 2 replaced by `LinearHomotopy.degree2`.  form
    is `Alpha2(f, g)`, built when not given."""
    src, tgt = f.source, f.target
    q3, form, under = tgt.q3, form or Alpha2(f, g), src.under
    at2, at3 = ([coords_of(grp, x) for x in grp.generators()] for grp in (src.q2, src.q3))

    def rhs(grp: Group, fk: GroupHom | None, gk: GroupHom | None, points=None) -> list | None:
        """-fk + gk at the generators (0 without them) less alpha2's
        corrections at the elements points()."""
        rows = None if fk is None else _differences(grp, fk, gk)
        if grp.is_abelian and points is not None and not form.zero:
            rows = _plus(_as_rows([vec_neg(coords_of(q3, form.correction(x))) for x in points()],
                                  q3.ngens), rows)
        return rows
    yield "alpha3_is_homomorphism", tgt.q4, [(3, src.q3.ab_relation_rows(), None)], None
    yield "homotopy_degree2", tgt.q2, [(2, at2, lambda: tgt.d3)], rhs(tgt.q2, f.f2, g.f2)
    yield ("homotopy_degree3", q3, [(2, src.d3.coords_at_generators(), None),
                                    (3, at3, lambda: tgt.d4)],
           rhs(q3, f.f3, g.f3, lambda: map(src.d3.at_generator, range(src.q3.ngens))))
    yield ("homotopy_degree4", tgt.q4, [(3, src.d4.coords_at_generators(), None)],
           rhs(tgt.q4, f.f4, g.f4))
    if under is not None:
        yield ("alpha2_vanishes_on_under", q3, [(2, under.q2.coords_at_generators(), None)],
               rhs(q3, None, None, lambda: map(under.q2.at_generator, range(under.base.q2.ngens))))
        yield "alpha3_vanishes_on_under", tgt.q4, [(3, under.q3.coords_at_generators(), None)], None


def verify_rq_homotopy(f: QCMorphism, g: QCMorphism, h: QCHomotopy,
                       alpha2: Alpha2 | None = None, system=None) -> Report:
    """Re-check a homotopy witness equation by equation on generators, as
    `qcm_check` decides a morphism's equations: in a group abelian as
    presented the equations of `rq_homotopy_system`, as
    `CoordinateEquations` of their sides at the witness (`system_checks`);
    in any other group alpha3 itself, for `check_hom`, or lazy triples of
    elements, with alpha2 by `Alpha2`.  The maps' values at generators are
    built once and kept on the maps for every witness; per call the values
    are canonicalized into alpha2 and alpha3, and each check costs as in
    `qcm_check`.  alpha2 is `Alpha2(f, g)` and system the list of
    `rq_homotopy_system(f, g, alpha2)`, each built here when the caller
    does not hold it already, as the decider does for its
    re-verification."""
    src, tgt = f.source, f.target
    q2, q3, q4 = tgt.q2, tgt.q3, tgt.q4
    alpha2, values = alpha2 or Alpha2(f, g), GroupHom(src.q2, q3, h.alpha2)
    alpha3, under = GroupHom(src.q3, q4, h.alpha3), src.under
    checks = {
        "homotopy_degree2": (
            lambda i: f"-f2 + g2 != d3' alpha2 at generator {src.q2.names[i]}",
            lambda i: (_difference_at(q2, f.f2, g.f2, i), tgt.d3(values.images[i]))),
        "homotopy_degree3": (
            lambda i: f"-f3 + g3 != d4' alpha3 + alpha2 d3 at generator {src.q3.names[i]}",
            lambda i: (_difference_at(q3, f.f3, g.f3, i), q3.op(
                tgt.d4(alpha3.at_generator(i)), alpha2(values, src.d3.at_generator(i))))),
        "homotopy_degree4": (
            lambda i: f"-f4 + g4 != alpha3 d4 at generator {src.q4.names[i]}",
            lambda i: (_difference_at(q4, f.f4, g.f4, i), alpha3(src.d4.at_generator(i)))),
        "alpha2_vanishes_on_under": (
            lambda j: "alpha2 does not vanish on "
                      f"{under.base.q2.format_element(under.base.q2.generators()[j])}",
            lambda j: (alpha2(values, under.q2.at_generator(j)), q3.identity())),
        "alpha3_vanishes_on_under": (
            lambda j: "alpha3 does not vanish on "
                      f"{under.base.q3.format_element(under.base.q3.generators()[j])}",
            lambda j: (alpha3(under.q3.at_generator(j)), q4.identity())),
    }
    return decide(Report("quadratic homotopy certificate", basis="proved"), system_checks(
        system or rq_homotopy_system(f, g, alpha2), {2: values, 3: alpha3}, checks))


def rq_homotopy_decision(f: QCMorphism, g: QCMorphism, shift: Sequence | None = None
                         ) -> tuple[QCHomotopy | ShiftedSolutions | None, Report]:
    """Decide f ~ g and produce the canonical verified witness or an
    obstruction, by the integer linear system of `LinearHomotopy`.

    The system is `rq_homotopy_system`'s, the equations the verifier
    checks, each handed to `LinearHomotopy.add_rows` as it stands, with
    degree 2 given by `LinearHomotopy.degree2`; the same list, with its
    `Alpha2`, is handed to the re-verification.  alpha2 enters them through
    its affine form alpha2(x) = sum_i {x}_i alpha2(g_i) + omega'(T(x))
    (`Alpha2`), so the system is linear.  Complete whenever the target has
    abelian coordinates in degrees 3 and 4 and its d3 is central on
    generators (zero, or landing in the centre, as on every abelian
    degree-2 target).  Raises ValueError otherwise, naming the first
    generator whose d3' value is not central; the cylinder Q is such a
    target (d3(e3) = -e + e' + e'').

    With `shift`, one element of the target Q3 per source degree-3
    generator, the decision is about the family g_t that agrees with g
    except g_t3(h) = g3(h) + t shift(h).  g3 enters only the right-hand side
    -f3 h + g3 h of the degree-3 equations, which is affine in t as Q3' is
    abelian, so t is one more unknown of the same system, with the shift at
    the generators as its term.  The result is its `ShiftedSolutions` (None
    when no t admits a homotopy): the canonical values of each member's
    witness, without another decision, for the caller to build and certify
    (`sphere.FamilyDecisions`).
    """
    lin = LinearHomotopy(f, g, "quadratic homotopy")
    src, tgt = f.source, f.target
    if shift is not None:
        t, by = lin.shift_unknown(), GroupHom(src.q3, tgt.q3, shift).image_products(
            [coords_of(src.q3, x) for x in src.q3.generators()])
        shift = [[(t, [-r[j] for r in by])] for j in range(src.q3.ngens)]
    alpha2 = lin.degree2(tgt.d3, f.f2, g.f2)
    if alpha2 is None:
        return None, lin.rep
    blocks = {2: alpha2, 3: lin.unknowns(src.q3.ngens, tgt.q4, 4)}
    form = Alpha2(f, g)
    system = list(rq_homotopy_system(f, g, form))
    for check_id, grp, terms, rhs in system:
        if check_id != "homotopy_degree2":
            lin.add_rows(grp, terms, rhs, blocks, shift if check_id == "homotopy_degree3" else None)
    solved = lin.solve()
    if solved is None or shift is not None:
        return solved, lin.rep
    witness = QCHomotopy(*solved)
    lin.accept(verify_rq_homotopy(f, g, witness, form, system), witness.to_json(tgt))
    return witness, lin.rep
