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
from operator import add, mul, sub
from typing import Sequence

from .crossed import (GroupAction, LinearHomotopy, PreCrossedModule,
                      ShiftedSolutions, check_precrossed, peiffer_commutator)
from .groups import (FgAbelianGroup, Group, GroupHom, coords_of, generator_pairs,
                     relation_lattice)
from .intlinalg import vec_neg, vec_sub
from .report import Report, Undefined, sampled_report
from .tensor import TensorElement


class ReducedQuadraticModule:
    """omega: C (x) C -> Q3 over d3: Q3 -> Q2 with Q2 nil(2), C = Q2^ab."""

    def __init__(self, q2: Group, q3: Group, omega: tuple, d3: GroupHom):
        self.q2, self.q3, self.d3 = q2, q3, d3
        self.omega = _omega_table(omega, q3, q2.ngens)
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


def _omega_table(omega, q3: Group, n: int) -> tuple:
    """omega's values on the n x n basis of C (x) C, canonical in q3."""
    omega = tuple(tuple(q3.canon(e) for e in row) for row in omega)
    if len(omega) != n or any(len(r) != n for r in omega):
        raise ValueError("omega must be given on the n x n basis of C (x) C")
    return omega


def rqm_check(q: ReducedQuadraticModule, samples: int = 200,
              seed: int | None = None) -> Report:
    """Axioms of a reduced quadratic module, on generators and, where the
    group classes leave an axiom unproved, on `samples` random elements.

    Axioms 2 to 4 are decided by all generator pairs, and draw no samples,
    when the classes make them bilinear.  The argument needs d3 to be a
    homomorphism and omega to be well defined on C; when either check before
    them fails, the axioms are sampled.  Then x |-> {x} is a homomorphism
    Q2 -> C and, when Q3 is abelian as presented, b(u, v) = omega(u (x) v)
    is biadditive on C.
      * Axiom 4: (p, r) is 0 in an abelian Q3, and omega({d3 p} (x) {d3 r})
        is biadditive in (p, r), so it vanishes everywhere once it vanishes
        on generator pairs.
      * Axiom 3: omega({d3 p} (x) {x} + {x} (x) {d3 p}) is biadditive in
        (p, x) and depends on x only through {x}, which is a sum of the
        classes of the generators; generator pairs decide it.
      * Axiom 2, when moreover Q2 is structurally nil(2): for fixed y, both
        x |-> d3 omega({x} (x) {y}) and x |-> (x, y) are homomorphisms Q2 ->
        Q2 (commutators are central and bilinear in a nil(2) group), so
        they agree everywhere once they agree on the generators; the same
        holds in y for fixed x.
    Such checks have basis "proved"; the others sample and are "sampled".

    Axioms 3 and 4 scan the same pairs in the same order either way, but
    decide each distinct pair of classes once, in a memo that lives for this
    call only.  Axiom 3's verdict at (p, x) is omega of a tensor built from
    ({d3 p}, {x}) alone, so pairs with the same two classes share it.  When
    Q3 is abelian as presented, (p, r) is 0 and axiom 4's verdict at (p, r)
    depends only on ({d3 p}, {d3 r}); otherwise it is tested pair by pair.
    On Q, {d3 p} takes 2 values over the 10 generators of Q3, so axiom 3
    evaluates omega 6 times instead of 30 and axiom 4 4 times instead of 100.
    """
    rep = sampled_report("reduced quadratic module", samples, seed, basis="proved")
    g2, g3 = q.q2, q.q3

    gens = () if g2.is_nil2 else g2.generators()
    rep.first_failure("axiom1_q2_nil2",
                      ("triple commutator of generators does not vanish"
                       for x in gens for y in gens for z in gens
                       if not g2.is_identity(g2.commutator(g2.commutator(x, y), z))),
                      note="structural" if g2.is_nil2 else "generator triples")

    d3_hom = rep.add_hom("d3_is_homomorphism", q.d3)

    rel_rows = g2.ab_relation_rows()
    omega_on_c = rep.first_failure("omega_well_defined_on_C",
                      _omega_kills(q, rel_rows, g2, "omega does not kill the relation"),
                      note="vacuous: C free" if not rel_rows else "relation rows")

    def scope(left: Group, right: Group, proved: bool):
        """The pairs an axiom is checked on, and the note and basis to match."""
        if proved:
            return (generator_pairs(left, right, rep.rng, 0),
                    dict(note="all generator pairs; bilinear", basis="proved"))
        return (generator_pairs(left, right, rep.rng, samples),
                dict(note=f"all generator pairs + {samples} samples", basis="sampled"))

    bilinear = g3.is_abelian and d3_hom.passed and omega_on_c.passed
    boundary = _boundary_classes(q)
    pairs, how = scope(g2, g2, bilinear and g2.is_nil2)
    rep.first_failure("axiom2_d3_omega_is_commutator",
                      (f"d3 omega({{x}} (x) {{y}}) != (x, y) at "
                       f"x={g2.format_element(x)}, y={g2.format_element(y)}"
                       for x, y in pairs
                       if not g2.eq(q.d3(q.omega_outer(q.braces(x), q.braces(y))),
                                    g2.commutator(x, y))), **how)
    pairs, how = scope(g3, g2, bilinear)
    vanishes = functools.cache(
        lambda bnd, bx: g3.is_identity(q.omega_apply(_boundary_tensor(bnd, bx))))
    rep.first_failure("axiom3_boundary_tensors_vanish",
                      ("omega({d3 p} (x) {x} + {x} (x) {d3 p}) != 0"
                       for p, x in pairs if not vanishes(boundary(p), q.braces(x))),
                      **how)
    pairs, how = scope(g3, g3, bilinear)
    rep.first_failure("axiom4_q3_commutators",
                      _q3_commutator_failures(q, boundary, pairs), **how)
    return rep


def _omega_kills(q, rows, q2: Group, what: str):
    """Failures, as `what` and the row, of omega to kill a relation row of C
    tensored on either side with the class of a generator of q2."""
    g3 = q.q3
    return (f"{what} {list(row)}"
            for row in rows for ej in map(q.braces, q2.generators())
            if not (g3.is_identity(q.omega_outer(row, ej))
                    and g3.is_identity(q.omega_outer(ej, row))))


def _boundary_classes(q):
    """p |-> {d3 p}, computed once for each distinct p: axioms 3 and 4 meet
    every generator of Q3 once per generator of Q2 or Q3."""
    return functools.cache(lambda p: q.braces(q.d3(p)))


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

    def omega_apply(self, t: TensorElement):
        return self.rqm.omega_apply(t)

    def braces(self, x) -> tuple[int, ...]:
        return self.rqm.braces(x)

    @functools.cached_property
    def coords(self) -> "Coordinates":
        """This complex's coordinate tables, built block by block on first
        use and kept for as long as the complex."""
        return Coordinates(self)


class Coordinates:
    """A complex's fixed data in coordinates (`coords_of`) for the equations
    of `qcm_equations` and `rq_homotopy_equations`, each block built on
    first use and kept for every morphism and witness from or into the
    complex.  As a source: its generators, its maps at generators and its
    omega symbols, which a morphism's image matrix multiplies; as a target:
    its omega forms and under-map values (d3 and d4 keep their matrices on
    the maps).  It holds the complex's parts, not the complex, so that the
    two form no reference cycle and are freed by reference counting."""

    def __init__(self, c: ReducedQuadraticComplex4):
        self._groups = {2: c.q2, 3: c.q3, 4: c.q4}
        self._d3, self._d4, self._omega, u = c.d3, c.d4, c.rqm.omega, c.under
        self._under = u and (u.q2, u.q3, u.q4)

    @functools.cached_property
    def generators(self) -> dict[int, list]:
        return {k: [coords_of(grp, x) for x in grp.generators()]
                for k, grp in self._groups.items()}

    @functools.cached_property
    def boundaries(self) -> list:
        """d3 at the generators of Q3, as elements (for `Alpha2`)."""
        return [self._d3.at_generator(i) for i in range(self._d3.source.ngens)]

    @functools.cached_property
    def d3(self) -> list:
        return [coords_of(self._groups[2], x) for x in self.boundaries]

    @functools.cached_property
    def d4(self) -> list:
        return list(_at_generators(self._d4))

    @functools.cached_property
    def under(self) -> dict[int, list]:
        """Degree -> the under-object's map at the base's generators."""
        return {k: list(_at_generators(h)) for k, h in zip((2, 3, 4), self._under)}

    @functools.cached_property
    def under_rows(self) -> dict[int, list]:
        return {k: _as_rows(cols, self._groups[k].ngens) for k, cols in self.under.items()}

    @functools.cached_property
    def omega(self) -> list:
        """omega on c_i (x) c_j, in row-major order."""
        return [coords_of(self._groups[3], w) for row in self._omega for w in row]

    @functools.cached_property
    def omega_forms(self) -> list:
        """For each coordinate k of Q3, the matrix of omega_ij's k-th one."""
        n = len(self._omega)
        return [[[w[k] for w in self.omega[i * n:(i + 1) * n]] for i in range(n)]
                for k in range(self._groups[3].ngens)]

    def omega_outer(self, vectors: list) -> list:
        """omega({u} (x) {v}) for all pairs of vectors, in row-major order,
        as the rows of a matrix with one column per pair: coordinate k is
        u B_k v, B_k the k-th of `omega_forms`, as the fold of u_i v_j
        omega_ij (`ReducedQuadraticModule.omega_outer`) before reduction."""
        out = []
        for form in self.omega_forms:
            images = [[sum(map(mul, row, v)) for row in form] for v in vectors]
            out.append([sum(map(mul, u, bv)) for u in vectors for bv in images])
        return out


def complex_from_rqm(rqm: ReducedQuadraticModule, name: str = "reduced quadratic 4-complex"
                     ) -> ReducedQuadraticComplex4:
    """View a reduced quadratic module as a 4-complex with Q4 = 0."""
    q4 = FgAbelianGroup(0)
    return ReducedQuadraticComplex4(rqm, q4, GroupHom.zero(q4, rqm.q3), name=name)


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
    cofibrations from the same base.  The sides read the maps as evaluating
    them on elements does, at the canonical generators.

    In a group abelian as presented the equations of a check are one
    `CoordinateEquations`: the maps' image matrices times the blocks of
    the complexes' `Coordinates`, which are tabled once per complex, so per
    morphism an equation costs a few integer products.  A
    `*_is_homomorphism` check there has the relation rows as equations,
    which is all `GroupHom.check_hom` tests into such a target.  In any
    other group the equations are lazy (lhs, rhs, message) triples of
    elements, and a `*_is_homomorphism` check gives the map, for
    `check_hom`.
    """
    src, tgt = m.source, m.target
    for name, h in (("f2", m.f2), ("f3", m.f3), ("f4", m.f4)):
        yield _hom_equations(f"{name}_is_homomorphism", h)
    s, t, n = src.coords, tgt.coords, src.q2.ngens
    yield _check(
        "square_d3", tgt.q2, src.q3.ngens,
        lambda i: f"f2 d3 != d3' f3 at generator {src.q3.names[i]}",
        lambda: (m.f2.image_products(s.d3), _image(tgt.d3, _at_generators(m.f3))),
        lambda i: (m.f2(src.d3.at_generator(i)), tgt.d3(m.f3.at_generator(i))))
    yield _check(
        "square_d4", tgt.q3, src.q4.ngens,
        lambda i: f"f3 d4 != d4' f4 at generator {src.q4.names[i]}",
        lambda: (m.f3.image_products(s.d4), _image(tgt.d4, _at_generators(m.f4))),
        lambda i: (m.f3(src.d4.at_generator(i)), tgt.d4(m.f4.at_generator(i))))
    yield _check(
        "square_omega", tgt.q3, n * n,
        lambda k: f"f3 omega != omega' (f2^ab (x) f2^ab) at basis ({k // n},{k % n})",
        lambda: (m.f3.image_products(s.omega),
                 t.omega_outer([coords_of(tgt.q2, im) for im in m.f2.images])),
        lambda k: (m.f3(src.rqm.omega[k // n][k % n]),
                   tgt.rqm.omega_outer(*(tgt.braces(m.f2.images[i]) for i in divmod(k, n)))))
    if (src.under is None or tgt.under is None
            or src.under.base.q2 != tgt.under.base.q2):
        return
    for deg, fh, grp, qs, qt in ((2, m.f2, tgt.q2, src.under.q2, tgt.under.q2),
                                 (3, m.f3, tgt.q3, src.under.q3, tgt.under.q3),
                                 (4, m.f4, tgt.q4, src.under.q4, tgt.under.q4)):
        yield _check(
            f"under_degree{deg}", grp, qs.source.ngens,
            lambda _, deg=deg: f"f does not commute with the cofibration in degree {deg}",
            lambda deg=deg, fh=fh: (fh.image_products(s.under[deg]), t.under_rows[deg]),
            lambda j, fh=fh, qs=qs, qt=qt: (fh(qs.at_generator(j)), qt.at_generator(j)))


class CoordinateEquations:
    """The equations of one check in a group abelian as presented: lhs and
    rhs are matrices by rows, one row per coordinate and one column per
    equation, rhs None for 0.  Equation j holds when column j of lhs - rhs
    lies in the relation lattice; `message(j)` reports it when not."""

    def __init__(self, grp: Group, lhs: list, rhs: list | None, message):
        self.grp, self.lhs, self.rhs, self.message = grp, lhs, rhs, message

    def columns(self) -> list:
        """lhs - rhs of each equation (none in a group of rank 0)."""
        if self.rhs is None:
            return list(zip(*self.lhs))
        return list(zip(*(map(sub, a, b) for a, b in zip(self.lhs, self.rhs))))

    def failures(self):
        """The messages of the failing equations, lazily, in order; nothing
        is reduced when the sides are equal."""
        if self.lhs != self.rhs if self.rhs is not None else any(map(any, self.lhs)):
            lattice = relation_lattice(self.grp)
            yield from (self.message(j) for j, d in enumerate(self.columns())
                        if any(d) and any(lattice.reduce(d)))


def _check(check_id: str, grp: Group, count: int, message, coords, elements) -> tuple:
    """A check of `count` equations in grp: `CoordinateEquations` of the
    matrices coords() when grp is abelian as presented, else lazy triples
    of the elements elements(i)."""
    if grp.is_abelian:
        return check_id, None, grp, CoordinateEquations(grp, *coords(), message)
    return check_id, None, grp, ((*elements(i), message(i)) for i in range(count))


def _hom_equations(check_id: str, h: GroupHom) -> tuple:
    """The check that h is a homomorphism: its relation rows in coordinates
    into an abelian target (where `GroupHom.check_hom` tests nothing more),
    else the map itself."""
    rows, t = h.source.ab_relation_rows(), h.target
    if not t.is_abelian:
        return check_id, h, t, ()
    return check_id, None, t, CoordinateEquations(
        t, h.image_products(rows), None,
        lambda j: f"relation {list(rows[j])} maps to a non-identity element")


def _as_rows(columns: list, dim: int) -> list:
    """The matrix with these columns of `dim` coordinates, by rows."""
    return [list(r) for r in zip(*columns)] if columns else [[] for _ in range(dim)]


def _plus(a: list, b: list | None) -> list:
    """a + b for matrices by rows, b None for 0."""
    return a if b is None else [list(map(add, x, y)) for x, y in zip(a, b)]


def _image(h: GroupHom, cols) -> list | None:
    """h's image matrix times the coordinate vectors cols, by rows; None,
    for 0 and without reading cols, when the matrix is 0."""
    return h.image_products(list(cols)) if any(map(any, h.matrix())) else None


def _at_generators(h: GroupHom):
    """The coordinates of h at the canonical generators, lazily."""
    return (coords_of(h.target, h.at_generator(i)) for i in range(h.source.ngens))


def decide(rep: Report, checks) -> Report:
    """Record (check id, map, group, equations) checks in order: a given
    map by `Report.add_hom`, equations by their first failure."""
    for check_id, h, grp, equations in checks:
        if h is not None:
            rep.add_hom(check_id, h)
        elif isinstance(equations, CoordinateEquations):
            rep.first_failure(check_id, equations.failures())
        else:
            rep.first_failure(check_id, (msg for lhs, rhs, msg in equations
                                         if not grp.eq(lhs, rhs)))
    return rep


def qcm_check(m: QCMorphism, samples: int = 50, seed: int | None = None) -> Report:
    """Boundary squares, omega compatibility, and under-object agreement:
    the equations of `qcm_equations`, decided in order (`decide`).  Per
    morphism a check in an abelian group costs its image products over the
    complexes' tables and one comparison of its sides."""
    rep = sampled_report("quadratic complex morphism", samples, seed, basis="proved")
    return decide(rep, qcm_equations(m))


def rqc4_check(c: ReducedQuadraticComplex4, samples: int = 200,
               seed: int | None = None) -> Report:
    rep = rqm_check(c.rqm, samples=samples, seed=seed)
    rep.title = c.name
    gens = c.q4.generators()
    rep.first_failure("q4_abelian",
                      (f"generators {c.q4.names[i]} and {c.q4.names[j]} do not commute"
                       for i, p in enumerate(gens) for j, r in enumerate(gens)
                       if not c.q4.is_identity(c.q4.commutator(p, r))),
                      note="structural" if c.q4.is_abelian else "generator pairs")
    rep.add_hom("d4_is_homomorphism", c.d4)
    rep.first_failure("d3_d4_zero", (f"d3 d4 != 0 at generator {c.q4.names[i]}"
                                     for i, k in enumerate(gens)
                                     if not c.q2.is_identity(c.d3(c.d4(k)))))
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
    rep.merge(check_precrossed(q.pre, samples=samples, seed=rep.meta["seed"]), prefix="base.")
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

    def alpha3_hom(self, source: ReducedQuadraticComplex4,
                   target: ReducedQuadraticComplex4) -> GroupHom:
        return GroupHom(source.q3, target.q4, self.alpha3)

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
        self.src2, self.q3, self.omega_apply = f.source.q2, tgt.q3, tgt.omega_apply
        self.n = tgt.q2.ngens
        self.fv = [tgt.q2.ab(im) for im in f.f2.images]
        self.dv = [vec_sub(tgt.q2.ab(b), a) for a, b in zip(self.fv, g.f2.images)]
        self.zero = not any(map(any, self.dv))
        q3 = tgt.q3
        self.not_central = None if q3.is_abelian or self.zero else next(
            (f"omega' at basis ({i},{j}) is {q3.format_element(w)}, which is not "
             "central in the target degree-3 group, so alpha2 has no closed form"
             for i, row in enumerate(tgt.rqm.omega) for j, w in enumerate(row)
             if any(not q3.is_identity(q3.commutator(w, z)) for z in q3.generators())),
            None)

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


def rq_homotopy_equations(f: QCMorphism, g: QCMorphism, h: QCHomotopy):
    """The equations of a homotopy witness on generators, in report order,
    listed as `qcm_equations` lists a morphism's; in coordinates -f x + g x
    = y reads g x = f x + y.  alpha2 is `Alpha2`, built once per call."""
    src, tgt = f.source, f.target
    q2, q3, q4 = tgt.q2, tgt.q3, tgt.q4
    alpha3 = h.alpha3_hom(src, tgt)
    alpha2, values = Alpha2(f, g), GroupHom(src.q2, q3, h.alpha2)
    s = src.coords
    yield _hom_equations("alpha3_is_homomorphism", alpha3)

    def alpha2_at(xs: list, columns: list) -> list:
        """alpha2 at xs, of coordinates columns, by rows (`Alpha2`)."""
        corrections = [coords_of(q3, alpha2.correction(x)) for x in xs]
        return _plus(values.image_products(columns), _as_rows(corrections, q3.ngens)
                     if any(map(any, corrections)) else None)

    def moved(k: int, fk: GroupHom, gk: GroupHom, by) -> tuple:
        """(gk, fk + by) at the generators of degree k, by rows."""
        x = s.generators[k]
        return gk.image_products(x), _plus(fk.image_products(x), by)

    yield _check(
        "homotopy_degree2", q2, src.q2.ngens,
        lambda i: f"-f2 + g2 != d3' alpha2 at generator {src.q2.names[i]}",
        lambda: moved(2, f.f2, g.f2,
                      _image(tgt.d3, (coords_of(q3, a) for a in values.images))),
        lambda i: (q2.op(q2.inv(f.f2.at_generator(i)), g.f2.at_generator(i)),
                   tgt.d3(values.images[i])))
    yield _check(
        "homotopy_degree3", q3, src.q3.ngens,
        lambda i: f"-f3 + g3 != d4' alpha3 + alpha2 d3 at generator {src.q3.names[i]}",
        lambda: moved(3, f.f3, g.f3, _plus(
            alpha2_at(s.boundaries, s.d3), _image(tgt.d4, _at_generators(alpha3)))),
        lambda i: (q3.op(q3.inv(f.f3.at_generator(i)), g.f3.at_generator(i)),
                   q3.op(tgt.d4(alpha3.at_generator(i)), alpha2(values, src.d3.at_generator(i)))))
    yield _check(
        "homotopy_degree4", q4, src.q4.ngens,
        lambda i: f"-f4 + g4 != alpha3 d4 at generator {src.q4.names[i]}",
        lambda: moved(4, f.f4, g.f4, alpha3.image_products(s.d4)),
        lambda i: (q4.op(q4.inv(f.f4.at_generator(i)), g.f4.at_generator(i)),
                   alpha3(src.d4.at_generator(i))))
    if src.under is None:
        return
    base, under = src.under.base, src.under
    yield _check(
        "alpha2_vanishes_on_under", q3, base.q2.ngens,
        lambda j: f"alpha2 does not vanish on {base.q2.format_element(base.q2.generators()[j])}",
        lambda: (alpha2_at([under.q2.at_generator(j) for j in range(base.q2.ngens)],
                           s.under[2]), None),
        lambda j: (alpha2(values, under.q2.at_generator(j)), q3.identity()))
    yield _check(
        "alpha3_vanishes_on_under", q4, base.q3.ngens,
        lambda j: f"alpha3 does not vanish on {base.q3.format_element(base.q3.generators()[j])}",
        lambda: (alpha3.image_products(s.under[3]), None),
        lambda j: (alpha3(under.q3.at_generator(j)), q4.identity()))


def verify_rq_homotopy(f: QCMorphism, g: QCMorphism, h: QCHomotopy) -> Report:
    """Re-check a homotopy witness equation by equation on generators: the
    equations of `rq_homotopy_equations`, decided as `qcm_check` decides a
    morphism's.  The source's tables are built once for every witness from
    it; per call the values are canonicalized into alpha2 and alpha3,
    `Alpha2` is built, and each check costs as in `qcm_check`."""
    return decide(Report("quadratic homotopy certificate", basis="proved"),
                  rq_homotopy_equations(f, g, h))


def rq_homotopy_decision(f: QCMorphism, g: QCMorphism, shift: Sequence | None = None
                         ) -> tuple[QCHomotopy | ShiftedSolutions | None, Report]:
    """Decide f ~ g and produce the canonical verified witness or an
    obstruction, by the integer linear system of `LinearHomotopy`.

    alpha2 enters the degree-3 equations through its affine form
    alpha2(x) = sum_i {x}_i alpha2(g_i) + omega'(T(x)) (`Alpha2`), so the
    system is linear.  Complete whenever the target has abelian coordinates
    in degrees 3 and 4 and its d3 is central on generators (zero, or
    landing in the centre, as on every abelian degree-2 target).  Raises ValueError otherwise, naming
    the first generator whose d3' value is not central; the cylinder Q is
    such a target (d3(e3) = -e + e' + e'').

    With `shift`, one element of the target Q3 per source degree-3
    generator, the decision is about the family g_t that agrees with g
    except g_t3(h) = g3(h) + t shift(h).  g3 enters only the right-hand side
    -f3 h + g3 h of the degree-3 equations, which is affine in t as Q3' is
    abelian, so t is one more unknown of the same system.  The result is
    its `ShiftedSolutions` (None when no t admits a homotopy): the
    canonical values of each member's witness, without another decision,
    for the caller to build and certify (`sphere.FamilyDecisions`).
    """
    lin = LinearHomotopy(f, g, "quadratic homotopy")
    src, tgt = f.source, f.target
    t = None if shift is None else lin.shift_unknown()
    alpha2 = lin.degree2(tgt.d3, f.f2, g.f2)
    if alpha2 is None:
        return None, lin.rep
    alpha3 = lin.unknowns(src.q3.ngens, tgt.q4, 4)

    form = Alpha2(f, g)
    drow = [list(tgt.q3.ab(tgt.d4.at_generator(k))) for k in range(tgt.q4.ngens)]
    for i in range(src.q3.ngens):
        x = src.d3.at_generator(i)
        rhs = tgt.q3.op_all(tgt.q3.inv(f.f3.images[i]), g.f3.images[i],
                            tgt.q3.inv(form.correction(x)))
        terms = [(alpha3.var(i, k), drow[k]) for k in range(alpha3.dim)]
        if t is not None:
            terms.append((t, vec_neg(tgt.q3.ab(shift[i]))))
        lin.add_sum(alpha2, src.q2.ab(x), tgt.q3.ab(rhs), terms)
    for i in range(src.q4.ngens):
        rhs = tgt.q4.op(tgt.q4.inv(f.f4.images[i]), g.f4.images[i])
        lin.add_sum(alpha3, src.q3.ab(src.d4.at_generator(i)), tgt.q4.ab(rhs))
    for row in src.q3.ab_relation_rows():
        lin.add_sum(alpha3, row)
    if src.under is not None:
        under = src.under
        for j in range(under.base.q2.ngens):
            x = under.q2.at_generator(j)
            lin.add_sum(alpha2, src.q2.ab(x), tgt.q3.ab(tgt.q3.inv(form.correction(x))))
        for j in range(under.base.q3.ngens):
            lin.add_sum(alpha3, src.q3.ab(under.q3.at_generator(j)))

    solved = lin.solve()
    if solved is None:
        return None, lin.rep
    if t is not None:
        return solved, lin.rep
    witness = QCHomotopy(*solved)
    lin.accept(verify_rq_homotopy(f, g, witness), witness.to_json(tgt))
    return witness, lin.rep


def rq_homotopic(f: QCMorphism, g: QCMorphism) -> QCHomotopy | None:
    return rq_homotopy_decision(f, g)[0]
