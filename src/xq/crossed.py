"""Pre-crossed and crossed modules, 3-dimensional crossed complexes,
Peiffer commutators, and homotopy of complex morphisms.

It also holds what checks and decides equations for both kinds of complex,
crossed and reduced quadratic: the frame of equations in coordinates
(`CoordinateEquations`, decided by `decide`, and `system_checks`, which
reads a homotopy's system of equations (check id, group, terms, rhs) at a
witness) and the integer linear system (`LinearHomotopy`) that solves such
a system.  Each kind states its homotopy equations once, as such a system
(`xc3_homotopy_system`, `quadratic.rq_homotopy_system`): its verifier
evaluates them and its decider solves them.

Group actions are right actions given on generators; conventions:
    x^m        action of m on x,
    (x, y)   = -x - y + x + y,
    <x, y>   = -x - y + x + y^{d(x)}     (Peiffer commutator).
"""

from __future__ import annotations

from operator import add, sub
from typing import NamedTuple, Sequence

from . import nil2
from .groups import Group, GroupHom, coords_of, format_terms, generator_pairs, invert_hom
from .intlinalg import Lattice, ZSystem
from .report import Check, Report, Undefined


class GroupAction:
    """Right action of `acting` on `acted`, stored as a generator table.

    table[x][a] is the image of acted.gen(x) under acting.gen(a).  An acting
    element acts run by run along its canonical word (`Group.word_runs`), a
    block repeated k times as the k-th power of its endomorphism, so no
    exponent is expanded into letters.  Negative letters need the
    inverse endomorphisms, which are derived automatically for abelian and
    free nil(2) acted groups or supplied as an explicit inverse_table.
    """

    def __init__(self, acting: Group, acted: Group, kind: str = "table",
                 table: Sequence[Sequence] | None = None,
                 inverse_table: Sequence[Sequence] | None = None):
        if kind not in ("trivial", "conjugation", "table"):
            raise ValueError(f"unknown action kind {kind!r}")
        self.acting = acting
        self.acted = acted
        self.kind = kind
        self.table = None
        self.inverse_table = None
        if kind == "conjugation" and acting != acted:
            raise ValueError("conjugation action needs acting == acted")
        if kind == "table":
            if table is None:
                raise ValueError("table action needs a table")
            self.table = [[acted.canon(e) for e in row] for row in table]
            if inverse_table is not None:
                self.inverse_table = [[acted.canon(e) for e in row]
                                      for row in inverse_table]
            for what, rows in (("action", self.table), ("inverse", self.inverse_table)):
                if rows is not None and (len(rows) != acted.ngens or any(
                        len(row) != acting.ngens for row in rows)):
                    raise ValueError(f"{what} table must be acted.ngens x acting.ngens")
        self._endos: dict[tuple[int, int], GroupHom] = {}

    @staticmethod
    def trivial(acting: Group, acted: Group) -> "GroupAction":
        return GroupAction(acting, acted, kind="trivial")

    @staticmethod
    def conjugation(group: Group) -> "GroupAction":
        return GroupAction(group, group, kind="conjugation")

    def endo(self, i: int, sign: int = 1) -> GroupHom:
        """Endomorphism of the acted group given by acting.gen(i)^sign."""
        key = (i, sign)
        if key not in self._endos:
            if sign > 0:
                images = [self.table[x][i] for x in range(self.acted.ngens)]
                self._endos[key] = GroupHom(self.acted, self.acted, images)
            elif self.inverse_table is not None:
                images = [self.inverse_table[x][i] for x in range(self.acted.ngens)]
                self._endos[key] = GroupHom(self.acted, self.acted, images)
            else:
                try:
                    self._endos[key] = invert_hom(self.endo(i, 1))
                except ValueError as exc:
                    raise Undefined(
                        f"action of -{self.acting.names[i]} is not available: {exc}")
        return self._endos[key]

    def apply(self, x, a):
        """x^a for x in the acted group and a in the acting group."""
        if self.kind == "trivial":
            return self.acted.canon(x)
        if self.kind == "conjugation":
            return self.acted.op_all(self.acted.inv(a), x, a)
        return self._along(self.acting.word_runs(a), self.acted.canon(x))

    def _along(self, runs, x):
        """x acted on by the word with these runs (`Group.word_runs`), letter
        by letter in order, a run as a power of its block's endomorphism."""
        for block, count in runs:
            unit = self.endo(*block[0])
            for i, s in block[1:]:
                unit = unit.then(self.endo(i, s))
            x = unit.power(count)(x)
        return x

    def check(self) -> Report:
        """The endomorphisms are homomorphisms, and the table is a right
        action by automorphisms (`action_axioms`), decided on generators.

        Let E_w be the composite of the endomorphisms of the letters of a
        word w, in order (`_along`), so that x^a = E_w(x) for the canonical
        word w of a.  Let every E_g, g a generator, be a homomorphism.  If
        E_{-g + g} fixes the acted group's generators, E_g is onto, so it is
        an automorphism (finitely generated free, nil(2) and abelian groups
        are Hopfian), and E_{-g} is its inverse on generators, so
        everywhere.  Then w |-> E_w takes words to automorphisms and
        concatenation to composition in order, and it factors through the
        acting group exactly when each relator of its presentation
        (`_relators`) acts trivially, which it does when it fixes the acted
        group's generators.  Then x^a depends on a alone, x^(a+b) =
        (x^a)^b, and each x |-> x^a is an automorphism.  The check is
        proved when the endomorphisms are homomorphisms."""
        rep = Report("group action")
        acted, acting = self.acted, self.acting
        if self.kind != "table":
            for check_id in ("action_endos_are_homs", "action_axioms"):
                rep.add(check_id, True, note=f"{self.kind}: by construction")
            return rep
        homs = (self.endo(i).check_hom() for i in range(acting.ngens))
        rep.first_failure("action_endos_are_homs",
                          (f"generator {acting.names[i]}: {why}"
                           for i, (ok, why) in enumerate(homs) if not ok),
                          basis="proved")
        gens = acted.generators()
        if self.inverse_table is not None:
            rep.first_failure("action_inverse_table",
                              (f"inverse table wrong at generator {acting.names[i]}"
                               for i in range(acting.ngens) for x in gens
                               if not acted.eq(self.endo(i, -1)(self.endo(i, 1)(x)), x)))
        inverses = [(f"-{name} + {name}", [(((i, -1), (i, 1)), 1)])
                    for i, name in enumerate(acting.names)]
        rep.first_failure("action_axioms",
                          (f"x^({word}) != x at x={acted.format_element(x)}"
                           for word, runs in inverses + _relators(acting) for x in gens
                           if not acted.eq(self._along(runs, x), x)),
                          note="inverses and relators on generators",
                          basis="proved" if rep.ok else None)
        return rep


def _relators(g: Group) -> list:
    """(text, runs) of each relator of the presentation of g: none for a
    free group; for free nil(2), ((g_i, g_j), g_k) for i < j, which make
    each (g_i, g_j) central, so that the quotient by the centre is abelian;
    for an abelian group, (g_i, g_j) for i < j and the relation rows, each
    entry a run."""
    names, pairs = g.names, nil2.pair_list(g.ngens)
    if g.is_abelian:
        return ([(f"({names[i]},{names[j]})", [(((i, -1), (j, -1), (i, 1), (j, 1)), 1)])
                 for i, j in pairs]
                + [(format_terms(zip(row, names)),
                    [(((i, 1 if a > 0 else -1),), abs(a)) for i, a in enumerate(row) if a])
                   for row in g.ab_relation_rows()])
    if not g.is_nil2:
        return []
    return [(f"(({names[i]},{names[j]}),{names[k]})",
             [(((j, -1), (i, -1), (j, 1), (i, 1), (k, -1),
                (i, -1), (j, -1), (i, 1), (j, 1), (k, 1)), 1)])
            for i, j in pairs for k in range(g.ngens)]


class PreCrossedModule:
    """d: m2 -> m1 with a right action of m1 on m2."""

    def __init__(self, m1: Group, m2: Group, d: GroupHom, action: GroupAction):
        self.m1, self.m2, self.d, self.action = m1, m2, d, action
        if self.d.source != self.m2 or self.d.target != self.m1:
            raise ValueError("boundary must map m2 to m1")
        if self.action.acting != self.m1 or self.action.acted != self.m2:
            raise ValueError("action must be of m1 on m2")


def peiffer_commutator(m: PreCrossedModule, x, y):
    """<x, y> = -x - y + x + y^{d(x)}."""
    g = m.m2
    return g.op_all(g.inv(x), g.inv(y), x, m.action.apply(y, m.d(x)))


def check_precrossed(m: PreCrossedModule) -> Report:
    """Action axioms plus equivariance d(x^a) = -a + d(x) + a, decided on
    generator pairs.

    For fixed a both sides are homomorphisms in x, as d is one and a acts
    by an automorphism, so they agree for all x once they agree on the
    generators.  The a for which they do form a subgroup: d(x^(a+b)) =
    -b + d(x^a) + b = -(a+b) + d(x) + (a+b), and for y = x^(-a), d(x) =
    -a + d(y) + a gives d(y) = a + d(x) - a.  So generators a suffice.
    The argument rests on the checks before it, so equivariance is proved
    only when they pass."""
    rep = Report("pre-crossed module")
    rep.add_hom("d_is_homomorphism", m.d)
    rep.merge(m.action.check())
    rep.first_failure("equivariance",
                      (f"d(x^m) != -m + d(x) + m at x={m.m2.format_element(x)}, "
                       f"m={m.m1.format_element(a)}"
                       for x, a in generator_pairs(m.m2, m.m1)
                       if not m.m1.eq(m.d(m.action.apply(x, a)),
                                      m.m1.op_all(m.m1.inv(a), m.d(x), a))),
                      note="all generator pairs", basis="proved" if rep.ok else None)
    return rep


def check_crossed(m: PreCrossedModule) -> Report:
    """Pre-crossed checks plus the Peiffer identity x^(d y) = -y + x + y,
    that is, vanishing of every Peiffer commutator, decided on generator
    pairs (Brown, Higgins and Sivera, Nonabelian Algebraic Topology, 2011,
    ch. 2).

    For fixed y both sides are automorphisms of M2 in x, so they agree once
    they agree on the generators x.  And y |-> (x |-> x^(d y)) and y |->
    (x |-> -y + x + y) both take sums to composites in order, the first as
    d is a homomorphism and the action a right action, so the y for which
    they agree form a subgroup, and generators y suffice.  The argument
    rests on the pre-crossed checks, so the identity is proved only when
    they pass."""
    rep = check_precrossed(m)
    rep.title = "crossed module"
    g, fmt = m.m2, m.m2.format_element
    rep.first_failure("peiffer_commutators_vanish",
                      (f"<{fmt(x)}, {fmt(y)}> = {fmt(p)}" for x, y in generator_pairs(g, g)
                       if not g.is_identity(p := peiffer_commutator(m, x, y))),
                      note="all generator pairs", basis="proved" if rep.ok else None)
    return rep


class CrossedComplex3:
    """M3 --d3--> M2 --d2--> M1 with m1 acting on m2 and m3.

    under2/under3 list the images of the under-object generators (the
    cofibration q), used by morphism and homotopy conditions.
    """

    def __init__(self, m1: Group, m2: Group, m3: Group, d2: GroupHom, d3: GroupHom,
                 action2: GroupAction, action3: GroupAction, under2=(), under3=()):
        if d3.source != m3 or d3.target != m2:
            raise ValueError("d3 must map m3 to m2")
        self.m1, self.m2, self.m3, self.d2, self.d3 = m1, m2, m3, d2, d3
        self.action2, self.action3 = action2, action3
        self.under2 = tuple(m2.canon(z) for z in under2)
        self.under3 = tuple(m3.canon(z) for z in under3)

    def degree2_module(self) -> PreCrossedModule:
        return PreCrossedModule(self.m1, self.m2, self.d2, self.action2)


def xc3_check(x: CrossedComplex3) -> Report:
    """Crossed module in degree 2; M3 abelian; d2 d3 = 0; im d2 acts
    trivially on M3; d3 equivariant.

    The last two are decided on generator pairs.  For fixed y, t |->
    t^(d2 y) is an automorphism of M3, the identity once it fixes the
    generators, and the y for which it is form a subgroup, the preimage
    under d2 of the kernel of the action.  For fixed a, both sides of
    d3(t^a) = d3(t)^a are homomorphisms in t, and the a for which they
    agree form a subgroup, as for equivariance in `check_precrossed`.  The
    arguments rest on the checks before them and on the action on M3, so
    the two are proved only when those pass."""
    rep = Report("3-dimensional crossed complex")
    rep.merge(check_crossed(x.degree2_module()), prefix="degree2.")
    gens = x.m3.generators()
    rep.first_failure("m3_abelian",
                      (f"generators {x.m3.names[i]} and {x.m3.names[j]} do not commute"
                       for i, p in enumerate(gens) for j, q in enumerate(gens)
                       if not x.m3.is_identity(x.m3.commutator(p, q))))
    rep.add_hom("d3_is_homomorphism", x.d3)
    rep.first_failure("d2_d3_zero", (f"d2 d3 != 0 at {x.m3.format_element(t)}"
                                     for t in gens if not x.m1.is_identity(x.d2(x.d3(t)))))
    action3 = x.action3.check()
    how = dict(note="all generator pairs", basis="proved" if rep.ok and action3.ok else None)
    rep.first_failure("im_d2_acts_trivially_on_m3",
                      (f"im(d2) moves {x.m3.format_element(t)}"
                       for t, y in generator_pairs(x.m3, x.m2)
                       if not x.m3.eq(x.action3.apply(t, x.d2(y)), x.m3.canon(t))), **how)
    rep.first_failure("d3_equivariant",
                      (f"d3 not equivariant at {x.m3.format_element(t)}"
                       for t, a in generator_pairs(x.m3, x.m1)
                       if not x.m2.eq(x.d3(x.action3.apply(t, a)),
                                      x.action2.apply(x.d3(t), a))), **how)
    rep.merge(action3, prefix="degree3.")
    return rep


class XC3Morphism:
    def __init__(self, source: CrossedComplex3, target: CrossedComplex3,
                 f1: GroupHom, f2: GroupHom, f3: GroupHom):
        self.source, self.target, self.f1, self.f2, self.f3 = source, target, f1, f2, f3


def xc3_morphism_check(m: XC3Morphism) -> Report:
    rep = Report("crossed complex morphism")
    for name, h in (("f1", m.f1), ("f2", m.f2), ("f3", m.f3)):
        rep.add_hom(f"{name}_is_homomorphism", h)
    src, tgt = m.source, m.target
    rep.first_failure("square_d2", (f"f1 d2 != d2' f2 at {src.m2.format_element(x)}"
                                    for x in src.m2.generators()
                                    if not tgt.m1.eq(m.f1(src.d2(x)), tgt.d2(m.f2(x)))))
    rep.first_failure("square_d3", (f"f2 d3 != d3' f3 at {src.m3.format_element(t)}"
                                    for t in src.m3.generators()
                                    if not tgt.m2.eq(m.f2(src.d3(t)), tgt.d3(m.f3(t)))))
    rep.first_failure("f2_equivariant",
                      ("f2 not equivariant"
                       for x in src.m2.generators() for a in src.m1.generators()
                       if not tgt.m2.eq(m.f2(src.action2.apply(x, a)),
                                        tgt.action2.apply(m.f2(x), m.f1(a)))))
    rep.first_failure("f3_equivariant",
                      ("f3 not equivariant"
                       for t in src.m3.generators() for a in src.m1.generators()
                       if not tgt.m3.eq(m.f3(src.action3.apply(t, a)),
                                        tgt.action3.apply(m.f3(t), m.f1(a)))))
    for deg, fk, s, zs, t, ws in ((2, m.f2, src.m2, src.under2, tgt.m2, tgt.under2),
                                  (3, m.f3, src.m3, src.under3, tgt.m3, tgt.under3)):
        if zs and len(zs) == len(ws):
            rep.first_failure(f"under_degree{deg}",
                              (f"f{deg} moves under generator {s.format_element(z)}"
                               for z, w in zip(zs, ws) if not t.eq(fk(z), w)))
    return rep


class XC3Homotopy:
    """alpha: M2 -> M3' given by generator images (additive, f1-equivariant)."""

    def __init__(self, alpha: tuple):
        self.alpha = alpha

    def to_json(self, target: CrossedComplex3) -> dict:
        return {"alpha": [target.m3.element_to_json(a) for a in self.alpha]}


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
            lattice = self.grp.lattice
            yield from (self.message(j) for j, d in enumerate(self.columns())
                        if any(d) and any(lattice.reduce(d)))


def _check(check_id: str, grp: Group, count: int, message, coords, elements, h=None) -> tuple:
    """A check of `count` equations in grp: `CoordinateEquations` of the
    matrices coords() when grp is abelian as presented, else lazy triples
    of the elements elements(i).  The check that h is a homomorphism names
    h, and is h alone, for `GroupHom.check_hom`, where it has no
    elements."""
    if grp.is_abelian:
        return check_id, h, grp, CoordinateEquations(grp, *coords(), message)
    return check_id, h, grp, () if elements is None else (
        (*elements(i), message(i)) for i in range(count))


def _as_rows(columns: list, dim: int) -> list:
    """The matrix with these columns of `dim` coordinates, by rows."""
    return [list(r) for r in zip(*columns)] if columns else [[] for _ in range(dim)]


def _plus(a: list, b: list | None) -> list:
    """a + b for matrices by rows, b None for 0."""
    return a if b is None else [list(map(add, x, y)) for x, y in zip(a, b)]


def _image(h: GroupHom, cols) -> list | None:
    """h's image matrix times the coordinate vectors cols(), by rows; None,
    for 0 and without calling cols, when the matrix is 0."""
    return h.image_products(cols()) if any(map(any, h.matrix())) else None


def _differences(grp: Group, f: GroupHom, g: GroupHom) -> list | None:
    """-f + g at the generators of their source, in the coordinates of grp
    by rows (`GroupHom.coords_at_generators`); None when grp is not abelian
    as presented."""
    if not grp.is_abelian:
        return None
    return _as_rows([tuple(map(sub, b, a)) for b, a in zip(
        g.coords_at_generators(), f.coords_at_generators())], grp.ngens)


def _difference_at(grp: Group, f: GroupHom, g: GroupHom, i: int):
    """-f + g at the source's generator i, as an element of grp."""
    return grp.op(grp.inv(f.at_generator(i)), g.at_generator(i))


def _evaluate(terms, maps: dict, dim: int) -> list:
    """The sum over terms (k, weights, left) of left()(maps[k](x_j)) in a
    group of rank dim, by rows: image products, with no element evaluated,
    none for a term whose left map has the zero matrix (`_image`), and no
    left map built when there are no points."""
    out = None
    for k, weights, left in terms if terms[0][1] else ():
        rows = maps[k].image_products(weights) if left is None else _image(
            left(), lambda: list(zip(*maps[k].image_products(weights))) or [()] * len(weights))
        out = rows if out is None else _plus(out, rows)
    return out if out is not None else [[0] * len(terms[0][1])] * dim


def system_checks(system, maps: dict, checks: dict, hom: GroupHom):
    """The checks of maps from the equations (check id, group, terms, rhs)
    of a `system`, in order, for `decide`: `_check` of their sides at
    `maps`, the map of each term's key, with checks[check id] = (message,
    elements).  A check not in `checks` says that `hom` is a homomorphism:
    its points are the relation rows of hom's source, and that hom kills
    them is all that `GroupHom.check_hom` tests into an abelian target."""
    for check_id, grp, terms, rhs in system:
        rows = terms[0][1]
        message, elements = checks.get(check_id) or (
            lambda j, rows=rows: f"relation {list(rows[j])} maps to a non-identity element", None)
        yield _check(check_id, grp, len(rows), message,
                     lambda: (_evaluate(terms, maps, grp.ngens), rhs), elements,
                     None if elements else hom)


def decide(rep: Report, checks) -> Report:
    """Record (check id, map, group, equations) checks in order: equations
    by their first failure, the check of a given map h (that it is a
    homomorphism) as proved, by them or, without them, by
    `Report.add_hom`."""
    for check_id, h, grp, equations in checks:
        if isinstance(equations, CoordinateEquations):
            rep.first_failure(check_id, equations.failures(), basis="proved" if h else None)
        elif h is not None:
            rep.add_hom(check_id, h)
        else:
            rep.first_failure(check_id, (msg for lhs, rhs, msg in equations
                                         if not grp.eq(lhs, rhs)))
    return rep


def xc3_homotopy_system(f: XC3Morphism, g: XC3Morphism):
    """The equations of a homotopy alpha from f to g on generators, in
    report order, as (check id, group, terms, rhs), in the shape of
    `quadratic.rq_homotopy_system`.  Equation j of a check reads

        sum over terms (2, weights, left) of left alpha(x_j) = rhs_j

    in the coordinates of the group, modulo its relations: alpha is the
    homotopy's map on the source M2, x_j the point whose coordinates are
    weights[j], and left() a map whose image matrix multiplies the value
    (None for none), built only where the equations are read.  rhs, by rows
    and None for 0, is -f + g at the generators; it is given only in a
    group abelian as presented.

    A homotopy is a derivation, and into an abelian M3' an additive alpha
    factors through M2's abelianization, so every equation is linear in
    the coordinates of alpha's values on the generators: f1-equivariance
    alpha(x^a) = alpha(x)^(f1 a) has as left map the action of f1 a on M3'
    (for each generator a of M1; None, the identity, for a trivial
    action), where building it may raise `Undefined`.
    `verify_xc3_homotopy` evaluates these equations at a witness, and
    `xc3_homotopy_decision` solves them, with degree 2 replaced by
    `LinearHomotopy.degree2`."""
    src, tgt = f.source, f.target
    m1, m2, m3 = src.m1, src.m2, tgt.m3
    gens = [coords_of(m2, x) for x in m2.generators()]
    yield "alpha_additive", m3, [(2, m2.ab_relation_rows(), None)], None
    yield ("degree2_equation", tgt.m2, [(2, gens, lambda: tgt.d3)],
           _differences(tgt.m2, f.f2, g.f2))
    yield ("degree3_equation", m3, [(2, src.d3.coords_at_generators(), None)],
           _differences(m3, f.f3, g.f3))
    yield ("alpha_vanishes_on_under", m3, [(2, [coords_of(m2, z) for z in src.under2], None)],
           None)
    # equation a * m2.ngens + x: alpha(x^a) - alpha(x)^(f1 a) = 0
    moved = [coords_of(m2, src.action2.apply(x, a)) for a in m1.generators()
             for x in m2.generators()]
    yield "alpha_equivariant", m3, [(2, moved, None)] + [
        (2, [[-c for c in v] if b == a else [0] * m2.ngens for b in range(m1.ngens) for v in gens],
         None if tgt.action3.kind == "trivial" else lambda a=a: GroupHom.of_canonical(m3, m3, [
             tgt.action3.apply(t, f.f1.at_generator(a)) for t in m3.generators()]))
        for a in range(m1.ngens)], None


def verify_xc3_homotopy(f: XC3Morphism, g: XC3Morphism, h: XC3Homotopy, system=None) -> Report:
    """Re-check a homotopy witness equation by equation on generators: f1 =
    g1, then the equations of `xc3_homotopy_system` at alpha, decided as
    `decide` decides them (`system_checks`).  `system` is the list of those
    equations when the caller holds it already, as the decider does for its
    re-verification.  An action of f1 a that the structure leaves undefined
    fails the last check, f1-equivariance, with the `Undefined` message."""
    rep = Report("crossed complex homotopy certificate")
    src, tgt = f.source, f.target
    rep.add("f1_equals_g1", all(map(tgt.m1.eq, f.f1.images, g.f1.images)))
    alpha, m3, n = GroupHom(src.m2, tgt.m3, h.alpha), tgt.m3, src.m2.ngens
    checks = {
        "degree2_equation": (
            lambda i: f"-f2 + g2 != d3' alpha at generator {src.m2.names[i]}",
            lambda i: (_difference_at(tgt.m2, f.f2, g.f2, i), tgt.d3(alpha.at_generator(i)))),
        "degree3_equation": (
            lambda i: f"-f3 + g3 != alpha d3 at generator {src.m3.names[i]}",
            lambda i: (_difference_at(m3, f.f3, g.f3, i), alpha(src.d3.at_generator(i)))),
        "alpha_vanishes_on_under": (
            lambda j: f"alpha does not vanish on {src.m2.format_element(src.under2[j])}",
            lambda j: (alpha(src.under2[j]), m3.identity())),
        "alpha_equivariant": (
            lambda _: "alpha not f1-equivariant",
            lambda j: (alpha(src.action2.apply(src.m2.gen(j % n), src.m1.gen(j // n))),
                       tgt.action3.apply(alpha.at_generator(j % n), f.f1.at_generator(j // n)))),
    }
    try:
        decide(rep, system_checks(system or xc3_homotopy_system(f, g), {2: alpha}, checks, alpha))
    except Undefined as exc:
        rep.add("alpha_equivariant", False, str(exc))
    return rep


class CoordinateBlock(NamedTuple):
    """Unknowns for a homotopy's values on source generators in one abelian
    target `group`: the `group.ngens` coordinates (`Group.ab`) of the value
    on generator x are the unknowns from offset + slots[x] * group.ngens.
    The canonical witness reduces the unknowns in this numbering order."""

    offset: int
    group: Group
    slots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.group.ngens

    def var(self, x: int, k: int) -> int:
        return self.offset + self.slots[x] * self.group.ngens + k

    def to_json(self) -> dict:
        """What turns a solution u into the values: the value on generator x
        has the rank coordinates of u from offset + slots[x] rank, reduced
        by the group's relation rows in their `Lattice` order; in an fg
        abelian group that vector is the value's JSON."""
        return {"offset": self.offset, "rank": self.dim, "slots": list(self.slots),
                "relations": [list(row) for row in self.group.ab_relation_rows()]}


class LinearHomotopy:
    """The equations of a homotopy f ~ g as one integer linear system, for
    morphisms of crossed 3-complexes and of reduced quadratic 4-complexes.

    The unknowns are abelian coordinates of the homotopy's values on the
    source generators, one `CoordinateBlock` per degree.  `degree2` opens
    the first block with the equations -f2 x + g2 x = d3' alpha(x);
    `add_rows` adds the equations of one check of the kind's system
    (`xc3_homotopy_system`, `quadratic.rq_homotopy_system`) as the system
    states them, terms in the blocks' values at points plus a right-hand
    side, the same equations that the verifier checks (`system_checks`);
    `solve` returns the canonical solution and `accept` its re-verified
    witness.  Failed checks and obstructions go into `rep`.

    The canonical solution is the unique one that `Lattice.reduce` leaves
    in the numbering order of the unknowns, and the unknowns are numbered
    in the order it should reduce them: the shift t of `shift_unknown`
    first, then block by block, in each block the generators that f2 kills
    (degree 2) first and then the others, each by descending generator
    index, the coordinates of one generator together.  So the one reduction
    in `ZSystem.solve` gives the canonical witness.

    The system decides f ~ g whenever the targets of the homotopy are
    abelian and d3' is central on generators; otherwise ValueError is
    raised.
    """

    def __init__(self, f, g, title: str):
        if f.source is not g.source and f.source != g.source:
            raise ValueError("morphisms must share a source")
        if f.target is not g.target and f.target != g.target:
            raise ValueError("morphisms must share a target")
        self.rep = Report(title)
        self.system = ZSystem()
        self.blocks: list[CoordinateBlock] = []
        self.shifted = False

    def refute(self, check_id: str, witness: str, reason: str | None = None) -> None:
        """Record a failed check and its obstruction (the witness text unless
        a reason is given)."""
        self.rep.add(check_id, False, witness)
        self.rep.obstructions.append({"reason": reason or witness})

    def unknowns(self, n: int, group: Group, degree: int,
                 killed: Sequence[int] = ()) -> CoordinateBlock:
        """A new block of unknowns for values in `group` on n generators,
        those in `killed` first."""
        if not group.is_abelian:
            raise ValueError("the homotopy equations need abelian coordinates "
                             f"on the degree-{degree} target")
        order = sorted(range(n), key=lambda x: (x not in killed, -x))
        slot = {x: s for s, x in enumerate(order)}
        block = CoordinateBlock(self.system.nvars, group, tuple(slot[x] for x in range(n)))
        self.system.new_vars(n * group.ngens)
        self.blocks.append(block)
        return block

    def degree2(self, d3t: GroupHom, f2: GroupHom, g2: GroupHom
                ) -> CoordinateBlock | None:
        """The block of alpha, with values in the source of d3', under the
        equations -f2 x + g2 x = d3' alpha(x) at the canonical generators x,
        where the verifiers read them, in coordinates on the centre of the
        degree-2 target (`Group.central_coords`).  None, with the
        obstruction recorded, when f2 and g2 differ while d3' = 0, or when
        -f2 x + g2 x is not central.  Raises ValueError naming the first
        generator whose d3' value is not central."""
        grp, names = d3t.target, f2.source.names
        diffs = [_difference_at(grp, f2, g2, x) for x in range(len(f2.images))]
        zero = d3t.is_zero()
        if zero:
            x = next((x for x, c in enumerate(diffs) if not grp.is_identity(c)), None)
            if x is not None:
                return self.refute("degree2_solvable",
                                   "d3 = 0 in the target forces f2 = g2; the "
                                   f"morphisms differ at generator {names[x]}")
        killed = [x for x, im in enumerate(f2.images) if grp.is_identity(im)]
        alpha = self.unknowns(len(diffs), d3t.source, 3, killed)
        if zero:
            return alpha
        dimc, rowsc = len(grp.central_coords(grp.identity())), grp.ab_relation_rows()
        boundary = [grp.central_coords(d3t.at_generator(h)) for h in range(d3t.source.ngens)]
        k = next((k for k, row in enumerate(boundary) if row is None), None)
        if k is not None:
            raise ValueError(f"d3' is not central at generator {d3t.source.names[k]}, "
                             "so the homotopy equations are not linear")
        for x, c in enumerate(diffs):
            ex = grp.central_coords(c)
            if ex is None:
                return self.refute("degree2_solvable",
                                   f"-f2 + g2 is not central at generator {names[x]}, "
                                   "but every d3' value is central")
            self.system.add(dimc, [(alpha.var(x, k), boundary[k])
                                   for k in range(alpha.dim)], list(ex), rowsc)
        return alpha

    def add_rows(self, group: Group, terms, rhs: list | None, blocks: dict, extra=None) -> None:
        """The equations of one check of a homotopy's system, as it states
        them: sum over terms (k, weights, left) of left()(alpha_k(x_j)) +
        extra[j] = rhs[j], one per j, in the coordinates of `group` modulo
        its relation rows, where alpha_k is the block blocks[k], x_j the
        point whose coordinates are weights[j], left() a map whose values at
        generators multiply alpha_k's coordinates (None for none), built
        here, and extra[j] more (unknown, coefficients) terms.  rhs is by
        rows, None for 0."""
        dim, mod = group.ngens, group.ab_relation_rows()
        terms = [(blocks[k].var, range(blocks[k].dim), weights, left().coords_at_generators()
                  if left else [[int(i == c) for i in range(dim)] for c in range(dim)])
                 for k, weights, left in terms]
        for j in range(len(terms[0][2])):
            row = [] if extra is None else list(extra[j])
            for var, ks, weights, cols in terms:
                row += [(var(x, k), [w * c for c in cols[k]])
                        for x, w in enumerate(weights[j]) if w for k in ks]
            self.system.add(dim, row, [0] * dim if rhs is None else [r[j] for r in rhs], mod)

    def shift_unknown(self) -> int:
        """The unknown t, numbered 0, the shift of a family g_t of right-hand
        maps whose equations the caller writes with t; `solve` then decides
        every member of the family at once.  Ask for it before any block."""
        self.shifted = True
        return self.system.new_vars(1)[0]

    def solve(self):
        """The canonical solution, as the values on the source generators
        block by block, or with a shift unknown the `ShiftedSolutions`; None,
        with the obstruction recorded, when there is no integer solution."""
        sol = self.system.solve()
        if sol is None:
            return self.refute("solvable",
                               "the homotopy equations have no integer solution",
                               "no integer solution to the homotopy equations")
        if self.shifted:
            return ShiftedSolutions(self, *sol)
        return self.values(sol[0])

    def values(self, u: Sequence[int]) -> list[tuple]:
        """The values that the reduced solution u gives on the source
        generators, block by block."""
        return [tuple(b.group.from_ab(u[b.var(x, 0):b.var(x, b.dim)])
                      for x in range(len(b.slots))) for b in self.blocks]

    def accept(self, verification: Report, witness_json: dict) -> None:
        """Record a witness built from `solve` once it re-verifies.  The
        re-verification's checks are listed without their basis, so decision
        reports keep their format; the route is in `meta["method"]`."""
        if not verification.ok:
            raise RuntimeError("internal error: solver witness failed re-verification")
        self.rep.meta["method"] = "linear"
        self.rep.checks.extend(Check(c.check_id, c.passed, c.witness, c.note)
                               for c in verification.checks)
        self.rep.witnesses.append(witness_json)


class ShiftedSolutions:
    """The solutions of a `LinearHomotopy` system with the shift unknown t.

    Over Z the values of t that admit a solution are a single t0 (`step` 0)
    or a progression t0 + step Z.  t is unknown 0, so the kernel's echelon
    basis has the step as the leading entry of its first row when step is
    not 0, and its other rows span the t = 0 kernel, which is the kernel
    of the system with t fixed.  At an admitted t the solutions are one
    particular solution plus that kernel; so `solution_at` reduces a
    solution at t exactly as `solve` reduces one of that system, and
    `lin.values` of it are the same canonical values."""

    def __init__(self, lin: LinearHomotopy, u0: Sequence[int], kernel):
        self.lin, self.u0, self.t0 = lin, u0, u0[0]
        self.step = kernel[0][0] if kernel else 0
        self.step_row = kernel[0] if self.step else None
        self.kernel0 = Lattice(len(u0), kernel[1:] if self.step else kernel)

    def admits(self, t: int) -> bool:
        return (t - self.t0) % self.step == 0 if self.step else t == self.t0

    def solution_at(self, t: int) -> tuple[int, ...] | None:
        """The reduced solution at t, u0 + q step_row reduced by kernel0;
        None when t is not admitted."""
        if not self.admits(t):
            return None
        u = self.u0
        if self.step:
            q = (t - self.t0) // self.step
            u = [a + q * b for a, b in zip(u, self.step_row)]
        return self.kernel0.reduce(u)


def xc3_homotopy_decision(f: XC3Morphism, g: XC3Morphism
                          ) -> tuple[XC3Homotopy | None, Report]:
    """Decide f ~ g for morphisms of 3-complexes agreeing in degree 1 by the
    integer linear system of `LinearHomotopy`; a witness found is canonical
    and re-verified.

    Complete for crossed complexes whose degree-3 target has abelian
    coordinates: ker d2 of a crossed module is central, so every d3' value
    is.  Raises ValueError when M3' has no abelian coordinates or a d3'
    value on a generator is not central.
    """
    lin = LinearHomotopy(f, g, "crossed complex homotopy")
    tgt = f.target
    if not all(map(tgt.m1.eq, f.f1.images, g.f1.images)):
        lin.refute("f1_equals_g1", "homotopy requires f1 = g1", "f1 != g1")
        return None, lin.rep
    alpha = lin.degree2(tgt.d3, f.f2, g.f2)
    if alpha is None:
        return None, lin.rep
    system = list(xc3_homotopy_system(f, g))
    for check_id, grp, terms, rhs in system:
        # degree 2 is degree2's, and a check without points has no equation
        if check_id != "degree2_equation" and terms[0][1]:
            lin.add_rows(grp, terms, rhs, {2: alpha})
    values = lin.solve()
    if values is None:
        return None, lin.rep
    witness = XC3Homotopy(values[0])
    lin.accept(verify_xc3_homotopy(f, g, witness, system), witness.to_json(tgt))
    return witness, lin.rep


def xc3_homotopic(f: XC3Morphism, g: XC3Morphism) -> XC3Homotopy | None:
    return xc3_homotopy_decision(f, g)[0]
