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
(left-to-right over canonical words), and both vanishing on the under-object.
Equations are imposed and verified generator by generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .crossed import (GroupAction, LinearHomotopy, PreCrossedModule,
                      peiffer_commutator)
from .groups import FgAbelianGroup, Group, GroupHom
from .intlinalg import vec_sub
from .report import Report, seed_from_env
from .tensor import TensorElement


@dataclass
class ReducedQuadraticModule:
    """omega: C (x) C -> Q3 over d3: Q3 -> Q2 with Q2 nil(2), C = Q2^ab."""

    q2: Group
    q3: Group
    omega: tuple
    d3: GroupHom

    def __post_init__(self):
        n = self.q2.ngens
        self.omega = tuple(tuple(self.q3.canon(e) for e in row) for row in self.omega)
        if len(self.omega) != n or any(len(r) != n for r in self.omega):
            raise ValueError("omega must be given on the n x n basis of C (x) C")
        if self.d3.source != self.q3 or self.d3.target != self.q2:
            raise ValueError("d3 must map q3 to q2")

    def omega_apply(self, t: TensorElement):
        """omega of a tensor, folded over entries in row-major order."""
        if t.n != len(self.omega):
            raise ValueError("tensor rank must match rank of C")
        acc = self.q3.identity()
        for i, j, c in t.entries():
            acc = self.q3.op(acc, self.q3.pow(self.omega[i][j], c))
        return acc

    def braces(self, x) -> tuple[int, ...]:
        """{x}: coordinates of x in C = Q2^ab."""
        return self.q2.ab(x)


def rqm_check(q: ReducedQuadraticModule, samples: int = 200,
              seed: int | None = None) -> Report:
    """Axioms of a reduced quadratic module, exactly on generators and on
    sampled random elements."""
    if seed is None:
        seed = seed_from_env()
    rng = random.Random(seed)
    rep = Report("reduced quadratic module")
    rep.meta.update(seed=seed, samples=samples)
    g2, g3 = q.q2, q.q3

    bad = None
    if not g2.is_nil2:
        gens = g2.generators()
        if any(not g2.is_identity(g2.commutator(g2.commutator(x, y), z))
               for x in gens for y in gens for z in gens):
            bad = "triple commutator of generators does not vanish"
    rep.add("axiom1_q2_nil2", bad is None, bad,
            note="structural" if g2.is_nil2 else "generator triples")

    ok, why = q.d3.check_hom(rng)
    rep.add("d3_is_homomorphism", ok, why)

    rel_rows = g2.ab_relation_rows()
    bad = next((f"omega does not kill the relation {list(row)}"
                for row in rel_rows for ej in map(q.braces, g2.generators())
                if not (g3.is_identity(q.omega_apply(TensorElement.outer(row, ej)))
                        and g3.is_identity(q.omega_apply(TensorElement.outer(ej, row))))),
               None)
    rep.add("omega_well_defined_on_C", bad is None, bad,
            note="vacuous: C free" if not rel_rows else "relation rows")

    bad = None
    pairs = [(x, y) for x in g2.generators() for y in g2.generators()]
    extra = [(g2.random_element(rng), g2.random_element(rng)) for _ in range(samples)]
    for x, y in pairs + extra:
        lhs = q.d3(q.omega_apply(TensorElement.outer(q.braces(x), q.braces(y))))
        if not g2.eq(lhs, g2.commutator(x, y)):
            bad = (f"d3 omega({{x}} (x) {{y}}) != (x, y) at "
                   f"x={g2.format_element(x)}, y={g2.format_element(y)}")
            break
    rep.add("axiom2_d3_omega_is_commutator", bad is None, bad,
            note=f"all generator pairs + {samples} samples")

    bad = None
    pairs3 = [(p, x) for p in g3.generators() for x in g2.generators()]
    extra3 = [(g3.random_element(rng), g2.random_element(rng)) for _ in range(samples)]
    for p, x in pairs3 + extra3:
        bnd = q.braces(q.d3(p))
        t = (TensorElement.outer(bnd, q.braces(x))
             + TensorElement.outer(q.braces(x), bnd))
        if not g3.is_identity(q.omega_apply(t)):
            bad = f"omega({{d3 p}} (x) {{x}} + {{x}} (x) {{d3 p}}) != 0"
            break
    rep.add("axiom3_boundary_tensors_vanish", bad is None, bad,
            note=f"all generator pairs + {samples} samples")

    bad = None
    pairs4 = [(p, r) for p in g3.generators() for r in g3.generators()]
    extra4 = [(g3.random_element(rng), g3.random_element(rng)) for _ in range(samples)]
    for p, r in pairs4 + extra4:
        t = TensorElement.outer(q.braces(q.d3(p)), q.braces(q.d3(r)))
        if not g3.eq(g3.commutator(p, r), q.omega_apply(t)):
            bad = "(p, q) != omega({d3 p} (x) {d3 q})"
            break
    rep.add("axiom4_q3_commutators", bad is None, bad,
            note=f"all generator pairs + {samples} samples")
    return rep


@dataclass
class UnderCofibration:
    """Cofibration q: base >--> complex, one homomorphism per degree."""

    base: "ReducedQuadraticComplex4"
    q2: GroupHom
    q3: GroupHom
    q4: GroupHom


@dataclass
class ReducedQuadraticComplex4:
    """A reduced quadratic module extended by an abelian Q4 --d4--> Q3."""

    rqm: ReducedQuadraticModule
    q4: Group
    d4: GroupHom
    under: UnderCofibration | None = None
    name: str = "reduced quadratic 4-complex"

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


def complex_from_rqm(rqm: ReducedQuadraticModule, name: str = "reduced quadratic 4-complex"
                     ) -> ReducedQuadraticComplex4:
    """View a reduced quadratic module as a 4-complex with Q4 = 0."""
    q4 = FgAbelianGroup(0)
    return ReducedQuadraticComplex4(rqm, q4, GroupHom.zero(q4, rqm.q3), name=name)


@dataclass
class QCMorphism:
    """(f2, f3, f4) between reduced quadratic 4-complexes (degree 1 trivial)."""

    source: ReducedQuadraticComplex4
    target: ReducedQuadraticComplex4
    f2: GroupHom
    f3: GroupHom
    f4: GroupHom
    tag: tuple | None = None

    def maps_json(self) -> dict:
        return {"f2": self.f2.element_json(), "f3": self.f3.element_json(),
                "f4": self.f4.element_json()}


class MorphismFrame(NamedTuple):
    """The parts of the morphism equations that do not depend on the maps:
    d3 and d4 on the source generators, and the images of the under-object's
    generators on both sides, per degree (empty when no under-condition
    applies)."""

    d3: tuple
    d4: tuple
    under: tuple


def morphism_frame(src: ReducedQuadraticComplex4,
                   tgt: ReducedQuadraticComplex4) -> MorphismFrame:
    under = ()
    if (src.under is not None and tgt.under is not None
            and src.under.base.q2 == tgt.under.base.q2):
        base = src.under.base
        under = tuple(
            (deg, tuple((qs(z), qt(z)) for z in bgrp.generators()))
            for deg, qs, qt, bgrp in (
                (2, src.under.q2, tgt.under.q2, base.q2),
                (3, src.under.q3, tgt.under.q3, base.q3),
                (4, src.under.q4, tgt.under.q4, base.q4)))
    return MorphismFrame(tuple(src.d3(h) for h in src.q3.generators()),
                         tuple(src.d4(k) for k in src.q4.generators()),
                         under)


def qcm_equations(m: QCMorphism, frame: MorphismFrame | None = None):
    """The conditions on a morphism, in report order, as
    (check id, map, group, equations).

    Each equation is (lhs, rhs, message): two elements of the group that must
    be equal, and the message reported when they are not.  The equations are
    produced lazily.  For the three `*_is_homomorphism` checks the map is
    given and the equations are its relation rows; `GroupHom.check_hom`
    decides them, adding the nil(2) laws when the target is not nil(2) by
    construction.  The under-checks appear only when both sides carry
    cofibrations from the same base.
    """
    src, tgt = m.source, m.target
    if frame is None:
        frame = morphism_frame(src, tgt)
    for name, h in (("f2", m.f2), ("f3", m.f3), ("f4", m.f4)):
        yield (f"{name}_is_homomorphism", h, h.target,
               ((img, h.target.identity(),
                 f"relation {list(row)} maps to a non-identity element")
                for row, img in h.relation_images()))
    yield "square_d3", None, tgt.q2, (
        (m.f2(dh), tgt.d3(m.f3(h)),
         f"f2 d3 != d3' f3 at generator {src.q3.names[i]}")
        for i, (h, dh) in enumerate(zip(src.q3.generators(), frame.d3)))
    yield "square_d4", None, tgt.q3, (
        (m.f3(dk), tgt.d4(m.f4(k)),
         f"f3 d4 != d4' f4 at generator {src.q4.names[i]}")
        for i, (k, dk) in enumerate(zip(src.q4.generators(), frame.d4)))
    n = src.q2.ngens
    yield "square_omega", None, tgt.q3, (
        (m.f3(src.rqm.omega[i][j]),
         tgt.omega_apply(TensorElement.outer(tgt.braces(m.f2.images[i]),
                                             tgt.braces(m.f2.images[j]))),
         f"f3 omega != omega' (f2^ab (x) f2^ab) at basis ({i},{j})")
        for i in range(n) for j in range(n))
    maps = {2: (m.f2, tgt.q2), 3: (m.f3, tgt.q3), 4: (m.f4, tgt.q4)}
    for deg, pairs in frame.under:
        fh, grp = maps[deg]
        yield f"under_degree{deg}", None, grp, (
            (fh(zs), zt, f"f does not commute with the cofibration in degree {deg}")
            for zs, zt in pairs)


def qcm_check(m: QCMorphism, samples: int = 50, seed: int | None = None) -> Report:
    """Boundary squares, omega compatibility, and under-object agreement."""
    if seed is None:
        seed = seed_from_env()
    rng = random.Random(seed)
    rep = Report("quadratic complex morphism")
    rep.meta.update(seed=seed, samples=samples)
    for check_id, h, grp, equations in qcm_equations(m):
        if h is not None:
            ok, bad = h.check_hom(rng)
        else:
            bad = next((msg for lhs, rhs, msg in equations
                        if not grp.eq(lhs, rhs)), None)
            ok = bad is None
        rep.add(check_id, ok, bad)
    return rep


def rqc4_check(c: ReducedQuadraticComplex4, samples: int = 200,
               seed: int | None = None) -> Report:
    if seed is None:
        seed = seed_from_env()
    rng = random.Random(seed)
    rep = rqm_check(c.rqm, samples=samples, seed=seed)
    rep.title = c.name
    gens = c.q4.generators()
    bad = next((f"generators {c.q4.names[i]} and {c.q4.names[j]} do not commute"
                for i, p in enumerate(gens) for j, r in enumerate(gens)
                if not c.q4.is_identity(c.q4.commutator(p, r))), None)
    rep.add("q4_abelian", bad is None, bad,
            note="structural" if c.q4.is_abelian else "generator pairs")
    ok, why = c.d4.check_hom(rng)
    rep.add("d4_is_homomorphism", ok, why)
    bad = None
    for i, k in enumerate(c.q4.generators()):
        if not c.q2.is_identity(c.d3(c.d4(k))):
            bad = f"d3 d4 != 0 at generator {c.q4.names[i]}"
            break
    rep.add("d3_d4_zero", bad is None, bad)
    if c.under is not None:
        cof = QCMorphism(c.under.base, c, c.under.q2, c.under.q3, c.under.q4)
        sub = qcm_check(cof, samples=min(samples, 50), seed=seed)
        rep.merge(sub, prefix="under.")
    return rep


# ---------------------------------------------------------------------------
# general (pre-crossed base) quadratic modules: checker only


@dataclass
class QuadraticModule:
    """w-lifted quadratic module over a nil(2) pre-crossed module."""

    pre: PreCrossedModule
    q3: Group
    d3: GroupHom
    omega: tuple
    action3: GroupAction

    def __post_init__(self):
        n = self.pre.m2.ngens
        self.omega = tuple(tuple(self.q3.canon(e) for e in row) for row in self.omega)
        if len(self.omega) != n or any(len(r) != n for r in self.omega):
            raise ValueError("omega must be given on the n x n basis of C (x) C")

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

    def braces(self, x) -> tuple[int, ...]:
        return self.pre.m2.ab(x)


def qm_check(q: QuadraticModule, samples: int = 200, seed: int | None = None) -> Report:
    from .crossed import check_precrossed

    if seed is None:
        seed = seed_from_env()
    rng = random.Random(seed)
    rep = Report("quadratic module")
    rep.meta.update(seed=seed, samples=samples)
    rep.merge(check_precrossed(q.pre, samples=samples, seed=seed), prefix="base.")
    g2, g3, g1 = q.pre.m2, q.q3, q.pre.m1

    bad = None
    for _ in range(samples):
        x, y, z = (g2.random_element(rng) for _ in range(3))
        if not g2.is_identity(peiffer_commutator(
                q.pre, peiffer_commutator(q.pre, x, y), z)):
            bad = "<<x,y>,z> does not vanish"
            break
        if not g2.is_identity(peiffer_commutator(
                q.pre, x, peiffer_commutator(q.pre, y, z))):
            bad = "<x,<y,z>> does not vanish"
            break
    rep.add("axiom1_nil2", bad is None, bad, note=f"{samples} samples")

    c = q.c_group()
    bad = next((f"omega does not kill the C-relation {list(row)}"
                for row in c.ab_relation_rows() for ej in map(q.braces, g2.generators())
                if not (g3.is_identity(q.omega_apply(TensorElement.outer(row, ej)))
                        and g3.is_identity(q.omega_apply(TensorElement.outer(ej, row))))),
               None)
    rep.add("omega_well_defined_on_C", bad is None, bad)

    ok, why = q.d3.check_hom(rng)
    rep.add("d3_is_homomorphism", ok, why)
    bad = None
    for p in g3.generators():
        if not g1.is_identity(q.pre.d(q.d3(p))):
            bad = "d2 d3 != 0"
            break
    rep.add("d2_d3_zero", bad is None, bad)

    bad = None
    pairs = [(x, y) for x in g2.generators() for y in g2.generators()]
    extra = [(g2.random_element(rng), g2.random_element(rng)) for _ in range(samples)]
    for x, y in pairs + extra:
        lhs = q.d3(q.omega_apply(TensorElement.outer(q.braces(x), q.braces(y))))
        if not g2.eq(lhs, peiffer_commutator(q.pre, x, y)):
            bad = "d3 omega != w (Peiffer lift)"
            break
    rep.add("axiom2_d3_omega_is_w", bad is None, bad,
            note=f"all generator pairs + {samples} samples")

    bad = None
    pairs3 = [(p, x) for p in g3.generators() for x in g2.generators()]
    extra3 = [(g3.random_element(rng), g2.random_element(rng)) for _ in range(samples)]
    for p, x in pairs3 + extra3:
        bnd = q.braces(q.d3(p))
        t = (TensorElement.outer(bnd, q.braces(x))
             + TensorElement.outer(q.braces(x), bnd))
        lhs = q.action3.apply(p, q.pre.d(x))
        if not g3.eq(lhs, g3.op(g3.canon(p), q.omega_apply(t))):
            bad = "q^{d2 x} != q + omega({d3 q}(x){x} + {x}(x){d3 q})"
            break
    rep.add("axiom3_action_formula", bad is None, bad,
            note=f"all generator pairs + {samples} samples")

    bad = None
    pairs4 = [(p, r) for p in g3.generators() for r in g3.generators()]
    extra4 = [(g3.random_element(rng), g3.random_element(rng)) for _ in range(samples)]
    for p, r in pairs4 + extra4:
        t = TensorElement.outer(q.braces(q.d3(p)), q.braces(q.d3(r)))
        if not g3.eq(g3.commutator(p, r), q.omega_apply(t)):
            bad = "(p, q) != omega({d3 p} (x) {d3 q})"
            break
    rep.add("axiom4_q3_commutators", bad is None, bad,
            note=f"all generator pairs + {samples} samples")

    bad = next(("d3 not equivariant"
                for p in g3.generators() for a in g1.generators()
                if not g2.eq(q.d3(q.action3.apply(p, a)),
                             q.pre.action.apply(q.d3(p), a))), None)
    rep.add("d3_equivariant", bad is None, bad)

    n = g2.ngens
    w_mats = []
    for a in g1.generators():
        w_cols = [g2.ab(q.pre.action.apply(g2.gen(j), a)) for j in range(n)]
        w_mats.append((a, [[w_cols[j][k] for j in range(n)] for k in range(n)]))
    bad = next(("omega not equivariant"
                for a, w_mat in w_mats for i in range(n) for j in range(n)
                if not g3.eq(q.action3.apply(q.omega[i][j], a),
                             q.omega_apply(TensorElement.basis(n, i, j).induced(w_mat)))),
               None)
    rep.add("omega_equivariant", bad is None, bad)
    return rep


# ---------------------------------------------------------------------------
# homotopy


@dataclass
class QCHomotopy:
    """Witness (alpha2, alpha3): generator images in Q3' and Q4'."""

    alpha2: tuple
    alpha3: tuple

    def alpha3_hom(self, source: ReducedQuadraticComplex4,
                   target: ReducedQuadraticComplex4) -> GroupHom:
        return GroupHom(source.q3, target.q4, self.alpha3)

    def to_json(self, target: ReducedQuadraticComplex4) -> dict:
        return {"alpha2": [target.q3.element_to_json(a) for a in self.alpha2],
                "alpha3": [target.q4.element_to_json(a) for a in self.alpha3]}


def alpha2_extend(values: Sequence, f: QCMorphism, g: QCMorphism, x):
    """Evaluate alpha2 on x by the left-to-right extension rule, given its
    values on the source degree-2 generators."""
    src2, tgt = f.source.q2, f.target
    q3t = tgt.q3
    n_c = tgt.q2.ngens
    f2ab = [tgt.q2.ab(im) for im in f.f2.images]
    g2ab = [tgt.q2.ab(im) for im in g.f2.images]
    acc = q3t.identity()
    run_f = [0] * n_c
    run_g = [0] * n_c
    for i, s in src2.word_of(src2.canon(x)):
        if s > 0:
            val = q3t.canon(values[i])
            step_f, step_g = list(f2ab[i]), list(g2ab[i])
        else:
            dvec = vec_sub(g2ab[i], f2ab[i])
            corr0 = tgt.omega_apply(TensorElement.outer(dvec, f2ab[i]))
            val = q3t.op(q3t.inv(q3t.canon(values[i])), corr0)
            step_f = [-a for a in f2ab[i]]
            step_g = [-a for a in g2ab[i]]
        corr = tgt.omega_apply(TensorElement.outer(vec_sub(run_g, run_f), step_f))
        acc = q3t.op_all(acc, val, corr)
        run_f = [a + b for a, b in zip(run_f, step_f)]
        run_g = [a + b for a, b in zip(run_g, step_g)]
    return acc


def verify_rq_homotopy(f: QCMorphism, g: QCMorphism, h: QCHomotopy) -> Report:
    """Re-check a homotopy witness equation by equation on generators."""
    rep = Report("quadratic homotopy certificate")
    src, tgt = f.source, f.target
    alpha3 = h.alpha3_hom(src, tgt)
    ok, why = alpha3.check_hom()
    rep.add("alpha3_is_homomorphism", ok, why)
    bad = None
    for i, x in enumerate(src.q2.generators()):
        lhs = tgt.q2.op(tgt.q2.inv(f.f2(x)), g.f2(x))
        if not tgt.q2.eq(lhs, tgt.d3(h.alpha2[i])):
            bad = f"-f2 + g2 != d3' alpha2 at generator {src.q2.names[i]}"
            break
    rep.add("homotopy_degree2", bad is None, bad)
    bad = None
    for i, t in enumerate(src.q3.generators()):
        lhs = tgt.q3.op(tgt.q3.inv(f.f3(t)), g.f3(t))
        rhs = tgt.q3.op(tgt.d4(alpha3(t)),
                        alpha2_extend(h.alpha2, f, g, src.d3(t)))
        if not tgt.q3.eq(lhs, rhs):
            bad = f"-f3 + g3 != d4' alpha3 + alpha2 d3 at generator {src.q3.names[i]}"
            break
    rep.add("homotopy_degree3", bad is None, bad)
    bad = None
    for i, k in enumerate(src.q4.generators()):
        lhs = tgt.q4.op(tgt.q4.inv(f.f4(k)), g.f4(k))
        if not tgt.q4.eq(lhs, alpha3(src.d4(k))):
            bad = f"-f4 + g4 != alpha3 d4 at generator {src.q4.names[i]}"
            break
    rep.add("homotopy_degree4", bad is None, bad)
    if src.under is not None:
        base = src.under.base
        bad = None
        for z in base.q2.generators():
            if not tgt.q3.is_identity(alpha2_extend(h.alpha2, f, g, src.under.q2(z))):
                bad = f"alpha2 does not vanish on {base.q2.format_element(z)}"
                break
        rep.add("alpha2_vanishes_on_under", bad is None, bad)
        bad = None
        for z in base.q3.generators():
            if not tgt.q4.is_identity(alpha3(src.under.q3(z))):
                bad = f"alpha3 does not vanish on {base.q3.format_element(z)}"
                break
        rep.add("alpha3_vanishes_on_under", bad is None, bad)
    return rep


def _alpha2_symbolic(word, f: QCMorphism, g: QCMorphism):
    """Affine form of alpha2 on a word: integer coefficients per source
    degree-2 generator plus a constant element of the (abelian) target Q3."""
    tgt = f.target
    q3t = tgt.q3
    n2 = f.source.q2.ngens
    n_c = tgt.q2.ngens
    f2ab = [tgt.q2.ab(im) for im in f.f2.images]
    g2ab = [tgt.q2.ab(im) for im in g.f2.images]
    coeffs = [0] * n2
    const = q3t.identity()
    run_f = [0] * n_c
    run_g = [0] * n_c
    for i, s in word:
        if s > 0:
            coeffs[i] += 1
            step_f, step_g = list(f2ab[i]), list(g2ab[i])
        else:
            coeffs[i] -= 1
            dvec = vec_sub(g2ab[i], f2ab[i])
            const = q3t.op(const, tgt.omega_apply(
                TensorElement.outer(dvec, f2ab[i])))
            step_f = [-a for a in f2ab[i]]
            step_g = [-a for a in g2ab[i]]
        const = q3t.op(const, tgt.omega_apply(
            TensorElement.outer(vec_sub(run_g, run_f), step_f)))
        run_f = [a + b for a, b in zip(run_f, step_f)]
        run_g = [a + b for a, b in zip(run_g, step_g)]
    return coeffs, const


def rq_homotopy_decision(f: QCMorphism, g: QCMorphism
                         ) -> tuple[QCHomotopy | None, Report]:
    """Decide f ~ g and produce the canonical verified witness or an
    obstruction, by the integer linear system of `LinearHomotopy`.

    alpha2 enters the degree-3 equations through its affine form on the
    words of d3 (`_alpha2_symbolic`), so the system is linear.  Complete
    whenever the target has abelian coordinates in degrees 3 and 4 and its
    d3 is central on generators (zero, or landing in the centre, as on
    every abelian degree-2 target).  Raises ValueError otherwise, naming
    the first generator whose d3' value is not central; the cylinder Q is
    such a target (d3(e3) = -e + e' + e'').
    """
    lin = LinearHomotopy(f, g, "quadratic homotopy")
    src, tgt = f.source, f.target
    alpha2 = lin.degree2(tgt.d3, f.f2, g.f2)
    if alpha2 is None:
        return None, lin.rep
    alpha3 = lin.unknowns(src.q3.ngens, tgt.q4, 4)

    drow = [list(alpha2.coords(tgt.d4(hk))) for hk in tgt.q4.generators()]
    for i, t in enumerate(src.q3.generators()):
        coeffs, const = _alpha2_symbolic(src.q2.word_of(src.d3(t)), f, g)
        rhs = tgt.q3.op_all(tgt.q3.inv(f.f3.images[i]), g.f3.images[i],
                            tgt.q3.inv(const))
        lin.add_sum(alpha2, coeffs, alpha2.coords(rhs),
                    [(alpha3.var(i, k), drow[k]) for k in range(alpha3.dim)])
    for i, k4 in enumerate(src.q4.generators()):
        rhs = tgt.q4.op(tgt.q4.inv(f.f4.images[i]), g.f4.images[i])
        lin.add_sum(alpha3, src.q3.ab(src.d4(k4)), alpha3.coords(rhs))
    for row in src.q3.ab_relation_rows():
        lin.add_sum(alpha3, row)
    if src.under is not None:
        base = src.under.base
        for z in base.q2.generators():
            coeffs, const = _alpha2_symbolic(src.q2.word_of(src.under.q2(z)), f, g)
            lin.add_sum(alpha2, coeffs, alpha2.coords(tgt.q3.inv(const)))
        for z in base.q3.generators():
            lin.add_sum(alpha3, src.q3.ab(src.under.q3(z)))

    values = lin.solve()
    if values is None:
        return None, lin.rep
    witness = QCHomotopy(*values)
    lin.accept(verify_rq_homotopy(f, g, witness), witness.to_json(tgt))
    return witness, lin.rep


def rq_homotopic(f: QCMorphism, g: QCMorphism) -> QCHomotopy | None:
    return rq_homotopy_decision(f, g)[0]
