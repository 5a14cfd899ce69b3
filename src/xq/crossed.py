"""Pre-crossed and crossed modules, 3-dimensional crossed complexes,
Peiffer commutators, and homotopy of complex morphisms, including the
integer linear system (`LinearHomotopy`) that decides homotopy here and for
reduced quadratic complexes.

Group actions are right actions given on generators; conventions:
    x^m        action of m on x,
    (x, y)   = -x - y + x + y,
    <x, y>   = -x - y + x + y^{d(x)}     (Peiffer commutator).
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Sequence

from .groups import Group, GroupHom, generator_pairs, invert_hom
from .intlinalg import Lattice, ZSystem
from .report import Check, Report, Undefined, sampled_report

PRODUCT_LENGTH = 6  # check_crossed samples products of at most this many generators


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
        out = self.acted.canon(x)
        for block, count in self.acting.word_runs(a):
            unit = self.endo(*block[0])
            for i, s in block[1:]:
                unit = unit.then(self.endo(i, s))
            out = unit.power(count)(out)
        return out

    def check(self, rng: random.Random, samples: int) -> Report:
        rep = Report("group action")
        acted, acting = self.acted, self.acting
        if self.kind == "table":
            homs = (self.endo(i).check_hom() for i in range(acting.ngens))
            rep.first_failure("action_endos_are_homs",
                              (f"generator {acting.names[i]}: {why}"
                               for i, (ok, why) in enumerate(homs) if not ok),
                              basis="proved")
            if self.inverse_table is not None:
                rep.first_failure("action_inverse_table",
                                  (f"inverse table wrong at generator {acting.names[i]}"
                                   for i in range(acting.ngens) for x in acted.generators()
                                   if not acted.eq(self.endo(i, -1)(self.endo(i, 1)(x)), x)))
        else:
            rep.add("action_endos_are_homs", True, note=f"{self.kind}: by construction")

        def axiom_failures():
            for _ in range(samples):
                x, y = acted.random_element(rng), acted.random_element(rng)
                a, b = acting.random_element(rng), acting.random_element(rng)
                if not acted.eq(self.apply(acted.op(x, y), a),
                                acted.op(self.apply(x, a), self.apply(y, a))):
                    yield f"(x+y)^a != x^a + y^a at x={acted.format_element(x)}"
                if not acted.eq(self.apply(self.apply(x, a), b),
                                self.apply(x, acting.op(a, b))):
                    yield f"x^(a+b) != (x^a)^b at x={acted.format_element(x)}"
        rep.first_failure("action_axioms_sampled", axiom_failures(),
                          note=f"{samples} samples", basis="sampled")
        return rep


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


def check_precrossed(m: PreCrossedModule, samples: int = 200,
                     seed: int | None = None) -> Report:
    """Action axioms plus equivariance d(x^m) = -m + d(x) + m."""
    rep = sampled_report("pre-crossed module", samples, seed)
    rep.add_hom("d_is_homomorphism", m.d)
    rep.merge(m.action.check(rep.rng, samples))
    rep.first_failure("equivariance",
                      (f"d(x^m) != -m + d(x) + m at x={m.m2.format_element(x)}, "
                       f"m={m.m1.format_element(a)}"
                       for x, a in generator_pairs(m.m2, m.m1, rep.rng, samples)
                       if not m.m1.eq(m.d(m.action.apply(x, a)),
                                      m.m1.op_all(m.m1.inv(a), m.d(x), a))),
                      note=f"all generator pairs + {samples} samples", basis="sampled")
    return rep


def check_crossed(m: PreCrossedModule, samples: int = 200,
                  seed: int | None = None) -> Report:
    """Pre-crossed checks plus vanishing of all Peiffer commutators."""
    rep = check_precrossed(m, samples=samples, seed=seed)
    rep.title = "crossed module"
    import random
    rng = random.Random(rep.meta["seed"] + 1)
    g, fmt = m.m2, m.m2.format_element
    gens = g.generators()
    on_generators = (f"<{fmt(x)}, {fmt(y)}> = {fmt(p)}" for x in gens for y in gens
                     if not g.is_identity(p := peiffer_commutator(m, x, y)))
    sampled = ((g.random_element(rng, size=PRODUCT_LENGTH),
                g.random_element(rng, size=PRODUCT_LENGTH)) for _ in range(samples))
    rep.first_failure("peiffer_commutators_vanish", chain(
        on_generators, (f"<{fmt(x)}, {fmt(y)}> != 0" for x, y in sampled
                        if not g.is_identity(peiffer_commutator(m, x, y)))),
        note=f"all generator pairs + {samples} products of length <= {PRODUCT_LENGTH}",
        basis="sampled")
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


def xc3_check(x: CrossedComplex3, samples: int = 200,
              seed: int | None = None) -> Report:
    """Crossed module in degree 2; M3 abelian; d2 d3 = 0; im d2 acts
    trivially on M3; d3 equivariant."""
    rep = sampled_report("3-dimensional crossed complex", samples, seed)
    rep.merge(check_crossed(x.degree2_module(), samples=samples, seed=rep.meta["seed"]),
              prefix="degree2.")
    gens = x.m3.generators()
    rep.first_failure("m3_abelian",
                      (f"generators {x.m3.names[i]} and {x.m3.names[j]} do not commute"
                       for i, p in enumerate(gens) for j, q in enumerate(gens)
                       if not x.m3.is_identity(x.m3.commutator(p, q))))
    rep.add_hom("d3_is_homomorphism", x.d3)
    rep.first_failure("d2_d3_zero", (f"d2 d3 != 0 at {x.m3.format_element(t)}"
                                     for t in gens if not x.m1.is_identity(x.d2(x.d3(t)))))
    rep.first_failure("im_d2_acts_trivially_on_m3",
                      (f"im(d2) moves {x.m3.format_element(t)}"
                       for t, y in generator_pairs(x.m3, x.m2, rep.rng, samples)
                       if not x.m3.eq(x.action3.apply(t, x.d2(y)), x.m3.canon(t))),
                      note=f"all generator pairs + {samples} samples", basis="sampled")
    rep.first_failure("d3_equivariant",
                      (f"d3 not equivariant at {x.m3.format_element(t)}"
                       for t, a in generator_pairs(x.m3, x.m1, rep.rng, samples)
                       if not x.m2.eq(x.d3(x.action3.apply(t, a)),
                                      x.action2.apply(x.d3(t), a))),
                      note=f"all generator pairs + {samples} samples", basis="sampled")
    rep.merge(x.action3.check(rep.rng, samples), prefix="degree3.")
    return rep


class XC3Morphism:
    def __init__(self, source: CrossedComplex3, target: CrossedComplex3,
                 f1: GroupHom, f2: GroupHom, f3: GroupHom):
        self.source, self.target, self.f1, self.f2, self.f3 = source, target, f1, f2, f3


def xc3_morphism_check(m: XC3Morphism, samples: int = 50,
                       seed: int | None = None) -> Report:
    rep = sampled_report("crossed complex morphism", samples, seed)
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

    def hom(self, source: CrossedComplex3, target: CrossedComplex3) -> GroupHom:
        return GroupHom(source.m2, target.m3, self.alpha)

    def to_json(self, target: CrossedComplex3) -> dict:
        return {"alpha": [target.m3.element_to_json(a) for a in self.alpha]}


def verify_xc3_homotopy(f: XC3Morphism, g: XC3Morphism, h: XC3Homotopy) -> Report:
    rep = Report("crossed complex homotopy certificate")
    src, tgt = f.source, f.target
    rep.add("f1_equals_g1", all(tgt.m1.eq(a, b) for a, b in
                                zip(f.f1.images, g.f1.images)))
    alpha = h.hom(src, tgt)
    rep.add_hom("alpha_additive", alpha)
    rep.first_failure("degree2_equation",
                      (f"-f2 + g2 != d3' alpha at generator {src.m2.names[i]}"
                       for i, x in enumerate(src.m2.generators())
                       if not tgt.m2.eq(tgt.m2.op(tgt.m2.inv(f.f2(x)), g.f2(x)),
                                        tgt.d3(alpha(x)))))
    rep.first_failure("degree3_equation",
                      (f"-f3 + g3 != alpha d3 at generator {src.m3.names[i]}"
                       for i, t in enumerate(src.m3.generators())
                       if not tgt.m3.eq(tgt.m3.op(tgt.m3.inv(f.f3(t)), g.f3(t)),
                                        alpha(src.d3(t)))))
    rep.first_failure("alpha_vanishes_on_under",
                      (f"alpha does not vanish on {src.m2.format_element(z)}"
                       for z in src.under2 if not tgt.m3.is_identity(alpha(z))))
    rep.first_failure("alpha_equivariant",
                      ("alpha not f1-equivariant"
                       for x in src.m2.generators() for a in src.m1.generators()
                       if not tgt.m3.eq(alpha(src.action2.apply(x, a)),
                                        tgt.action3.apply(alpha(x), f.f1(a)))))
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


class LinearHomotopy:
    """The equations of a homotopy f ~ g as one integer linear system, for
    morphisms of crossed 3-complexes and of reduced quadratic 4-complexes.

    The unknowns are abelian coordinates of the homotopy's values on the
    source generators, one `CoordinateBlock` per degree.  `degree2` opens
    the first block with the equations -f2 x + g2 x = d3' alpha(x);
    `add_sum` adds one equation sum_x w_x alpha(x) + terms = rhs; `solve`
    returns the canonical solution and `accept` its re-verified witness.
    Failed checks and obstructions go into `rep`.

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
        equations -f2 x + g2 x = d3' alpha(x) in coordinates on the centre
        of the degree-2 target (`Group.central_coords`).  None, with the
        obstruction recorded, when f2 and g2 differ while d3' = 0, or when
        -f2 x + g2 x is not central.  Raises ValueError naming the first
        generator whose d3' value is not central."""
        grp, names = d3t.target, f2.source.names
        diffs = [grp.op(grp.inv(a), b) for a, b in zip(f2.images, g2.images)]
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
        boundary = [grp.central_coords(d3t(h)) for h in d3t.source.generators()]
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

    def add_sum(self, alpha: CoordinateBlock, weights: Sequence[int],
                rhs: Sequence[int] | None = None, terms=()) -> None:
        """sum_x weights[x] alpha(x) + terms = rhs (default 0), in the
        coordinates of alpha modulo its group's relation rows."""
        terms, dim = list(terms), alpha.dim
        for x, w in enumerate(weights):
            if w:
                terms.extend((alpha.var(x, k), [w if j == k else 0 for j in range(dim)])
                             for k in range(dim))
        self.system.add(dim, terms, [0] * dim if rhs is None else list(rhs),
                        alpha.group.ab_relation_rows())

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
    particular solution plus that kernel; so `values_at` reduces a solution
    at t exactly as `solve` reduces one of that system, and returns the
    same canonical values."""

    def __init__(self, lin: LinearHomotopy, u0: Sequence[int], kernel):
        self.lin, self.u0, self.t0 = lin, u0, u0[0]
        self.step = kernel[0][0] if kernel else 0
        self.step_row = kernel[0] if self.step else None
        self.kernel0 = Lattice(len(u0), kernel[1:] if self.step else kernel)

    def admits(self, t: int) -> bool:
        return (t - self.t0) % self.step == 0 if self.step else t == self.t0

    def values_at(self, t: int) -> list[tuple] | None:
        """The canonical values at t, block by block; None when t is not
        admitted."""
        if not self.admits(t):
            return None
        u = self.u0
        if self.step:
            q = (t - self.t0) // self.step
            u = [a + q * b for a, b in zip(u, self.step_row)]
        return self.lin.values(self.kernel0.reduce(u))


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
    src, tgt = f.source, f.target
    if not all(tgt.m1.eq(a, b) for a, b in zip(f.f1.images, g.f1.images)):
        lin.refute("f1_equals_g1", "homotopy requires f1 = g1", "f1 != g1")
        return None, lin.rep
    alpha = lin.degree2(tgt.d3, f.f2, g.f2)
    if alpha is None:
        return None, lin.rep
    for i, t in enumerate(src.m3.generators()):
        rhs = tgt.m3.op(tgt.m3.inv(f.f3.images[i]), g.f3.images[i])
        lin.add_sum(alpha, src.m2.ab(src.d3(t)), tgt.m3.ab(rhs))
    for z in src.under2:
        lin.add_sum(alpha, src.m2.ab(z))
    for row in src.m2.ab_relation_rows():
        lin.add_sum(alpha, row)
    for a in range(src.m1.ngens):
        am = src.m1.gen(a)
        fa = f.f1(am)
        cols = [tgt.m3.ab(tgt.action3.apply(h, fa)) for h in tgt.m3.generators()]
        for x in range(src.m2.ngens):
            w = src.m2.ab(src.action2.apply(src.m2.gen(x), am))
            lin.add_sum(alpha, w, terms=[(alpha.var(x, k), [-c for c in cols[k]])
                                         for k in range(alpha.dim)])
    values = lin.solve()
    if values is None:
        return None, lin.rep
    witness = XC3Homotopy(values[0])
    lin.accept(verify_xc3_homotopy(f, g, witness), witness.to_json(tgt))
    return witness, lin.rep


def xc3_homotopic(f: XC3Morphism, g: XC3Morphism) -> XC3Homotopy | None:
    return xc3_homotopy_decision(f, g)[0]
