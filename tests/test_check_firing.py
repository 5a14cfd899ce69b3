"""Every failure scan of the checkers fires on a corrupted input.

Each test breaks one condition of a small structure and pins the failed
check ids and their witness texts, so a change to how a scan records its
first failure cannot silently change what a report says.
"""

from xq.cli import run
from xq import structfile as sf
from xq.crossed import (CrossedComplex3, GroupAction, PreCrossedModule,
                        XC3Homotopy, XC3Morphism, check_precrossed,
                        verify_xc3_homotopy, xc3_check, xc3_homotopy_decision,
                        xc3_morphism_check)
from xq.groups import (FgAbelianGroup, FreeAbelianGroup, FreeGroup,
                       FreeNil2Group, GroupHom)
from xq.structfile import serialize_structure
from xq.quadratic import (QCHomotopy, QCMorphism, QuadraticModule,
                          ReducedQuadraticComplex4, ReducedQuadraticModule,
                          UnderCofibration, qm_check, rqc4_check, rqm_check,
                          verify_rq_homotopy)


def failed(rep):
    return {c.check_id: c.witness for c in rep.failed()}


def negate(group):
    """The action table sending the single generator of `group` to its inverse."""
    return [[group.inv(group.gen(0))]]


def check_file(tmp_path, capsys, kind, body, samples=0):
    """The exit code and stdout of `xq check --samples <samples>` on a file
    of this kind and body."""
    path = tmp_path / f"{kind}.json"
    path.write_text(serialize_structure({"version": "1", "kind": kind, "body": body}))
    code = run(["check", str(path), "--samples", str(samples)])
    return code, capsys.readouterr().out


# -- homomorphisms ----------------------------------------------------------------

def test_check_hom_fires_on_non_commuting_images_of_an_abelian_source():
    # Z^2 -> free nil(2) by s -> x, t -> y: t + s = s + t in Z^2, but
    # h(t) + h(s) = y + x != x + y = h(s) + h(t)
    src = FreeAbelianGroup(2, names=("s", "t"))
    tgt = FreeNil2Group(2, names=("x", "y"))
    h = GroupHom(src, tgt, tgt.generators())
    assert h.check_hom() == (False, "images of s and t do not commute in the target")
    rqm = ReducedQuadraticModule(tgt, src, ((src.identity(),) * 2,) * 2, h)
    assert failed(rqm_check(rqm))["d3_is_homomorphism"] == \
        "images of s and t do not commute in the target"


# -- reduced quadratic modules and complexes ---------------------------------

def doubling(omega_value=False, d4_hits_t=False, under=False):
    """Q2 = Z<x>, Q3 = Z<t>, d3(t) = 2x, Q4 = Z<s>; omega(x (x) x) is t when
    `omega_value`, else 0; d4(s) is t when `d4_hits_t`, else 0."""
    q2 = FreeNil2Group(1, names=("x",))
    q3 = FreeAbelianGroup(1, names=("t",))
    t = q3.gen(0)
    rqm = ReducedQuadraticModule(q2, q3, ((t if omega_value else q3.identity(),),),
                                 GroupHom(q3, q2, [q2.pow(q2.gen(0), 2)]))
    q4 = FreeAbelianGroup(1, names=("s",))
    d4 = GroupHom(q4, q3, [t]) if d4_hits_t else GroupHom.zero(q4, q3)
    c = ReducedQuadraticComplex4(rqm, q4, d4)
    if under:
        c.under = UnderCofibration(c, GroupHom.identity(q2), GroupHom.identity(q3),
                                   GroupHom.identity(q4))
    return c


def scale(c, u, w):
    return QCMorphism(c, c, GroupHom(c.q2, c.q2, [c.q2.pow(c.q2.gen(0), u)]),
                      GroupHom(c.q3, c.q3, [c.q3.pow(c.q3.gen(0), u)]),
                      GroupHom(c.q4, c.q4, [c.q4.pow(c.q4.gen(0), w)]))


def test_rqm_axioms_3_and_4_fire_on_a_nonzero_omega_over_a_boundary():
    rep = rqm_check(doubling(omega_value=True).rqm)
    assert failed(rep) == {
        "axiom2_d3_omega_is_commutator":
            "d3 omega({x} (x) {y}) != (x, y) at x=x, y=x",
        "axiom3_boundary_tensors_vanish":
            "omega({d3 p} (x) {x} + {x} (x) {d3 p}) != 0",
        "axiom4_q3_commutators": "(p, q) != omega({d3 p} (x) {d3 q})",
    }


def test_rqm_omega_central_fires_on_a_free_nil2_q3():
    # Q2 = Z<x>, Q3 = free nil(2) on t, u, d3 = 0 and omega(x (x) x) = t
    q2, q3 = FreeNil2Group(1, names=("x",)), FreeNil2Group(2, names=("t", "u"))
    rep = rqm_check(ReducedQuadraticModule(q2, q3, ((q3.gen(0),),), GroupHom.zero(q3, q2)))
    assert failed(rep) == {
        "omega_central": "omega at basis (0,0) is t, which is not central in Q3",
        "axiom4_q3_commutators": "(p, q) != omega({d3 p} (x) {d3 q})"}
    # the argument for axioms 2 to 4 fails with it, so they carry no basis
    assert [(c.note, c.basis) for c in rep.checks[-3:]] == [("all generator pairs", None)] * 3


def test_rqm_omega_central_fires_where_every_generator_pair_passes():
    # Q3 free on t, u with d3 = the identity on generators and omega(x (x) y)
    # = (t, u) = -omega(y (x) x): axioms 2 to 4 hold on generator pairs, but
    # omega is not central, so they do not follow, and indeed (t + t, u) is
    # not 2 (t, u) in a free group
    q2, q3 = FreeNil2Group(2, names=("x", "y")), FreeGroup(2, names=("t", "u"))
    c, e = q3.commutator(*q3.generators()), q3.identity()
    rep = rqm_check(ReducedQuadraticModule(q2, q3, ((e, c), (q3.inv(c), e)),
                                           GroupHom(q3, q2, q2.generators())))
    assert failed(rep) == {
        "omega_central": "omega at basis (0,1) is -t - u + t + u, which is not central in Q3"}


def test_rqc4_d3_d4_zero_fires():
    rep = rqc4_check(doubling(d4_hits_t=True))
    assert failed(rep) == {"d3_d4_zero": "d3 d4 != 0 at generator s"}


def test_verify_rq_homotopy_degree2_fires():
    c = doubling()
    zero = QCHomotopy((c.q3.identity(),), (c.q4.identity(),))
    rep = verify_rq_homotopy(scale(c, 1, 0), scale(c, 3, 0), zero)
    assert failed(rep) == {
        "homotopy_degree2": "-f2 + g2 != d3' alpha2 at generator x",
        "homotopy_degree3": "-f3 + g3 != d4' alpha3 + alpha2 d3 at generator t",
    }


def test_verify_rq_homotopy_degree4_fires():
    c = doubling()
    zero = QCHomotopy((c.q3.identity(),), (c.q4.identity(),))
    rep = verify_rq_homotopy(scale(c, 1, 0), scale(c, 1, 1), zero)
    assert failed(rep) == {"homotopy_degree4": "-f4 + g4 != alpha3 d4 at generator s"}


def test_verify_rq_homotopy_alpha3_under_fires():
    c = doubling(under=True)
    f = scale(c, 1, 0)
    rep = verify_rq_homotopy(f, f, QCHomotopy((c.q3.identity(),), (c.q4.gen(0),)))
    assert failed(rep) == {"alpha3_vanishes_on_under": "alpha3 does not vanish on t"}


def zero_rqc4(q3, under=None):
    """The rqc4 structure with Q2 = nil(2)<e>, this Q3 (free abelian or
    free nil(2)) and Q4 = 0, whose d3 and omega are 0; `under` is (base,
    the under-map's Q3 images), its Q2 map sending e to e."""
    nil2 = q3["kind"] == "free_nil2"
    zero3 = {"base": [0] * q3["rank"], "comm": [0] * (q3["rank"] * (q3["rank"] - 1) // 2)} \
        if nil2 else [0] * q3["rank"]
    body = {"q2": {"kind": "free_nil2", "rank": 1}, "q3": q3,
            "q4": {"kind": "free_abelian", "rank": 0}, "omega": [[zero3]],
            "d3": {"images": [{"base": [0], "comm": []}] * q3["rank"]}, "d4": {"images": []}}
    if under is not None:
        base, images3 = under
        body["under"] = {"base": base, "q2": {"images": [{"base": [1], "comm": []}]},
                         "q3": {"images": images3}, "q4": {"images": []}}
    return {"kind": "rqc4", "body": body}


def test_a_morphism_under_different_bases_has_no_under_checks(tmp_path, capsys):
    # the sides' cofibrations come from bases that agree in Q2 but not in
    # Q3 (Z^2 and Z), so f has no square with them to commute and the
    # check reads no under-map: once with the sides' Q3 free nil(2)
    # (equations of elements, the larger base the source's) and once with
    # it abelian (equations in coordinates, the smaller base the source's)
    rank1, rank2 = ({"kind": "free_abelian", "rank": n} for n in (1, 2))
    bases = [zero_rqc4(rank2)["body"], zero_rqc4(rank1)["body"]]
    nil2 = {"kind": "free_nil2", "rank": 2}
    x, y = {"base": [1, 0], "comm": [0]}, {"base": [0, 1], "comm": [0]}
    crash = (zero_rqc4(nil2, (bases[0], [x, y])), zero_rqc4(nil2, (bases[1], [x])), [x, y])
    silent = (zero_rqc4(rank2, (bases[1], [[1, 0]])),
              zero_rqc4(rank2, (bases[0], [[1, 0], [0, 1]])), [[1, 0], [0, 1]])
    for source, target, f3 in (crash, silent):
        maps = {"f2": {"images": [{"base": [1], "comm": []}]}, "f3": {"images": f3},
                "f4": {"images": []}}
        code, out = check_file(tmp_path, capsys, "morphism",
                               {"source": source, "target": target, "maps": maps})
        assert (code, out.splitlines()) == (0, [
            "quadratic complex morphism", "PASS f2_is_homomorphism", "PASS f3_is_homomorphism",
            "PASS f4_is_homomorphism", "PASS square_d3", "PASS square_d4", "PASS square_omega",
            "OK"])


# -- quadratic modules over a pre-crossed base ---------------------------------

def rank1_qm(d_to_a=False, d3_to_x=False, omega_w=False, negate3=False, q2=None):
    """Q1 = Z<a>, Q2 = Z<x> (or `q2`), Q3 = Z<w>, trivial action on Q2.  The
    flags make d2(x) = a, d3(w) = x, omega(x (x) x) = w and w^a = -w; left
    off, each map is zero and the action on Q3 trivial."""
    q1 = FreeNil2Group(1, names=("a",))
    q2 = q2 or FreeNil2Group(1, names=("x",))
    q3 = FreeAbelianGroup(1, names=("w",))
    d = GroupHom(q2, q1, [q1.gen(0)] * q2.ngens) if d_to_a else GroupHom.zero(q2, q1)
    pre = PreCrossedModule(q1, q2, d, GroupAction.trivial(q1, q2))
    d3 = GroupHom(q3, q2, [q2.gen(0)]) if d3_to_x else GroupHom.zero(q3, q2)
    n = q2.ngens
    omega = tuple(tuple(q3.gen(0) if omega_w else q3.identity() for _ in range(n))
                  for _ in range(n))
    action3 = (GroupAction(q1, q3, table=negate(q3)) if negate3
               else GroupAction.trivial(q1, q3))
    return QuadraticModule(pre, q3, d3, omega, action3)


def test_qm_axiom1_nil2_fires_over_a_free_group():
    rep = qm_check(rank1_qm(q2=FreeGroup(2, names=("x", "y"))), samples=20, seed=0)
    assert failed(rep)["axiom1_nil2"] == "<<x,y>,z> does not vanish"


def test_qm_omega_well_defined_fires_on_a_torsion_c():
    rep = qm_check(rank1_qm(q2=FgAbelianGroup(1, [[2]], names=("x",)), omega_w=True),
                   samples=5, seed=0)
    assert failed(rep)["omega_well_defined_on_C"] == \
        "omega does not kill the C-relation [2]"


def test_qm_d2_d3_zero_fires():
    rep = qm_check(rank1_qm(d_to_a=True, d3_to_x=True), samples=5, seed=0)
    assert failed(rep) == {"d2_d3_zero": "d2 d3 != 0"}


def test_qm_axioms_3_and_4_fire_on_a_nonzero_omega_over_a_boundary():
    rep = qm_check(rank1_qm(d3_to_x=True, omega_w=True), samples=5, seed=0)
    assert failed(rep) == {
        "axiom2_d3_omega_is_w": "d3 omega != w (Peiffer lift)",
        "axiom3_action_formula":
            "q^{d2 x} != q + omega({d3 q}(x){x} + {x}(x){d3 q})",
        "axiom4_q3_commutators": "(p, q) != omega({d3 p} (x) {d3 q})",
    }


def test_qm_d3_equivariant_fires():
    rep = qm_check(rank1_qm(d3_to_x=True, negate3=True), samples=5, seed=0)
    assert failed(rep) == {"d3_equivariant": "d3 not equivariant"}


def test_qm_omega_equivariant_fires():
    rep = qm_check(rank1_qm(omega_w=True, negate3=True), samples=5, seed=0)
    assert failed(rep) == {"omega_equivariant": "omega not equivariant"}


# -- pre-crossed modules and group actions ----------------------------------------

def test_precrossed_equivariance_fires():
    m1 = FreeAbelianGroup(1, names=("a",))
    m2 = FreeAbelianGroup(1, names=("x",))
    m = PreCrossedModule(m1, m2, GroupHom(m2, m1, [m1.gen(0)]),
                         GroupAction(m1, m2, table=negate(m2)))
    rep = check_precrossed(m)
    assert failed(rep) == {"equivariance": "d(x^m) != -m + d(x) + m at x=x, m=a"}


def test_action_endos_are_homs_fires():
    # x0 has order 2 but its image x1 does not; the swap is invertible, so
    # the action axioms hold as far as the inverse and relators go
    acting = FreeAbelianGroup(1, names=("a",))
    acted = FgAbelianGroup(2, [[2, 0]], names=("x0", "x1"))
    action = GroupAction(acting, acted, table=[[acted.gen(1)], [acted.gen(0)]])
    assert failed(action.check()) == {
        "action_endos_are_homs": "generator a: relation [2, 0] maps to a non-identity element"}


def test_action_without_inverse_fails_when_sampled():
    # the endomorphism of a is not invertible, so -a does not act; the
    # action axioms are decided on generators, so this fails at any count
    acting = FreeAbelianGroup(1, names=("a",))
    acted = FgAbelianGroup(2, [[2, 0]], names=("x0", "x1"))
    action = GroupAction(acting, acted, table=[[acted.gen(1)], [acted.gen(1)]])
    rep = action.check()
    assert failed(rep) == {
        "action_endos_are_homs": "generator a: relation [2, 0] maps to a non-identity element",
        "action_axioms": "action of -a is not available: endomorphism is not invertible"}
    assert [c.basis for c in rep.checks] == ["proved", None]


def swap_and_shear(acting_kind):
    """A pre-crossed module body: a acts on Z^2 = <x, y> by swapping x and
    y, b by the shear y -> x + y, and d = 0; the two automorphisms do not
    commute, and their commutator does not commute with the swap."""
    zero = [0, 0] if acting_kind == "free_abelian" else {"base": [0, 0], "comm": [0]}
    return {"m1": {"kind": acting_kind, "rank": 2, "names": ["a", "b"]},
            "m2": {"kind": "free_abelian", "rank": 2, "names": ["x", "y"]},
            "d": {"images": [zero, zero]},
            "action": {"table": [[[0, 1], [1, 0]], [[1, 0], [1, 1]]]}}


def test_precrossed_action_axioms_fire_on_an_action_of_z2_that_is_not_one(tmp_path, capsys):
    # Z^2 is abelian, so (a, b) must act trivially; it moves x
    code, out = check_file(tmp_path, capsys, "precrossed", swap_and_shear("free_abelian"))
    assert code == 1
    assert "FAIL action_axioms (inverses and relators on generators) -- " \
           "x^((a,b)) != x at x=x\n" in out


def test_action_axioms_fire_on_a_triple_commutator_of_free_nil2(tmp_path, capsys):
    # free nil(2) needs ((a, b), a) to act trivially; it moves x
    code, out = check_file(tmp_path, capsys, "precrossed", swap_and_shear("free_nil2"))
    assert code == 1
    assert "FAIL action_axioms (inverses and relators on generators) -- " \
           "x^(((a,b),a)) != x at x=x\n" in out


def doubling_action_xc3():
    """An xc3 body: the free generator a acts on M3 = Z by t -> 2t, which
    has no inverse; d2 = d3 = 0 and the action on M2 = nil(2)<x> is
    trivial."""
    return {"m1": {"kind": "free", "rank": 1, "names": ["a"]},
            "m2": {"kind": "free_nil2", "rank": 1, "names": ["x"]},
            "m3": {"kind": "free_abelian", "rank": 1, "names": ["t"]},
            "d2": {"images": [[]]}, "d3": {"images": [{"base": [0], "comm": []}]},
            "action2": {"kind": "trivial"}, "action3": {"table": [[[2]]]},
            "under2": [], "under3": []}


def test_xc3_action_axioms_fire_on_a_doubling_action(tmp_path, capsys):
    code, out = check_file(tmp_path, capsys, "xc3", doubling_action_xc3())
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL ")] == [
        "FAIL degree3.action_axioms (inverses and relators on generators) -- "
        "action of -a is not available: endomorphism is not invertible"]


# -- crossed 3-complexes, their morphisms and homotopies ---------------------------

def rank1_xc3(d2_to_a=False, d3_double=True, negate2=False, negate3=False,
              under2=(), under3=()):
    """M1 = Z<a>, M2 = Z<x>, M3 = Z<t>.  The flags make d2(x) = a, d3(t) = 2x
    (else 0), x^a = -x and t^a = -t; left off, each action is trivial."""
    m1 = FreeNil2Group(1, names=("a",))
    m2 = FreeNil2Group(1, names=("x",))
    m3 = FreeAbelianGroup(1, names=("t",))
    d2 = GroupHom(m2, m1, [m1.gen(0)]) if d2_to_a else GroupHom.zero(m2, m1)
    d3 = GroupHom(m3, m2, [m2.pow(m2.gen(0), 2)]) if d3_double else GroupHom.zero(m3, m2)
    act2 = GroupAction(m1, m2, table=negate(m2)) if negate2 else GroupAction.trivial(m1, m2)
    act3 = GroupAction(m1, m3, table=negate(m3)) if negate3 else GroupAction.trivial(m1, m3)
    return CrossedComplex3(m1, m2, m3, d2, d3, act2, act3, under2, under3)


def xc3_map(x, f1=1, f2=1, f3=1):
    """Multiplication by f1, f2, f3 in degrees 1, 2, 3."""
    return XC3Morphism(x, x, GroupHom(x.m1, x.m1, [x.m1.pow(x.m1.gen(0), f1)]),
                       GroupHom(x.m2, x.m2, [x.m2.pow(x.m2.gen(0), f2)]),
                       GroupHom(x.m3, x.m3, [x.m3.pow(x.m3.gen(0), f3)]))


def test_xc3_d2_d3_zero_fires():
    rep = xc3_check(rank1_xc3(d2_to_a=True))
    assert failed(rep) == {"d2_d3_zero": "d2 d3 != 0 at t"}


def test_xc3_im_d2_acts_trivially_fires():
    rep = xc3_check(rank1_xc3(d2_to_a=True, d3_double=False, negate3=True))
    assert failed(rep) == {"im_d2_acts_trivially_on_m3": "im(d2) moves t"}


def test_xc3_d3_equivariant_fires():
    rep = xc3_check(rank1_xc3(negate3=True))
    assert failed(rep) == {"d3_equivariant": "d3 not equivariant at t"}


def test_xc3_morphism_square_d2_fires():
    x = rank1_xc3(d2_to_a=True, d3_double=False)
    rep = xc3_morphism_check(xc3_map(x, f2=2))
    assert failed(rep) == {"square_d2": "f1 d2 != d2' f2 at x"}


def test_xc3_morphism_equivariance_fires():
    x = rank1_xc3(d3_double=False, negate2=True, negate3=True)
    rep = xc3_morphism_check(xc3_map(x, f1=0))
    assert failed(rep) == {"f2_equivariant": "f2 not equivariant",
                           "f3_equivariant": "f3 not equivariant"}


def test_xc3_morphism_under_checks_fire():
    m2 = FreeNil2Group(1, names=("x",))
    m3 = FreeAbelianGroup(1, names=("t",))
    x = rank1_xc3(under2=(m2.gen(0),), under3=(m3.gen(0),))
    rep = xc3_morphism_check(xc3_map(x, f2=3, f3=3))
    assert failed(rep) == {"under_degree2": "f2 moves under generator x",
                           "under_degree3": "f3 moves under generator t"}


def test_verify_xc3_alpha_under_fires():
    x = rank1_xc3(under2=(FreeNil2Group(1, names=("x",)).gen(0),))
    f = xc3_map(x)
    rep = verify_xc3_homotopy(f, f, XC3Homotopy((x.m3.gen(0),)))
    assert failed(rep) == {
        "degree2_equation": "-f2 + g2 != d3' alpha at generator x",
        "degree3_equation": "-f3 + g3 != alpha d3 at generator t",
        "alpha_vanishes_on_under": "alpha does not vanish on x",
    }


def test_verify_xc3_alpha_equivariant_fires():
    x = rank1_xc3(d3_double=False, negate3=True)
    f = xc3_map(x)
    rep = verify_xc3_homotopy(f, f, XC3Homotopy((x.m3.gen(0),)))
    assert failed(rep) == {"alpha_equivariant": "alpha not f1-equivariant"}


def test_verify_xc3_alpha_equivariant_fires_on_an_undefined_action():
    # a acts on M3 = Z by t -> 2t, which has no inverse, and f1(a) = -a, so
    # the action of f1(a) on M3 that equivariance reads is undefined
    m1, m2 = FreeGroup(1, names=("a",)), FreeNil2Group(1, names=("x",))
    m3 = FreeAbelianGroup(1, names=("t",))
    x = CrossedComplex3(m1, m2, m3, GroupHom.zero(m2, m1), GroupHom.zero(m3, m2),
                        GroupAction.trivial(m1, m2), GroupAction(m1, m3, table=[[(2,)]]))
    f = XC3Morphism(x, x, GroupHom(m1, m1, [m1.inv(m1.gen(0))]), GroupHom.identity(m2),
                    GroupHom.identity(m3))
    rep = verify_xc3_homotopy(f, f, XC3Homotopy((m3.identity(),)))
    assert failed(rep) == {
        "alpha_equivariant": "action of -a is not available: endomorphism is not invertible"}


def test_an_equivariance_check_without_equations_reads_no_action(tmp_path, capsys):
    # as above, but M2 = Z^0: alpha_equivariant has no equation, so the
    # undefined action of f1(a) = -a on M3 is never read, and the empty
    # witness is a homotopy from f to itself
    side = {"kind": "xc3", "body": {
        "m1": {"kind": "free", "rank": 1, "names": ["a"]},
        "m2": {"kind": "free_abelian", "rank": 0},
        "m3": {"kind": "free_abelian", "rank": 1, "names": ["t"]},
        "d2": {"images": []}, "d3": {"images": [[]]},
        "action2": {"kind": "trivial"}, "action3": {"table": [[[2]]]}}}
    maps = {"f1": {"images": [[[0, -1]]]}, "f2": {"images": []}, "f3": {"images": [[1]]}}
    code, out = check_file(tmp_path, capsys, "homotopy", {
        "source": side, "target": side, "f": maps, "g": maps, "witness": {"alpha": []}})
    assert (code, out.splitlines()[-2:]) == (0, ["PASS alpha_equivariant", "OK"])
    f = sf.load_structure((tmp_path / "homotopy.json").read_text()).value[0]
    witness, rep = xc3_homotopy_decision(f, f)
    assert witness.alpha == () and rep.ok


def undefined_action_xc3(m2_rank=1):
    """An xc3 side: free<g0> acts on M2 = Z by t -> 2t, which has no
    inverse (on M2 = Z^0 when m2_rank is 0); M3 = 0, d2 = d3 = 0."""
    return {"kind": "xc3", "body": {
        "m1": {"kind": "free", "rank": 1},
        "m2": {"kind": "free_abelian", "rank": m2_rank},
        "m3": {"kind": "free_abelian", "rank": 0},
        "d2": {"images": [[]] * m2_rank}, "d3": {"images": []},
        "action2": {"table": [[[2]]] * m2_rank}, "action3": {"kind": "trivial"}}}


def test_a_morphism_check_fails_equivariance_on_an_undefined_action(tmp_path, capsys):
    # f1(g0) = -g0, so f2-equivariance reads the action of -g0 on M2, which
    # is undefined: the check fails with that message, as the scan of the
    # elements did, and `check` exits 1
    side = undefined_action_xc3()
    maps = {"f1": {"images": [[[0, -1]]]}, "f2": {"images": [[1]]}, "f3": {"images": []}}
    code, out = check_file(tmp_path, capsys, "morphism",
                           {"source": side, "target": side, "maps": maps})
    assert code == 1
    assert out.splitlines()[-3:] == [
        "FAIL f2_equivariant -- action of -g0 is not available: endomorphism is not invertible",
        "PASS f3_equivariant", "FAILED (1 of 7 checks)"]
    m = sf.load_structure((tmp_path / "morphism.json").read_text()).value
    assert failed(xc3_morphism_check(m)) == {
        "f2_equivariant": "action of -g0 is not available: endomorphism is not invertible"}


def test_a_morphism_equivariance_check_without_equations_reads_no_action(tmp_path, capsys):
    # as above, but the source's M2 is Z^0: f2-equivariance has no equation,
    # so the target's undefined action of -g0 is never built
    maps = {"f1": {"images": [[[0, -1]]]}, "f2": {"images": []}, "f3": {"images": []}}
    code, out = check_file(tmp_path, capsys, "morphism", {
        "source": undefined_action_xc3(m2_rank=0), "target": undefined_action_xc3(),
        "maps": maps})
    assert (code, out.splitlines()[-3:]) == (0, ["PASS f2_equivariant", "PASS f3_equivariant",
                                                 "OK"])
    m = sf.load_structure((tmp_path / "morphism.json").read_text()).value
    assert xc3_morphism_check(m).ok
    assert m.target.action2._endos == {}  # no endomorphism of the action was built
