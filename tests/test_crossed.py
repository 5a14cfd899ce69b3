import json
import random

import pytest

from xq.crossed import (CrossedComplex3, GroupAction, PreCrossedModule,
                        XC3Homotopy, XC3Morphism, check_crossed,
                        check_precrossed, peiffer_commutator,
                        verify_xc3_homotopy, xc3_check, xc3_homotopic,
                        xc3_homotopy_decision, xc3_morphism_check)
from xq.groups import (CyclicGroup, FgAbelianGroup, FreeAbelianGroup, FreeGroup,
                       FreeNil2Group, GroupHom)
from xq.structfile import load_structure

from hom_oracle import letter_act


def conjugation_module():
    g = FreeNil2Group(2)
    return PreCrossedModule(g, g, GroupHom.identity(g),
                            GroupAction.conjugation(g))


def zero_boundary_module():
    g = FreeNil2Group(2)
    return PreCrossedModule(g, g, GroupHom.zero(g, g),
                            GroupAction.trivial(g, g))


def test_conjugation_module_is_crossed():
    rep = check_crossed(conjugation_module())
    assert rep.ok, rep.text()


def test_zero_boundary_trivial_action_is_precrossed_only():
    m = zero_boundary_module()
    assert check_precrossed(m).ok
    rep = check_crossed(m)
    assert not rep.ok
    fail = [c for c in rep.failed()]
    assert [c.check_id for c in fail] == ["peiffer_commutators_vanish"]
    # the witness names the offending generator pair
    assert "<g0, g1>" in fail[0].witness
    # and indeed the Peiffer commutator there is the basic commutator
    g = m.m2
    assert g.eq(peiffer_commutator(m, g.gen(0), g.gen(1)),
                g.commutator(g.gen(0), g.gen(1)))


def test_action_axioms_catch_relation_violation():
    # Z/2 cannot act on Z by doubling: the square of the endomorphism is x4,
    # and the inverse table does not invert it
    acting = FgAbelianGroup(1, [[2]])
    acted = FreeAbelianGroup(1)
    action = GroupAction(acting, acted, kind="table",
                         table=[[acted.pow(acted.gen(0), 2)]],
                         inverse_table=[[acted.gen(0)]])
    assert {c.check_id for c in action.check().failed()} == {
        "action_inverse_table", "action_axioms"}
    # nor by the shear x -> x + y, an automorphism of Z^2 of infinite order
    acting = FgAbelianGroup(1, [[2]], names=("a",))
    acted = FreeAbelianGroup(2, names=("x", "y"))
    x, y = acted.generators()
    rep = GroupAction(acting, acted, table=[[acted.op(x, y)], [y]]).check()
    assert {c.check_id: c.witness for c in rep.failed()} == {
        "action_axioms": "x^(2*a) != x at x=x"}


def test_action_table_round_trip():
    acting = FreeAbelianGroup(1)
    acted = FreeAbelianGroup(2)
    swap = GroupAction(acting, acted, kind="table",
                       table=[[acted.gen(1)], [acted.gen(0)]])
    assert acted.eq(swap.apply(acted.gen(0), acting.gen(0)), acted.gen(1))
    # inverse letters derived automatically for abelian acted groups
    assert acted.eq(swap.apply(acted.gen(0), acting.inv(acting.gen(0))),
                    acted.gen(1))
    # read back from an xc3 structure file, with an explicit inverse table
    swap_json = {"kind": "table", "table": [[[0, 1]], [[1, 0]]],
                 "inverse_table": [[[0, 1]], [[1, 0]]]}
    raw = {"version": "1", "kind": "xc3",
           "body": {"m1": {"kind": "free_abelian", "rank": 1},
                    "m2": {"kind": "free_abelian", "rank": 2},
                    "m3": {"kind": "free_abelian", "rank": 1},
                    "d2": {"images": [[0], [0]]}, "d3": {"images": [[0, 0]]},
                    "action2": swap_json, "action3": {"kind": "trivial"}}}
    structure = load_structure(json.dumps(raw))
    rebuilt = structure.value.action2
    assert rebuilt.inverse_table == [[acted.gen(1)], [acted.gen(0)]]
    for sign in (1, -1):
        a = acting.pow(acting.gen(0), sign)
        assert acted.eq(rebuilt.apply(acted.gen(1), a), acted.gen(0))
    assert rebuilt.check().ok
    assert structure.check(samples=20, seed=4).ok


@pytest.mark.parametrize("inverse_table", [[], [[(1,)]], [[(1,), (1,), (1,)]]],
                         ids=["no-rows", "short-row", "long-row"])
def test_action_rejects_a_misshapen_inverse_table(inverse_table):
    # the shape of the inverse table is checked like that of the table, so a
    # negative letter cannot index past it
    acting, acted = FreeNil2Group(2), FreeAbelianGroup(1)
    with pytest.raises(ValueError, match="inverse table must be acted.ngens x acting.ngens"):
        GroupAction(acting, acted, table=[[(1,), (1,)]], inverse_table=inverse_table)
    action = GroupAction(acting, acted, table=[[(1,), (1,)]],
                         inverse_table=[[(1,), (1,)]])
    assert action.apply((1,), acting.inv(acting.gen(0))) == (1,)


def small_xc3(under2=()):
    """M3 = Z --x2--> M2 = Z --0--> M1 = Z with trivial actions."""
    m1 = FreeNil2Group(1, names=("a",))
    m2 = FreeNil2Group(1, names=("x",))
    m3 = FreeAbelianGroup(1, names=("t",))
    d2 = GroupHom.zero(m2, m1)
    d3 = GroupHom(m3, m2, [m2.pow(m2.gen(0), 2)])
    return CrossedComplex3(m1, m2, m3, d2, d3,
                           GroupAction.trivial(m1, m2),
                           GroupAction.trivial(m1, m3),
                           under2=under2)


def test_small_xc3_passes_checks():
    rep = xc3_check(small_xc3())
    assert rep.ok, rep.text()


def scale_morphism(x, k):
    """(id, x(1+2k), x(1+2k)) is a morphism of the small complex."""
    m1, m2, m3 = x.m1, x.m2, x.m3
    return XC3Morphism(x, x, GroupHom.identity(m1),
                       GroupHom(m2, m2, [m2.pow(m2.gen(0), 1 + 2 * k)]),
                       GroupHom(m3, m3, [m3.pow(m3.gen(0), 1 + 2 * k)]))


def test_xc3_morphism_check():
    x = small_xc3()
    assert xc3_morphism_check(scale_morphism(x, 0)).ok
    assert xc3_morphism_check(scale_morphism(x, 2)).ok
    # breaking the d3 square is caught
    bad = XC3Morphism(x, x, GroupHom.identity(x.m1),
                      GroupHom.identity(x.m2),
                      GroupHom(x.m3, x.m3, [x.m3.pow(x.m3.gen(0), 2)]))
    rep = xc3_morphism_check(bad)
    assert not rep.ok


def test_xc3_homotopy_found_and_verified():
    x = small_xc3()
    f = scale_morphism(x, 0)
    for k in (-2, -1, 1, 3):
        g = scale_morphism(x, k)
        h, rep = xc3_homotopy_decision(f, g)
        assert h is not None, rep.text()
        # the witness is unique here: alpha(x) = k t
        assert x.m3.eq(h.alpha[0], x.m3.pow(x.m3.gen(0), k))
        assert verify_xc3_homotopy(f, g, h).ok
        assert xc3_homotopic(g, f) is not None  # symmetric case solves too


def test_xc3_homotopy_reflexive_witness_is_zero():
    x = small_xc3()
    f = scale_morphism(x, 1)
    h, _ = xc3_homotopy_decision(f, f)
    assert h is not None and x.m3.is_identity(h.alpha[0])


def test_xc3_no_homotopy_for_even_difference():
    x = small_xc3()
    f = scale_morphism(x, 0)
    g = XC3Morphism(x, x, GroupHom.identity(x.m1),
                    GroupHom(x.m2, x.m2, [x.m2.pow(x.m2.gen(0), 2)]),
                    GroupHom(x.m3, x.m3, [x.m3.pow(x.m3.gen(0), 2)]))
    assert xc3_morphism_check(g).ok
    h, rep = xc3_homotopy_decision(f, g)
    assert h is None
    assert not rep.ok
    assert rep.obstructions or rep.failed()


def test_xc3_under_object_constrains_alpha():
    # with the degree-2 generator marked as under the cofibration, only the
    # zero witness survives, so scaled morphisms are no longer homotopic
    x = small_xc3(under2=(FreeNil2Group(1, names=("x",)).gen(0),))
    f = scale_morphism(x, 0)
    g = scale_morphism(x, 1)
    h, _ = xc3_homotopy_decision(f, f)
    assert h is not None and x.m3.is_identity(h.alpha[0])
    h, rep = xc3_homotopy_decision(f, g)
    assert h is None and not rep.ok


def test_verify_rejects_wrong_witness():
    x = small_xc3()
    f = scale_morphism(x, 0)
    g = scale_morphism(x, 1)
    wrong = XC3Homotopy((x.m3.pow(x.m3.gen(0), 2),))
    rep = verify_xc3_homotopy(f, g, wrong)
    assert not rep.ok


def test_xc3_witness_reduces_killed_generators_first_then_by_descending_index():
    # d3(t) = x0 + x1 + x2 into a target with d3' = 0, and f2 kills x0 only:
    # the witnesses of -f3 + g3 = c s are the alpha with alpha(x0) +
    # alpha(x1) + alpha(x2) = c s, and the canonical one reduces alpha(x0),
    # then alpha(x2), then alpha(x1)
    m1 = FreeNil2Group(1, names=("a",))
    m2 = FreeAbelianGroup(3, names=("x0", "x1", "x2"))

    def complex3(m3, d3):
        return CrossedComplex3(m1, m2, m3, GroupHom.zero(m2, m1), d3,
                               GroupAction.trivial(m1, m2), GroupAction.trivial(m1, m3))

    t, s = FreeAbelianGroup(1, names=("t",)), FreeAbelianGroup(1, names=("s",))
    src = complex3(t, GroupHom(t, m2, [(1, 1, 1)]))
    tgt = complex3(s, GroupHom.zero(s, m2))
    f2 = GroupHom(m2, m2, [(0, 0, 0), (1, 0, 0), (-1, 0, 0)])
    for c in (-3, 1, 5):
        f, g = (XC3Morphism(src, tgt, GroupHom.identity(m1), f2, GroupHom(t, s, [(k,)]))
                for k in (0, c))
        assert xc3_check(src).ok and xc3_morphism_check(g).ok
        h, rep = xc3_homotopy_decision(f, g)
        assert h is not None, rep.text()
        assert h.alpha == ((0,), (c,), (0,))


def test_xc3_homotopy_needs_f1_equal_to_g1():
    x = small_xc3()
    f = scale_morphism(x, 0)
    g = XC3Morphism(x, x, GroupHom(x.m1, x.m1, [x.m1.pow(x.m1.gen(0), 2)]), f.f2, f.f3)
    h, rep = xc3_homotopy_decision(f, g)
    assert h is None
    assert [(c.check_id, c.witness) for c in rep.checks] == \
        [("f1_equals_g1", "homotopy requires f1 = g1")]
    assert rep.obstructions == [{"reason": "f1 != g1"}]


def test_xc3_homotopy_with_zero_d3_needs_f2_equal_to_g2():
    # with d3' = 0 the degree-2 equation -f2 x + g2 x = d3' alpha(x) forces
    # f2 = g2, and the decision stops there
    m1 = FreeNil2Group(1, names=("a",))
    m2, m3 = FreeAbelianGroup(1, names=("x",)), FreeAbelianGroup(1, names=("t",))
    x = CrossedComplex3(m1, m2, m3, GroupHom.zero(m2, m1), GroupHom.zero(m3, m2),
                        GroupAction.trivial(m1, m2), GroupAction.trivial(m1, m3))
    f = XC3Morphism(x, x, GroupHom.identity(m1), GroupHom.identity(m2), GroupHom.identity(m3))
    g = XC3Morphism(x, x, f.f1, GroupHom(m2, m2, [(-1,)]), f.f3)
    assert xc3_check(x).ok and xc3_morphism_check(g).ok
    h, rep = xc3_homotopy_decision(f, g)
    assert h is None
    assert [(c.check_id, c.witness) for c in rep.checks] == [(
        "degree2_solvable",
        "d3 = 0 in the target forces f2 = g2; the morphisms differ at generator x")]
    assert rep.obstructions == [{"reason": rep.checks[0].witness}]


def test_xc3_homotopy_respects_the_relations_of_m2():
    # M3 = Z --x2--> M2 = Z/4 --0--> M1 = Z; g = (id, x -> 3x, t -> 3t).  The
    # equations on generators alone are solved by alpha(x) = t, but 4x = 0
    # in M2 forces 4 alpha(x) = 0 in Z, so alpha = 0, which fails the
    # degree-2 equation 2x = d3 alpha(x): no homotopy
    m1 = FreeNil2Group(1, names=("a",))
    m2, m3 = CyclicGroup(4, names=("x",)), FreeAbelianGroup(1, names=("t",))
    x = CrossedComplex3(m1, m2, m3, GroupHom.zero(m2, m1), GroupHom(m3, m2, [(2,)]),
                        GroupAction.trivial(m1, m2), GroupAction.trivial(m1, m3))
    f = XC3Morphism(x, x, GroupHom.identity(m1), GroupHom.identity(m2), GroupHom.identity(m3))
    g = XC3Morphism(x, x, f.f1, GroupHom(m2, m2, [(3,)]), GroupHom(m3, m3, [(3,)]))
    assert xc3_check(x).ok and xc3_morphism_check(g).ok
    h, rep = xc3_homotopy_decision(f, g)
    assert h is None
    assert [c.check_id for c in rep.failed()] == ["solvable"]
    # the witness that ignores 4x = 0 is not additive, so it verifies nothing
    rep = verify_xc3_homotopy(f, g, XC3Homotopy(((1,),)))
    assert [c.check_id for c in rep.failed()] == ["alpha_additive"]
    h, rep = xc3_homotopy_decision(f, f)
    assert h is not None and h.alpha == ((0,),)


def free_boundary_xc3(m3=None):
    """M2 free of rank 2 on x, y with d3 = x on each generator of M3 (Z<t>
    by default) and trivial actions; d3 is not central, so this is not a
    crossed complex."""
    m1 = FreeNil2Group(1, names=("a",))
    m2 = FreeGroup(2, names=("x", "y"))
    m3 = m3 or FreeAbelianGroup(1, names=("t",))
    return CrossedComplex3(m1, m2, m3, GroupHom.zero(m2, m1),
                           GroupHom(m3, m2, [m2.gen(0)] * m3.ngens),
                           GroupAction.trivial(m1, m2),
                           GroupAction.trivial(m1, m3))


def test_xc3_homotopy_with_noncentral_d3_is_unsupported():
    x = free_boundary_xc3()
    ident = XC3Morphism(x, x, GroupHom.identity(x.m1), GroupHom.identity(x.m2),
                        GroupHom.identity(x.m3))
    with pytest.raises(ValueError, match="not central at generator t"):
        xc3_homotopy_decision(ident, ident)


def test_m3_abelian_names_the_first_non_commuting_pair():
    x = free_boundary_xc3(FreeGroup(2, names=("s", "t")))
    rep = xc3_check(x)
    failed = {c.check_id: c.witness for c in rep.failed()}
    assert failed["m3_abelian"] == "generators s and t do not commute"


def shear_and_swap(acting):
    """`acting` (rank 1 or 2) acting on Z^2: the first generator by the shear
    x -> x, y -> x + y, the second by swapping x and y."""
    acted = FreeAbelianGroup(2, names=("x", "y"))
    x, y = acted.generators()
    images = [[x, acted.op(x, y)], [y, x]]  # per acting generator
    return GroupAction(acting, acted, table=[[images[a][k] for a in range(acting.ngens)]
                                             for k in range(2)])


@pytest.mark.parametrize("action", [
    shear_and_swap(FreeAbelianGroup(1)),
    shear_and_swap(FreeGroup(2)),
    shear_and_swap(FreeNil2Group(2)),
    GroupAction(CyclicGroup(2), FreeAbelianGroup(1), table=[[(-1,)]]),
    GroupAction(FreeNil2Group(2), FreeNil2Group(2),
                table=[[FreeNil2Group(2).gen(0)] * 2,
                       [FreeNil2Group(2).op(*FreeNil2Group(2).generators()),
                        FreeNil2Group(2).inv(FreeNil2Group(2).gen(1))]]),
], ids=["Z", "free2", "nil2", "Z/2", "nil2-on-nil2"])
def test_action_by_runs_equals_letter_by_letter(action):
    rng = random.Random(5)
    for _ in range(40):
        x = action.acted.random_element(rng)
        a = action.acting.random_element(rng, size=10)
        assert action.apply(x, a) == letter_act(action, x, a)


def test_action_with_a_huge_exponent():
    z = FreeAbelianGroup(1)
    negate = GroupAction(z, z, table=[[(-1,)]])
    assert negate.apply((1,), (10 ** 18,)) == (1,)
    assert negate.apply((1,), (10 ** 18 + 1,)) == (-1,)
    assert negate.apply((1,), (-10 ** 18 - 1,)) == (-1,)
    shear = shear_and_swap(z)
    assert shear.apply((0, 1), (10 ** 18,)) == (10 ** 18, 1)
    assert shear.apply((0, 1), (-10 ** 18,)) == (-10 ** 18, 1)
    # the commutator of shear and swap has order 6 and 10^18 = 4 mod 6
    nil2 = FreeNil2Group(2)
    act = shear_and_swap(nil2)
    c = nil2.basic_commutator(0, 1)
    for x in act.acted.generators():
        assert act.apply(x, nil2.pow(c, 10 ** 18)) == letter_act(act, x, nil2.pow(c, 4))
        assert act.apply(x, nil2.pow(c, 6)) == x


def test_action_by_runs_of_a_non_homomorphic_endomorphism():
    # a swaps x and y, but y has order 2 and x does not, so the endomorphism
    # of a is not a homomorphism.  A run a^2 acts as the composite, which
    # fixes 2x; letter by letter, (2x)^a = 2y = 0 and 0^a = 0.
    acting = FreeAbelianGroup(1, names=("a",))
    acted = FgAbelianGroup(2, [[0, 2]], names=("x", "y"))
    x, y = acted.generators()
    action = GroupAction(acting, acted, table=[[y], [x]])
    two_x = acted.pow(x, 2)
    assert action.apply(two_x, (2,)) == two_x
    assert letter_act(action, two_x, (2,)) == acted.identity()
    # the action axioms rest on the endomorphisms being homomorphisms, so
    # they pass here without a basis
    rep = action.check()
    assert {c.check_id: c.witness for c in rep.failed()} == {
        "action_endos_are_homs": "generator a: relation [0, 2] maps to a non-identity element"}
    assert [(c.check_id, c.basis) for c in rep.checks] == [
        ("action_endos_are_homs", "proved"), ("action_axioms", None)]
