import itertools
import random

from xq import monoid
from xq.monoid import (ExtMonoidElement, LEFT_ACTION, M_NAMES, M_TABLE,
                       RIGHT_ACTION, m_compose, mbar_check_structure,
                       mbar_compose, mbar_elements, mbar_identity, mbar_units,
                       monoid_M_table, semidirect_compose)

# the frozen composition table of the four homotopy classes fixing the
# diagonal in degree 2: identity, the factor swap, and the two projection
# types.  Row m, column m', entry m m' (first apply m', then m).
EXPECTED_TABLE = {
    "I":   ("I", "T", "P'", "P''"),
    "T":   ("T", "I", "P'", "P''"),
    "P'":  ("P'", "P''", "P'", "P''"),
    "P''": ("P''", "P'", "P'", "P''"),
}


def test_m_table_is_frozen():
    assert M_NAMES == ("I", "T", "P'", "P''")
    for m in M_NAMES:
        assert M_TABLE[m] == EXPECTED_TABLE[m]
    table = monoid_M_table()
    for i, m in enumerate(M_NAMES):
        for j, mp in enumerate(M_NAMES):
            assert table[i][j] == m_compose(m, mp) == EXPECTED_TABLE[m][j]


def test_m_table_associativity_and_identity():
    for a in M_NAMES:
        assert m_compose("I", a) == a == m_compose(a, "I")
        for b in M_NAMES:
            for c in M_NAMES:
                assert m_compose(m_compose(a, b), c) == \
                    m_compose(a, m_compose(b, c))


def test_actions_match_projection_and_swap_semantics():
    for v in itertools.product((0, 1), repeat=2):
        assert LEFT_ACTION["I"](v) == v
        assert LEFT_ACTION["T"](v) == (v[1], v[0])
        assert LEFT_ACTION["P'"](v) == (v[0], v[0])
        assert LEFT_ACTION["P''"](v) == (v[1], v[1])
        assert RIGHT_ACTION["I"](v) == v == RIGHT_ACTION["T"](v)
        assert RIGHT_ACTION["P'"](v) == (0, 0) == RIGHT_ACTION["P''"](v)


def test_extended_composition_examples():
    # twisting classes compose through the m-part actions
    t10 = ExtMonoidElement("T", (1, 0))
    t00 = ExtMonoidElement("T", (0, 0))
    assert mbar_compose(t10, t00) == ExtMonoidElement("I", (1, 0))
    # a projection type absorbs right twists coordinate-wise
    rng = random.Random(0)
    for _ in range(50):
        x, y, xp, yp = (rng.randrange(2) for _ in range(4))
        lhs = mbar_compose(ExtMonoidElement("P'", (x, y)),
                           ExtMonoidElement("I", (xp, yp)))
        assert lhs == ExtMonoidElement("P'", ((xp + x) % 2, (xp + y) % 2))
    # swapping twice cancels the swap but adds the twists
    assert mbar_compose(ExtMonoidElement("T", (0, 1)),
                        ExtMonoidElement("T", (1, 1))).m == "I"
    assert mbar_compose(ExtMonoidElement("P''", (0, 0)),
                        ExtMonoidElement("T", (0, 0))).m == "P'"
    assert mbar_compose(ExtMonoidElement("P'", (0, 0)),
                        ExtMonoidElement("P''", (0, 0))).m == "P''"


def test_sixteen_elements_eight_units():
    elements = mbar_elements()
    assert len(elements) == 16
    assert len(set(elements)) == 16
    units = mbar_units()
    assert len(units) == 8
    assert all(u.m in ("I", "T") for u in units)
    ident = mbar_identity()
    for u in units:
        assert any(mbar_compose(u, v) == ident == mbar_compose(v, u)
                   for v in units)


def test_units_form_semidirect_product():
    # phi(m, v) = (m == T, v) identifies the units with Z/2 acting on
    # (Z/2)^2 by the swap
    units = mbar_units()
    phi = {u: (u.m == "T", u.v) for u in units}
    for a in units:
        for b in units:
            left = phi[mbar_compose(a, b)]
            right = semidirect_compose(phi[a], phi[b])
            assert left == right


def test_structure_report():
    rep = mbar_check_structure()
    assert rep.ok, rep.text()
    ids = {c.check_id for c in rep.checks}
    assert "associativity" in ids
    assert "units_isomorphic_to_semidirect_product" in ids


def test_associativity_fires_on_a_non_associative_product(monkeypatch):
    compose = monoid.mbar_compose
    monkeypatch.setattr(monoid, "mbar_compose",
                        lambda u, w: compose(u, compose(w, u)))
    check = mbar_check_structure().checks[0]
    assert (check.check_id, check.passed) == ("associativity", False)
    # the first failing triple in (a, b, c) order of mbar_elements()
    assert check.witness == ("((I,(0,1)) o (I,(0,0))) o (T,(0,0)) != "
                             "(I,(0,1)) o ((I,(0,0)) o (T,(0,0)))")
