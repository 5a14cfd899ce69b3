"""The value semantics of the element types and of reports: repr, equality,
hashing, immutability, order, construction checks and copies."""

import copy
import pickle

import pytest

from xq.monoid import ExtMonoidElement, mbar_elements
from xq.nil2 import Nil2Element
from xq.report import Check, Report
from xq.tensor import TensorElement

FIELDS = {Nil2Element: ("base", "comm"), TensorElement: ("n", "coeffs"),
          ExtMonoidElement: ("m", "v")}
VALUES = (
    (Nil2Element((1, -2), (3,)), Nil2Element((1, -2), (3,)), Nil2Element((1, -2), (4,)),
     "Nil2Element(base=(1, -2), comm=(3,))"),
    (TensorElement(2, ((1, 0), (0, -1))), TensorElement(2, ((1, 0), (0, -1))),
     TensorElement(2, ((1, 0), (0, 1))), "TensorElement(n=2, coeffs=((1, 0), (0, -1)))"),
    (ExtMonoidElement("P'", (0, 1)), ExtMonoidElement("P'", (0, 1)),
     ExtMonoidElement("P''", (0, 1)), "ExtMonoidElement(m=\"P'\", v=(0, 1))"),
)


@pytest.mark.parametrize("x, same, other, text", VALUES,
                         ids=[type(v[0]).__name__ for v in VALUES])
def test_an_element_is_an_immutable_value(x, same, other, text):
    assert repr(x) == text
    assert x == same and hash(x) == hash(same) and x is not same
    assert x != other and not x == other
    for field in FIELDS[type(x)]:
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(other, field))
        with pytest.raises(AttributeError):
            delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 0
    assert repr(x) == text
    for back in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert back == x and type(back) is type(x) and repr(back) == text


def test_values_of_different_classes_are_never_equal():
    fields = [tuple(getattr(x, k) for k in FIELDS[type(x)]) for x, *_ in VALUES]
    for (x, *_), (y, *_) in zip(VALUES, VALUES[1:] + VALUES[:1]):
        assert x != y and y != x
    for (x, *_), f in zip(VALUES, fields):
        assert x != f and f != x


def test_extended_monoid_elements_sort_by_m_then_v():
    elems = mbar_elements()
    ordered = sorted(elems)
    assert ordered == sorted(elems, key=lambda u: (u.m, u.v))
    assert [str(u) for u in ordered[:5]] == [
        "(I,(0,0))", "(I,(0,1))", "(I,(1,0))", "(I,(1,1))", "(P',(0,0))"]
    a, b = ordered[0], ordered[1]
    assert a < b and a <= b and b > a and b >= a and a <= a and not a < a
    with pytest.raises(TypeError):
        a < (a.m, a.v)


@pytest.mark.parametrize("n, coeffs", [(2, ((1, 0),)), (2, ((1, 0), (0,))),
                                       (1, ((1, 0), (0, 1)))])
def test_a_tensor_of_the_wrong_shape_is_refused(n, coeffs):
    with pytest.raises(ValueError, match="n x n"):
        TensorElement(n, coeffs)


def test_reports_and_checks_compare_by_value_and_deep_copy():
    def report():
        rep = Report("r", basis="proved")
        rep.add("a", True, note="n")
        rep.add("b", False, witness="w", basis="sampled")
        rep.axioms.append("axiom")
        rep.witnesses.append({"x": [1, 2]})
        rep.meta["seed"] = 3
        return rep

    rep = report()
    assert rep == report() and rep is not report()
    assert rep.checks[0] == Check("a", True, None, "n", "proved")
    assert rep.checks[0] != Check("a", True, None, "n", None)
    twin = copy.deepcopy(rep)
    assert twin == rep and twin.checks[1] == rep.checks[1]
    assert twin.checks[1] is not rep.checks[1] and twin.witnesses[0] is not rep.witnesses[0]
    assert twin.to_json() == rep.to_json()
    seed, note = report(), report()
    seed.meta["seed"] = 4
    note.checks[0].note = "m"
    assert seed != rep and note != rep
    assert rep != Check("a", True) and Check("a", True) != rep
    with pytest.raises(TypeError):
        hash(rep)
    with pytest.raises(TypeError):
        hash(rep.checks[0])
