"""The monoid of canonical diagonal-fixing self-map classes of the product of
two 2-spheres, and its linear extension by Z/2 + Z/2.

M has four elements: the identity I, the factor swap T, and the two
projection-type maps P' (onto the first factor, composed with the diagonal)
and P'' (onto the second).  The extension consists of pairs (m, v) with
v in Z/2 + Z/2 and composition

    (m, v) o (m', v') = (m o m', m_*(v') + m'^*(v)),

where m_* and m^* are the left and right actions tabulated below.  I acts as
the identity on both sides (forced by the bimodule axioms).
"""

from __future__ import annotations

from functools import total_ordering
from itertools import product

from .report import Report

M_NAMES = ("I", "T", "P'", "P''")

# composition table: row m, column m' gives m o m'
M_TABLE = {
    "I": ("I", "T", "P'", "P''"),
    "T": ("T", "I", "P'", "P''"),
    "P'": ("P'", "P''", "P'", "P''"),
    "P''": ("P''", "P'", "P'", "P''"),
}

# left action m_* and right action m^* on v = (x, y) in Z/2 + Z/2
LEFT_ACTION = {
    "I": lambda v: v,
    "T": lambda v: (v[1], v[0]),
    "P'": lambda v: (v[0], v[0]),
    "P''": lambda v: (v[1], v[1]),
}
RIGHT_ACTION = {
    "I": lambda v: v,
    "T": lambda v: v,
    "P'": lambda v: (0, 0),
    "P''": lambda v: (0, 0),
}


def m_compose(m: str, mp: str) -> str:
    return M_TABLE[m][M_NAMES.index(mp)]


def monoid_M_table() -> list[list[str]]:
    """The 4 x 4 composition table, rows and columns in M_NAMES order."""
    return [[m_compose(m, mp) for mp in M_NAMES] for m in M_NAMES]


@total_ordering
class ExtMonoidElement:
    """(m, v): an immutable value, ordered by m, then v."""

    __slots__ = ("m", "v")

    def __init__(self, m: str, v: tuple[int, int]):
        _set_m(self, m)
        _set_v(self, v)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"ExtMonoidElement is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return ExtMonoidElement, (self.m, self.v)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.m == other.m and self.v == other.v

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.v) < (other.m, other.v)

    def __hash__(self) -> int:
        return hash((self.m, self.v))

    def __repr__(self) -> str:
        return f"ExtMonoidElement(m={self.m!r}, v={self.v!r})"

    def __str__(self) -> str:
        return f"({self.m},({self.v[0]},{self.v[1]}))"


# the slots' own setters, which the frozen __setattr__ leaves to __init__
_set_m, _set_v = ExtMonoidElement.m.__set__, ExtMonoidElement.v.__set__


def mbar_identity() -> ExtMonoidElement:
    return ExtMonoidElement("I", (0, 0))


def mbar_compose(u: ExtMonoidElement, w: ExtMonoidElement) -> ExtMonoidElement:
    left = LEFT_ACTION[u.m](w.v)
    right = RIGHT_ACTION[w.m](u.v)
    return ExtMonoidElement(m_compose(u.m, w.m),
                            ((left[0] + right[0]) % 2, (left[1] + right[1]) % 2))


def mbar_elements() -> list[ExtMonoidElement]:
    return [ExtMonoidElement(m, (x, y))
            for m in M_NAMES for x in (0, 1) for y in (0, 1)]


def mbar_table() -> dict:
    """(u, w) -> u o w for every pair of elements, each composed once."""
    elems = mbar_elements()
    return {(u, w): mbar_compose(u, w) for u in elems for w in elems}


def mbar_units() -> list[ExtMonoidElement]:
    """Elements with a two-sided inverse, found exhaustively."""
    elems = mbar_elements()
    e = mbar_identity()
    out = []
    for u in elems:
        if any(mbar_compose(u, w) == e and mbar_compose(w, u) == e for w in elems):
            out.append(u)
    return out


def semidirect_compose(u: tuple[int, tuple[int, int]],
                       w: tuple[int, tuple[int, int]]) -> tuple[int, tuple[int, int]]:
    """Z/2 acting on Z/2 + Z/2 by swapping coordinates: (t, v) o (t', v') =
    (t + t', swap^t(v') + v)."""
    t, v = u
    tp, vp = w
    moved = (vp[1], vp[0]) if t else vp
    return ((t + tp) % 2, ((moved[0] + v[0]) % 2, (moved[1] + v[1]) % 2))


def mbar_check_structure() -> Report:
    """Associativity (exhaustive), identity, unit group, and the isomorphism
    of the unit group with the semidirect product, read off mbar_table()."""
    rep = Report("extended self-map monoid")
    table = mbar_table()
    elems = mbar_elements()
    rep.meta["order"] = len(elems)

    # the scan reads the table through element indices, so it compares and
    # looks up ints instead of hashing elements
    index = {u: k for k, u in enumerate(elems)}
    prod = [[index[table[u, w]] for w in elems] for u in elems]
    rep.first_failure("associativity",
                      (f"({elems[a]} o {elems[b]}) o {elems[c]} != "
                       f"{elems[a]} o ({elems[b]} o {elems[c]})"
                       for a, b, c in product(range(len(elems)), repeat=3)
                       if prod[prod[a][b]][c] != prod[a][prod[b][c]]),
                      note=f"{len(elems) ** 3} triples")

    e = mbar_identity()
    rep.first_failure("identity", (f"identity fails at {a}" for a in elems
                                   if table[e, a] != a or table[a, e] != a))

    units = mbar_units()
    rep.meta["units"] = len(units)
    rep.add("unit_count_is_8", len(units) == 8, None if len(units) == 8
            else f"found {len(units)} units")
    rep.add("units_are_trivial_or_swap",
            all(u.m in ("I", "T") for u in units))

    rep.first_failure("units_closed", (f"{u} o {w} leaves the unit group"
                                       for u, w in product(units, repeat=2)
                                       if table[u, w] not in units))

    # explicit isomorphism with the semidirect product: phi(m, v) = (t(m), v)
    def phi(u: ExtMonoidElement) -> tuple[int, tuple[int, int]]:
        return (0 if u.m == "I" else 1, u.v)
    rep.first_failure("units_isomorphic_to_semidirect_product",
                      (f"tables differ at {u} o {w}" for u, w in product(units, repeat=2)
                       if phi(table[u, w]) != semidirect_compose(phi(u), phi(w))),
                      note="full table comparison under phi(m, v) = (m == T, v)")

    rep.add("projection_types_idempotent",
            m_compose("P'", "P'") == "P'" and m_compose("P''", "P''") == "P''")
    return rep
