"""The greedy classification that `classify_retractions` replaced, kept as
an oracle for the family decisions, and a reader of the witness entries
that classification reports write.

Candidates with r = 0 are taken first (a stable sort), and each is decided
against the representative of every class opened so far, one
`rq_homotopy_decision` call per pair, so the member that opens a class, its
representative, is the one with r = 0 when present.  Every member keeps the
witness of its homotopy from the representative, the representative's with
itself included.  Members and classes are listed in input order.  It shares
no shift unknown and no reasoning about r-families with the solver.

`member_witnesses` writes the greedy witnesses one per member, as
classification reports did before they wrote one entry per pair of
r-families; `derived_witnesses` derives that same list from a report's JSON
alone, as docs/structure-format.md describes.
"""

from xq.quadratic import QCHomotopy, rq_homotopy_decision
from xq.sphere import RetractionClass


class GreedyClass(RetractionClass):
    """witnesses[k] is the homotopy from the representative to members[k]."""

    def __init__(self, ab, members, representative, witnesses: list[QCHomotopy]):
        super().__init__(ab, members, representative)
        self.witnesses = witnesses


def greedy_classes(morphisms):
    order = sorted(range(len(morphisms)),
                   key=lambda k: not (morphisms[k].tag and morphisms[k].tag[2] == 0))
    opened = []  # representative, [(index, witness)]
    for k in order:
        for representative, entries in opened:
            witness = rq_homotopy_decision(representative, morphisms[k])[0]
            if witness is not None:
                entries.append((k, witness))
                break
        else:
            itself = rq_homotopy_decision(morphisms[k], morphisms[k])[0]
            opened.append((morphisms[k], [(k, itself)]))
    for _, entries in opened:
        entries.sort(key=lambda e: e[0])
    opened.sort(key=lambda o: o[1][0][0])
    classes = []
    for representative, entries in opened:
        first = morphisms[entries[0][0]]
        classes.append(GreedyClass((first.tag[0], first.tag[1]) if first.tag else (0, 0),
                                   [morphisms[k] for k, _ in entries], representative,
                                   [w for _, w in entries]))
    return classes


def member_witnesses(classes: list[GreedyClass], target) -> list[dict]:
    """{"pair": [representative tag, member tag], "alpha2": ..., "alpha3":
    ...} per member, class by class, from the greedy witnesses."""
    return [{"pair": [list(c.representative.tag), list(m.tag)], **w.to_json(target)}
            for c in classes for m, w in zip(c.members, c.witnesses)]


def reduced(vec, rows) -> list[int]:
    """vec reduced by echelon rows, in their order: at each row's pivot, its
    first nonzero entry, subtract the floor quotient times the row."""
    vec = list(vec)
    for row in rows:
        j = next(k for k, x in enumerate(row) if x)
        q = vec[j] // row[j]
        vec = [x - q * y for x, y in zip(vec, row)]
    return vec


def entry_witness(entry: dict, t: int) -> dict:
    """The alpha2 and alpha3 values that a witness entry gives at t, the
    member's r minus the representative's."""
    step, t0 = entry["step"], entry["t0"]
    if (t - t0) % step if step else t != t0:
        raise ValueError(f"t = {t} is not admitted by the entry of {entry['families']}")
    q = (t - t0) // step if step else 0
    u = entry["u0"] if not step else [a + q * b for a, b in zip(entry["u0"], entry["step_row"])]
    u = reduced(u, entry["kernel"])
    return {name: [reduced(u[b["offset"] + s * b["rank"]:b["offset"] + (s + 1) * b["rank"]],
                           b["relations"]) for s in b["slots"]]
            for name, b in entry["blocks"].items()}


def derived_witnesses(report: dict) -> list[dict]:
    """`member_witnesses`' list, derived from a classification report's
    JSON: its class lists, at the top level of a `classify --out` file and
    under `meta` of a `classification_report` or of `count --out`, and its
    witness entries."""
    entries = {tuple(map(tuple, e["families"])): e for e in report.get("witnesses", [])}
    out = []
    for c in report["classes"] if "classes" in report else report["meta"]["classes"]:
        rep = c["representative"]
        for m in c["members"]:
            entry = entries[tuple(rep[:2]), tuple(m[:2])]
            out.append({"pair": [rep, m], **entry_witness(entry, m[2] - rep[2])})
    return out


def homotopy_from_json(witness: dict, target) -> QCHomotopy:
    return QCHomotopy(tuple(map(target.q3.element_from_json, witness["alpha2"])),
                      tuple(map(target.q4.element_from_json, witness["alpha3"])))
