"""The greedy classification that `classify_retractions` replaced, kept as
an oracle for the family decisions.

Candidates with r = 0 are taken first (a stable sort), and each is decided
against the representative of every class opened so far, one
`rq_homotopic` call per pair, so the member that opens a class, its
representative, is the one with r = 0 when present.  Every member keeps the
witness of its homotopy from the representative, the representative's with
itself included.  Members and classes are listed in input order.  It shares
no shift unknown and no reasoning about r-families with the solver.
"""

from xq.quadratic import QCHomotopy, rq_homotopic
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
            witness = rq_homotopic(representative, morphisms[k])
            if witness is not None:
                entries.append((k, witness))
                break
        else:
            opened.append((morphisms[k], [(k, rq_homotopic(morphisms[k], morphisms[k]))]))
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
