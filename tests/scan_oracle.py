"""The retraction scan that `enumerate_retractions` replaced, kept as an
oracle for the r-solver.

It builds every candidate of the (a, b, r) box, (2A+1)^2 (2R+1) of them,
and keeps those that pass the sampled morphism check, in the order (a, b, r)
ascending.  It solves nothing, so it cannot share a mistake in the affine
reasoning of the solver.  `scan_members` lists the kept candidates as the
`Retraction`s that classification takes, each on the first kept candidate
of its (a, b).
"""

from xq.quadratic import qcm_check
from xq.sphere import Retraction, retraction_candidate


def scan_retractions(q, d, ab_range=2, r_bound=1):
    out = []
    for a in range(-ab_range, ab_range + 1):
        for b in range(-ab_range, ab_range + 1):
            for r in range(-r_bound, r_bound + 1):
                m = retraction_candidate(q, d, a, b, r)
                if qcm_check(m).ok:
                    out.append(m)
    return out


def scan_members(q, d, ab_range=2, r_bound=1):
    first = {}
    return [Retraction(m.tag, first.setdefault(m.tag[:2], m))
            for m in scan_retractions(q, d, ab_range, r_bound)]
