"""Exact algebraic models of 3- and 4-dimensional homotopy types.

Groups of nilpotency class 2, crossed and quadratic modules, reduced
quadratic 4-complexes, morphism and homotopy checkers, and the machine
verification of the classification of essential self-maps of S^2 x S^2
fixing the diagonal.  All arithmetic is exact (Python integers).

`import xq` binds the names of README's library quick start, and
`qcm_check`; everything else is imported from its module (`xq.groups`,
`xq.quadratic`, `xq.structfile`, ...).
"""

from .groups import FreeNil2Group
from .quadratic import qcm_check, rq_homotopy_decision, rqc4_check, verify_rq_homotopy
from .sphere import (build_cylinder_Q, build_sphere_D, classification_report,
                     classify_retractions, enumerate_retractions, retraction_candidate)

__version__ = "0.1.0"

__all__ = [
    "FreeNil2Group", "build_cylinder_Q", "build_sphere_D", "classification_report",
    "classify_retractions", "enumerate_retractions", "qcm_check", "retraction_candidate",
    "rq_homotopy_decision", "rqc4_check", "verify_rq_homotopy",
]
