"""Exact algebraic models of 3- and 4-dimensional homotopy types.

Groups of nilpotency class 2, crossed and quadratic modules, reduced
quadratic 4-complexes, morphism and homotopy checkers, and the machine
verification of the classification of essential self-maps of S^2 x S^2
fixing the diagonal.  All arithmetic is exact (Python integers).
"""

from .groups import (CyclicGroup, FgAbelianGroup, FreeAbelianGroup, FreeGroup,
                     FreeNil2Group, Group, GroupHom, group_from_json,
                     invert_hom, trivial_group)
from .nil2 import Nil2Element
from .tensor import TensorElement
from .report import Check, Report, seed_from_env
from .crossed import (CrossedComplex3, GroupAction, PreCrossedModule,
                      XC3Homotopy, XC3Morphism, check_crossed,
                      check_precrossed, peiffer_commutator, verify_xc3_homotopy,
                      xc3_check, xc3_homotopic, xc3_homotopy_decision,
                      xc3_morphism_check)
from .quadratic import (QCHomotopy, QCMorphism, QuadraticModule,
                        ReducedQuadraticComplex4, ReducedQuadraticModule,
                        UnderCofibration, alpha2_extend, complex_from_rqm,
                        qcm_check, qm_check, rq_homotopic,
                        rq_homotopy_decision, rqc4_check, rqm_check,
                        verify_rq_homotopy)
from .monoid import (ExtMonoidElement, M_NAMES, M_TABLE, mbar_check_structure,
                     mbar_compose, mbar_elements, mbar_identity, mbar_units,
                     monoid_M_table)
from .sphere import (AXIOMS, build_cylinder_Q, build_sphere_D,
                     classification_report, classify_retractions,
                     enumerate_retractions, retraction_candidate,
                     solve_homology_constraints)
from .structfile import (FORMAT_VERSION, StructureError, StructureFile,
                         build_structure, load_structure, morphism_structure,
                         pair_structure, parse_structure, rqc4_structure,
                         serialize_structure)

__version__ = "0.1.0"

__all__ = [
    "AXIOMS", "Check", "CrossedComplex3", "CyclicGroup", "ExtMonoidElement",
    "FORMAT_VERSION", "FgAbelianGroup", "FreeAbelianGroup", "FreeGroup",
    "FreeNil2Group", "Group", "GroupAction", "GroupHom", "M_NAMES", "M_TABLE",
    "Nil2Element", "PreCrossedModule", "QCHomotopy", "QCMorphism",
    "QuadraticModule", "ReducedQuadraticComplex4", "ReducedQuadraticModule",
    "Report", "StructureError", "StructureFile", "TensorElement",
    "UnderCofibration", "XC3Homotopy", "XC3Morphism", "alpha2_extend",
    "build_cylinder_Q", "build_sphere_D",
    "build_structure", "check_crossed", "check_precrossed",
    "classification_report", "classify_retractions", "complex_from_rqm",
    "enumerate_retractions", "group_from_json", "invert_hom", "load_structure",
    "mbar_check_structure", "mbar_compose", "mbar_elements", "mbar_identity",
    "mbar_units", "monoid_M_table", "morphism_structure", "pair_structure",
    "parse_structure", "peiffer_commutator", "qcm_check", "qm_check",
    "retraction_candidate", "rq_homotopic", "rq_homotopy_decision",
    "rqc4_check", "rqc4_structure", "rqm_check", "seed_from_env",
    "serialize_structure", "solve_homology_constraints", "trivial_group",
    "verify_rq_homotopy", "verify_xc3_homotopy", "xc3_check", "xc3_homotopic",
    "xc3_homotopy_decision", "xc3_morphism_check",
]
