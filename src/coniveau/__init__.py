"""Exact mod-p certificates for coniveau and stable-rationality obstructions.

The package computes Milnor operations on presented mod-p cohomology rings
of classifying-space approximations and on the motivic rings of real
quadrics, and verifies the nonvanishing / obstruction conditions behind
non-stable-rationality and non-retract-rationality certificates.
"""

from ._kernels import backend_name
from .certificates import (
    Certificate,
    DhTable,
    QModuleScenario,
    Scenario,
    builtin_scenarios,
    detect,
    dh_table,
    pgl_detect,
    stable_quotient,
)
from .charclasses import SplitRing
from .fp import (
    AlgebraMorphism,
    DegreeCapError,
    Element,
    FpAlgebraError,
    Generator,
    GradedPresentation,
    regular_sequence_check,
)
from .milnor import QAction, validate_q_axioms
from .motivic import (
    EtaleRing,
    LaurentElement,
    RostBasis,
    decomposition_ranks,
    dh_quadric_check,
    laurent_q0,
    n1_membership,
    quadric_etale_ring,
    rost_etale_ring,
    rost_membership,
    unramified_quotient_quadric,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraMorphism",
    "Certificate",
    "DegreeCapError",
    "DhTable",
    "Element",
    "EtaleRing",
    "FpAlgebraError",
    "Generator",
    "GradedPresentation",
    "LaurentElement",
    "QAction",
    "QModuleScenario",
    "RostBasis",
    "Scenario",
    "SplitRing",
    "backend_name",
    "builtin_scenarios",
    "decomposition_ranks",
    "detect",
    "dh_quadric_check",
    "dh_table",
    "laurent_q0",
    "n1_membership",
    "pgl_detect",
    "quadric_etale_ring",
    "regular_sequence_check",
    "rost_etale_ring",
    "rost_membership",
    "stable_quotient",
    "unramified_quotient_quadric",
    "validate_q_axioms",
]
