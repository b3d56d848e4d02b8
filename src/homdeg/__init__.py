"""Exact computational commutative algebra for graded modules: Groebner
bases, free resolutions, local-cohomology duals, Hilbert-Samuel
coefficients, homological degrees and torsions, and checkers for the two
structure theorems on parameter ideals.
"""

from .errors import (
    DegreeCapError,
    DslError,
    EngineBugError,
    HomdegError,
    InhomogeneousError,
    RingMismatchError,
)
from .fields import QQ, PrimeField
from .freemod import FreeElement, FreeModule
from .groebner import groebner_basis, lift_relations, normal_form
from .hilbert import (
    HilbertCoefficients,
    hilbert_coefficients,
    multiplicity,
)
from .invariants import (
    InvariantReport,
    dseq_coefficients,
    h0_length,
    hdeg,
    invariant_report,
    is_d_sequence,
    is_generalized_cm,
    is_superficial,
    is_unmixed,
    stuckrad_vogel,
    torsion,
    torsions,
)
from .koszul import euler_char_1, koszul_homology_lengths
from .modules import Algebra, Presentation
from .resolution import (
    depth,
    dual_series,
    free_resolution,
    local_cohomology_duals,
)
from .ring import Polynomial, PolyRing
from .verify import (
    ProblemInstance,
    TheoremVerdict,
    audit_inequalities,
    check_thm1,
    check_thm2,
    gen_example_39,
    gen_example_46,
)

__version__ = "0.1.0"
