"""Exact fusion-ring computations for loop groups of the simple Lie types.

The package couples three independent routes to the same objects: a
Kac-Walton folding oracle for fusion products and ideal membership, the
invariant-module resolution whose degree-zero homology is the fusion ring,
and Groebner-based codimension certificates for extracted presentations.
"""

from .errors import InputError, InternalLimitError
from .fusion import (FusionElement, fold, fusion_product, fusion_table, in_fusion_ideal,
                     verlinde_numeric_check)
from .groebner import FieldPoly, buchberger, normal_form, quotient_codimension
from .repring import VirtualCharacter, tensor_product, to_polynomial
from .resolution import (ComplexSpec, DEFAULT_PRIMES, PresentationReport,
                         build_complex, cokernel_vs_oracle, d_squared_check,
                         extract_presentation, g2_fusion_ideal_generators,
                         verify_presentation)
from .rootdata import (LieType, RootSystem, alcove_weights, build_root_system,
                       full_weights, weyl_orbit)
from .twisted import (CentralizerInfo, census, centralizer_info, enumerate_labels,
                      face_subset, find_module_basis, twist_order, verify_module_basis)

__version__ = "0.1.0"
