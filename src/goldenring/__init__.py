"""Exact arithmetic, combinatorics and growth checks in the golden ring.

The package implements the integer ring generated by the inverse golden
ratio: exact sign arithmetic, representation combinatorics (quads and
size classes), symmetric triple sequences with certified enclosures of
their limit ratios, the graded algebra of germ coordinates with its
Hilbert functions and distinguished monomial basis, and dimension
growth of value-bounded subspaces.
"""

from types import ModuleType as _ModuleType

from .errors import BoundExceeded, VerificationError
from .golden import (
    BiDegree,
    GoldenInt,
    GoldenRational,
    fib,
    golden_power,
    sqrt5_bounds,
)
from .intervals import RationalInterval, sqrt_interval, three_halves_interval
from .quads import (
    PartitionClass,
    Quad,
    brute_force_sizes,
    brute_force_sizes_bi,
    canonical_quad,
    classify,
    contract_quad,
    elements_up_to_bidegree,
    elements_up_to_degree,
    expand_quad,
    max_size_for_bidegree,
    max_size_for_degree,
    maximal_quad_for_bidegree,
    maximal_quad_for_degree,
    quads_for_value,
    quads_with_bidegree,
    size_class_count,
    size_class_count_bi,
    size_class_profile,
    size_class_profile_bi,
    sizes_to_profile,
)
from .sequences import (
    Seed,
    SymTriple,
    TransitionMatrix,
    TripleSystem,
    VerificationReport,
    find_seeds,
    generate_system,
    growth_constant_enclosure,
    ratio_limit_enclosure,
    symmetry_defect,
    verify_system,
)
from .mpoly import MPoly, VARS_BASE, monomials_of_degree
from .ringalg import (
    BasisMonomial,
    BasisReport,
    LeadingForm,
    ReducedElement,
    basis_family,
    basis_monomial,
    check_basis_rank,
    coordinate_polys,
    evaluation_ideal,
    hilbert_bi,
    hilbert_bi_closed,
    hilbert_total,
    hilbert_total_closed,
    leading_form,
    quotient_coordinates,
    symmetry_defect_poly,
)
from .dimension import (
    DimensionReport,
    ScalingReport,
    ScalingRow,
    growth_dimension,
    scaling_report,
)

__version__ = "0.1.0"

# the imports above are the export list; every name they bind is public
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
