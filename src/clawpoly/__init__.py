"""Exact rational V- and H-representations of claw-tree model polytopes.

The package builds the vertex set of the Kimura-3 polytope K(m) and its
relatives, the inequality systems that carve them out, the columnwise
coordinate change between the two natural coordinate systems, and an
independent double description engine that cross-verifies everything.
"""

from .coordchange import from_prime_scaled, simplex_image_check, to_prime_scaled
from .engine import (
    EqualityReport,
    FVector,
    PolytopeDD,
    enumerate_integral_points,
    equal_polytopes,
    f_vector,
    hull_from_vertices,
    vertices_from_inequalities,
)
from .errors import (
    ClassificationUndefinedError,
    ClawpolyError,
    ConfigurationError,
    DimensionError,
    FileFormatError,
    InfeasibleError,
    IntegralPointError,
    LeafCountError,
    NotAMemberError,
    NotTightError,
    ResourceCapError,
    UnboundedError,
    UnsupportedGroupError,
)
from .groups import (
    Z2,
    Z2Z2,
    GroupElement,
    GroupSpec,
    element,
    group_elements,
    group_sum,
    identity,
    nonidentity_elements,
    parse_group,
)
from .halfspaces import (
    InequalitySystem,
    demihypercube_system,
    kimura3_prime_system,
    kimura3_system,
    model_system,
    odd_subsets,
)
from .rationals import ScaledPoint, scale_to_ints
from .suites import run_interior_suite, run_isomorphism_suite, run_pseudo_facet_suite
from .vertices import Labeling, VertexSet, generate_vertices
from .witness import (
    ContainmentReport,
    IncidenceReport,
    InteriorWitness,
    NotInterior,
    RowStructureReport,
    ViolationWitness,
    analyze_point,
    check_containment,
    classify_facet,
    incidence_report,
    interior_witness,
    parity_check,
    pseudo_facet_structure,
    s_facet_count_even,
    violation_witness,
)

__version__ = "0.1.0"
