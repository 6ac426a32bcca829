"""Exact rational V- and H-representations of claw-tree model polytopes.

The package builds the vertex set of the Kimura-3 polytope K(m) and its
relatives, the inequality systems that carve them out, the columnwise
coordinate change between the two natural coordinate systems, and an
independent double description engine that cross-verifies everything.

`import clawpoly` loads no submodule: each public name below is imported
from its module on first use (PEP 562), so a process loads only the
modules it runs.
"""

import importlib

_EXPORTS = {
    "coordchange": ("from_prime_scaled", "simplex_image_check", "to_prime_scaled"),
    "engine": (
        "EqualityReport", "FVector", "PolytopeDD", "enumerate_integral_points",
        "equal_polytopes", "f_vector", "hull_from_vertices", "vertices_from_inequalities",
    ),
    "errors": (
        "ClawpolyError", "ConfigurationError", "DimensionError", "FileFormatError",
        "InfeasibleError", "IntegralPointError", "LeafCountError", "NotAMemberError",
        "ResourceCapError", "UnboundedError", "UnsupportedGroupError",
    ),
    "groups": (
        "Z2", "Z2Z2", "GroupElement", "GroupSpec", "element", "group_elements",
        "group_sum", "identity", "nonidentity_elements", "parse_group",
    ),
    "halfspaces": (
        "InequalitySystem", "demihypercube_system", "kimura3_prime_system",
        "kimura3_system", "model_system", "odd_subsets",
    ),
    "rationals": ("ScaledPoint", "scale_to_ints"),
    "suites": ("run_isomorphism_suite", "run_sampled_suites"),
    "vertices": ("Labeling", "VertexSet", "generate_vertices"),
    "witness": (
        "ContainmentReport", "InteriorWitness", "NotInterior", "ViolationWitness",
        "analyze_point", "check_containment", "interior_witness", "violation_witness",
    ),
}
# public name -> the submodule that defines it
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LAZY)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
