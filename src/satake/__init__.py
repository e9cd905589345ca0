"""Exact computational toolkit for Satake diagrams of real forms.

Encode a painted Dynkin diagram with arrow pairings, compute the node
involution and lattice involution it induces, extract restricted roots
with multiplicities, classify the catalogued real forms by whether the
induced involution is trivial, and report what that implies for real
structures on spherical homogeneous spaces.
"""

from .diagram import (
    SatakeDiagram,
    ValidationReport,
    format_diagram,
    parse_diagram,
    render_diagram,
    validate,
)
from .errors import (
    DiagramDataError,
    DiagramParseError,
    SatakeError,
    UnknownRealFormError,
)
from .involution import (
    RestrictedRoots,
    act_on_weight,
    base_coordinates,
    black_corrections,
    dual_cartan_involution,
    permutation_cycles,
    restricted_roots,
    restricted_to_json,
    satake_automorphism,
)
from .realforms import (
    ClassificationRow,
    ClassificationTable,
    RealFormRecord,
    catalog,
    classification_to_json,
    classify,
    lookup,
    normalize_name,
)
from .rootsys import (
    RootSystem,
    SimpleType,
    apply_word,
    build_root_system,
    identify_cartan,
    induced_node_permutation,
    longest_element,
    word_matrix,
)
from .verdict import (
    StructureVerdict,
    SubgroupHypotheses,
    real_structure_verdict,
    verdict_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationRow",
    "ClassificationTable",
    "DiagramDataError",
    "DiagramParseError",
    "RealFormRecord",
    "RestrictedRoots",
    "RootSystem",
    "SatakeDiagram",
    "SatakeError",
    "SimpleType",
    "StructureVerdict",
    "SubgroupHypotheses",
    "UnknownRealFormError",
    "ValidationReport",
    "act_on_weight",
    "apply_word",
    "base_coordinates",
    "black_corrections",
    "build_root_system",
    "catalog",
    "classification_to_json",
    "classify",
    "dual_cartan_involution",
    "format_diagram",
    "identify_cartan",
    "induced_node_permutation",
    "longest_element",
    "lookup",
    "normalize_name",
    "parse_diagram",
    "permutation_cycles",
    "real_structure_verdict",
    "render_diagram",
    "restricted_roots",
    "restricted_to_json",
    "satake_automorphism",
    "validate",
    "verdict_to_json",
    "word_matrix",
]
