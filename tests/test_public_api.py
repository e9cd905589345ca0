"""The package's public names: declared once, in the module that defines each."""

from __future__ import annotations

import pytest

import satake
from satake import diagram, errors, involution, realforms, rootsys, verdict

MODULES = (diagram, errors, involution, realforms, rootsys, verdict)

# The benchmark's tracer wraps each public function, so adding or dropping a
# name changes what it times: an edit here is deliberate.
PUBLIC = {
    "ClassificationRow", "ClassificationTable", "DiagramDataError", "DiagramParseError",
    "RealFormRecord", "RestrictedRoots", "RootSystem", "SatakeDiagram", "SatakeError",
    "SimpleType", "StructureVerdict", "SubgroupHypotheses", "UnknownRealFormError",
    "ValidationReport", "act_on_weight", "apply_word", "base_coordinates",
    "black_corrections", "build_root_system", "catalog", "classification_to_json",
    "classify", "dual_cartan_involution", "format_diagram", "identify_cartan",
    "induced_node_permutation", "longest_element", "lookup", "normalize_name",
    "parse_diagram", "permutation_cycles", "real_structure_verdict", "render_diagram",
    "restricted_roots", "restricted_to_json", "satake_automorphism", "validate",
    "verdict_to_json", "word_matrix",
}


def test_the_package_joins_the_modules_lists():
    joined = sum((m.__all__ for m in MODULES), ())
    assert satake.__all__ == joined
    assert len(set(joined)) == len(joined)
    assert set(joined) == PUBLIC


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_name_is_listed_where_it_is_defined(module):
    assert type(module.__all__) is tuple
    for name in module.__all__:
        obj = getattr(module, name)
        assert obj.__module__ == module.__name__, name
        assert getattr(satake, name) is obj


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from satake import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC
