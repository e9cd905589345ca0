"""Existence and uniqueness verdicts for compatible real structures.

Given the diagram of a real form and hypotheses about a subgroup, the
verdict reports, on separate axes, what is guaranteed about:

* conjugation-stability of the subgroup class ("subgroup conjugacy"),
* an equivariant antiholomorphic self-map of the homogeneous space,
* a genuine real structure (involutive self-map) on that space,
* a real structure on a chosen completion.

Each axis uses a small ordered vocabulary so that strengthening the
hypotheses can only move a verdict up.  The driving dichotomy is
whether the diagram induces the identity node involution: when it does
not, the descent argument breaks and known examples show the conclusion
can genuinely fail, so nothing is guaranteed: each graded axis stays at
"unknown" and the equivariant map is not guaranteed.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import Record, _json_object
from .errors import DiagramDataError
from .involution import satake_automorphism

CONJUGACY_ORDER = ("unknown", "hypothesis-required", "guaranteed")
HOMOGENEOUS_ORDER = ("unknown", "not-guaranteed", "exists-unique")
COMPLETION_ORDER = ("unknown", "not-applicable", "exists-unique-structure")

_SCOPE_CAVEAT = "conclusions are stated for connected semisimple complex linear algebraic groups"
_NONIDENTITY_CAVEAT = (
    "the induced node involution is nontrivial, so the descent argument does not "
    "apply; in known examples the conjugation interchanges divisor classes and no "
    "compatible real structure exists"
)
_CONJUGACY_CAVEAT = (
    "without sphericity the subgroup class need not be stable under conjugation; "
    "this must be checked by other means"
)
_INVOLUTIVE_CAVEAT = (
    "the equivariant self-map need not be involutive unless the subgroup is "
    "self-normalizing, so the homogeneous space may carry no real structure"
)
_COMPLETION_CAVEAT = (
    "statements about completions require a self-normalizing subgroup; none is made here"
)


class SubgroupHypotheses(Record):
    """What is assumed about the subgroup defining the homogeneous space;
    each field is a ``bool``, and ``"no"`` or ``0`` raises ``TypeError``."""

    _fields = ("spherical", "self_normalizing")

    def __init__(self, spherical: bool = False, self_normalizing: bool = False):
        for name, value in zip(self._fields, (spherical, self_normalizing)):
            if not isinstance(value, bool):
                raise TypeError(f"SubgroupHypotheses.{name} must be a bool, got {value!r}")
        super().__init__(spherical, self_normalizing)


class StructureVerdict(Record):
    """What the theorems guarantee, axis by axis.  ``equivariant_map_exists``
    is ``True`` when a map is guaranteed to exist; ``False`` means "not
    guaranteed", not that no map exists (for H = {e}, sigma itself is one)."""

    _fields = (
        "subgroup_conjugacy",
        "equivariant_map_exists",
        "real_structure_on_homogeneous_space",
        "real_structure_on_completion",
        "citations",
        "caveats",
    )


def real_structure_verdict(
    diagram, hypotheses: SubgroupHypotheses = SubgroupHypotheses()
) -> StructureVerdict:
    """Decision table keyed on the induced node involution and the hypotheses;
    a diagram that ``validate`` rejects raises ``DiagramDataError``."""
    if not isinstance(hypotheses, SubgroupHypotheses):
        raise TypeError(f"hypotheses are a SubgroupHypotheses, got {hypotheses!r}")
    if fails := diagram._admissibility:
        raise DiagramDataError(fails)
    perm = satake_automorphism(diagram)
    identity = perm == tuple(range(len(perm)))
    if not identity:
        return StructureVerdict(
            subgroup_conjugacy="unknown",
            equivariant_map_exists=False,
            real_structure_on_homogeneous_space="unknown",
            real_structure_on_completion="unknown",
            citations=("Sec6-example",),
            caveats=(_SCOPE_CAVEAT, _NONIDENTITY_CAVEAT),
        )
    if not hypotheses.spherical:
        return StructureVerdict(
            subgroup_conjugacy="hypothesis-required",
            equivariant_map_exists=False,
            real_structure_on_homogeneous_space="unknown",
            real_structure_on_completion="unknown",
            citations=("Thm2.1",),
            caveats=(_SCOPE_CAVEAT, _CONJUGACY_CAVEAT),
        )
    if hypotheses.self_normalizing:
        return StructureVerdict(
            subgroup_conjugacy="guaranteed",
            equivariant_map_exists=True,
            real_structure_on_homogeneous_space="exists-unique",
            real_structure_on_completion="exists-unique-structure",
            citations=("Thm1.1", "Thm1.2"),
            caveats=(_SCOPE_CAVEAT,),
        )
    return StructureVerdict(
        subgroup_conjugacy="guaranteed",
        equivariant_map_exists=True,
        real_structure_on_homogeneous_space="not-guaranteed",
        real_structure_on_completion="not-applicable",
        citations=("Thm1.1",),
        caveats=(_SCOPE_CAVEAT, _INVOLUTIVE_CAVEAT, _COMPLETION_CAVEAT),
    )


def verdict_to_json(v: StructureVerdict) -> str:
    """``json.dumps(payload, indent=2)`` of the fields in order."""
    return _verdict_json(v, 0)


# The decision table yields four verdicts, and the text is immutable.
_verdict_json = lru_cache(maxsize=16)(_json_object)
