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

The decision table has four rows, and each is one module-level record
in ``TABLE``: every verdict is one of them.  A record's JSON text is a
stage of the record, written on first use and kept with it, for a row of
``TABLE`` and a record built by hand alike.
"""

from __future__ import annotations

from ._record import Record, _bind, stage
from .errors import DiagramDataError
from .involution import satake_automorphism

__all__ = ("StructureVerdict", "SubgroupHypotheses", "real_structure_verdict", "verdict_to_json")

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
    guaranteed", not that no map exists (for H = {e}, sigma itself is one).
    ``citations`` and ``caveats`` are stored as tuples."""

    _fields = (
        "subgroup_conjugacy",
        "equivariant_map_exists",
        "real_structure_on_homogeneous_space",
        "real_structure_on_completion",
        "citations",
        "caveats",
    )

    def __init__(self, *args, **kwargs):
        *axes, citations, caveats = _bind(type(self), args, kwargs)
        Record.__init__(self, *axes, tuple(citations), tuple(caveats))

    @stage
    def _json(self) -> str:
        """The text of ``verdict_to_json``."""
        import json

        return json.dumps(dict(zip(self._fields, self._key)), indent=2)


# The decision table's rows: epsilon != id; epsilon = id with H not spherical;
# spherical; spherical and self-normalizing.  Each keeps its own JSON text.
NONIDENTITY, NOT_SPHERICAL, SPHERICAL, SPHERICAL_SELF_NORMALIZING = TABLE = (
    StructureVerdict("unknown", False, "unknown", "unknown", ("Sec6-example",),
                     (_SCOPE_CAVEAT, _NONIDENTITY_CAVEAT)),
    StructureVerdict("hypothesis-required", False, "unknown", "unknown", ("Thm2.1",),
                     (_SCOPE_CAVEAT, _CONJUGACY_CAVEAT)),
    StructureVerdict("guaranteed", True, "not-guaranteed", "not-applicable", ("Thm1.1",),
                     (_SCOPE_CAVEAT, _INVOLUTIVE_CAVEAT, _COMPLETION_CAVEAT)),
    StructureVerdict("guaranteed", True, "exists-unique", "exists-unique-structure",
                     ("Thm1.1", "Thm1.2"), (_SCOPE_CAVEAT,)),
)


def real_structure_verdict(
    diagram, hypotheses: SubgroupHypotheses = SubgroupHypotheses()
) -> StructureVerdict:
    """The row of ``TABLE`` the induced node involution and the hypotheses
    select, that very record; a diagram that ``validate`` rejects raises
    ``DiagramDataError``."""
    if not isinstance(hypotheses, SubgroupHypotheses):
        raise TypeError(f"hypotheses are a SubgroupHypotheses, got {hypotheses!r}")
    if not (report := diagram._admissibility).ok:
        raise DiagramDataError(report.failures)
    perm = satake_automorphism(diagram)
    if perm != diagram.rs._identity:
        return NONIDENTITY
    if not hypotheses.spherical:
        return NOT_SPHERICAL
    return SPHERICAL_SELF_NORMALIZING if hypotheses.self_normalizing else SPHERICAL


def verdict_to_json(v: StructureVerdict) -> str:
    """``json.dumps(payload, indent=2)`` of the fields in order, written on
    the record's first call and kept with it; a value nested inside a field
    is written as it was on that first call."""
    return v._json
