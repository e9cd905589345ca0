"""Value semantics of the immutable record classes.

The expected ``repr`` texts are those the records printed when they were
frozen dataclasses; equality, hashing and immutability must match too.
"""

from __future__ import annotations

import pytest

from satake import involution, rootsys
from satake._record import stage
from satake.realforms import ClassificationRow, ClassificationTable, RealFormRecord
from satake.diagram import SatakeDiagram, ValidationReport, parse_diagram
from satake.errors import DiagramDataError
from satake.involution import RestrictedRoots, restricted_roots
from satake.rootsys import RootSystem, SimpleType, build_root_system
from satake.verdict import StructureVerdict, SubgroupHypotheses, real_structure_verdict

A1, A3 = SimpleType("A", 1), SimpleType("A", 3)
_ROW = ("n", "A1 black= arrows=", "identity", True)
_CAVEATS = (
    "conclusions are stated for connected semisimple complex linear algebraic groups",
    "the induced node involution is nontrivial, so the descent argument does not apply; "
    "in known examples the conjugation interchanges divisor classes and no compatible "
    "real structure exists",
)

# (class, fields by keyword in order, one field changed, repr)
CASES = [
    (SimpleType, {"family": "A", "rank": 3}, {"rank": 4}, "SimpleType(family='A', rank=3)"),
    (
        RootSystem,
        {"components": (A1, A1), "cartan": ((2, 0), (0, 2)), "symmetrizer": (1, 1)},
        {"symmetrizer": (2, 2)},
        "RootSystem(components=(SimpleType(family='A', rank=1), SimpleType(family='A', rank=1)),"
        " cartan=((2, 0), (0, 2)), symmetrizer=(1, 1))",
    ),
    (
        SatakeDiagram,
        {"types": (A3,), "black": frozenset({1}), "arrows": ((0, 2),)},
        {"black": frozenset()},
        "SatakeDiagram(types=(SimpleType(family='A', rank=3),), black=frozenset({1}),"
        " arrows=((0, 2),))",
    ),
    (
        ValidationReport,
        {"ok": False, "failures": (("c", "x"),)},
        {"failures": ()},
        "ValidationReport(ok=False, failures=(('c', 'x'),))",
    ),
    (
        RestrictedRoots,
        {
            "base": ((1, 1, 1),),
            "positive": ((1, 1, 1), (2, 2, 2)),
            "multiplicity": {(1, 1, 1): 4, (2, 2, 2): 1},
            "label": "BC1",
        },
        {"label": None},
        "RestrictedRoots(base=((1, 1, 1),), positive=((1, 1, 1), (2, 2, 2)),"
        " multiplicity={(1, 1, 1): 4, (2, 2, 2): 1}, label='BC1')",
    ),
    (
        SubgroupHypotheses,
        {"spherical": True, "self_normalizing": False},
        {"self_normalizing": True},
        "SubgroupHypotheses(spherical=True, self_normalizing=False)",
    ),
    (
        StructureVerdict,
        {
            "subgroup_conjugacy": "unknown",
            "equivariant_map_exists": False,
            "real_structure_on_homogeneous_space": "unknown",
            "real_structure_on_completion": "unknown",
            "citations": ("Sec6-example",),
            "caveats": _CAVEATS,
        },
        {"citations": ()},
        "StructureVerdict(subgroup_conjugacy='unknown', equivariant_map_exists=False,"
        " real_structure_on_homogeneous_space='unknown', real_structure_on_completion='unknown',"
        " citations=('Sec6-example',), caveats=('conclusions are stated for connected semisimple"
        " complex linear algebraic groups', 'the induced node involution is nontrivial, so the"
        " descent argument does not apply; in known examples the conjugation interchanges"
        " divisor classes and no compatible real structure exists'))",
    ),
    (
        RealFormRecord,
        {"names": ("su(2,1)", "su(1,2)"), "text": "A2 black= arrows=1:2"},
        {"names": ("su(2,1)",)},
        "RealFormRecord(names=('su(2,1)', 'su(1,2)'), text='A2 black= arrows=1:2')",
    ),
    (
        ClassificationRow,
        dict(zip(("name", "diagram", "automorphism", "is_identity"), _ROW)),
        {"is_identity": False},
        "ClassificationRow(name='n', diagram='A1 black= arrows=', automorphism='identity',"
        " is_identity=True)",
    ),
    (
        ClassificationTable,
        {"rank_bound": 1, "rows": (ClassificationRow(*_ROW),)},
        {"rows": ()},
        "ClassificationTable(rank_bound=1, rows=(ClassificationRow(name='n',"
        " diagram='A1 black= arrows=', automorphism='identity', is_identity=True),))",
    ),
]
IDS = [c[0].__name__ for c in CASES]


@pytest.mark.parametrize("cls, fields, changed, text", CASES, ids=IDS)
def test_value_semantics(cls, fields, changed, text):
    a = cls(*fields.values())
    b = cls(**fields)
    other = cls(**{**fields, **changed})
    assert repr(a) == repr(b) == text
    assert a == b and not a != b
    assert a != other and not a == other
    # equal only to its own class: a tuple of the same fields differs
    assert a != tuple(fields.values())
    for name, value in fields.items():
        assert getattr(a, name) == value
    if cls is RestrictedRoots:
        with pytest.raises(TypeError):  # the multiplicity dict is unhashable
            hash(a)
    else:
        # the hash of the field tuple, as before, so set and dict orders hold
        assert hash(a) == hash(b) == hash(tuple(fields.values()))
        assert len({a, b, other}) == 2


@pytest.mark.parametrize("cls, fields, changed, text", CASES, ids=IDS)
def test_fields_are_read_only(cls, fields, changed, text):
    a = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == cls(**fields)


@pytest.mark.parametrize("cls, fields, changed, text", CASES, ids=IDS)
def test_argument_errors(cls, fields, changed, text):
    names, values = list(fields), list(fields.values())
    head = dict(zip(names[:-1], values))
    if cls is SubgroupHypotheses:  # its fields default to False
        assert cls(**head) == cls(*values[:-1], False)
    else:
        with pytest.raises(TypeError):  # the last field missing
            cls(**head)
        with pytest.raises(TypeError):  # the last field missing, the others by position
            cls(*values[:-1])
    with pytest.raises(TypeError):  # an unknown keyword
        cls(*values, extra=1)
    with pytest.raises(TypeError):  # the first field by position and by keyword
        cls(*values[:1], **fields)


@pytest.mark.parametrize("cls, fields, changed, text", CASES, ids=IDS)
def test_all_keywords_checked(cls, fields, changed, text):
    names, values = list(fields), list(fields.values())
    misspelled = dict(zip(names[:-1] + [names[-1] + "_"], values))
    with pytest.raises(TypeError):  # every field by keyword, the last one misspelled
        cls(**misspelled)
    with pytest.raises(TypeError):  # every field by keyword, and one more
        cls(**fields, extra=1)
    # the keywords in another order bind by name
    assert cls(**dict(reversed(fields.items()))) == cls(*values)


def test_keyword_defaults():
    assert SubgroupHypotheses() == SubgroupHypotheses(False, False)
    assert SubgroupHypotheses(self_normalizing=True) == SubgroupHypotheses(False, True)
    d = parse_diagram("A3 black=2 arrows=1:3")
    assert real_structure_verdict(d) == real_structure_verdict(d, SubgroupHypotheses())


def test_cached_stages_do_not_change_the_value():
    d = parse_diagram("E6 black=3,4,5 arrows=1:6")
    fresh = parse_diagram("E6 black=5,4,3 arrows=6:1")  # another text: another instance
    assert restricted_roots(d).label == "BC2"
    assert "_theta" in vars(d) and "_theta" not in vars(fresh)
    assert d == fresh and hash(d) == hash(fresh)
    assert d.rs is build_root_system(["E6"]) and len(d.rs.positive_roots) == 36
    rec = RealFormRecord(("e6(-14)",), "E6 black=3,4,5 arrows=1:6")
    assert rec.diagram == d and rec == RealFormRecord(("e6(-14)",), rec.text)


STAGES = [
    (cls, name)
    for cls in (rootsys.RootSystem, SatakeDiagram, involution._Derivation)
    for name, attr in vars(cls).items()
    if isinstance(attr, stage)
]


class TestStage:
    """The descriptor that computes each derived value on first read."""

    def test_every_stage_is_one(self):
        names = {name for _, name in STAGES}
        assert {"_nbrs", "_black_table", "whites", "_omega", "_node_map", "_theta"} <= names
        for cls, name in STAGES:
            attr = getattr(cls, name)  # class access returns the descriptor
            assert attr is vars(cls)[name] and attr.name == name
            assert callable(attr.func) and attr.func.__name__ == name

    def test_first_read_fills_the_instance_dict(self, monkeypatch):
        calls = []
        d = SatakeDiagram.create(["E6"], [2, 3, 4], [(0, 5)])
        node_map = vars(involution._Derivation)["_node_map"]
        build = node_map.func
        monkeypatch.setattr(node_map, "func", lambda d: calls.append(d) or build(d))
        assert "_node_map" not in vars(d)
        first = d._node_map
        assert vars(d)["_node_map"] is first and calls == [d]
        assert d._node_map is first and calls == [d]  # the second read finds the dict

    def test_a_stage_that_raises_keeps_nothing(self):
        d = SatakeDiagram.create(["A3"], [0], [(1, 2)])
        for _ in range(2):
            with pytest.raises(DiagramDataError, match="node map breaks the Cartan matrix"):
                d._theta
            assert "_theta" not in vars(d)
        _, fails = vars(d)["_node_map"]  # the node map is kept, with its failure
        assert fails[0][0] == "node map breaks the Cartan matrix"

    def test_fields_stay_read_only_after_a_read(self):
        d = SatakeDiagram.create(["A3"], [1], [(0, 2)])
        assert d.whites == (0, 2)
        for name in ("black", "whites", "_theta"):
            with pytest.raises(AttributeError):
                setattr(d, name, None)
        with pytest.raises(AttributeError):
            d.rs._identity = ()
        assert d.whites == (0, 2) and d.rs._identity == (0, 1, 2)
