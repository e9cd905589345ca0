"""Verdict decision table, golden fixtures, monotonicity."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from satake.realforms import lookup
from satake.diagram import parse_diagram
from satake.errors import DiagramDataError
from satake.verdict import (
    COMPLETION_ORDER,
    CONJUGACY_ORDER,
    HOMOGENEOUS_ORDER,
    StructureVerdict,
    SubgroupHypotheses,
    real_structure_verdict,
    verdict_to_json,
)

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    ("identity_spherical_selfnormalizing", "sl(3,R)", SubgroupHypotheses(True, True)),
    ("identity_spherical", "sl(3,R)", SubgroupHypotheses(True, False)),
    ("identity_nonspherical", "sl(3,R)", SubgroupHypotheses(False, False)),
    ("nonidentity", "su(2,1)", SubgroupHypotheses(True, True)),
]


@pytest.mark.parametrize("tag,name,hyp", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_fixtures(tag, name, hyp):
    v = real_structure_verdict(lookup(name).diagram, hyp)
    expected = (GOLDEN / f"verdict_{tag}.json").read_text()
    assert verdict_to_json(v) + "\n" == expected


@pytest.mark.parametrize("hyp", [SubgroupHypotheses(), SubgroupHypotheses(True, True)])
def test_diagram_of_no_real_form_is_refused(hyp):
    with pytest.raises(DiagramDataError) as exc:
        real_structure_verdict(parse_diagram("A2 black=1 arrows="), hyp)
    assert exc.value.failures == (
        ("not admissible", "white node 2: <alpha_2, rho_X^vee> = -1/2"),
    )


def test_json_is_the_value_of_the_verdict():
    # a verdict is one of the decision table's records, and each record,
    # one outside the table too, keeps its own text
    v = real_structure_verdict(lookup("sl(3,R)").diagram, SubgroupHypotheses(True, False))
    again = real_structure_verdict(lookup("sl(4,R)").diagram, SubgroupHypotheses(True, False))
    assert v is again and verdict_to_json(v) == verdict_to_json(again)
    odd = StructureVerdict(
        v.subgroup_conjugacy,
        v.equivariant_map_exists,
        v.real_structure_on_homogeneous_space,
        v.real_structure_on_completion,
        citations=("x",),
        caveats=(),
    )
    payload = json.loads(verdict_to_json(odd))
    assert payload["citations"] == ["x"] and payload["caveats"] == []
    assert json.loads(verdict_to_json(v))["citations"] == list(v.citations)


def _dumps(v):
    payload = {
        "subgroup_conjugacy": v.subgroup_conjugacy,
        "equivariant_map_exists": v.equivariant_map_exists,
        "real_structure_on_homogeneous_space": v.real_structure_on_homogeneous_space,
        "real_structure_on_completion": v.real_structure_on_completion,
        "citations": list(v.citations),
        "caveats": list(v.caveats),
    }
    return json.dumps(payload, indent=2)


@pytest.mark.parametrize("tag,name,hyp", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_json_text_is_json_dumps(tag, name, hyp):
    v = real_structure_verdict(lookup(name).diagram, hyp)
    assert verdict_to_json(v) == _dumps(v)


@pytest.mark.parametrize(
    "citations, caveats",
    [
        ((), ()),
        (('"Thm" 1\\2',), ("caf\u00e9 \u2260 tea\n", "\U0001d53c\ttab")),
        # a list field, and nested items, are indented as json.dumps indents them
        (["Thm1.1"], []),
        ((("Thm1.1", "p. 3"),), ({"note": ["a", ()]}, [])),
    ],
)
def test_json_text_of_a_hand_built_verdict(citations, caveats):
    v = StructureVerdict('say "unknown"', False, "back\\slash", "\u00fcber", citations, caveats)
    assert verdict_to_json(v) == _dumps(v)


def test_equal_verdicts_are_written_from_their_own_values():
    # 1 == True, so a text kept by the record's value would hand the later
    # of two equal records the earlier one's text, whichever came first
    row = real_structure_verdict(lookup("sl(3,R)").diagram, SubgroupHypotheses(True, True))
    for order in ((1, True), (True, 1)):
        for flag in order:
            v = StructureVerdict(
                row.subgroup_conjugacy,
                flag,
                row.real_structure_on_homogeneous_space,
                row.real_structure_on_completion,
                row.citations,
                row.caveats,
            )
            assert v == row and verdict_to_json(v) == _dumps(v)
            assert verdict_to_json(row) == _dumps(row)


def test_a_list_passed_in_is_copied():
    # the record stores tuples, so a list edited after it is built changes
    # neither the record nor the text it keeps
    citations = ["Thm1.1"]
    v = StructureVerdict("guaranteed", True, "exists-unique", "exists-unique-structure", citations, [])
    text = verdict_to_json(v)
    citations.append("Thm1.2")
    assert v.citations == ("Thm1.1",) and v.caveats == ()
    assert verdict_to_json(v) is text and text == _dumps(v)


def test_json_field_order():
    v = real_structure_verdict(lookup("sl(3,R)").diagram, SubgroupHypotheses(True, True))
    pairs = json.loads(verdict_to_json(v), object_pairs_hook=list)
    assert [k for k, _ in pairs] == [
        "subgroup_conjugacy",
        "equivariant_map_exists",
        "real_structure_on_homogeneous_space",
        "real_structure_on_completion",
        "citations",
        "caveats",
    ]


def test_scope_caveat_always_first():
    for name in ("sl(3,R)", "su(2,1)", "e6(-14)", "sl(2,C)"):
        for sph, sn in itertools.product((False, True), repeat=2):
            v = real_structure_verdict(lookup(name).diagram, SubgroupHypotheses(sph, sn))
            assert v.caveats[0].startswith("conclusions are stated for connected")


def test_branch_citations():
    d_id = lookup("sl(3,R)").diagram
    d_non = lookup("su(2,1)").diagram
    assert real_structure_verdict(d_non, SubgroupHypotheses(True, True)).citations == ("Sec6-example",)
    assert real_structure_verdict(d_id, SubgroupHypotheses(False, True)).citations == ("Thm2.1",)
    assert real_structure_verdict(d_id, SubgroupHypotheses(True, False)).citations == ("Thm1.1",)
    assert real_structure_verdict(d_id, SubgroupHypotheses(True, True)).citations == ("Thm1.1", "Thm1.2")


def _axes(v):
    return (
        CONJUGACY_ORDER.index(v.subgroup_conjugacy),
        int(v.equivariant_map_exists),
        HOMOGENEOUS_ORDER.index(v.real_structure_on_homogeneous_space),
        COMPLETION_ORDER.index(v.real_structure_on_completion),
    )


@pytest.mark.parametrize("name", ["sl(3,R)", "so(2,6)", "su(2,2)", "e6(2)", "f4(-20)", "so(7,C)"])
def test_monotone_in_hypotheses(name):
    d = lookup(name).diagram
    combos = {
        (sph, sn): _axes(real_structure_verdict(d, SubgroupHypotheses(sph, sn)))
        for sph, sn in itertools.product((False, True), repeat=2)
    }
    for (a, b) in combos:
        for (c, e) in combos:
            if a <= c and b <= e:
                assert all(x <= y for x, y in zip(combos[(a, b)], combos[(c, e)]))


def test_unique_structure_implies_map_exists():
    for name in ("sl(3,R)", "su(2,1)", "e8(8)"):
        for sph, sn in itertools.product((False, True), repeat=2):
            v = real_structure_verdict(lookup(name).diagram, SubgroupHypotheses(sph, sn))
            if v.real_structure_on_homogeneous_space == "exists-unique":
                assert v.equivariant_map_exists


def test_nonidentity_ignores_hypotheses():
    d = lookup("su(3,1)").diagram
    verdicts = {
        real_structure_verdict(d, SubgroupHypotheses(sph, sn))
        for sph, sn in itertools.product((False, True), repeat=2)
    }
    assert len(verdicts) == 1
    v = verdicts.pop()
    assert v.subgroup_conjugacy == "unknown"
    assert not v.equivariant_map_exists


@pytest.mark.parametrize("value", ["no", "", 0, 1, None])
@pytest.mark.parametrize("field", ["spherical", "self_normalizing"])
def test_hypotheses_refuse_non_bool(field, value):
    # a truthy "no" used to read as a hypothesis that holds
    with pytest.raises(TypeError, match=field):
        SubgroupHypotheses(**{field: value})
    with pytest.raises(TypeError, match=field):
        SubgroupHypotheses(*((value, True) if field == "spherical" else (True, value)))


@pytest.mark.parametrize("hyp", [None, (True, True), {"spherical": True}])
@pytest.mark.parametrize("name", ["sl(3,R)", "su(2,1)"])  # epsilon = id, and not
def test_verdict_refuses_hypotheses_of_another_type(name, hyp):
    with pytest.raises(TypeError, match="SubgroupHypotheses"):
        real_structure_verdict(lookup(name).diagram, hyp)
