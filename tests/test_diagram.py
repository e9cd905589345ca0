"""Diagram model, canonical text format, validation, rendering."""

from __future__ import annotations

import inspect

import pytest

import satake
from satake import diagram, involution
from satake.catalog import catalog
from satake.diagram import (
    SatakeDiagram,
    format_diagram,
    parse_diagram,
    render_diagram,
    validate,
)
from satake.errors import DiagramDataError, DiagramParseError
from satake.involution import dual_cartan_involution
from satake.rootsys import SimpleType, build_root_system


class TestCreate:
    def test_basic(self):
        d = SatakeDiagram.create(["A3"], black=[0, 2])
        assert d.n == 3
        assert d.whites == (1,)
        assert not d.is_doubled

    def test_arrows_normalized(self):
        d = SatakeDiagram.create(["A3"], arrows=[(2, 0), (0, 2)])
        assert d.arrows == ((0, 2),)

    def test_omega_map(self):
        d = SatakeDiagram.create(["A3"], arrows=[(0, 2)])
        assert d.omega_map == {0: 2, 1: 1, 2: 0}

    def test_omega_map_is_a_copy(self):
        # a parsed diagram is shared, so a caller's edit must not reach it
        text = "A2 black= arrows="
        d = parse_diagram(text)
        d.omega_map[0] = 1
        assert d.omega_map == {0: 0, 1: 1}
        assert validate(d).ok and validate(parse_diagram(text)).ok

    def test_root_system_built_once(self, monkeypatch):
        calls = []

        def counted(types):
            calls.append(types)
            return build_root_system(types)

        monkeypatch.setattr(diagram, "build_root_system", counted)
        d = SatakeDiagram.create(["E6"], black=[2, 3, 4], arrows=[(0, 5)])
        assert d.rs is build_root_system(d.types) and d.rs.n == 6
        assert len(calls) == 1
        # the parser checks indices against the ranks without a root system
        calls.clear()
        assert parse_diagram("E6 black=3,4,5 arrows=1:6") == d
        assert len(calls) == 1

    def test_black_out_of_range(self):
        with pytest.raises(DiagramDataError):
            SatakeDiagram.create(["A2"], black=[5])

    def test_arrow_out_of_range(self):
        with pytest.raises(DiagramDataError):
            SatakeDiagram.create(["A2"], arrows=[(0, 9)])

    def test_self_arrow_rejected(self):
        with pytest.raises(DiagramDataError):
            SatakeDiagram.create(["A2"], arrows=[(1, 1)])

    def test_mismatched_components_rejected(self):
        with pytest.raises(DiagramDataError):
            SatakeDiagram.create(["A2", "A3"])

    @pytest.mark.parametrize(
        "build", [SatakeDiagram, SatakeDiagram.create], ids=["init", "create"]
    )
    @pytest.mark.parametrize(
        "types, black, arrows, check",
        [
            (("A2",), frozenset({5}), (), "black node out of range"),
            (("A2",), frozenset(), ((0, 9),), "arrow endpoint out of range"),
            (("A2",), frozenset(), ((1, 1),), "arrow connects a node to itself"),
            (("A2", "A3"), frozenset(), (), "component types"),
            (("A3",), frozenset({0.5}), (), "node index is not an integer"),
            (("A3",), frozenset({"2"}), (), "node index is not an integer"),
            (("A3",), frozenset({True}), (), "node index is not an integer"),
            (("A3",), frozenset(), ((0.2, 2.7),), "node index is not an integer"),
            (("A3",), frozenset(), ((0, "2"),), "node index is not an integer"),
            (("A3",), frozenset(), ((0, 1, 2),), "arrow is not a pair of nodes"),
            (("A3",), frozenset(), ((0,),), "arrow is not a pair of nodes"),
            (("A3",), frozenset(), (5,), "arrow is not a pair of nodes"),
            (("A3",), 5, (), "black nodes are not a collection"),
            (("A3",), frozenset(), 5, "arrows are not a collection"),
            ("A3", frozenset(), (), "component types are not a sequence"),
            ((5,), frozenset(), (), "component types"),
        ],
    )
    def test_direct_construction_checks(self, build, types, black, arrows, check):
        # create passes its arguments to the constructor, so both report the same check
        with pytest.raises(DiagramDataError) as exc:
            build(types, black, arrows)
        assert exc.value.failures[0][0] == check

    @pytest.mark.parametrize(
        "black, arrows", [([0.9], ()), (["2"], ()), ((), [(0.2, 2.7)]), ((), [(1, "3")])]
    )
    def test_create_never_coerces_indices(self, black, arrows):
        with pytest.raises(DiagramDataError) as exc:
            SatakeDiagram.create(["A3"], black=black, arrows=arrows)
        assert exc.value.failures[0][0] == "node index is not an integer"

    def test_create_rejects_an_arrow_that_is_not_a_pair(self):
        with pytest.raises(DiagramDataError) as exc:
            SatakeDiagram.create(["A3"], arrows=[(0, 1, 2)])
        assert exc.value.failures == (("arrow is not a pair of nodes", "(0, 1, 2)"),)

    def test_direct_construction_freezes_black(self):
        d = SatakeDiagram(("A3",), {0}, ())
        assert hash(d) == hash(SatakeDiagram.create(["A3"], [0]))
        assert d == SatakeDiagram.create(["A3"], [0])

    def test_direct_construction_normalizes_arrows(self):
        d = SatakeDiagram(("A3",), frozenset(), ((2, 0), (0, 2)))
        assert d.arrows == ((0, 2),)
        assert d == SatakeDiagram.create(["A3"], arrows=[(0, 2)])
        # the value is the normalised fields, not the arguments as given
        d = SatakeDiagram(["A3"], [1], [(2, 0), (0, 2)])
        want = SatakeDiagram((SimpleType("A", 3),), frozenset({1}), ((0, 2),))
        assert d == want and hash(d) == hash(want)

    def test_equality_ignores_arrow_entry_order(self):
        a = SatakeDiagram.create(["A1", "A1"], arrows=[(0, 1)])
        b = SatakeDiagram.create(["A1", "A1"], arrows=[(1, 0)])
        assert a == b


CANONICAL = [
    "A1 black= arrows=",
    "A3 black=1,3 arrows=",
    "A2 black= arrows=1:2",
    "A5 black=2,3,4 arrows=1:5",
    "B4 black=3,4 arrows=",
    "C3 black=1,3 arrows=",
    "D4 black=1,3 arrows=",
    "D5 black= arrows=4:5",
    "E6 black=3,4,5 arrows=1:6",
    "F4 black=1,2,3 arrows=",
    "G2 black=1,2 arrows=",
    "A1xA1 black= arrows=1:2",
    "E6xE6 black= arrows=1:7,2:8,3:9,4:10,5:11,6:12",
]


class TestTextFormat:
    @pytest.mark.parametrize("text", CANONICAL)
    def test_round_trip(self, text):
        d = parse_diagram(text)
        assert format_diagram(d) == text
        assert parse_diagram(format_diagram(d)) == d
        assert str(d) == text

    def test_non_canonical_arrow_order_normalizes(self):
        assert format_diagram(parse_diagram("A3 black= arrows=3:1")) == "A3 black= arrows=1:3"

    def test_duplicate_black_indices_tolerated(self):
        assert parse_diagram("A3 black=1,1,3 arrows=") == parse_diagram("A3 black=1,3 arrows=")

    @pytest.mark.parametrize(
        "text,pos",
        [
            ("A2", 0),
            ("A2 black=", 0),
            ("A2  black= arrows=", 0),
            ("A2 black= arrows= extra", 0),
            ("H2 black= arrows=", 0),
            ("D2 black= arrows=", 0),
            ("A2xA3 black= arrows=", 0),
            ("A2 blak=1 arrows=", 3),
            ("A2 black=1 arrow=", 11),
            ("A2 black=x arrows=", 9),
            ("A2 black=9 arrows=", 9),
            ("A2 black=0 arrows=", 9),
            ("A2 black=1, arrows=", 11),
            ("A2 black= arrows=1", 17),
            ("A2 black= arrows=1:1", 17),
            ("A2 black= arrows=1:9", 19),
            ("A3 black= arrows=1:2,3", 21),
            ("A3 black=\u0661 arrows=", 9),
            ("A3 black=\u00b2 arrows=", 9),
            ("A3 black= arrows=1:\u0663", 19),
            ("A3 black= arrows=1:3,1:3", 21),
            ("A3 black= arrows=3:1,1:3", 21),
        ],
    )
    def test_parse_errors_carry_positions(self, text, pos):
        with pytest.raises(DiagramParseError) as exc:
            parse_diagram(text)
        assert exc.value.position == pos
        assert f"position {pos}" in str(exc.value)


class TestParseMemo:
    def test_one_instance_and_one_derivation_per_text(self, monkeypatch):
        calls = []
        stage = involution._Derivation.__dict__["_theta"]
        build = stage.func
        monkeypatch.setattr(stage, "func", lambda d: calls.append(d) or build(d))
        d = parse_diagram("E6 black=3,4,5 arrows=1:6")
        theta = dual_cartan_involution(d)
        again = parse_diagram("E6 black=3,4,5 arrows=1:6")
        assert again is d and dual_cartan_involution(again) is theta
        assert len(calls) == 1

    def test_failures_are_not_kept(self):
        seen = []
        for _ in range(2):
            with pytest.raises(DiagramParseError) as exc:
                parse_diagram("A2 black=9 arrows=")
            seen.append((str(exc.value), exc.value.position))
        assert seen[0] == seen[1] == ("node index 9 out of range 1..2 (at position 9)", 9)
        assert diagram._parse_memo.cache_info().currsize == 0

    @pytest.mark.parametrize("text", [["A2 black= arrows="], ("A2 black= arrows=",), 5])
    def test_other_types_are_refused(self, text):
        with pytest.raises((TypeError, AttributeError)):
            parse_diagram(text)
        assert diagram._parse_memo.cache_info().currsize == 0

    def test_create_bypasses_the_memo(self):
        parse_diagram("A3 black=2 arrows=1:3")
        for k in range(1000):
            SatakeDiagram.create(["A3"], black=[k % 3])
        assert diagram._parse_memo.cache_info().currsize == 1

    def test_memo_holds_the_default_catalog(self):
        texts = [rec.text for rec in catalog()]
        assert diagram._parse_memo.cache_info().maxsize >= len(texts)
        first = [parse_diagram(t) for t in texts]
        assert all(parse_diagram(t) is d for t, d in zip(texts, first))

    def test_parse_diagram_is_a_plain_function(self):
        # the benchmark's tracer wraps functions only
        assert inspect.isfunction(satake.parse_diagram)


class TestValidate:
    def test_arrow_touching_black_node_is_flagged(self):
        report = validate(parse_diagram("A2 black=1 arrows=1:2"))
        assert not report.ok
        assert any(check == "arrow touches black node" for check, _ in report.failures)
        assert "1<->2" in str(report)

    def test_node_in_two_arrows_is_flagged(self):
        d = SatakeDiagram.create(["A3"], arrows=[(0, 1), (0, 2)])
        report = validate(d)
        assert not report.ok
        assert any(check == "node in more than one arrow" for check, _ in report.failures)

    def test_bond_breaking_arrow_is_flagged(self):
        # pairing the ends of A3 while fixing nothing else is fine, but
        # pairing adjacent nodes of A3 breaks the bond pattern
        report = validate(SatakeDiagram.create(["A3"], arrows=[(0, 1)]))
        assert not report.ok

    def test_valid_examples(self):
        for text in CANONICAL:
            assert validate(parse_diagram(text)).ok, text

    def test_report_str(self):
        assert str(validate(parse_diagram("A2 black= arrows="))) == "ok"


class TestRender:
    def test_g2(self):
        assert render_diagram(parse_diagram("G2 black= arrows=")) == "○≡<≡○\n1   2"

    def test_b3_arrow_points_at_short_end(self):
        art = render_diagram(parse_diagram("B3 black= arrows="))
        assert art == "○---○=>=○\n1   2   3"

    def test_c3_arrow_points_at_short_middle(self):
        art = render_diagram(parse_diagram("C3 black= arrows="))
        assert art == "○---○=<=○\n1   2   3"

    def test_black_nodes_filled(self):
        art = render_diagram(parse_diagram("A3 black=1,3 arrows="))
        assert art == "●---○---●\n1   2   3"

    def test_d4_branch(self):
        art = render_diagram(parse_diagram("D4 black=3,4 arrows="))
        lines = art.split("\n")
        assert lines[0] == "    ● 4"
        assert lines[1] == "    |"
        assert lines[2] == "○---○---●"
        assert lines[3] == "1   2   3"

    def test_e6_branch_and_arrows(self):
        art = render_diagram(parse_diagram("E6 black=3,4,5 arrows=1:6"))
        lines = art.split("\n")
        assert lines[0] == "        ○ 2"
        assert lines[1] == "        |"
        assert lines[2] == "○---●---●---●---○"
        assert lines[3] == "1   3   4   5   6"
        assert lines[4] == "arrows: 1<->6"

    def test_doubled_stanzas(self):
        art = render_diagram(parse_diagram("A2xA2 black= arrows=1:3,2:4"))
        assert art.split("\n") == [
            "○---○",
            "1   2",
            "",
            "○---○",
            "3   4",
            "arrows: 1<->3, 2<->4",
        ]

    def test_wide_labels_do_not_collide(self):
        art = render_diagram(parse_diagram("A8 black= arrows="))
        label_line = art.split("\n")[1]
        assert label_line.split() == [str(i) for i in range(1, 9)]
