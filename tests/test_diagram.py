"""Diagram model, canonical text format, validation, rendering."""

from __future__ import annotations

import inspect
import itertools
import re
from collections.abc import Iterator

import pytest
from conftest import diagram_automorphisms, matchings, node_map_report, positive_roots_by_orbit

import satake
from satake import diagram, involution
from satake.realforms import catalog
from satake.diagram import (
    SatakeDiagram,
    ValidationReport,
    format_diagram,
    parse_diagram,
    render_diagram,
    validate,
)
from satake.errors import DiagramDataError, DiagramParseError
from satake.involution import (
    base_coordinates,
    black_corrections,
    dual_cartan_involution,
    restricted_roots,
    satake_automorphism,
)
from satake.rootsys import SimpleType, _rank_ok, build_root_system


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

    @pytest.mark.parametrize(
        "black, arrows, failure",
        [
            # every arrow is checked to be a pair before any index's type
            ([0.5], [(0, 1, 2)], ("arrow is not a pair of nodes", "(0, 1, 2)")),
            # every index's type before any range, black nodes first
            ([0.5], [(0, 9)], ("node index is not an integer", "0.5")),
            ([9], [(0, "2")], ("node index is not an integer", "'2'")),
            ([0.5], [(0, "2")], ("node index is not an integer", "0.5")),
            ([], [(0, 1), ("1", 0.5)], ("node index is not an integer", "'1'")),
            ([], [(0, 1), (1, 0.5)], ("node index is not an integer", "0.5")),
            # the least black node out of range, before any arrow
            ([-1, 9], [], ("black node out of range", "node 0")),
            ([-1], [(0, 1)], ("black node out of range", "node 0")),
            ([5, 7, 1], [(1, 1)], ("black node out of range", "node 6")),
            ([3], [(0, 9)], ("black node out of range", "node 4")),
            # then the arrows in order, range before self-arrow within one
            ([], [(9, 9)], ("arrow endpoint out of range", "10<->10")),
            ([], [(-1, -1)], ("arrow endpoint out of range", "0<->0")),
            ([], [(1, 1), (0, 9)], ("arrow connects a node to itself", "2<->2")),
            ([], [(0, 9), (1, 1)], ("arrow endpoint out of range", "1<->10")),
            # node n is one past the last node, at either end of an arrow
            ([], [(3, 0)], ("arrow endpoint out of range", "4<->1")),
            ([], [(0, 3)], ("arrow endpoint out of range", "1<->4")),
        ],
    )
    def test_failure_precedence(self, black, arrows, failure):
        # with several faults, the constructor reports the first of its checks alone
        with pytest.raises(DiagramDataError) as exc:
            SatakeDiagram(["A3"], black, arrows)
        assert exc.value.failures == (failure,)

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
            ("A3 black=,1 arrows=", 9),
            ("A3 black=1,,2 arrows=", 11),
            ("A3 black= arrows=,1:2", 17),
            ("A3 black= arrows=1:2,", 21),
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

    @pytest.mark.parametrize("text", [5, b"A1 black= arrows=", None])
    def test_a_text_that_is_no_str_is_a_type_error(self, text):
        # refused as ``lookup`` refuses a name, before the parser reads it
        with pytest.raises(TypeError) as exc:
            parse_diagram(text)
        assert str(exc.value) == f"a diagram text is a str, got {text!r}"
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


BOND_TYPES = [[f"{f}{r}"] for f in "ABCDEFG" for r in range(1, 7) if _rank_ok(f, r)] + [
    [f"{f}{r}"] * 2 for f in "ABCDG" for r in range(1, 4) if _rank_ok(f, r)
]


def _bond_pattern_by_pairs(d: SatakeDiagram) -> tuple:
    """The bond-pattern failures by definition: every ordered pair of white
    nodes, in order, whose Cartan entry the arrow pairing changes."""
    omega, a = d.omega_map, d.rs.cartan
    return tuple(
        ("arrows break bond pattern", f"nodes {i + 1},{j + 1} map to {omega[i] + 1},{omega[j] + 1}")
        for i in d.whites
        for j in d.whites
        if a[omega[i]][omega[j]] != a[i][j]
    )


class TestValidate:
    def test_arrow_touching_black_node_is_flagged(self):
        report = validate(parse_diagram("A2 black=1 arrows=1:2"))
        assert not report.ok
        assert any(check == "arrow touches black node" for check, _ in report.failures)
        assert "1<->2" in str(report)

    def test_node_in_two_arrows_is_flagged(self):
        d = SatakeDiagram.create(["A3"], arrows=[(0, 1), (0, 2)])
        report = validate(d)
        assert not report.ok and validate(d) is report
        assert report.failures == (("node in more than one arrow", "node 1"),)

    def test_bond_breaking_arrow_is_flagged(self):
        # pairing the ends of A3 while fixing nothing else is fine, but
        # pairing adjacent nodes of A3 breaks the bond pattern
        report = validate(SatakeDiagram.create(["A3"], arrows=[(0, 1)]))
        assert not report.ok

    def test_bond_pattern_failures_pinned(self):
        # the two white bonds at node 3 and their images under 1:2
        report = validate(parse_diagram("A4 black= arrows=1:2"))
        assert str(report) == (
            "arrows break bond pattern: nodes 1,3 map to 2,3; "
            "arrows break bond pattern: nodes 2,3 map to 1,3; "
            "arrows break bond pattern: nodes 3,1 map to 3,2; "
            "arrows break bond pattern: nodes 3,2 map to 3,1"
        )

    @pytest.mark.parametrize("types", BOND_TYPES, ids="x".join)
    def test_bond_pattern_failures_match_every_white_pair(self, types):
        # the check reads white bonds and their images only; over every
        # black set and every pairing of the whites it reports, in order,
        # what the definition's scan of all white pairs does
        n = build_root_system(types).n
        broken = 0
        for black in itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(n + 1)
        ):
            for arrows in matchings([i for i in range(n) if i not in black]):
                d = SatakeDiagram.create(types, black, arrows)
                want, fails = _bond_pattern_by_pairs(d), validate(d).failures
                if want:
                    broken += 1
                    assert fails == want, d
                else:
                    assert all(check != "arrows break bond pattern" for check, _ in fails), d
        assert broken or n <= 2  # every pairing of A2 or A1xA1 keeps its bonds

    def test_valid_examples(self):
        for text in CANONICAL:
            report = validate(parse_diagram(text))
            # the parsed diagram's one report, not a new one per call
            assert report.ok and validate(parse_diagram(text)) is report, text

    def test_accepted_diagrams_share_one_report(self):
        texts = ("A2 black= arrows=", "E8 black=2,3,4,5 arrows=", "A3xA3 black= arrows=1:4,2:5,3:6")
        reports = {id(validate(_fresh(text))) for text in texts}
        assert reports == {id(involution._OK)} and involution._OK == ValidationReport(True, ())

    def test_each_rejected_diagram_keeps_its_own_report(self):
        for text in ("A4 black=1,2 arrows=", "A2 black=1 arrows=", "A3 black= arrows=1:2"):
            d, twin = (_fresh(text) for _ in range(2))
            assert not validate(d).ok and validate(d) is validate(d), text
            assert validate(twin) == validate(d) and validate(twin) is not validate(d), text

    def test_report_str(self):
        assert str(validate(parse_diagram("A2 black= arrows="))) == "ok"


def _fresh(text: str) -> SatakeDiagram:
    """The diagram of ``text`` built afresh, outside the parse memo."""
    d = parse_diagram(text)
    return SatakeDiagram(d.types, d.black, d.arrows)


def _census(types) -> Iterator[SatakeDiagram]:
    """Every black set with every involutive diagram automorphism omega,
    arrows on the 2-cycles of omega whose ends are both white; drawn one
    at a time, as rank 16 has 131,072 of them for one type."""
    rs = build_root_system(types)
    n = rs.n
    for g in diagram_automorphisms(rs.cartan):
        if any(g[g[i]] != i for i in range(n)):
            continue
        for black in itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(n + 1)
        ):
            arrows = [(i, g[i]) for i in range(n) if i < g[i] and not {i, g[i]} & set(black)]
            yield SatakeDiagram.create(types, black, arrows)


def _coroot_pairings(rs) -> list[tuple[frozenset, tuple[int, ...]]]:
    """Per positive root r, found by reflection closure, its support and
    ``<alpha_j, r^vee> = 2 B(alpha_j, r) / B(r, r)`` for every node j."""
    out = []
    for r in positive_roots_by_orbit(rs):
        den = rs.bilinear(r, r)
        nums = [2 * rs.bilinear(rs.simple_root(j), r) for j in range(rs.n)]
        assert all(x % den == 0 for x in nums)
        out.append((frozenset(k for k, x in enumerate(r) if x), tuple(x // den for x in nums)))
    return out


def _araki_by_roots(d: SatakeDiagram, coroots) -> bool:
    """Araki's rule from its definition: for every white node j that the
    arrows fix, the sum of ``<alpha_j, r^vee>`` over the positive roots r
    of the black subsystem, 2 <alpha_j, rho_X^vee>, is even."""
    pairings = [p for support, p in coroots if support <= d.black]
    return all(
        sum(p[j] for p in pairings) % 2 == 0 for j, image in d.omega_map.items() if image == j
    )


def _catalog_closure(bound: int) -> set[SatakeDiagram]:
    """The single-type catalog diagrams of rank at most ``bound`` and their
    images under every diagram automorphism."""
    autos: dict = {}
    closure = set()
    for d in (rec.diagram for rec in catalog(bound) if not rec.diagram.is_doubled):
        if d.types not in autos:
            autos[d.types] = diagram_automorphisms(d.rs.cartan)
        closure.update(_image(d, g) for g in autos[d.types])
    return closure


def _image(d: SatakeDiagram, g: tuple[int, ...]) -> SatakeDiagram:
    """The diagram ``d`` with each node i renamed g(i)."""
    return SatakeDiagram.create(d.types, [g[i] for i in d.black], [(g[i], g[j]) for i, j in d.arrows])


def _validated(types) -> tuple[int, set[SatakeDiagram], list[str]]:
    """Every painted diagram of ``types`` (``_census``): how many there are,
    those ``validate`` accepts, and those where the node map passes and
    ``validate`` disagrees with Araki's rule from the roots (``_araki_by_roots``)."""
    coroots = _coroot_pairings(build_root_system(types))
    count, accepted, bad = 0, set(), []
    for d in _census(types):
        count += 1
        ok = validate(d).ok
        if node_map_report(d).ok and ok != _araki_by_roots(d, coroots):
            bad.append(f"{format_diagram(d)}: validate {ok}, Araki's rule from the roots {not ok}")
        if ok:
            accepted.add(d)
    return count, accepted, bad


def painted_census(bound: int) -> tuple[dict[str, int], list[str]]:
    """Every painted diagram of each simple type of rank at most ``bound``.
    Returns how many there are and how many ``validate`` accepts, and
    those on which it disagrees with Araki's rule from the roots or with
    membership in the catalog closed under diagram automorphisms."""
    count, accepted, bad = 0, set(), []
    for t in (SimpleType(f, r) for f in "ABCDEFG" for r in range(1, bound + 1) if _rank_ok(f, r)):
        n, ok, wrong = _validated([t])
        count, bad = count + n, bad + wrong
        accepted |= ok
    closure = _catalog_closure(bound)
    bad += [f"{format_diagram(d)}: accepted, not in the closure" for d in accepted - closure]
    bad += [f"{format_diagram(d)}: in the closure, not accepted" for d in closure - accepted]
    return {"candidates": count, "accepted": len(accepted)}, sorted(bad)


def relabel_mismatches(bound: int) -> tuple[dict[str, int], list[str]]:
    """Each painted diagram (``_census``) of every simple type of rank at
    most ``bound`` and every TxT of total rank at most ``bound`` whose node
    map passes, against its image under each non-trivial diagram
    automorphism g, which a Satake diagram must follow (Araki 1962).
    Returns how many diagrams and images there are, and each image that
    differs where ``_relabelled`` looks."""
    simple = [SimpleType(f, r) for f in "ABCDEFG" for r in range(1, bound + 1) if _rank_ok(f, r)]
    count, images, bad = 0, 0, []
    for types in [[t] for t in simple] + [[t, t] for t in simple if 2 * t.rank <= bound]:
        autos = [g for g in diagram_automorphisms(build_root_system(types).cartan) if g != tuple(range(len(g)))]
        for d in filter(lambda d: node_map_report(d).ok, _census(types)):
            count, images = count + 1, images + len(autos)
            for g in autos:
                if unlike := _relabelled(d, _image(d, g), g):
                    bad.append(f"{format_diagram(d)} under {g}: {', '.join(unlike)}")
    return {"diagrams": count, "images": images}, bad


def _relabelled(d: SatakeDiagram, e: SatakeDiagram, g: tuple[int, ...]) -> list[str]:
    """What of ``d`` its image ``e`` under the node permutation ``g`` does
    not carry over: the node map, the verdict and epsilon, conjugated by g;
    if ``d`` is accepted, theta, conjugated by g, the corrections,
    multiplicities and base, permuted by g, each positive restricted root's
    base coordinates, permuted as the base is, and the restricted type."""
    if not node_map_report(e).ok:
        return ["node map"]
    accepted = validate(d).ok
    unlike = [] if validate(e).ok == accepted else ["verdict"]
    eps, eps_e = satake_automorphism(d), satake_automorphism(e)
    if any(eps_e[g[i]] != g[eps[i]] for i in range(d.n)):
        unlike.append("epsilon")
    if unlike or not accepted:
        return unlike
    theta, theta_e = dual_cartan_involution(d), dual_cartan_involution(e)
    if any(theta_e[g[k]][g[j]] != theta[k][j] for k in range(d.n) for j in range(d.n)):
        unlike.append("theta")
    corrections = {g[i]: {g[b]: c for b, c in row.items()} for i, row in black_corrections(d).items()}
    if corrections != black_corrections(e):
        unlike.append("corrections")
    back = sorted(range(d.n), key=g.__getitem__)

    def move(v):  # the coefficient at node k goes to node g(k)
        return tuple(v[k] for k in back)

    rr, rr_e = restricted_roots(d), restricted_roots(e)
    if {move(v): m for v, m in rr.multiplicity.items()} != rr_e.multiplicity:
        unlike.append("multiplicities")
    base = [move(b) for b in rr.base]
    if sorted(base) != sorted(rr_e.base):
        unlike.append("base")
    else:
        place = [rr_e.base.index(b) for b in base]
        for v in rr.positive:
            coords, coords_e = base_coordinates(rr.base, v), base_coordinates(rr_e.base, move(v))
            if [coords_e[k] for k in place] != list(coords):
                unlike.append(f"base coordinates of {v}")
                break
    if rr.label != rr_e.label:
        unlike.append(f"restricted type {rr.label}, not {rr_e.label}")
    return unlike


def doubled_census(bound: int) -> tuple[dict[str, int], list[str]]:
    """Every painted diagram of TxT for each simple type T of rank at most
    ``bound``.  A real form of TxT is a pair of real forms of T, k * k
    diagrams with k those T accepts, or the complex algebra as real, whose
    arrows pair node i with node n + g(i), one diagram for each of the s
    automorphisms g of T; so ``validate`` accepts k * k + s.  Returns how
    many diagrams of TxT there are and how many ``validate`` accepts, and
    each T where that is not k * k + s or where T or TxT disagrees with
    Araki's rule from the roots, and each accepted diagram of TxT whose
    restricted type is not ``_doubled_label``."""
    count, accepted, bad = 0, 0, []
    for t in (SimpleType(f, r) for f in "ABCDEFG" for r in range(1, bound + 1) if _rank_ok(f, r)):
        n, doubled, wrong = _doubled(t)
        count, accepted, bad = count + n, accepted + doubled, bad + wrong
    return {"candidates": count, "accepted": accepted}, bad


def _doubled(t: SimpleType) -> tuple[int, int, list[str]]:
    """How many painted diagrams TxT has, how many ``validate`` accepts,
    and what is wrong: T or TxT against Araki's rule, the count against
    k * k + s, or an accepted diagram's restricted type."""
    _, simple, simple_bad = _validated([t])
    n, doubled, doubled_bad = _validated([t, t])
    s = len(diagram_automorphisms(build_root_system([t]).cartan))
    bad = simple_bad + doubled_bad
    if len(doubled) != len(simple) ** 2 + s:
        bad.append(f"{t}x{t}: {len(doubled)} accepted, not {len(simple)}^2 + {s}")
    for d in sorted(doubled, key=format_diagram):
        label, want = restricted_roots(d).label, _doubled_label(d)
        if label != want:
            bad.append(f"{format_diagram(d)}: restricted type {label}, not {want}")
    return n, len(doubled), bad


def _doubled_label(d: SatakeDiagram) -> str | None:
    """The restricted type a real form of TxT has: that of ``T black=
    arrows=`` for the complex algebra, whose arrows join the components,
    else the sorted ``+``-join of its two factors' types, compact factors left out."""
    t, r = d.types[:1], d.types[0].rank
    if any(i < r <= j for i, j in d.arrows):
        return restricted_roots(SatakeDiagram.create(t)).label
    labels = []
    for lo in (0, r):
        black = [i - lo for i in d.black if lo <= i < lo + r]
        arrows = [(i - lo, j - lo) for i, j in d.arrows if lo <= i < lo + r]
        labels.append(restricted_roots(SatakeDiagram.create(t, black, arrows)).label)
    return "+".join(sorted(filter(None, labels))) or None


def one_edit_census(bound: int) -> tuple[dict[str, int], list[str]]:
    """Every one-edit neighbour of each single-type catalog diagram of rank
    at most ``bound``: one node's colour toggled, dropping any arrow at it,
    one arrow dropped, or one arrow added between two free white nodes.
    Returns how many distinct neighbours there are, how many ``validate``
    accepts, and those on which it disagrees with membership in the
    catalog closed under diagram automorphisms.
    """
    closure, edits = _catalog_closure(bound), set()
    for d in (rec.diagram for rec in catalog(bound) if not rec.diagram.is_doubled):
        black, arrows = d.black, d.arrows
        free = [i for i in d.whites if all(i not in pair for pair in arrows)]
        edits.update(
            (d.types, black ^ {i}, tuple(pair for pair in arrows if i not in pair))
            for i in range(d.n)
        )
        edits.update((d.types, black, arrows[:k] + arrows[k + 1 :]) for k in range(len(arrows)))
        edits.update((d.types, black, (*arrows, pair)) for pair in itertools.combinations(free, 2))
    accepted, mismatches = 0, []
    for types, black, arrows in edits:
        e = SatakeDiagram.create(types, black, arrows)
        report = validate(e)
        accepted += report.ok
        if report.ok != (e in closure):
            mismatches.append(f"{format_diagram(e)}: in closure {e in closure}, validate: {report}")
    return {"neighbours": len(edits), "accepted": accepted}, sorted(mismatches)


class TestAraki:
    """``validate`` accepts exactly the Satake diagrams of real forms."""

    SIMPLE = [SimpleType(f, r) for f in "ABCDEFG" for r in range(1, 9) if _rank_ok(f, r)]

    def test_census_accepts_the_catalog_up_to_automorphisms(self):
        # the census to rank 8; its row in test_oracles runs it further
        assert painted_census(8) == ({"candidates": 3606, "accepted": 179}, [])

    @pytest.mark.parametrize("t", [t for t in SIMPLE if t.rank <= 4], ids=str)
    def test_doubled_types(self, t):
        # each T alone; the doubled row in test_oracles sums them
        assert _doubled(t)[2] == []

    def test_pinned_examples(self):
        report = validate(parse_diagram("A2 black=1 arrows="))
        assert report.failures == (
            ("not admissible", "white node 2: <alpha_2, rho_X^vee> = -1/2"),
        )
        assert validate(parse_diagram("A3xA3 black= arrows=")).ok
        assert [rec.name for rec in catalog(16) if not validate(rec.diagram).ok] == []

    def test_araki_value_is_minus_the_black_correction_sum(self):
        # at a white j that epsilon fixes, theta(alpha_j) = -w0_X(alpha_j)
        # = -alpha_j - sum_b c_jb alpha_b; w0_X negates rho_X^vee, which
        # pairs to 1 with every black simple root, so <alpha_j, 2 rho_X^vee>
        # = -sum_b c_jb: the coroot closure's value against the Weyl word's
        checked = 0
        for d in (d for t in self.SIMPLE for d in _census([t])):
            fails = validate(d).failures
            if any(check != "not admissible" for check, _ in fails):
                continue
            reported = {}
            for _, detail in fails:
                m = re.fullmatch(r"white node (\d+): <alpha_\1, rho_X\^vee> = (-?\d+)/2", detail)
                reported[int(m[1]) - 1] = int(m[2])
            eps = satake_automorphism(d)
            for j, row in black_corrections(d).items():
                if eps[j] != j:
                    continue
                total = sum(row.values())
                assert (j in reported) == (total % 2 == 1), format_diagram(d)
                assert reported.get(j, -total) == -total, format_diagram(d)
                checked += 1
        assert checked == 4561

    def test_node_map_failures_come_alone(self):
        # the black A1 on node 5 fails Araki's rule at nodes 4 and 6, but
        # the black A2's flip breaks the node map, which is reported alone
        report = validate(parse_diagram("A6 black=1,2,5 arrows="))
        assert [check for check, _ in report.failures] == ["node map breaks the Cartan matrix"]
        # every failing node is listed
        report = validate(parse_diagram("A5 black=2,4 arrows="))
        assert [detail.split(":")[0] for _, detail in report.failures] == [
            "white node 1", "white node 5"
        ]


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
