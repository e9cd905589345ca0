"""Root systems: construction, reflections, longest elements, identification."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    components_by_matrix_scan,
    diagram_automorphisms,
    enumerate_weyl,
    is_root,
    positive_roots_by_orbit,
    positive_roots_by_strings,
    reflect_simple,
)
from satake import rootsys
from satake.diagram import SatakeDiagram
from satake.errors import DiagramDataError
from satake.rootsys import (
    SimpleType,
    _root_closure,
    apply_word,
    build_root_system,
    identify_cartan,
    identity_matrix,
    induced_node_permutation,
    longest_element,
    mat_mul,
    word_matrix,
)

ALL_SIMPLE = (
    [f"A{r}" for r in range(1, 9)]
    + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(2, 9)]
    + [f"D{r}" for r in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

SMALL_SYSTEMS = ["A1", "A2", "A3", "B2", "B3", "C3", "D3", "D4", "F4", "G2"]

STRING_ORACLE_TYPES = [
    f"{f}{r}" for f in "ABCD" for r in range(1, 13) if rootsys._rank_ok(f, r)
] + ["E6", "E7", "E8", "F4", "G2"]


def _sys(spec):
    return build_root_system([spec] if isinstance(spec, str) else spec)


class TestConstruction:
    def test_rank_cap(self, monkeypatch):
        # rejected before any root is generated
        monkeypatch.setattr(rootsys, "_root_closure", None)
        with pytest.raises(ValueError, match="cap"):
            SimpleType("A", rootsys.MAX_RANK + 1)
        with pytest.raises(ValueError, match="cap"):
            build_root_system([f"B{rootsys.MAX_RANK + 1}"])

    def test_b2_cartan_convention(self):
        rs = _sys("B2")
        assert rs.cartan[0][1] == -1
        assert rs.cartan[1][0] == -2
        # the convention pins which reflection picks up the factor of two
        assert reflect_simple(rs, 1, (1, 0)) == (1, 2)
        assert reflect_simple(rs, 0, (0, 1)) == (1, 1)

    def test_g2_cartan(self):
        rs = _sys("G2")
        assert rs.cartan == ((2, -3), (-1, 2))
        assert rs.symmetrizer == (1, 3)

    def test_f4_cartan(self):
        rs = _sys("F4")
        assert rs.cartan[1][2] == -1
        assert rs.cartan[2][1] == -2
        assert rs.symmetrizer == (2, 2, 1, 1)

    @pytest.mark.parametrize("name", ALL_SIMPLE)
    def test_symmetrized_form_positive_definite(self, name):
        rs = _sys(name)
        n = rs.n
        s = [[Fraction(rs.symmetrizer[i] * rs.cartan[i][j]) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                assert s[i][j] == s[j][i]
        # leading principal minors via fraction-free elimination
        m = [row[:] for row in s]
        for k in range(n):
            assert m[k][k] > 0
            for i in range(k + 1, n):
                f = m[i][k] / m[k][k]
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]

    @pytest.mark.parametrize(
        "bad", ["A0", "B1", "C1", "D2", "E5", "E9", "F3", "F5", "G3", "H2", "AX"]
    )
    def test_invalid_simple_types(self, bad):
        with pytest.raises(ValueError):
            SimpleType.parse(bad)

    def test_d2_hint_mentions_doubled_a1(self):
        with pytest.raises(ValueError, match="doubled A1"):
            SimpleType("D", 2)

    def test_component_rules(self):
        with pytest.raises(ValueError):
            build_root_system([])
        with pytest.raises(ValueError):
            build_root_system(["A2", "A3"])
        with pytest.raises(ValueError):
            build_root_system(["A2", "A2", "A2"])
        for bad in ([None], [5]):
            with pytest.raises(ValueError, match="not a simple type"):
                build_root_system(bad)
        rs = build_root_system(["B2", "B2"])
        assert rs.n == 4
        assert rs.cartan[0][2] == 0

    def test_build_accepts_simpletype_values(self):
        assert build_root_system([SimpleType("A", 2)]) is build_root_system(["A2"])

    def test_one_system_by_names_list_or_types(self):
        # a tuple of names is looked up as it stands; "A03" spells A3 too
        rs = build_root_system(("A3",))
        for types in (["A3"], (SimpleType("A", 3),), ("A03",), [SimpleType("A", 3)]):
            assert build_root_system(types) is rs, types
        assert build_root_system(("A3", "A3")) is build_root_system([SimpleType("A", 3)] * 2)
        doubled = build_root_system(("A3", "A3"))
        for types in (["A3", "A03"], ("A003", SimpleType("A", 3)), [SimpleType("A", 3), "A3"]):
            assert build_root_system(types) is doubled, types
        # the store keeps one entry per type: an alias is read, never stored
        size = len(rootsys._systems)
        for k in range(1, 1001):
            assert build_root_system(("A" + "0" * k + "3",)) is rs
        assert len(rootsys._systems) == size

    @pytest.mark.parametrize("text", ["A3", "A3xA3", ""])
    def test_a_bare_string_is_not_a_sequence_of_types(self, text):
        # not read as the names "A" and "3"; worded as the diagram constructor words it
        with pytest.raises(ValueError) as exc:
            build_root_system(text)
        assert str(exc.value) == f"component types are not a sequence: {text!r}"
        with pytest.raises(DiagramDataError) as exc:
            SatakeDiagram(text, (), ())
        assert exc.value.failures == (("component types are not a sequence", repr(text)),)

    @pytest.mark.parametrize(
        "bad,text",
        [
            (("Q3",), "not a simple type: 'Q3'"),
            (("A0",), "invalid simple type A0"),
            (("D2",), "invalid simple type D2 (use a doubled A1)"),
            (("A3", "B3"), "a doubled system needs two equal types, got A3 and B3"),
            (("A2", "A2", "A2"), "at most two components are supported"),
            ((), "at least one simple type is required"),
            # the hint is for D2 alone, not for another rank of D or rank 2 of another family
            (("D1",), "invalid simple type D1"),
            (("E2",), "invalid simple type E2"),
        ],
    )
    def test_bad_names_raise_on_every_call(self, bad, text):
        # failures are not kept, so each call raises with the same text
        for _ in range(3):
            with pytest.raises(ValueError) as exc:
                build_root_system(bad)
            assert str(exc.value) == text
            with pytest.raises(DiagramDataError) as exc:
                SatakeDiagram(bad, (), ())
            assert exc.value.failures == (("component types", text),)

    @pytest.mark.parametrize("family", ["AB", "DE", "", "H"])
    def test_family_is_one_of_seven_letters(self, family):
        # a substring of "ABCDEFG" is not a family, so no A2 under another name
        with pytest.raises(ValueError, match="unknown family"):
            SimpleType(family, 2)

    @pytest.mark.parametrize("rank", [2.5, True])
    def test_rank_is_an_int(self, rank):
        with pytest.raises(TypeError, match="a rank is an int"):
            SimpleType("A", rank)

    def test_float_rank_fails_whatever_was_built(self):
        # the root systems are memoised on equal values, and 3.0 == 3
        for _ in range(2):
            with pytest.raises(TypeError):
                build_root_system([SimpleType("A", 3.0)])
            assert build_root_system(["A3"]).n == 3

    @pytest.mark.parametrize("i", [-1, 3])
    def test_node_index_checked(self, i):
        rs = _sys("A3")
        text = f"node index {i} out of range for a rank-3 system"
        with pytest.raises(IndexError, match=text):
            rs.simple_root(i)
        with pytest.raises(IndexError, match=text):
            rs.pairing((1, 0, 0), i)


COUNTS = {
    **{f"A{r}": r * (r + 1) // 2 for r in range(1, 9)},
    **{f"B{r}": r * r for r in range(2, 9)},
    **{f"C{r}": r * r for r in range(2, 9)},
    **{f"D{r}": r * (r - 1) for r in range(3, 9)},
    "E6": 36,
    "E7": 63,
    "E8": 120,
    "F4": 24,
    "G2": 6,
}


def _predecessor_mismatches(types) -> list[str]:
    """The predecessor table of the system of ``types`` against its roots:
    one entry per positive root, each simple root marked -1 at its own
    node, and every other root an earlier root plus the simple root at
    its node."""
    rs = build_root_system(types)
    preds, nodes = rs._predecessors
    name = "x".join(types)
    if not len(preds) == len(nodes) == len(rs.positive_roots):
        return [f"{name}: {len(preds)} predecessors, {len(nodes)} nodes, {len(rs.positive_roots)} roots"]
    bad = []
    for k, (r, p, i) in enumerate(zip(rs.positive_roots, preds, nodes)):
        if not 0 <= i < rs.n:
            ok = False
        elif p == -1:
            ok = r == rs.simple_root(i)
        else:
            ok = 0 <= p < k and tuple(a + b for a, b in zip(rs.positive_roots[p], rs.simple_root(i))) == r
        if not ok:
            bad.append(f"{name}: root {k} {r} has predecessor {p} at node {i}")
    return bad


def _closure_by_components(types) -> tuple:
    """``_root_closure``'s output for the system of ``types`` built from its
    type T's alone: each root of T padded with zeros into each component's
    place, merged by height then lexicographically, each predecessor padded
    into the same place and found by its root, and each node shifted by the
    component's first index.  One component is T's closure as it stands."""
    t = SimpleType.parse(types[0])
    roots, preds, nodes = _root_closure(tuple(map(tuple, rootsys._cartan_block(t))))
    r, k = t.rank, len(types)
    placed = {}  # padded root -> (padded predecessor or None, node)
    for c in range(k):
        before, after = (0,) * (c * r), (0,) * ((k - 1 - c) * r)
        for v, p, i in zip(roots, preds, nodes):
            placed[before + v + after] = (None if p < 0 else before + roots[p] + after, i + c * r)
    merged = sorted(placed, key=lambda v: (sum(v), v))
    index = {v: k for k, v in enumerate(merged)}
    return (
        tuple(merged),
        tuple(-1 if placed[v][0] is None else index[placed[v][0]] for v in merged),
        tuple(placed[v][1] for v in merged),
    )


def predecessor_mismatches(bound: int) -> tuple[dict[str, int], list[str]]:
    """``_predecessor_mismatches`` of every simple and doubled type of rank at
    most ``bound`` per component, with how many systems and roots there are."""
    names = [f"{f}{n}" for f in rootsys._FAMILIES for n in range(1, bound + 1) if rootsys._rank_ok(f, n)]
    systems = [types for t in names for types in ([t], [t, t])]
    roots = sum(len(build_root_system(types).positive_roots) for types in systems)
    bad = [m for types in systems for m in _predecessor_mismatches(types)]
    return {"systems": len(systems), "roots": roots}, bad


class TestPositiveRoots:
    @pytest.mark.parametrize("name", sorted(COUNTS))
    def test_counts(self, name):
        assert len(_sys(name).positive_roots) == COUNTS[name]

    def test_a2_has_three_positive_roots(self):
        assert _sys("A2").positive_roots == ((0, 1), (1, 0), (1, 1))

    def test_g2_highest_root(self):
        rs = _sys("G2")
        assert len(rs.positive_roots) == 6
        assert max(rs.positive_roots, key=sum) == (3, 2)

    @pytest.mark.parametrize("name", SMALL_SYSTEMS + ["A4", "B4", "C4"])
    def test_matches_reflection_orbit_oracle(self, name):
        rs = _sys(name)
        assert set(rs.positive_roots) == positive_roots_by_orbit(rs)

    def test_doubled_system_concatenates(self):
        rs = build_root_system(["A2", "A2"])
        assert len(rs.positive_roots) == 6
        assert set(rs.positive_roots) == positive_roots_by_orbit(rs)

    @pytest.mark.parametrize(
        "types", [[t] for t in ALL_SIMPLE] + [[t, t] for t in ALL_SIMPLE], ids="x".join
    )
    def test_matches_closure_on_full_cartan(self, types):
        # Every system closes its whole Cartan matrix; T's closure padded
        # into each component's place and merged by height then lex must give
        # the same tuple, order included, and the same predecessor table.
        rs = build_root_system(types)
        assert (rs.positive_roots, *rs._predecessors) == _closure_by_components(types)

    @pytest.mark.parametrize("name", STRING_ORACLE_TYPES)
    @pytest.mark.parametrize("transposed", [False, True], ids=["cartan", "transpose"])
    def test_closure_matches_string_walk(self, name, transposed):
        # the closure carries each root's pairings instead of walking its
        # strings down; the transpose is what Araki's rule closes
        cartan = tuple(map(tuple, rootsys._cartan_block(SimpleType.parse(name))))
        if transposed:
            cartan = tuple(zip(*cartan))
        assert _root_closure(cartan)[0] == positive_roots_by_strings(cartan)

    @pytest.mark.parametrize(
        "types", [[t] for t in ALL_SIMPLE] + [[t, t] for t in ALL_SIMPLE], ids="x".join
    )
    def test_predecessor_table(self, types):
        assert _predecessor_mismatches(types) == []

    def test_is_root(self):
        rs = _sys("A2")
        assert is_root(rs, (1, 1))
        assert is_root(rs, (-1, -1))
        assert not is_root(rs, (2, 1))
        assert not is_root(rs, (0, 0))


class TestLongestElement:
    def test_a2_full_word(self):
        rs = _sys("A2")
        word = longest_element(rs, [0, 1])
        assert word == (0, 1, 0)
        assert apply_word(rs, word, (1, 0)) == (0, -1)

    def test_a3_parabolic_word(self):
        rs = _sys("A3")
        assert longest_element(rs, [0, 2]) == (0, 2)

    def test_b2_full(self):
        rs = _sys("B2")
        word = longest_element(rs, [0, 1])
        assert len(word) == 4
        assert word_matrix(rs, word) == ((-1, 0), (0, -1))

    def test_empty_subset(self):
        rs = _sys("B3")
        assert longest_element(rs, []) == ()

    @pytest.mark.parametrize("name", SMALL_SYSTEMS)
    def test_involution_and_negation(self, name):
        rs = _sys(name)
        m = word_matrix(rs, longest_element(rs, range(rs.n)))
        assert mat_mul(m, m) == identity_matrix(rs.n)
        images = {
            tuple(sum(m[i][j] * r[j] for j in range(rs.n)) for i in range(rs.n))
            for r in rs.positive_roots
        }
        assert images == {tuple(-x for x in r) for r in rs.positive_roots}

    def test_word_length_equals_parabolic_root_count(self):
        rs = _sys("D4")
        for subset in [(0,), (0, 1), (1, 2, 3), (0, 1, 2, 3)]:
            word = longest_element(rs, subset)
            supported = [
                r
                for r in rs.positive_roots
                if all(k in subset or r[k] == 0 for k in range(rs.n))
            ]
            assert len(word) == len(supported)

    def test_a2_negation_swaps_nodes(self):
        assert induced_node_permutation(_sys("A2"), [0, 1]) == {0: 1, 1: 0}

    def test_b2_negation_fixes_nodes(self):
        assert induced_node_permutation(_sys("B2"), [0, 1]) == {0: 0, 1: 1}

    def test_isolated_nodes_negate_themselves(self):
        assert induced_node_permutation(_sys("A3"), [0, 2]) == {0: 0, 2: 2}

    @pytest.mark.parametrize(
        "name,nodes,broken",
        [("A2", [0, 1], lambda word: ()), ("D5", range(5), lambda word: word[:-1])],
        ids=["no-word", "word-short-by-one"],
    )
    def test_a_word_other_than_w0_is_refused(self, monkeypatch, name, nodes, broken):
        found = rootsys.longest_element
        monkeypatch.setattr(rootsys, "longest_element", lambda rs, subset: broken(found(rs, subset)))
        with pytest.raises(RuntimeError, match="longest-element computation is broken"):
            induced_node_permutation(_sys(name), nodes)

    @pytest.mark.parametrize("name", ALL_SIMPLE)
    def test_negation_triviality_table(self, name):
        # the classical table: -w0 flips the diagram exactly for A_n
        # (n >= 2), D_n (n odd) and E6
        t = SimpleType.parse(name)
        expected = (
            (t.family == "A" and t.rank >= 2)
            or (t.family == "D" and t.rank % 2 == 1)
            or name == "E6"
        )
        rs = _sys(name)
        perm = induced_node_permutation(rs, range(rs.n))
        assert any(perm[i] != i for i in range(rs.n)) == expected


class TestWeylEnumeration:
    @pytest.mark.parametrize("name,order", [("A2", 6), ("B2", 8), ("G2", 12)])
    def test_small_orders(self, name, order):
        assert len(enumerate_weyl(_sys(name))) == order

    def test_stored_words_rebuild_matrices(self):
        rs = _sys("B2")
        for matrix, word in enumerate_weyl(rs).items():
            assert word_matrix(rs, word) == matrix


class TestDiagramAutomorphism:
    def test_a2_flip(self):
        assert rootsys._keeps_bonds(_sys("A2"), [1, 0])

    def test_b2_swap_rejected(self):
        rs = _sys("B2")
        assert rs.cartan[0][1] != rs.cartan[1][0]
        assert not rootsys._keeps_bonds(rs, [1, 0])

    @pytest.mark.parametrize(
        "types,perm",
        [
            (["D4"], [2, 1, 3, 0]),  # triality: nodes 1 -> 3 -> 4 -> 1
            (["D4"], [0, 1, 3, 2]),
            (["A3", "A3"], [3, 4, 5, 0, 1, 2]),  # the doubled swap
            (["B2", "B2"], [2, 3, 0, 1]),
            (["A3", "A3"], [5, 4, 3, 2, 1, 0]),  # swap after the flip
        ],
    )
    def test_named_automorphisms(self, types, perm):
        rs = _sys(types)
        assert rootsys._keeps_bonds(rs, perm)
        assert perm in map(list, diagram_automorphisms(rs.cartan))


AUTOMORPHISM_TYPES = [[t] for t in ALL_SIMPLE] + [
    [t, t] for t in ALL_SIMPLE if SimpleType.parse(t).rank <= 4
]


@st.composite
def system_and_permutation(draw):
    """A simple or doubled system of rank at most 8 and a node permutation:
    one of its automorphisms, such a one with two images swapped, or any."""
    rs = _sys(draw(st.sampled_from(AUTOMORPHISM_TYPES)))
    kind = draw(st.sampled_from(["automorphism", "swapped", "any"]))
    if kind == "any":
        return rs, draw(st.permutations(range(rs.n)))
    perm = list(draw(st.sampled_from(diagram_automorphisms(rs.cartan))))
    if kind == "swapped" and rs.n > 1:
        i, j = draw(st.lists(st.integers(0, rs.n - 1), min_size=2, max_size=2, unique=True))
        perm[i], perm[j] = perm[j], perm[i]
    return rs, perm


def _keeps_every_entry(rs, perm) -> bool:
    """The definition: all n^2 Cartan entries kept."""
    a = rs.cartan
    return all(a[perm[i]][perm[j]] == a[i][j] for i in range(rs.n) for j in range(rs.n))


@settings(max_examples=300, deadline=None)
@given(system_and_permutation())
def test_automorphism_check_matches_the_definition(sp):
    # bonds alone decide it
    rs, perm = sp
    assert rootsys._keeps_bonds(rs, perm) == _keeps_every_entry(rs, perm)


@pytest.mark.parametrize(
    "types", [t for t in AUTOMORPHISM_TYPES if _sys(t).n <= 6], ids="x".join
)
def test_automorphism_check_on_every_permutation(types):
    rs = _sys(types)
    for perm in itertools.permutations(range(rs.n)):
        assert rootsys._keeps_bonds(rs, perm) == _keeps_every_entry(rs, perm), perm


class TestIdentifyCartan:
    @pytest.mark.parametrize("name", ALL_SIMPLE)
    def test_roundtrip_under_relabeling(self, name):
        rs = _sys(name)
        rng = random.Random(hash(name) & 0xFFFF)
        order = list(range(rs.n))
        rng.shuffle(order)
        c = rs.cartan
        relabeled = tuple(tuple(c[i][j] for j in order) for i in order)
        got = identify_cartan(relabeled)
        want = SimpleType.parse(name)
        if want in (SimpleType("C", 2), SimpleType("D", 3)):
            want = {"C": SimpleType("B", 2), "D": SimpleType("A", 3)}[want.family]
        assert got == want

    def test_rejects_non_cartan(self):
        affine_d5 = [[2 if i == j else 0 for j in range(6)] for i in range(6)]
        for u, v in ((0, 2), (1, 2), (2, 3), (3, 4), (3, 5)):
            affine_d5[u][v] = affine_d5[v][u] = -1
        with pytest.raises(ValueError):
            identify_cartan(((2, -1), (-4, 2)))
        # None of these is a square tree diagram with 2 on the diagonal.
        for m in (
            (),
            ((3,),),
            ((0,),),
            ((2, -1),),
            ((2, -1, 0), (-1, 2)),
            ((5, -1), (-1, 5)),
            ((2, -1, -1), (0, 2, -1), (-1, 0, 2)),
            ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),
            ((2, 0), (0, 2)),
            tuple(map(tuple, affine_d5)),
        ):
            assert rootsys._shape(m) is None
            with pytest.raises(ValueError):
                identify_cartan(m)

    def test_agrees_with_permutation_search(self):
        # The search: every relabelling of every Bourbaki block of rank <= 5,
        # families in A..G order, so an alias keeps the earlier family.
        found: dict = {}
        for n in range(1, 6):
            for f in rootsys._FAMILIES:
                if rootsys._rank_ok(f, n):
                    block = rootsys._cartan_block(SimpleType(f, n))
                    for p in itertools.permutations(range(n)):
                        m = tuple(tuple(block[p[i]][p[j]] for j in range(n)) for i in range(n))
                        found.setdefault(m, SimpleType(f, n))
        rng = random.Random(5261)
        matched = 0
        for k in range(2000):
            n = rng.randint(1, 5)
            if k % 2:
                f = rng.choice([f for f in rootsys._FAMILIES if rootsys._rank_ok(f, n)])
                block = rootsys._cartan_block(SimpleType(f, n))
                order = rng.sample(range(n), n)
                m = [[block[i][j] for j in order] for i in order]
                for _ in range(rng.randint(0, 2)):
                    m[rng.randrange(n)][rng.randrange(n)] = rng.randint(-3, 2)
            else:
                m = [[rng.randint(-3, 0) for _ in range(n)] for _ in range(n)]
                for i in range(n):
                    m[i][i] = 2 if rng.random() < 0.9 else rng.randint(-3, 3)
            m = tuple(map(tuple, m))
            want = found.get(m)
            if want is None:
                with pytest.raises(ValueError):
                    identify_cartan(m)
            else:
                assert identify_cartan(m) == want
                matched += 1
        assert 500 < matched < 1500


@st.composite
def system_and_vector(draw):
    name = draw(st.sampled_from(SMALL_SYSTEMS))
    rs = _sys(name)
    v = tuple(draw(st.integers(-6, 6)) for _ in range(rs.n))
    return rs, v


@given(system_and_vector(), st.integers(0, 7))
def test_reflection_is_involution(sv, node):
    rs, v = sv
    i = node % rs.n
    assert reflect_simple(rs, i, reflect_simple(rs, i, v)) == v


@given(system_and_vector(), st.integers(0, 7))
def test_reflection_preserves_bilinear_form(sv, node):
    rs, v = sv
    i = node % rs.n
    w = reflect_simple(rs, i, v)
    assert rs.bilinear(w, w) == rs.bilinear(v, v)


@given(system_and_vector())
def test_bilinear_symmetric(sv):
    rs, v = sv
    u = tuple(reversed(v))
    assert rs.bilinear(v, u) == rs.bilinear(u, v)


@given(system_and_vector(), st.lists(st.integers(0, 7), max_size=8))
def test_apply_word_composes_rightmost_first(sv, raw_word):
    rs, v = sv
    word = tuple(i % rs.n for i in raw_word)
    manual = v
    for i in reversed(word):
        manual = reflect_simple(rs, i, manual)
    assert apply_word(rs, word, v) == manual


@settings(max_examples=40)
@given(
    st.sampled_from(SMALL_SYSTEMS),
    st.lists(st.integers(0, 7), max_size=5),
    st.lists(st.integers(0, 7), max_size=5),
)
def test_word_matrix_is_multiplicative(name, w1, w2):
    rs = _sys(name)
    a = tuple(i % rs.n for i in w1)
    b = tuple(i % rs.n for i in w2)
    assert word_matrix(rs, a + b) == mat_mul(word_matrix(rs, a), word_matrix(rs, b))


def test_vector_length_checked():
    rs = _sys("A2")
    with pytest.raises(ValueError):
        reflect_simple(rs, 0, (1, 0, 0))
    with pytest.raises(IndexError):
        reflect_simple(rs, 5, (1, 0))


class TestLengthContract:
    # map() stops at the shorter argument, so the kernels check lengths
    # themselves: a longer vector must not lose its extra entries.
    @pytest.mark.parametrize("v", [(1, 0, 0, 5), (1, 0)])
    def test_pairing(self, v):
        with pytest.raises(ValueError, match="does not fit"):
            _sys("A3").pairing(v, 0)

    @pytest.mark.parametrize(
        "v,w",
        [((1, 0, 0, 9), (1, 0, 0)), ((1, 0, 0), (1, 0, 0, 9)), ((1, 0), (1, 0, 0)), ((1, 0, 0), (1,))],
    )
    def test_bilinear(self, v, w):
        with pytest.raises(ValueError, match="does not fit"):
            _sys("A3").bilinear(v, w)


ALL_SYSTEMS = [[t] for t in ALL_SIMPLE] + [[t, t] for t in ALL_SIMPLE]


@pytest.mark.parametrize("types", ALL_SYSTEMS, ids="x".join)
def test_pairing_and_bilinear_against_index_loops(types):
    rs = build_root_system(types)
    n = rs.n
    rng = random.Random("".join(types))
    for _ in range(20):
        v = [rng.randint(-5, 5) for _ in range(n)]
        w = [rng.randint(-5, 5) for _ in range(n)]
        for i in range(n):
            want = 0
            for j in range(n):
                want += rs.cartan[i][j] * v[j]
            assert rs.pairing(v, i) == want
        want = 0
        for i in range(n):
            for j in range(n):
                want += v[i] * rs.symmetrizer[i] * rs.cartan[i][j] * w[j]
        assert rs.bilinear(v, w) == want


def test_mat_mul_against_index_loops():
    rng = random.Random(6)
    for n in range(1, 9):
        for _ in range(10):
            a = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
            b = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
            want = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        want[i][j] += a[i][k] * b[k][j]
            assert mat_mul(a, b) == tuple(map(tuple, want))


def _root_sum_word(rs, subset):
    """Reference longest-element word: start from the sum of the positive
    roots supported on ``subset`` and reflect by the smallest node with
    positive pairing until none has one, one letter per such root."""
    supported = [r for r in rs.positive_roots if all(r[k] == 0 or k in subset for k in range(rs.n))]
    v = list(map(sum, zip(*supported))) or [0] * rs.n
    letters = []
    while True:
        for i in subset:
            c = rs.pairing(v, i)
            if c > 0:
                v[i] -= c
                letters.append(i)
                break
        else:
            break
    assert len(letters) == len(supported)
    return tuple(letters)


@pytest.mark.parametrize(
    "types",
    [ts for ts in ALL_SYSTEMS if len(ts) * SimpleType.parse(ts[0]).rank <= 8],
    ids="x".join,
)
def test_longest_element_against_root_sum(types):
    # every subset of every type of total rank <= 8
    rs = build_root_system(types)
    for mask in range(1 << rs.n):
        subset = [k for k in range(rs.n) if mask >> k & 1]
        assert longest_element(rs, subset) == _root_sum_word(rs, subset)


@pytest.mark.parametrize(
    "name",
    [t for t in ALL_SIMPLE if SimpleType.parse(t).rank <= 6]
    + [f"{t}x{t}" for t in ALL_SIMPLE if SimpleType.parse(t).rank <= 4],
)
def test_connected_sets_walk_equals_a_matrix_scan(name):
    # every node subset, the empty one included: the walk over neighbour
    # lists against the Cartan rows
    rs = _sys(name.split("x"))
    for mask in range(1 << rs.n):
        subset = [k for k in range(rs.n) if mask >> k & 1]
        want = components_by_matrix_scan(rs.cartan, subset)
        assert rootsys._connected_sets(rs._nbrs, subset) == want
