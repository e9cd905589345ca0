"""Lattice involution, corrections, restricted roots, weight action."""

from __future__ import annotations

import copy
import functools
import hashlib
import importlib
import itertools
import json
import operator
import pickle
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import (
    components_by_matrix_scan, diagram_automorphisms, fresh_python, matchings, node_map_report,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from satake import classify, involution, rootsys
from satake._record import ReadOnlyDict
from satake.realforms import catalog
from satake.diagram import SatakeDiagram, format_diagram, parse_diagram, validate
from satake.errors import DiagramDataError
from satake.involution import (
    act_on_weight,
    base_coordinates,
    black_corrections,
    dual_cartan_involution,
    involution_failures,
    permutation_cycles,
    restricted_roots,
    restricted_to_json,
    satake_automorphism,
)
from satake.rootsys import (
    _FAMILIES,
    SimpleType,
    _rank_ok,
    build_root_system,
    identify_cartan,
    identity_matrix,
    induced_node_permutation,
    longest_element,
    mat_mul,
    word_matrix,
)
from satake.verdict import real_structure_verdict


def test_black_components_are_found_once(monkeypatch):
    # the node map and Araki's rule read one stage; the selftest's flip
    # check reads the whole black set, not the components
    calls = []
    found = involution._connected_sets
    monkeypatch.setattr(
        involution, "_connected_sets", lambda *args: calls.append(args) or found(*args)
    )
    d = parse_diagram("E7 black=2,5,7 arrows=")
    d = SatakeDiagram.create(d.types, d.black, d.arrows)  # a fresh derivation
    assert validate(d).ok
    satake_automorphism(d)
    assert len(calls) == 1


def _theta_column(theta, j):
    return tuple(theta[i][j] for i in range(len(theta)))


class TestDualInvolution:
    def test_su_star_4_middle_column(self):
        d = parse_diagram("A3 black=1,3 arrows=")
        theta = dual_cartan_involution(d)
        assert _theta_column(theta, 1) == (-1, -1, -1)
        assert _theta_column(theta, 0) == (1, 0, 0)
        assert _theta_column(theta, 2) == (0, 0, 1)

    def test_su21_swaps_simple_roots(self):
        theta = dual_cartan_involution(parse_diagram("A2 black= arrows=1:2"))
        assert _theta_column(theta, 0) == (0, -1)
        assert _theta_column(theta, 1) == (-1, 0)

    @pytest.mark.parametrize("text", ["A4 black= arrows=", "B3 black= arrows=", "G2 black= arrows="])
    def test_split_forms_negate(self, text):
        d = parse_diagram(text)
        n = d.n
        assert dual_cartan_involution(d) == tuple(
            tuple(-1 if i == j else 0 for j in range(n)) for i in range(n)
        )

    @pytest.mark.parametrize("text", ["A4 black=1,2,3,4 arrows=", "D4 black=1,2,3,4 arrows="])
    def test_compact_forms_fix(self, text):
        d = parse_diagram(text)
        assert dual_cartan_involution(d) == identity_matrix(d.n)

    @pytest.mark.parametrize(
        "text",
        ["A3 black=1,3 arrows=", "E6 black=3,4,5 arrows=1:6", "C3 black=1,3 arrows=", "D5 black=1,3 arrows=4:5"],
    )
    def test_factorisation_identities(self, text):
        d = parse_diagram(text)
        rs = d.rs
        perm = satake_automorphism(d)
        theta = dual_cartan_involution(d)
        w = word_matrix(rs, longest_element(rs, d.black))
        m_eps = tuple(tuple(1 if i == perm[j] else 0 for j in range(d.n)) for i in range(d.n))
        neg = tuple(tuple(-x for x in row) for row in theta)
        assert mat_mul(w, neg) == m_eps
        assert mat_mul(neg, w) == m_eps
        assert mat_mul(theta, theta) == identity_matrix(d.n)

    def test_invalid_diagram_raises_with_failures(self):
        with pytest.raises(DiagramDataError) as exc:
            dual_cartan_involution(parse_diagram("A2 black=1 arrows=1:2"))
        assert exc.value.failures
        assert exc.value.failures[0][0] == "arrow touches black node"


class TestCorrections:
    def test_su_star_4(self):
        d = parse_diagram("A3 black=1,3 arrows=")
        assert black_corrections(d) == {1: {0: 1, 2: 1}}

    def test_split_corrections_vanish(self):
        d = parse_diagram("B3 black= arrows=")
        assert black_corrections(d) == {0: {}, 1: {}, 2: {}}

    def test_every_black_node_listed(self):
        d = parse_diagram("F4 black=1,2,3 arrows=")
        corr = black_corrections(d)
        assert set(corr) == {3}
        assert set(corr[3]) == {0, 1, 2}
        assert all(c >= 0 for c in corr[3].values())


def _columns(*cols):
    """The matrix whose column j is ``cols[j]``, as the lattice involution is kept."""
    return tuple(zip(*cols))


class TestLawChecksFire:
    """Each check of ``involution_failures`` fires on a derived stage that
    breaks its law alone; a sound derivation never trips any of them."""

    @pytest.mark.parametrize(
        "types,black,stage,value,expected",
        [
            # a 3-cycle of nodes, the lattice involution still the true one
            (["A3"], (), "_node_map", ((1, 2, 0), ()),
             [("node map is not an involution", "1->2, 2->3, 3->1")]),
            # minus the D4 triality sends positive roots to negative ones, cubed not squared
            (["D4"], (), "_theta", _columns((0, 0, -1, 0), (0, -1, 0, 0), (0, 0, 0, -1), (-1, 0, 0, 0)),
             [("involution-squared", "the lattice map does not square to the identity")]),
            (["A1"], (0,), "_theta", _columns((-1,)),
             [("involution-fixes-black", "black simple root 1 moves")]),
            # an involution: alpha_1 -> alpha_1 - 2 alpha_2, alpha_2 -> -alpha_2
            (["A2"], (), "_theta", _columns((1, -2), (0, -1)),
             [("involution-roots", "image of root (1, 0) is not a root"),
              ("involution-roots", "image of root (1, 1) is not a root")]),
            (["A1"], (), "_theta", _columns((1,)),
             [("involution-swaps-noncompact", "white-supported root (1,) has a positive image")]),
            # su(2,1)'s involution on sl(3,R), whose whites have no arrows
            (["A2"], (), "_theta", _columns((0, -1), (-1, 0)),
             [("corrections", "white node 1 has a stray coefficient at white node 1"),
              ("corrections", "white node 1 has a stray coefficient at white node 2"),
              ("corrections", "white node 2 has a stray coefficient at white node 1"),
              ("corrections", "white node 2 has a stray coefficient at white node 2")]),
            # the root laws make theta(alpha_i) a negative root for white i, so
            # no lattice involution alone gives a negative black coefficient;
            # a pairing of so(2,7)'s white node 1 with black node 3 does
            (["B4"], (2, 3), "_omega", {0: 2, 1: 1},
             [("corrections", "white node 1 has a stray coefficient at white node 1"),
              ("corrections", "white node 1 has a negative coefficient at black node 3")]),
        ],
        ids=["not-involution", "squared", "fixes-black", "roots", "swaps-noncompact",
             "stray-correction", "negative-correction"],
    )
    def test_corrupted_stage(self, types, black, stage, value, expected):
        d = SatakeDiagram.create(types, black)
        assert involution_failures(d) == ()
        d.__dict__[stage] = value
        assert involution_failures(d) == tuple(expected)


class TestDerivedOnce:
    def test_one_derivation_per_diagram(self, monkeypatch, full_catalog):
        calls = {"longest_element": 0, "theta": 0, "laws": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        word = counted("longest_element", rootsys.longest_element)
        monkeypatch.setattr(rootsys, "longest_element", word)
        monkeypatch.setattr(involution, "longest_element", word)
        # the lattice involution is built exactly once, and its laws are
        # left to the selftest
        stage = involution._Derivation.__dict__["_theta"]
        monkeypatch.setattr(stage, "func", counted("theta", stage.func))
        monkeypatch.setattr(
            involution, "involution_failures", counted("laws", involution.involution_failures)
        )
        for rec in full_catalog:
            calls.update(longest_element=0, theta=0, laws=0)
            d = parse_diagram(rec.text)
            validate(d)
            satake_automorphism(d)
            dual_cartan_involution(d)
            black_corrections(d)
            restricted_roots(d)
            real_structure_verdict(d)
            assert calls["longest_element"] <= 1, rec.name
            assert calls["theta"] == 1, rec.name
            assert calls["laws"] == 0, rec.name

    def test_node_map_builds_no_word(self, monkeypatch, full_catalog):
        # the black flip is read off each component's shape, so only the
        # lattice involution's white columns need the longest element
        calls = {"longest_element": 0, "apply_word": 0}
        for name in calls:

            def wrapper(*args, _name=name, _fn=getattr(rootsys, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(rootsys, name, wrapper)
            monkeypatch.setattr(involution, name, wrapper)
        # a catalog built afresh, so no record holds a derived node map
        module = importlib.import_module("satake.realforms")
        monkeypatch.setattr(module, "_catalog_cached", module._catalog_cached.__wrapped__)
        classify()
        for rec in full_catalog:
            d = parse_diagram(rec.text)
            satake_automorphism(d)
            real_structure_verdict(d)
        assert not validate(parse_diagram("A4 black=1,2 arrows=")).ok
        assert validate(parse_diagram("E8 black=2,3,4,5 arrows=")).ok
        # a compact form has no white column, so theta is the identity
        compact = parse_diagram("E8 black=1,2,3,4,5,6,7,8 arrows=")
        assert dual_cartan_involution(compact) == identity_matrix(8)
        assert calls == {"longest_element": 0, "apply_word": 0}
        for rec in full_catalog:
            calls.update(longest_element=0)
            restricted_roots(parse_diagram(rec.text))
            assert calls["longest_element"] <= 1, rec.name

    def test_node_map_closes_no_root_system(self):
        # A fresh interpreter, so no cached system has closed its roots yet.
        code = (
            "from satake import black_corrections, classify, dual_cartan_involution,"
            " parse_diagram, real_structure_verdict, restricted_roots,"
            " satake_automorphism, validate\n"
            "classify()\n"
            "d = parse_diagram('E8 black=2,3,4,5 arrows=')\n"
            "assert validate(d).ok\n"
            "satake_automorphism(d)\n"
            "real_structure_verdict(d)\n"
            "dual_cartan_involution(d)\n"
            "black_corrections(d)\n"
            "print(int('_closure' in d.rs.__dict__))\n"
            "restricted_roots(d)\n"
            "print(int('_closure' in d.rs.__dict__))\n"
        )
        proc = fresh_python(code, check=True)
        assert proc.stdout.split() == ["0", "1"]

    def test_results_are_shared_and_read_only(self):
        # each call hands out the diagram's own stage, whose every edit is
        # refused, so no caller's edit reaches another
        for d in (parse_diagram("A3 black=1,3 arrows="), SatakeDiagram.create(["A3"], [0, 2], [])):
            assert black_corrections(d) is black_corrections(d)
            assert restricted_roots(d) is restricted_roots(d)
            with pytest.raises(TypeError):
                black_corrections(d)[1][0] = 99
            with pytest.raises(TypeError):
                restricted_roots(d).multiplicity.clear()
            assert black_corrections(d) == {1: {0: 1, 2: 1}}
            assert restricted_roots(d).multiplicity == {(1, 2, 1): 4}
            # the arrow pairing is the diagram's input, handed out as a copy
            assert d.omega_map is not d.omega_map and type(d.omega_map) is dict


class TestAutomorphism:
    def test_cycles_text(self):
        assert permutation_cycles((0, 1, 2)) == "identity"
        assert permutation_cycles((1, 0)) == "(1 2)"
        d = parse_diagram("E6 black= arrows=1:6,3:5")
        assert permutation_cycles(satake_automorphism(d)) == "(1 6)(3 5)"

    def test_black_flip_shows_up(self):
        # the painted A3 component in the middle flips its outer nodes
        d = parse_diagram("A5 black=2,3,4 arrows=1:5")
        perm = satake_automorphism(d)
        assert perm == (4, 3, 2, 1, 0)

    def test_unextendable_black_flip_rejected(self):
        # painted A2 at the end of A3 must flip, but node 3 cannot follow
        report_failures = []
        try:
            satake_automorphism(parse_diagram("A4 black=1,2 arrows="))
        except DiagramDataError as e:
            report_failures = list(e.failures)
        assert any(check == "node map breaks the Cartan matrix" for check, _ in report_failures)


def _flip_cases():
    simple = [f"{f}{n}" for f in _FAMILIES for n in range(1, 9) if _rank_ok(f, n)]
    for types in [[t] for t in simple] + [[t, t] for t in simple if int(t[1:]) <= 4]:
        n = sum(SimpleType.parse(t).rank for t in types)
        blacks = itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(1, n + 1)
        )
        yield pytest.param(types, list(blacks), id="x".join(types))
    for t in [f"A{k}" for k in range(9, 17)] + [f"D{k}" for k in range(9, 17)]:
        yield pytest.param([t], [tuple(range(int(t[1:])))], id=f"{t}-all-black")


class TestBlackFlip:
    @pytest.mark.parametrize("types,blacks", _flip_cases())
    def test_shape_flip_is_the_words_flip(self, types, blacks):
        # every black set of the types of rank 8 or less, and the full black
        # set above: each component's word, then the whole set's, as the selftest reads it
        for black in blacks:
            d = SatakeDiagram(types, black, ())
            perm, _ = d._node_map
            for comp in components_by_matrix_scan(d.rs.cartan, black):
                assert {i: perm[i] for i in comp} == induced_node_permutation(d.rs, comp), black
            assert {i: perm[i] for i in black} == induced_node_permutation(d.rs, black), black


@functools.cache
def _black_blocks() -> dict:
    """Each connected black set's Cartan block, with a root system and the
    nodes that span it: every connected set of the simple types up to rank
    8, and the whole of A32, B32, C32 and D32."""
    out: dict = {}
    for t in [f"{f}{n}" for f in _FAMILIES for n in range(1, 9) if _rank_ok(f, n)]:
        rs = build_root_system([t])
        c = rs.cartan
        for nodes in itertools.chain.from_iterable(
            itertools.combinations(range(rs.n), k) for k in range(1, rs.n + 1)
        ):
            if len(components_by_matrix_scan(c, nodes)) == 1:
                out.setdefault(tuple(tuple(c[i][j] for j in nodes) for i in nodes), (rs, nodes))
    for t in ("A32", "B32", "C32", "D32"):
        rs = build_root_system([t])
        out.setdefault(rs.cartan, (rs, tuple(range(rs.n))))
    return out


def _grown_connected_sets(cartan) -> set[tuple[int, ...]]:
    """Every connected node set of the diagram of ``cartan``, as a sorted
    tuple: each single node, then each set grown by one node that a Cartan
    entry bonds to it, level by level."""
    n = len(cartan)
    level, out = {(i,) for i in range(n)}, set()
    while level:
        out |= level
        level = {
            tuple(sorted((*nodes, v)))
            for nodes in level
            for u in nodes
            for v in range(n)
            if v not in nodes and cartan[u][v]
        }
    return out


def _coroots_by_form(rs) -> list[tuple[frozenset, tuple[int, ...]]]:
    """Per positive root r, its support and ``<alpha_j, r^vee> = 2 B(alpha_j, r)
    / B(r, r)`` for every node j, with ``B(alpha_j, r) = d_j <r, alpha_j^vee>``."""
    out = []
    for r in rs.positive_roots:
        c = [sum(map(operator.mul, row, r)) for row in rs.cartan]
        norm = sum(map(operator.mul, r, map(operator.mul, rs.symmetrizer, c)))
        nums = [2 * d * y for d, y in zip(rs.symmetrizer, c)]
        assert all(x % norm == 0 for x in nums)
        out.append((frozenset(k for k, x in enumerate(r) if x), tuple(x // norm for x in nums)))
    return out


def black_table_mismatches(bound: int) -> tuple[dict[str, int], list[str]]:
    """Every connected node set of every simple and doubled type of rank at
    most ``bound`` per component, painted black: the entry of the root
    system's component table against the oracles that share none of its
    code, ``induced_node_permutation`` for the flip, the pairing
    ``<alpha_j, 2 rho^vee> = 2`` at each of the component's simple roots,
    and, for the odd white neighbours, ``<alpha_j, 2 rho^vee>`` summed over
    the component's positive coroots at each node bonded to it, as
    ``test_diagram._araki_by_roots`` sums them; then the table's size
    against the count of connected node sets.  Returns how many systems and
    table entries there are, and the mismatches."""
    systems, entries, bad = 0, 0, []
    for t in [f"{f}{n}" for f in _FAMILIES for n in range(1, bound + 1) if _rank_ok(f, n)]:
        for types in ([t], [t, t]):
            rs = build_root_system(types)
            coroots = _coroots_by_form(rs)
            connected = _grown_connected_sets(rs.cartan)
            for comp in sorted(connected):
                if components_by_matrix_scan(rs.cartan, comp) != (comp,):
                    bad.append(f"{types} {comp}: grown but not connected")
                (entry,) = SatakeDiagram(types, comp, ())._black_components
                _, flip, k, odd = entry
                perm = {i: i for i in comp}
                perm.update((comp[x], comp[y]) for x, y in flip)
                if entry is not rs._black_table[comp] or entry[0] != comp:
                    bad.append(f"{types} {comp}: not the table's entry")
                if perm != induced_node_permutation(rs, comp):
                    bad.append(f"{types} {comp}: flip {flip} is not -w0")
                if len(k) != len(comp) or any(
                    sum(x * rs.cartan[b][j] for x, b in zip(k, comp)) != 2 for j in comp
                ):
                    bad.append(f"{types} {comp}: 2 rho^vee {k} does not pair to 2")
                nodes = frozenset(comp)
                pairings = [p for support, p in coroots if support <= nodes]
                whites = {j for b in comp for j in range(rs.n) if j not in nodes and rs.cartan[b][j]}
                if sorted(odd) != sorted(j for j in whites if sum(p[j] for p in pairings) % 2):
                    bad.append(f"{types} {comp}: odd white neighbours {odd} are not the coroots'")
            systems, entries = systems + 1, entries + len(rs._black_table)
            if len(rs._black_table) != len(connected):
                bad.append(f"{types}: {len(rs._black_table)} entries, {len(connected)} sets")
    return {"systems": systems, "entries": entries}, bad


def _scanned_connected_count(types) -> int:
    """How many node subsets ``components_by_matrix_scan`` finds connected.
    No bond joins two components, so each connected set lies in one, and
    only the subsets of each component's nodes are scanned."""
    rs = build_root_system(types)
    r = rs.n // len(types)
    parts = tuple(tuple(range(k, k + r)) for k in range(0, rs.n, r))
    assert components_by_matrix_scan(rs.cartan, range(rs.n)) == parts
    return sum(
        len(components_by_matrix_scan(rs.cartan, sub)) == 1
        for nodes in parts
        for m in range(1, r + 1)
        for sub in itertools.combinations(nodes, m)
    )


class TestBlackShape:
    """The per-shape memo and the per-system table of black components
    against oracles that share none of their code."""

    def test_block_count(self):
        # the 41 blocks up to rank 8, and the 4 of rank 32
        assert len(_black_blocks()) == 41 + 4

    def test_flip_is_the_words_flip(self):
        for block, (rs, comp) in _black_blocks().items():
            flip, _ = involution._black_shape(block)
            perm = {i: i for i in comp}
            perm.update((comp[x], comp[y]) for x, y in flip)
            assert perm == induced_node_permutation(rs, comp), comp

    def test_coefficients_pair_to_two_at_every_node(self):
        # <alpha_j, 2 rho^vee> = 2 for every simple root of the component,
        # and the Cartan block is invertible, so this pins 2 rho^vee
        for block in _black_blocks():
            _, k = involution._black_shape(block)
            n = len(block)
            assert len(k) == n
            assert all(sum(k[b] * block[b][j] for b in range(n)) == 2 for j in range(n)), block

    def test_grown_sets_are_the_subset_scans(self):
        # black_table_mismatches gives each table one entry per grown set;
        # a scan of every node subset counts the same sets: 36 for A8, 41
        # for D8, 44 for E8, twice that when doubled
        sizes = {}
        for t in [f"{f}{n}" for f in _FAMILIES for n in range(1, 9) if _rank_ok(f, n)]:
            for types in ([t], [t, t]):
                sizes["x".join(types)] = len(_grown_connected_sets(build_root_system(types).cartan))
        assert sizes == {name: _scanned_connected_count(name.split("x")) for name in sizes}
        assert (sizes["A8"], sizes["D8"], sizes["E8"], sizes["E8xE8"]) == (36, 41, 44, 88)
        assert len(sizes) == 2 * 33


class TestRestricted:
    def test_su21(self):
        rr = restricted_roots(parse_diagram("A2 black= arrows=1:2"))
        assert rr.base == ((1, 1),)
        assert rr.positive == ((1, 1), (2, 2))
        assert rr.multiplicity == {(1, 1): 2, (2, 2): 1}
        assert rr.label == "BC1"

    def test_split_b2_is_reduced(self):
        rr = restricted_roots(parse_diagram("B2 black= arrows="))
        assert rr.label == "B2"
        assert sorted(rr.multiplicity.values()) == [1, 1, 1, 1]
        assert rr.positive == tuple(sorted(((2, 0), (0, 2), (2, 2), (2, 4)), key=lambda v: (sum(v), v)))

    def test_compact_is_empty(self):
        rr = restricted_roots(parse_diagram("A3 black=1,2,3 arrows="))
        assert rr.base == ()
        assert rr.positive == ()
        assert rr.label is None

    def test_doubled_restriction_recovers_component(self):
        rr = restricted_roots(parse_diagram("A2xA2 black= arrows=1:3,2:4"))
        assert rr.label == "A2"
        assert len(rr.positive) == 3
        assert set(rr.multiplicity.values()) == {2}

    def test_su_star_4(self):
        rr = restricted_roots(parse_diagram("A3 black=1,3 arrows="))
        assert rr.label == "A1"
        assert rr.positive == ((1, 2, 1),)
        assert rr.multiplicity[(1, 2, 1)] == 4

    def test_base_coordinates_nonnegative_integers(self):
        rr = restricted_roots(parse_diagram("E6 black=3,4,5 arrows=1:6"))
        assert rr.label == "BC2"
        for v in rr.positive:
            coords = base_coordinates(rr.base, v)
            assert all(c.denominator == 1 and c >= 0 for c in coords)

    def test_base_coordinates_rejects_outside_span(self):
        with pytest.raises(ValueError, match="not in the span"):
            base_coordinates(((2, 0),), (0, 1))
        # the coefficients read off the private coordinates 0 and 2 do
        # not rebuild the middle coordinate
        with pytest.raises(ValueError, match="not in the span"):
            base_coordinates(((1, 1, 0), (0, 1, 1)), (1, 0, 1))

    def test_base_coordinates_needs_private_coordinates(self):
        with pytest.raises(ValueError, match="no private coordinate"):
            base_coordinates(((1, 0), (1, 1)), (1, 1))

    @pytest.mark.parametrize("base,vec", [(((1, 0, 0),), (1,)), (((0, 1),), (1,))])
    def test_base_coordinates_rejects_length_mismatch(self, base, vec):
        with pytest.raises(ValueError, match="differ in length"):
            base_coordinates(base, vec)

    def test_base_coordinates_exact_fractions(self):
        coords = base_coordinates(((2, 0), (0, 3)), (1, 1))
        assert coords == (Fraction(1, 2), Fraction(1, 3))

    def test_base_coordinates_empty_base(self):
        # an empty base has no columns, and still only zero is in its span
        assert base_coordinates((), (0, 0, 0)) == ()
        with pytest.raises(ValueError, match="not in the span"):
            base_coordinates((), (0, 1, 0))

    def test_base_coordinates_half_integers(self):
        base = ((2, 0, 1), (0, 2, 1))
        assert base_coordinates(base, (1, 1, 1)) == (Fraction(1, 2), Fraction(1, 2))
        assert base_coordinates(base, (2, 4, 3)) == (1, 2)
        with pytest.raises(ValueError, match="not in the span"):
            base_coordinates(base, (1, 1, 2))

    def test_base_coordinates_negative_private_entry(self):
        base = ((-2, 0), (0, 3))
        assert base_coordinates(base, (1, 1)) == (Fraction(-1, 2), Fraction(1, 3))
        assert base_coordinates(base, (4, -6)) == (-2, -2)

    def test_base_coordinates_take_ints_whatever_was_asked_before(self):
        # a float raises both before and after the equal int vector is
        # memoised; a bool is an int, and lists read as tuples
        base = ((2, 0), (0, 3))
        for _ in range(2):
            with pytest.raises(TypeError):
                base_coordinates(base, (1.0, 1.0))
            with pytest.raises(TypeError):
                base_coordinates(((2.0, 0), (0, 3)), (1, 1))
            assert base_coordinates(base, (1, 1)) == (Fraction(1, 2), Fraction(1, 3))
        assert base_coordinates([[2, False], [0, 3]], [True, 1]) == (Fraction(1, 2), Fraction(1, 3))

        class Index:
            def __index__(self):
                return 3

        assert base_coordinates(((2, 0), (0, Index())), (1, Index())) == (Fraction(1, 2), 1)

    def test_json_shape(self):
        rr = restricted_roots(parse_diagram("A2 black= arrows=1:2"))
        payload = json.loads(restricted_to_json(rr))
        assert payload["type"] == "BC1"
        assert payload["base"] == [[{"num": 1, "den": 2}, {"num": 1, "den": 2}]]
        assert payload["positive"] == [
            {"root": [{"num": 1, "den": 2}, {"num": 1, "den": 2}], "multiplicity": 2},
            {"root": [{"num": 1, "den": 1}, {"num": 1, "den": 1}], "multiplicity": 1},
        ]

    def test_multiplicities_count_unpainted_positive_roots(self):
        d = parse_diagram("C3 black=1,3 arrows=")
        rr = restricted_roots(d)
        rs = d.rs
        painted = sum(
            1 for r in rs.positive_roots if all(r[k] == 0 for k in d.whites)
        )
        assert sum(rr.multiplicity.values()) == len(rs.positive_roots) - painted

    def test_labels_of_seeded_samples_match_golden(self, random_diagrams_1000, random_diagrams_500):
        # The catalog's labels are pinned by test_output_digests.py; this
        # pins those of 1,500 seeded sample diagrams.
        h = hashlib.sha256()
        for d in random_diagrams_1000 + random_diagrams_500:
            h.update(f"{format_diagram(d)}\t{restricted_roots(d).label}\n".encode())
        assert h.hexdigest() == (
            "2677fe425ed0ba5f878489eca5fe61763a5b8f619a4c94a77e515b5674fc80a7"
        )


def test_exhaustive_validate_matches_golden():
    # Every simple and doubled type of total rank <= 7, every black set and
    # every matching of the white nodes: 14,779 diagrams, 920 accepted by
    # the node map and 266 of those also by Araki's rule.  On every diagram
    # the node map accepts, the lattice involution's laws must hold all the
    # same, and the restricted type must match the pairwise reference.
    simple = [SimpleType(f, r) for f in _FAMILIES for r in range(1, 8) if _rank_ok(f, r)]
    systems = [(t,) for t in simple] + [(t, t) for t in simple if 2 * t.rank <= 7]
    h, h_valid = hashlib.sha256(), hashlib.sha256()
    total = accepted = valid = 0
    for types in systems:
        n = sum(t.rank for t in types)
        for black in itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(n + 1)
        ):
            whites = tuple(i for i in range(n) if i not in black)
            for arrows in matchings(whites):
                d = SatakeDiagram.create(types, black, arrows)
                report = node_map_report(d)
                h.update(f"{format_diagram(d)}\t{report}\n".encode())
                full = validate(d)
                h_valid.update(f"{format_diagram(d)}\t{full}\n".encode())
                total += 1
                valid += full.ok
                if report.ok:
                    accepted += 1
                    assert involution_failures(d) == (), format_diagram(d)
                    rr = restricted_roots(d)
                    assert rr.label == _reference_label(d.rs, rr), format_diagram(d)
                else:
                    assert full == report, format_diagram(d)
    assert (total, accepted, valid) == (14779, 920, 266)
    assert h.hexdigest() == (
        "074fc256da79abbd9f678c1351600436d70b03f7d6e1e602ca4ca06a8d38e160"
    )
    assert h_valid.hexdigest() == (
        "ecd8705f7722df59644b5b456a534f54c6f82f97bc9f232f43d195d482b0974f"
    )


def _reference_label(rs, rr):
    """The restricted type from the Gram matrix built pair by pair and a
    scan of every positive restricted root for one that is twice another;
    such a root pairs with the base vectors of one component, which is BC."""
    if not rr.base:
        return None
    gram = [[rs.bilinear(b, c) for c in rr.base] for b in rr.base]
    if any(gram[i][i] <= 0 for i in range(len(gram))):
        return None
    cartan = []
    for i, g in enumerate(gram):
        qr = [divmod(2 * x, g[i]) for x in g]
        if any(rem or (i != j and q > 0) for j, (q, rem) in enumerate(qr)):
            return None
        cartan.append(tuple(q for q, _ in qr))
    halves = [s for s in rr.positive if tuple(2 * x for x in s) in rr.multiplicity]
    labels = []
    for comp in components_by_matrix_scan(cartan, range(len(cartan))):
        try:
            t = identify_cartan(tuple(tuple(cartan[i][j] for j in comp) for i in comp))
        except ValueError:
            return None
        if not any(rs.bilinear(s, rr.base[i]) for s in halves for i in comp):
            labels.append(str(t))
        elif (t.family, t.rank) == ("A", 1) or t.family == "B":
            labels.append(f"BC{t.rank}")
        else:
            return None
    return "+".join(sorted(labels))


def _stdlib_json(rr) -> str:
    """The restricted JSON through the stdlib encoder, the reference text."""

    def half(c):
        return {"num": c // 2, "den": 1} if c % 2 == 0 else {"num": c, "den": 2}

    payload = {
        "type": rr.label,
        "base": [[half(c) for c in v] for v in rr.base],
        "positive": [
            {"root": [half(c) for c in v], "multiplicity": rr.multiplicity[v]}
            for v in rr.positive
        ],
    }
    return json.dumps(payload, indent=2)


class TestJsonEqualsStdlibEncoder:
    def test_catalog(self, full_catalog):
        # the second pass reads each record's text from the memo the first
        # filled: the very same string, where a miss would build a new one
        first = []
        for rec in full_catalog:
            rr = restricted_roots(rec.diagram)
            first.append(restricted_to_json(rr))
            assert first[-1] == _stdlib_json(rr), rec.name
        again = [restricted_to_json(restricted_roots(rec.diagram)) for rec in full_catalog]
        assert all(map(operator.is_, first, again))

    @pytest.mark.parametrize(
        "text", ["A3 black=1,2,3 arrows=", "A2 black= arrows=1:2", "E6 black=3,4,5 arrows=1:6"]
    )
    def test_compact_and_bc_forms(self, text):
        rr = restricted_roots(parse_diagram(text))
        assert restricted_to_json(rr) == _stdlib_json(rr)

    def test_seeded_sample(self, random_diagrams_500):
        for d in random_diagrams_500:
            rr = restricted_roots(d)
            assert restricted_to_json(rr) == _stdlib_json(rr), d

    def test_values_outside_any_diagram(self):
        rr = involution.RestrictedRoots(
            base=((-3, 40), (0, 1)),
            positive=((7, -2),),
            multiplicity={(7, -2): 12},
            label="Ü",
        )
        assert restricted_to_json(rr) == _stdlib_json(rr)

    def test_empty_vectors(self):
        # no diagram yields one, but a hand-built record still gets json's "[]"
        rr = involution.RestrictedRoots(base=((),), positive=((),), multiplicity={(): 1}, label=None)
        assert restricted_to_json(rr) == _stdlib_json(rr)

    def test_bool_entries_are_written_as_ints(self):
        rr = involution.RestrictedRoots(((True, 2),), ((True, 2),), {(True, 2): True}, "A1")
        ints = involution.RestrictedRoots(((1, 2),), ((1, 2),), {(1, 2): 1}, "A1")
        assert json.loads(restricted_to_json(rr)) == json.loads(_stdlib_json(ints))
        assert restricted_to_json(rr) == _stdlib_json(ints)

    def test_float_entries_raise_whatever_was_written_before(self):
        ints = involution.RestrictedRoots(((1, 2),), ((1, 2),), {(1, 2): 1}, "A1")
        floats = [
            involution.RestrictedRoots(((1.0, 2),), ((1.0, 2),), {(1.0, 2): 1}, "A1"),
            involution.RestrictedRoots(((1, 2),), ((1, 2),), {(1, 2): 1.0}, "A1"),
        ]
        for _ in range(2):
            for rr in floats:
                with pytest.raises(TypeError):
                    restricted_to_json(rr)
            assert restricted_to_json(ints) == _stdlib_json(ints)


class TestReadOutByIdentity:
    """The read-out keeps answers by the identity of the objects they came
    from: other objects, equal or relabelled, get their own answers."""

    def test_equal_copies_get_the_right_answers(self):
        rr = restricted_roots(parse_diagram("E6 black=3,4,5 arrows=1:6"))
        restricted_to_json(rr)
        copy = involution.RestrictedRoots(
            tuple(tuple(list(v)) for v in rr.base),
            tuple(tuple(list(v)) for v in rr.positive),
            dict(rr.multiplicity),
            rr.label,
        )
        assert copy.positive[0] is not rr.positive[0]
        assert restricted_to_json(copy) == _stdlib_json(rr)
        for v, w in zip(rr.positive, copy.positive):
            assert base_coordinates(copy.base, w) == base_coordinates(rr.base, v) == _span_solve(rr.base, v)

    def test_mutable_arguments_are_read_on_every_call(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        base, vec = [[2, 0], [0, 3]], [1, 1]
        assert base_coordinates(base, vec) == (half, third)
        vec[0] = 4
        assert base_coordinates(base, vec) == (2, third)
        base[0][0] = 4
        assert base_coordinates(base, vec) == (1, third)
        rows, pair = ([2, 0], [0, 3]), (1, 1)  # a tuple of lists
        assert base_coordinates(rows, pair) == (half, third)
        rows[0][0] = 1
        assert base_coordinates(rows, pair) == (1, third)

    def test_edited_records_are_written_afresh(self):
        # a record cannot be edited, but one built from another with a new label has its own text
        d = parse_diagram("A3 black=1,3 arrows=")
        rr = restricted_roots(d)
        first = restricted_to_json(rr)
        for label in ("X1", None):
            relabelled = involution.RestrictedRoots(rr.base, rr.positive, rr.multiplicity, label)
            assert restricted_to_json(relabelled) == _stdlib_json(relabelled) != first
        assert restricted_to_json(restricted_roots(d)) is first

    def test_multiplicity_copies_are_read_by_their_objects(self):
        # each record writes its own text from its own copy of the
        # multiplicities it was given, in the order of its positive vectors
        rr = restricted_roots(parse_diagram("E6 black=3,4,5 arrows=1:6"))
        text = restricted_to_json(rr)
        assert restricted_to_json(restricted_roots(parse_diagram("E6 black=3,4,5 arrows=1:6"))) is text
        first = rr.positive[0]

        def written(mult):
            return restricted_to_json(involution.RestrictedRoots(rr.base, rr.positive, mult, rr.label))

        floats = dict(rr.multiplicity)
        floats[first] = float(floats[first])
        with pytest.raises(TypeError):
            written(floats)
        assert written(dict(reversed(rr.multiplicity.items()))) == text
        assert written({**rr.multiplicity, (9,) * len(first): 1}) == text
        lacking = dict(rr.multiplicity)
        del lacking[first]
        with pytest.raises(KeyError):
            written(lacking)

    def test_one_vector_against_two_bases(self):
        # the coordinates memo is keyed on the vector; its entry holds the base
        vec, bases = (2, 6), (((2, 0), (0, 3)), ((1, 0), (0, 2)))
        for _ in range(3):
            assert [base_coordinates(base, vec) for base in bases] == [(1, 2), (2, 3)]
        for base in bases:
            assert base_coordinates(base, vec) is base_coordinates(base, vec)

    def test_a_kept_plan_keeps_the_error_order(self):
        # the base's missing private coordinate is kept in its plan, and
        # still raised after the vector's length and type checks
        base = ((1, 0), (1, 1))
        for _ in range(2):
            with pytest.raises(ValueError, match="differ in length"):
                base_coordinates(base, (1,))
            with pytest.raises(TypeError):
                base_coordinates(base, (1.0, 1))
            with pytest.raises(ValueError, match="no private coordinate"):
                base_coordinates(base, (1, 1))


def test_memo_replaces_a_held_key_in_place():
    # a full memo evicts for a new key only
    memo = involution._Memo(2)
    memo.keep("a", (1,), ())
    memo.keep("b", (2,), ())
    memo.keep("b", (3,), ())
    assert memo == {"a": (1,), "b": (3,)}
    memo.keep("c", (4,), ())
    assert memo == {"b": (3,), "c": (4,)}


def _setitem(m, k):
    m[k] = 0


def _delitem(m, k):
    del m[k]


def _ior(m, k):
    m |= {"new": 0}


# every dict method that edits in place; ``k`` is a key the map holds
MUTATORS = {
    "setitem": _setitem,
    "delitem": _delitem,
    "clear": lambda m, k: m.clear(),
    "pop": lambda m, k: m.pop(k),
    "popitem": lambda m, k: m.popitem(),
    "setdefault": lambda m, k: m.setdefault("new", 0),
    "update": lambda m, k: m.update(new=0),
    "ior": _ior,
}
READ_ONLY = {
    "multiplicity": lambda d: restricted_roots(d).multiplicity,
    "corrections": black_corrections,
    "inner corrections": lambda d: black_corrections(d)[1],
}


class TestReadOnlyValues:
    """What ``restricted_roots`` and ``black_corrections`` hand out is the
    diagram's own, so every edit is refused and the value stays."""

    @pytest.mark.parametrize("mutate", MUTATORS.values(), ids=MUTATORS)
    @pytest.mark.parametrize("read", READ_ONLY.values(), ids=READ_ONLY)
    def test_every_edit_is_refused(self, read, mutate):
        d = parse_diagram("A3 black=1,3 arrows=")
        m = read(d)
        before = dict(m)
        with pytest.raises(TypeError):
            mutate(m, next(iter(m)))
        assert read(d) is m and m == before and type(m) is ReadOnlyDict
        assert isinstance(m, dict) and repr(m) == repr(before)

    @pytest.mark.parametrize(
        "clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trips(self, clone):
        d = parse_diagram("E6 black=3,4,5 arrows=1:6")
        rr, corrections = restricted_roots(d), black_corrections(d)
        text = restricted_to_json(rr)
        got = clone(rr)
        assert got == rr and restricted_to_json(got) == text
        assert type(got.multiplicity) is ReadOnlyDict
        got = clone(corrections)
        assert got == corrections and {type(got), *map(type, got.values())} == {ReadOnlyDict}

    def test_a_hand_built_record_keeps_its_own_copy(self):
        # of the lists and the dict it was built from, which the caller may edit after
        base, mult = [[1, 2]], {(1, 2): 1}
        rr = involution.RestrictedRoots(base, [(1, 2)], mult, "A1")
        text = restricted_to_json(rr)
        base[0][0], mult[(1, 2)] = 3, 5
        assert rr == involution.RestrictedRoots(((1, 2),), ((1, 2),), {(1, 2): 1}, "A1")
        assert restricted_to_json(rr) is text and text == _stdlib_json(rr)


def test_root_images_equal_dense_product(full_catalog):
    # the per-root vectors r - theta(r) of the predecessor recursion
    for rec in full_catalog:
        d = parse_diagram(rec.text)
        theta = d._theta
        _, vectors = involution._root_vectors(d)
        dense = tuple(
            tuple(r[i] - sum(row[j] * r[j] for j in range(d.n)) for i, row in enumerate(theta))
            for r in d.rs.positive_roots
        )
        assert tuple(vectors) == dense, rec.name


class TestWeights:
    def test_su21_swaps_fundamental_weights(self):
        perm = satake_automorphism(parse_diagram("A2 black= arrows=1:2"))
        assert act_on_weight(perm, (1, 0)) == (0, 1)
        assert act_on_weight(perm, (3, 5)) == (5, 3)

    def test_identity_fixes(self):
        perm = satake_automorphism(parse_diagram("B2 black= arrows="))
        assert act_on_weight(perm, (4, 7)) == (4, 7)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            act_on_weight((1, 0), (1, 0, 0))
        # the length is checked before the permutation
        with pytest.raises(ValueError, match="weight of length 1 does not match a rank-2 diagram"):
            act_on_weight((1, 1), (3,))


@pytest.mark.parametrize(
    "call",
    [
        # a cycle walk that waits to come back to its start never returns on these
        "permutation_cycles((1, 1))",
        "permutation_cycles((0, 0))",
        "permutation_cycles((-1, 0))",
        "permutation_cycles((5,))",
        "act_on_weight((1, 1), (3, 4))",
        "act_on_weight((5, 0), (3, 4))",
        # entries equal to indices but not ints: a node index is an int
        "permutation_cycles((1.0, 0.0))",
        "act_on_weight((True, False), (5, 6))",
    ],
)
def test_non_permutation_is_refused(call):
    # in a child under an address-space cap and a time limit, so a walk that
    # never ends fails this test in seconds instead of filling the host's memory
    code = (
        "import resource\n"
        "from satake import act_on_weight, permutation_cycles\n"
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
        f"try:\n    print({call})\nexcept ValueError as e:\n    print('ValueError:', e)\n"
    )
    proc = fresh_python(code, timeout=30)
    assert proc.stdout == "ValueError: not a permutation of the node indices\n", proc.stderr[-300:]


def test_base_coordinates_against_read_offs(full_catalog, random_diagrams_500):
    # Each coefficient is read at its base vector's private coordinate,
    # found by scanning; every restricted root lies in the span.  The
    # second pass over each group reads every answer from the memo the
    # first filled: the very same tuple, where a miss would build a new one.
    involution._coordinates_memo.clear()
    for group in ([rec.diagram for rec in full_catalog], random_diagrams_500[:100]):
        answers = []
        for _ in range(2):
            got = []
            for d in group:
                rr = restricted_roots(d)
                n = len(rr.base[0]) if rr.base else 0
                private = [
                    next(k for k in range(n) if b[k] and sum(1 for o in rr.base if o[k]) == 1)
                    for b in rr.base
                ]
                for v in rr.positive:
                    want = tuple(Fraction(v[k], b[k]) for k, b in zip(private, rr.base))
                    got.append(base_coordinates(rr.base, v))
                    assert got[-1] == want, format_diagram(d)
            answers.append(got)
        assert all(map(operator.is_, *answers))


def test_read_out_memos_hold_the_default_catalog(full_catalog):
    rrs = [restricted_roots(rec.diagram) for rec in full_catalog]
    pairs = sum(len(rr.positive) for rr in rrs)
    assert (len(rrs), pairs) == (205, 2923)
    assert involution._coordinates_memo.bound >= pairs
    # a fresh interpreter, so each miss is a distinct key of the default catalog
    code = (
        "from satake import catalog, involution, restricted_roots\n"
        "for rec in catalog(8):\n    restricted_roots(rec.diagram)\n"
        "info = involution._black_shape.cache_info()\n"
        "print(info.misses, info.currsize, info.maxsize)\n"
    )
    proc = fresh_python(code, check=True)
    assert proc.stdout.split() == ["34", "34", "None"]


def test_black_shape_memo_keeps_every_block_up_to_the_rank_cap():
    # every connected node set of A32, B32, C32, D32 and the exceptional
    # types: each smaller type of a family lies in its rank-32 type as an
    # end of the chain with its local order, so these meet every connected
    # Cartan block up to the rank cap, 137 of them, and none is dropped
    code = (
        "from satake import involution\n"
        "from satake.rootsys import build_root_system\n"
        "for t in ('A32', 'B32', 'C32', 'D32', 'E6', 'E7', 'E8', 'F4', 'G2'):\n"
        "    rs = build_root_system([t])\n"
        "    level = {(i,) for i in range(rs.n)}\n"
        "    while level:\n"
        "        for comp in level:\n"
        "            involution._black_entry(rs, comp)\n"
        "        level = {tuple(sorted((*c, v)))\n"
        "                 for c in level for u in c for v in rs._nbrs[u] if v not in c}\n"
        "info = involution._black_shape.cache_info()\n"
        "print(info.misses, info.currsize, info.maxsize)\n"
    )
    proc = fresh_python(code, check=True)
    assert proc.stdout.split() == ["137", "137", "None"]


def _span_solve(base, vec):
    """The coordinates of ``vec`` in the span of ``base`` by Gauss-Jordan
    elimination over ``Fraction``s, or None when it lies outside."""
    m = len(base)
    rows = [[Fraction(b[k]) for b in base] + [Fraction(vec[k])] for k in range(len(vec))]
    pivots = []
    for c in range(m):
        r = next((r for r in range(len(pivots), len(rows)) if rows[r][c]), None)
        if r is None:
            continue
        rows[len(pivots)], rows[r] = rows[r], rows[len(pivots)]
        top = rows[len(pivots)]
        top[:] = [x / top[c] for x in top]
        for row in rows:
            if row is not top and row[c]:
                row[:] = [x - row[c] * y for x, y in zip(row, top)]
        pivots.append(c)
    if any(row[m] for row in rows[len(pivots):]):
        return None
    assert len(pivots) == m  # private coordinates make the base independent
    return tuple(rows[i][m] for i in range(m))


def read_out_mismatches(bound: int) -> tuple[dict[str, int], list[str]]:
    """Two passes of the restricted read-out over ``catalog(bound)``, each
    answer against the references above: ``restricted_to_json`` against
    ``_stdlib_json`` and ``base_coordinates`` against ``_span_solve``.
    Returns how many answers were compared and the forms where one
    differed.  At a bound whose keys overflow the memos, both passes evict."""
    compared, bad = 0, []
    for _ in range(2):
        for rec in catalog(bound):
            rr = restricted_roots(rec.diagram)
            compared += 1 + len(rr.positive)
            if restricted_to_json(rr) != _stdlib_json(rr) or any(
                base_coordinates(rr.base, v) != _span_solve(rr.base, v) for v in rr.positive
            ):
                bad.append(rec.name)
    return {"answers": compared}, bad


def orbit_sum_mismatches(bound: int) -> tuple[dict[str, int], list[str]]:
    """The forms of ``catalog(bound)`` where the coordinates of some r -
    theta(r) in the restricted base are not r's white coefficients summed
    over each arrow orbit, with how many roots were compared.  By
    linearity r - theta(r) is the sum over white j of r_j (alpha_j -
    theta(alpha_j)), whose vectors are equal on an orbit, and the base
    lists each orbit's vector at its first node; so the reference costs
    O(n) per root."""
    compared, bad = 0, []
    for rec in catalog(bound):
        d = rec.diagram
        rr, perm = restricted_roots(d), satake_automorphism(d)
        firsts = [j for j in d.whites if perm[j] >= j]
        _, vectors = involution._root_vectors(d)
        for r, v in zip(d.rs.positive_roots, vectors):
            if any(r[j] for j in d.whites):
                compared += 1
                want = tuple(r[j] + r[perm[j]] if perm[j] != j else r[j] for j in firsts)
                if base_coordinates(rr.base, v) != want:
                    bad.append(rec.name)
                    break
    return {"roots": compared}, bad


# Helgason, Differential Geometry, Lie Groups, and Symmetric Spaces, Ch. X,
# Table VI: the twelve non-compact exceptional forms' restricted type and
# multiplicities, the long roots first.
_HELGASON_EXCEPTIONAL = {
    "e6(6)": ("E6", {1: 36}),
    "e6(2)": ("F4", {1: 12, 2: 12}),
    "e6(-14)": ("BC2", {6: 2, 8: 2, 1: 2}),
    "e6(-26)": ("A2", {8: 3}),
    "e7(7)": ("E7", {1: 63}),
    "e7(-5)": ("F4", {1: 12, 4: 12}),
    "e7(-25)": ("C3", {1: 3, 8: 6}),
    "e8(8)": ("E8", {1: 120}),
    "e8(-24)": ("F4", {1: 12, 8: 12}),
    "f4(4)": ("F4", {1: 24}),
    "f4(-20)": ("BC1", {8: 1, 7: 1}),
    "g2(2)": ("G2", {1: 6}),
}
_POSITIVE_COUNT = {"A": lambda r: r * (r + 1) // 2, "B": lambda r: r * r, "C": lambda r: r * r,
                   "D": lambda r: r * (r - 1), "E": {6: 36, 7: 63, 8: 120}.get,
                   "F": lambda r: 24, "G": lambda r: 6}


def _label(family: str, rank: int) -> str:
    """A type in the package's naming, where C1 = B1 = A1, C2 = B2 and D3 = A3."""
    return {("B", 1): "A1", ("C", 1): "A1", ("C", 2): "B2", ("D", 3): "A3"}.get(
        (family, rank), f"{family}{rank}"
    )


def _classical(family: str, q: int, pair: int, short: int = 0, long: int = 0):
    """A rank-q system of type B, C, D or BC whose q(q - 1) roots e_i +- e_j
    have multiplicity ``pair``, its q roots e_i ``short`` and its q roots
    2e_i ``long``, a zero multiplicity meaning no such roots."""
    mult = Counter({pair: q * (q - 1)}) + Counter({short: q}) + Counter({long: q})
    del mult[0]
    return (f"BC{q}" if family == "BC" else _label(family, q)), mult


def helgason(name: str) -> tuple[str | None, Counter]:
    """The restricted type and the multiset of multiplicities of the real
    form a catalog name denotes, by Helgason's closed forms (Table VI)."""
    if name in _HELGASON_EXCEPTIONAL:
        label, mult = _HELGASON_EXCEPTIONAL[name]
        return label, Counter(mult)
    if m := re.fullmatch(r"(su|so|sp)\((\d+),(\d+)\)", name):
        p, q = sorted((int(m[2]), int(m[3])), reverse=True)
        if m[1] == "su":  # BC_q (2, 2(p - q), 1), or C_q (2, 1)
            return _classical("BC" if p > q else "C", q, 2, 2 * (p - q), 1)
        if m[1] == "so":  # B_q (1, p - q), or D_q (1)
            return _classical("B" if p > q else "D", q, 1, p - q)
        return _classical("BC" if p > q else "C", q, 4, 4 * (p - q), 3)  # BC_q (4, 4(p - q), 3), or C_q (4, 3)
    if m := re.fullmatch(r"sp\((\d+),R\)", name):  # C_l (1)
        return _classical("C", int(m[1]) // 2, 1, 0, 1)
    if m := re.fullmatch(r"so\*\((\d+)\)", name):  # so*(2n): C_{n/2} (4, 1), or BC_{(n-1)/2} (4, 4, 1)
        n = int(m[1]) // 2
        return _classical("C", n // 2, 4, 0, 1) if n % 2 == 0 else _classical("BC", n // 2, 4, 4, 1)
    if m := re.fullmatch(r"sl\((\d+),R\)|su\*\((\d+)\)", name):  # A_{n-1} (1), and sl(n/2, H): A_{n/2-1} (4)
        k, mult = (int(m[1]), 1) if m[1] else (int(m[2]) // 2, 4)
        return _label("A", k - 1), Counter({mult: k * (k - 1) // 2})
    if m := re.fullmatch(r"(sl|so|sp)\((\d+),C\)|([efg]\d)\(C\)", name):  # complex, as real: (2)
        if m[3]:
            family, rank = m[3][0].upper(), int(m[3][1])
        else:
            n = int(m[2])
            family, rank = {"sl": ("A", n - 1), "sp": ("C", n // 2), "so": ("BD"[n % 2 == 0], n // 2)}[m[1]]
        return _label(family, rank), Counter({2: _POSITIVE_COUNT[family](rank)})
    if re.fullmatch(r"s[uop]\(\d+\)|[efg]\d", name):  # compact
        return None, Counter()
    raise ValueError(f"no closed form for {name!r}")


def helgason_mismatches(bound: int) -> tuple[dict[str, int], list[str]]:
    """Every form of ``catalog(bound)`` whose restricted type and multiset of
    multiplicities differ from Helgason's closed forms, by its first name;
    with how many forms were compared."""
    forms = catalog(bound)
    bad = []
    for rec in forms:
        rr = restricted_roots(rec.diagram)
        if (rr.label, Counter(rr.multiplicity.values())) != helgason(rec.name):
            bad.append(rec.name)
    return {"forms": len(forms)}, bad


def _cartan_by_bilinear(rs, base) -> tuple | None:
    """``2 B(b_k, b_l) / B(b_k, b_k)`` through the public ``bilinear``, or
    None unless every diagonal form is positive, every entry integral and
    every off-diagonal one at most 0."""
    rows = []
    for k, b in enumerate(base):
        norm = rs.bilinear(b, b)
        if norm <= 0:
            return None
        row = [Fraction(2 * rs.bilinear(b, c), norm) for c in base]
        if any(x.denominator != 1 or (k != m and x > 0) for m, x in enumerate(row)):
            return None
        rows.append(tuple(map(int, row)))
    return tuple(rows)


def restricted_cartan_mismatches(diagrams) -> list[str]:
    """The restricted Cartan matrix that each diagram's restricted stage,
    run afresh, hands the label memo, or None when it hands none, against
    ``_cartan_by_bilinear`` of its base; the mismatched diagrams' texts."""
    label, seen, bad = involution._label, [], []
    involution._label = lambda cartan, doubled: seen.append(cartan) or label(cartan, doubled)
    try:
        for d in diagrams:
            seen.clear()
            rr = restricted_roots(SatakeDiagram(d.types, d.black, d.arrows))
            if (seen[0] if seen else None) != _cartan_by_bilinear(d.rs, rr.base):
                bad.append(format_diagram(d))
    finally:
        involution._label = label
    return bad


def catalog_cartan_mismatches(bound: int) -> tuple[dict[str, int], list[str]]:
    """``restricted_cartan_mismatches`` over ``catalog(bound)``, with how
    many forms there are."""
    forms = catalog(bound)
    return {"forms": len(forms)}, restricted_cartan_mismatches(rec.diagram for rec in forms)


def accepted_census_sample(count: int, seed: int) -> list[SatakeDiagram]:
    """Seeded census candidates that ``validate`` accepts: a simple or doubled
    type of rank at most 8 per component, a random black set and a random
    involutive diagram automorphism, arrowed on its 2-cycles of whites."""
    rng = random.Random(seed)
    names = [f"{f}{n}" for f in _FAMILIES for n in range(1, 9) if _rank_ok(f, n)]
    involutions, out = {}, []
    while len(out) < count:
        types = (rng.choice(names),) * rng.choice((1, 2))
        rs = build_root_system(types)
        n = rs.n
        if types not in involutions:
            autos = diagram_automorphisms(rs.cartan)
            involutions[types] = [g for g in autos if all(g[g[i]] == i for i in range(n))]
        g = rng.choice(involutions[types])
        black = {i for i in range(n) if rng.random() < 0.5}
        arrows = [(i, g[i]) for i in range(n) if i < g[i] and not {i, g[i]} & black]
        d = SatakeDiagram(types, black, arrows)
        if validate(d).ok:
            out.append(d)
    return out


class TestRestrictedCartan:
    """The type label's Cartan matrix, read off coroot pairings at each base
    vector's first white node, against the invariant form."""

    def test_accepted_census_candidates(self):
        sample = accepted_census_sample(300, seed=5)
        assert not restricted_cartan_mismatches(sample)


def _read_out_digest(texts, coordinates) -> str:
    h = hashlib.sha256()
    for text, coords in zip(texts, coordinates):
        h.update(text.encode())
        h.update(repr(coords).encode())
    return h.hexdigest()


def test_read_out_misses_in_a_fresh_process(full_catalog):
    # In this process earlier tests have filled the memos; in a fresh
    # interpreter one pass misses on every call and keeps each answer
    # once, and a second pass hands out the very same objects.
    code = (
        "import sys\n"
        "from operator import is_\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from test_involution import _read_out_digest\n"
        "from satake import base_coordinates, catalog, involution, restricted_roots\n"
        "def read_out():\n"
        "    rrs = [restricted_roots(rec.diagram) for rec in catalog()]\n"
        "    texts = [involution.restricted_to_json(rr) for rr in rrs]\n"
        "    return texts, [[base_coordinates(rr.base, v) for v in rr.positive] for rr in rrs]\n"
        "texts, coords = read_out()\n"
        "print(_read_out_digest(texts, coords))\n"
        "print(len(involution._coordinates_memo))\n"
        "again = read_out()\n"
        "print(all(map(is_, texts + sum(coords, []), again[0] + sum(again[1], []))))\n"
    )
    proc = fresh_python(code, str(Path(__file__).parent), check=True)
    rrs = [restricted_roots(rec.diagram) for rec in full_catalog]
    want = _read_out_digest(
        [_stdlib_json(rr) for rr in rrs],
        [[_span_solve(rr.base, v) for v in rr.positive] for rr in rrs],
    )
    pairs = sum(len(rr.positive) for rr in rrs)
    assert proc.stdout.split() == [want, str(pairs), "True"]


@st.composite
def _base_and_vector(draw):
    """A base whose vectors each own one or two private columns (two
    equal ones, as in a doubled type, or two unrelated ones), a few
    shared columns, the columns shuffled; and a vector that is an
    integer combination divided by a small integer that divides it, or
    is arbitrary."""
    nonzero = st.integers(-4, 4).filter(bool)
    m = draw(st.integers(0, 4))
    columns = []
    for i in range(m):
        entry = draw(nonzero)
        owned = [entry]
        if draw(st.booleans()):
            owned.append(entry if draw(st.booleans()) else draw(nonzero))
        columns += [tuple(x if j == i else 0 for j in range(m)) for x in owned]
    columns += draw(st.lists(st.tuples(*[st.integers(-3, 3)] * m), max_size=3))
    columns = draw(st.permutations(columns)) if columns else [()]
    base = tuple(zip(*columns))
    n = len(columns)
    if draw(st.booleans()):
        ks = draw(st.tuples(*[st.integers(-3, 3)] * m))
        vec = [sum(k * b[j] for k, b in zip(ks, base)) for j in range(n)]
        g = draw(st.sampled_from([g for g in (1, 2, 3, 4) if all(x % g == 0 for x in vec)]))
        vec = [x // g for x in vec]
        if draw(st.booleans()):  # nudged, which may or may not leave the span
            vec[draw(st.integers(0, n - 1))] += draw(nonzero)
    else:
        vec = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    return base, tuple(vec)


@settings(max_examples=400, deadline=None)
@given(_base_and_vector())
def test_base_coordinates_equals_a_fraction_solve(case):
    base, vec = case
    want = _span_solve(base, vec)
    # again from the memo, with lists for tuples
    for args in ((base, vec), ([list(b) for b in base], list(vec))):
        if want is None:
            with pytest.raises(ValueError, match="not in the span"):
                base_coordinates(*args)
        else:
            got = base_coordinates(*args)
            assert got == want and all(type(c) is Fraction for c in got)
