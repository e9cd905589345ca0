"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Derived values are checked against independent oracles:
classification against a closed-form rule on the real-form names,
restricted roots against exhaustive Weyl-subgroup enumeration, Weyl
groups against breadth-first matrix closure.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

from conftest import (
    components_by_matrix_scan, enumerate_weyl, fresh_python, positive_roots_by_orbit,
)
from satake.realforms import classify, lookup
from satake.diagram import format_diagram, parse_diagram
from satake.involution import (
    black_corrections,
    dual_cartan_involution,
    restricted_roots,
    satake_automorphism,
)
from satake.rootsys import (
    SimpleType,
    build_root_system,
    identify_cartan,
    identity_matrix,
    longest_element,
    mat_mul,
    word_matrix,
)
from satake.verdict import (
    COMPLETION_ORDER,
    CONJUGACY_ORDER,
    HOMOGENEOUS_ORDER,
    TABLE,
    SubgroupHypotheses,
    real_structure_verdict,
    verdict_to_json,
)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS ({time.perf_counter() - t0:.2f}s)")


def expected_identity(name: str) -> bool:
    """Closed-form classification rule, stated on the name alone."""
    if name.endswith("C)"):
        return False  # complex algebra viewed as real: components swap
    if name.startswith("su*(") or name.startswith("sl(") or name.startswith("sp("):
        return True
    if name.startswith("so*("):
        return (int(name[4:-1]) // 2) % 2 == 0
    if name.startswith("su("):
        inner = name[3:-1]
        return "," not in inner and int(inner) <= 2
    if name.startswith("so("):
        inner = name[3:-1]
        if "," in inner:
            p, q = sorted(int(x) for x in inner.split(","))
            return (p + q) % 2 == 1 or ((p + q) // 2 - p) % 2 == 0
        n = int(inner)
        return n % 2 == 1 or (n // 2) % 2 == 0
    if name.startswith("e6"):
        return name in ("e6(6)", "e6(-26)")
    return True  # every e7, e8, f4 and g2 form


def test_criterion_1_classification_matches_rule():
    with criterion(1, "exact classification of catalogued real forms"):
        t0 = time.perf_counter()
        table = classify(8)
        elapsed = time.perf_counter() - t0
        mismatches = [
            (row.name, row.is_identity)
            for row in table.rows
            if row.is_identity != expected_identity(row.name)
        ]
        assert mismatches == []
        assert len(table.rows) == 205
        assert elapsed < 5.0, f"classification took {elapsed:.2f}s"


def test_criterion_2_action_characterization(full_catalog):
    with criterion(2, "arrow swaps on whites, forced flips on painted parts"):
        for rec in full_catalog:
            d = rec.diagram
            perm = satake_automorphism(d)
            paired = {i: j for i, j in d.arrows} | {j: i for i, j in d.arrows}
            for i in d.whites:
                assert perm[i] == paired.get(i, i), rec.name
            c = d.rs.cartan
            for comp in components_by_matrix_scan(c, d.black):
                t = identify_cartan(tuple(tuple(c[i][j] for j in comp) for i in comp))
                moved = any(perm[i] != i for i in comp)
                flips = (
                    (t.family == "A" and t.rank >= 2)
                    or (t.family == "D" and t.rank % 2 == 1)
                    or t == SimpleType("E", 6)
                )
                assert sorted(perm[i] for i in comp) == list(comp), rec.name
                assert moved == flips, (rec.name, str(t))


def _involution_laws(d, tag):
    rs = d.rs
    n = d.n
    perm = satake_automorphism(d)
    assert sorted(perm) == list(range(n)), tag
    assert all(perm[perm[i]] == i for i in range(n)), tag
    assert all(
        rs.cartan[perm[i]][perm[j]] == rs.cartan[i][j] for i in range(n) for j in range(n)
    ), tag
    theta = dual_cartan_involution(d)
    assert mat_mul(theta, theta) == identity_matrix(n), tag
    for j in d.black:
        assert tuple(theta[i][j] for i in range(n)) == rs.simple_root(j), tag
    pos = rs.positive_root_set
    for r in rs.positive_roots:
        img = tuple(sum(theta[i][j] * r[j] for j in range(n)) for i in range(n))
        neg = tuple(-x for x in img)
        assert img in pos or neg in pos, tag
        if any(r[k] for k in d.whites):
            assert neg in pos, tag
    w = word_matrix(rs, longest_element(rs, d.black))
    m_eps = tuple(tuple(1 if i == perm[j] else 0 for j in range(n)) for i in range(n))
    minus_theta = tuple(tuple(-x for x in row) for row in theta)
    assert mat_mul(w, minus_theta) == m_eps, tag
    assert mat_mul(minus_theta, w) == m_eps, tag
    corr = black_corrections(d)
    for i in d.whites:
        assert set(corr[i]) == set(d.black), tag
        assert all(v >= 0 for v in corr[i].values()), tag


def test_criterion_3_involution_laws(full_catalog, random_diagrams_500):
    with criterion(3, "involution laws on catalog plus 500 random valid diagrams"):
        for rec in full_catalog:
            _involution_laws(rec.diagram, rec.name)
        for k, d in enumerate(random_diagrams_500):
            _involution_laws(d, f"random[{k}] {format_diagram(d)}")


def _reflection_matrix(cartan, i):
    n = len(cartan)
    return tuple(
        tuple((1 if i == j else 0) - cartan[i][j] if k == i else (1 if k == j else 0) for j in range(n))
        for k in range(n)
    )


def _oracle_restricted(d):
    """Restricted multiplicities by exhaustive painted-Weyl enumeration.

    Independent path: roots come from the reflection-orbit oracle, the
    longest painted element from a breadth-first closure over reflection
    matrices (picked as the unique element negating every painted
    positive root), and the node involution directly from the arrows
    plus that element.
    """
    rs = d.rs
    n = d.n
    cartan = rs.cartan
    pos = sorted(positive_roots_by_orbit(rs))
    pos_set = set(pos)
    gens = [_reflection_matrix(cartan, i) for i in sorted(d.black)]
    ident = identity_matrix(n)
    group = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = mat_mul(g, m)
                if p not in group:
                    group.add(p)
                    nxt.append(p)
        frontier = nxt
    painted_pos = [r for r in pos if all(r[k] == 0 or k in d.black for k in range(n))]

    def image(m, v):
        return tuple(sum(m[i][j] * v[j] for j in range(n)) for i in range(n))

    longest = [
        m
        for m in group
        if all(tuple(-x for x in image(m, r)) in pos_set for r in painted_pos)
    ]
    assert len(longest) == 1
    w0 = longest[0]

    eps = list(range(n))
    for i, j in d.arrows:
        eps[i], eps[j] = j, i
    basis = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    for i in sorted(d.black):
        neg = tuple(-x for x in image(w0, basis[i]))
        eps[i] = basis.index(neg)

    def theta(v):
        # theta(alpha_j) = -w0(alpha_{eps(j)}): permute the columns, then negate w0
        cols = [tuple(-x for x in image(w0, basis[eps[j]])) for j in range(n)]
        return tuple(sum(cols[j][i] * v[j] for j in range(n)) for i in range(n))

    mult = {}
    for r in pos:
        s = tuple(a - b for a, b in zip(r, theta(r)))
        if any(s):
            mult[s] = mult.get(s, 0) + 1
    base = []
    for i in range(n):
        if i in d.black:
            continue
        b = tuple(a - b for a, b in zip(basis[i], theta(basis[i])))
        if b not in base:
            base.append(b)
    return mult, tuple(base)


def test_criterion_4_restricted_against_bruteforce():
    named = {
        "su(2,1)": "BC1",
        "su(2,2)": "B2",
        "so(2,3)": "B2",
        "so(1,7)": "A1",
        "sl(2,H)": "A1",
    }
    compacts = [
        "su(2)", "su(3)", "su(4)", "su(5)",
        "so(5)", "so(7)", "so(9)",
        "sp(2)", "sp(3)", "sp(4)",
        "so(6)", "so(8)",
        "f4", "g2",
    ]
    with criterion(4, "restricted roots match exhaustive Weyl-subgroup oracle"):
        for name, label in named.items():
            d = lookup(name).diagram
            rr = restricted_roots(d)
            mult, base = _oracle_restricted(d)
            assert rr.multiplicity == mult, name
            assert rr.base == base, name
            assert rr.label == label, name
        for name in compacts:
            d = lookup(name).diagram
            assert all(t.rank <= 4 for t in d.types), name
            rr = restricted_roots(d)
            mult, base = _oracle_restricted(d)
            assert mult == {} and rr.multiplicity == {}, name
            assert rr.base == base == (), name
            assert rr.label is None, name


def test_criterion_5_weyl_enumeration_rank_3():
    orders = {
        "A1": 2,
        "A2": 6,
        "A3": 24,
        "B2": 8,
        "C2": 8,
        "B3": 48,
        "C3": 48,
        "D3": 24,
        "G2": 12,
    }
    with criterion(5, "exhaustive Weyl enumeration for every type of rank <= 3"):
        t0 = time.perf_counter()
        for name, order in orders.items():
            rs = build_root_system([name])
            elements = enumerate_weyl(rs)
            assert len(elements) == order, name
            npos = len(rs.positive_roots)
            lengths = sorted(len(w) for w in elements.values())
            assert lengths[0] == 0 and lengths[-1] == npos, name
            assert sum(1 for w in elements.values() if len(w) == npos) == 1, name
            for matrix, word in elements.items():
                assert word_matrix(rs, word) == matrix, name
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"enumeration took {elapsed:.2f}s"


def test_criterion_6_doubled_diagrams_swap(full_catalog):
    with criterion(6, "doubled diagrams swap components and are never identity"):
        doubled = [rec for rec in full_catalog if rec.diagram.is_doubled]
        assert len(doubled) == 33
        rows = {row.name: row for row in classify(8).rows}
        for rec in doubled:
            r = rec.diagram.types[0].rank
            perm = satake_automorphism(rec.diagram)
            assert all(perm[i] >= r for i in range(r)), rec.name
            assert all(perm[i] < r for i in range(r, 2 * r)), rec.name
            assert not rows[rec.name].is_identity, rec.name
        assert lookup("sl(2,C) as real").diagram.is_doubled


def _verdict_axes(v):
    return (
        CONJUGACY_ORDER.index(v.subgroup_conjugacy),
        int(v.equivariant_map_exists),
        HOMOGENEOUS_ORDER.index(v.real_structure_on_homogeneous_space),
        COMPLETION_ORDER.index(v.real_structure_on_completion),
    )


def test_criterion_7_verdicts(full_catalog):
    golden_cases = [
        ("identity_spherical_selfnormalizing", "sl(3,R)", SubgroupHypotheses(True, True)),
        ("identity_spherical", "sl(3,R)", SubgroupHypotheses(True, False)),
        ("identity_nonspherical", "sl(3,R)", SubgroupHypotheses(False, False)),
        ("nonidentity", "su(2,1)", SubgroupHypotheses(True, True)),
    ]
    combos = [
        SubgroupHypotheses(False, False),
        SubgroupHypotheses(False, True),
        SubgroupHypotheses(True, False),
        SubgroupHypotheses(True, True),
    ]
    with criterion(7, "verdict golden fixtures and hypothesis monotonicity"):
        for tag, name, hyp in golden_cases:
            v = real_structure_verdict(lookup(name).diagram, hyp)
            expected = (GOLDEN / f"verdict_{tag}.json").read_text()
            assert verdict_to_json(v) + "\n" == expected, tag
        for rec in full_catalog:
            axes = {
                (h.spherical, h.self_normalizing): _verdict_axes(
                    real_structure_verdict(rec.diagram, h)
                )
                for h in combos
            }
            for weak, wa in axes.items():
                for strong, sa in axes.items():
                    if weak[0] <= strong[0] and weak[1] <= strong[1]:
                        assert all(x <= y for x, y in zip(wa, sa)), rec.name
            for h in combos:
                v = real_structure_verdict(rec.diagram, h)
                # one of the decision table's four records, not a copy
                assert any(v is row for row in TABLE), rec.name
                if v.real_structure_on_homogeneous_space == "exists-unique":
                    assert v.equivariant_map_exists, rec.name
                assert v.caveats[0].startswith("conclusions are stated"), rec.name


def test_criterion_8_round_trip_and_deterministic_json(full_catalog, random_diagrams_1000):
    with criterion(8, "text round-trips and cross-process JSON determinism"):
        for rec in full_catalog:
            assert format_diagram(parse_diagram(rec.text)) == rec.text, rec.name
            assert parse_diagram(format_diagram(rec.diagram)) == rec.diagram, rec.name
        for k, d in enumerate(random_diagrams_1000):
            assert parse_diagram(format_diagram(d)) == d, k
        first = fresh_python(["classify", "--json"], check=True).stdout
        second = fresh_python(["classify", "--json"], check=True).stdout
        assert first == second
        assert json.loads(first)["rank_bound"] == 8
