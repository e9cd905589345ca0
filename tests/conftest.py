"""Shared oracles and fixtures.

The helpers here deliberately avoid the package's own shortcuts:
``enumerate_weyl`` multiplies reflection matrices breadth-first instead
of reusing ``longest_element``, ``roots_by_orbit`` closes the simple
roots under reflections instead of walking root strings, and
``positive_roots_by_strings`` walks each root string down through the
roots found so far instead of carrying each root's pairings.  Tests
compare the two sides.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import satake
from satake.diagram import ValidationReport
from satake.errors import DiagramDataError
from satake.involution import satake_automorphism
from satake.rootsys import Matrix, RootSystem, identity_matrix, mat_mul, word_matrix


WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def fresh_python(code_or_argv, *args: str, flags: str = "", **run) -> subprocess.CompletedProcess:
    """A fresh interpreter, with its ``flags`` (``"-S"``, ``"-X dev -W error"``),
    running either ``-c`` code, a ``str`` whose ``sys.argv[1:]`` are ``args``,
    or ``satake.cli`` with an argv, a list.  It imports this checkout's
    ``satake``; its output is captured as text, and ``run`` (``check=``,
    ``timeout=``) goes to ``subprocess.run``."""
    if isinstance(code_or_argv, str):
        cmd = ["-c", code_or_argv, *args]
    else:
        cmd = ["-m", "satake.cli", *code_or_argv]
    env = {**os.environ, "PYTHONPATH": str(Path(satake.__file__).parents[1])}
    argv = [sys.executable, *flags.split(), *cmd]
    return subprocess.run(argv, capture_output=True, text=True, env=env, **run)


def workflow_steps() -> list[str]:
    """The text of each step of the CI workflow, from its first line."""
    return WORKFLOW.read_text(encoding="utf-8").split("\n      - ")[1:]


def enumerate_weyl(rs: RootSystem) -> dict[Matrix, tuple[int, ...]]:
    """All Weyl group elements as lattice matrices, with one reduced word each.

    Breadth-first closure under left multiplication by simple
    reflections, so the stored word for an element found at depth k has
    length k and is reduced.  Words follow the leftmost-applied-last
    convention.
    """
    gens = [word_matrix(rs, (i,)) for i in range(rs.n)]
    seen: dict[Matrix, tuple[int, ...]] = {identity_matrix(rs.n): ()}
    frontier = [identity_matrix(rs.n)]
    while frontier:
        nxt = []
        for m in frontier:
            wd = seen[m]
            for i, g in enumerate(gens):
                prod = mat_mul(g, m)
                if prod not in seen:
                    seen[prod] = (i,) + wd
                    nxt.append(prod)
        frontier = nxt
    return seen


def roots_by_orbit(rs: RootSystem) -> frozenset[tuple[int, ...]]:
    """All roots, computed as the reflection orbit of the simple roots."""
    current = {rs.simple_root(i) for i in range(rs.n)}
    current |= {tuple(-x for x in r) for r in current}
    frontier = current
    while frontier:  # each root found is reflected once, in the round after it is found
        grown = set()
        for r in frontier:
            for i in range(rs.n):
                c = rs.pairing(r, i)
                img = list(r)
                img[i] -= c
                grown.add(tuple(img))
        frontier = grown - current
        current |= frontier
    return frozenset(current)


def reflect_simple(rs: RootSystem, i: int, v) -> tuple[int, ...]:
    """The simple reflection ``s_i`` by its definition; only coordinate ``i`` changes."""
    if not 0 <= i < rs.n:
        raise IndexError(f"node index {i} out of range for a rank-{rs.n} system")
    out = list(v)
    out[i] -= rs.pairing(v, i)
    return tuple(out)


def is_root(rs: RootSystem, v) -> bool:
    """Whether ``v`` or its negative is a positive root of ``rs``."""
    t = tuple(v)
    return t in rs.positive_root_set or tuple(-x for x in t) in rs.positive_root_set


def positive_roots_by_orbit(rs: RootSystem) -> frozenset[tuple[int, ...]]:
    return frozenset(r for r in roots_by_orbit(rs) if all(x >= 0 for x in r))


def positive_roots_by_strings(cartan: Matrix) -> tuple[tuple[int, ...], ...]:
    """The positive roots of ``cartan``, by height then lexicographically.

    Height by height, the alpha_i-string through beta has
    ``q = p - <beta, alpha_i^vee>`` steps up, where p counts the steps
    down that stay among the roots found so far, each step recomputed.
    """
    n = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    found: set[tuple[int, ...]] = set(simple)
    ordered: list[tuple[int, ...]] = []
    level = sorted(simple)
    while level:
        ordered.extend(level)
        nxt: set[tuple[int, ...]] = set()
        for beta in level:
            for i in range(n):
                pairing = sum(cartan[i][j] * beta[j] for j in range(n))
                p = 0
                down = tuple(x - y for x, y in zip(beta, simple[i]))
                while down in found:
                    p += 1
                    down = tuple(x - y for x, y in zip(down, simple[i]))
                if p - pairing >= 1:
                    up = tuple(x + y for x, y in zip(beta, simple[i]))
                    if up not in found:
                        nxt.add(up)
        found |= nxt
        level = sorted(nxt)
    return tuple(ordered)


def components_by_matrix_scan(cartan: Matrix, nodes) -> tuple[tuple[int, ...], ...]:
    """Connected components, sorted, of the diagram of ``cartan`` on
    ``nodes``: each node reached tests every remaining node against its
    Cartan row."""
    remaining = set(nodes)
    out = []
    while remaining:
        comp = [min(remaining)]
        remaining.remove(comp[0])
        for u in comp:
            linked = [v for v in remaining if cartan[u][v]]
            remaining.difference_update(linked)
            comp += linked
        out.append(tuple(sorted(comp)))
    return tuple(out)


def diagram_automorphisms(a: Matrix) -> list[tuple[int, ...]]:
    """Every node permutation keeping the Cartan matrix ``a``, found by
    extending a partial map one node at a time."""
    n = len(a)

    def extend(perm):
        i = len(perm)
        if i == n:
            yield tuple(perm)
            return
        for j in range(n):
            if j not in perm and all(
                a[perm[k]][j] == a[k][i] and a[j][perm[k]] == a[i][k] for k in range(i)
            ):
                yield from extend(perm + [j])

    return list(extend([]))


def matchings(nodes):
    """Every set of disjoint pairs of ``nodes``, the empty one included,
    each pair ascending when ``nodes`` is."""
    if not nodes:
        yield ()
        return
    first, rest = nodes[0], nodes[1:]
    yield from matchings(rest)
    for k, other in enumerate(rest):
        for m in matchings(rest[:k] + rest[k + 1 :]):
            yield ((first, other), *m)


def node_map_report(d) -> ValidationReport:
    """The node map's own report: what ``validate`` answered before Araki's rule."""
    try:
        satake_automorphism(d)
    except DiagramDataError as e:
        return ValidationReport(False, e.failures)
    return ValidationReport(True, ())


def sample_valid_diagrams(count: int, seed: int, rank_bound: int = 8) -> list:
    """Random diagrams whose node map passes, reproducibly seeded.

    Generation mixes four shapes: plain diagrams with random black sets,
    flip-stable black sets paired with the diagram flip, doubled systems
    with the component swap, and doubled systems with mirrored black
    sets.  Everything is filtered through ``node_map_report`` so the
    output only contains diagrams with a consistent involution; Araki's
    rule, which ``validate`` adds, is not applied, so some samples are of
    no real form.
    """
    from satake.diagram import SatakeDiagram
    from satake.rootsys import SimpleType, build_root_system

    rng = random.Random(seed)
    simple_types: list[SimpleType] = []
    for fam, ranks in (
        ("A", range(1, rank_bound + 1)),
        ("B", range(2, rank_bound + 1)),
        ("C", range(2, rank_bound + 1)),
        ("D", range(3, rank_bound + 1)),
        ("E", [r for r in (6, 7, 8) if r <= rank_bound]),
        ("F", [4] if rank_bound >= 4 else []),
        ("G", [2] if rank_bound >= 2 else []),
    ):
        simple_types.extend(SimpleType(fam, r) for r in ranks)

    def flip_of(t: SimpleType) -> list[int] | None:
        rs = build_root_system([t])
        n = t.rank
        if t.family == "A":
            perm = [n - 1 - i for i in range(n)]
        elif t.family == "D":
            perm = list(range(n))
            perm[n - 2], perm[n - 1] = perm[n - 1], perm[n - 2]
        elif t.family == "E" and n == 6:
            perm = [5, 1, 4, 3, 2, 0]
        else:
            return None
        keeps = tuple(perm) in diagram_automorphisms(rs.cartan)
        return perm if keeps and perm != list(range(n)) else None

    out: list = []
    attempts = 0
    while len(out) < count and attempts < count * 300:
        attempts += 1
        t = rng.choice(simple_types)
        n = t.rank
        mode = rng.random()
        try:
            if mode < 0.4:
                black = frozenset(i for i in range(n) if rng.random() < 0.4)
                cand = SatakeDiagram.create([t], black, ())
            elif mode < 0.7:
                perm = flip_of(t)
                if perm is None:
                    continue
                black = set()
                for i in range(n):
                    if rng.random() < 0.35:
                        black.add(i)
                        black.add(perm[i])
                arrows = tuple(
                    (i, perm[i]) for i in range(n) if i < perm[i] and i not in black
                )
                cand = SatakeDiagram.create([t], frozenset(black), arrows)
            elif mode < 0.9:
                use_flip = rng.random() < 0.5
                perm = flip_of(t) if use_flip else None
                inner = perm if perm is not None else list(range(n))
                arrows = tuple((i, n + inner[i]) for i in range(n))
                cand = SatakeDiagram.create([t, t], frozenset(), arrows)
            else:
                black_one = frozenset(i for i in range(n) if rng.random() < 0.4)
                black = frozenset(black_one) | frozenset(n + i for i in black_one)
                cand = SatakeDiagram.create([t, t], black, ())
        except Exception:
            continue
        if node_map_report(cand).ok:
            out.append(cand)
    if len(out) < count:
        raise RuntimeError(f"diagram sampler stalled at {len(out)}/{count}")
    return out


@pytest.fixture(autouse=True)
def _cold_parse_memo():
    """Each test starts with an empty parse memo, so counts of derivation
    work after ``parse_diagram`` do not depend on earlier tests."""
    from satake import diagram

    diagram._parse_memo.cache_clear()


@pytest.fixture(scope="session")
def full_catalog():
    from satake.realforms import catalog

    return catalog()


@pytest.fixture(scope="session")
def random_diagrams_500():
    return sample_valid_diagrams(500, seed=20240811)


@pytest.fixture(scope="session")
def random_diagrams_1000():
    return sample_valid_diagrams(1000, seed=7052991)
