"""Census inputs and the lattice-involution oracle the benchmark owns.

The census space holds every simple type of rank at most 8 and every
doubled type ``TxT``, times every black node set, times every diagram
automorphism ``w`` of order at most 2; the arrows are all 2-cycles of
``w``.  Distinct (black set, ``w``) pairs give distinct diagrams, so a
draw without repeated indices never repeats a diagram.

The oracle recomputes the roots by closing the simple roots under
simple reflections, independently of the package's own root
generation, and checks an accepted involution against them.
"""

from __future__ import annotations

import random
from functools import lru_cache

Matrix = tuple[tuple[int, ...], ...]

SIMPLE_TYPES = (
    [f"A{r}" for r in range(1, 9)]
    + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(2, 9)]
    + [f"D{r}" for r in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
# Per-type cap on drawn indices, above the rounds of the longest run
# (``--seconds 60``); a type with fewer candidates drops out of later
# rounds rather than repeating an input.
DRAW_CAP = 1000


def automorphisms(cartan: Matrix) -> list[tuple[int, ...]]:
    """All node permutations preserving the Cartan matrix (backtracking)."""
    n = len(cartan)
    sig = [
        tuple(sorted((cartan[i][j], cartan[j][i]) for j in range(n) if j != i and cartan[i][j]))
        for i in range(n)
    ]
    out: list[tuple[int, ...]] = []
    perm = [-1] * n
    used = [False] * n

    def extend(i: int) -> None:
        if i == n:
            out.append(tuple(perm))
            return
        for c in range(n):
            if used[c] or sig[c] != sig[i]:
                continue
            if all(
                cartan[i][j] == cartan[c][perm[j]] and cartan[j][i] == cartan[perm[j]][c]
                for j in range(i)
            ):
                perm[i] = c
                used[c] = True
                extend(i + 1)
                used[c] = False
        perm[i] = -1

    extend(0)
    return out


class CensusType:
    """One stratum of the census: a (possibly doubled) type and its involutions."""

    def __init__(self, comps: tuple[str, ...], cartan: Matrix):
        self.comps = comps
        self.n = len(cartan)
        self.involutions = [
            w for w in automorphisms(cartan) if all(w[w[i]] == i for i in range(self.n))
        ]
        self.size = len(self.involutions) << self.n

    def candidate(self, k: int) -> tuple[tuple[str, ...], tuple[int, ...], tuple[tuple[int, int], ...]]:
        w = self.involutions[k >> self.n]
        black = tuple(i for i in range(self.n) if k >> i & 1)
        arrows = tuple((i, w[i]) for i in range(self.n) if i < w[i])
        return self.comps, black, arrows


def census_types(build_root_system) -> list[CensusType]:
    out = []
    for t in SIMPLE_TYPES:
        for comps in ((t,), (t, t)):
            out.append(CensusType(comps, build_root_system(list(comps)).cartan))
    return out


def draw(types: list[CensusType], seed: int):
    """Endless seeded rounds; each round takes the next unused index of every
    type that has one left, in a fresh seeded order."""
    rng = random.Random(seed)
    orders = [rng.sample(range(t.size), min(t.size, DRAW_CAP)) for t in types]
    for pos in range(DRAW_CAP):
        active = [ti for ti in range(len(types)) if pos < len(orders[ti])]
        rng.shuffle(active)
        yield [types[ti].candidate(orders[ti][pos]) for ti in active]


def catalog_key(text: str):
    """(types, black, arrows) of a diagram text, 0-based, as ``candidate`` gives them."""
    type_part, black_part, arrow_part = text.split(" ")
    black = black_part[len("black="):]
    arrows = arrow_part[len("arrows="):]
    return (
        tuple(type_part.split("x")),
        tuple(sorted(int(i) - 1 for i in black.split(",") if i)),
        tuple(
            sorted(
                tuple(sorted(int(x) - 1 for x in pair.split(":")))
                for pair in arrows.split(",")
                if pair
            )
        ),
    )


def root_closure(cartan: Matrix) -> frozenset[tuple[int, ...]]:
    """Every root (both signs), by closing the simple roots under reflections."""
    n = len(cartan)
    frontier = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    found = set(frontier)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                c = sum(cartan[i][j] * v[j] for j in range(n))
                if c:
                    w = v[:i] + (v[i] - c,) + v[i + 1:]
                    if w not in found:
                        found.add(w)
                        nxt.append(w)
        frontier = nxt
    return frozenset(found)


roots = lru_cache(maxsize=None)(root_closure)


def theta_failures(cartan: Matrix, black, theta: Matrix) -> list[str]:
    """Laws an accepted lattice involution must satisfy; empty when all hold."""
    n = len(cartan)
    fails = []

    def apply(v):
        return tuple(sum(theta[i][j] * v[j] for j in range(n)) for i in range(n))

    cols = [tuple(theta[i][j] for i in range(n)) for j in range(n)]
    if any(apply(cols[j]) != tuple(1 if i == j else 0 for i in range(n)) for j in range(n)):
        fails.append("theta does not square to the identity")
    for b in black:
        if cols[b] != tuple(1 if i == b else 0 for i in range(n)):
            fails.append(f"black simple root {b + 1} moves")
    all_roots = roots(cartan)
    whites = [i for i in range(n) if i not in black]
    for r in all_roots:
        img = apply(r)
        if img not in all_roots:
            fails.append(f"image of root {r} is not a root")
            break
        if min(r) >= 0 and any(r[i] for i in whites) and max(img) > 0:
            fails.append(f"white-supported positive root {r} keeps a positive image")
            break
    return fails


def positive_count(cartan: Matrix, black) -> tuple[int, int]:
    """Number of positive roots and of those supported on the black nodes."""
    pos = [r for r in roots(cartan) if min(r) >= 0]
    blk = set(black)
    return len(pos), sum(1 for r in pos if all(r[i] == 0 or i in blk for i in range(len(r))))
