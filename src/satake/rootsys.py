"""Exact root-system and Weyl-group combinatorics.

Everything is integer arithmetic in the simple-root basis: roots are
tuples of ints, the Cartan matrix is a tuple of int rows, and every
operation is a pure function over immutable values.

Conventions:

* Node indices run 0..n-1 with Bourbaki numbering inside each simple
  component; a doubled system numbers its second component after the
  first.
* ``cartan[i][j] = <alpha_j, alpha_i^vee>``, so the simple reflection
  acts by ``s_i(v) = v - <v, alpha_i^vee> alpha_i`` where
  ``<v, alpha_i^vee> = sum_j cartan[i][j] v[j]``; only coordinate ``i``
  of ``v`` changes.
* Words multiply with the leftmost letter applied last: the word
  ``(a, b)`` acts as ``s_a(s_b(v))``.
* Bourbaki's plates are stated once, in ``_layout``: the chain of each
  simple type and the one node that hangs off it in D and E.  The Cartan
  block, the symmetrizer and the diagram picture are all read from it.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from functools import lru_cache
from math import gcd
from operator import add, mul

from ._record import Record, stage

__all__ = ("RootSystem", "SimpleType", "apply_word", "build_root_system", "identify_cartan",
           "induced_node_permutation", "longest_element", "word_matrix")

Coords = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

_FAMILIES = tuple("ABCDEFG")  # letters, so that "AB" and "" are no family

# Largest rank of one simple component.  Root generation grows about as
# the fourth power of the rank; the split B32, C32 and D32 each build and
# derive in about 0.03 s (Python 3.11, 2-vCPU Xeon), so any type under the
# cap stays tractable and larger input cannot exhaust memory.
MAX_RANK = 32


def _rank_ok(family: str, rank: int) -> bool:
    if family == "A":
        return rank >= 1
    if family in ("B", "C"):
        return rank >= 2
    if family == "D":
        return rank >= 3
    if family == "E":
        return rank in (6, 7, 8)
    if family == "F":
        return rank == 4
    return rank == 2


class SimpleType(Record):
    """A simple Dynkin type, e.g. ``SimpleType("D", 4)``: one of the letters
    A-G and an ``int`` rank, not a bool.

    Rank bounds: A >= 1, B >= 2, C >= 2, D >= 3, E in {6, 7, 8}, F = 4,
    G = 2, and at most ``MAX_RANK`` in every family.  Low-rank
    coincidences are rejected rather than aliased, so D2 is not a type
    (use a doubled A1) and D3 carries its own Bourbaki numbering with the
    triple node first.
    """

    _fields = ("family", "rank")

    def __init__(self, family: str, rank: int):
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if type(rank) is not int:
            raise TypeError(f"a rank is an int, got {rank!r}")
        if not _rank_ok(family, rank):
            hint = " (use a doubled A1)" if (family == "D" and rank == 2) else ""
            raise ValueError(f"invalid simple type {family}{rank}{hint}")
        if rank > MAX_RANK:
            raise ValueError(f"rank {rank} is above the cap of {MAX_RANK} per simple component")
        self.__dict__.update(family=family, rank=rank, _key=(family, rank))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @classmethod
    def parse(cls, text: str) -> "SimpleType":
        m = re.fullmatch(r"([A-G])([0-9]+)", text) if isinstance(text, str) else None
        if not m:
            raise ValueError(f"not a simple type: {text!r}")
        return cls(m.group(1), int(m.group(2)))


def _layout(t: SimpleType) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Bourbaki's picture of one simple component (Plates I-IX).

    The chain of nodes, read left to right, and the branch: for D and E
    the one pair ``(hub, leaf)`` of a chain node and the node hanging off
    it, for every other family none.  Every bond joins chain neighbours
    or the branch, and each reaches a new node from one already read.
    """
    n = t.rank
    if t.family == "D":  # node n hangs off node n - 2
        return tuple(range(n - 1)), ((n - 3, n - 1),)
    if t.family == "E":  # the chain is nodes 1, 3, 4, ..., n; node 2 hangs off node 4
        return (0, *range(2, n)), ((3, 1),)
    return tuple(range(n)), ()


def _cartan_block(t: SimpleType) -> list[list[int]]:
    """Bourbaki Cartan matrix of one simple component: simple bonds along
    the ``_layout``, then the one multiple bond of B, C, F4 and G2."""
    n = t.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    chain, branch = _layout(t)
    for u, v in (*zip(chain, chain[1:]), *branch):
        a[u][v] = a[v][u] = -1
    if t.family == "B":
        a[n - 1][n - 2] = -2  # last root short
    elif t.family == "C":
        a[n - 2][n - 1] = -2  # last root long
    elif t.family == "F":
        a[2][1] = -2  # nodes 3, 4 short
    elif t.family == "G":
        a[0][1] = -3  # node 1 short
    return a


def _root_closure(cartan: Matrix) -> tuple[tuple[Coords, ...], Coords, Coords]:
    """Generate all positive roots by closing root strings upward, each
    with the predecessor it was first reached from.

    Height by height, each root carries its down-string lengths ``p`` and
    its pairings ``c[i] = <beta, alpha_i^vee>``; the string through beta
    has ``p[i] - c[i]`` steps up, so ``beta + alpha_i`` is a root exactly
    when ``p[i] > c[i]``, and it has ``p[i] + 1`` steps down along
    alpha_i and pairings ``c`` plus column i.  Every predecessor of a
    root lies one level below, so its ``p`` is complete before its own
    level is read.  Ordering is by height, then lexicographic, so the
    output is deterministic.  Returns the roots and parallel tuples
    ``(p, i)``: root ``k`` is ``alpha_{i[k]}`` if ``p[k]`` is -1, and
    ``roots[p[k]] + alpha_{i[k]}`` otherwise, with ``p[k] < k``.
    """
    n = len(cartan)
    cols = tuple(zip(*cartan))
    level = {tuple(int(j == i) for j in range(n)): ([0] * n, cols[i], -1, i) for i in range(n)}
    ordered, preds, nodes = [], [], []
    while level:
        nxt: dict[Coords, tuple[list[int], Coords, int, int]] = {}
        keys = sorted(level)
        for k, beta in enumerate(keys, len(ordered)):
            p, c, pred, node = level[beta]
            preds.append(pred)
            nodes.append(node)
            for i in range(n):
                if p[i] > c[i]:
                    up = (*beta[:i], beta[i] + 1, *beta[i + 1 :])
                    if up not in nxt:
                        nxt[up] = ([0] * n, tuple(map(add, c, cols[i])), k, i)
                    nxt[up][0][i] = p[i] + 1
        ordered += keys
        level = nxt
    return tuple(ordered), tuple(preds), tuple(nodes)


class RootSystem(Record):
    """Immutable Cartan data; the positive roots are closed on first use."""

    _fields = ("components", "cartan", "symmetrizer")

    @stage
    def n(self) -> int:
        return len(self.cartan)

    @stage
    def _closure(self) -> tuple[tuple[Coords, ...], Coords, Coords]:
        """``_root_closure`` of the Cartan matrix, kept with the system."""
        return _root_closure(self.cartan)

    @stage
    def positive_roots(self) -> tuple[Coords, ...]:
        """Sorted by height, then lexicographically."""
        return self._closure[0]

    @stage
    def _basis(self) -> tuple[Coords, ...]:
        return tuple(tuple(1 if j == i else 0 for j in range(self.n)) for i in range(self.n))

    def simple_root(self, i: int) -> Coords:
        _check_node(self, i)
        return self._basis[i]

    def pairing(self, v: Sequence[int], i: int) -> int:
        """``<v, alpha_i^vee>`` for ``v`` in simple-root coordinates."""
        _check_vector(self, v)
        _check_node(self, i)
        return sum(map(mul, self.cartan[i], v))

    @stage
    def _nbrs(self) -> tuple[tuple[int, ...], ...]:
        """The bonded neighbours of each node, ascending."""
        return tuple(
            tuple(j for j, x in enumerate(row) if x and j != i) for i, row in enumerate(self.cartan)
        )

    @stage
    def _identity(self) -> tuple[int, ...]:
        return tuple(range(self.n))

    @stage
    def _nodes(self) -> frozenset[int]:
        return frozenset(range(self.n))

    @stage
    def _black_table(self) -> dict:
        return {}  # black components' data by node tuple, filled in ``involution``

    @stage
    def positive_root_set(self) -> frozenset[Coords]:
        return frozenset(self.positive_roots)

    @stage
    def _predecessors(self) -> tuple[Coords, Coords]:
        """``_root_closure``'s parallel tuples ``(p, i)``: every positive
        root of height above one is a positive root plus a simple root, and
        ``p[k] < k``, so a linear map's images of all positive roots follow
        from its images of the simple roots in one pass.  Two tuples of
        small ints rather than a tuple of pairs: the table lives as long as
        the cached system, for every type in use."""
        return self._closure[1:]

    def bilinear(self, v: Sequence[int], w: Sequence[int]) -> int:
        """Invariant symmetric form with ``B(alpha_i, alpha_j) = d_i a_ij``."""
        _check_vector(self, v)
        _check_vector(self, w)
        return sum([x * d * sum(map(mul, row, w))
                    for x, d, row in zip(v, self.symmetrizer, self.cartan) if x])


def _components(types: Sequence[SimpleType | str]) -> tuple[SimpleType, ...]:
    """The components parsed, one type or two equal ones; else ``ValueError``."""
    if isinstance(types, str):
        raise ValueError(f"component types are not a sequence: {types!r}")
    comps = tuple([t if isinstance(t, SimpleType) else SimpleType.parse(t) for t in types])
    if not comps:
        raise ValueError("at least one simple type is required")
    if len(comps) > 2:
        raise ValueError("at most two components are supported")
    if len(comps) == 2 and comps[0] != comps[1]:
        raise ValueError(f"a doubled system needs two equal types, got {comps[0]} and {comps[1]}")
    return comps


def build_root_system(types: Sequence[SimpleType | str]) -> RootSystem:
    """The root system of one simple type or a doubled pair (a complex algebra
    as real), each given as a ``SimpleType`` or a string like ``"A3"``; one
    object per type, however it is spelt."""
    try:
        return _systems[types]
    except (KeyError, TypeError):  # not a tuple of canonical names: parsed, not stored
        comps = _components(types)
    key = tuple(map(str, comps))
    return _systems.get(key) or _systems.setdefault(key, _build(comps))


# The systems built, by canonical names such as ("A3",) or ("A3", "A3").
_systems: dict[tuple[str, ...], RootSystem] = {}


def _build(comps: tuple[SimpleType, ...]) -> RootSystem:
    n = sum(t.rank for t in comps)
    cartan = [[0] * n for _ in range(n)]
    start = 0
    symmetrizer: list[int] = []
    for t in comps:
        block = _cartan_block(t)
        for i, row in enumerate(block):
            cartan[start + i][start : start + t.rank] = row
        # d_u a_uv = d_v a_vu across each bond, read from the chain's head
        # at 6, which the one multiple bond's 2 or 3 divides
        chain, branch = _layout(t)
        d = {chain[0]: 6}
        for u, v in (*zip(chain, chain[1:]), *branch):
            d[v] = d[u] * block[u][v] // block[v][u]
        g = gcd(*d.values())
        symmetrizer.extend(d[i] // g for i in range(t.rank))
        start += t.rank
    frozen = tuple(tuple(row) for row in cartan)
    return RootSystem(comps, frozen, tuple(symmetrizer))


def _check_node(rs: RootSystem, i: int) -> None:
    if not 0 <= i < rs.n:
        raise IndexError(f"node index {i} out of range for a rank-{rs.n} system")


def _check_vector(rs: RootSystem, v: Sequence[int]) -> None:
    if len(v) != rs.n:
        raise ValueError(f"vector of length {len(v)} does not fit a rank-{rs.n} system")


def _check_permutation(perm: Sequence[int], n: int) -> None:
    # an entry is an int, as a node index is, so 1.0 and True are refused
    if any([type(i) is not int for i in perm]) or sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of the node indices")


def apply_word(rs: RootSystem, word: Sequence[int], v: Sequence[int]) -> Coords:
    """Apply a word of simple reflections, leftmost letter last."""
    _check_vector(rs, v)
    for i in word:
        _check_node(rs, i)
    a = rs.cartan
    out = list(v)
    for i in reversed(word):
        out[i] -= sum(map(mul, a[i], out))
    return tuple(out)


def word_matrix(rs: RootSystem, word: Sequence[int]) -> Matrix:
    """Matrix of a word on the root lattice; column j is the image of alpha_j."""
    cols = [apply_word(rs, word, rs.simple_root(j)) for j in range(rs.n)]
    return tuple(tuple(cols[j][i] for j in range(rs.n)) for i in range(rs.n))


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def longest_element(rs: RootSystem, nodes: Iterable[int]) -> tuple[int, ...]:
    """Reduced word for the longest element of the parabolic on ``nodes``.

    Starting from rho_X, with pairing 1 at each simple coroot of the
    subset, repeatedly apply the smallest simple reflection with positive
    pairing until the vector is antidominant, which is -rho_X.  Each step
    makes one positive root of the parabolic negative, so the letters form
    a reduced word, read in either convention as w0 is an involution.
    Only the pairings ``c`` are kept: ``s_i`` does ``c[j] -= c[i] a_ji``.
    """
    subset = sorted(set(nodes))
    for i in subset:
        _check_node(rs, i)
    a = rs.cartan
    c = dict.fromkeys(subset, 1)
    letters: list[int] = []
    while True:
        for i in subset:
            ci = c[i]
            if ci > 0:
                break
        else:
            break
        for j in subset:
            c[j] -= ci * a[j][i]
        letters.append(i)
    if any(x != -1 for x in c.values()):
        raise RuntimeError("longest-element iteration did not end at -rho of the parabolic")
    return tuple(letters)


def induced_node_permutation(rs: RootSystem, nodes: Iterable[int]) -> dict[int, int]:
    """The permutation ``alpha_i -> -w(alpha_i)`` of a parabolic subset.

    ``w`` is the longest element on the subset; it maps every simple root
    of the subset to the negative of another one, so the result is a
    total involution on the subset.  A weight with the distinct pairings
    1..k at the sorted subset's simple coroots goes through the word as
    ``longest_element`` takes rho, and ``<w lambda, alpha_u^vee> =
    -<lambda, alpha_sigma(u)^vee>``: pairing -m at u names the m-th node.
    Only w makes a regular dominant weight antidominant, so any other word
    leaves the pairings no permutation of -1..-k.
    """
    subset = sorted(set(nodes))
    a = rs.cartan
    c = {u: m for m, u in enumerate(subset, 1)}
    for i in longest_element(rs, subset):
        ci = c[i]
        for j in subset:
            c[j] -= ci * a[j][i]
    if sorted(c.values()) != list(range(-len(subset), 0)):
        raise RuntimeError(
            "the word does not make a regular dominant weight antidominant; "
            "longest-element computation is broken"
        )
    return {u: subset[-x - 1] for u, x in c.items()}


def _keeps_bonds(rs: RootSystem, perm: Sequence[int]) -> bool:
    """Whether a permutation keeps every Cartan entry.  Only the bonds at moved
    nodes are read, both ways, as the matrix is not symmetric: a bond between
    fixed nodes is kept, and a bijection keeping every bond maps the bonds
    onto the bonds, so it keeps every non-bond."""
    a, nbrs = rs.cartan, rs._nbrs
    return all(a[p][perm[j]] == a[i][j] and a[perm[j]][p] == a[j][i]
               for i, p in enumerate(perm) if p != i for j in nbrs[i])


def _connected_sets(
    nbrs: Sequence[Sequence[int]], nodes: Iterable[int]
) -> tuple[tuple[int, ...], ...]:
    """Connected components, sorted, on ``nodes`` of the diagram whose node
    u is bonded to each node of ``nbrs[u]``, as a Cartan row's nonzero
    off-diagonal entries give them."""
    remaining = set(nodes)
    out = []
    for seed in sorted(remaining):
        if seed in remaining:
            remaining.remove(seed)
            comp = [seed]
            for u in comp:  # each node reached is appended, then its bonds read once
                for v in nbrs[u]:
                    if v in remaining:
                        remaining.remove(v)
                        comp.append(v)
            out.append(tuple(sorted(comp)))
    return tuple(out)  # seeded at each least unreached node, so already sorted


def _shape(cartan: Sequence[Sequence[int]]) -> tuple | None:
    """Canonical form of a Dynkin-like diagram, or None.

    Accepts a square matrix with 2 on the diagonal, a symmetric zero
    pattern and a connected tree diagram with at most one branch node,
    as every Dynkin diagram is.  Returns the sorted tuple of its
    ``_arms``, each as its bonds ``(a_uv, a_vu)`` read outward; a path is
    read from both ends and the smaller reading kept.  Two accepted
    matrices have equal shapes exactly when one relabels the other.
    """
    n = len(cartan)
    if any(len(row) != n or row[i] != 2 for i, row in enumerate(cartan)):
        return None
    nbrs = {i: [j for j, x in enumerate(row) if x and j != i] for i, row in enumerate(cartan)}
    if sum(map(len, nbrs.values())) != 2 * (n - 1) or any(
        not cartan[j][i] for i in range(n) for j in nbrs[i]
    ):
        return None
    arms = _arms(nbrs)
    if arms is None:
        return None
    arms = [tuple((cartan[u][v], cartan[v][u]) for u, v in zip(arm, arm[1:])) for arm in arms]
    if len(arms) == 1:
        arms = [min(arms[0], tuple((b, a) for a, b in reversed(arms[0])))]
    return tuple(sorted(arms))


def _arms(nbrs: dict[int, list[int]]) -> list[list[int]] | None:
    """The arms of a connected diagram given by its neighbour lists.

    Each arm is a node list read outward from the branch node, which
    starts every arm; a path is one arm, from its first end.  None when
    the walk misses a node: with one edge fewer than nodes, reaching
    every node along the arms makes the diagram a tree whose only branch
    node is the root.
    """
    branches = [i for i in nbrs if len(nbrs[i]) > 2]
    root = branches[0] if branches else next(i for i in nbrs if len(nbrs[i]) < 2)
    seen = {root}
    arms = []
    for v in nbrs[root]:
        u, arm = root, [root]
        while v not in seen:
            seen.add(v)
            arm.append(v)
            onward = [w for w in nbrs[v] if w != u]
            if not onward:
                break
            u, v = v, onward[0]
        arms.append(arm)
    return arms if len(seen) == len(nbrs) else None


@lru_cache(maxsize=None)
def _types_by_shape(n: int) -> dict[tuple, SimpleType]:
    """The simple types of rank ``n`` keyed by shape; an alias keeps the
    earliest family in A..G order."""
    out: dict[tuple, SimpleType] = {}
    for f in _FAMILIES:
        if _rank_ok(f, n):
            t = SimpleType(f, n)
            out.setdefault(_shape(_cartan_block(t)), t)
    return out


def identify_cartan(cartan: Matrix) -> SimpleType:
    """Identify the simple type of a connected Cartan matrix up to relabeling.

    The matrix's ``_shape`` is looked up among those of the Bourbaki
    blocks of its rank.  Aliases resolve to the earliest family in A..G
    order: the rank-2 double-bond matrix reports as B2 (never C2) and the
    rank-3 fork as A3 (never D3).  Raises ValueError when nothing
    matches, including any matrix above ``MAX_RANK``.
    """
    n = len(cartan)
    t = _types_by_shape(n).get(_shape(cartan)) if n <= MAX_RANK else None
    if t is None:
        raise ValueError("Cartan matrix does not match a simple type")
    return t

