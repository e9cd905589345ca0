"""From a painted, arrow-paired Dynkin diagram to its lattice involution.

Given a diagram with a black (painted) node set and an involutive arrow
pairing of white nodes, this module computes:

* the induced node involution on the whole diagram, which acts as the
  arrow pairing on white nodes and on black nodes as the flip -w0 of
  the black subsystem, held with 2 rho^vee in the root system's table,
  filled from one memo per shape (``_black_shape``); its bond checks read moved nodes only;
* the root-lattice involution that fixes every black simple root and
  sends every positive root with white support to a negative root;
* the correction coefficients over black nodes that appear when that
  involution is written against the simple-root basis;
* the restricted root system (images under the anti-fixed projection)
  with multiplicities and an exact type identification, including the
  non-reduced BC types.

Diagram arguments are ``SatakeDiagram`` instances.  Each diagram is
derived once: ``_Derivation``, mixed into ``SatakeDiagram``, computes
the stages (black components, node map, lattice involution, corrections,
restricted roots) on first need and keeps them on the instance, and the
public functions read them; ``parse_diagram`` hands out one instance per
text, so a parsed text is derived once per process.  A reduced word for
the black longest element serves only the lattice involution's white
columns, and the involution is kept as its matrix alone: the restricted
stage forms r - theta(r) for every positive root in one pass, from the
matrix's columns, and keeps only the restricted roots.  The node map
checks, reporting (check, detail) pairs through ``DiagramDataError``:
once it passes, the lattice involution's laws are theorems, which
``involution_failures`` checks for the selftest and the tests.  Araki's
rule (Araki 1962, J. Math. Osaka City Univ. 13; Kolb 2014, Adv. Math.
267, Def. 2.3(3)), read by ``validate`` and the verdict only, makes it a
real form's diagram: each white node j the node map fixes needs
<alpha_j, rho_X^vee> integral, X the black set, else "not admissible".

``black_corrections`` and ``restricted_roots`` hand out the diagram's own
read-only stages; a record's JSON text is a stage of the record.
``base_coordinates`` keeps each base's plan and each vector's coordinates
by identity, hashing no vector; every entry is read through
``operator.index``, so an equal float never shares an int's answer.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Container, Sequence
from functools import lru_cache
from itertools import chain, repeat
from math import lcm
from operator import add, index, mul, neg, sub

from ._record import ReadOnlyDict, Record, _bind, stage
from .errors import DiagramDataError
from .rootsys import (
    Coords,
    Matrix,
    RootSystem,
    _arms,
    _check_permutation,
    _connected_sets,
    _keeps_bonds,
    _root_closure,
    apply_word,
    identify_cartan,
    identity_matrix,
    longest_element,
    mat_mul,
)

__all__ = ("RestrictedRoots", "ValidationReport", "act_on_weight", "base_coordinates",
           "black_corrections", "dual_cartan_involution", "permutation_cycles", "restricted_roots",
           "restricted_to_json", "satake_automorphism")

Failures = tuple[tuple[str, str], ...]


class ValidationReport(Record):
    """``ok``, and the ``(check, detail)`` failures when not."""

    _fields = ("ok", "failures")

    def __str__(self) -> str:
        return "ok" if self.ok else str(DiagramDataError(self.failures))


_OK = ValidationReport(True, ())  # every accepted diagram's report


def structural_failures(d) -> Failures:
    """Checks that only involve the node sets, not the lattice action.

    Index ranges and self-arrows are enforced, and repeated arrows
    merged, when the diagram is built.
    """
    if not d.arrows:
        return ()
    fails = [
        ("arrow touches black node", f"{i + 1}<->{j + 1}")
        for i, j in d.arrows
        if i in d.black or j in d.black
    ]
    ends = [k for pair in d.arrows for k in pair]
    if len(set(ends)) < len(ends):
        repeated = sorted({k for k in ends if ends.count(k) > 1})
        fails += [("node in more than one arrow", f"node {k + 1}") for k in repeated]
    if fails:
        return tuple(fails)
    # a pair of whites breaks the pattern only if it or its image under omega
    # is a bond at a node omega moves; a_ij and a_ji differ, so both are read
    omega, a = d._omega, d.rs.cartan
    bonds = {b for i in ends for j in d.rs._nbrs[i] if j in omega for b in ((i, j), (j, i))}
    return tuple(
        ("arrows break bond pattern", f"nodes {i + 1},{j + 1} map to {omega[i] + 1},{omega[j] + 1}")
        for i, j in sorted(bonds.union([(omega[i], omega[j]) for i, j in bonds]))
        if a[omega[i]][omega[j]] != a[i][j]
    )


class _Derivation:
    """The derivation of a ``SatakeDiagram``, mixed into that class.

    Every stage is a ``_record.stage``, computed on first need and kept
    on the instance, so it is computed once however many accessors ask,
    and it goes away with the diagram, which the parse memo shares and
    keeps while its text stays there.  The node map holds
    ``(perm, failures)`` and ``satake_automorphism`` raises the
    failures; the later stages reach the node map through it, so they
    raise its failures, and the lattice involution through
    ``dual_cartan_involution`` likewise, so each layer's public function
    is where its work is done.  ``_admissibility`` holds the diagram's one
    ``ValidationReport``, of the node map's failures or else Araki's
    rule's, for ``validate`` and the verdict; both read the black components.
    """

    @stage
    def _black_components(self) -> tuple[tuple[tuple[int, ...], tuple, Coords, tuple[int, ...]], ...]:
        """Each black component's entry of the root system's table."""
        table = self.rs._black_table
        return tuple([table.get(comp) or table.setdefault(comp, _black_entry(self.rs, comp))
                      for comp in _connected_sets(self.rs._nbrs, self.black)])

    @stage
    def _node_map(self) -> tuple[tuple[int, ...], Failures]:
        fails = structural_failures(self)
        if fails:
            return (), fails
        perm = list(self.rs._identity)
        for i, j in self.arrows:
            perm[i], perm[j] = j, i
        for comp, flip, *_ in self._black_components:
            for x, y in flip:
                perm[comp[x]] = comp[y]
        # an involution: the arrows pair white nodes, -w0 flips black ones
        if not _keeps_bonds(self.rs, perm):
            fails = (("node map breaks the Cartan matrix", _perm_text(perm)),)
        return tuple(perm), fails

    @stage
    def _admissibility(self) -> ValidationReport:
        """Araki's rule: ``<alpha_j, 2 rho_X^vee>`` even at each white j the node
        map fixes.  It is the sum over the black components, so a node fails
        when an odd number of their table entries list it; only a failing
        node's pairing is summed, for its message."""
        perm, fails = self._node_map
        if not fails:
            odd = [j for entry in self._black_components for j in entry[3] if perm[j] == j]
            if odd:
                a = self.rs.cartan
                k = {b: x for comp, _, coeffs, _ in self._black_components for b, x in zip(comp, coeffs)}
                fails = tuple(
                    ("not admissible", f"white node {j + 1}: <alpha_{j + 1}, rho_X^vee> = "
                     f"{sum([k[b] * a[b][j] for b in self.rs._nbrs[j] if b in k])}/2")
                    for j in sorted({j for j in odd if odd.count(j) % 2})
                )
        return ValidationReport(False, fails) if fails else _OK

    @stage
    def _theta(self) -> Matrix:
        """The lattice involution's matrix; column j is the image of alpha_j."""
        perm = satake_automorphism(self)
        rs = self.rs
        # column j is -w0(alpha_perm(j)), which is alpha_j itself for a
        # black j, so the word serves the white columns only
        word = longest_element(rs, self.black) if self.whites else ()
        cols = [
            rs.simple_root(j) if j in self.black
            else tuple(map(neg, apply_word(rs, word, rs.simple_root(perm[j]))))
            for j in range(self.n)
        ]
        return tuple(zip(*cols))

    @stage
    def _corrections(self) -> ReadOnlyDict:
        theta, black = dual_cartan_involution(self), sorted(self.black)
        vecs = {i: _correction_vector(self, theta, i) for i in sorted(self.whites)}
        return ReadOnlyDict({i: ReadOnlyDict({b: vec[b] for b in black}) for i, vec in vecs.items()})

    @stage
    def _restricted(self) -> "RestrictedRoots":
        seeds, vectors = _root_vectors(self)
        mult = Counter(filter(any, vectors))
        positive = tuple(sorted(mult, key=lambda v: (sum(v), v)))
        first: dict[Coords, int] = {}  # each base vector's first white node
        for i in self.whites:
            first.setdefault(seeds[i], i)
        return RestrictedRoots(tuple(first), positive, mult, _restricted_label(self.rs, first, mult))


def _root_vectors(d) -> tuple[list[Coords], list[Coords]]:
    """alpha_j - theta(alpha_j) per simple root, and r - theta(r) per positive root.

    By linearity the vector of r is its predecessor r - alpha_i's, plus
    alpha_i's unless alpha_i is black, hence fixed; the predecessor comes
    earlier in height order, so one pass gives every vector.
    """
    rs, black = d.rs, d.black
    cols = zip(*dual_cartan_involution(d))
    seeds = [tuple(map(sub, e, col)) for e, col in zip(rs._basis, cols)]
    vectors: list[Coords] = []
    for p, i in zip(*rs._predecessors):
        vectors.append(seeds[i] if p < 0 else vectors[p] if i in black
                       else tuple(map(add, vectors[p], seeds[i])))
    return seeds, vectors


def _black_entry(rs: RootSystem, comp: tuple[int, ...]) -> tuple:
    """A connected black set's entry of the root system's table: the nodes,
    the flip and 2 rho^vee of its shape, and the white nodes j bonded to it
    where ``<alpha_j, 2 rho^vee>`` is odd.  A Dynkin diagram is a forest, so
    such a j is bonded to one node b of the set, and the pairing is
    ``k_b a_bj``, odd when both factors are."""
    a, nbrs = rs.cartan, rs._nbrs
    flip, coeffs = _black_shape(tuple([tuple([a[i][j] for j in comp]) for i in comp]))
    return comp, flip, coeffs, tuple(
        [j for b, x in zip(comp, coeffs) if x % 2 for j in nbrs[b] if a[b][j] % 2 and j not in comp])


# Unbounded: the connected Cartan blocks of every type up to the rank cap number 137.
@lru_cache(maxsize=None)
def _black_shape(block: Matrix) -> tuple[tuple[tuple[int, int], ...], Coords]:
    """A connected black set's data, in the local indices of its Cartan block.

    First the pairs ``(x, -w0(x))`` that -w0 moves, read off the shape: it
    reverses a path of simple bonds (A_k), swaps the two one-node arms of
    D_k for odd k and the two two-node arms of E6, and fixes every other
    type.  Then 2 rho^vee in simple coroots: the positive roots of the
    transposed block, summed.
    """
    k = len(block)
    coeffs = tuple(map(sum, zip(*_root_closure(tuple(zip(*block)))[0])))
    arms = _arms({x: [y for y in range(k) if y != x and block[x][y]] for x in range(k)})
    if len(arms) == 1:
        arm = arms[0]
        if all(block[u][v] == block[v][u] for u, v in zip(arm, arm[1:])):
            return tuple(zip(arm, reversed(arm))), coeffs
    if len(arms) == 3:
        x, y, z = sorted(arms, key=len)
        if len(x) != len(y):
            x, z = z, x
        # equal arms swap when the third's length has the other parity: D_k, k odd, and E6
        if len(x) == len(y) and (len(y) + len(z)) % 2:
            return tuple(zip(x + y, y + x)), coeffs
    return (), coeffs


def satake_automorphism(d) -> tuple[int, ...]:
    """The node involution the diagram induces, as a total permutation.

    White nodes follow the arrow pairing (unpaired whites are fixed);
    black nodes follow the negation flip of the black subsystem.  The
    combined map must be an automorphism of the Dynkin diagram,
    otherwise ``DiagramDataError`` lists what broke.
    """
    perm, fails = d._node_map
    if fails:
        raise DiagramDataError(fails)
    return perm


def _perm_text(perm: Sequence[int]) -> str:
    return ", ".join(f"{i + 1}->{perm[i] + 1}" for i in range(len(perm)) if perm[i] != i) or "identity"


def permutation_cycles(perm: Sequence[int]) -> str:
    """1-based cycle notation of the moved points, or ``"identity"``; ValueError
    unless ``perm`` is a permutation of its indices, each an ``int``."""
    _check_permutation(perm, len(perm))
    seen: set[int] = set()
    parts: list[str] = []
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            continue
        cyc = [i]
        seen.add(i)
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = perm[j]
        parts.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts) if parts else "identity"


def dual_cartan_involution(d) -> Matrix:
    """Lattice involution: negated longest black element after the node map.

    Column ``j`` is the image of the j-th simple root.  Black simple
    roots are fixed; the matrix squares to the identity, permutes the
    roots, and sends every positive root with white support to a
    negative root.  A diagram whose node map fails raises
    ``DiagramDataError`` with the node map's failure list.
    """
    return d._theta


def involution_failures(d) -> Failures:
    """Every law of the diagram's derived node map and lattice involution,
    and, once those hold, of its corrections.

    Empty when all hold, which they do whenever the node map passes, so
    the derivation does not run these; the selftest and the tests do.
    Raises ``DiagramDataError`` when the node map fails.
    """
    perm = satake_automorphism(d)
    theta = d._theta
    _, vectors = _root_vectors(d)
    rs, n = d.rs, d.n
    fails: list[tuple[str, str]] = []
    if any(perm[perm[i]] != i for i in range(n)):
        fails.append(("node map is not an involution", _perm_text(perm)))
    if mat_mul(theta, theta) != identity_matrix(n):
        fails.append(("involution-squared", "the lattice map does not square to the identity"))
    cols = tuple(zip(*theta))
    for j in sorted(d.black):
        if cols[j] != rs.simple_root(j):
            fails.append(("involution-fixes-black", f"black simple root {j + 1} moves"))
    pos = rs.positive_root_set
    for r, v in zip(rs.positive_roots, vectors):
        img, minus = tuple(map(sub, r, v)), tuple(map(sub, v, r))
        if img not in pos and minus not in pos:
            fails.append(("involution-roots", f"image of root {r} is not a root"))
        elif minus not in pos and any(r[k] for k in d.whites):
            fails.append(
                ("involution-swaps-noncompact", f"white-supported root {r} has a positive image")
            )
    if not fails:
        for i in d.whites:
            vec = _correction_vector(d, theta, i)
            fails += [
                ("corrections", f"white node {i + 1} has a stray coefficient at white node {k + 1}")
                for k in d.whites
                if vec[k] != 0
            ]
    return tuple(fails)


def _correction_vector(d, theta: Matrix, i: int) -> list[int]:
    # theta(alpha_i) = -alpha_{omega(i)} - sum_b c[i][b] alpha_b, so the
    # corrections are the coordinates of -(theta e_i + e_{omega(i)}).
    vec = [-theta[k][i] for k in range(d.n)]
    vec[d._omega[i]] -= 1
    return vec


def black_corrections(d) -> ReadOnlyDict:
    """Per white node, the nonnegative coefficients over the black nodes.

    The involution sends a white simple root to minus its arrow partner
    minus a nonnegative combination of black simple roots; this returns
    those combinations, one inner map per white node, listing every
    black node (zeros included): the diagram's own read-only stage.
    """
    return d._corrections


class RestrictedRoots(Record):
    """Restricted root data in doubled coordinates, immutable as built.

    Vectors store ``root - theta(root)``, i.e. twice the anti-fixed
    projection, so everything stays integral; they are kept as tuples,
    and ``multiplicity``, which counts how many positive roots restrict
    to each vector, as a read-only dict.  ``base`` lists the distinct
    images of the white simple roots in node order; ``positive`` is
    sorted by height then lexicographically.  ``label`` names the type
    of the restricted system (e.g. ``"F4"``, ``"BC2"`` or ``"A2+BC1"``)
    or is None when there are no restricted roots.
    """

    _fields = ("base", "positive", "multiplicity", "label")

    def __init__(self, *args, **kwargs):
        base, positive, mult, label = _bind(type(self), args, kwargs)
        Record.__init__(self, *[tuple(map(tuple, vs)) for vs in (base, positive)], ReadOnlyDict(mult), label)

    @stage
    def _json(self) -> str:
        """The text of ``restricted_to_json``."""
        import json

        counts = tuple(map(self.multiplicity.__getitem__, self.positive))
        items = [f'    {{\n      "root": {_coords_json(v, 3)},\n      "multiplicity": {index(m)}\n    }}'
                 for v, m in zip(self.positive, counts)]
        return ('{\n  "type": ' + json.dumps(self.label)
                + ',\n  "base": ' + _json_list(["    " + _coords_json(v, 2) for v in self.base], 1)
                + ',\n  "positive": ' + _json_list(items, 1) + "\n}")


def restricted_roots(d) -> RestrictedRoots:
    """The diagram's restricted root data: its own stage, the same record on
    every call; ``DiagramDataError`` when the node map fails."""
    return d._restricted


def _restricted_label(rs: RootSystem, first: dict, positive: Container[Coords]) -> str | None:
    """The type of the base b_k = alpha_j - theta(alpha_j), each j a white node,
    as ``first`` maps them.  theta is an isometry and theta(b_l) = -b_l, so (b_k,
    b_l) = 2 d_j <b_l, alpha_j^vee>: row k is 2 <b_l, alpha_j^vee> / <b_k, alpha_j^vee>."""
    rows = []
    for k, j in enumerate(first.values()):
        pairs = [sum(map(mul, rs.cartan[j], c)) for c in first]
        if pairs[k] <= 0:
            return None
        qr = [divmod(2 * x, pairs[k]) for x in pairs]
        if any(rem or (k != m and q > 0) for m, (q, rem) in enumerate(qr)):
            return None
        rows.append(tuple(q for q, _ in qr))
    # a non-reduced component is BC, whose base holds a root b with 2b a root
    return _label(tuple(rows), {k for k, b in enumerate(first) if tuple(2 * x for x in b) in positive})


def _label(cartan: Matrix, doubled: set[int]) -> str | None:
    """The type of an integral Cartan matrix, its components' types sorted and
    joined by ``+``, each BC when it holds a row in ``doubled``; None for no type."""
    labels: list[str] = []
    nbrs = [[j for j, x in enumerate(row) if x and j != i] for i, row in enumerate(cartan)]
    for comp in _connected_sets(nbrs, range(len(cartan))):
        try:
            t = identify_cartan(tuple(tuple(cartan[i][j] for j in comp) for i in comp))
        except ValueError:
            return None
        if not doubled.isdisjoint(comp):
            # indivisible restricted roots of a BC system form the B pattern (A1 at rank one)
            if str(t) != "A1" and t.family != "B":
                return None
            t = f"BC{t.rank}"
        labels.append(str(t))
    return "+".join(sorted(labels)) or None


class _Memo(dict):
    """Answers keyed on the id of an object they came from, which each
    entry holds, so no id is reused while it stays and a key found means
    the very same object.  ``keep`` stores an entry only when ``vectors``
    is a tuple of tuples of ints, which no caller can change; a full memo
    drops its oldest entry for a new key only."""

    def __init__(self, bound: int):
        self.bound = bound

    def keep(self, key, entry: tuple, vectors) -> None:
        if (type(vectors) is tuple and all(type(v) is tuple for v in vectors)
                and {int, bool}.issuperset(map(type, chain(*vectors)))):
            if key not in self and len(self) >= self.bound:
                self.pop(next(iter(self)))
            self[key] = entry


_coordinates_memo, _plan_memo = _Memo(4096), _Memo(256)


def base_coordinates(base: Sequence[Coords], vec: Coords) -> tuple:
    """Exact coordinates, as ``Fraction``s, of ``vec`` in the span of ``base``.

    Every entry of ``base`` and ``vec`` is an int: each is read through
    ``operator.index``, so a bool counts as an int and a float raises
    TypeError on every call, the base's first.  A tuple ``base`` of tuples
    of ints is read once, into a plan kept by its id, and the answer for a
    tuple ``vec`` of ints by the id of ``vec``, with its base: the very
    same objects cost one lookup, and any others, lists included, are read.
    Precondition: every base vector has a private coordinate, one where
    it alone of the base is nonzero.  Every restricted base has one: the
    image of a white node is its only base vector with that node in its
    support.  Each coefficient is read off there as the integer ``den``
    times it, so at each read-off coordinate the combination is ``den *
    vec`` by construction, and the span check compares the others only.
    Raises ValueError when the lengths differ, a base vector has no
    private coordinate, or ``vec`` is not in the span, in that order.
    """
    hit = _coordinates_memo.get(id(vec))
    if hit is not None and hit[0] is base:
        return hit[2]
    plan = _plan_memo.get(id(base))
    if plan is None:
        plan = (base, *_plan(base))
        _plan_memo.keep(id(base), plan, base)
    answer = _coordinates(plan, vec)
    if id(base) in _plan_memo:  # a tuple of tuples of ints, scanned once for its plan
        _coordinates_memo.keep(id(vec), (base, vec, answer), (vec,))
    return answer


def _plan(base: Sequence[Coords]) -> tuple:
    """The row lengths; each base vector's private coordinate k (the first
    where it alone of the base is nonzero) with ``den // entry``, or the
    error text of a vector that has none; ``den``, the lcm of those
    entries; and every other column, with its index.  The rows are read
    through ``operator.index`` into lists, which are freed."""
    rows = [list(map(index, b)) for b in base]
    lengths, columns = set(map(len, rows)), list(zip(*rows))
    solo = [k for k, col in enumerate(columns) if len(col) - col.count(0) == 1]
    private = [next((k for k in solo if b[k]), None) for b in rows]
    if None in private:
        return lengths, f"base vector {tuple(rows[private.index(None)])} has no private coordinate", 0, ()
    den = lcm(*(b[k] for k, b in zip(private, rows)))
    return (lengths, [(k, den // b[k]) for k, b in zip(private, rows)], den,
            [(k, col) for k, col in enumerate(columns) if k not in private])


def _coordinates(plan: tuple, vec: Coords) -> tuple:
    """Each coefficient read off as ``den // entry * vec[k]``, which makes the
    combination ``den * vec[k]`` at each read-off column; the others are checked."""
    _, lengths, reads, den, checks = plan
    vec = list(map(index, vec))
    if lengths - {len(vec)}:
        raise ValueError("base vectors and the vector differ in length")
    if type(reads) is str:
        raise ValueError(reads)
    xs = [scale * vec[k] for k, scale in reads]
    # an empty base has no columns, and only zero is in its span
    if any(sum(map(mul, xs, col)) != den * vec[k] for k, col in checks) or not xs and any(vec):
        raise ValueError("vector is not in the span of the base")
    return tuple(map(_fraction, xs, repeat(den)))


# Immutable and shared: restricted coordinates are a few small rationals.
@lru_cache(maxsize=256)
def _fraction(num: int, den: int):
    from fractions import Fraction

    return Fraction(num, den)


def act_on_weight(perm: Sequence[int], weight: Sequence[int]) -> Coords:
    """Permute fundamental-weight coordinates by a node involution; ValueError
    on a length mismatch, then unless ``perm`` is a permutation of its indices,
    each an ``int``."""
    if len(weight) != len(perm):
        raise ValueError(
            f"weight of length {len(weight)} does not match a rank-{len(perm)} diagram"
        )
    _check_permutation(perm, len(perm))
    return tuple(weight[perm[i]] for i in range(len(perm)))


def _json_list(items: list[str], level: int) -> str:
    """A JSON list at nesting ``level`` whose items are already indented."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + "  " * level + "]"


def _coords_json(v: Coords, level: int) -> str:
    """``v`` as a JSON array ``level`` deep, each ``c / 2`` in lowest terms."""
    pad = "  " * level
    head, mid, tail = f'{pad}  {{\n{pad}    "num": ', f',\n{pad}    "den": ', f"\n{pad}  }}"
    items = ",\n".join([
        f"{head}{c // 2}{mid}1{tail}" if c % 2 == 0 else f"{head}{c}{mid}2{tail}" for c in map(index, v)
    ])
    return f"[\n{items}\n{pad}]" if items else "[]"


def restricted_to_json(rr: RestrictedRoots) -> str:
    """JSON of the restricted data, exact rational coordinates, written once per record.

    The text is exactly ``json.dumps(payload, indent=2)`` of
    ``{"type": label, "base": [...], "positive": [{"root": [...],
    "multiplicity": m}, ...]}``, each coordinate ``c / 2`` written as
    ``{"num": ..., "den": ...}`` in lowest terms, built by its own
    coordinate writer: CPython's ``json`` indents only in its pure-Python
    encoder, and ``json.dumps`` took 8 to 9 times as long on these payloads.
    Coordinates and multiplicities are read through ``operator.index``,
    so a bool is written 0 or 1 and a float raises TypeError.
    """
    return rr._json
