"""Painted Dynkin diagrams with arrow pairings: model, text format, renderer.

The canonical one-line format is::

    <TYPE>[x<TYPE>] black=<csv of 1-based nodes> arrows=<csv of i:j pairs>

with exactly three space-separated sections, e.g. ``"A3 black=1,3 arrows="``
or ``"A1xA1 black= arrows=1:2"``.  Node numbering is Bourbaki, 1-based in
the text format and 0-based in the API; a doubled diagram numbers its
second component after the first.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import chain

from ._record import Record, stage
from .errors import DiagramDataError, DiagramParseError
from .involution import ValidationReport, _Derivation
from .rootsys import RootSystem, SimpleType, _components, _layout, build_root_system

__all__ = ("SatakeDiagram", "format_diagram", "parse_diagram", "render_diagram", "validate")


class SatakeDiagram(_Derivation, Record):
    """One or two equal simple components, a black node set, arrow pairs.

    Arrows are stored sorted with each pair ascending, so equal diagrams
    compare equal.  Construction, direct or through ``create``, only
    rejects data that makes the object meaningless (containers of the
    wrong kind, bad indices, self-arrows, mismatched components);
    semantic consistency is the job of ``validate``.  What is derived
    from the diagram is computed once and kept on the instance (see
    ``involution``); ``parse_diagram`` shares one instance per text, so
    accessors hand out immutable values or copies.
    """

    _fields = ("types", "black", "arrows")
    rs: RootSystem  # built by the constructor and kept, outside the key

    def __init__(
        self,
        types: Sequence[SimpleType | str],
        black: Iterable[int],
        arrows: Iterable[tuple[int, int]],
    ):
        if type(types) is not tuple:
            types = _items(types, "component types are not a sequence")
        try:
            rs = build_root_system(types)
        except ValueError as e:
            raise DiagramDataError([("component types", str(e))]) from e
        if type(black) is not tuple:
            black = _items(black, "black nodes are not a collection")
        if type(arrows) is not tuple:
            arrows = _items(arrows, "arrows are not a collection")
        # each check builds its text only when it fails
        for pair in arrows:
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise DiagramDataError([("arrow is not a pair of nodes", repr(pair))])
        for i in chain(black, *arrows):
            if type(i) is not int:
                raise DiagramDataError([("node index is not an integer", repr(i))])
        black, n = frozenset(black), rs.n
        if not black <= rs._nodes:
            i = next(i for i in sorted(black) if not 0 <= i < n)
            raise DiagramDataError([("black node out of range", f"node {i + 1}")])
        for i, j in arrows:
            inside = 0 <= i < n and 0 <= j < n
            if not inside or i == j:
                check = "arrow connects a node to itself" if inside else "arrow endpoint out of range"
                raise DiagramDataError([(check, f"{i + 1}<->{j + 1}")])
        arrows = tuple(sorted({(i, j) if i < j else (j, i) for i, j in arrows})) if arrows else ()
        types = rs.components
        self.__dict__.update(
            types=types, black=black, arrows=arrows, rs=rs, _key=(types, black, arrows)
        )

    @classmethod
    def create(
        cls,
        types: Sequence[SimpleType | str],
        black: Iterable[int] = (),
        arrows: Iterable[tuple[int, int]] = (),
    ) -> "SatakeDiagram":
        return cls(types, black, arrows)

    @property
    def n(self) -> int:
        return self.rs.n

    @property
    def is_doubled(self) -> bool:
        return len(self.types) == 2

    @stage
    def whites(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if i not in self.black)

    @property
    def omega_map(self) -> dict[int, int]:
        """Arrow pairing as a total involution of the white nodes (a copy)."""
        return dict(self._omega)

    @stage
    def _omega(self) -> dict[int, int]:
        out = {i: i for i in self.whites}
        for i, j in self.arrows:
            if i in out and j in out:
                out[i] = j
                out[j] = i
        return out

    def __str__(self) -> str:
        return format_diagram(self)


def _items(value, check: str) -> tuple | frozenset:
    """``value`` as a tuple or frozenset; a string or a non-iterable fails ``check``."""
    if isinstance(value, (tuple, frozenset)):
        return value
    if isinstance(value, str):
        raise DiagramDataError([(check, repr(value))])
    try:
        return tuple(value)
    except TypeError:
        raise DiagramDataError([(check, repr(value))]) from None


def validate(d: SatakeDiagram) -> ValidationReport:
    """Whether ``d`` is the Satake diagram of some real form: the structural
    and node-map failures alone, or else one ``"not admissible"`` per white
    node j the node map fixes with ``<alpha_j, rho_X^vee>`` not integral, X
    the black set (Araki 1962, J. Math. Osaka City Univ. 13; Kolb 2014, Adv.
    Math. 267, Def. 2.3(3)).  It builds no Weyl word; the one root closure
    is of each black component's dual, kept per shape, never of ``d``'s types.
    The report is the diagram's one, kept by the stage that applies
    Araki's rule, so every call on ``d`` returns that same object.
    """
    return d._admissibility


def format_diagram(d: SatakeDiagram) -> str:
    t = "x".join(str(c) for c in d.types)
    b = ",".join(str(i + 1) for i in sorted(d.black))
    a = ",".join(f"{i + 1}:{j + 1}" for i, j in d.arrows)
    return f"{t} black={b} arrows={a}"


def _parse_index(item: str, n: int, pos: int) -> int:
    if not (item.isascii() and item.isdigit()):
        raise DiagramParseError(f"expected a 1-based node index, got {item!r}", pos)
    try:
        v = int(item)
    except ValueError:  # more digits than the interpreter converts
        msg = f"node index of {len(item)} digits out of range 1..{n}"
        raise DiagramParseError(msg, pos) from None
    if not 1 <= v <= n:
        raise DiagramParseError(f"node index {v} out of range 1..{n}", pos)
    return v - 1


def _comma_items(section: str, head: str, pos: int) -> Iterator[tuple[str, int]]:
    """The comma-separated items after ``head`` in ``section``, at ``pos``, with their positions."""
    pos += len(head)
    body = section[len(head):]
    for item in body.split(",") if body else ():
        yield item, pos
        pos += len(item) + 1


def parse_diagram(text: str) -> SatakeDiagram:
    """Parse the canonical one-line format; errors carry a character position.

    Memoised on the text, LRU beyond 256 (the default catalog has 205
    texts): one shared, immutable diagram and derivation per text, and
    the one cache of a catalog record's diagram.
    Failures, a non-str's ``TypeError`` among them, are not kept; ``create``
    and construction bypass the memo.
    """
    return _parse_memo(text)


def _parse(text: str) -> SatakeDiagram:
    if not isinstance(text, str):
        raise TypeError(f"a diagram text is a str, got {text!r}")
    parts = text.split(" ")
    if len(parts) != 3 or not all(parts):
        raise DiagramParseError(
            "expected '<TYPE> black=<list> arrows=<list>' with single spaces", 0
        )
    type_part, black_part, arrow_part = parts
    off_black = len(type_part) + 1
    off_arrow = off_black + len(black_part) + 1
    try:
        types = _components(type_part.split("x"))
    except ValueError as e:
        raise DiagramParseError(str(e), 0) from e
    n = sum(t.rank for t in types)
    if not black_part.startswith("black="):
        raise DiagramParseError("expected a 'black=' section", off_black)
    if not arrow_part.startswith("arrows="):
        raise DiagramParseError("expected an 'arrows=' section", off_arrow)

    black = {_parse_index(s, n, pos) for s, pos in _comma_items(black_part, "black=", off_black)}
    arrows: list[tuple[int, int]] = []
    for item, pos in _comma_items(arrow_part, "arrows=", off_arrow):
        halves = item.split(":")
        if len(halves) != 2:
            raise DiagramParseError(f"expected 'i:j', got {item!r}", pos)
        i = _parse_index(halves[0], n, pos)
        j = _parse_index(halves[1], n, pos + len(halves[0]) + 1)
        if i == j:
            raise DiagramParseError(f"arrow {item!r} connects a node to itself", pos)
        if (i, j) in arrows or (j, i) in arrows:
            raise DiagramParseError(f"arrow {item!r} repeats an earlier arrow", pos)
        arrows.append((i, j))
    return SatakeDiagram.create(types, black, arrows)


_parse_memo = lru_cache(maxsize=256)(_parse)


_EDGE_BY_DROP = {
    (-1, -1): "---",
    (-2, -1): "=<=",
    (-1, -2): "=>=",
    (-3, -1): "≡<≡",
    (-1, -3): "≡>≡",
}


def _edge(rs: RootSystem, left: int, right: int) -> str:
    # the arrowhead points at the short root
    return _EDGE_BY_DROP[(rs.cartan[left][right], rs.cartan[right][left])]


def _glyph(d: SatakeDiagram, i: int) -> str:
    return "●" if i in d.black else "○"


def _render_component(d: SatakeDiagram, t: SimpleType, start: int) -> list[str]:
    chain, branch = _layout(t)
    out: list[str] = []
    for hub, leaf in branch:
        pad = " " * (4 * chain.index(hub))
        out += [f"{pad}{_glyph(d, start + leaf)} {start + leaf + 1}", f"{pad}|"]
    nodes = [start + u for u in chain]
    line = _glyph(d, nodes[0]) + "".join(
        _edge(d.rs, u, v) + _glyph(d, v) for u, v in zip(nodes, nodes[1:])
    )
    out.append(line)
    out.append("".join(f"{u + 1:<4}" for u in nodes).rstrip())
    return out


def render_diagram(d: SatakeDiagram) -> str:
    """Multi-line picture: filled/open nodes, bond glyphs, 1-based labels."""
    lines: list[str] = []
    start = 0
    for t in d.types:
        if lines:
            lines.append("")
        lines.extend(_render_component(d, t, start))
        start += t.rank
    if d.arrows:
        lines.append("arrows: " + ", ".join(f"{i + 1}<->{j + 1}" for i, j in d.arrows))
    return "\n".join(lines)
