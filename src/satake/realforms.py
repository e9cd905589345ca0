"""Catalog of real forms of the simple complex Lie algebras, by diagram.

Every record stores the standard name(s) of a real form together with
its painted diagram in the canonical text format.  The catalog covers
all real forms of the simple types up to a rank bound (default 8), the
compact forms, and each complex simple algebra viewed as a real algebra
(the doubled two-component diagrams).

Names are matched after lowercasing and removing whitespace; parentheses
and commas are significant, so ``"SU(2, 1)"`` resolves but ``"su21"``
does not.  Low-rank isomorphic pairs that live on different diagram
types (for example so(2,3) and sp(4,R), or so(3,3) and sl(4,R)) are kept
as separate records under their own names.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import Record
from .diagram import SatakeDiagram, parse_diagram
from .errors import UnknownRealFormError
from .involution import permutation_cycles, satake_automorphism
from .rootsys import _FAMILIES, MAX_RANK, _rank_ok

__all__ = ("ClassificationRow", "ClassificationTable", "RealFormRecord", "catalog",
           "classification_to_json", "classify", "lookup", "normalize_name")

Entry = tuple[tuple[str, ...], str]


class RealFormRecord(Record):
    """A real form's names, the first the main one, and its diagram text."""

    _fields = ("names", "text")

    @property
    def diagram(self) -> SatakeDiagram:
        """``parse_diagram(text)``, whose memo is the one cache of the diagram."""
        return parse_diagram(self.text)

    @property
    def name(self) -> str:
        return self.names[0]


def _csv(indices) -> str:
    return ",".join(str(i) for i in indices)


def _a_entries(bound: int) -> list[Entry]:
    out: list[Entry] = []
    for r in range(1, bound + 1):
        n = r + 1
        split_names = [f"sl({n},R)"]
        if n == 2:
            split_names += ["su(1,1)", "sp(2,R)"]
        out.append((tuple(split_names), f"A{r} black= arrows="))
        if n % 2 == 0 and n >= 4:
            black = _csv(range(1, r + 1, 2))
            out.append(
                ((f"su*({n})", f"sl({n // 2},H)"), f"A{r} black={black} arrows=")
            )
        for q in range(1, n // 2 + 1):
            p = n - q
            if p == q:
                if p == 1:
                    continue  # su(1,1) is already the rank-1 split form
                arrows = _csv(f"{i}:{n - i}" for i in range(1, p))
                out.append(((f"su({p},{q})",), f"A{r} black= arrows={arrows}"))
            else:
                black = _csv(range(q + 1, n - q))
                arrows = _csv(f"{i}:{n - i}" for i in range(1, q + 1))
                out.append(
                    ((f"su({p},{q})", f"su({q},{p})"), f"A{r} black={black} arrows={arrows}")
                )
        compact_names = [f"su({n})"]
        if n == 2:
            compact_names += ["sp(1)", "so(3)"]
        out.append((tuple(compact_names), f"A{r} black={_csv(range(1, n))} arrows="))
    return out


def _b_entries(bound: int) -> list[Entry]:
    out: list[Entry] = []
    for l in range(2, bound + 1):
        m = 2 * l + 1
        for p in range(l, 0, -1):
            black = _csv(range(p + 1, l + 1))
            out.append(
                ((f"so({p},{m - p})", f"so({m - p},{p})"), f"B{l} black={black} arrows=")
            )
        out.append(((f"so({m})",), f"B{l} black={_csv(range(1, l + 1))} arrows="))
    return out


def _c_entries(bound: int) -> list[Entry]:
    out: list[Entry] = []
    for l in range(2, bound + 1):
        out.append(((f"sp({2 * l},R)",), f"C{l} black= arrows="))
        for p in range(1, l // 2 + 1):
            q = l - p
            black = _csv(sorted(set(range(1, 2 * p, 2)) | set(range(2 * p + 1, l + 1))))
            names = (f"sp({p},{q})",) if p == q else (f"sp({p},{q})", f"sp({q},{p})")
            out.append((names, f"C{l} black={black} arrows="))
        out.append(((f"sp({l})",), f"C{l} black={_csv(range(1, l + 1))} arrows="))
    return out


def _d_entries(bound: int) -> list[Entry]:
    out: list[Entry] = []
    for l in range(3, bound + 1):
        m = 2 * l
        out.append(((f"so({l},{l})",), f"D{l} black= arrows="))
        out.append(
            (
                (f"so({l - 1},{l + 1})", f"so({l + 1},{l - 1})"),
                f"D{l} black= arrows={l - 1}:{l}",
            )
        )
        for p in range(l - 2, 0, -1):
            black = _csv(range(p + 1, l + 1))
            out.append(
                ((f"so({p},{m - p})", f"so({m - p},{p})"), f"D{l} black={black} arrows=")
            )
        if l % 2 == 0:
            star = f"D{l} black={_csv(range(1, l, 2))} arrows="
        else:
            star = f"D{l} black={_csv(range(1, l - 1, 2))} arrows={l - 1}:{l}"
        out.append(((f"so*({m})", f"u*({l},H)"), star))
        out.append(((f"so({m})",), f"D{l} black={_csv(range(1, l + 1))} arrows="))
    return out


_EXCEPTIONAL: tuple[Entry, ...] = (
    (("e6(6)", "EI"), "E6 black= arrows="),
    (("e6(2)", "EII"), "E6 black= arrows=1:6,3:5"),
    (("e6(-14)", "EIII"), "E6 black=3,4,5 arrows=1:6"),
    (("e6(-26)", "EIV"), "E6 black=2,3,4,5 arrows="),
    (("e6", "e6(-78)"), "E6 black=1,2,3,4,5,6 arrows="),
    (("e7(7)", "EV"), "E7 black= arrows="),
    (("e7(-5)", "EVI"), "E7 black=2,5,7 arrows="),
    (("e7(-25)", "EVII"), "E7 black=2,3,4,5 arrows="),
    (("e7", "e7(-133)"), "E7 black=1,2,3,4,5,6,7 arrows="),
    (("e8(8)", "EVIII"), "E8 black= arrows="),
    (("e8(-24)", "EIX"), "E8 black=2,3,4,5 arrows="),
    (("e8", "e8(-248)"), "E8 black=1,2,3,4,5,6,7,8 arrows="),
    (("f4(4)", "FI"), "F4 black= arrows="),
    (("f4(-20)", "FII"), "F4 black=1,2,3 arrows="),
    (("f4", "f4(-52)"), "F4 black=1,2,3,4 arrows="),
    (("g2(2)", "G"), "G2 black= arrows="),
    (("g2", "g2(-14)"), "G2 black=1,2 arrows="),
)


def _exceptional_entries(bound: int) -> list[Entry]:
    # the rank is the one digit after the letter: a type parse slows the cold catalog build
    return [entry for entry in _EXCEPTIONAL if int(entry[1][1]) <= bound]


def _doubled_entries(bound: int) -> list[Entry]:
    def complex_name(family: str, r: int) -> str:
        if family == "A":
            return f"sl({r + 1},C)"
        if family == "B":
            return f"so({2 * r + 1},C)"
        if family == "C":
            return f"sp({2 * r},C)"
        if family == "D":
            return f"so({2 * r},C)"
        return f"{family.lower()}{r}(C)"

    types = [(f, r) for f in _FAMILIES for r in range(1, bound + 1) if _rank_ok(f, r)]

    out: list[Entry] = []
    for family, r in types:
        name = complex_name(family, r)
        arrows = _csv(f"{i}:{i + r}" for i in range(1, r + 1))
        out.append(
            ((name, f"{name} as real"), f"{family}{r}x{family}{r} black= arrows={arrows}")
        )
    return out


def normalize_name(name: str) -> str:
    return "".join(name.split()).lower()


def catalog(rank_bound: int = 8) -> tuple[RealFormRecord, ...]:
    """All records with diagram rank at most ``rank_bound`` per component."""
    if type(rank_bound) is not int or not 1 <= rank_bound <= MAX_RANK:
        raise ValueError(f"rank bound must be an integer between 1 and {MAX_RANK}")
    return _catalog_cached(rank_bound)[0]


@lru_cache(maxsize=None)
def _catalog_cached(rank_bound: int) -> tuple[tuple[RealFormRecord, ...], dict[str, RealFormRecord]]:
    """The records and their index by normalised name; a repeated name raises."""
    entries: list[Entry] = []
    entries += _a_entries(rank_bound)
    entries += _b_entries(rank_bound)
    entries += _c_entries(rank_bound)
    entries += _d_entries(rank_bound)
    entries += _exceptional_entries(rank_bound)
    entries += _doubled_entries(rank_bound)
    records = []
    index: dict[str, RealFormRecord] = {}
    for names, text in entries:
        rec = RealFormRecord(tuple(names), text)
        for name in names:
            key = normalize_name(name)
            if key in index:
                raise RuntimeError(f"name {name!r} appears in {index[key].text!r} and {text!r}")
            index[key] = rec
        records.append(rec)
    return tuple(records), index


def lookup(name: str, rank_bound: int = 8) -> RealFormRecord:
    """Find a real form by any of its names; raises UnknownRealFormError."""
    if not isinstance(name, str):
        raise TypeError(f"a real form name is a str, got {name!r}")
    catalog(rank_bound)  # the bound check, before the cache is keyed on it
    idx = _catalog_cached(rank_bound)[1]
    key = normalize_name(name)
    if key not in idx:
        import difflib

        # matched on the normalised keys, each reported as the name it was read from
        keys = difflib.get_close_matches(key, sorted(idx), n=5, cutoff=0.6)
        raise UnknownRealFormError(
            name, [next(n for n in idx[k].names if normalize_name(n) == k) for k in keys]
        )
    return idx[key]


class ClassificationRow(Record):
    """A catalog form's name, diagram text and node involution in cycle notation."""

    _fields = ("name", "diagram", "automorphism", "is_identity")


class ClassificationTable(Record):
    _fields = ("rank_bound", "rows")


def classify(rank_bound: int = 8) -> ClassificationTable:
    """Induced-node-involution classification of every catalog entry."""
    rows = []
    for rec in catalog(rank_bound):
        perm = satake_automorphism(d := rec.diagram)
        is_identity = perm == d.rs._identity
        rows.append(ClassificationRow(rec.name, rec.text, permutation_cycles(perm), is_identity))
    return ClassificationTable(rank_bound, tuple(rows))


def classification_to_json(table: ClassificationTable) -> str:
    """``json.dumps(payload, indent=2)`` of ``{"rank_bound": ...,
    "real_forms": [row, ...]}``, each row an object of its fields in order."""
    import json

    rows = [dict(zip(row._fields, row._key)) for row in table.rows]
    return json.dumps({"rank_bound": table.rank_bound, "real_forms": rows}, indent=2)
