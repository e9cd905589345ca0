"""Command-line interface.

Subcommands: ``list``, ``show``, ``epsilon``, ``classify``,
``restricted``, ``weights``, ``verdict``, ``selftest``.  Data goes to
stdout, diagnostics to stderr.  Exit codes: 0 success, 1 unknown real
form name, 2 usage or parse errors, 3 selftest failure.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import sys

from . import __version__
from .diagram import SatakeDiagram, format_diagram, parse_diagram, render_diagram, validate
from .errors import DiagramDataError, DiagramParseError, UnknownRealFormError
from .involution import (
    act_on_weight,
    base_coordinates,
    involution_failures,
    permutation_cycles,
    restricted_roots,
    restricted_to_json,
    satake_automorphism,
)
from .realforms import RealFormRecord, catalog, classification_to_json, classify, lookup
from .rootsys import induced_node_permutation
from .verdict import SubgroupHypotheses, real_structure_verdict, verdict_to_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satake",
        description="Exact Satake-diagram computations for real forms of simple Lie algebras.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--rank-bound",
        type=int,
        default=8,
        metavar="N",
        help="catalog rank bound per component (default 8)",
    )
    parser.add_argument("--no-color", action="store_true", help="disable ANSI styling")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the catalogued real forms").set_defaults(run=_cmd_list)

    name_help = "real form name, or a diagram literal like 'A3 black=1,3 arrows='"
    p = sub.add_parser("show", help="details of one real form")
    p.add_argument("name", help=name_help)
    p.set_defaults(run=_cmd_show)

    p = sub.add_parser("epsilon", help="induced node involution")
    p.add_argument("diagram", help=name_help)
    p.set_defaults(run=_cmd_epsilon)

    p = sub.add_parser("classify", help="which forms induce the identity involution")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("restricted", help="restricted roots with multiplicities")
    p.add_argument("name", help=name_help)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_restricted)

    p = sub.add_parser("weights", help="act on fundamental-weight coordinates")
    p.add_argument("name", help=name_help)
    p.add_argument("coords", help="comma-separated integers, e.g. 1,0")
    p.set_defaults(run=_cmd_weights)

    p = sub.add_parser("verdict", help="real-structure existence/uniqueness verdict")
    p.add_argument("name", help=name_help)
    p.add_argument("--spherical", action="store_true")
    p.add_argument("--self-normalizing", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_verdict)

    sub.add_parser("selftest", help="run internal consistency checks").set_defaults(run=_cmd_selftest)
    return parser


def _use_color(args: argparse.Namespace) -> bool:
    if args.no_color or os.environ.get("NO_COLOR"):
        return False
    return sys.stdout.isatty()


def _bold(text: str, on: bool) -> str:
    return f"\x1b[1m{text}\x1b[0m" if on else text


def _resolve(
    args: argparse.Namespace, name: str
) -> tuple[RealFormRecord | None, SatakeDiagram]:
    """A catalog name's record and diagram, or no record and a diagram
    literal, which must validate."""
    if " black=" not in name:
        rec = lookup(name, args.rank_bound)
        return rec, rec.diagram
    d = parse_diagram(name)
    report = validate(d)
    if not report.ok:
        raise DiagramDataError(report.failures)
    return None, d


def _cmd_list(args: argparse.Namespace) -> int:
    for rec in catalog(args.rank_bound):
        line = f"{rec.name:<16} {rec.text}"
        if len(rec.names) > 1:
            line += "   (also: " + ", ".join(rec.names[1:]) + ")"
        print(line)
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    on = _use_color(args)
    rec, d = _resolve(args, args.name)
    perm = satake_automorphism(d)
    rr = restricted_roots(d)
    if rec:
        print(f"{_bold('name:', on)} {rec.name}")
        if len(rec.names) > 1:
            print(f"{_bold('also known as:', on)} " + ", ".join(rec.names[1:]))
    print(f"{_bold('diagram:', on)} {format_diagram(d)}")
    print(render_diagram(d))
    print(f"{_bold('node involution:', on)} {permutation_cycles(perm)}")
    print(f"{_bold('identity involution:', on)} {'yes' if perm == d.rs._identity else 'no'}")
    print(f"{_bold('restricted type:', on)} {rr.label if rr.label else 'none (compact)'}")
    return 0


def _cmd_epsilon(args: argparse.Namespace) -> int:
    _, d = _resolve(args, args.diagram)
    print(permutation_cycles(satake_automorphism(d)))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    table = classify(args.rank_bound)
    if args.json:
        print(classification_to_json(table))
        return 0
    on = _use_color(args)
    print(_bold(f"{'real form':<16} {'involution':<12} diagram", on))
    for row in table.rows:
        print(f"{row.name:<16} {row.automorphism:<12} {row.diagram}")
    total = sum(1 for row in table.rows if row.is_identity)
    print(f"identity involution: {total} of {len(table.rows)}")
    return 0


def _fraction_text(c: int) -> str:
    return str(c // 2) if c % 2 == 0 else f"{c}/2"


def _cmd_restricted(args: argparse.Namespace) -> int:
    _, d = _resolve(args, args.name)
    rr = restricted_roots(d)
    if args.json:
        print(restricted_to_json(rr))
        return 0
    on = _use_color(args)
    print(f"{_bold('restricted type:', on)} {rr.label if rr.label else 'none (compact)'}")
    if rr.base:
        print(_bold("base:", on))
        for v in rr.base:
            print("  " + " ".join(_fraction_text(c) for c in v))
    if rr.positive:
        print(_bold("positive restricted roots (multiplicity):", on))
        for v in rr.positive:
            coords = " ".join(_fraction_text(c) for c in v)
            print(f"  {coords}   x{rr.multiplicity[v]}")
    return 0


def _cmd_weights(args: argparse.Namespace) -> int:
    _, d = _resolve(args, args.name)
    # int() alone would also take "1_0", " 1" and non-ASCII digits
    items = args.coords.split(",")
    if not all(re.fullmatch("[+-]?[0-9]+", c) for c in items):
        raise ValueError(f"coordinates must be comma-separated integers, got {args.coords!r}")
    out = act_on_weight(satake_automorphism(d), tuple(map(int, items)))
    print(",".join(str(c) for c in out))
    return 0


def _cmd_verdict(args: argparse.Namespace) -> int:
    _, d = _resolve(args, args.name)
    hyp = SubgroupHypotheses(
        spherical=args.spherical, self_normalizing=args.self_normalizing
    )
    v = real_structure_verdict(d, hyp)
    if args.json:
        print(verdict_to_json(v))
        return 0
    on = _use_color(args)
    print(f"{_bold('subgroup conjugacy:', on)} {v.subgroup_conjugacy}")
    print(f"{_bold('equivariant map guaranteed:', on)} {'yes' if v.equivariant_map_exists else 'no'}")
    print(f"{_bold('real structure on homogeneous space:', on)} {v.real_structure_on_homogeneous_space}")
    print(f"{_bold('real structure on completion:', on)} {v.real_structure_on_completion}")
    print(f"{_bold('citations:', on)} " + ", ".join(v.citations))
    print(_bold("caveats:", on))
    for c in v.caveats:
        print(f"  - {c}")
    return 0


def _selftest_checks(d: SatakeDiagram, failures: list[str], tag: str) -> None:
    # What the derivation does not enforce, the lattice involution's laws first.
    rs = d.rs
    report = validate(d)
    if not report.ok:
        failures.append(f"{tag}: validation failed: {report}")
        return
    failures.extend(f"{tag}: {check}: {detail}" for check, detail in involution_failures(d))
    perm = satake_automorphism(d)
    # the node map reads the black flip off each component's shape; the
    # word for the whole black set's longest element is the independent side
    if {i: perm[i] for i in d.black} != induced_node_permutation(rs, d.black):
        failures.append(f"{tag}: black set {tuple(sorted(d.black))} flips unlike -w0")
    if d.is_doubled:
        r = d.types[0].rank
        if any(perm[i] < r for i in range(r)):
            failures.append(f"{tag}: doubled diagram does not swap its components")
    if parse_diagram(format_diagram(d)) != d:
        failures.append(f"{tag}: text format does not round-trip")
    rr = restricted_roots(d)
    black_supported = sum(
        1 for root in rs.positive_roots if all(root[k] == 0 for k in d.whites)
    )
    if sum(rr.multiplicity.values()) != len(rs.positive_roots) - black_supported:
        failures.append(f"{tag}: restricted multiplicities do not add up")
    for v in rr.positive:
        try:
            coords = base_coordinates(rr.base, v)
        except ValueError:
            failures.append(f"{tag}: restricted root {v} is outside the base span")
            continue
        if any(c.denominator != 1 or c.numerator < 0 for c in coords):
            failures.append(f"{tag}: restricted root {v} has coordinates {coords}")
    if rr.positive and rr.label is None:
        failures.append(f"{tag}: restricted system has roots but no type label")


def _cmd_selftest(args: argparse.Namespace) -> int:
    failures: list[str] = []
    records = catalog(args.rank_bound)
    for rec in records:
        _selftest_checks(rec.diagram, failures, rec.name)
    if failures:
        for f in failures:
            print(f"selftest failure: {f}", file=sys.stderr)
        return 3
    print(f"selftest: {len(records)} catalog diagrams passed all consistency checks")
    return 0


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse's negative numbers are lone numbers, so it reads "-1,0" as
    # an option: a coordinate list with a negative first goes after "--"
    for k, arg in enumerate(argv):
        if arg == "--":
            break
        if re.fullmatch(r"-[0-9]+(,[+-]?[0-9]+)+", arg):
            argv.insert(k, "--")
            break
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.run(args)
    except UnknownRealFormError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DiagramParseError, DiagramDataError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    # Die silently when a downstream pipe reader exits early, as
    # filter-style tools do (``satake classify --json | head``).
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
