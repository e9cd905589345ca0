"""Command-line behaviour: outputs, exit codes, JSON determinism."""

from __future__ import annotations

import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import fresh_python, workflow_steps

from satake.cli import _selftest_checks, run
from satake.diagram import ValidationReport
from satake.involution import RestrictedRoots
from satake.realforms import catalog
from satake.rootsys import MAX_RANK

GOLDEN = Path(__file__).parent / "golden"


def test_list_contains_every_primary_name(capsys, full_catalog):
    assert run(["list"]) == 0
    out = capsys.readouterr().out
    for rec in full_catalog:
        assert rec.name in out
    assert "A1xA1 black= arrows=1:2" in out


def test_show(capsys):
    assert run(["show", "su*(4)"]) == 0
    out = capsys.readouterr().out
    assert "name: su*(4)" in out
    assert "also known as: sl(2,H)" in out
    assert "diagram: A3 black=1,3 arrows=" in out
    assert "identity involution: yes" in out
    assert "restricted type: A1" in out


def test_epsilon_identity(capsys):
    assert run(["epsilon", "sl(3,R)"]) == 0
    assert capsys.readouterr().out.strip() == "identity"


def test_epsilon_cycles(capsys):
    assert run(["epsilon", "e6(2)"]) == 0
    assert capsys.readouterr().out.strip() == "(1 6)(3 5)"


def test_epsilon_literal(capsys):
    assert run(["epsilon", "A3 black=1,3 arrows="]) == 0
    assert capsys.readouterr().out.strip() == "identity"


def test_epsilon_invalid_literal(capsys):
    assert run(["epsilon", "A2 black=1 arrows=1:2"]) == 2
    err = capsys.readouterr().err
    assert "arrow touches black node" in err


def test_epsilon_parse_error(capsys):
    assert run(["epsilon", "A2  black= arrows="]) == 2
    assert "position" in capsys.readouterr().err


def test_unknown_name_exit_1_with_suggestions(capsys):
    assert run(["show", "su(19)"]) == 1
    err = capsys.readouterr().err
    assert "unknown real form" in err
    assert "close matches" in err


def test_classify_json_deterministic(capsys):
    assert run(["classify", "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["classify", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["rank_bound"] == 8
    names = {row["name"]: row for row in payload["real_forms"]}
    assert names["so(2,6)"]["is_identity"] is True
    assert names["su(2,1)"]["automorphism"] == "(1 2)"


def test_classify_text_summary(capsys):
    assert run(["classify"]) == 0
    out = capsys.readouterr().out
    assert "identity involution: 122 of 205" in out


def test_rank_bound_flag(capsys):
    assert run(["--rank-bound", "2", "classify", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank_bound"] == 2
    assert all("E" not in row["diagram"].split(" ")[0] for row in payload["real_forms"])
    assert run(["--rank-bound", "2", "show", "f4(4)"]) == 1
    capsys.readouterr()


def test_rank_cap_exits_2(capsys, monkeypatch):
    # rejected before any root is generated
    monkeypatch.setattr("satake.rootsys._root_closure", None)
    over = MAX_RANK + 1
    assert run(["epsilon", f"A{over} black= arrows="]) == 2
    assert f"cap of {MAX_RANK}" in capsys.readouterr().err
    assert run(["--rank-bound", str(over), "list"]) == 2
    assert f"between 1 and {MAX_RANK}" in capsys.readouterr().err


LITERAL_QUERIES = [
    ["epsilon", "{}"],
    ["restricted", "{}"],
    ["restricted", "{}", "--json"],
    ["weights", "{}", "1,0"],
    ["verdict", "{}"],
    ["verdict", "{}", "--spherical", "--json"],
]


@pytest.mark.parametrize("query", LITERAL_QUERIES)
def test_literal_output_equals_named_output(capsys, query):
    def output(name):
        assert run([a.format(name) for a in query]) == 0
        return capsys.readouterr().out

    assert output("A2 black= arrows=1:2") == output("su(2,1)")


def test_show_literal_omits_only_the_names(capsys):
    assert run(["show", "A2 black= arrows=1:2"]) == 0
    literal = capsys.readouterr().out
    assert run(["show", "su(2,1)"]) == 0
    named = capsys.readouterr().out.splitlines(keepends=True)
    assert named[0] == "name: su(2,1)\n"
    assert literal == "".join(
        line for line in named if not line.startswith(("name:", "also known as:"))
    )


def test_show_literal_prints_canonical_text(capsys):
    assert run(["show", "A3 black=3,1 arrows="]) == 0
    out = capsys.readouterr().out
    assert out.startswith("diagram: A3 black=1,3 arrows=\n")
    assert "identity involution: yes" in out
    assert "restricted type: A1" in out
    assert run(["show", "A3  black=1,3 arrows="]) == 2
    assert "position" in capsys.readouterr().err


@pytest.mark.parametrize("query", LITERAL_QUERIES + [["show", "{}"]])
def test_invalid_literal_exits_2_with_failures(capsys, query):
    assert run([a.format("A2 black=1 arrows=1:2") for a in query]) == 2
    assert "arrow touches black node" in capsys.readouterr().err


@pytest.mark.parametrize(
    "query", LITERAL_QUERIES + [["show", "{}"], ["verdict", "{}", "--spherical", "--self-normalizing"]]
)
def test_literal_of_no_real_form_exits_2(capsys, query):
    # the node map passes, Araki's rule fails at node 2
    assert run([a.format("A2 black=1 arrows=") for a in query]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not admissible: white node 2:" in captured.err


def test_restricted_json(capsys):
    assert run(["restricted", "su(2,1)", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "BC1"
    assert payload["base"] == [[{"num": 1, "den": 2}, {"num": 1, "den": 2}]]
    assert payload["positive"][0]["multiplicity"] == 2


def test_restricted_text(capsys):
    assert run(["restricted", "so(2,3)"]) == 0
    out = capsys.readouterr().out
    assert "restricted type: B2" in out
    assert "x1" in out


def test_restricted_compact(capsys):
    assert run(["restricted", "su(4)"]) == 0
    assert "none (compact)" in capsys.readouterr().out


def test_weights(capsys):
    assert run(["weights", "su(2,1)", "1,0"]) == 0
    assert capsys.readouterr().out.strip() == "0,1"


def test_weights_bad_coords(capsys):
    assert run(["weights", "su(2,1)", "1,x"]) == 2
    capsys.readouterr()
    assert run(["weights", "su(2,1)", "1,0,0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("coords", ["1_0,0", " 1,0", "1,0 ", "\u0661,0", "+-1,0", "1,,0", "0x1,0"])
def test_weights_accept_only_ascii_integers(capsys, coords):
    # int() alone would read the first four as integers
    assert run(["weights", "sl(3,R)", coords]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "comma-separated integers" in captured.err


def test_weights_accept_a_sign(capsys):
    assert run(["weights", "su(2,1)", "+1,-0"]) == 0
    assert capsys.readouterr().out.strip() == "0,1"


def test_weights_without_coordinates_is_a_usage_error(capsys):
    # "weights su(2,1) -1,0" reads -1,0 as coordinates, not as an option: two rows of CLI_CASES
    assert run(["weights", "su(2,1)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: satake weights") and "required: coords" in err


def test_verdict_json_matches_golden(capsys):
    assert run(["verdict", "sl(3,R)", "--spherical", "--self-normalizing", "--json"]) == 0
    out = capsys.readouterr().out
    expected = (GOLDEN / "verdict_identity_spherical_selfnormalizing.json").read_text()
    assert out == expected


def test_verdict_text(capsys):
    assert run(["verdict", "su(2,1)", "--spherical"]) == 0
    out = capsys.readouterr().out
    assert "subgroup conjugacy: unknown" in out
    assert "citations: Sec6-example" in out
    assert "caveats:" in out


@pytest.mark.parametrize(
    "query,guaranteed",
    [
        # epsilon = id without sphericity: H = {e} has sigma itself as the map,
        # so "no" claims only that the theorem does not guarantee one
        (["sl(3,R)"], "no"),
        (["sl(3,R)", "--spherical"], "yes"),
        # epsilon != id: H = B is a spherical self-normalizing counterexample
        (["so(3,5)", "--spherical", "--self-normalizing"], "no"),
    ],
)
def test_verdict_text_claims_only_a_guarantee(capsys, query, guaranteed):
    assert run(["verdict", *query]) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"equivariant map guaranteed: {guaranteed}"


def selftest_mismatches(bound: int) -> tuple[dict[str, int], list[str]]:
    """What ``satake --rank-bound BOUND selftest`` checks, in-process: how
    many catalog forms there are, and each failure the checks report."""
    records = catalog(bound)
    failures: list[str] = []
    for rec in records:
        _selftest_checks(rec.diagram, failures, rec.name)
    return {"forms": len(records)}, failures


def test_selftest_failure_exits_3(capsys, monkeypatch):
    import satake.cli as cli

    broken = (("involution-squared", "the lattice map does not square to the identity"),)
    monkeypatch.setattr(cli, "involution_failures", lambda d: broken if d.n == 1 else ())
    assert run(["selftest"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[0] == (
        "selftest failure: sl(2,R): involution-squared: the lattice map does not square to the identity"
    )
    assert all(line.startswith("selftest failure: ") for line in err.splitlines())


# One broken input per check of the selftest that the derivation does not
# enforce: the ``satake.cli`` name replaced, as a function of its original,
# and the failure it must report.
BROKEN_SELFTEST_INPUTS = [
    ("validate", lambda f: lambda d: ValidationReport(False, (("check", "detail"),)), "validation failed: check: detail"),
    ("induced_node_permutation", lambda f: lambda rs, comp: {}, "flips unlike -w0"),
    (
        "satake_automorphism",
        lambda f: lambda d: d.rs._identity if d.black and not d.whites else f(d),
        "su(3): black set (0, 1) flips unlike -w0",
    ),
    (
        "satake_automorphism",
        lambda f: lambda d: d.rs._identity if d.is_doubled else f(d),
        "doubled diagram does not swap its components",
    ),
    ("format_diagram", lambda f: lambda d: "A1 black= arrows=", "text format does not round-trip"),
    (
        "restricted_roots",
        lambda f: lambda d: RestrictedRoots((rr := f(d)).base, rr.positive, {v: 2 for v in rr.positive}, rr.label),
        "restricted multiplicities do not add up",
    ),
    ("base_coordinates", lambda f: lambda base, v: f([], v), "is outside the base span"),
    ("base_coordinates", lambda f: lambda base, v: (Fraction(1, 2),), "has coordinates (Fraction(1, 2),)"),
    (
        "restricted_roots",
        lambda f: lambda d: RestrictedRoots((rr := f(d)).base, rr.positive, rr.multiplicity, None),
        "restricted system has roots but no type label",
    ),
]


@pytest.mark.parametrize("name,broken,message", BROKEN_SELFTEST_INPUTS, ids=[m for *_, m in BROKEN_SELFTEST_INPUTS])
def test_selftest_reports_each_broken_check(capsys, monkeypatch, name, broken, message):
    import satake.cli as cli

    monkeypatch.setattr(cli, name, broken(getattr(cli, name)))
    assert run(["selftest"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and message in err
    assert all(line.startswith("selftest failure: ") for line in err.splitlines())


def test_color_only_on_a_tty_unless_switched_off(monkeypatch):
    class Tty(io.StringIO):
        def isatty(self):
            return True

    def shown(*flags):
        monkeypatch.setattr(sys, "stdout", Tty())
        assert run([*flags, "show", "sl(2,R)"]) == 0
        return sys.stdout.getvalue()

    monkeypatch.delenv("NO_COLOR", raising=False)
    assert shown().startswith("\x1b[1mname:\x1b[0m sl(2,R)\n")
    assert "\x1b[" not in shown("--no-color")
    monkeypatch.setenv("NO_COLOR", "1")
    assert "\x1b[" not in shown()


def test_usage_errors(capsys):
    assert run([]) == 2
    capsys.readouterr()
    assert run(["frobnicate"]) == 2
    capsys.readouterr()
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_no_ansi_when_not_a_tty(capsys):
    assert run(["show", "sl(2,R)"]) == 0
    assert "\x1b[" not in capsys.readouterr().out


# The command's contract, one fresh ``python -S -X dev -W error`` process
# per row, so no import made by one path hides a lazy import that fails
# on its own: the argv of ``-m satake.cli`` (or the code of ``-c``), the
# exit code, and the whole stdout where it is pinned, else None.
CLI_CASES = [
    (["epsilon", "su(4,2)"], 0, "(1 5)(2 4)\n"),
    (["selftest"], 0, "selftest: 205 catalog diagrams passed all consistency checks\n"),
    (["show", "so(3,55)"], 1, ""),
    (["list"], 0, None),
    (["classify", "--json"], 0, None),
    (["restricted", "e6(-14)", "--json"], 0, None),
    # the root closure at the rank cap, and of B32xB32, the largest system built
    (["restricted", "B32 black= arrows=", "--json"], 0, None),
    (["--rank-bound", "32", "restricted", "so(65,C)", "--json"], 0, None),
    (["verdict", "so(3,5)", "--spherical", "--json"], 0, None),
    # for H = {e}, sigma itself is an equivariant map: "no" only says none is guaranteed
    (
        ["verdict", "sl(3,R)"],
        0,
        "subgroup conjugacy: hypothesis-required\n"
        "equivariant map guaranteed: no\n"
        "real structure on homogeneous space: unknown\n"
        "real structure on completion: unknown\n"
        "citations: Thm2.1\n"
        "caveats:\n"
        "  - conclusions are stated for connected semisimple complex linear algebraic groups\n"
        "  - without sphericity the subgroup class need not be stable under conjugation;"
        " this must be checked by other means\n",
    ),
    (["epsilon", "E8 black=2,3,4,5 arrows="], 0, None),
    (["weights", "A3 black=2 arrows=1:3", "1,0,0"], 0, None),
    # a negative first coordinate needs no "--", and "--" still works
    (["weights", "su(2,1)", "-1,0"], 0, "0,-1\n"),
    (["weights", "su(2,1)", "--", "-1,0"], 0, "0,-1\n"),
    # int() reads 1_0 as 10; coordinates are ASCII digits with an optional sign
    (["weights", "su(2,1)", "1_0,0"], 2, ""),
    # the node map passes, Araki's rule does not: no real form has this diagram
    (["verdict", "A2 black=1 arrows=", "--spherical", "--self-normalizing"], 2, ""),
    (["epsilon", "A3xA3 black= arrows="], 0, None),
    # the submodule is reachable by its name; the package's catalog is the function
    ("import satake.realforms as c; c.catalog(); import satake; satake.lookup('su(2,1)').diagram", 0, ""),
    # the package's star-import surface: each module's __all__, joined
    ("from satake import *", 0, ""),
]


@pytest.mark.parametrize(
    "argv,code,stdout", CLI_CASES, ids=[a if isinstance(a, str) else " ".join(a) for a, *_ in CLI_CASES]
)
def test_cli_case(argv, code, stdout):
    proc = fresh_python(argv, flags="-S -X dev -W error")
    assert proc.returncode == code, proc.stderr
    assert stdout is None or proc.stdout == stdout
    assert code or proc.stderr == ""


def test_ci_runs_the_command_only_where_no_row_can():
    # the installed entry point; the selftest at CI's bound is a row of
    # ORACLES in tests/test_oracles.py
    runs = [s.split("\n", 1)[0] for s in workflow_steps() if "satake" in s]
    assert runs == ["name: installed entry point"]


def test_cold_queries_import_only_what_they_run():
    # ``-S`` keeps site's own imports out; a query that needs no JSON,
    # rationals or name suggestions must not load those modules.
    code = (
        "import sys\n"
        "import satake.cli\n"
        "loaded = [set(sys.modules)]\n"
        "for argv in (['list'], ['epsilon', 'e6(-14)']):\n"
        "    satake.cli.run(argv)\n"
        "    loaded.append(set(sys.modules))\n"
        "heavy = {'dataclasses', 'inspect', 'json', 'fractions', 'decimal', 'difflib', 'typing'}\n"
        "print('LOADED', *[sorted(heavy & m) for m in loaded], file=sys.stderr)\n"
    )
    proc = fresh_python(code, flags="-S", check=True)
    assert proc.stderr.strip() == "LOADED [] [] []"
    assert proc.stdout.splitlines()[-1] == "(1 6)(3 5)"
