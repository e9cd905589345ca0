"""Arbitrary text fails cleanly: only package errors, only exit codes 0, 1, 2."""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from satake.cli import run
from satake.diagram import parse_diagram
from satake.errors import SatakeError

TYPES = ["A1", "A3", "B2", "C3", "D4", "D5", "E6", "F4", "G2", "A2xA2", "A33", "D2", "A0", "Q3", "E9", ""]
INDICES = st.one_of(st.integers(0, 9).map(str), st.sampled_from(["", "x", "-1", "²", "1" * 5000]))


@st.composite
def diagram_like(draw):
    """Text close to the diagram format, so the checks past parsing run too."""
    black = ",".join(draw(st.lists(INDICES, max_size=4)))
    arrows = ",".join(
        draw(st.lists(st.tuples(INDICES, INDICES).map(":".join), max_size=3))
    )
    sep = draw(st.sampled_from([" ", " ", "  ", "\t"]))
    return sep.join([draw(st.sampled_from(TYPES)), f"black={black}", f"arrows={arrows}"])


TEXT = st.one_of(st.text(max_size=40), diagram_like())


@settings(max_examples=120, deadline=None)
@given(TEXT)
def test_parse_raises_only_package_errors(text):
    try:
        parse_diagram(text)
    except SatakeError:
        pass


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["epsilon", "restricted", "verdict"]), TEXT)
def test_cli_exits_cleanly(command, text):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = run([command, text])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
