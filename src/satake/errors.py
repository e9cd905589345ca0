"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ("DiagramDataError", "DiagramParseError", "SatakeError", "UnknownRealFormError")


class SatakeError(Exception):
    """Base class for errors raised by this package."""


class DiagramDataError(SatakeError):
    """Diagram data violates an axiom needed by a derived computation.

    Carries ``failures`` as (check, detail) pairs so callers can report
    every violated axiom, not just the first one hit.
    """

    def __init__(self, failures):
        self.failures = tuple(failures)
        super().__init__("; ".join(f"{check}: {detail}" for check, detail in self.failures))


class DiagramParseError(SatakeError):
    """Malformed diagram text; ``position`` is the offending character offset."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnknownRealFormError(SatakeError, KeyError):
    """Catalog lookup failed; ``suggestions`` holds the closest known names."""

    def __init__(self, name, suggestions=()):
        self.name = name
        self.suggestions = tuple(suggestions)
        hint = f"; close matches: {', '.join(self.suggestions)}" if self.suggestions else ""
        super().__init__(f"unknown real form {name!r}{hint}")

    def __str__(self):
        # KeyError would repr-quote the message; report it verbatim instead
        return self.args[0]
