"""Byte-level golden of the CLI's derived outputs over the whole catalog.

``golden/output_digests.json`` maps each query to the SHA-256 of its
stdout: ``classify --json``, and for every catalog form ``epsilon``,
``restricted --json`` and ``verdict --json`` under every combination of
the subgroup hypotheses.  Refactors of the derivation must leave every
byte unchanged.

Re-record, only when an output change is intended, from the repository
root with ``PYTHONPATH=src python tests/test_output_digests.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from satake.realforms import catalog
from satake.cli import run

PATH = Path(__file__).parent / "golden" / "output_digests.json"
HYPOTHESES = ("", " --spherical", " --self-normalizing", " --spherical --self-normalizing")


def queries() -> dict[str, list[str]]:
    out = {"classify --json": ["classify", "--json"]}
    for rec in catalog():
        out[f"epsilon {rec.name}"] = ["epsilon", rec.name]
        out[f"restricted --json {rec.name}"] = ["restricted", rec.name, "--json"]
        for flags in HYPOTHESES:
            out[f"verdict{flags} --json {rec.name}"] = ["verdict", rec.name, *flags.split(), "--json"]
    return out


def digest(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return f"{code} {hashlib.sha256(buf.getvalue().encode('utf-8')).hexdigest()}"


def test_outputs_match_recorded_digests():
    golden = json.loads(PATH.read_text())
    got = {key: digest(argv) for key, argv in queries().items()}
    assert got.keys() == golden.keys()
    assert [k for k in got if got[k] != golden[k]] == []


if __name__ == "__main__":
    PATH.write_text(
        json.dumps({key: digest(argv) for key, argv in queries().items()}, indent=1) + "\n"
    )
