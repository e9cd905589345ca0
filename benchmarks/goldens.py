"""Golden outputs the benchmark checks every result against.

``goldens.json`` holds the catalog (names and diagram texts) the
workloads draw their inputs from, a digest of the stdout of every
``cli-cold`` query, and for every catalog text the digests of
``restricted_to_json`` and of ``verdict_to_json`` under each of the four
subgroup hypotheses.  Outputs must stay byte-identical, so any
mismatch is a failed operation.

Re-record (only when an output change is intended) from the repository
root with ``python3 benchmarks/goldens.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stdout

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")
HYPOTHESES = {"": (False, False), " --spherical": (True, False),
              " --self-normalizing": (False, True), " --spherical --self-normalizing": (True, True)}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def unit_coords(n: int, i: int) -> str:
    return ",".join("1" if k == i else "0" for k in range(n))


def cli_queries(
    entry: dict, name: str = "", hyp_flags: str = "", coord: int = 0
) -> dict[str, tuple[list[str], str]]:
    """Every per-diagram query kind: kind -> (argv, golden key).

    Outputs do not depend on which of the entry's names is asked for.
    """
    name, text = name or entry["names"][0], entry["text"]
    coords = unit_coords(entry["n"], coord)
    return {
        "show": (["show", name], f"show {text}"),
        "epsilon_name": (["epsilon", name], f"epsilon {text}"),
        "epsilon_literal": (["epsilon", text], f"epsilon {text}"),
        "restricted": (["restricted", name, "--json"], f"restricted {text}"),
        "weights": (["weights", name, coords], f"weights {text} {coords}"),
        "verdict": (["verdict", name, *hyp_flags.split(), "--json"], f"verdict{hyp_flags} {text}"),
    }


GLOBAL_QUERIES = {
    "list": (["list"], "list"),
    "classify": (["classify", "--json"], "classify --json"),
    "selftest": (["selftest"], "selftest"),
}


def load() -> dict:
    with open(PATH, encoding="utf-8") as f:
        return json.load(f)


def _stdout_of(run, argv: list[str]) -> bytes:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    if code != 0:
        raise SystemExit(f"golden query {argv} exited {code}")
    return buf.getvalue().encode("utf-8")


def record() -> dict:
    from satake import (
        SubgroupHypotheses, catalog, real_structure_verdict, restricted_roots,
        restricted_to_json, parse_diagram, verdict_to_json,
    )
    from satake.cli import run

    entries = [{"names": list(r.names), "text": r.text, "n": r.diagram.n} for r in catalog()]
    cli = {key: digest(_stdout_of(run, argv)) for argv, key in GLOBAL_QUERIES.values()}
    derive = {}
    for e in entries:
        queries = [cli_queries(e, hyp_flags=flags)["verdict"] for flags in HYPOTHESES]
        queries += [cli_queries(e, coord=i)["weights"] for i in range(e["n"])]
        queries += [q for k, q in cli_queries(e).items() if k not in ("verdict", "weights")]
        for argv, key in queries:
            cli[key] = digest(_stdout_of(run, argv))
        d = parse_diagram(e["text"])
        derive[e["text"]] = {
            "restricted": digest(restricted_to_json(restricted_roots(d)).encode("utf-8")),
            "verdict": {
                flags: digest(
                    verdict_to_json(real_structure_verdict(d, SubgroupHypotheses(*hyp))).encode("utf-8")
                )
                for flags, hyp in HYPOTHESES.items()
            },
        }
    return {"catalog": entries, "cli": cli, "derive": derive}


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    data = record()
    with open(PATH, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"wrote {PATH}: {len(data['cli'])} cli digests, {len(data['derive'])} catalog texts")
