"""Every check over a whole rank range, the independent oracles and the
selftest, each bound stated once, in ``ORACLES``: a row's name, its
function ``bound -> (counts, mismatches)``, its tier-1 bound, its CI bound
and its counts at the tier-1 bound.  As a script, with no arguments, this
file runs each row at its CI bound, prints its counts and seconds, then
each cache's fill, and exits 1 if any row had a mismatch."""

from __future__ import annotations

import ast
import re
import sys
import time
from collections import namedtuple
from pathlib import Path

import pytest
from conftest import workflow_steps
import test_caches as cache_tests
import test_cli as cli_tests
import test_diagram as diagram_tests
import test_involution as involution_tests
import test_rootsys as rootsys_tests

TESTS = Path(__file__).resolve().parent
Oracle = namedtuple("Oracle", "name run tier1 ci counts")


ORACLES = (
    Oracle("painted", diagram_tests.painted_census, 10, 16, {"candidates": 12822, "accepted": 252}),
    Oracle("one-edit", diagram_tests.one_edit_census, 16, 32, {"neighbours": 13072, "accepted": 405}),
    Oracle("doubled", diagram_tests.doubled_census, 4, 6, {"candidates": 9928, "accepted": 320}),
    Oracle("relabel", diagram_tests.relabel_mismatches, 6, 8, {"diagrams": 1099, "images": 3705}),
    Oracle("black-tables", involution_tests.black_table_mismatches, 8, 32, {"systems": 66, "entries": 1815}),
    Oracle("predecessors", rootsys_tests.predecessor_mismatches, 8, 32, {"systems": 66, "roots": 2823}),
    # tier-1's 66 forms fit the parse memo and both base memos; CI's 597 overflow them, so both passes evict
    Oracle("read-out", involution_tests.read_out_mismatches, 4, 16, {"answers": 782}),
    Oracle("orbit-sums", involution_tests.orbit_sum_mismatches, 16, 32, {"roots": 50795}),
    Oracle("helgason", involution_tests.helgason_mismatches, 16, 32, {"forms": 597}),
    Oracle("restricted-cartan", involution_tests.catalog_cartan_mismatches, 16, 32, {"forms": 597}),
    # CI's 1,957 forms overflow the parse memo and both base memos, so most read-outs miss
    Oracle("selftest", cli_tests.selftest_mismatches, 8, 32, {"forms": 205}),
)


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.name)
def test_oracle(oracle):
    assert oracle.run(oracle.tier1) == (oracle.counts, [])


def test_ci_runs_the_table_in_one_step():
    # one step on every matrix Python, which also prints each cache's fill;
    # no step imports a test module
    steps = workflow_steps()
    (step,) = [s for s in steps if "tests/test_oracles.py" in s]
    assert re.search(r"python -X dev -W error tests/test_oracles.py$", step, flags=re.M) and "if:" not in step
    assert re.findall(r"import (test_\w+)", "".join(steps)) == []


def test_every_census_and_mismatch_function_is_reached_by_a_row():
    # by the names each module-level function under tests/ reads, functions
    # of one name in two modules merged
    reads: dict[str, set[str]] = {}
    for path in TESTS.glob("*.py"):
        for f in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(f, ast.FunctionDef):
                reads.setdefault(f.name, set()).update(n.id for n in ast.walk(f) if isinstance(n, ast.Name))
    reached, todo = set(), {o.run.__name__ for o in ORACLES}
    while todo:
        reached |= todo
        todo = set().union(*(reads.get(name, ()) for name in todo)) - reached
    oracles = {name for name in reads if name.endswith(("_census", "_mismatches"))}
    assert oracles <= reached, oracles - reached


def main() -> int:
    failed = False
    for o in ORACLES:
        start = time.perf_counter()
        counts, bad = o.run(o.ci)
        shown = "".join(f"{v:,} {k}, " for k, v in counts.items())
        print(f"{o.name} at {o.ci}: {shown}{len(bad)} mismatches, {time.perf_counter() - start:.1f} s")
        print("".join(f"  {line}\n" for line in bad[:10]), end="", flush=True)
        failed = failed or bool(bad)
    print("\n".join(cache_tests.cache_fills()))
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
