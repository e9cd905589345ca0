"""Child-process entry points of the benchmark; ``run.py`` starts them.

Modes (run from the repository root, with ``src`` holding the package):

* ``setup [--trace]``: one cold set-up: import ``satake`` plus the first
  ``catalog()``, then a batch of ``lookup`` calls.  Prints one JSON line.
* ``cli FD ARGS...``: runs ``satake.cli`` with the span recorder
  installed and writes the span summary as JSON to file descriptor FD.
* ``work WORKLOAD SEED UNITS TRACE``: one sweep of an in-process
  workload (``catalog-derive`` or ``census-validate``): UNITS passes or
  rounds.  Prints one JSON line.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import sys
from fractions import Fraction
from time import perf_counter, perf_counter_ns

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import census  # noqa: E402
import goldens  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

LOOKUPS = 400


def _check_package_source() -> None:
    import satake

    if not os.path.abspath(satake.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"satake imported from {satake.__file__}, not from {SRC}")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(trace: bool) -> dict:
    gauge = speed.Gauge()
    gauge.probe(speed.WINDOW)
    t0 = perf_counter()
    import satake

    t1 = perf_counter()
    import satake.cli  # noqa: F401

    t2 = perf_counter()
    tracer = spans.Tracer() if trace else None
    if tracer:
        spans.install(tracer)
    t3 = perf_counter()
    records = satake.catalog()
    t4 = perf_counter()
    gauge.probe(speed.WINDOW)
    _check_package_source()
    names = [name for e in goldens.load()["catalog"] for name in e["names"]]
    rng = random.Random(len(names))
    lookup = satake.lookup
    lookup_ns = []
    for name in rng.choices(names, k=LOOKUPS):
        a = perf_counter_ns()
        lookup(name)
        lookup_ns.append(perf_counter_ns() - a)
    lookup_ns.sort()
    out = {
        "setup_s": (t1 - t0) + (t4 - t3),
        "ref_ns": min(gauge.ns),
        "import_ms": (t2 - t0) * 1e3,
        "catalog_ms": (t4 - t3) * 1e3,
        "lookup_us": lookup_ns[len(lookup_ns) // 2] / 1e3,
        "types": len({rec.diagram.types for rec in records}),
    }
    if tracer:
        out["spans"] = tracer.summary()
    return out


def cli_traced(fd: int, argv: list[str]) -> int:
    import satake.cli

    tracer = spans.Tracer()
    spans.install(tracer)
    code = tracer.wrap(spans.OP, satake.cli.run)(argv)
    sys.stdout.flush()
    with os.fdopen(fd, "w") as f:
        json.dump(tracer.summary(), f)
    return code


# ---------------------------------------------------------------- workloads


def _units_derive(texts: list[str], rng: random.Random):
    """Endless passes over the catalog texts, each pass in a fresh seeded order."""
    flags = list(goldens.HYPOTHESES)
    while True:
        order = list(texts)
        rng.shuffle(order)
        yield [(text, rng.choice(flags)) for text in order]


def _derive_op(s):
    hyp = {flags: s.SubgroupHypotheses(*v) for flags, v in goldens.HYPOTHESES.items()}

    def op(item):
        text, flags = item
        d = s.parse_diagram(text)
        report = s.validate(d)
        perm = s.satake_automorphism(d)
        theta = s.dual_cartan_involution(d)
        corrections = s.black_corrections(d)
        rr = s.restricted_roots(d)
        coords = [s.base_coordinates(rr.base, v) for v in rr.positive]
        js = s.restricted_to_json(rr)
        vj = s.verdict_to_json(s.real_structure_verdict(d, hyp[flags]))
        return d, report, perm, theta, corrections, rr, coords, js, vj

    return op


def _derive_check(g: dict):
    golden = g["derive"]
    # Outputs per text that passed every check below; a later pass whose
    # outputs equal them skips the oracle, so that checks take less of a run.
    verified: dict = {}

    def check(item, out, stats) -> list[str]:
        text, flags = item
        if isinstance(out, BaseException):
            return [f"{text}: {type(out).__name__}: {out}"]
        d, report, perm, theta, corrections, rr, coords, js, vj = out
        stats["accepted"] += report.ok
        fails = [] if report.ok else [f"{text}: catalog diagram rejected: {report}"]
        if goldens.digest(js.encode("utf-8")) != golden[text]["restricted"]:
            fails.append(f"{text}: restricted_to_json differs from the golden")
        if goldens.digest(vj.encode("utf-8")) != golden[text]["verdict"][flags]:
            fails.append(f"{text}: verdict_to_json{flags} differs from the golden")
        seen = (perm, theta, corrections, rr.base, rr.positive, coords)
        if not fails and verified.get(text) == seen:
            return fails
        if any(perm[perm[i]] != i for i in range(len(perm))):
            fails.append(f"{text}: node map is not an involution")
        fails += [f"{text}: {f}" for f in census.theta_failures(d.rs.cartan, d.black, theta)]
        if sorted(corrections) != list(d.whites) or any(
            c < 0 for inner in corrections.values() for c in inner.values()
        ):
            fails.append(f"{text}: corrections are not nonnegative over every white node")
        for v, c in zip(rr.positive, coords):
            if any(x.denominator != 1 or x < 0 for x in c) or tuple(
                sum((x * b[k] for x, b in zip(c, rr.base)), Fraction(0)) for k in range(len(v))
            ) != v:
                fails.append(f"{text}: base coordinates of {v} are wrong: {c}")
        if not fails:
            verified[text] = seen
        return fails

    return check


def _census_op(s):
    def op(cand):
        comps, black, arrows = cand
        d = s.SatakeDiagram.create(comps, black, arrows)
        report = s.validate(d)
        if not report.ok:
            return d, report, None, None
        return d, report, s.dual_cartan_involution(d), s.restricted_roots(d)

    return op


# Checks that need only the node sets and arrows.  Every other failure is
# found after the black subsystem's longest element is computed (the
# induced node map, then the lattice involution's laws).
STRUCTURAL_CHECKS = frozenset({
    "arrow endpoint out of range",
    "arrow connects a node to itself",
    "arrow touches black node",
    "node in more than one arrow",
    "black node out of range",
    "arrows break bond pattern",
})


def _census_check(g: dict, s):
    catalog_keys = {census.catalog_key(e["text"]) for e in g["catalog"]}

    def check(cand, out, stats) -> list[str]:
        comps, black, arrows = cand
        tag = f"{'x'.join(comps)} black={black} arrows={arrows}"
        in_catalog = cand in catalog_keys
        if isinstance(out, s.DiagramDataError):
            out = (None, s.ValidationReport(False, out.failures), None, None)
        if isinstance(out, BaseException):
            return [f"{tag}: {type(out).__name__}: {out}"]
        d, report, theta, rr = out
        if not report.ok:
            structural = report.failures[0][0] in STRUCTURAL_CHECKS
            stats["rejected_structural" if structural else "rejected_lattice"] += 1
            return [f"{tag}: catalog diagram rejected: {report}"] if in_catalog else []
        stats["accepted"] += 1
        fails = census.theta_failures(d.rs.cartan, black, theta)
        total, black_only = census.positive_count(d.rs.cartan, black)
        if sum(rr.multiplicity.values()) != total - black_only:
            fails.append("restricted multiplicities do not add up")
        return [f"{tag}: {f}" for f in fails]

    return check


def _run_phase(units, limit: int, op, check, stats, errors: list[str]):
    """Closed loop with one client over the first ``limit`` units (passes or
    rounds).  Only ``op`` is timed; the checks and speed probes run outside."""
    latencies: list[int] = []
    starts: list[int] = []
    items = []
    gauge = speed.Gauge()
    gauge.probe(speed.WINDOW)
    for unit in itertools.islice(units, limit):
        for item in unit:
            t0 = perf_counter_ns()
            try:
                out = op(item)
            except Exception as e:  # judged by ``check``: only DiagramDataError may be correct
                out = e
            latencies.append(perf_counter_ns() - t0)
            starts.append(t0)
            items.append(item)
            fails = check(item, out, stats)
            if fails:
                stats["failed"] += 1
                errors.extend(fails[:1])
            gauge.maybe_probe()
    gauge.probe(speed.WINDOW)
    scaled = [gauge.scale(t0, ns) for t0, ns in zip(starts, latencies)]
    return latencies, scaled, items, gauge


def work(workload: str, seed: int, limit: int, trace: bool) -> dict:
    """One sweep of ``limit`` units of an in-process workload; the same seed
    and ``limit`` give the same inputs in the same order."""
    import satake as s

    _check_package_source()
    s.catalog()  # set-up: every catalog root system is built before timing
    g = goldens.load()
    if workload == "catalog-derive":
        units = _units_derive([e["text"] for e in g["catalog"]], random.Random(seed))
        op, check = _derive_op(s), _derive_check(g)
    elif workload == "census-validate":
        units = census.draw(census.census_types(s.build_root_system), seed)
        op, check = _census_op(s), _census_check(g, s)
    else:
        raise SystemExit(f"unknown in-process workload {workload!r}")
    stats = {"accepted": 0, "rejected_structural": 0, "rejected_lattice": 0, "failed": 0}
    errors: list[str] = []
    tracer = spans.Tracer() if trace else None
    if tracer:
        spans.install(tracer)
        op = tracer.wrap(spans.OP, op)
    latencies, scaled, items, gauge = _run_phase(units, limit, op, check, stats, errors)
    out = {
        "latency_ns": latencies,
        "scaled_ns": scaled,
        "ref_ns": gauge.ns,
        "stats": stats,
        "errors": errors,
        "peak_rss_mb": _maxrss_mb(),
    }
    if workload == "catalog-derive":
        out["items"] = [text for text, _ in items]
    if tracer:
        out["spans"] = tracer.summary()
    return out


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        print(json.dumps(setup_probe(argv[1:] == ["--trace"])))
        return 0
    if mode == "cli":
        return cli_traced(int(argv[1]), argv[2:])
    if mode == "work":
        workload, seed, limit, trace = argv[1:5]
        print(json.dumps(work(workload, int(seed), int(limit), trace == "1")))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
