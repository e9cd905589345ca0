"""Benchmark of the satake toolkit: cold CLI queries, catalog derivation and
census validation, end to end and per layer.

Run from the repository root (the package is imported from ``src``)::

    python3 benchmarks/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --seed 1                 # every workload in turn

Each run prints every metric by name with its unit, then one line with
the environment, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the per-layer ones.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from time import perf_counter, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import goldens  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("cli-cold", "catalog-derive", "census-validate")
CLI_KINDS = (
    "list", "show", "epsilon_name", "epsilon_literal",
    "classify", "restricted", "weights", "verdict",
)
BARE_RUNS = 5
CALIB_RUNS = 5
SETUP_RUNS = 7
TRACED_SETUP_RUNS = 3
CLI_PROBE_RUNS = 5
SELFTEST_RUNS = 2
CENSUS_SWEEPS = 4
# ``--seconds`` sets a fixed amount of work, so that both commits of a
# comparison measure the same inputs with the same number of repeats.
# Units per second of run time, measured on the reference host: CLI rounds
# of 8 queries, catalog passes of 205 texts, census rounds of up to 66
# candidates (an untraced census run splits them over its sweeps).
UNITS_PER_SECOND = {"cli-cold": 0.7, "catalog-derive": 0.6, "census-validate": 24}
SPREAD_NOTE = (
    "on the shared 2-vCPU reference host, wall-clock runs of the same code differed by "
    "up to 25% (up to 50% in slow spells lasting a minute); times scaled by the speed "
    "probe spread 1-7% (interquartile range over median, ten seeds); compare medians "
    "over at least ten runs"
)


class SetupError(Exception):
    """The benchmark cannot run here (no package source, a missing span)."""


# ------------------------------------------------------------------ helpers


def pct(values, p: float) -> float:
    """Linear-interpolated percentile ``p`` (0..100) of ``values``."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def calib_loop_ms() -> float:
    """A fixed pure-Python loop; shows drift in machine speed between runs."""
    t0 = perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return (perf_counter() - t0) * 1e3


class Runner:
    """Starts children from the checkout root, one at a time."""

    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=self.src, PYTHONIOENCODING="utf-8")
        self.python = sys.executable

    def spawn(self, argv: list[str], pass_fds=()):
        """Run to completion; returns (stdout, stderr, exit code, wall s, peak RSS MB)."""
        t0 = perf_counter()
        p = subprocess.Popen(
            argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=pass_fds,
        )
        for fd in pass_fds:
            os.close(fd)
        with p.stdout, p.stderr:
            out = p.stdout.read()
            err = p.stderr.read()
        _, status, usage = os.wait4(p.pid, 0)
        wall = perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        return out, err, p.returncode, wall, usage.ru_maxrss / 1024.0

    def child_json(self, *args: str) -> dict:
        out, err, code, _, _ = self.spawn([self.python, os.path.join(HERE, "child.py"), *args])
        if code != 0:
            raise SetupError(f"child {args[:2]} exited {code}: {err.decode(errors='replace')[-2000:]}")
        return json.loads(out.decode().splitlines()[-1])

    def cli(self, args: list[str]):
        return self.spawn([self.python, "-m", "satake.cli", *args])

    def cli_traced(self, args: list[str]):
        r, w = os.pipe()
        try:
            res = self.spawn([self.python, os.path.join(HERE, "child.py"), "cli", str(w), *args], (w,))
            with os.fdopen(r) as f:
                summary = json.loads(f.read() or "{}")
        except BaseException:
            os.close(r)
            raise
        return res, summary


# ------------------------------------------------------------------- probes


def cold_probes(run: Runner, g: dict, trace: bool, rng: random.Random) -> dict:
    """Cold-start measurements every run makes, outside the timed window."""
    run.spawn([run.python, "-c", "import satake.cli"])  # writes bytecode caches
    bare = [run.spawn([run.python, "-c", "pass"])[3] * 1e3 for _ in range(BARE_RUNS)]
    calib = [calib_loop_ms() for _ in range(CALIB_RUNS)]
    # half the set-up probes run before the workload and half after it
    setups = [run.child_json("setup") for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    probes = {"bare_ms": bare, "calib_ms": calib, "setup": setups}
    if trace:
        probes["traced_setup"] = [run.child_json("setup", "--trace") for _ in range(TRACED_SETUP_RUNS)]
        probes["cli"] = {}
        for kind in ("show", "epsilon_literal"):
            walls = []
            for _ in range(CLI_PROBE_RUNS):
                argv, key = goldens.cli_queries(rng.choice(g["catalog"]))[kind]
                out, err, code, wall, _ = run.cli(argv)
                if code != 0 or err or goldens.digest(out) != g["cli"][key]:
                    raise SetupError(f"cold CLI probe {argv} gave a wrong answer (exit {code})")
                walls.append(wall * 1e3)
            probes["cli"][kind] = walls
    return probes


# ---------------------------------------------------------------- workloads
#
# Every end-to-end time is scaled to the nominal speed of the reference
# probe (``speed.py``) and is a best of repeats: each input (a catalog
# text, a census candidate, a CLI query kind) runs several times, spread
# over the run, and its latency is its fastest scaled run; ``setup_s`` is
# the median of the scaled set-up probes.  On a shared host the speed of
# the processor changes by up to 1.6x, in spells from under a second to
# over a minute; the fastest repeat filters the short ones and the scale
# the long ones.  The wall-clock figures are printed as ``wall.*``.


def best_of(keys, values) -> list[float]:
    """Fastest value per key, in first-seen key order."""
    best: dict = {}
    for k, v in zip(keys, values):
        best[k] = min(v, best.get(k, v))
    return list(best.values())


def cli_rounds(g: dict, seed: int):
    """Endless rounds holding one query of every kind, in a seeded order."""
    rng = random.Random(seed)
    entries = g["catalog"]
    flags = list(goldens.HYPOTHESES)
    while True:
        round_ = []
        for kind in CLI_KINDS:
            if kind in goldens.GLOBAL_QUERIES:
                argv, key = goldens.GLOBAL_QUERIES[kind]
            else:
                e = rng.choice(entries)
                argv, key = goldens.cli_queries(
                    e, rng.choice(e["names"]), rng.choice(flags), rng.randrange(e["n"])
                )[kind]
            round_.append((kind, argv, key))
        rng.shuffle(round_)
        yield round_


def _cli_ok(g: dict, key: str, res) -> bool:
    out, err, code, _, _ = res
    return code == 0 and not err and goldens.digest(out) == g["cli"].get(key)


def cli_cold(run: Runner, g: dict, seed: int, rounds: int, trace: bool) -> dict:
    res = {"errors": [], "attempted": 0, "failed": 0, "stats": dict(VALIDATE_OUTCOMES)}
    gauge = speed.Gauge()

    def query(argv, key, traced):
        if traced:
            out, summary = run.cli_traced(argv)
        else:
            out, summary = run.cli(argv), None
        ok = _cli_ok(g, key, out)
        res["attempted"] += 1
        if not ok:
            res["failed"] += 1
            res["errors"].append(f"satake {' '.join(argv)}: exit {out[2]}, wrong or unexpected output")
        return out, ok, summary

    def phase(traced: bool):
        """Samples of (kind, wall ms, peak RSS MB, correct, query start ns)."""
        samples, summaries = [], []
        for round_ in itertools.islice(cli_rounds(g, seed), rounds):
            for kind, argv, key in round_:
                gauge.probe(2)
                t0 = perf_counter_ns()
                out, ok, summary = query(argv, key, traced)
                samples.append((kind, out[3] * 1e3, out[4], ok, t0))
                summaries.append(summary)
        gauge.probe(speed.WINDOW)
        return samples, summaries

    def best(samples):
        return best_of([s[0] for s in samples], [gauge.scale(s[4], s[1]) for s in samples])

    samples, _ = phase(False)
    res["best_ms"] = best(samples)
    res["wall_best_ms"] = best_of([s[0] for s in samples], [s[1] for s in samples])
    res["repeats"] = rounds
    res["all_ms"] = [s[1] for s in samples]
    res["peak_rss_mb"] = max(s[2] for s in samples)
    res["by_kind"] = {k: [s[1] for s in samples if s[0] == k] for k in CLI_KINDS}
    literal = [s for s in samples if s[0] == "epsilon_literal"]
    res["stats"]["accepted"] = sum(1 for s in literal if s[3])
    argv, key = goldens.GLOBAL_QUERIES["selftest"]
    res["selftest_ms"] = [query(argv, key, False)[0][3] * 1e3 for _ in range(SELFTEST_RUNS)]
    if trace:
        traced, summaries = phase(True)
        res["overhead"] = sum(best(traced)) / sum(res["best_ms"])
        res["spans"] = spans.merge(summaries)
    res["ref_ns"] = gauge.ns
    return res


def _sweep(run: Runner, workload: str, seed: int, units: int, traced: bool) -> dict:
    out = run.child_json("work", workload, str(seed), str(units), str(int(traced)))
    out["attempted"] = len(out["latency_ns"])
    return out


def in_process(run: Runner, workload: str, seed: int, units: int, trace: bool) -> dict:
    """``catalog-derive`` repeats its inputs inside one process (pass after
    pass); ``census-validate`` never repeats an input inside a process, so
    its repeats are whole sweeps, each in a fresh interpreter."""
    sweeps = CENSUS_SWEEPS if workload == "census-validate" and not trace else 1
    units = max(1, units // sweeps)
    runs = [_sweep(run, workload, seed, units, False) for _ in range(sweeps)]
    all_ns = [x for r in runs for x in r["latency_ns"]]
    keys = [k for r in runs for k in r.get("items", range(len(r["latency_ns"])))]
    res = {
        "best_ms": best_of(keys, [x / 1e6 for r in runs for x in r["scaled_ns"]]),
        "wall_best_ms": best_of(keys, [x / 1e6 for x in all_ns]),
        "ref_ns": [x for r in runs for x in r["ref_ns"]],
        "repeats": sweeps if sweeps > 1 else units,
        "all_ms": [x / 1e6 for x in all_ns],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "stats": {k: sum(r["stats"][k] for r in runs) for k in VALIDATE_OUTCOMES},
        "errors": [e for r in runs for e in r["errors"]],
    }
    if trace:
        traced = _sweep(run, workload, seed, units, True)
        traced_best = best_of(keys, [x / 1e6 for x in traced["scaled_ns"]])
        res["overhead"] = sum(traced_best) / sum(res["best_ms"])
        res["spans"] = traced["spans"]
        res["stats"] = traced["stats"]
        runs.append(traced)
    res["attempted"] = sum(r["attempted"] for r in runs)
    res["failed"] = sum(r["stats"]["failed"] for r in runs)
    return res


# ------------------------------------------------------------------ metrics

VALIDATE_OUTCOMES = {"accepted": 0, "rejected_structural": 0, "rejected_lattice": 0}
# Spans whose per-layer metrics are declared in BENCHMARK.json; a run whose
# trace lacks any of them is an error, never a zero.
CORE_SPANS = (
    "diagram.validate",
    "rootsys.longest_element",
    "involution.satake_automorphism",
    "involution.dual_cartan_involution",
    "involution.restricted_roots",
)
SETUP_SPANS = ("diagram.parse_diagram", "rootsys.build_root_system")
PER_DIAGRAM = (
    "rootsys.longest_element",
    "involution.satake_automorphism",
    "involution.dual_cartan_involution",
)


def scaled_setup_s(probe: dict) -> float:
    return probe["setup_s"] * speed.NOMINAL_NS / probe["ref_ns"]


def end_to_end(probes: dict, res: dict) -> tuple[dict, dict]:
    best = res["best_ms"]
    metrics = {
        "setup_s": (statistics.median(scaled_setup_s(p) for p in probes["setup"]), "s"),
        "latency_ms.p50": (statistics.median(best), "ms"),
        "latency_ms.p90": (pct(best, 90), "ms"),
        "throughput_per_s": (len(best) / (sum(best) / 1e3), "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    counts = {"setup_s": len(probes["setup"]), "peak_rss_mb": 1}
    counts.update({k: len(best) for k in ("latency_ms.p50", "latency_ms.p90", "throughput_per_s")})
    return metrics, counts


def per_layer(probes: dict, res: dict) -> tuple[dict, dict]:
    summary = res["spans"]
    traced_setup = probes["traced_setup"]
    missing = [n for n in CORE_SPANS + (spans.OP,) if n not in summary]
    missing += [n for n in SETUP_SPANS for p in traced_setup if n not in p["spans"]]
    if missing:
        raise SetupError(f"expected spans missing from the trace: {sorted(set(missing))}")
    ops = summary[spans.OP]["calls"]

    def self_us(name):
        row = summary[name]
        return row["self_ns"] / row["calls"] / 1e3

    def per_setup(fn):
        return statistics.median(fn(p) for p in traced_setup)

    stats = res["stats"]
    validated = max(1, sum(stats[k] for k in VALIDATE_OUTCOMES))
    metrics = {
        "python.bare_ms.p50": (statistics.median(probes["bare_ms"]), "ms"),
        "calib.loop_ms": (statistics.median(probes["calib_ms"]), "ms"),
        "cli.import_ms.p50": (statistics.median(p["import_ms"] for p in probes["setup"]), "ms"),
        "cli.show_ms.p50": (statistics.median(probes["cli"]["show"]), "ms"),
        "cli.epsilon_literal_ms.p50": (statistics.median(probes["cli"]["epsilon_literal"]), "ms"),
        "catalog.build_ms": (statistics.median(p["catalog_ms"] for p in probes["setup"]), "ms"),
        "catalog.lookup_us": (statistics.median(p["lookup_us"] for p in probes["setup"]), "us"),
        "rootsys.build_root_system_ms": (
            per_setup(lambda p: p["spans"]["rootsys.build_root_system"]["incl_ns"] / p["types"] / 1e6),
            "ms",
        ),
        "diagram.parse_diagram.self_us": (
            per_setup(lambda p: p["spans"]["diagram.parse_diagram"]["self_ns"]
                      / p["spans"]["diagram.parse_diagram"]["calls"] / 1e3),
            "us",
        ),
        "diagram.validate.incl_us": (
            summary["diagram.validate"]["incl_ns"] / summary["diagram.validate"]["calls"] / 1e3, "us"
        ),
    }
    for name in CORE_SPANS[1:]:
        metrics[f"{name}.self_us"] = (self_us(name), "us")
    for name in PER_DIAGRAM:
        metrics[f"{name}.calls_per_diagram"] = (summary[name]["calls"] / ops, "count")
    metrics["validate.accept_share"] = (stats["accepted"] / validated, "share")
    metrics["validate.reject_structural_share"] = (stats["rejected_structural"] / validated, "share")
    metrics["validate.reject_lattice_share"] = (stats["rejected_lattice"] / validated, "share")
    metrics["trace.overhead_ratio"] = (res["overhead"], "ratio")
    counts = {k: ops for k in metrics}
    counts.update({f"{n}.self_us": summary[n]["calls"] for n in CORE_SPANS[1:]})
    counts.update({
        "python.bare_ms.p50": len(probes["bare_ms"]), "calib.loop_ms": len(probes["calib_ms"]),
        "cli.import_ms.p50": len(probes["setup"]), "catalog.build_ms": len(probes["setup"]),
        "catalog.lookup_us": len(probes["setup"]), "cli.show_ms.p50": CLI_PROBE_RUNS,
        "cli.epsilon_literal_ms.p50": CLI_PROBE_RUNS,
        "rootsys.build_root_system_ms": len(traced_setup),
        "diagram.parse_diagram.self_us": len(traced_setup),
        "diagram.validate.incl_us": summary["diagram.validate"]["calls"],
        "validate.accept_share": validated,
        "validate.reject_structural_share": validated,
        "validate.reject_lattice_share": validated,
    })
    return metrics, counts


def extras(probes: dict, res: dict, trace: bool) -> dict:
    """Workload-specific figures, printed but not part of the result line."""
    out = {
        "repeats": (res["repeats"], "count"),
        "wall.setup_s.p50": (statistics.median(p["setup_s"] for p in probes["setup"]), "s"),
        "wall.latency_ms.p50": (statistics.median(res["wall_best_ms"]), "ms"),
        "wall.latency_ms.p90": (pct(res["wall_best_ms"], 90), "ms"),
        "wall.throughput_per_s": (len(res["wall_best_ms"]) / (sum(res["wall_best_ms"]) / 1e3), "1/s"),
        "speed.probe_us.min": (min(res["ref_ns"]) / 1e3, "us"),
        "speed.probe_us.p50": (statistics.median(res["ref_ns"]) / 1e3, "us"),
        "single_run_latency_ms.p50": (statistics.median(res["all_ms"]), "ms"),
        "single_run_latency_ms.p99": (pct(res["all_ms"], 99), "ms"),
        "error_rate": (res["failed"] / res["attempted"], "ratio"),
        "accepted_count": (res["stats"]["accepted"], "count"),
        "rejected_structural_count": (res["stats"]["rejected_structural"], "count"),
        "rejected_lattice_count": (res["stats"]["rejected_lattice"], "count"),
    }
    for kind, walls in res.get("by_kind", {}).items():
        out[f"query.{kind}_ms.best"] = (min(walls), "ms")
    if res.get("selftest_ms"):
        out["query.selftest_ms.p50"] = (statistics.median(res["selftest_ms"]), "ms")
    if trace:
        summary = res["spans"]
        ops = summary[spans.OP]["calls"]
        for name in sorted(summary):
            row = summary[name]
            out[f"span.{name}.calls_per_diagram"] = (row["calls"] / ops, "count")
            out[f"span.{name}.self_us"] = (row["self_ns"] / row["calls"] / 1e3, "us")
            out[f"span.{name}.incl_us"] = (row["incl_ns"] / row["calls"] / 1e3, "us")
    return out


def environment(workload: str, seed: int, seconds: float, trace: bool, probes: dict, counts: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python.bare_ms.p50": statistics.median(probes["bare_ms"]),
        "calib.loop_ms": statistics.median(probes["calib_ms"]),
        "samples": counts,
        "setup_s.values": [scaled_setup_s(p) for p in probes["setup"]],
        "wall.setup_s.values": [p["setup_s"] for p in probes["setup"]],
        "speed.nominal_probe_us": speed.NOMINAL_NS / 1e3,
        "spread": SPREAD_NOTE,
    }


def run_workload(run: Runner, g: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(seed)
    probes = cold_probes(run, g, trace, rng)
    # a traced run measures half the work untraced, then the same half traced
    units = max(1, round(seconds * UNITS_PER_SECOND[workload] / (2 if trace else 1)))
    if workload == "cli-cold":
        res = cli_cold(run, g, seed, units, trace)
    else:
        res = in_process(run, workload, seed, units, trace)
    probes["setup"] += [run.child_json("setup") for _ in range(SETUP_RUNS // 2)]
    metrics, counts = (per_layer if trace else end_to_end)(probes, res)
    for name, (value, unit) in {**metrics, **extras(probes, res, trace)}.items():
        print(f"{workload:16} {name:58} {value:>16.6f} {unit}")
    for err in res["errors"][:20]:
        print(f"{workload:16} FAILED {err}")
    print("# environment " + json.dumps(environment(workload, seed, seconds, trace, probes, counts)))
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "satake", "__init__.py")):
        print(f"error: no package source at {os.path.join(root, 'src', 'satake')}; "
              "run from the repository root", file=sys.stderr)
        return 2
    run = Runner(root)
    g = goldens.load()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            result = run_workload(run, g, workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
