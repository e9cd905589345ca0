"""Reference probe that puts end-to-end times on one scale of host speed.

On a shared host the speed of the processor changes by up to 1.6x, in
spells from under a second to over a minute, longer than a run.  The
fastest of many repeats removes the short spells but not the long ones.
So the benchmark also times a fixed probe of its own between operations:
closing the E7 simple roots under simple reflections
(``census.root_closure``), which allocates tuples and probes sets as the
package does.  A slow spell slows the probe and the package alike.

An operation that took ``t`` is reported as ``t * NOMINAL_NS / local``,
where ``local`` is the fastest probe among the ``WINDOW`` probes on each
side of the operation's start: its time at the speed the reference host
has when calm.  The probe is benchmark code, so no change to the package
moves it.
"""

from __future__ import annotations

import bisect
import gc
from time import perf_counter_ns

from census import root_closure

# E7 in Bourbaki numbering: the chain 1-3-4-5-6-7 with node 2 on node 4.
_E7_EDGES = ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3))
E7 = tuple(
    tuple(2 if i == j else -1 if (i, j) in _E7_EDGES or (j, i) in _E7_EDGES else 0 for j in range(7))
    for i in range(7)
)
E7_ROOTS = 126
# Fastest probe on the reference host (2-vCPU Intel Xeon VM, CPython 3).
NOMINAL_NS = 860_000
# Probe at most this often between operations, and at both ends of a run.
EVERY_NS = 50_000_000
WINDOW = 3


def probe() -> int:
    """Nanoseconds of one probe, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        n = len(root_closure(E7))
        elapsed = perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()
    if n != E7_ROOTS:
        raise RuntimeError(f"reference probe found {n} E7 roots, not {E7_ROOTS}")
    return elapsed


class Gauge:
    """Probes taken during a run, and the scale they give each operation."""

    def __init__(self) -> None:
        self.times: list[int] = []
        self.ns: list[int] = []

    def probe(self, k: int = 1) -> None:
        for _ in range(k):
            self.times.append(perf_counter_ns())
            self.ns.append(probe())

    def maybe_probe(self) -> None:
        """Probe if ``EVERY_NS`` have passed since the last probe."""
        if not self.times or perf_counter_ns() - self.times[-1] >= EVERY_NS:
            self.probe()

    def scale(self, start_ns: int, elapsed: float) -> float:
        """``elapsed`` of an operation that started at ``start_ns``, at nominal speed."""
        i = bisect.bisect(self.times, start_ns)
        local = min(self.ns[max(0, i - WINDOW): i + WINDOW])
        return elapsed * NOMINAL_NS / local
