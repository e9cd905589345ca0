"""In-memory span recorder that wraps the public functions of ``satake``.

The recorder never edits the program's source.  ``install`` replaces
every public function of the package with a timing wrapper, in every
``satake.*`` module attribute that refers to it, so calls made between
layers (``validate`` calling ``dual_cartan_involution`` through the name
bound in ``satake.diagram``, for example) are recorded too.

Each span stores a name id, a start and end in nanoseconds and the index
of its parent span.  Self time is a span's duration minus the durations
of its direct children.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter_ns

OP = "op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._current = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        current = self._current
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(current[0])
            end.append(0)
            current[0] = idx
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                current[0] = parent[idx]

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive and self time in ns."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "incl_ns": 0, "self_ns": 0} for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["incl_ns"] += dur[i]
            row["self_ns"] += own[i]
        return {k: v for k, v in out.items() if v["calls"]}


def _label(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def install(tracer: Tracer) -> None:
    """Wrap every public function of the loaded ``satake`` package.

    Must run after the package (and any of its submodules the caller
    needs) has been imported.
    """
    import satake

    modules = [m for k, m in sys.modules.items() if k == "satake" or k.startswith("satake.")]
    for public in satake.__all__:
        obj = getattr(satake, public)
        if not inspect.isfunction(obj):
            continue
        label = _label(obj)
        wrapper = tracer.wrap(label, obj)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is obj:
                    setattr(mod, attr, wrapper)
    create = satake.SatakeDiagram.__dict__["create"].__func__
    satake.SatakeDiagram.create = classmethod(tracer.wrap(_label(create), create))


def merge(summaries) -> dict[str, dict[str, float]]:
    """Add up per-name summaries from several traced processes."""
    out: dict[str, dict[str, float]] = {}
    for summ in summaries:
        for name, row in summ.items():
            acc = out.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0})
            for key in ("calls", "incl_ns", "self_ns"):
                acc[key] += row[key]
    return out
