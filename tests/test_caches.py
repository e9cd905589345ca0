"""Every cache in the package is stated once, in the README's cache table."""

from __future__ import annotations

import importlib
import pkgutil
import re
from functools import reduce
from pathlib import Path

import satake
from satake import involution

README = Path(__file__).resolve().parents[1] / "README.md"

# Stores that are neither an ``lru_cache`` nor a ``_Memo``, so found by name.
NAMED = ("rootsys._systems", "rootsys.RootSystem._black_table")


def _scanned():
    """``(module.name, cache)`` of every module global with ``cache_info`` and every ``_Memo``."""
    for info in pkgutil.iter_modules(satake.__path__):
        module = importlib.import_module(f"satake.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") or isinstance(obj, involution._Memo):
                yield f"{info.name}.{name}", obj


def package_caches() -> set[str]:
    """``module.name`` of each cache in the package: those ``_scanned`` and
    the stores in ``NAMED``."""
    for path in NAMED:
        module, *attrs = path.split(".")
        reduce(getattr, attrs, importlib.import_module(f"satake.{module}"))  # it exists
    return {path for path, _ in _scanned()}.union(NAMED)


def cache_fills() -> list[str]:
    """Each scanned cache's fill, against its bound where it has one, one
    line each; ``tests/test_oracles.py`` as a script prints them after its
    rows, the last of which is the selftest at the rank cap."""
    out = []
    for path, obj in _scanned():
        if isinstance(obj, involution._Memo):
            out.append(f"{path}: {len(obj)} of {obj.bound}")
        else:
            info = obj.cache_info()
            bound = info.maxsize or "no bound"
            out.append(f"{path}: {info.currsize} of {bound}, {info.misses} misses")
    return out


def readme_caches() -> list[str]:
    """The first column of the README's cache table, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Caches\n", 1)[1].split("\n#", 1)[0]
    return re.findall(r"^\| `([\w.]+)` \|", section, flags=re.M)


def test_the_readme_table_names_each_cache_once():
    listed = readme_caches()
    assert len(listed) == len(set(listed)), listed
    assert set(listed) == package_caches()
