"""Loading the package under test from the checkout's own source tree."""

from __future__ import annotations

import importlib
import os
import pkgutil
import sys
from pathlib import Path
from types import ModuleType

CACHE_DIR_ENV = "CXORDER_CACHE_DIR"


class ProgramMissing(RuntimeError):
    """The checkout holds no importable package source."""


class Program:
    """The cxorder package imported from `<root>/src`, with every in-memory
    cache it exposes found once at load time so requests can start cold."""

    def __init__(self, root: Path) -> None:
        src = root / "src"
        init = src / "cxorder" / "__init__.py"
        if not init.is_file():
            raise ProgramMissing(f"no package source at {init}")
        # A set cache directory would let "cold" requests read warm tables.
        os.environ.pop(CACHE_DIR_ENV, None)
        sys.path.insert(0, str(src))
        pkg = importlib.import_module("cxorder")
        if Path(pkg.__file__).resolve() != init.resolve():
            raise ProgramMissing(f"cxorder imported from {pkg.__file__}, not {init}")
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"cxorder.{info.name}")
        self.root = root
        self.src = src
        self.modules: dict[str, ModuleType] = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "cxorder" or name.startswith("cxorder.")
        }
        self._clearers = self._find_clearers()
        weights = getattr(self.mod("order_stats"), "_weights_readonly", None)
        self.weight_cache_info = getattr(weights, "cache_info", None)

    def mod(self, short: str) -> ModuleType:
        return self.modules[f"cxorder.{short}"]

    def _find_clearers(self):
        # Every module-level clear_caches and every functools cache, so a
        # cache added later is cleared without editing the benchmark.
        found = {}
        for mod in self.modules.values():
            for attr, value in vars(mod).items():
                if attr == "clear_caches" and callable(value):
                    found[id(value)] = value
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    found[id(value)] = clear
        return list(found.values())

    def clear_caches(self) -> None:
        for clear in self._clearers:
            clear()

    def line_counts(self) -> dict[str, int]:
        counts = {}
        for path in sorted(self.src.rglob("*.py")):
            with path.open("rb") as fh:
                counts[path.relative_to(self.src).as_posix()] = sum(1 for _ in fh)
        counts["total"] = sum(counts.values())
        return counts
