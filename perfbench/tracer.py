"""Per-layer tracing of a package from outside, by rebinding its names.

`Tracer(package)` finds every public function of every module in the
package, and every public plain method of the classes those modules
define, and replaces each with a timing wrapper wherever the original
object is bound: module globals (so `from .linalg import schatten_norm`
copies are caught too), class attributes, and values of module-level
dicts (dispatch tables).  Nothing in the package is edited on disk; the
originals are put back by `uninstall`, which reports any name that did
not come back as the very same object.

Each call records calls, inclusive time and self time (inclusive minus
the time of wrapped callees) under the callable's dotted name, and the
first SPAN_CAP spans as (id, name, start, end, parent id).  A Poincare
sweep makes ~10^6 wrapped calls, so everything else is aggregated in
memory, never stored per call.
"""
from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from typing import Callable, Optional

SPAN_CAP = 20000
# observer(args, kwargs, result, counters) runs after a successful call
Observer = Callable[[tuple, dict, object, dict], None]


class Tracer:
    def __init__(self, package, aliases: Optional[dict] = None,
                 observers: Optional[dict[str, Observer]] = None):
        self.package = package
        self.aliases = aliases or {}          # id(original) -> traced name
        self.observers = observers or {}
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []          # frames [name, child_s, span_id]
        self._next_id = 0
        self._patches: list[tuple] = []       # (kind, owner, key, original)

    # ------------------------------------------------------------ discovery

    def modules(self) -> list:
        mods = [self.package]
        for info in pkgutil.iter_modules(self.package.__path__):
            mods.append(importlib.import_module(f"{self.package.__name__}.{info.name}"))
        return mods

    def targets(self) -> dict:
        """id(original) -> (traced name, original) for every public callable."""
        out = {}
        prefix = self.package.__name__ + "."
        for mod in self.modules()[1:]:
            short = mod.__name__[len(prefix):]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    out[id(obj)] = (self.aliases.get(id(obj), f"{short}.{name}"), obj)
                elif inspect.isclass(obj):
                    for attr, meth in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(meth):
                            out[id(meth)] = (f"{short}.{name}.{attr}", meth)
        return out

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = self.targets()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod in self.modules():
            for key, val in list(vars(mod).items()):
                if id(val) in wrappers and val is targets[id(val)][1]:
                    self._patches.append(("attr", mod, key, val))
                    setattr(mod, key, wrappers[id(val)])
                elif isinstance(val, dict) and not key.startswith("__"):
                    for k, v in list(val.items()):
                        if id(v) in wrappers and v is targets[id(v)][1]:
                            self._patches.append(("item", val, k, v))
                            val[k] = wrappers[id(v)]
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    for attr, meth in list(vars(val).items()):
                        if id(meth) in wrappers and meth is targets[id(meth)][1]:
                            self._patches.append(("attr", val, attr, meth))
                            setattr(val, attr, wrappers[id(meth)])

    def uninstall(self) -> list[str]:
        """Restore every binding; return the ones that are not the original again."""
        for kind, owner, key, orig in reversed(self._patches):
            if kind == "attr":
                setattr(owner, key, orig)
            else:
                owner[key] = orig
        bad = []
        for kind, owner, key, orig in self._patches:
            now = vars(owner).get(key) if kind == "attr" else owner.get(key)
            if now is not orig:
                bad.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{key}")
        self._patches = []
        return bad

    @property
    def patched(self) -> int:
        return len(self._patches)

    # -------------------------------------------------------------- wrapper

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans = self._stack, self.spans
        observe = self.observers.get(name)
        counters, clock = self.counters, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, name, t0, t1, parent[2] if parent else None))
            if observe is not None:
                observe(args, kwargs, result, counters)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -------------------------------------------------------------- reading

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def dump(self) -> dict:
        return {
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items()) if v[0]},
            "counters": dict(self.counters),
            "spans": [{"id": i, "name": n, "start": a, "end": b, "parent": p}
                      for i, n, a, b, p in self.spans],
            "spans_total": self._next_id,
        }
