"""Outside-in span tracer for a Python package.

The tracer wraps every public function and public-class method of the
package's layer modules from outside, so the traced program needs no
instrumentation of its own.  Each wrapped call records one span: its name,
layer, start, end, parent span and job id.  Wrappers are rebound on every
module of the package that holds a reference to the original, which covers
names imported with ``from .module import name``.  Callables are discovered
when the tracer is installed, so functions added or renamed later are traced
without editing this file.
"""
from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
import time
from collections import namedtuple
from functools import wraps

Span = namedtuple("Span", "name layer start end parent job")


class Tracer:
    """Record spans around calls into the layer modules of ``package``.

    ``layers`` names the submodules to wrap.  ``clock`` returns integer
    nanoseconds; tests pass a fake one.  ``watch`` maps a span name to a
    callable that receives the call's ``(args, kwargs)`` and returns a value
    stored in ``observed[name]``.
    """

    def __init__(self, package: str, layers, clock=time.perf_counter_ns, watch=None):
        self.package = package
        self.layers = tuple(layers)
        self.clock = clock
        self.watch = dict(watch or {})
        self.spans: list = []
        self.observed: dict = {}
        self.job = None
        self._stack: list = []
        self._module_patches: list = []
        self._class_patches: list = []

    def reset(self) -> None:
        self.spans = []
        self.observed = {}
        self._stack.clear()

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        clock = self.clock
        stack = self._stack
        watcher = self.watch.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            if watcher is not None:
                tracer.observed.setdefault(name, []).append(watcher(args, kwargs))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, layer, start, end, parent, tracer.job)

        return traced

    def install(self) -> None:
        """Wrap the public callables and rebind every package reference to them."""
        if self._module_patches or self._class_patches:
            raise RuntimeError("tracer is already installed")
        pkg = importlib.import_module(self.package)
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{self.package}.{info.name}")
        wrappers = {}
        for layer in self.layers:
            mod = sys.modules[f"{self.package}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(obj, attr, layer)
                elif inspect.isclass(obj):
                    self._patch_class(obj, layer)
        for modname, mod in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(self.package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._module_patches.append((mod, attr, obj))

    def _patch_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                patched = type(raw)(self._wrap(raw.__func__, name, layer))
            elif inspect.isfunction(raw):
                patched = self._wrap(raw, name, layer)
            else:
                continue
            setattr(cls, attr, patched)
            self._class_patches.append((cls, attr, raw))

    def uninstall(self) -> None:
        """Restore every original binding."""
        for mod, attr, obj in reversed(self._module_patches):
            setattr(mod, attr, obj)
        for cls, attr, raw in reversed(self._class_patches):
            setattr(cls, attr, raw)
        self._module_patches = []
        self._class_patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so children of one parent never overlap and
    their covered time is the sum of their durations.
    """
    child = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def covered_ns(spans) -> int:
    """Time covered by top-level spans (those without a parent)."""
    return sum(s.end - s.start for s in spans if s.parent < 0)
