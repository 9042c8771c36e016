"""Span recording around the calls between ordlift's modules.

``Tracer.install`` replaces, in the namespace of every ordlift module and of
the package, each public function and each name one module imports from
another (``lifting.alpha``, ``lifting.radical``, ``orders.factorize``,
``orders._order_value``, the kernels behind ``steinhaus._backend`` ...) with a
recorder.  Every call through such a name is a span with its name, start,
end and parent, kept in memory and written out once at the end.  No ordlift
source file changes; ``uninstall`` puts the original objects back.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

from kernels import KERNELS

LAYERS = ("arith", "orders", "lifting", "steinhaus", "kernels", "cli")
_MODULES = ("arith", "orders", "lifting", "steinhaus", "_backend", "_pykernels")
_KERNEL_MODULES = ("_backend", "_pykernels", "_kernels")


def layer_of(span_name: str) -> str:
    module = span_name.split(".", 1)[0]
    return "kernels" if module in _KERNEL_MODULES else module


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name_col = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """``fn`` wrapped so that every call records a span called ``name``."""
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        nid = self.name_id[name]
        names, starts, ends, parents, stack = (
            self.name_col, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter_ns

        def recorded(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return recorded

    def install(self) -> None:
        import ordlift

        modules = {m: importlib.import_module(f"ordlift.{m}") for m in _MODULES}
        wrapped: dict[int, object] = {}
        for short, mod in modules.items():
            names = set(getattr(mod, "__all__", ()))
            if short == "orders":
                names.add("_order_value")
            for name in sorted(names):
                fn = getattr(mod, name)
                if callable(fn) and not isinstance(fn, type):
                    wrapped[id(fn)] = self.span(f"{short}.{name}", fn)
        for k in KERNELS:  # _backend has no __all__
            fn = getattr(modules["_backend"], k)
            wrapped[id(fn)] = self.span(f"_backend.{k}", fn)
        for mod in [ordlift, *modules.values()]:
            for name, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._restore.append((mod, name, value))
                    setattr(mod, name, wrapped[id(value)])

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._restore):
            setattr(mod, name, value)
        self._restore.clear()

    def arrays(self):
        """(name ids, durations in ns, parent ids) of every span."""
        name = np.frombuffer(self.name_col, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        return name, dur, np.frombuffer(self.parent, dtype=np.int32)

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time minus the time of its child spans, summed."""
        name, dur, parent = self.arrays()
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        by_name = np.bincount(name, weights=dur - child, minlength=len(self.names))
        out = {layer: 0.0 for layer in LAYERS}
        for nid, ns in enumerate(by_name.tolist()):
            out[layer_of(self.names[nid])] += ns / 1e9
        return out

    def count(self, span_name: str) -> int:
        nid = self.name_id.get(span_name)
        return 0 if nid is None else int((self.arrays()[0] == nid).sum())

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name_col, np.int32),
                 start=np.frombuffer(self.start, np.int64), end=np.frombuffer(self.end, np.int64),
                 parent=np.frombuffer(self.parent, np.int32))
