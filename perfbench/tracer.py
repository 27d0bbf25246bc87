"""Spans around the program's public functions, recorded from outside it.

``Tracer`` replaces every module attribute bound to a public function of
the traced modules -- including the names other modules imported, such as
``fortet.psi`` seen from ``criteria`` or ``problem.kernel_matrix`` seen
from ``fortet`` -- with a wrapper that records one span per call, and
puts every attribute back on exit.  Spans are kept in memory in flat
arrays (name, parent span, start, end); self time is a span's duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from types import ModuleType

import numpy as np

def public_functions(modules: dict[str, ModuleType]) -> dict[int, tuple[str, object]]:
    """``id(function) -> (layer.name, function)`` for each module's own public functions."""
    found = {}
    for layer, mod in modules.items():
        for attr, val in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(val) \
                    and val.__module__ == mod.__name__:
                found[id(val)] = (f"{layer}.{attr}", val)
    return found


class Tracer:
    """Context manager: wrap on entry, restore on exit, spans in between."""

    def __init__(self, modules: dict[str, ModuleType]):
        self.modules = modules
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._saved: list[tuple[ModuleType, str, object]] = []
        self.clear()

    def clear(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.t0)

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _wrap(self, name: str, fn):
        span_name, span_parent, t0, t1, stack = (
            self.span_name, self.span_parent, self.t0, self.t1, self._stack)
        clock = time.perf_counter
        if name == "problem.kernel_matrix":
            # split by path: materialize the kernel, or return the cached one
            build, hit = self._name_id(f"{name}.build"), self._name_id(f"{name}.hit")

            def name_of(args):
                return build if getattr(args[0], "_matrix", None) is None else hit
        else:
            fixed = self._name_id(name)

            def name_of(args):
                return fixed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(t0)
            span_name.append(name_of(args))
            span_parent.append(stack[-1])
            t1.append(0.0)
            stack.append(idx)
            t0.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1[idx] = clock()
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        self.clear()
        targets = public_functions(self.modules)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod in self.modules.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in targets and targets[id(val)][1] is val:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, attr, val = self._saved.pop()
            setattr(mod, attr, val)

    def summary(self, start: int = 0, stop: int | None = None) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, over spans[start:stop].

        A child whose parent lies before ``start`` counts for itself only.
        """
        stop = len(self) if stop is None else stop
        if stop <= start:
            return {}
        # slicing copies, so the arrays keep no exported buffer and can grow
        names = np.frombuffer(self.span_name[start:stop], dtype=np.int32)
        parent = np.frombuffer(self.span_parent[start:stop], dtype=np.int64) - start
        dur = (np.frombuffer(self.t1[start:stop], dtype=np.float64)
               - np.frombuffer(self.t0[start:stop], dtype=np.float64))
        inside = parent >= 0
        child = np.bincount(parent[inside], weights=dur[inside], minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=dur, minlength=n)
        self_s = np.bincount(names, weights=dur - child, minlength=n)
        return {self.names[k]: {"calls": int(calls[k]), "total_s": float(total[k]),
                                "self_s": float(self_s[k])}
                for k in range(n) if calls[k]}
