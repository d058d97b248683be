"""Spans around every public hypofp function, recorded from outside.

``Tracer.install`` replaces each public function of the hypofp modules with
a wrapper at every module attribute bound to it: the defining module, the
package re-exports and ``from ... import`` bindings in other modules.  Calls
between modules (``flow.run_trajectory`` -> ``entropy.relative_entropy``)
are therefore caught; private helpers are not wrapped and their time counts
as their caller's.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import time

# Span fields: [name, parent index, start, end, raised]
NAME, PARENT, START, END, RAISED = range(5)


class Tracer:
    def __init__(self, hooks=None):
        self.spans: list[list] = []
        self.counters: collections.Counter = collections.Counter()
        self.hooks = hooks or {}
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, False])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, raised: bool = False) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.spans[idx][RAISED] = raised
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        except BaseException:
            self._close(idx, True)
            raise
        self._close(idx)

    def count(self, name: str, value=1) -> None:
        self.counters[name] += value

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        hook = self.hooks.get(qualname)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(qualname)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            self._close(idx)
            if hook is not None:
                span = self.spans[idx]
                hook(self, sig.bind(*args, **kwargs).arguments, result, span[END] - span[START])
            return result

        return traced

    def install(self, package: str, layers) -> int:
        """Wrap the public functions of ``package.<layer>`` for each layer at
        every binding in those modules and in the package.  Returns the
        number of distinct functions wrapped."""
        modules = [importlib.import_module(package)]
        modules += [importlib.import_module(f"{package}.{layer}") for layer in layers]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith(package + ".") or layer not in layers:
                    continue
                if obj.__name__.startswith("_"):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj)
                setattr(mod, attr, wrappers[id(obj)])
                self._installed.append((mod, attr, obj))
        return len(wrappers)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._installed):
            setattr(mod, attr, obj)
        self._installed.clear()

    # -- aggregation ---------------------------------------------------------

    def summary(self):
        """Per function and per layer: calls, self time, inclusive time and
        exceptions.  A layer's errors are exceptions that left the layer
        (raised by a span whose parent is in another layer or absent)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        funcs = collections.defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "errors": 0})
        layers = collections.defaultdict(lambda: {"calls": 0, "self_s": 0.0, "errors": 0})
        for i, s in enumerate(self.spans):
            dur = s[END] - s[START]
            layer = s[NAME].partition(".")[0]
            f, lay = funcs[s[NAME]], layers[layer]
            f["calls"] += 1
            f["incl_s"] += dur
            f["self_s"] += dur - child[i]
            lay["calls"] += 1
            lay["self_s"] += dur - child[i]
            if s[RAISED]:
                f["errors"] += 1
                parent_layer = self.spans[s[PARENT]][NAME].partition(".")[0] if s[PARENT] >= 0 else None
                if parent_layer != layer:
                    lay["errors"] += 1
        return dict(funcs), dict(layers)
