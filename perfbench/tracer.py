"""Outside-in span tracer for the stbc benchmark.

The tracer wraps the public functions bound in a set of module namespaces
(``stbc.sim``, ``stbc.decoder``, ``stbc.channel``, ``stbc.capacity``) with
``setattr`` and puts the originals back on ``uninstall``.  Nothing in the
package changes.  A call made through a wrapped binding records one span:
name, start, end, parent span index and trial id.

``name`` is ``<defining module>.<function>``, so ``generator_matrix`` is
``designs.generator_matrix`` whichever namespace it was called through.
Calls a module makes to functions it defined itself go through its own
globals and are wrapped as well; private helpers (``_group_tables``,
``_effective_operator``) are not, so their time stays in the caller's self
time.  A call of the trial-marker function opens a new trial id; every span
until the end of the enclosing top-level call carries it, and spans outside
any trial carry -1.  Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from array import array


class Tracer:
    """Spans are kept in parallel arrays (about 26 bytes a span)."""

    def __init__(self, modules, trial_marker: str):
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("i")
        self.trials = 0
        self._modules = tuple(modules)
        self._marker = trial_marker
        self._stack: list[int] = []
        self._current = -1
        self._saved: list[tuple] = []
        self._wrappers: dict = {}

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module in self._modules:
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("stbc.")
                ):
                    continue
                self._saved.append((module, attr, obj))
                setattr(module, attr, self._wrapper(obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def _wrapper(self, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        name_id = len(self.names)
        self.names.append(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
        opens_trial = self.names[name_id] == self._marker
        stack, clock = self._stack, time.perf_counter
        name_of, start, end, parent, trial = (
            self.name_of, self.start, self.end, self.parent, self.trial)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if opens_trial:
                tracer._current = tracer.trials
                tracer.trials += 1
            index = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            trial.append(tracer._current)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
                if not stack:
                    tracer._current = -1

        self._wrappers[fn] = traced
        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, n in enumerate(self.name_of):
            d = self.end[i] - self.start[i]
            calls[n] += 1
            incl[n] += d
            own[n] += d - child[i]
        return {
            name: (calls[n], incl[n], own[n])
            for n, name in enumerate(self.names)
            if calls[n]
        }

    def write_csv_gz(self, path) -> None:
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent,trial\n")
            for i, n in enumerate(self.name_of):
                fh.write(f"{i},{self.names[n]},{self.start[i] - origin:.9f},"
                         f"{self.end[i] - origin:.9f},{self.parent[i]},{self.trial[i]}\n")
