"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files only: ``Tracer.install``
replaces a module attribute with a wrapper, so every caller that looks the
function up through that module (``ach.solve`` calling ``find_best_placement``,
``exact`` calling ``ach.resolve_roll_out``, ``cli`` calling its own
``load_instance`` binding) goes through the wrapper.  Nothing under ``src/``
changes.  Each span holds its name, start, end, parent span and instance id,
kept in flat arrays and written out once at the end.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import update_wrapper


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.instance_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: Instance id stamped on every span opened from now on.
        self.instance = -1
        #: Counts taken from arguments and results at the span boundaries.
        self.counts: Counter = Counter()
        self._installed: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.instance_of.append(self.instance)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a block of benchmark code (e.g. one CLI command)."""
        i = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(i)

    def install(self, module, attr: str, name: str, observe=None) -> None:
        """Wrap ``module.attr`` so each call records a span named ``name``.

        ``observe(counts, args, result)`` runs after a call returns, to count
        work done (nodes, rows, placements found) where it happens.
        """
        fn = getattr(module, attr)
        name_id = self._intern(name)

        def wrapper(*args, **kwargs):
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        update_wrapper(wrapper, fn)
        setattr(module, attr, wrapper)
        self._installed.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds (the
        span's duration minus the part its direct child spans cover)."""
        start, end, parent = self.start, self.end, self.parent
        child = array("d", bytes(8 * len(start)))
        for i in range(len(start)):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(len(start)):
            t = out[self.names[self.name[i]]]
            t["calls"] += 1
            t["s"] += end[i] - start[i]
            t["self_s"] += end[i] - start[i] - child[i]
        return out

    def write(self, path) -> None:
        """Gzipped JSON lines: a header with the span names and counts, then
        one ``[name, parent, instance, start_s, end_s]`` per span, times in
        seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        header = {"names": self.names, "counts": dict(self.counts),
                  "fields": ["name", "parent", "instance", "start_s", "end_s"]}
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{self.name[i]},{self.parent[i]},{self.instance_of[i]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}]\n")
