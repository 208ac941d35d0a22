"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ribbonkit layers from outside the
package: every module binding of a wrapped function is replaced, because
``cli``, ``fusion`` and ``ribbon`` import names with ``from .x import y``
and wrapping only the defining module would miss their calls.  Methods are
replaced on their class under every name that holds the same function
(``__mul__`` and ``__rmul__`` are one function).

Each call records a span: name, start, end and parent span.  Spans stay in
memory, in flat arrays, until the run ends.  A span's self time is its
duration minus the durations of its direct children; summed over all spans
this equals the summed duration of the root spans, which are the
``cli.main`` calls.

Probes attached to some wrappers record counts at the same boundary
(operand shapes, result sizes, overflow); they run after the span closes,
so their cost lands in the parent's self time and in the overhead ratio.
"""

from __future__ import annotations

import functools
import struct
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self._originals: list = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, probe=None):
        """Return a traced version of fn; probe(args, result, exc) if given."""
        nid = self._name_id(name)
        clock = self.clock
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                if probe is not None:
                    probe(args, None, exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if probe is not None:
                probe(args, result, None)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    # -- installation -------------------------------------------------------

    def install_function(self, name: str, fn, probe=None):
        """Replace every binding of fn in every loaded ribbonkit module."""
        traced = self.wrap(name, fn, probe)
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ribbonkit"
                                   or mod_name.startswith("ribbonkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)
                    self._originals.append((mod, attr, fn))
                    hits += 1
        if not hits:
            raise LookupError(f"no module binds {name}")
        return traced

    def install_method(self, name: str, cls, attr: str, probe=None):
        """Replace cls.attr under every name of cls that holds it."""
        fn = cls.__dict__[attr]
        traced = self.wrap(name, fn, probe)
        for other, value in list(vars(cls).items()):
            if value is fn:
                setattr(cls, other, traced)
                self._originals.append((cls, other, fn))
        return traced

    def uninstall(self):
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    # -- analysis -----------------------------------------------------------

    def summarize(self) -> dict:
        """Per span name: calls, total self time; plus the root total."""
        n = len(self.span_name)
        starts, ends = self.span_start, self.span_end
        parents, names = self.span_parent, self.span_name
        child = [0.0] * n
        root_total = 0.0
        for i in range(n):
            dur = ends[i] - starts[i]
            par = parents[i]
            if par >= 0:
                child[par] += dur
            else:
                root_total += dur
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - child[i]
        return {
            "spans": n,
            "root_s": root_total,
            "calls": dict(zip(self.names, calls)),
            "self_s": dict(zip(self.names, self_s)),
        }

    def write(self, path) -> None:
        """Write all spans: two sizes, the names, then four arrays.

        The sizes are the byte length of the newline-separated names and the
        span count.  The arrays (name id, parent index, start, end) are in
        native byte order, one entry per span, in the order spans opened.
        """
        with open(path, "wb") as fh:
            header = "\n".join(self.names).encode()
            fh.write(struct.pack("<II", len(header), len(self.span_name)))
            fh.write(header)
            for arr in (self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)
