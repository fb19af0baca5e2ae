"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` replaces every public module-level function of the
traced modules with a wrapper that records a span: name, start, end and the
span that was open when it was called (its parent).  Because the wrapper
replaces the module attribute, calls between library functions of one module
(``fock_space_for`` -> ``squeezed_vector``) nest as well.  Spans are kept in
memory; ``end_op`` folds the spans of one op into per-function totals and
keeps the first ops' span trees for ``dump`` at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span in the same op, or -1
    failed: bool = False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted((max(spans[k].start, span.start), min(spans[k].end, span.end))
                             for k in kids):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


@dataclass
class FunctionStats:
    calls: int = 0
    busy: float = 0.0    # time inside the function, counted once under recursion
    self: float = 0.0    # busy time not spent in other traced functions
    failed: int = 0      # calls that raised


class Tracer:
    """Records spans of wrapped functions; one op at a time, one thread."""

    KEEP_SPANS = 50_000   # span trees kept for the dump, in whole ops

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stats: dict[str, FunctionStats] = {}
        self.kept: list[list[Span]] = []
        self._kept_count = 0
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                open_.pop()
        return traced

    def install(self, modules) -> None:
        """Wrap every public function defined in each module (prefix: last name part)."""
        for module in modules:
            prefix = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, self.wrap(f"{prefix}.{attr}", obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def end_op(self) -> None:
        """Fold the current op's spans into the per-function totals."""
        spans = self.spans
        for span, own in zip(spans, self_times(spans)):
            st = self.stats.setdefault(span.name, FunctionStats())
            st.calls += 1
            st.self += own
            st.failed += span.failed
            parent = span.parent
            while parent >= 0 and spans[parent].name != span.name:
                parent = spans[parent].parent
            if parent < 0:
                st.busy += span.end - span.start
        if self._kept_count + len(spans) <= self.KEEP_SPANS:
            self.kept.append(list(spans))
            self._kept_count += len(spans)
        spans.clear()

    def layer_self(self, layer: str) -> float:
        """Self time summed over every traced function of one module."""
        return sum(st.self for name, st in self.stats.items()
                   if name.split(".", 1)[0] == layer)

    def dump(self, path) -> None:
        """Write the kept span trees, one list per op, times relative to the op."""
        ops = []
        for spans in self.kept:
            t0 = spans[0].start if spans else 0.0
            ops.append([[s.name, s.start - t0, s.end - t0, s.parent, s.failed]
                        for s in spans])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "failed"],
                       "ops": ops}, fh)
