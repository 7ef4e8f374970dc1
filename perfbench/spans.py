"""Span recording around calls into a program, from outside the program.

A :class:`Tracer` replaces named functions with wrappers that record one
span per call: its name, start, end, parent span and op id.  Spans stay in
flat in-memory arrays while the run lasts and are written out once it
ends.  Nothing here knows which program is being traced; the targets are
given as ``(span name, owner, attribute)`` triples, where the owner is the
module or class in which the caller looks the name up.
"""

from __future__ import annotations

import functools
import gzip
import json
from array import array
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Iterable, Optional, Sequence


class Tracer:
    """Records spans for wrapped calls while installed."""

    def __init__(self, targets: Iterable[tuple], hooks: Optional[dict] = None):
        # hooks: span name -> callable receiving the wrapped call's result
        self.targets = list(targets)
        self.hooks = dict(hooks or {})
        self.names: list[str] = []
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.op_id = -1
        self.installed: set[str] = set()
        self._stack = [-1]
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        names, parent, op, start, end = (
            self.names, self.parent, self.op, self.start, self.end)
        stack = self._stack
        hook = self.hooks.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            end.append(0)
            stack.append(i)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that still exists; a missing one is skipped."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, owner, attr in self.targets:
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if fn is None:
                continue
            self.installed.add(name)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: str, stamp: dict) -> None:
        """Write every span, columnwise, as gzipped JSON."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        doc = {
            "stamp": stamp,
            "names": table,
            "name": [index[n] for n in self.names],
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(start: Sequence[int], end: Sequence[int],
               parent: Sequence[int]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval and overlapping
    children are merged first, so covered time is never counted twice.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0
        run_lo = run_hi = None
        for j in sorted(children.get(i, ()), key=lambda j: start[j]):
            s, e = max(start[j], lo), min(end[j], hi)
            if e <= s:
                continue
            if run_hi is None or s > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = s, e
            else:
                run_hi = max(run_hi, e)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(hi - lo - covered)
    return out


def outermost(names: Sequence[str], parent: Sequence[int],
              group: frozenset) -> list[int]:
    """Indices of spans in ``group`` with no ancestor in ``group``.

    Summing the durations of these spans gives the time the group covers
    without counting nested calls (say, one generator calling another)
    twice.
    """
    inside = [False] * len(names)
    out = []
    for i, name in enumerate(names):
        p = parent[i]
        # parents are recorded before their children
        inside[i] = p >= 0 and (inside[p] or names[p] in group)
        if name in group and not inside[i]:
            out.append(i)
    return out
