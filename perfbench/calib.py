"""Host-speed calibration: op times scaled to a fixed reference kernel.

On a shared host the speed of one virtual CPU swings by a third and more
within minutes, and the swings are not steal time: CPU time and wall time
swing together.  The same op, timed back to back, spreads as much as that,
so runs made a few minutes apart disagree by more than any useful bound.

A :class:`Clock` therefore times a fixed reference kernel, which does
graph work of the kind the program does (dicts of sets, sorting, greedy
coloring, a depth-first search) but calls nothing in the program, right
before and right after every call it measures.  The mean of the two probes
is the host's speed around the call, and the call's calibrated time is

    raw time * REFERENCE_S / (reference time per kernel call)

that is, the call's length in kernel calls, REFERENCE_S each.  REFERENCE_S
is about what one kernel call takes on a quiet host (see README.md), so a
calibrated time reads like a wall time on that host.  A change to the
program moves calibrated and raw times alike; a swing of the host moves
both the call and the probes, and cancels.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

# seconds per reference kernel call on a quiet host; the unit of calibrated time
REFERENCE_S = 0.7e-3
# a probe lasts about this share of the call measured before it
PROBE_SHARE = 0.1
MIN_CALLS, MAX_CALLS = 2, 48

_N = 240
_rng = random.Random(20111)
_EDGES = sorted({
    (min(u, v), max(u, v))
    for u, v in ((_rng.randrange(_N), _rng.randrange(_N)) for _ in range(760))
    if u != v
})


def reference() -> int:
    """One call of the reference kernel: a fixed amount of graph work."""
    adj = {v: set() for v in range(_N)}
    for u, v in _EDGES:
        adj[u].add(v)
        adj[v].add(u)
    color = {}
    for v in sorted(adj, key=lambda x: (-len(adj[x]), x)):
        used = {color[w] for w in adj[v] if w in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    seen, stack, order = {0}, [0], []
    while stack:
        x = stack.pop()
        order.append(x)
        for w in adj[x]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(order) + max(color.values())


def probe(calls: int) -> float:
    """Seconds per reference kernel call, over ``calls`` calls."""
    t0 = perf_counter()
    for _ in range(calls):
        reference()
    return (perf_counter() - t0) / calls


class Clock:
    """Times calls with a reference probe on each side of every call.

    The probe after one call is the probe before the next, so each call
    costs one probe.  A probe's length follows the call before it, so long
    ops are probed longer and short ops are not swamped by probes.
    """

    def __init__(self):
        probe(MIN_CALLS)  # warm up
        self._before = probe(MAX_CALLS)
        self._calls = MAX_CALLS

    def time(self, fn):
        """Run ``fn()``; returns ``(result, raw seconds, calibrated seconds)``.

        If ``fn`` raises, the exception propagates and the next call is
        probed afresh.
        """
        before = self._before
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            raw = perf_counter() - t0
            self._calls = min(MAX_CALLS, max(
                MIN_CALLS, math.ceil(PROBE_SHARE * raw / REFERENCE_S)))
            self._before = probe(self._calls)
        return result, raw, raw * REFERENCE_S / ((before + self._before) / 2)
