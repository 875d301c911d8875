"""Time measured in reference-host seconds.

The benchmark's client and server share one CPU of a shared host, and
that CPU's speed is not constant: a pure-Python loop pinned to it runs
30% slower for seconds at a time while neighbours load the machine
(no steal is reported; the loop's own CPU time stretches with its wall
time).  A figure that is a median over one run then tracks the
neighbours as much as the program.

So every measured stretch is cut into short *segments*, and between
two segments the client runs a fixed reference loop: pure standard-
library Python, independent of the program under test.  It has two
parts, as the server's work has: indexing, sorting and JSON over a
small working set, and lookups scattered over a table of tens of
megabytes (a neighbour's load slows the second more, through the shared
caches).  The loop's duration, against :data:`REF_SECONDS`, is the
host's slowness factor at that moment; a segment's wall time, server
CPU time and request latencies are divided by the mean factor of the
two loops around it.  Every figure is then in seconds of a host on
which the loop takes :data:`REF_SECONDS` -- the same unit on both sides
of a comparison, as the loop runs no code a change to the program can
touch.  It corrects most of the drift, not all: kernel and disk time
slow down differently from either part.
"""

from __future__ import annotations

import gc
import json
import random
import time
from typing import Callable, Dict, List, NamedTuple, Tuple

#: Items the reference loop indexes, sorts and round-trips through JSON.
REF_ITEMS = 3000

#: Entries of the reference loop's large table, and lookups per loop.
REF_TABLE = 1 << 18
REF_LOOKUPS = 2500

#: The reference loop's duration on the nominal host (an uncontended
#: core of a 2-vCPU Intel Xeon VM, Python 3.11): the unit every
#: normalised figure is expressed in.  A fixed constant, not a
#: measurement: changing it rescales every figure.
REF_SECONDS = 0.004

#: How long a segment runs before it is cut at the next request end.
SEGMENT_S = 0.05


def _reference_work() -> int:
    index = {}
    for i in range(REF_ITEMS):
        key = f"scrap-{i:06d}"
        index.setdefault(key[-2:], set()).add((key, i * 7 % 101))
    rows = sorted((k, sorted(v)[0][1], len(v)) for k, v in index.items())
    return len(json.loads(json.dumps(rows)))


_TABLE: Dict[str, Tuple[int, str]] = {}
_KEYS: List[str] = []


def _memory_work() -> int:
    if not _TABLE:
        for i in range(REF_TABLE):
            _TABLE[f"scrap-{i:07d}"] = (i, f"name {i}")
        rng = random.Random(0)
        _KEYS.extend(f"scrap-{rng.randrange(REF_TABLE):07d}"
                     for _ in range(REF_LOOKUPS))
    total = 0
    for key in _KEYS:
        total += _TABLE[key][0]
    return total


def reference() -> float:
    """Seconds the reference loop takes right now (collector paused)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _reference_work()
        _memory_work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Segment(NamedTuple):
    wall_s: float     # raw wall seconds, paused time taken out
    cpu_s: float      # raw server CPU seconds
    factor: float     # host slowness: reference time / REF_SECONDS


class Segments:
    """A measured stretch cut into reference-bracketed segments.

    :meth:`cut` closes the open segment (call it at request ends, when
    :meth:`due`, and at the end of every stretch to be reported on its
    own); :attr:`index` is the open segment's number, by which request
    samples are matched to their factor.
    """

    def __init__(self, cpu: Callable[[], float]) -> None:
        self._cpu = cpu
        self.done: List[Segment] = []
        self._ref = reference()
        self._paused = 0.0
        self._t, self._c = time.perf_counter(), cpu()

    @property
    def index(self) -> int:
        return len(self.done)

    def due(self) -> bool:
        return time.perf_counter() - self._t >= SEGMENT_S

    def pause(self, seconds: float) -> None:
        """Take *seconds* of non-workload time off the open segment."""
        self._paused += seconds

    def cut(self) -> None:
        t, c = time.perf_counter(), self._cpu()
        ref = reference()
        self.done.append(Segment(t - self._t - self._paused, c - self._c,
                                 (self._ref + ref) / 2 / REF_SECONDS))
        self._ref, self._paused = ref, 0.0
        self._t, self._c = time.perf_counter(), self._cpu()
