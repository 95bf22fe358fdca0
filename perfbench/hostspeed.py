"""Host-speed-normalised timing for shared hosts.

The hosts this benchmark runs on share their cores with other tenants
and run at two speeds about 1.7x apart, in phases that last from a
second to several minutes (see METHODOLOGY.md).  A wall time measured
there mixes the program's own work with the phase it happened to fall
into, and no affordable number of repetitions averages a minute-long
phase away.

:class:`SpeedClock` measures the host's speed *while the program runs*.
Every ``PERIOD_S`` a timer signal runs :func:`reference_loop` -- fixed
interpreter work that uses only the standard library, with the garbage
collector paused -- and times it.  Each stretch of program time between
two samples is divided by the loop time measured at its end, which
turns it into loop units; multiplying by ``REFERENCE_LOOP_S``, the
loop's time on the reference host in a fast phase, gives seconds back.
The samples themselves are left out of both clocks.

The reference loop is independent of the simulator, so a change that
speeds the simulator up lowers the reading in full.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from array import array

#: Interval between speed samples.
PERIOD_S = 0.01
#: :func:`reference_loop`'s typical time when sampled inside a benchmark
#: run on the reference host (2-vCPU Xeon VM at 2.1 GHz, Python 3.11) in
#: a fast phase; converts loop units to seconds.
REFERENCE_LOOP_S = 110e-6

_MASK = (1 << 18) - 1
#: A 2 MiB permutation of its own indices (an odd multiplier is a
#: bijection modulo a power of two); random lookups in it miss the
#: private caches, as the simulator's lookups in its large tables do.
_TABLE = array("l", [(key * 2654435761) & _MASK for key in range(_MASK + 1)])


class _Cell:
    __slots__ = ("value", "seen")

    def __init__(self) -> None:
        self.value = 1
        self.seen = dict.fromkeys(range(64), 0)

    def step(self, key: int) -> int:
        self.value = (self.value * 31 + key) & 0xFFFF
        self.seen[key & 63] = self.value
        return self.seen[(key + 7) & 63]


_CELL = _Cell()
_HEAP = list(range(64))


def reference_loop(rounds: int = 150) -> int:
    """Fixed work shaped like the simulator's inner loops.

    Method calls on a slotted object, small-dict updates, random lookups
    in a 2 MiB table and a fixed-size heap.  Every structure is made once,
    at import, so a sample allocates nothing that outlives it and leaves
    the program's memory and collector state as it found them.
    """
    key = 1
    for step in range(rounds):
        key = _TABLE[(key + step) & _MASK]
        heapq.heapreplace(_HEAP, key)
        key += _CELL.step(key)
    return key


class SpeedClock:
    """Program time in reference seconds and in host seconds."""

    def __init__(self) -> None:
        self._units = 0.0     # program time up to _mark, in loop units
        self._host = 0.0      # program time up to _mark, in host seconds
        self._mark = 0.0      # end of the latest sample
        self._loop = 0.0      # latest loop time
        self._previous = None

    def _sample(self) -> float:
        """Time one reference loop; returns when it began."""
        enabled = gc.isenabled()
        gc.disable()
        begin = time.perf_counter()
        reference_loop()
        self._loop = time.perf_counter() - begin
        if enabled:
            gc.enable()
        return begin

    def _tick(self, _signum, _frame) -> None:
        stretch = self._sample() - self._mark
        self._units += stretch / self._loop
        self._host += stretch
        self._mark = time.perf_counter()

    def start(self) -> None:
        self._sample()
        self._mark = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def read(self):
        """``(reference_s, host_s)`` of program time since :meth:`start`."""
        stretch = time.perf_counter() - self._mark
        return ((self._units + stretch / self._loop) * REFERENCE_LOOP_S,
                self._host + stretch)
