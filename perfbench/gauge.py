"""A gauge of how fast the host runs Python code right now.

A shared host's speed drifts: a neighbour's load can make every run
take nearly twice as long for minutes, and a single-threaded run's CPU
time grows with it (the slowdown is in the host's caches and cores, not
in time stolen from the process).  So each cold run ticks this gauge --
a fixed stretch of work in a pure-Python cache model, the same on every
commit -- at its start, before every ``Core.run`` call and at its end,
and the benchmark scales the program's CPU time between two ticks by
how much slower those ticks ran than on the reference box.  The
program's time is then in reference seconds: a change to the program
moves it, a change in the host's speed does not.

The gauge's own time is left out of the program's: ``HostGauge.clock``
reads process CPU seconds minus every tick so far.
"""

from __future__ import annotations

import bisect
import gc
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Cache-model accesses per tick.
TICK_ACCESSES = 5000

#: About the CPU seconds of one tick on the idle reference box (see
#: NOTES.md); the unit the program's time is scaled to.
REFERENCE_TICK_S = 0.004


def addresses(count: int, seed: int) -> Iterator[int]:
    """*count* pseudo-random byte addresses in a 16 MiB space."""
    x = seed
    for _ in range(count):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        yield x & 0xFFFFFF


class CacheModel:
    """A set-associative cache with LRU replacement, written the way the
    simulator's own models are: dicts and small method calls.

    4096 sets of 8 ways, filled at construction, hold about 3 MiB of
    dicts and ints, more than a core's private caches.  So a tick, like
    the simulator, also waits on the host's shared cache and memory,
    which is where a neighbour's load slows it most.  The dicts hold
    only ints, so the garbage collector does not track them and the
    program's collections do not visit them.
    """

    SETS, WAYS = 4096, 8

    def __init__(self) -> None:
        self.sets: List[Dict[int, int]] = [{} for _ in range(self.SETS)]
        self.now = 0
        self.hits = self.misses = 0
        for address in addresses(2 * self.SETS * self.WAYS, seed=1):
            self.access(address)
        self.tick()  # so that every tick finds the same lines resident

    def access(self, address: int) -> None:
        self.now += 1
        block = address >> 6
        lines = self.sets[block % self.SETS]
        if block in lines:
            self.hits += 1
        else:
            self.misses += 1
            if len(lines) >= self.WAYS:
                del lines[min(lines, key=lines.__getitem__)]
        lines[block] = self.now

    def tick(self) -> None:
        """The same ``TICK_ACCESSES`` accesses every time."""
        for address in addresses(TICK_ACCESSES, seed=12345):
            self.access(address)


class HostGauge:
    """Ticks, the program clock they are left out of, and the scaling."""

    def __init__(self, cpu_clock: Callable[[], float] = time.process_time,
                 work: Optional[Callable[[], object]] = None) -> None:
        if work is None:
            work = CacheModel().tick
        self._cpu_clock = cpu_clock
        self._work = work
        self.spent = 0.0
        #: (program clock at the tick, the tick's CPU seconds)
        self.ticks: List[Tuple[float, float]] = []

    def clock(self) -> float:
        """Process CPU seconds, less the time spent in ticks."""
        return self._cpu_clock() - self.spent

    def tick(self) -> None:
        at = self.clock()
        enabled = gc.isenabled()
        gc.disable()  # the program's heap must not set the tick's cost
        try:
            start = self._cpu_clock()
            self._work()
            seconds = self._cpu_clock() - start
        finally:
            if enabled:
                gc.enable()
        self.spent += seconds
        self.ticks.append((at, seconds))

    def scaler(self) -> Callable[[float], float]:
        """Maps a program-clock reading to reference seconds since the
        first tick.

        The program's time between two ticks is scaled by
        ``REFERENCE_TICK_S`` over the mean of their seconds.  Before the
        first tick and after the last, the nearest tick alone sets the
        scale.  Needs at least one tick.
        """
        at = [t for t, _ in self.ticks]
        rates = [REFERENCE_TICK_S * 2 / (a + b) for (_, a), (_, b)
                 in zip(self.ticks, self.ticks[1:])]
        first = REFERENCE_TICK_S / self.ticks[0][1]
        last = REFERENCE_TICK_S / self.ticks[-1][1]
        totals = [0.0]
        for rate, start, end in zip(rates, at, at[1:]):
            totals.append(totals[-1] + rate * (end - start))

        def scaled(reading: float) -> float:
            if reading <= at[0]:
                return (reading - at[0]) * first
            i = bisect.bisect_right(at, reading) - 1
            if i == len(at) - 1:
                return totals[-1] + (reading - at[-1]) * last
            return totals[i] + (reading - at[i]) * rates[i]

        return scaled
