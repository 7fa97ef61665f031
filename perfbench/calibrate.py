"""A fixed reference computation that measures how fast the machine runs now.

A shared host's speed drifts: the same modcoh batch runs 1.3x slower in
one minute than in the next, in wall and in CPU time alike.  The benchmark
measures a short slice of this reference before every query and once after
the last one, and a `Sampler` measures single units of it every
SAMPLE_INTERVAL_S while a query runs.  The reference is row reduction over
F_p in pure Python, the arithmetic modcoh spends its time on, but uses
none of modcoh's code, so a change to modcoh never changes its cost.

A query's time, times UNIT_S over the mean per-unit time of the reference
units measured from the slice before it to the slice after it, reads as
its time on a machine where one unit of reference work takes UNIT_S
seconds.
"""

from __future__ import annotations

import random
import signal
import time

# Nominal time of one unit of reference work (about its median time on a
# quiet 2-vCPU VM with Python 3.11.7).  It is a fixed scale: changing it
# rescales every normalised time.
UNIT_S = 0.0007
SLICE_UNITS = 5
SAMPLE_INTERVAL_S = 0.05

_P = 7
_ROWS, _COLS = 20, 32


def _template():
    rng = random.Random(20081)  # fixed: the reference never depends on --seed
    return tuple(tuple(rng.randrange(_P) for _ in range(_COLS))
                 for _ in range(_ROWS))


_TEMPLATE = _template()
_INVERSE = tuple(pow(x, _P - 2, _P) if x else 0 for x in range(_P))
# One unit runs while a query is part-way through its own allocations, so it
# must leave the query's memory alone: it works in place on these lists, and
# every value it makes is a small cached int.  A unit that made tuples or
# numpy temporaries moved the garbage collector's and malloc's timing and
# changed the peak RSS of a dims run by up to 4 MB.
_WORK = [list(row) for row in _TEMPLATE]


def work() -> int:
    """One unit of reference work: the rank of a fixed 20 x 32 matrix over
    F_7 by Gaussian elimination, returned with a checksum of the result."""
    a = _WORK
    for i in range(_ROWS):
        a[i][:] = _TEMPLATE[i]
    rank = 0
    for col in range(_COLS):
        piv = rank
        while piv < _ROWS and not a[piv][col]:
            piv += 1
        if piv == _ROWS:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        prow = a[rank]
        inv = _INVERSE[prow[col]]
        for j in range(col, _COLS):
            prow[j] = prow[j] * inv % _P
        for i in range(_ROWS):
            f = a[i][col]
            if f and i != rank:
                row, g = a[i], _P - f
                for j in range(col, _COLS):
                    row[j] = (row[j] + g * prow[j]) % _P
        rank += 1
        if rank == _ROWS:
            break
    check = 0
    for i in range(_ROWS):
        for j in range(_COLS):
            check = (check * 8 + a[i][j]) % 251
    return rank * 251 + check


EXPECTED = work()


def measure_slice(units: int = SLICE_UNITS) -> tuple[float, float]:
    """(wall, cpu) seconds per unit over `units` checked units of work."""
    t0, c0 = time.perf_counter(), time.process_time()
    for _ in range(units):
        if work() != EXPECTED:
            raise RuntimeError("reference computation gave a different result")
    return (time.perf_counter() - t0) / units, (time.process_time() - c0) / units


class Sampler:
    """While active, measures one unit of reference work every `interval`
    seconds of wall time, from a SIGALRM handler.

    The handler runs between two bytecodes of the query, so `wall` and
    `cpu` (the handler's own totals) must be taken off the query's times.
    When other processes share the CPUs, a timer that expires while this
    process waits is handled at the start of its next time slice, where a
    unit is rarely preempted; so the reference then underestimates the
    slowdown of wall time, but not that of CPU time.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL_S) -> None:
        self.interval = interval
        self.active = False
        self.busy = False
        self.units = 0
        self.wall = self.cpu = 0.0
        self.bad = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        # Skip a signal that arrived just before __exit__, or one that
        # interrupts a unit: work() reuses one buffer, so it is not reentrant.
        if not self.active or self.busy:
            return
        self.busy = True
        t0, c0 = time.perf_counter(), time.process_time()
        self.bad |= work() != EXPECTED
        self.wall += time.perf_counter() - t0
        self.cpu += time.process_time() - c0
        self.units += 1
        self.busy = False

    def __enter__(self) -> "Sampler":
        self.units = 0
        self.wall = self.cpu = 0.0
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.active = False
        if self.bad:
            raise RuntimeError("reference computation gave a different result")
