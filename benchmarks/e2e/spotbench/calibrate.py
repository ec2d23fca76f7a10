"""Machine-speed calibration: the yardstick every timing is held against.

The reference box is a shared two-core VM that moves between a fast and
a slow state (a fixed pure-Python loop reads 3.4 or 4.2 ms of CPU, for
seconds to minutes at a time, now and then 6 ms): the same workload,
same seed, reads 0.29 ms one run and 0.41 ms the next.  No amount of
work inside a run averages out a state that lasts the whole run, so
each run measures the machine as well.  While a run lasts, a
:class:`Sampler` thread times a fixed, allocation-light pure-Python
kernel every few tens of milliseconds, in thread CPU time, so waiting
for the GIL does not count.  Every end-to-end *timing* is then reported
at reference speed, by the kernel samples taken while it ran:

    reported = measured * REFERENCE_KERNEL_S / (mean kernel seconds
                                                inside the interval)

Both sides of any comparison run identical benchmark code, so the
kernel cancels out of every ratio; what it removes is the machine.  The
raw timings stay in the result file's ``details`` and the factor of the
timed phase is the per-layer metric ``loadgen.speed_factor``.  Per-layer
times are reported as measured.
"""

from __future__ import annotations

import json
import threading
import time
from typing import List, Optional, Tuple

#: the kernel's CPU time as the sampler reads it on the reference box in
#: its fast state: the unit anchor
REFERENCE_KERNEL_S = 0.0011

_DATA = [(i * 7919) % 10007 for i in range(7000)]


def kernel() -> int:
    """Dict churn, integer arithmetic, a sort and a JSON render over a
    fixed input; creates three containers, so the collector stays out."""
    counts = {}
    acc = 0
    for x in _DATA:
        counts[x] = counts.get(x, 0) + x
        acc += x * x
    ordered = sorted(_DATA)
    return acc + ordered[0] + len(json.dumps(ordered[:600]))


class Sampler:
    """Times the kernel on a background thread until stopped.

    ``samples`` holds ``(perf_counter at the start, kernel CPU seconds)``
    -- the harness times its intervals on the same clock; ``list.append``
    is atomic, so readers need no lock.
    """

    #: seconds slept between two kernel runs: a few percent of one core,
    #: and some sixty samples inside a three-second round
    PERIOD_S = 0.04

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="sampler",
                                        daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            at = time.perf_counter()
            started = time.thread_time()
            kernel()
            self.samples.append((at, time.thread_time() - started))

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: Optional[float] = None,
               end: Optional[float] = None) -> float:
        """What to multiply a time measured over ``[start, end]`` by to
        read it at reference speed (< 1 when the machine ran slow).

        From the *mean* of the samples inside the interval: a wall time
        adds up every moment's slowdown, and so does the mean.
        """
        return factor_of(self.samples, start, end)


def factor_of(samples: List[Tuple[float, float]],
              start: Optional[float] = None,
              end: Optional[float] = None) -> float:
    """:meth:`Sampler.factor` over recorded ``samples``; an interval too
    short to hold a sample is read by the sample nearest to it."""
    if not samples:
        raise ValueError("no kernel sample was taken")
    lo = samples[0][0] if start is None else start
    hi = samples[-1][0] if end is None else end
    inside = [cpu for at, cpu in samples if lo <= at <= hi]
    if not inside:
        inside = [min(samples, key=lambda s: abs(s[0] - (lo + hi) / 2))[1]]
    return REFERENCE_KERNEL_S * len(inside) / sum(inside)
