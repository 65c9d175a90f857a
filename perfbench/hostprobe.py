"""Host-speed probe: rescales a pass's wall times to a reference host speed.

On a shared virtual machine the same pass can take anywhere from one to two
and a half times as long, and the speed of one vCPU changes within seconds
and independently of the other vCPU (CPU time moves with wall time, so the
process is not waiting: its CPU runs slower).  No probe run before, after,
or beside a pass tracks that.  So the probe runs inside the pass process, on
the same vCPU and at the same time: every ``INTERVAL_S`` of wall time a
SIGALRM handler times one fixed piece of pure-Python work (small-int dict
updates, Fraction sums and big-int dot products, the kinds of work paulitope
does).  A phase's speed factor is ``REFERENCE_S`` over the probe's mean time
during the phase, and a wall time times the factor is the time the phase
would have taken on a host that runs the probe in ``REFERENCE_S``.

The probe takes about 3% of a phase's wall time; it is counted in the
phase's time, the same on every commit.  Garbage collection is held off
while the probe runs, so a full collection of the program's heap never
lands in a probe sample.  Changing the work, ``INTERVAL_S`` or
``REFERENCE_S`` changes every time metric of the benchmark.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.01
REFERENCE_S = 0.0004  # about the mean probe time inside a pass on a 2-core Xeon VM

_BIG = tuple(3**40 + 7 * i for i in range(6))


def _work() -> None:
    counts: dict[int, int] = {}
    for i in range(200):
        counts[i % 37] = counts.get(i % 37, 0) + i * i
    total = Fraction(0)
    for i in range(1, 12):
        total += Fraction(i, i + 3)
    v = list(_BIG)
    for i in range(40):
        v = [a * (i + 2) - b for a, b in zip(v, v[1:] + v[:1])]
        sum(a * b for a, b in zip(v, _BIG))


class HostProbe:
    """Samples the probe's duration on a wall-clock timer while started."""

    def __init__(self) -> None:
        self._samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _work()
        self._samples.append(time.perf_counter() - start)
        if collecting:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def take(self) -> float:
        """Speed factor of the phase since the last call, then start a new phase."""
        self._sample()  # a phase shorter than the interval still has one sample
        factor = REFERENCE_S * len(self._samples) / sum(self._samples)
        self._samples = []
        return factor
