"""CPU-speed calibration for timings taken on a shared host.

On a shared host the effective speed of a core drifts: a fixed
pure-Python loop can take 1.6 times longer for a fraction of a second
and the mix of slow and fast phases changes from minute to minute, so
raw wall times of identical work differ by a third between runs.
`SpeedProbe` samples the current speed while timed work runs: a
``SIGALRM`` timer fires every `INTERVAL` seconds of wall time and the
handler times `reference_loop`.  A pass's raw time is then scaled by
``REF_NOMINAL_S / mean(reference time during the pass)``, which gives
the time the pass would take when the reference loop runs at its
nominal speed.  Time spent in the handler is left out of the call
times through `SpeedProbe.clock`.
"""

from __future__ import annotations

import signal
from array import array
from time import perf_counter

INTERVAL = 0.02
# reference_loop's time in the fast phase of the development host
# (Intel Xeon, 2 vCPU, Python 3.11.7): its 10th percentile over 15 s
REF_NOMINAL_S = 0.00020


def reference_loop() -> int:
    """Fixed work like orient2's: bit operations on ints, tuples, hashing."""
    acc = 0
    rows = [(i * 2654435761) & 0xFFFFFFFF for i in range(32)]
    for k in range(48):
        for row in rows:
            acc += (row >> (k & 15) & row).bit_count()
        acc ^= hash(tuple(rows[k : k + 8]))
    return acc


def reference_seconds() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


class SpeedProbe:
    """Reference-loop samples taken on a wall-clock timer while it is active."""

    def __init__(self) -> None:
        self.samples = array("d")  # reference_loop seconds, in order taken
        self.spent = 0.0  # seconds spent taking samples

    def sample(self, *_: object) -> None:
        start = perf_counter()
        self.samples.append(reference_seconds())
        self.spent += perf_counter() - start

    def clock(self) -> float:
        """``perf_counter`` minus the time the probe itself has used."""
        return perf_counter() - self.spent

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, first: int) -> float:
        """Nominal over measured reference time for samples ``first`` onward."""
        window = self.samples[first:]
        return REF_NOMINAL_S * len(window) / sum(window)
