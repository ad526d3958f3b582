"""Machine-speed calibration for the fixture workload's warm call times.

On a shared host the same call can take 20% longer for tens of seconds
while neighbours are busy, and process CPU time grows with it. A fixed unit
of work timed alongside the measured calls slows down by about the same
factor. The fixture's end-to-end times are therefore reported as

    raw seconds of a call * REFERENCE_UNIT_S / median(unit seconds during that call)

that is, in seconds at the speed the machine had when REFERENCE_UNIT_S was
measured. (Over four minutes of fixture calls on a 2-vCPU VM, the median
call time of 20-second windows spread 23% raw, 7.3% scaled by one factor
per window and 4.1% scaled call by call.) The unit runs in a sibling process that imports only numpy and
this module, so lockqual's heap, allocator and garbage collector cannot
reach it; the two share only the machine's caches. The raw figures and the
spread of the unit's samples are kept in the results file.

Run as a script, this module is that sibling: for each line read from stdin
it times `unit()` once and writes the seconds on stdout.
"""
from __future__ import annotations

import signal
import subprocess
import sys
import time

import numpy as np

# A typical median of `unit()` in the sibling on a 2-vCPU x86_64 VM (Python 3.11.7, numpy 2.4.6, one BLAS thread).
REFERENCE_UNIT_S = 0.0111

_X = np.random.default_rng(0).standard_normal(400)


def unit() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls.

    The mix follows lockqual's own: dict and float arithmetic in Python, then
    many numpy calls on short vectors, as in the probit and SEM fits. (A
    unit built on one large matrix product tracked the fixture run worse:
    over 15-second windows it left a 6.5% spread where this mix left 2.6%.)
    """
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    total = 0.0
    for i in range(22000):
        d[i % 997] = d.get(i % 997, 0) + i
        total += i * 0.5
    for _ in range(450):
        y = np.exp(-0.5 * _X * _X)
        total += float(y.sum() / (1.0 + np.abs(_X).max()))
    return time.perf_counter() - t0


class Ticker:
    """Every `interval` seconds while a call runs, pauses it to time `unit()` in the sibling.

    The call waits on the sibling's answer inside a SIGALRM handler, so the
    two never run at the same time. `spent` is the time the ticks took, to
    be subtracted from the call's wall time.
    """

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._proc: subprocess.Popen | None = None

    def _ask(self) -> float:
        self._proc.stdin.write(b"\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def _tick(self, *_):
        t0 = time.perf_counter()
        self.samples.append(self._ask())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._ask()  # the first unit warms the sibling up and is not a sample
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()
        return False


def _serve() -> None:
    for _ in sys.stdin.buffer:
        sys.stdout.write(f"{unit()!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
