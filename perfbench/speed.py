"""CPU time scaled to a nominal machine speed.

The benchmark runs on cores shared with other tenants, whose load slows
this process by up to a factor of two and changes within a fraction of a
second; process CPU time slows with it.  A :class:`ScaledClock` times one
stretch of work (a job, a set-up) in CPU seconds and, while that work runs,
samples how fast the machine is: every ``PROBE_EVERY_S`` of CPU an
``ITIMER_PROF`` signal runs a fixed calibration kernel in this same thread,
and two kernel calls run on either side of the stretch.  The probes' own
CPU is taken out of the stretch's time, and the rest is scaled by the mean
of ``CAL_NOMINAL_S / kernel time`` over the samples.  The samples fall at
even steps of CPU time, so that mean is the ratio of nominal to measured
time even when the speed changed during the stretch.

The kernel is written here, not taken from the library, so no change to
the library can change its cost.
"""
from __future__ import annotations

import resource
import signal
import statistics
import time
from fractions import Fraction

# A truncated product of two fixed 12-term Fraction series: the kind of work
# ``Series.__mul__`` does, about a quarter of a millisecond.
_CAL_TERMS = 12
_CAL_A = tuple(Fraction(i * i + 1, 2 * i + 3) for i in range(_CAL_TERMS))
_CAL_B = tuple(Fraction(3 - i, i + 5) for i in range(_CAL_TERMS))

# CPU seconds of one kernel call at the nominal speed: this host's fast state
# (2.0 GHz Xeon vCPU, Python 3.11.7).  Only a scale: two commits compared
# with the same value compare their CPU times at one machine speed.
CAL_NOMINAL_S = 2.3e-4
PROBE_EVERY_S = 0.005
BRACKET = 2


def cpu_now() -> float:
    """CPU seconds of this process plus its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _cal_kernel() -> None:
    out = [Fraction(0)] * _CAL_TERMS
    for i, a in enumerate(_CAL_A):
        for j in range(_CAL_TERMS - i):
            out[i + j] += a * _CAL_B[j]


class ScaledClock:
    """Context manager timing one stretch of work.

    After the block, ``cpu`` is the stretch's CPU seconds without the
    probes, ``scaled`` the same at the nominal speed, and ``busy`` and
    ``wall`` its CPU seconds with the probes and its wall-clock seconds.  With
    ``in_stretch=False`` only the kernel calls on either side run, so that
    nothing runs inside the stretch (the traced passes use this, to keep
    the probes out of the spans).
    """

    def __init__(self, in_stretch: bool = True):
        self.in_stretch = in_stretch
        self.rates: list[float] = []
        self.cpu = self.busy = self.wall = 0.0
        self._spent = 0.0
        self._busy = False

    def _sample(self) -> None:
        t0 = cpu_now()
        _cal_kernel()
        self.rates.append(CAL_NOMINAL_S / max(cpu_now() - t0, 1e-9))

    def _on_signal(self, _signum, _frame) -> None:
        if self._busy:          # a tick that lands inside a probe
            return
        self._busy = True
        t0 = cpu_now()
        self._sample()
        self._spent += cpu_now() - t0
        self._busy = False

    def __enter__(self) -> "ScaledClock":
        for _ in range(BRACKET):
            self._sample()
        if self.in_stretch:
            self._old = signal.signal(signal.SIGPROF, self._on_signal)
        self._wall0 = time.perf_counter()
        self._t0 = cpu_now()
        if self.in_stretch:
            signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *_exc) -> bool:
        if self.in_stretch:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.busy = cpu_now() - self._t0
        self.wall = time.perf_counter() - self._wall0
        self.cpu = self.busy - self._spent
        if self.in_stretch:
            signal.signal(signal.SIGPROF, self._old)
        for _ in range(BRACKET):
            self._sample()
        return False

    @property
    def scaled(self) -> float:
        return self.cpu * statistics.fmean(self.rates)
