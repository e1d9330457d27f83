"""The host's speed, sampled while the benchmark measures.

The benchmark runs on a few cores of a shared host whose speed drifts
by up to ~1.8× within tens of seconds as other tenants come and go: a
fixed piece of code takes 42 ms one moment and 75 ms the next. A median
over one run cannot remove that, because consecutive runs sample
different host states. So untraced runs measure the host's speed
while each operation runs, with a fixed reference kernel that does not
depend on the system under test, and report each time rescaled to a
host on which that kernel takes its reference time in :data:`KERNELS`.

:class:`SpeedProbe` runs the kernel from a ``SIGALRM`` handler every
:data:`INTERVAL_S` seconds, on the measured thread itself, so it
samples the core and the moments the operation runs on. The handler
runs between bytecodes: a long call into C delays a sample but never
splits it. Time spent in the handler is recorded and taken out of the
operation's time.

The host's drift does not slow all code alike: interpreter work (dict,
str, list, arithmetic) speeds up by up to 1.9× when the host quietens, a
NumPy sort by up to 1.5×. So each workload uses the kernel whose drift
its own operations follow most closely, judged by the log-log slope of
operation time on kernel time over many operations:

* ``mixed`` (interpreter work and a NumPy sort) for the audits, the
  service and every set-up: slope 0.76-1.15, where the sort alone gives
  more than 1;
* ``numpy`` (the sort alone) for ``fit``, whose tree induction is NumPy
  passes over whole columns: slope 0.69-0.79, where ``mixed`` gives 0.5.

Operation time follows kernel time less than one for one on every
workload, so times are rescaled by the kernel's speed ratio to the power
:data:`ELASTICITY`, the middle of those slopes.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Optional

import numpy as np

#: seconds between two samples
INTERVAL_S = 0.05
#: log-log slope of operation time on kernel time used for rescaling
ELASTICITY = 0.8
#: samples this far before and after an operation count for its speed
#: too, so that a short operation still has several
PAD_S = 0.25

_KEYS = tuple(f"k{index}" for index in range(256))
_VALUES = np.random.default_rng(0).random(20_000)


def numpy_kernel() -> float:
    """One sample: the duration of a fixed NumPy sort, in seconds."""
    started = time.perf_counter()
    np.argsort(_VALUES)
    return time.perf_counter() - started


def mixed_kernel() -> float:
    """One sample: the duration of fixed interpreter work and the
    NumPy sort, in seconds."""
    started = time.perf_counter()
    counts: dict = {}
    parts = []
    total = 0
    for index in range(1_500):
        key = _KEYS[index & 255]
        counts[key] = counts.get(key, 0) + index
        if index % 7 == 0:
            parts.append(f"{key}:{index}")
        total += (index * index) % 13
    "|".join(parts).split("|")
    sorted(counts.values())
    np.argsort(_VALUES)
    return time.perf_counter() - started


#: name -> (kernel, its duration on the reference host in seconds). The
#: references are about the kernels' medians on a 2-vCPU Xeon VM, so
#: rescaled times read close to raw ones.
KERNELS = {
    "mixed": (mixed_kernel, 0.0009),
    "numpy": (numpy_kernel, 0.0004),
}


class SpeedProbe:
    """Samples a kernel of :data:`KERNELS` every :data:`INTERVAL_S`
    seconds while active."""

    def __init__(self, kernel: str = "mixed") -> None:
        self.kernel, self.reference_s = KERNELS[kernel]
        #: (start, end, kernel seconds) of every handler run
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        seconds = self.kernel()
        self.samples.append((started, time.perf_counter(), seconds))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted calls
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def busy(self, start: float, end: float) -> float:
        """Time the handler took inside ``[start, end]``."""
        return sum(
            min(hi, end) - max(lo, start)
            for lo, hi, _ in self.samples
            if hi > start and lo < end
        )

    def kernel_s(self, start: float, end: float) -> Optional[float]:
        """Median kernel time sampled in ``[start - PAD_S, end + PAD_S]``,
        or None when no sample fell inside."""
        inside = [
            seconds for at, _, seconds in self.samples
            if start - PAD_S <= at < end + PAD_S
        ]
        return statistics.median(inside) if inside else None

    def measure(self, start: float, end: float) -> dict:
        """The interval ``[start, end]``: its raw time, the handler's
        share of it, the host's kernel time and the rescaled time."""
        raw = end - start
        net = raw - self.busy(start, end)
        kernel_s = self.kernel_s(start, end)
        if kernel_s is None:
            raise RuntimeError("no speed sample near the measured interval")
        return {
            "raw_s": raw,
            "net_s": net,
            "kernel_s": kernel_s,
            "s": net * (self.reference_s / kernel_s) ** ELASTICITY,
        }
