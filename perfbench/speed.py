"""Host speed calibration for the benchmark's end-to-end times.

A shared host's speed drifts, by up to a factor of two within seconds on a
small cloud VM, and alike for every process on it. The benchmark measures
that speed next to the work with fixed kernels that use nothing of the
library, so a change to the library cannot move them. A time measured while
a kernel took ``c`` seconds is reported at reference speed, multiplied by
the kernel's reference time over ``c``.

Two kinds of work slow down differently when the host does: interpreter-bound
code (many small numpy calls, as in one estimator fit) by about the host's
factor, whole-array numpy code (as in the WMLE weight simulation) by less,
about 0.6 to 0.8 of it on a log scale as measured on a 2-core VM. So there
are two kernels, one of each kind, and each time is scaled by the kernel of
the kind of work it measures.

:func:`calibrate` runs the whole interpreter kernel once, next to a
measurement. :class:`Sampler` runs short slices of both kernels from a timer
signal while a workload runs, so that speed changes within one timed unit
are seen too.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# About the kernels' times on an unloaded 2-core Xeon VM; they only set the
# scale of the reported times.
REFERENCE_S = 0.025          # the whole interpreter kernel
_ITERATIONS = 2000
_SLICE_ITERATIONS = 100
_SLICE_REFERENCE_S = REFERENCE_S * _SLICE_ITERATIONS / _ITERATIONS
_ARRAY_REFERENCE_S = 0.0013  # one array kernel
_ARRAY_SHAPE = (2000, 48)    # 768 KB a buffer, past the first cache level
_X = np.linspace(0.5, 3.0, 30)


def _kernel(iterations: int) -> float:
    t0 = time.perf_counter()
    total = 0.0
    for _ in range(iterations):
        y = np.sort(_X[::-1])
        total += float(np.log(y).sum()) + float(np.mean(y * y))
        total += sum(i * 0.5 for i in range(20))
    elapsed = time.perf_counter() - t0
    if not total > 0:  # consumes the result
        raise RuntimeError("calibration kernel went wrong")
    return elapsed


def _array_kernel(rng: np.random.Generator, e: np.ndarray, log_e: np.ndarray) -> float:
    """Whole-array work into the given buffers, so that its time does not depend
    on the allocator state the workload left behind."""
    t0 = time.perf_counter()
    rng.standard_exponential(out=e)
    np.log(e, out=log_e)
    stat = np.einsum("ij,ij->i", e, log_e) / e.sum(axis=1) - log_e.mean(axis=1)
    median = float(np.median(stat))
    elapsed = time.perf_counter() - t0
    if not median == median:  # consumes the result
        raise RuntimeError("calibration kernel went wrong")
    return elapsed


def calibrate() -> float:
    """Seconds the whole kernel takes now."""
    return _kernel(_ITERATIONS)


def factor(*seconds: float) -> float:
    """Scale to reference speed from whole-kernel calibrations taken around a measurement."""
    return REFERENCE_S / statistics.fmean(seconds)


class Sampler:
    """Host speed sampled every ``interval`` seconds while the sampler is active.

    A SIGALRM timer runs a slice of each kernel between the workload's
    bytecodes (so only in the main thread) and records their scale factors.
    :meth:`clock` reads ``perf_counter`` less the time spent in slices, so
    times taken with it leave the slices out.
    """

    def __init__(self, interval: float = 0.08):
        self.interval = interval
        self.interp: list[float] = []  # scale factors for interpreter-bound work
        self.array: list[float] = []   # scale factors for whole-array work
        self.busy = 0.0
        self._rng = np.random.default_rng(0)
        self._buffers = (np.empty(_ARRAY_SHAPE), np.empty(_ARRAY_SHAPE))
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.busy

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.interp.append(_SLICE_REFERENCE_S / _kernel(_SLICE_ITERATIONS))
        self.array.append(_ARRAY_REFERENCE_S / _array_kernel(self._rng, *self._buffers))
        self.busy += time.perf_counter() - t0

    def mark(self) -> int:
        return len(self.interp)

    def factors_since(self, mark: int) -> tuple[float, float]:
        """Mean (interpreter, array) scale factors of the slices since ``mark`` (the
        time-weighted speed of that interval), or the latest if none ran since."""
        return (statistics.fmean(self.interp[mark:] or self.interp[-1:]),
                statistics.fmean(self.array[mark:] or self.array[-1:]))

    def __enter__(self) -> "Sampler":
        self._tick(None, None)  # a first sample, for a unit shorter than the interval
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
