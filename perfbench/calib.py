"""How fast the machine runs right now, from a fixed pure-Python kernel.

A shared host runs the benchmark at a speed that changes by half or more
within seconds, as other work comes and goes on the same cores; CPU time
does not hide it.  So every timing is expressed at the reference speed, at
which the kernel takes REFERENCE_S:

    normalised = measured * REFERENCE_S / mean kernel time over the stretch

The kernel runs just before and just after each timed stretch and, while a
``Clock`` is running, every SAMPLE_EVERY seconds during it, from a timer
signal.  Time the kernel takes inside this process is left out of
``Clock.cpu()``; a child's CPU time never includes it.  The kernel does
what the toolkit does most, small-integer polynomial arithmetic in Python
lists and dict lookups on tuples, so it slows down with it.  A change to
the toolkit does not touch the kernel, so it moves the normalised times as
it moves the measured ones.
"""

from __future__ import annotations

import gc
import signal
import time

# CPU seconds of one kernel() call on an Intel Xeon (2 vCPUs, Python 3.11)
# on a quiet host.  It only sets the scale: normalised times are seconds at
# that speed.
REFERENCE_S = 0.0045
SAMPLE_EVERY = 0.1

_N, _M, _ROUNDS = 16, 27, 160
_A = [(7 * i + 3) % _M for i in range(_N)]
_B = [(5 * i + 1) % _M for i in range(_N)]


def _mul(a: list, b: list) -> list:
    """a * b in Z_M[x]/(x^N + 1)."""
    out = [0] * _N
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                k = i + j
                if k < _N:
                    out[k] += x * y
                else:
                    out[k - _N] -= x * y
    return [c % _M for c in out]


def _kernel() -> int:
    seen: dict = {}
    a = _A
    for _ in range(_ROUNDS):
        a = _mul(a, _B)
        key = tuple(a)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def kernel() -> float:
    """CPU seconds of one run of the kernel, with no garbage collection in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = time.process_time()
        _kernel()
        return time.process_time() - c0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times stretches of work in CPU seconds at the reference speed.

    Use it as a context manager; with ``sample=False`` it only runs the
    kernel around each stretch, which keeps timer signals out of a trace.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.samples: list[float] = []
        self.spent = 0.0  # CPU seconds the sampling took in this process
        self._busy = False
        self._previous = None
        self.last = self._run()

    def __enter__(self) -> "Clock":
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    def _run(self) -> float:
        self._busy = True
        try:
            c0 = time.process_time()
            k = kernel()
            self.spent += time.process_time() - c0
            return k
        finally:
            self._busy = False

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self.samples.append(self._run())

    def cpu(self) -> float:
        """This process's CPU seconds, less those the sampling took."""
        return time.process_time() - self.spent

    def normalise(self, seconds: float) -> float:
        """Scale `seconds`, just measured, by the kernel during and around it."""
        ks = [self.last, *self.samples]
        self.samples = []
        self.last = self._run()
        ks.append(self.last)
        return seconds * REFERENCE_S * len(ks) / sum(ks)
