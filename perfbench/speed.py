"""Host-speed sampling, so that timings survive a host whose speed drifts.

On a shared machine the same pure-Python work can run up to half as fast
for tens of seconds at a time (no steal shows; CPU time drifts with wall
time). Longer passes and medians do not remove drift on that scale. The probe
interrupts the pass every INTERVAL_S with SIGALRM and times a fixed chunk of
big-integer arithmetic (the kind of work the package's kernels and mpmath's
pure-Python backend do). The mean chunk time over the pass measures how fast
the host ran while the pass ran, and a time t is reported as
``t * NOMINAL_NS / mean_chunk_ns``: seconds at a fixed reference speed.

The time spent in chunks is excluded from every timing it interrupts.

Set-up (imports and building the identity registry) slows by much less than
big-integer arithmetic when the host is busy, so it has a reference of its
own kind: cold imports of a fixed set of standard-library modules that
neither mzsv nor mpmath imports, timed in the same interpreter right after
set-up. A set-up time t is reported as ``t * NOMINAL_IMPORT_S / import_s``.
"""

from __future__ import annotations

import gc
import importlib
import signal
import sys
import time

INTERVAL_S = 0.2
CHUNK_STEPS = 8000
NOMINAL_NS = 3_500_000   # about one chunk on a busy, uncontended Intel Xeon vCPU
IMPORT_REFERENCE = ("asyncio", "email.mime.multipart", "http.server",
                    "xml.dom.minidom", "logging.handlers", "pydoc", "sqlite3",
                    "tarfile")
NOMINAL_IMPORT_S = 0.05  # about one reference import on the same host

_now = time.perf_counter_ns


def reference_imports():
    """Cold-import IMPORT_REFERENCE; returns the time taken in seconds."""
    warm = [name for name in IMPORT_REFERENCE if name in sys.modules]
    if warm:
        raise RuntimeError(f"import reference already loaded: {warm}")
    t0 = time.perf_counter()
    for name in IMPORT_REFERENCE:
        importlib.import_module(name)
    return time.perf_counter() - t0


def reference_chunk(steps=CHUNK_STEPS):
    """Fixed big-integer work; returns its duration in nanoseconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = _now()
        scale = 10 ** 56
        a, acc = scale, 0
        for t in range(1, steps):
            a = a * 3 // (t + 7) + scale
            acc += a // (t * t)
            acc ^= acc >> 64
        return _now() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples reference_chunk every INTERVAL_S while started."""

    def __init__(self):
        self.chunks_ns = []
        self.spent_ns = 0        # wall time spent inside the probe
        self._old = None

    def _tick(self, signum, frame):
        t0 = _now()
        self.chunks_ns.append(reference_chunk())
        self.spent_ns += _now() - t0

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def sample(self, n):
        """Time n chunks now."""
        for _ in range(n):
            self._tick(None, None)

    def mean_ns(self):
        return sum(self.chunks_ns) / len(self.chunks_ns)
