"""Timing corrected for the machine's momentary speed.

The benchmark runs on a small virtual machine that shares its physical
cores with other tenants.  Their load slows every computation here by up
to a half, in phases lasting tens of seconds, so the same work measured in
two runs can differ by 20% or more.  A fixed calibration loop, timed
alongside the work, slows down by the same factor (measured: the ratio of
work to calibration varied 4% where raw times varied 23%).

``SpeedProbe`` runs that loop on a timer signal every ``PERIOD`` seconds
while timed work executes.  A span's time is its wall time minus the time
spent in the probe, scaled by ``REFERENCE_S / (median probe duration)``:
the seconds the work would have taken at the reference speed.  The raw
wall times are kept too and printed in the run's report.
"""

import contextlib
import signal
import statistics
import time

PERIOD = 0.05
# Median duration of ``kernel()`` on the 2-core x86_64 (2.1 GHz) machine
# the benchmark was defined on, in a quiet phase.
REFERENCE_S = 2.0e-3
# A span shorter than a few periods also uses this many earlier samples.
MIN_SAMPLES = 5


def kernel() -> complex:
    """Horner evaluation with a running scale, as a fiber solve does."""
    coeffs = [0.5 + 0.25j, -1.0, 0.75j, 1.0, -0.5 + 0.5j]
    z = 0.6 + 0.3j
    total = 0j
    for _ in range(1800):
        value = 0j
        scale = 0.0
        az = abs(z)
        for c in coeffs:
            value = value * z + c
            scale = scale * az + abs(c)
        total += value / scale
        z = z * (0.999 + 0.001j)
    return total


class Span:
    def __init__(self):
        self.raw_s = 0.0          # wall time including probe samples
        self.seconds = 0.0        # work time at the reference speed


class SpeedProbe:
    """Calibration samples on a timer; inactive probes report raw wall time."""

    def __init__(self, active: bool):
        self.active = active
        self.samples = []         # (start, end) of each calibration run
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter()))

    def start(self) -> None:
        if not self.active:
            return
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        # Prime the window used by short spans.
        for _ in range(MIN_SAMPLES):
            self._tick(None, None)

    def stop(self) -> None:
        if not self.active:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def span(self):
        span = Span()
        first = len(self.samples)
        start = time.perf_counter()
        try:
            yield span
        finally:
            span.raw_s = time.perf_counter() - start
            if not self.active:
                span.seconds = span.raw_s
            else:
                inside = self.samples[first:]
                window = self.samples[max(0, min(first, len(self.samples) - MIN_SAMPLES)):]
                probe_s = sum(end - begin for begin, end in inside)
                speed = statistics.median(end - begin for begin, end in window)
                span.seconds = (span.raw_s - probe_s) * REFERENCE_S / speed
