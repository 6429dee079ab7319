"""Wall time at a reference host speed.

The shared host the benchmark runs on changes speed by up to 1.6x, in states
that last from a fraction of a second to minutes. The program and a fixed
pure-Python probe are both bound by the interpreter, so they slow down by
about the same factor. A `HostClock` times work in segments that the
workload splits at seams of its choosing, runs the probe in the same thread
at every split, and scales each segment by `REF_PROBE_S` over the probe time
around it. The sum is the wall time the work would have taken at the
reference speed. Probe time is never part of a segment.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from typing import List, Optional, Tuple

_perf = time.perf_counter

PROBE_REPEATS = 3
# At the start and stop of a clock the probe runs longer: a round that has
# no seams (one verify call, or a prove_case on two workers) has only these
# two, and a longer probe reads a host state that outlasts it with less noise.
EDGE_REPEATS = 31
# Median probe time on a 2-vCPU Intel Xeon host (Python 3.11).
REF_PROBE_S = 2.0e-3
# A split closer than this to the last one extends the segment instead, so
# that probes stay a small part of the run.
MIN_SEGMENT_S = 0.05
# Probes within this distance of a segment give the host speed during it.
WINDOW_S = 0.5


def _probe_once() -> float:
    t0 = _perf()
    acc = 0
    for i in range(12_000):
        acc = (acc * 31 + i) % 1_000_003
    bins: dict = {}
    for i in range(3_000):
        k = i % 61
        bins[k] = bins.get(k, 0.0) + math.hypot(i, k) + math.sqrt(i)
    sorted(bins.values())
    return _perf() - t0


def probe(repeats: int = PROBE_REPEATS) -> float:
    """Median time of integer arithmetic, and float and dict work like the
    engine's, over `repeats` repeats."""
    return statistics.median(_probe_once() for _ in range(repeats))


class HostClock:
    """`start`, any number of `mark`s, `stop`. Only the time between
    `start` and `stop` is counted."""

    def __init__(self) -> None:
        self.segments: List[Tuple[float, float]] = []
        self.probe_at: List[float] = []
        self.probe_s: List[float] = []
        self._start: Optional[float] = None

    def _probe(self, repeats: int = PROBE_REPEATS) -> None:
        self.probe_at.append(_perf())
        self.probe_s.append(probe(repeats))

    def start(self) -> None:
        self._probe(EDGE_REPEATS)
        self._start = _perf()

    def mark(self) -> None:
        now = _perf()
        if now - self._start >= MIN_SEGMENT_S:
            self.segments.append((self._start, now))
            self._probe()
            self._start = _perf()

    def stop(self) -> None:
        self.segments.append((self._start, _perf()))
        self._probe(EDGE_REPEATS)

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.segments)

    def ref_wall_s(self) -> float:
        total = 0.0
        for start, end in self.segments:
            # Always holds the probes just before and just after the segment.
            lo = bisect.bisect_left(self.probe_at, start - WINDOW_S)
            hi = bisect.bisect_right(self.probe_at, end + WINDOW_S)
            total += (end - start) * REF_PROBE_S / statistics.median(self.probe_s[lo:hi])
        return total

    def host_s(self) -> float:
        """Median probe time over the clock's probes."""
        return statistics.median(self.probe_s)
