"""Arithmetic the benchmark reports with: percentiles, decision
fingerprints, machine-speed calibration and peak memory.  No dependency
on the package under test."""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from typing import Mapping, Sequence

# A fixed scale: about the median wall ms of one `calibration_slice` on the
# machine in machine.json.  That machine is shared, and for seconds to
# minutes at a time it runs all code up to about 1.8x slower, so raw times
# are not comparable even within one run.  A time divided by a `SpeedProbe`
# factor is stated at the speed at which a slice takes this long.  A slice
# is timed about every 0.1 s of work, because the slow spells come and go
# within seconds.
REFERENCE_SLICE_MS = 5.0

# A tail percentile is reported only when this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10
TAIL_PERCENT = 95


def percentile_rank(n: int, percent: int) -> int:
    """1-based nearest rank of the `percent`-th percentile of n samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0 < percent <= 100:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    return (percent * n + 99) // 100


def samples_beyond(n: int, percent: int) -> int:
    """How many of n samples lie strictly above the percentile's rank."""
    return n - percentile_rank(n, percent)


def min_samples_for(percent: int) -> int:
    """Smallest sample count that leaves MIN_TAIL_SAMPLES beyond `percent`."""
    n = 1
    while samples_beyond(n, percent) < MIN_TAIL_SAMPLES:
        n += 1
    return n


def percentile(values: Sequence[float], percent: int) -> float:
    """Nearest-rank percentile (an observed value, never interpolated)."""
    ordered = sorted(values)
    return ordered[percentile_rank(len(ordered), percent) - 1]


def tail_percentile(values: Sequence[float]) -> float:
    """The TAIL_PERCENT percentile, refused when too few samples lie beyond
    it to be more than an outlier."""
    if samples_beyond(len(values), TAIL_PERCENT) < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{TAIL_PERCENT} of {len(values)} samples leaves fewer than"
            f" {MIN_TAIL_SAMPLES} beyond it"
        )
    return percentile(values, TAIL_PERCENT)


def calibration_slice() -> float:
    """Wall ms of a fixed interpreter-bound kernel that shares no code
    with the package, so a faster program cannot make it faster.  It
    allocates no object the garbage collector tracks, so it never sets
    off a collection whose cost depends on the heap the workload left."""
    started = time.perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(20000):
        slot = i & 1023
        acc += table.get(slot, 0.0) * 0.5 + i
        table[slot] = acc * 1e-9
    return (time.perf_counter() - started) * 1000.0


class SpeedProbe:
    """Calibration marks between pieces of timed work.

    `mark()` times one slice and returns the mark's index.  `between_ops()`
    marks only when `spacing_s` of work has passed since the last mark, so
    the workloads call it before every operation and the marks stay a few
    percent of the run.  `factor(before, after)` gives how many times
    slower than the reference the machine ran between two marks: the
    median over those marks, the ones between them and WINDOW more each
    way, so that one slice caught in a burst of load does not skew it.
    Divide times by it, or multiply rates, to state them at the reference
    speed.  `spent_s` is the wall time spent in marks, for taking it out
    of a unit that contains some.
    """

    WINDOW = 2  # extra marks on each side
    SPACING_S = 0.1

    def __init__(self, spacing_s: float = SPACING_S) -> None:
        self.spacing_s = spacing_s
        self.marks: list[float] = []
        self.spent_s = 0.0
        self._last_end = time.perf_counter()

    @property
    def last(self) -> int:
        """Index of the latest mark."""
        return len(self.marks) - 1

    def mark(self) -> int:
        started = time.perf_counter()
        self.marks.append(calibration_slice())
        self._last_end = time.perf_counter()
        self.spent_s += self._last_end - started
        return self.last

    def between_ops(self) -> int:
        if time.perf_counter() - self._last_end >= self.spacing_s:
            self.mark()
        return self.last

    def factor(self, before: int, after: int) -> float:
        around = self.marks[max(0, before - self.WINDOW): after + self.WINDOW + 1]
        return statistics.median(around) / REFERENCE_SLICE_MS


def decision_fingerprint(traces: Mapping[tuple, object]) -> str:
    """SHA-256 over every episode's action labels and vms sequence.

    `traces` maps (policy kind, run index) to an ExperimentTrace.  Only
    the decision label and the cluster size of each tick enter the hash,
    so wall-clock fields such as `decision_ms` never change it.
    """
    digest = hashlib.sha256()
    named = {(getattr(kind, "value", kind), run): trace for (kind, run), trace in traces.items()}
    for (name, run), trace in sorted(named.items()):
        labels = ",".join(r.decision for r in trace.records)
        sizes = ",".join(str(r.vms) for r in trace.records)
        digest.update(f"{name}|{run}|{labels}|{sizes}\n".encode())
    return digest.hexdigest()


def peak_rss_mib() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
