"""State rewards from clustered log behavior and utility functions.

Measurements selected for one (size, load bucket) are clustered with
k-means over min-max-normalized (latency, throughput) points.  The k-means
is a scalar Lloyd's loop: a cell holds about a dozen records, too few for
numpy calls to pay off, and the loop keeps numpy's summation order for
each `dims` (see `cluster_behavior`), so it yields the array form's
clusters bit for bit.  Scoring the clusters gives each center's utility
and weight.  A scored cluster is a model state (`MdpState`): the
multi-behavior models take one per cluster, and the single-behavior
models one of two summaries of the same clusters, the biggest cluster's
center (mode behaviour, MB) or the population-weighted average of the
centers and their utilities (expected behaviour, EB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, NoDataError
from .logs import MeasurementRecord
from .model import MdpState


@dataclass(frozen=True)
class ClusteringConfig:
    """k-means setup for behavior clustering."""

    k: int = 4
    dims: int = 2  # 1 = latency only, 2 = (latency, throughput)
    load_bucket_width: float = 1000.0
    max_iterations: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")
        if self.dims not in (1, 2):
            raise ConfigurationError("dims must be 1 or 2")
        if self.load_bucket_width <= 0:
            raise ConfigurationError("load_bucket_width must be positive")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"clustering seed must be >= 0, got {self.seed}")


@dataclass(frozen=True, slots=True)
class ClusterSummary:
    """One behavior cluster: center point and population share."""

    center: tuple[float, ...]
    weight: float

    @property
    def latency_ms(self) -> float:
        return self.center[0]

    @property
    def throughput(self) -> float:
        # 0.0 when clustering ran latency-only (dims=1).
        return self.center[1] if len(self.center) > 1 else 0.0


def cluster_behavior(
    records: Sequence[MeasurementRecord], config: ClusteringConfig
) -> list[ClusterSummary]:
    """Cluster measurements into at most k behavior clusters.

    Lloyd's algorithm with farthest-point seeding (first seed drawn from
    the configured RNG seed, so results are reproducible), run on
    per-dimension min-max-normalized points.  Returns fewer than k
    clusters when there are fewer distinct points.  Output is sorted by
    descending weight, then ascending latency, so index 0 is always the
    mode cluster.

    The loop runs on plain floats: a cell holds a dozen records and
    converges in two or three rounds, so numpy's per-call cost would
    outweigh the arithmetic.  It yields the same floats as the array form
    (an axis-0 `mean` of each cluster's members): ties go to the lowest
    index, and a cluster's sums run in record order for dims=2 and in
    numpy's pairwise order (`_pairwise_sum`) for dims=1.
    """
    if not records:
        raise NoDataError("cannot cluster an empty record set")
    dims = config.dims
    # Latency-only points get a constant 0.0 throughput: it adds exactly
    # 0.0 to every distance and stays 0.0 in every mean.
    columns = [
        [r.latency_ms for r in records],
        [r.throughput if dims == 2 else 0.0 for r in records],
    ]
    lo = [min(column) for column in columns]
    span = [(max(column) - low) or 1.0 for column, low in zip(columns, lo)]
    points = [
        ((x - lo[0]) / span[0], (y - lo[1]) / span[1]) for x, y in zip(*columns)
    ]

    distinct = sorted(set(points))
    k = min(config.k, len(distinct))
    centers = [distinct[_first_seed(config.seed, len(distinct))]]
    nearest = [math.inf] * len(distinct)
    while len(centers) < k:
        cx, cy = centers[-1]
        for i, (x, y) in enumerate(distinct):
            d = (x - cx) * (x - cx) + (y - cy) * (y - cy)
            if d < nearest[i]:
                nearest[i] = d
        far = 0
        for i in range(1, len(nearest)):
            if nearest[i] > nearest[far]:
                far = i
        centers.append(distinct[far])

    assignment = None
    for _ in range(config.max_iterations):
        new_assignment = []
        for x, y in points:
            best, best_d = 0, math.inf
            for j, (cx, cy) in enumerate(centers):
                d = (x - cx) * (x - cx) + (y - cy) * (y - cy)
                if d < best_d:
                    best, best_d = j, d
            new_assignment.append(best)
        if new_assignment == assignment:
            break
        assignment = new_assignment
        centers = _means(points, assignment, centers, dims)

    summaries = []
    total = len(records)
    for j, center in enumerate(centers):
        count = assignment.count(j)
        if count:
            scaled = tuple(c * s + low for c, s, low in zip(center, span, lo))
            summaries.append(ClusterSummary(scaled[:dims], count / total))
    summaries.sort(key=lambda s: (-s.weight, s.center))
    return summaries


@lru_cache(maxsize=1024)
def _first_seed(seed: int, n: int) -> int:
    """Index of the first k-means seed among n distinct points."""
    return int(np.random.default_rng(seed).integers(n))


def _means(
    points: list[tuple[float, float]],
    assignment: list[int],
    centers: list[tuple[float, float]],
    dims: int,
) -> list[tuple[float, float]]:
    """Each cluster's mean point; a cluster with no members keeps its
    center.  numpy sums the rows of an (m, 2) array in order, but the
    (m, 1) latency column of dims=1 pairwise."""
    k = len(centers)
    counts = [0] * k
    sum_x = [0.0] * k
    sum_y = [0.0] * k
    for (x, y), j in zip(points, assignment):
        counts[j] += 1
        sum_x[j] += x
        sum_y[j] += y
    if dims == 1:
        columns: list[list[float]] = [[] for _ in range(k)]
        for (x, _), j in zip(points, assignment):
            columns[j].append(x)
        sum_x = [_pairwise_sum(column) for column in columns]
    return [
        (sx / n, sy / n) if n else center
        for sx, sy, n, center in zip(sum_x, sum_y, counts, centers)
    ]


def _pairwise_sum(values: list[float]) -> float:
    """Sum of `values` in the order of numpy's pairwise float summation:
    in order below 8 values, in 8 interleaved partial sums up to 128,
    and above that the two halves (split at a multiple of 8) apart."""
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        r = values[:8]
        whole = n - n % 8
        for i in range(8, whole, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[whole:]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


class UtilityKind(str, Enum):
    R1 = "r1"  # throughput per VM, -1 past the latency threshold
    R2 = "r2"  # inverse VM count, -1 past the latency threshold


_R1 = UtilityKind.R1  # read once: each member read is a descriptor call


@dataclass(frozen=True)
class UtilityConfig:
    kind: UtilityKind = UtilityKind.R1
    latency_threshold_ms: float = 60.0

    def __post_init__(self) -> None:
        if not 0 < self.latency_threshold_ms < math.inf:
            raise ConfigurationError(
                f"latency threshold must be positive and finite, got {self.latency_threshold_ms!r}"
            )


def utility_eval(
    config: UtilityConfig, latency_ms: float, throughput: float, vms_num: int
) -> float:
    """Utility of observing (latency, throughput) on a vms_num cluster.

    Both kinds penalize a threshold violation with -1 and divide by the VM
    count so that over-provisioning lowers the score.
    """
    if latency_ms > config.latency_threshold_ms:
        return -1.0
    if config.kind is _R1:
        return throughput / vms_num
    return 1.0 / vms_num


@dataclass(frozen=True, slots=True)
class StateReward:
    """A size's scored behavior clusters as model states: the M2 breakdown
    and its MB and EB summaries, each a one-state behavior of weight 1."""

    per_cluster: tuple[MdpState, ...]
    mb: MdpState
    eb: MdpState


def state_reward(
    clusters: Sequence[ClusterSummary],
    utility: UtilityConfig,
    vms_num: int,
) -> StateReward:
    """The model states of size `vms_num` that its behavior clusters make.

    `per_cluster` holds one state per cluster, in cluster order, with the
    center's utility as reward and the cluster's weight.  MB is the
    heaviest cluster's reward and center (weight ties resolved toward the
    lower-latency center); EB averages every center's utility and the
    centers themselves by cluster weight.
    """
    if not clusters:
        raise NoDataError("state_reward needs at least one cluster")
    mass = sum(c.weight for c in clusters)
    if not math.isclose(mass, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise ConfigurationError(f"cluster weights sum to {mass}, expected 1")

    per_cluster = tuple(
        MdpState(
            vms_num,
            index,
            c.weight,
            center=(c.latency_ms, c.throughput),
            reward=utility_eval(utility, c.latency_ms, c.throughput, vms_num),
        )
        for index, c in enumerate(clusters)
    )
    mode = min(per_cluster, key=lambda s: (-s.weight, s.center[0]))
    mb = MdpState(vms_num, center=mode.center, reward=mode.reward)
    eb = MdpState(
        vms_num,
        center=(
            sum(s.weight * s.center[0] for s in per_cluster),
            sum(s.weight * s.center[1] for s in per_cluster),
        ),
        reward=sum(s.reward * s.weight for s in per_cluster),
    )
    return StateReward(per_cluster, mb, eb)
