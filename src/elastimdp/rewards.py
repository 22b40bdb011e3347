"""State rewards from clustered log behavior and utility functions.

Measurements selected for one (size, load bucket) are clustered with
k-means over min-max-normalized (latency, throughput) points.  Scoring the
clusters gives each center's utility and weight, which feed the
multi-behavior model builder directly, and two one-state summaries of the
same clusters: the biggest cluster's center (mode behaviour, MB) and the
population-weighted average of the centers and their utilities (expected
behaviour, EB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, NoDataError
from .logs import MeasurementRecord
from .model import BehaviorReward


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
    """
    if not records:
        raise NoDataError("cannot cluster an empty record set")
    points = np.array(
        [(r.latency_ms, r.throughput)[: config.dims] for r in records], dtype=float
    )
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    span[span == 0.0] = 1.0
    normed = (points - lo) / span

    distinct = np.unique(normed, axis=0)
    k = min(config.k, len(distinct))
    rng = np.random.default_rng(config.seed)

    centers = np.empty((k, normed.shape[1]))
    centers[0] = distinct[rng.integers(len(distinct))]
    for i in range(1, k):
        dists = np.min(
            ((distinct[:, None, :] - centers[None, :i, :]) ** 2).sum(axis=2), axis=1
        )
        centers[i] = distinct[int(np.argmax(dists))]

    assignment = None
    for _ in range(config.max_iterations):
        d2 = ((normed[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assignment = np.argmin(d2, axis=1)
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for j in range(k):
            members = normed[assignment == j]
            if len(members):
                centers[j] = members.mean(axis=0)

    summaries = []
    total = len(records)
    for j in range(k):
        count = int(np.sum(assignment == j))
        if count == 0:
            continue
        center = centers[j] * span + lo
        summaries.append(ClusterSummary(tuple(float(c) for c in center), count / total))
    summaries.sort(key=lambda s: (-s.weight, s.center))
    return summaries


class UtilityKind(str, Enum):
    R1 = "r1"  # throughput per VM, -1 past the latency threshold
    R2 = "r2"  # inverse VM count, -1 past the latency threshold


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
    if config.kind is UtilityKind.R1:
        return throughput / vms_num
    return 1.0 / vms_num


@dataclass(frozen=True, slots=True)
class StateReward:
    """A size's scored behavior clusters: the M2 breakdown and its MB and
    EB summaries, each a one-state behavior of weight 1."""

    per_cluster: tuple[BehaviorReward, ...]
    mb: BehaviorReward
    eb: BehaviorReward


def state_reward(
    clusters: Sequence[ClusterSummary],
    utility: UtilityConfig,
    vms_num: int,
) -> StateReward:
    """Rewards of a size from its behavior clusters.

    The per-cluster list carries each center's utility and weight for the
    multi-behavior model builder.  MB is the heaviest cluster's reward and
    center (weight ties resolved toward the lower-latency center); EB
    averages every center's utility and the centers themselves by cluster
    weight.
    """
    if not clusters:
        raise NoDataError("state_reward needs at least one cluster")
    mass = sum(c.weight for c in clusters)
    if not math.isclose(mass, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise ConfigurationError(f"cluster weights sum to {mass}, expected 1")

    per_cluster = tuple(
        BehaviorReward(
            reward=utility_eval(utility, c.latency_ms, c.throughput, vms_num),
            weight=c.weight,
            center=(c.latency_ms, c.throughput),
        )
        for c in clusters
    )
    mode = min(per_cluster, key=lambda b: (-b.weight, b.center[0]))
    expected = BehaviorReward(
        reward=sum(b.reward * b.weight for b in per_cluster),
        center=(
            sum(b.weight * b.center[0] for b in per_cluster),
            sum(b.weight * b.center[1] for b in per_cluster),
        ),
    )
    return StateReward(per_cluster, BehaviorReward(mode.reward, 1.0, mode.center), expected)
