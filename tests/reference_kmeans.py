"""The array form of `rewards.cluster_behavior`, kept as a test-side
reference: k-means written with numpy calls on one cell's arrays.  The
package's batched kernel (`rewards.cluster_cells`), run on any row of
cells, must return each cell's clusters as this returns them, float for
float."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from elastimdp.errors import NoDataError
from elastimdp.logs import MeasurementRecord
from elastimdp.rewards import ClusteringConfig, ClusterSummary


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
