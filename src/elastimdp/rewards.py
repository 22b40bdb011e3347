"""State rewards from clustered log behavior and utility functions.

Measurements selected for one (size, load bucket) are clustered with
k-means over min-max-normalized (latency, throughput) points.  A decision
needs every size's cell at one load bucket, so `rank_cells` clusters such
a row of cells in one numpy pass over stacked arrays; a single cell of
about a dozen records is too small for numpy calls to pay off, but a row
of them is not.  The pass keeps numpy's summation order for each `dims`
(see `_cluster_stack`), so it yields the clusters of the array form run
on each cell alone, bit for bit.

Scoring the clusters gives each center's utility and weight.  A scored
cluster is a model state (`MdpState`): the multi-behavior models take one
per cluster, and the single-behavior models one of two summaries of the
same clusters, the biggest cluster's center (mode behaviour, MB) or the
population-weighted average of the centers and their utilities (expected
behaviour, EB).  `score_row` scores a row from the k-means arrays in one
pass, into the states `build_model` takes; `cluster_cells` is a view of
the same arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, repeat
from operator import attrgetter
from typing import NamedTuple, Sequence

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
        if not 0 < self.load_bucket_width < math.inf:
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
    mode cluster.  This is `cluster_cells` on one cell.
    """
    return cluster_cells([records], config)[0]


def cluster_cells(
    cells: Sequence[Sequence[MeasurementRecord]], config: ClusteringConfig
) -> list[list[ClusterSummary]]:
    """Each cell's `cluster_behavior`: the nonempty clusters of its
    `rank_cells` row."""
    return [
        [ClusterSummary((lat, thr)[: config.dims], w) for lat, thr, w in zip(*row) if w]
        for row in zip(*(column.tolist() for column in rank_cells(cells, config)))
    ]


class RankedClusters(NamedTuple):
    """Each cell's clusters as one row of (cells, k) arrays, by descending
    weight, then ascending center, so column 0 is the mode cluster.  A
    row's empty clusters come last, at weight 0.0 and an inf center."""

    latency: np.ndarray
    throughput: np.ndarray  # 0.0 with dims=1
    weight: np.ndarray  # members over the cell's records


def rank_cells(
    cells: Sequence[Sequence[MeasurementRecord]], config: ClusteringConfig
) -> RankedClusters:
    """The `RankedClusters` of `cells`, from one numpy pass per record count.

    Cells of equal length are stacked and clustered together
    (`_cluster_stack`), so the numpy calls' fixed cost is paid once per
    stack, not once per cell, and a store of uneven cells takes the same
    path, a stack per length.
    """
    stacks: dict[int, list[int]] = {}
    for index, records in enumerate(cells):
        if not records:
            raise NoDataError("cannot cluster an empty record set")
        stacks.setdefault(len(records), []).append(index)
    ranked = [_cluster_stack([cells[i] for i in indices], config) for indices in stacks.values()]
    order = np.argsort(list(chain.from_iterable(stacks.values())))
    return RankedClusters(*(np.concatenate(column)[order] for column in zip(*ranked)))


def _cluster_stack(
    cells: list[Sequence[MeasurementRecord]], config: ClusteringConfig
) -> RankedClusters:
    """k-means of cells of n records each, on (cells, n) arrays, ranked
    in `config.k` columns.

    It yields the floats of the array form run on each cell alone (an
    axis-0 `mean` of each cluster's members; see `tests/reference_kmeans.py`):

    * ties go to the lowest index, and the seeds are picked from each
      cell's points in `np.unique` order;
    * a cell of fewer distinct points than k gets that many centers, as
      the array form does; the seeding repeats a point past them, so they
      are moved to +inf, where they win no point;
    * a cell that converged stays converged: its next means are its last;
    * a cluster's sums run in record order for dims=2 (`np.bincount` adds
      its weights in input order), and in numpy's pairwise order over the
      (m, 1) latency column of its m members for dims=1 (`_member_sums`).
    """
    dims = config.dims
    count, n = len(cells), len(cells[0])
    # Latency-only points get a constant 0.0 throughput: it adds exactly
    # 0.0 to every distance and stays 0.0 in every mean.
    x, lo_x, span_x = _normalized(_column(cells, _LATENCY))
    y, lo_y, span_y = _normalized(
        _column(cells, _THROUGHPUT) if dims == 2 else np.zeros((count, n))
    )

    # Each cell's points in np.unique order, a repeated point after its first.
    rows = np.arange(count)
    order = np.lexsort((y, x))
    sx, sy = x[rows[:, None], order], y[rows[:, None], order]
    first = np.ones((count, n), dtype=bool)
    first[:, 1:] = (sx[:, 1:] != sx[:, :-1]) | (sy[:, 1:] != sy[:, :-1])
    distinct = first.sum(axis=1)
    k = min(config.k, int(distinct.max()))  # no cell has a center past this
    seeds = np.array([_first_seed(config.seed, d) for d in distinct.tolist()])
    pick = ((first.cumsum(axis=1) - 1) == seeds[:, None]).argmax(axis=1)

    cx, cy = np.empty((count, k)), np.empty((count, k))
    cx[:, 0], cy[:, 0] = sx[rows, pick], sy[rows, pick]
    nearest = np.full((count, n), np.inf)
    for i in range(1, k):
        dx, dy = sx - cx[:, i - 1, None], sy - cy[:, i - 1, None]
        np.minimum(nearest, dx * dx + dy * dy, out=nearest)
        pick = nearest.argmax(axis=1)  # a repeated point never precedes its first
        cx[:, i], cy[:, i] = sx[rows, pick], sy[rows, pick]
    unused = np.arange(k) >= distinct[:, None]
    cx[unused] = cy[unused] = np.inf

    # Lloyd's rounds on one (record, center) row per record of the stack.
    cell = rows.repeat(n)
    x_rows, y_rows = x.reshape(-1, 1).repeat(k, axis=1), y.reshape(-1, 1).repeat(k, axis=1)
    offsets = k * cell
    assignment = None
    for _ in range(config.max_iterations):
        dx, dy = x_rows - cx.take(cell, axis=0), y_rows - cy.take(cell, axis=0)
        dx *= dx
        dy *= dy
        dx += dy
        new_assignment = dx.argmin(axis=1)
        if assignment is not None and (new_assignment == assignment).all():
            break
        assignment = new_assignment
        cluster = assignment + offsets
        members = np.bincount(cluster, minlength=count * k).reshape(count, k)
        filled = members > 0
        if dims == 2:
            sum_x = np.bincount(cluster, x.ravel(), count * k).reshape(count, k)
            sum_y = np.bincount(cluster, y.ravel(), count * k).reshape(count, k)
            np.divide(sum_y, members, out=cy, where=filled)
        else:
            sum_x = _member_sums(x.ravel(), cluster, members)
        np.divide(sum_x, members, out=cx, where=filled)

    # Output order: descending weight, then ascending center (inf centers of
    # empty clusters last).
    center_x, center_y = cx * span_x + lo_x, cy * span_y + lo_y
    order = np.lexsort((center_y, center_x, -members))
    ranked = RankedClusters(*(np.zeros((count, config.k)) for _ in RankedClusters._fields))
    for column, values in zip(ranked, (center_x, center_y, members / n)):
        column[:, :k] = np.take_along_axis(values, order, 1)
    empty = ranked.weight == 0.0
    ranked.latency[empty] = ranked.throughput[empty] = np.inf
    return ranked


_LATENCY = attrgetter("latency_ms")
_THROUGHPUT = attrgetter("throughput")


def _column(cells: list[Sequence[MeasurementRecord]], field: attrgetter) -> np.ndarray:
    """One field of every record, a row per cell."""
    values = map(field, chain.from_iterable(cells))
    return np.fromiter(values, float, len(cells) * len(cells[0])).reshape(len(cells), -1)


def _normalized(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row min-max-normalized (a constant row to 0.0), with the row's
    minimum and span as (rows, 1) columns."""
    lo = values.min(axis=1, keepdims=True)
    span = values.max(axis=1, keepdims=True) - lo
    span[span == 0.0] = 1.0
    return (values - lo) / span, lo, span


@lru_cache(maxsize=1024)
def _first_seed(seed: int, n: int) -> int:
    """Index of the first k-means seed among n distinct points."""
    return int(np.random.default_rng(seed).integers(n))


def _member_sums(x: np.ndarray, cluster: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Each cluster's sum of its members' `x`, in numpy's pairwise order
    over the members in record order: the members of all clusters of m
    members are the rows of one (clusters, m) array, summed along its
    contiguous axis."""
    values = x[np.argsort(cluster, kind="stable")]
    sizes = members.ravel()
    starts = sizes.cumsum() - sizes
    sums = np.zeros(sizes.shape)
    for m in np.unique(sizes[sizes > 0]).tolist():
        clusters = np.flatnonzero(sizes == m)
        sums[clusters] = values[starts[clusters, None] + np.arange(m)].sum(axis=1)
    return sums.reshape(members.shape)


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


def score_row(
    ranked: RankedClusters, cells: Sequence[int], sizes: Sequence[int], utility: UtilityConfig
) -> tuple[tuple[MdpState, ...], dict[int, MdpState], dict[int, MdpState]]:
    """Each size's model states in a row: `sizes[i]` scores the clusters
    of `ranked` row `cells[i]`, with `utility_eval`'s rewards.  Returns
    every size's cluster states in key order (`sizes` ascends), then the
    size -> MB and size -> EB state mappings.  MB is the center and reward
    of column 0, the mode cluster (see `RankedClusters`); EB averages the
    centers and rewards by cluster weight.  The EB sums add one cluster
    column at a time from 0.0, as `sum` does up to Python 3.11 (`np.sum`
    adds in pairwise blocks of 8), and never add an empty cluster (0.0
    weight times an inf center is nan).
    """
    latency, throughput, weight = (column[cells] for column in ranked)
    filled = np.isfinite(latency)
    size_column = np.array(sizes, dtype=float)[:, None]
    healthy = throughput / size_column if utility.kind is _R1 else 1.0 / size_column
    reward = np.where(latency > utility.latency_threshold_ms, -1.0, healthy)
    terms = np.zeros((3, *weight.shape))
    np.multiply(weight, np.stack((latency, throughput, reward)), out=terms, where=filled)
    eb_sums = np.zeros(terms.shape[:2])
    for column in range(terms.shape[2]):
        eb_sums += terms[:, :, column]
    columns = (latency, throughput, weight, reward, *eb_sums)
    rows = zip(sizes, filled.sum(axis=1).tolist(), *(column.tolist() for column in columns))
    per_cluster, mb, eb = [], {}, {}
    for size, count, lat, thr, w, r, eb_lat, eb_thr, eb_reward in rows:
        per_cluster.extend(map(MdpState, repeat(size), range(count), w, zip(lat, thr), r))
        mb[size] = MdpState(size, center=(lat[0], thr[0]), reward=r[0])
        eb[size] = MdpState(size, center=(eb_lat, eb_thr), reward=eb_reward)
    return tuple(per_cluster), mb, eb
