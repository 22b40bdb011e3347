"""Per-size scoring of behavior clusters into model states, kept as a
test-side reference: one size's clusters scored one cluster at a time in
Python, with the EB sums added cluster by cluster.  The package scores a
whole row from its k-means arrays (`rewards.score_row`); each size must
get the states this returns, float for float.

Every sum here adds left to right from 0.0, as `score_row` does, and not
through `sum`, which compensates its rounding from Python 3.12."""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from elastimdp.errors import ConfigurationError, NoDataError
from elastimdp.model import MdpState
from elastimdp.rewards import ClusterSummary, UtilityConfig, utility_eval


class SizeStates(NamedTuple):
    """One size's scored clusters as model states: a state per cluster and
    the MB and EB summaries, each a one-state behavior of weight 1."""

    per_cluster: tuple[MdpState, ...]
    mb: MdpState
    eb: MdpState


def row_states(row, size: int) -> SizeStates:
    """Size `size`'s states in a package `policies.RewardRow`."""
    per_cluster = tuple(state for state in row.per_cluster if state.vms_num == size)
    return SizeStates(per_cluster, row.mb[size], row.eb[size])


def state_reward(
    clusters: Sequence[ClusterSummary],
    utility: UtilityConfig,
    vms_num: int,
) -> SizeStates:
    """The model states of size `vms_num` that its behavior clusters make.

    `per_cluster` holds one state per cluster, in cluster order, with the
    center's utility as reward and the cluster's weight.  MB is the
    heaviest cluster's reward and center (weight ties resolved toward the
    lower-latency center); EB averages every center's utility and the
    centers themselves by cluster weight.
    """
    if not clusters:
        raise NoDataError("state_reward needs at least one cluster")
    mass = _left_to_right(c.weight for c in clusters)
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
            _left_to_right(s.weight * s.center[0] for s in per_cluster),
            _left_to_right(s.weight * s.center[1] for s in per_cluster),
        ),
        reward=_left_to_right(s.reward * s.weight for s in per_cluster),
    )
    return SizeStates(per_cluster, mb, eb)


def _left_to_right(values: Iterable[float]) -> float:
    total = 0.0
    for value in values:
        total += value
    return total
