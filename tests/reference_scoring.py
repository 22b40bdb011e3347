"""The per-size form of `rewards.state_reward`, kept as a test-side
reference: one size's clusters scored one cluster at a time in Python,
with the EB sums taken by `sum`.  The package scores a whole row from its
k-means arrays (`rewards.score_row`); each size must get the states this
returns, float for float.

`sum` adds floats left to right up to Python 3.11, as `score_row` does;
from 3.12 it compensates its rounding, so there this reference and the
floats pinned under 3.11 can differ in the last bit."""

from __future__ import annotations

import math
from typing import Sequence

from elastimdp.errors import ConfigurationError, NoDataError
from elastimdp.model import MdpState
from elastimdp.rewards import ClusterSummary, StateReward, UtilityConfig, utility_eval


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
