"""The per-call form of `model.BehaviorMatcher`, kept as a test-side
reference: each call min-max normalizes every center of the size again.
The package normalizes a size's centers once per model and only the
observation per call; it must pick the behavior this picks."""

from __future__ import annotations

import math
from typing import Sequence

from elastimdp.model import MdpState


def match_behavior(
    behaviors: Sequence[MdpState],
    observation: tuple[float, float] | None,
) -> int:
    """Pick the behavior index the current observation is closest to,
    among one size's states (read for their weights and centers).

    Distance is Euclidean after min-max normalizing each dimension over
    this size's cluster centers; falls back to the heaviest cluster when no
    observation or no centers are available.
    """
    if len(behaviors) == 1:
        return 0
    heaviest = max(range(len(behaviors)), key=lambda i: (behaviors[i].weight, -i))
    if observation is None:
        return heaviest
    centers = [b.center for b in behaviors]
    if any(c is None for c in centers):
        return heaviest
    lo = [min(c[d] for c in centers) for d in (0, 1)]  # type: ignore[index]
    hi = [max(c[d] for c in centers) for d in (0, 1)]  # type: ignore[index]

    def norm(point: tuple[float, float]) -> tuple[float, float]:
        return tuple(
            (point[d] - lo[d]) / (hi[d] - lo[d]) if hi[d] > lo[d] else 0.0
            for d in (0, 1)
        )  # type: ignore[return-value]

    obs = norm(observation)
    best, best_d2 = 0, math.inf
    for i, center in enumerate(centers):
        c = norm(center)  # type: ignore[arg-type]
        d2 = (c[0] - obs[0]) ** 2 + (c[1] - obs[1]) ** 2
        if d2 < best_d2 - 1e-12:
            best, best_d2 = i, d2
    return best
