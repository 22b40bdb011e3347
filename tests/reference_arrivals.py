"""The quadratic form of `solver._arrival_values`, kept as a test-side
reference: each size gathers the arrival of every size its direction's
deltas reach and takes their best, and each branch re-reads every
state's share and payoff.  The package's linear sweep must return what
this returns, float for float.  Floats add left to right, as they do
there, on every Python (`sum` compensates its rounding from 3.12)."""

from __future__ import annotations

from typing import Callable, Collection

from elastimdp.model import ActionKind, MdpModel, MdpState, StateKey
from elastimdp.solver import ReachabilityQuery, _first_moves


def _arrival_values(
    model: MdpModel,
    payoff: Callable[[MdpState], float],
    final: Collection[StateKey],
    best_of: Callable,
) -> list[dict[int, float]]:
    """Backward induction over sizes along both monotone branches: the
    expected payoff of arriving at each size on an add-locked and on a
    rem-locked path.

    A state in `final` ends the episode with its payoff; any other state
    takes the `best_of` its payoff (stopping) and the arrival values of
    the sizes its direction's deltas reach.
    """
    cfg = model.config
    branches = []
    directions = ((ActionKind.ADD, 1, reversed(cfg.sizes)), (ActionKind.REM, -1, cfg.sizes))
    for kind, sign, sizes in directions:
        arrive: dict[int, float] = {}
        for size in sizes:
            # The best onward arrival depends on the size alone.
            onward = [arrive[size + sign * d] for d in cfg.deltas(size, kind)]
            best_onward = best_of(onward) if onward else None
            states = model.by_size[size]
            mass = 0.0
            for state in states:
                mass += state.weight
            total = 0.0
            for state in states:
                value = payoff(state)
                if best_onward is not None and state.key not in final:
                    value = best_of(value, best_onward)
                total += state.weight / mass * value
            arrive[size] = total
        branches.append(arrive)
    return branches


def reachability_probability(model: MdpModel, query: ReachabilityQuery) -> float:
    """`solver.reachability_probability` on the quadratic sweep."""
    best_of = max if query.mode == "max" else min
    sat = {key for key, state in model.states.items() if query.predicate(state)}
    if model.initial.key in sat:
        return 1.0
    arrivals = _arrival_values(model, lambda state: float(state.key in sat), sat, best_of)
    moves = _first_moves(model, model.initial.vms_num, arrivals)
    # no_op terminates without reaching the target set
    return best_of([0.0] + [p for p, _ in moves])
