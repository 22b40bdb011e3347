"""Exact solving of elasticity decision models.

The decision episode semantics: starting from the initial state, a
strategy repeatedly picks one enabled sized action.  Once the first add
(resp. rem) is taken, only further adds (removals) or no_op remain
enabled, so every path walks monotonically through cluster sizes and the
reachable graph is acyclic.  Choosing no_op ends the episode, and the
*only* reward collected is the current state's reward at that moment.
A sized action's outcome is the target size's behavior distribution,
whatever the source behavior, so with `L(s) = sum_b w_b * V(s, b)`

    V(s, b) = max( r(s, b),  max over enabled deltas d of  L(s +- d) )

`_arrival_values` computes `L` by backward induction over sizes along each
monotone branch, reading only the config, the behavior weights
(normalized per size) and a payoff per state.  `best_move` then values a
state's first moves (`ModelConfig.moves`) by their targets' arrivals, and
`decide` clips its pick to the per-step limits.  The same sweep answers
Pmax/Pmin queries, with payoff 1 on states satisfying the predicate
(where the episode ends) and 0 elsewhere.

`brute_force_oracle` (the counterpart of `best_move` at every state) and
`brute_force_reachability` re-derive the same quantities from the
explicit transition map by expanding the full decision tree without
memoization, so tests can check the sweep against an independently
structured computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Collection, Mapping

from .errors import SolverError
from .model import (
    Action,
    ActionKind,
    MdpModel,
    MdpState,
    NO_OP,
    StateKey,
)

# Two candidate actions whose values differ by less than this (relative to
# the best value) count as tied and fall through to the tie-break order.
TIE_TOL = 1e-9

_ORACLE_STATE_LIMIT = 100


def tie_break_key(action: Action) -> tuple[int, int, int]:
    """Total order over equally-valued actions: no_op first, then the
    LARGEST size change, then rem before add.

    Staying put is free, so no_op wins any tie it is part of.  Among tied
    moves, the largest step is preferred because the value of a tied
    smaller step comes from continuing along the same path; taking the
    whole step now moves directly toward the profitable state instead of
    spreading the move over several decision rounds.  Removals win the
    final tie since fewer VMs cost less.
    """
    return (
        0 if action.kind is ActionKind.NO_OP else 1,
        -abs(action.delta),
        0 if action.kind is ActionKind.REM else 1,
    )


def pick(candidates: list[tuple[float, Action]]) -> tuple[float, Action]:
    """The best value among `(value, action)` candidates, and the action
    `tie_break_key` ranks first among those within `TIE_TOL` of it."""
    best = max(v for v, _ in candidates)
    tol = TIE_TOL * max(1.0, abs(best))
    tied = [a for v, a in candidates if best - v <= tol]
    return best, min(tied, key=tie_break_key)


@dataclass(frozen=True)
class PolicyDecision:
    """The action a policy settled on for the current step; it moves the
    cluster by `action.signed_delta` VMs."""

    action: Action
    expected_utility: float | None
    bounded: bool = False
    notes: tuple[str, ...] = ()

    @property
    def is_no_op(self) -> bool:
        return self.action.kind is ActionKind.NO_OP


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
            mass = sum(state.weight for state in states)
            total = 0.0
            for state in states:
                value = payoff(state)
                if best_onward is not None and state.key not in final:
                    value = best_of(value, best_onward)
                total += state.weight / mass * value
            arrive[size] = total
        branches.append(arrive)
    return branches


def _first_moves(
    model: MdpModel, size: int, arrivals: list[dict[int, float]]
) -> list[tuple[float, Action]]:
    """Each sized action enabled at `size`, valued by its target's arrival
    on the action's branch."""
    add, rem = arrivals
    return [
        ((add if action.signed_delta > 0 else rem)[size + action.signed_delta], action)
        for action in model.config.moves(size)
    ]


def reward_arrivals(model: MdpModel) -> list[dict[int, float]]:
    """Maximum expected terminal reward of arriving at each size, on the
    add-locked and on the rem-locked branch.  They do not depend on the
    initial state, so one model's arrivals serve a decision at any state."""
    return _arrival_values(model, attrgetter("reward"), (), max)


def best_move(
    model: MdpModel, state: MdpState, arrivals: list[dict[int, float]]
) -> tuple[float, Action]:
    """Maximum expected terminal reward from `state`, as if the decision
    episode started there, and an optimal first action (ties resolved by
    `tie_break_key`), given the model's `reward_arrivals`.  On all-targets
    models the action may point beyond the per-step limits."""
    return pick([(state.reward, NO_OP), *_first_moves(model, state.vms_num, arrivals)])


def clip_action(action: Action, config) -> tuple[Action, bool]:
    """Clip an all-targets action to the per-step add/remove limits."""
    limit = config.add_limit if action.kind is ActionKind.ADD else config.rem_limit
    if action.kind is ActionKind.NO_OP or action.delta <= limit:
        return action, False
    return Action(action.kind, limit), True


def decide(
    model: MdpModel,
    state: MdpState | None = None,
    arrivals: list[dict[int, float]] | None = None,
) -> PolicyDecision:
    """The `best_move` from `state` (by default the initial state), given
    the model's `reward_arrivals` (computed when not given), clipped.

    On all-targets models the optimal action may point beyond the per-step
    limits; it is then clipped to the limit and flagged `bounded`.  The
    reported expected utility is the model optimum that motivated the
    action, not the value of the clipped step.  A clipped target stays in
    range, since no delta exceeds the room to the range edge.
    """
    state = model.initial if state is None else state
    if arrivals is None:
        arrivals = reward_arrivals(model)
    value, first = best_move(model, state, arrivals)
    action, bounded = clip_action(first, model.config)
    return PolicyDecision(action=action, expected_utility=value, bounded=bounded)


@dataclass(frozen=True)
class ReachabilityQuery:
    """An eventually-reach question over the model's strategies."""

    mode: str  # "max" or "min"
    predicate: Callable[[MdpState], bool]
    text: str = ""

    def __post_init__(self) -> None:
        if self.mode not in ("max", "min"):
            raise ValueError(f"mode must be 'max' or 'min', got {self.mode!r}")


def reachability_probability(model: MdpModel, query: ReachabilityQuery) -> float:
    """Maximum (or minimum) probability over strategies of eventually
    visiting a state satisfying the query predicate."""
    best_of = max if query.mode == "max" else min
    sat = {key for key, state in model.states.items() if query.predicate(state)}
    if model.initial.key in sat:
        return 1.0
    arrivals = _arrival_values(model, lambda state: float(state.key in sat), sat, best_of)
    moves = _first_moves(model, model.initial.vms_num, arrivals)
    # no_op terminates without reaching the target set
    return best_of([0.0] + [p for p, _ in moves])


def _check_oracle_scale(model: MdpModel) -> None:
    if len(model.states) > _ORACLE_STATE_LIMIT:
        raise SolverError(
            f"oracle is test-scale only ({len(model.states)} states >"
            f" {_ORACLE_STATE_LIMIT})"
        )


def _tree_value(model: MdpModel, key: StateKey, lock: ActionKind | None) -> float:
    value = model.states[key].reward
    for action in model.actions_from(key, lock=lock):
        if action.kind is ActionKind.NO_OP:
            continue
        expected = sum(
            p * _tree_value(model, target, action.kind)
            for target, p in model.outcome_distribution(key, action)
        )
        value = max(value, expected)
    return value


def brute_force_oracle(model: MdpModel) -> dict[StateKey, tuple[float, Action]]:
    """Independent re-computation of `best_move` at every state.

    Expands every strategy's decision tree top-down without memoization,
    so shared subproblems are deliberately re-evaluated; usable only on
    test-scale models (<= 100 states).
    """
    _check_oracle_scale(model)
    out = {}
    for key in model.states:
        candidates = [(model.states[key].reward, NO_OP)]
        for action in model.actions_from(key):
            if action.kind is ActionKind.NO_OP:
                continue
            expected = sum(
                p * _tree_value(model, target, action.kind)
                for target, p in model.outcome_distribution(key, action)
            )
            candidates.append((expected, action))
        out[key] = pick(candidates)
    return out


def _tree_reach(
    model: MdpModel,
    key: StateKey,
    lock: ActionKind | None,
    sat: Mapping[StateKey, bool],
    best_of: Callable,
) -> float:
    if sat[key]:
        return 1.0
    candidates = [0.0]
    for action in model.actions_from(key, lock=lock):
        if action.kind is ActionKind.NO_OP:
            continue
        candidates.append(
            sum(
                p * _tree_reach(model, target, action.kind, sat, best_of)
                for target, p in model.outcome_distribution(key, action)
            )
        )
    return best_of(candidates)


def brute_force_reachability(model: MdpModel, query: ReachabilityQuery) -> float:
    """Path-enumeration counterpart of `reachability_probability`."""
    _check_oracle_scale(model)
    best_of = max if query.mode == "max" else min
    sat = {key: bool(query.predicate(state)) for key, state in model.states.items()}
    return _tree_reach(model, model.initial.key, None, sat, best_of)
