"""A size's moves as the package once listed them, kept as a test-side
reference: `size_moves` gives each sized move's signed delta and type
share, `implied_transitions` builds the transition map from it, and
`actions_from` scans that map for one state's actions and sorts them by
(kind, delta), adds first and no_op last.  `ModelConfig.moves`,
`MdpModel.transitions` and `MdpModel.actions_from` must give what these
give."""

from __future__ import annotations

from typing import Mapping, Sequence

from elastimdp.model import NO_OP, Action, ActionKind, MdpState, ModelConfig, StateKey


def size_moves(config: ModelConfig, size: int) -> list[tuple[int, float]]:
    """(signed delta, type share) of each sized move enabled at `size`,
    adds then rems, each by delta."""
    adds, rems = config.deltas(size, ActionKind.ADD), config.deltas(size, ActionKind.REM)
    return [(d, 1.0 / len(adds)) for d in adds] + [(-d, 1.0 / len(rems)) for d in rems]


def implied_transitions(
    config: ModelConfig, by_size: Mapping[int, Sequence[MdpState]]
) -> dict[tuple[StateKey, Action], tuple[tuple[StateKey, float], ...]]:
    """Each state's rows: a move's row is its type share times each target
    behavior's weight; no_op loops back with probability 1."""
    transitions = {}
    for size, sources in by_size.items():
        for source in sources:
            for delta, share in size_moves(config, size):
                action = Action(ActionKind.ADD if delta > 0 else ActionKind.REM, abs(delta))
                targets = by_size.get(size + delta, ())
                transitions[(source.key, action)] = tuple((t.key, share * t.weight) for t in targets)
            transitions[(source.key, NO_OP)] = ((source.key, 1.0),)
    return transitions


def _sort_key(action: Action) -> tuple[int, int]:
    kind = action.kind
    return (0 if kind is ActionKind.ADD else 1 if kind is ActionKind.REM else 2, action.delta)


def actions_from(
    transitions: Mapping[tuple[StateKey, Action], object],
    key: StateKey,
    lock: ActionKind | None = None,
) -> list[Action]:
    """The actions of `key` in `transitions`; a lock keeps its own kind and
    no_op."""
    out = []
    for skey, action in transitions:
        if skey != key:
            continue
        if lock is not None and action.kind not in (lock, ActionKind.NO_OP):
            continue
        out.append(action)
    out.sort(key=_sort_key)
    return out
