"""Decision-model construction for horizontal VM elasticity.

A model is a small Markov decision process whose states describe cluster
sizes (optionally split into behavior clusters), whose actions add or
remove VMs or do nothing, and whose states each carry a reward, a utility
function evaluated on logged behavior.  A state (`MdpState`) is one scored
behavior of one size, as `rewards.score_row` makes it, and `build_model`
takes the states of every size in the range.  Three variants are
supported:

* M1 -- one state per cluster size, actions bounded by the per-step
  add/remove limits.
* M2 -- several states per size, one per behavior cluster, weighted by
  cluster population; action outcomes distribute over the target size's
  behavior states.
* M3 -- transitions reach *every* larger (smaller) size regardless of the
  per-step limits; the chosen action is clipped to the limits when it is
  enacted.  With k=1 this is the classic "all targets" model; with k>1 it
  combines the multi-behavior structure with all-target transitions.

Transition probabilities are given per sized action (``add_2``, ``rem_1``,
``no_op``) and are scaled by the equal share each sized action receives
within its action type, so that the total mass of one action *type* from a
state sums to 1.  The per-entry probability is therefore
``type_share * target_behavior_weight``, which is exactly the edge label a
reader expects next to each arrow in a drawing of the model.  Which sized
moves a size has, in what order, and each one's type share, come from one
list, `ModelConfig.moves`; an action's outcome does not depend on the source
behavior, so each row is made once per size.  The map is implied by the
config and the behavior weights, so a model does not store it:
`MdpModel.transitions` is a read-only view made on first read
(`implied_transitions`), for the brute-force oracles (the solver never reads
it).  A dump's `trans` lines are `trans_blocks`, one string per size written
from `ModelConfig.moves` and each size's (label, weight) pairs, never from
the map; each distinct nonzero probability is formatted once per call (a
loaded model may hold 0.0 or -0.0, equal floats whose reprs differ).  One
slot keeps the last section dumped under what it is made of (`_trans_key`).

`MdpModel.loads` reads one format: whitespace, blank lines and line ends
aside, a dump's lines must be the ones `dump()` writes, in order (a head
number may take any spelling that `int` or `float` reads as the same
value).  The head is matched one compiled pattern per line, and the `trans`
section is checked in place, a size block at a time; a text that does not
read as written is read again with its words joined by single spaces.  A
refusal names the first line that differs and what was expected there.

`MdpModel`'s constructor is the one check of a model's structure (see
`_violations`), and `build_model`, `MdpModel.loads` and
`dataclasses.replace` all go through it.  So the implied map of any model
is a distribution per action type whose targets lie in the size range.
`MdpModel.start` is the one pick of the state a decision starts from; a
`BehaviorMatcher` normalizes a size's behavior centers for it, once per
model and size, and `build_model` keeps the one that picked its initial
state.

Models are immutable after construction and safe to share between threads:
the first read of a model's map, of its states per size or of a size's
matcher fills it idempotently, and every reader sees the same contents.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cache, cached_property
from itertools import groupby
from operator import attrgetter
from struct import pack
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import ConfigurationError, InstantiationError

# Number of active VMs; states are labeled s<vms_num>.
ClusterSize = int

# (vms_num, behavior_index) uniquely identifies a state within a model.
StateKey = tuple[int, int]

_MASS_TOL = 1e-9


class Variant(str, Enum):
    M1 = "M1"
    M2 = "M2"
    M3 = "M3"


class ActionKind(str, Enum):
    ADD = "add"
    REM = "rem"
    NO_OP = "no_op"


# Enum members read once, at import: each `ActionKind.ADD`-style read is a
# descriptor call.
_ADD, _REM, _M3 = ActionKind.ADD, ActionKind.REM, Variant.M3


@dataclass(frozen=True)
class Action:
    """A sized elasticity action: add/remove `delta` VMs, or no_op.

    `signed_delta` (+delta, -delta or 0) and `label` (``add_2``, ``rem_1``,
    ``no_op``) are stored at construction.
    """

    kind: ActionKind
    delta: int = 0

    def __post_init__(self) -> None:
        if self.kind is ActionKind.NO_OP:
            if self.delta != 0:
                raise ValueError("no_op carries no size delta")
        elif self.delta < 1:
            raise ValueError(f"{self.kind.value} requires delta >= 1")
        signed = -self.delta if self.kind is ActionKind.REM else self.delta
        object.__setattr__(self, "signed_delta", signed)
        label = "no_op" if signed == 0 else f"{self.kind.value}_{self.delta}"
        object.__setattr__(self, "label", label)

    @staticmethod
    def from_label(label: str) -> "Action":
        if label == "no_op":
            return NO_OP
        kind, _, num = label.partition("_")
        try:
            return Action(ActionKind(kind), int(num))
        except ValueError as exc:
            raise ValueError(f"not an action label: {label!r}") from exc


NO_OP = Action(ActionKind.NO_OP, 0)


@cache
def _sized_action(signed_delta: int) -> Action:
    """The one shared sized `Action` that moves the cluster by `signed_delta`."""
    return Action(ActionKind.ADD if signed_delta > 0 else ActionKind.REM, abs(signed_delta))


@dataclass(frozen=True)
class ModelConfig:
    """Size range, per-step limits, and structural variant of a model."""

    min_vms: int
    max_vms: int
    add_limit: int = 3
    rem_limit: int = 2
    variant: Variant = Variant.M1
    k: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.min_vms <= self.max_vms:
            raise ConfigurationError(
                f"need 1 <= min_vms <= max_vms, got [{self.min_vms}, {self.max_vms}]"
            )
        if self.add_limit < 1 or self.rem_limit < 1:
            raise ConfigurationError("add_limit and rem_limit must be >= 1")
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")

    @property
    def sizes(self) -> range:
        return range(self.min_vms, self.max_vms + 1)

    def deltas(self, size: int, kind: ActionKind) -> range:
        """Sized `kind` deltas enabled at `size`: up to the per-step limit,
        or on M3 every delta up to the range edge (clipped when enacted)."""
        if kind is _ADD:
            room, limit = self.max_vms - size, self.add_limit
        else:
            room, limit = size - self.min_vms, self.rem_limit
        return range(1, (room if self.variant is _M3 else min(limit, room)) + 1)

    def moves(self, size: int) -> list[tuple[Action, float]]:
        """Each sized action enabled at `size` with its type share, the equal
        share of its type's mass: the shared `Action` of each add delta, then
        of each rem delta, by delta.  A move's row is `type_share *
        target_weight` for each behavior of the target size, whatever the
        source behavior."""
        adds, rems = self.deltas(size, _ADD), self.deltas(size, _REM)
        return [(_sized_action(d), 1.0 / len(adds)) for d in adds] + [
            (_sized_action(-d), 1.0 / len(rems)) for d in rems
        ]


@dataclass(frozen=True, slots=True, init=False)
class MdpState:
    """One model state: a cluster size in a particular expected behavior.

    `weight` is the probability of encountering this behavior at this size
    (1.0 when the size has a single state).  `center` carries the behavior
    cluster's (latency_ms, throughput) point when known, used by metric
    predicates in reachability queries.  `reward` is the utility an
    episode collects when it ends in this state.  The solver enforces a
    model checker's phase and previous-action bookkeeping (direction lock,
    termination at no_op) on paths, so a state does not hold them.

    `key`, `(vms_num, behavior_index)`, is stored at construction, so maps
    keyed by the state share one tuple; repr and equality skip it.
    """

    vms_num: int
    behavior_index: int = 0
    weight: float = 1.0
    center: tuple[float, float] | None = None
    reward: float = 0.0
    key: StateKey = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        vms_num: int,
        behavior_index: int = 0,
        weight: float = 1.0,
        center: tuple[float, float] | None = None,
        reward: float = 0.0,
    ) -> None:
        # Set through `slot_setters`: a row scores hundreds of states.
        _set_vms_num(self, vms_num)
        _set_behavior_index(self, behavior_index)
        _set_weight(self, weight)
        _set_center(self, center)
        _set_reward(self, reward)
        _set_key(self, (vms_num, behavior_index))

    @property
    def label(self) -> str:
        if self.behavior_index == 0 and self.weight == 1.0:
            return f"s{self.vms_num}"
        suffix = (
            chr(ord("a") + self.behavior_index)
            if self.behavior_index < 26
            else f"b{self.behavior_index}"
        )
        return f"s{self.vms_num}{suffix}"


def slot_setters(cls: type) -> tuple[Callable[[object, object], None], ...]:
    """The slot setter of each field of the slotted dataclass `cls`, in
    field order.  Setting a slot through its member descriptor bypasses a
    frozen class's `__setattr__`, so a hand-written `__init__` can fill a
    frozen record for less than the generated one, which calls
    `object.__setattr__` per field."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


_set_vms_num, _set_behavior_index, _set_weight, _set_center, _set_reward, _set_key = (
    slot_setters(MdpState)
)


# One transition row: ((target key, probability), ...).
TransitionRow = tuple[tuple[StateKey, float], ...]


@dataclass(frozen=True)
class MdpModel:
    """An instantiated decision model: the config and the states, each
    with its reward.  Construction raises InstantiationError on the first
    broken invariant.  Do not mutate the mapping; `transitions`, `by_size`
    and `matchers` are made from it."""

    config: ModelConfig
    states: Mapping[StateKey, MdpState]
    initial: MdpState

    def __post_init__(self) -> None:
        problem = next(_violations(self), None)
        if problem is not None:
            raise InstantiationError(problem)

    @cached_property
    def transitions(self) -> Mapping[tuple[StateKey, Action], TransitionRow]:
        """The read-only map that the config and the behavior weights
        imply, made on first read and kept."""
        return MappingProxyType(implied_transitions(self.config, self.by_size))

    @cached_property
    def by_size(self) -> dict[int, list[MdpState]]:
        """The states of each size, in behavior order, made on first read
        and kept."""
        by_size: dict[int, list[MdpState]] = {}
        for key in sorted(self.states):
            by_size.setdefault(key[0], []).append(self.states[key])
        return by_size

    @cached_property
    def matchers(self) -> dict[int, BehaviorMatcher]:
        """The `BehaviorMatcher` of each size `start` has picked at, made
        on its first pick there and kept."""
        return {}

    def __getstate__(self) -> dict:
        # Copies and pickles keep the fields only (a mappingproxy cannot be
        # pickled) and make their own cached views on first read.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def start(self, current: ClusterSize, observation: tuple[float, float] | None) -> MdpState:
        """The state a decision at size `current` starts from: the behavior
        of that size closest to `observation` (see `BehaviorMatcher`),
        picked through the size's kept matcher."""
        matcher = self.matchers.get(current)
        if matcher is None:
            matcher = self.matchers[current] = _matcher(self.config, self.by_size, current)
        return matcher.match(observation)

    def ordered_states(self) -> list[MdpState]:
        return [self.states[k] for k in sorted(self.states)]

    def actions_from(self, key: StateKey, lock: ActionKind | None = None) -> list[Action]:
        """The actions enabled at `key`, honoring a direction lock: its
        size's sized moves (`ModelConfig.moves`), then no_op.

        `lock=ADD` (resp. REM) restricts to additions (removals) plus
        no_op, the restriction that applies once a path has committed to a
        direction.
        """
        moves = self.config.moves(key[0])
        return [*(a for a, _ in moves if lock is None or a.kind is lock), NO_OP]

    def outcome_distribution(self, key: StateKey, action: Action) -> list[tuple[StateKey, float]]:
        """Normalized outcome distribution of choosing one sized action."""
        row = self.transitions[(key, action)]
        mass = sum(p for _, p in row)
        return [(t, p / mass) for t, p in row]

    def dump(self) -> str:
        """Deterministic text serialization (round-trips via `loads`); the
        trans section it renders is left in the slot under `_trans_key`."""
        cfg = self.config
        labels = {key: state.label for key, state in self.states.items()}
        lines = [
            "mdpdump 1",
            f"config min_vms={cfg.min_vms} max_vms={cfg.max_vms}"
            f" add_limit={cfg.add_limit} rem_limit={cfg.rem_limit}"
            f" variant={cfg.variant.value} k={cfg.k}",
            f"initial {self.initial.label}",
        ]
        for state in self.ordered_states():
            center = f"{state.center[0]!r},{state.center[1]!r}" if state.center else "-"
            lines.append(
                f"state {labels[state.key]} vms={state.vms_num}"
                f" behavior={state.behavior_index} weight={state.weight!r}"
                f" reward={state.reward!r} phase=decision prev=none"
                f" center={center}"
            )
        global _last_trans
        section = "\n".join(trans_blocks(self, labels))
        _last_trans = (_trans_key(self), section)
        return "\n".join([*lines, section]) + "\n"

    @staticmethod
    def loads(text: str) -> "MdpModel":
        """The model whose dump is `text`, whose lines, whitespace, blank
        lines and line ends aside, must be the ones `dump()` writes, in
        order (a head number may take any spelling that `int` or `float`
        reads as the same value); else an InstantiationError naming the
        first line that differs and what was expected there.  A text that
        `_read_dump` refuses is read again with each non-blank line's words
        joined by single spaces, unless that changes only the final line end.
        Its trans section is compared whole with the slot's if it has the
        head's key, as when `text` is the last `dump()`."""
        try:
            return _read_dump(text)
        except InstantiationError:
            lines = [(number, line.split()) for number, line in enumerate(text.splitlines(), 1)]
            kept = [(number, " ".join(words)) for number, words in lines if words]
            plain = "".join([line + "\n" for _, line in kept])
            if plain in (text, text + "\n"):
                raise
        # Each plain line's number in `text`, and the number after the last.
        numbers = [number for number, _ in kept] + [kept[-1][0] + 1 if kept else 1]
        return _read_dump(plain, numbers)


class BehaviorMatcher:
    """One size's states (in behavior order), with their centers min-max
    normalized once, for picking the behavior an observation is closest
    to (`match`).  A model keeps one per size (`MdpModel.matchers`), so a
    decision on a kept model normalizes only its observation.

    Distance is Euclidean after min-max normalizing each dimension over
    the size's cluster centers.  The pick falls back to the heaviest
    cluster (weight ties toward the lower index) when there is no
    observation or some center is unknown; a size of one state always
    picks it.
    """

    __slots__ = ("states", "heaviest", "dims", "centers")

    def __init__(self, states: Sequence[MdpState]) -> None:
        self.states = states
        self.heaviest = max(range(len(states)), key=lambda i: (states[i].weight, -i))
        self.centers: list[tuple[float, float]] | None = None
        centers = [state.center for state in states]
        if len(states) == 1 or any(c is None for c in centers):
            return
        # (lo, hi - lo) per dimension; a span of 0.0 maps the dimension to 0.0.
        dims = []
        for d in (0, 1):
            lo, hi = min(c[d] for c in centers), max(c[d] for c in centers)  # type: ignore[index]
            dims.append((lo, hi - lo if hi > lo else 0.0))
        self.dims = dims
        self.centers = [self._norm(c) for c in centers]  # type: ignore[arg-type]

    def _norm(self, point: tuple[float, float]) -> tuple[float, float]:
        (lo0, span0), (lo1, span1) = self.dims
        return (
            (point[0] - lo0) / span0 if span0 else 0.0,
            (point[1] - lo1) / span1 if span1 else 0.0,
        )

    def match(self, observation: tuple[float, float] | None) -> MdpState:
        """The state whose normalized center is nearest `observation`;
        scanning in behavior order, a later center wins only when its
        squared distance is smaller by more than 1e-12."""
        if observation is None or self.centers is None:
            return self.states[self.heaviest]
        o0, o1 = self._norm(observation)
        best, best_d2 = 0, math.inf
        for i, (c0, c1) in enumerate(self.centers):
            d2 = (c0 - o0) ** 2 + (c1 - o1) ** 2
            if d2 < best_d2 - 1e-12:
                best, best_d2 = i, d2
        return self.states[best]


def build_model(
    config: ModelConfig,
    states: Iterable[MdpState],
    current: ClusterSize,
    current_behavior: tuple[float, float] | None = None,
) -> MdpModel:
    """Instantiate a decision model for the current cluster size.

    `states` are the states of every size in the configured range, each
    size's behaviors numbered from 0 with weights that sum to 1 (the
    constructor checks them).  `current_behavior` is the latest
    (latency_ms, throughput) observation; the initial state is the one
    `MdpModel.start` picks with it, and the model keeps the matcher.
    """
    ordered = sorted(states, key=attrgetter("key"))
    by_size = {size: list(group) for size, group in groupby(ordered, attrgetter("vms_num"))}
    keyed = {state.key: state for state in ordered}
    if len(keyed) < len(ordered):
        raise InstantiationError("two states share a (size, behavior) key")
    matcher = _matcher(config, by_size, current)
    model = MdpModel(config=config, states=keyed, initial=matcher.match(current_behavior))
    model.matchers[current] = matcher
    return model


def _matcher(
    config: ModelConfig, by_size: Mapping[int, Sequence[MdpState]], current: ClusterSize
) -> BehaviorMatcher:
    """The `BehaviorMatcher` of size `current`'s states (`by_size` holds
    each size's states in behavior order)."""
    if not config.min_vms <= current <= config.max_vms:
        raise ConfigurationError(
            f"current size {current} outside [{config.min_vms}, {config.max_vms}]"
        )
    states = by_size.get(current)
    if not states:
        raise InstantiationError(f"no state of size {current}")
    return BehaviorMatcher(states)


def implied_transitions(
    config: ModelConfig, by_size: Mapping[int, Sequence[MdpState]]
) -> dict[tuple[StateKey, Action], TransitionRow]:
    """The transition map that `config` and the behavior weights of the
    states of each size (as in `MdpModel.by_size`) imply: every behavior of
    a size shares the rows of the size's moves (`ModelConfig.moves`), plus
    its no_op self-loop."""
    transitions: dict[tuple[StateKey, Action], TransitionRow] = {}
    for size, sources in by_size.items():
        rows = []
        for action, share in config.moves(size):
            targets = by_size.get(size + action.signed_delta, ())
            rows.append((action, tuple([(t.key, share * t.weight) for t in targets])))
        for source in sources:
            key = source.key
            for action, row in rows:
                transitions[(key, action)] = row
            transitions[(key, NO_OP)] = ((key, 1.0),)
    return transitions


def trans_blocks(model: MdpModel, labels: Mapping[StateKey, str]) -> Iterator[str]:
    """The `trans` lines of `model`'s dump, made lazily, one string per
    size: sources in key order, each source's moves in `ModelConfig.moves`
    order and its no_op self-loop last.  A size's lines are written from
    `ModelConfig.moves` and a per-call table of each size's (label, weight)
    pairs, with `labels` (each state's): a move's tails, " add_2 s6a 0.25",
    are made once per size and written for each of its behaviors.  The
    `repr` of each distinct nonzero probability is made once per call (0.0
    and -0.0 are equal keys whose reprs differ)."""
    config = model.config
    table = {n: [(labels[s.key], s.weight) for s in group] for n, group in model.by_size.items()}
    reprs: dict[float, str] = {}
    for size, sources in table.items():
        tails = []
        for action, share in config.moves(size):
            name = action.label
            for label, weight in table.get(size + action.signed_delta, ()):
                p = share * weight
                text = reprs.get(p)
                if text is None:
                    text = repr(p)
                    if p:
                        reprs[p] = text
                tails.append(f" {name} {label} {text}")
        # Joined in C: "\ntrans s4" before each of s4's tails, less the first "\n".
        yield "".join(
            ("\ntrans " + label).join(["", *tails, f" no_op {label} 1.0"]) for label, _ in sources
        )[1:]


@dataclass(frozen=True)
class ValidationReport:
    """Invariant violations found in a model; empty means valid."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_model(model: MdpModel) -> ValidationReport:
    """Every structural invariant `model` breaks; never raises.  The
    constructor refuses a model that breaks one, so this finds something
    only in a model whose mappings were changed after construction."""
    return ValidationReport(tuple(_violations(model)))


def _violations(model: MdpModel) -> Iterator[str]:
    """The invariants `model` breaks, found in one pass over its states:
    every size of the range has behaviors numbered 0..n-1 with n <= k (1 on
    M1), whose weights lie in [0, 1] and sum to 1; rewards and centers are
    finite; the initial state is one of the states.  The size check stops
    at the first size without a state, so the work is bounded by the
    states, not by the range."""
    cfg, states = model.config, model.states
    per_size = 1 if cfg.variant is Variant.M1 else cfg.k
    mass: dict[int, float] = {}
    for key, state in states.items():
        size, index = state.key
        if key != state.key:
            yield f"state {state.label} is stored under key {key}"
        if not cfg.min_vms <= size <= cfg.max_vms:
            yield f"state {state.label} size outside [{cfg.min_vms}, {cfg.max_vms}]"
        if not 0 <= index < per_size:
            yield (
                f"state {state.label} has behavior {index}, but variant"
                f" {cfg.variant.value} with k={cfg.k} admits {per_size} per size"
            )
        elif index and (size, index - 1) not in states:
            yield f"state {state.label} has behavior {index}, but size {size} lacks {index - 1}"
        if not 0.0 <= state.weight <= 1.0:
            yield f"behavior weight {state.weight!r} of state {state.label} outside [0, 1]"
        mass[size] = mass.get(size, 0.0) + state.weight
        if not math.isfinite(state.reward):
            yield f"non-finite reward at size {size}: {state.reward!r}"
        center = state.center
        if center is not None and not (math.isfinite(center[0]) and math.isfinite(center[1])):
            yield f"non-finite center at state {state.label}: {center!r}"
    for size in cfg.sizes:
        if size not in mass:
            yield f"no state of size {size}"
            break
        if not math.isclose(mass[size], 1.0, rel_tol=0.0, abs_tol=_MASS_TOL):
            yield f"behavior weights at size {size} sum to {mass[size]}, expected 1"
    if states.get(model.initial.key) != model.initial:
        yield f"initial state {model.initial.label} not among model states"


def _head_line(template: str) -> tuple[re.Pattern[str], str]:
    """A head line's pattern, which reads each <...> field of `template` as
    a word, and `template`, what a refusal says was expected there."""
    return re.compile(re.sub("<[^>]*>", r"(\\S+)", template) + r"(?:\n|\Z)"), template


_HEADER, _CONFIG, _INITIAL, _STATE = map(_head_line, (
    "mdpdump 1",
    "config min_vms=<int> max_vms=<int> add_limit=<int> rem_limit=<int> variant=<M1|M2|M3> k=<int>",
    "initial <label>",
    "state <label> vms=<int> behavior=<int> weight=<float> reward=<float>"
    " phase=decision prev=none center=<float,float|->",
))


def _read_dump(text: str, numbers: Sequence[int] | None = None) -> MdpModel:
    """The model of `text` if its lines are the ones `dump()` writes, in
    order, each ended by a line feed (the last may lack it); else the
    refusal of the first line that is not (`_refusal`).  The head is read
    one compiled pattern per line, its state lines up to the first line
    that starts with "trans ", and a model the constructor refuses is
    refused at the line after them.  Then, unless the rest of the text is
    the slot's section of the head's `_trans_key` (the last `dump()`'s),
    each block that `trans_blocks` renders must stand in the text where the
    last one ended; only a block that does not is split into lines, to find
    the first that differs."""
    at = 0
    try:
        at = _match(_HEADER, text, at).end()
        line = _match(_CONFIG, text, at)
        min_vms, max_vms, add_limit, rem_limit, variant, k = line.groups()
        config = ModelConfig(
            int(min_vms), int(max_vms), int(add_limit), int(rem_limit), Variant(variant), int(k)
        )
        at = line.end()
        line = _match(_INITIAL, text, at)
        initial, initial_at, at = line[1], at, line.end()
        states: dict[StateKey, MdpState] = {}
        labels: dict[StateKey, str] = {}
        by_label: dict[str, StateKey] = {}
        head_end = text.find("\ntrans ") + 1 or len(text)
        while at < head_end:
            line = _STATE[0].match(text, at) or _match(_STATE, text, at)  # _match refuses
            label, vms, behavior, weight, reward, point = line.groups()
            size, index, w, r = int(vms), int(behavior), float(weight), float(reward)
            lat, _, thr = point.partition(",")
            center = None if point == "-" else (float(lat), float(thr))
            if not math.isfinite(w + r + (center[0] + center[1] if center else 0.0)):
                for value in (weight, reward, lat, thr)[: 4 if center else 2]:
                    finite_float(value)  # refuses the first non-finite value
            state = MdpState(size, index, w, center, r)
            if state.label != label:
                raise ValueError(f"state {label} has the fields of {state.label}")
            if state.key in states:
                raise ValueError(f"state {label} is defined twice")
            states[state.key] = state
            labels[state.key] = label
            by_label[label] = state.key
            at = line.end()
        if initial not in by_label:
            at = initial_at
            raise ValueError(f"initial state {initial} not defined")
        model = MdpModel(config=config, states=states, initial=states[by_label[initial]])
    except (ValueError, ConfigurationError, InstantiationError) as exc:
        raise _refusal(text, at, numbers, str(exc)) from None
    held, section = _last_trans
    if held == _trans_key(model) and text.startswith(section, at) and text[at + len(section) :] in ("", "\n"):
        return model
    for block in trans_blocks(model, labels):
        end = at + len(block)
        if not text.startswith(block, at) or end < len(text) and text[end] != "\n":
            for want in block.split("\n"):  # refuse the first line that differs
                end = at + len(want)
                if not text.startswith(want, at) or end < len(text) and text[end] != "\n":
                    raise _refusal(text, at, numbers, _expected(want, text, at))
                at = end + 1
        at = end + 1
    if at < len(text):
        raise _refusal(text, at, numbers, "expected the end of the dump")
    return model


# The last trans section `dump()` rendered, and its `_trans_key`: one
# (key, text) pair, replaced whole, so a thread reads a pair that agrees.
_last_trans: tuple[tuple | None, str] = (None, "")


def _trans_key(model: MdpModel) -> tuple:
    """All `model`'s trans section is made of: the config, the state keys in
    order and their weights' bits (0.0 and -0.0 print apart; labels follow)."""
    keys = tuple(sorted(model.states))
    return model.config, keys, pack(f"{len(keys)}d", *[model.states[k].weight for k in keys])


def _match(line: tuple[re.Pattern[str], str], text: str, at: int) -> re.Match[str]:
    """The match of `line`'s pattern at `at`, or a ValueError saying what
    was expected there."""
    pattern, template = line
    found = pattern.match(text, at)
    if found is None:
        raise ValueError(_expected(template, text, at))
    return found


def _expected(line: str, text: str, at: int) -> str:
    """The refusal that says `line` was expected at `at`."""
    return f"expected {line!r}" + (", found the end of the dump" if at >= len(text) else "")


def _refusal(text: str, at: int, numbers: Sequence[int] | None, what: str) -> InstantiationError:
    """The refusal `what` of the line of `text` that starts at `at` (at or
    past the end, of the line after the last), named by its number in the
    text the caller loads: `numbers[i]` for line i, or i + 1 when None."""
    at = min(at, len(text))
    line = text.count("\n", 0, at) + (0 < at and text[at - 1] != "\n")
    number = line + 1 if numbers is None else numbers[line]
    return InstantiationError(f"model dump line {number}: {what}")


def finite_float(text: str) -> float:
    """`float(text)`, raising ValueError for NaN and infinities as well."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value
