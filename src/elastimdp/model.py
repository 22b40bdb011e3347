"""Decision-model construction for horizontal VM elasticity.

A model is a small Markov decision process whose states describe cluster
sizes (optionally split into behavior clusters), whose actions add or
remove VMs or do nothing, and whose states each carry a reward, a utility
function evaluated on logged behavior.  A state (`MdpState`) is one scored
behavior of one size, as `rewards.state_reward` makes it, and `build_model`
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
reader expects next to each arrow in a drawing of the model.  An action's
outcome does not depend on the source behavior, so `size_rows`, the one
home of that arithmetic, makes each row once per size.  The map is implied
by the config and the behavior weights, so a model does not store it:
`MdpModel.transitions` is a read-only view made on first read
(`implied_transitions`), for the brute-force oracles (the solver never
reads it).  A dump's `trans` lines are `trans_blocks`, one string per
size written from the rows and never from the map; `MdpModel.loads`
compares the dump with them a size at a time and refuses a dump whose
`trans` lines differ, naming the first differing line.

`MdpModel`'s constructor is the one check of a model's structure (see
`_violations`), and `build_model`, `MdpModel.loads` and
`dataclasses.replace` all go through it.  So the implied map of any model
is a distribution per action type whose targets lie in the size range.
`current_state` is the one pick of the state a decision starts from, for
`build_model`'s initial state and for a decision on a kept model.

Models are immutable after construction and safe to share between threads:
the first read of a model's map or of its states per size fills it
idempotently, and every reader sees the same contents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property
from itertools import compress, count, groupby, repeat
from operator import attrgetter, not_
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

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


@dataclass(frozen=True)
class Action:
    """A sized elasticity action: add/remove `delta` VMs, or no_op.

    `signed_delta` (+delta, -delta or 0) is stored at construction.  It is
    unique per action and the same in every process, so it also gives the
    hash that keys every transition-map lookup.
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

    def __hash__(self) -> int:
        # Doubled so that rem_1 avoids -1, which CPython turns into -2.
        return 2 * self.signed_delta

    @property
    def label(self) -> str:
        if self.kind is ActionKind.NO_OP:
            return "no_op"
        return f"{self.kind.value}_{self.delta}"

    @staticmethod
    def from_label(label: str) -> "Action":
        if label == "no_op":
            return NO_OP
        kind, _, num = label.partition("_")
        try:
            return Action(ActionKind(kind), int(num))
        except ValueError as exc:
            raise ValueError(f"not an action label: {label!r}") from exc

    def sort_key(self) -> tuple[int, int]:
        return (_KIND_ORDER[self.kind], self.delta)


_KIND_ORDER = {ActionKind.ADD: 0, ActionKind.REM: 1, ActionKind.NO_OP: 2}

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
        if kind is ActionKind.ADD:
            room, limit = self.max_vms - size, self.add_limit
        else:
            room, limit = size - self.min_vms, self.rem_limit
        return range(1, (room if self.variant is Variant.M3 else min(limit, room)) + 1)

    def moves(self, size: int) -> list[Action]:
        """The sized actions enabled at `size`, in `Action.sort_key` order:
        the shared `Action` of each add delta, then of each rem delta."""
        adds, rems = self.deltas(size, ActionKind.ADD), self.deltas(size, ActionKind.REM)
        return [_sized_action(d) for d in adds] + [_sized_action(-d) for d in rems]


@dataclass(frozen=True, slots=True)
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (self.vms_num, self.behavior_index))

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


# One transition row: ((target key, probability), ...).
TransitionRow = tuple[tuple[StateKey, float], ...]


@dataclass(frozen=True)
class MdpModel:
    """An instantiated decision model: the config and the states, each
    with its reward.  Construction raises InstantiationError on the first
    broken invariant.  Do not mutate the mapping; `transitions` and
    `by_size` are views of it."""

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

    def __getstate__(self) -> dict:
        # Copies and pickles leave the cached views out (a mappingproxy
        # cannot be pickled) and make their own on first read.
        return {k: v for k, v in vars(self).items() if k not in ("transitions", "by_size")}

    def ordered_states(self) -> list[MdpState]:
        return [self.states[k] for k in sorted(self.states)]

    def actions_from(self, key: StateKey, lock: ActionKind | None = None) -> list[Action]:
        """Sized actions enabled at `key`, honoring a direction lock.

        `lock=ADD` (resp. REM) restricts to additions (removals) plus
        no_op, the restriction that applies once a path has committed to a
        direction.
        """
        out = []
        for (skey, action) in self.transitions:
            if skey != key:
                continue
            if lock is not None and action.kind not in (lock, ActionKind.NO_OP):
                continue
            out.append(action)
        out.sort(key=Action.sort_key)
        return out

    def outcome_distribution(self, key: StateKey, action: Action) -> list[tuple[StateKey, float]]:
        """Normalized outcome distribution of choosing one sized action."""
        row = self.transitions[(key, action)]
        mass = sum(p for _, p in row)
        return [(t, p / mass) for t, p in row]

    def dump(self) -> str:
        """Deterministic text serialization (round-trips via `loads`)."""
        cfg = self.config
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
                f"state {state.label} vms={state.vms_num}"
                f" behavior={state.behavior_index} weight={state.weight!r}"
                f" reward={state.reward!r} phase=decision prev=none"
                f" center={center}"
            )
        lines.extend(trans_blocks(self))
        return "\n".join(lines) + "\n"

    @staticmethod
    def loads(text: str) -> "MdpModel":
        return _parse_dump(text)


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
    (latency_ms, throughput) observation; `current_state` picks the initial
    state with it.
    """
    ordered = sorted(states, key=attrgetter("key"))
    by_size = {size: list(group) for size, group in groupby(ordered, attrgetter("vms_num"))}
    keyed = {state.key: state for state in ordered}
    if len(keyed) < len(ordered):
        raise InstantiationError("two states share a (size, behavior) key")
    return MdpModel(
        config=config,
        states=keyed,
        initial=current_state(config, by_size, current, current_behavior),
    )


def current_state(
    config: ModelConfig,
    by_size: Mapping[int, Sequence[MdpState]],
    current: ClusterSize,
    observation: tuple[float, float] | None,
) -> MdpState:
    """The state a decision at size `current` starts from: the behavior of
    that size closest to `observation` (see `match_behavior`).  `by_size`
    holds each size's states in behavior order."""
    if not config.min_vms <= current <= config.max_vms:
        raise ConfigurationError(
            f"current size {current} outside [{config.min_vms}, {config.max_vms}]"
        )
    states = by_size.get(current)
    if not states:
        raise InstantiationError(f"no state of size {current}")
    return states[match_behavior(states, observation)]


def size_rows(
    config: ModelConfig, by_size: Mapping[int, Sequence[MdpState]]
) -> Iterator[tuple[int, list[tuple[Action, TransitionRow]]]]:
    """Each size of `by_size` (as in `MdpModel.by_size`) with the rows of
    its sized actions in `Action.sort_key` order, one row per action for
    all of the size's behaviors: `type_share * target_weight` for each
    behavior of the target size.  The no_op self-loop is the caller's."""
    for size in by_size:
        moves, rows = config.moves(size), []
        adds = len(config.deltas(size, ActionKind.ADD))
        for action in moves:
            share = 1.0 / (adds if action.signed_delta > 0 else len(moves) - adds)
            targets = by_size.get(size + action.signed_delta, ())
            rows.append((action, tuple((t.key, share * t.weight) for t in targets)))
        yield size, rows


def implied_transitions(
    config: ModelConfig, by_size: Mapping[int, Sequence[MdpState]]
) -> dict[tuple[StateKey, Action], TransitionRow]:
    """The transition map that `config` and the behavior weights of the
    states of each size imply: every behavior of a size shares the size's
    rows (`size_rows`), plus its no_op self-loop."""
    transitions: dict[tuple[StateKey, Action], TransitionRow] = {}
    for size, rows in size_rows(config, by_size):
        for source in by_size[size]:
            key = source.key
            for action, row in rows:
                transitions[(key, action)] = row
            transitions[(key, NO_OP)] = ((key, 1.0),)
    return transitions


def trans_blocks(model: MdpModel) -> Iterator[str]:
    """The `trans` lines of `model`'s dump, made lazily, one string per
    size: sources in key order, each source's actions by sort key and its
    no_op self-loop last.  Each row's text (and label) is made once per
    size and written for each of the size's behaviors."""
    labels = {key: state.label for key, state in model.states.items()}
    for size, rows in size_rows(model.config, model.by_size):
        tails = [
            f" {name} {labels[t]} {p!r}" for a, row in rows for name in [a.label] for t, p in row
        ]
        # Joined in C: "\ntrans s4" before each of s4's tails, less the first "\n".
        yield "".join(
            ("\ntrans " + s.label).join(["", *tails, f" no_op {s.label} 1.0"])
            for s in model.by_size[size]
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


def _parse_dump(text: str) -> MdpModel:
    """Build the model from the dump's header, config, initial and state
    lines, then check its `trans` lines against the blocks `trans_blocks`
    renders for that model: a size at a time, and line by line only where
    a block differs, passing a line whose words are the expected line's."""
    lines = text.splitlines()
    # A trans line stays raw text: those that start with "trans " are found
    # in C, and only the other lines are split into words.
    is_trans = list(map(str.startswith, lines, repeat("trans ")))
    rest = []
    for n, line in compress(enumerate(lines, 1), map(not_, is_trans)):
        words = line.split()
        if words[:1] == ["trans"]:
            is_trans[n - 1] = True
        elif words:
            rest.append((n, words))
    trans = list(compress(lines, is_trans))
    if next((line.split() for line in lines if line.strip()), None) != ["mdpdump", "1"]:
        raise InstantiationError("not a model dump (missing 'mdpdump 1' header)")

    config: ModelConfig | None = None
    initial_label: str | None = None
    states: dict[StateKey, MdpState] = {}
    by_label: dict[str, StateKey] = {}

    for number, words in rest[1:]:
        try:
            if words[0] == "state":
                _, label, *fields = words
                attrs = dict(field.split("=", 1) for field in fields if "=" in field)
                center = None
                if attrs["center"] != "-":
                    lat, thr = attrs["center"].split(",")
                    center = (finite_float(lat), finite_float(thr))
                if (attrs["phase"], attrs["prev"]) != ("decision", "none"):
                    raise ValueError(
                        f"phase={attrs['phase']} prev={attrs['prev']}, but every state"
                        " has phase=decision prev=none"
                    )
                state = MdpState(
                    vms_num=int(attrs["vms"]),
                    behavior_index=int(attrs["behavior"]),
                    weight=finite_float(attrs["weight"]),
                    center=center,
                    reward=finite_float(attrs["reward"]),
                )
                if label != state.label:
                    raise ValueError(f"state {label} has the fields of {state.label}")
                if state.key in states:
                    raise ValueError(f"state {label} is defined twice")
                states[state.key] = state
                by_label[label] = state.key
            elif words[0] == "config":
                if config is not None:
                    raise ValueError("second config line")
                attrs = dict(field.split("=", 1) for field in words if "=" in field)
                config = ModelConfig(
                    min_vms=int(attrs["min_vms"]),
                    max_vms=int(attrs["max_vms"]),
                    add_limit=int(attrs["add_limit"]),
                    rem_limit=int(attrs["rem_limit"]),
                    variant=Variant(attrs["variant"]),
                    k=int(attrs["k"]),
                )
            elif words[0] == "initial":
                if initial_label is not None:
                    raise ValueError("second initial line")
                _, initial_label = words
            else:
                raise ValueError(f"unrecognized dump line {' '.join(words)!r}")
        except KeyError as exc:
            raise InstantiationError(f"model dump line {number}: missing {exc.args[0]}=") from exc
        except (ValueError, ConfigurationError) as exc:
            raise InstantiationError(f"model dump line {number}: {exc}") from exc

    if config is None or initial_label is None:
        raise InstantiationError("model dump lacks its config or initial line")
    if initial_label not in by_label:
        raise InstantiationError(f"initial state {initial_label} not defined")

    model = MdpModel(
        config=config,
        states=states,
        initial=states[by_label[initial_label]],
    )
    # `trans_blocks` is lazy, so this work is bounded by the dump's lines.
    start = 0
    for block in trans_blocks(model):
        expected = block.split("\n")
        if trans[start : start + len(expected)] != expected:
            for j, want in enumerate(expected, start):
                if j == len(trans):
                    end = len(text.rstrip().splitlines()) + 1
                    raise InstantiationError(
                        f"model dump line {end}: expected {want!r}, found the end of the dump"
                    )
                if " ".join(trans[j].split()) != want:
                    number = list(compress(count(1), is_trans))[j]
                    raise InstantiationError(f"model dump line {number}: expected {want!r}")
        start += len(expected)
    if start < len(trans):
        number = list(compress(count(1), is_trans))[start]
        raise InstantiationError(f"model dump line {number}: expected no further trans line")
    return model


def finite_float(text: str) -> float:
    """`float(text)`, raising ValueError for NaN and infinities as well."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value
