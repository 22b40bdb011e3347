"""Elasticity decision policies and their shared post-processing.

Six policies are provided behind one `observe`/`decide` interface:

* RE       -- reactive rule on two latency thresholds, fixed action size.
* RL_MB    -- tabular Q-learning over (size, action) pairs, entries
              warm-started from mode-behaviour estimates at first visit.
* MDP_MB   -- single-behavior model, mode-behaviour rewards, exact solve.
* MDP_EB   -- single-behavior model, expected-behaviour rewards.
* MDP2     -- multi-behavior model (one state per cluster), exact solve.
* MDP3     -- multi-behavior model with all-target transitions; chosen
              actions are clipped back to the per-step limits.

An MDP policy's model holds, for each size, the states `rewards.state_reward`
scores from the logs at the effective load: one per behavior cluster (MDP2,
MDP3) or its MB or EB summary (MDP_MB, MDP_EB).

Post-processing: the incoming load can be smoothed over a sliding window
before model instantiation, and a benefit threshold can veto actions whose
expected relative utility gain is too small.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Mapping

from .errors import ConfigurationError, NoDataError
from .logs import LogSelection, LogStore
from .model import (
    Action,
    ActionKind,
    ClusterSize,
    MdpModel,
    ModelConfig,
    NO_OP,
    Variant,
    build_model,
    current_state,
)
from .rewards import (
    ClusteringConfig,
    StateReward,
    UtilityConfig,
    # Not called here, but kept bound: perfbench's traced run (`--trace 1`)
    # wraps `policies.cluster_behavior` by name and fails without it.
    cluster_behavior,
    cluster_cells,
    state_reward,
    utility_eval,
)
from .solver import PolicyDecision, decide as solve_decide, pick, reward_arrivals

if TYPE_CHECKING:  # emulator imports this module
    from .emulator import TickRecord


class PolicyKind(str, Enum):
    RE = "re"
    RL_MB = "rl_mb"
    MDP_MB = "mdp_mb"
    MDP_EB = "mdp_eb"
    MDP2 = "mdp2"
    MDP3 = "mdp3"


MDP_KINDS = (PolicyKind.MDP_MB, PolicyKind.MDP_EB, PolicyKind.MDP2, PolicyKind.MDP3)


@dataclass(frozen=True)
class REConfig:
    """Reactive-rule thresholds and action size.

    `step_size=None` uses the per-direction limit (add_limit VMs per
    increase, rem_limit per decrease), the convention of rule-based cloud
    managers that always act at a pre-specified size.
    """

    upper_latency_ms: float = 60.0
    lower_latency_ms: float | None = None  # defaults to upper / 2
    step_size: int | None = None

    def __post_init__(self) -> None:
        lower = self.lower_latency()
        if not 0 < lower < self.upper_latency_ms:
            raise ConfigurationError(
                f"need 0 < lower ({lower}) < upper ({self.upper_latency_ms})"
            )
        if self.step_size is not None and self.step_size < 1:
            raise ConfigurationError("step_size must be >= 1")

    def lower_latency(self) -> float:
        if self.lower_latency_ms is not None:
            return self.lower_latency_ms
        return self.upper_latency_ms / 2


@dataclass(frozen=True)
class RLConfig:
    alpha: float = 0.1
    gamma: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ConfigurationError("alpha must be in (0, 1]")
        if not 0 <= self.gamma < 1:
            raise ConfigurationError("gamma must be in [0, 1)")


@dataclass
class QTable:
    """Tabular action values per (cluster size, action label), learned at `rl`'s rates."""

    rl: RLConfig = RLConfig()
    values: dict[tuple[int, str], float] = field(default_factory=dict)

    def get(self, size: int, action: Action) -> float:
        return self.values.get((size, action.label), 0.0)


@dataclass(frozen=True)
class PostProcessConfig:
    """Benefit threshold (percent, 0 disables) and smoothing window
    (ticks, 1 disables)."""

    benefit_threshold_pct: float = 0.0
    smoothing_window: int = 1

    def __post_init__(self) -> None:
        if self.benefit_threshold_pct < 0:
            raise ConfigurationError("benefit threshold must be >= 0")
        if self.smoothing_window < 1:
            raise ConfigurationError("smoothing window must be >= 1")


def re_decide(
    config: REConfig,
    current_latency: float,
    current: ClusterSize,
    limits: ModelConfig,
) -> PolicyDecision:
    """Reactive rule: add on an upper-threshold violation, remove below
    the lower threshold, otherwise do nothing.  The action is clipped to
    the [min_vms, max_vms] range; a reactive policy carries no utility
    expectation, so `expected_utility` is None."""
    if current_latency > config.upper_latency_ms:
        step = config.step_size if config.step_size is not None else limits.add_limit
        delta = min(step, limits.max_vms - current)
        action = Action(ActionKind.ADD, delta) if delta > 0 else NO_OP
    elif current_latency < config.lower_latency():
        step = config.step_size if config.step_size is not None else limits.rem_limit
        delta = min(step, current - limits.min_vms)
        action = Action(ActionKind.REM, delta) if delta > 0 else NO_OP
    else:
        action = NO_OP
    return PolicyDecision(action=action, expected_utility=None)


def rl_decide(
    qtable: QTable,
    current: ClusterSize,
    mb_rewards: Mapping[int, float],
    limits: ModelConfig,
) -> PolicyDecision:
    """Greedy action over the Q-table, warm-starting unseen entries from
    the mode-behaviour reward estimate of each action's target size."""
    actions = [NO_OP, *limits.moves(current)]
    for action in actions:
        key = (current, action.label)
        if key not in qtable.values:
            qtable.values[key] = mb_rewards[current + action.signed_delta]
    _, action = pick([(qtable.get(current, a), a) for a in actions])
    return PolicyDecision(action=action, expected_utility=qtable.get(current, action))


def rl_update(
    qtable: QTable,
    prev_size: ClusterSize,
    action: Action,
    realized_reward: float,
    new_size: ClusterSize,
    limits: ModelConfig,
) -> None:
    """One Q-learning step:
    Q(s,a) += alpha * (r + gamma * max_a' Q(s',a') - Q(s,a))."""
    future = max(qtable.get(new_size, a) for a in [NO_OP, *limits.moves(new_size)])
    key = (prev_size, action.label)
    q = qtable.values.get(key, 0.0)
    qtable.values[key] = q + qtable.rl.alpha * (realized_reward + qtable.rl.gamma * future - q)


@dataclass(frozen=True, slots=True)
class RewardRow:
    """Every size's log selection and scored states at one load bucket,
    with a note for each size whose logs came from another cell."""

    selections: Mapping[int, LogSelection]
    rewards: Mapping[int, StateReward]
    notes: tuple[str, ...]


def reward_row(
    store: LogStore,
    load: float,
    sizes: range,
    clustering: ClusteringConfig,
    utility: UtilityConfig,
) -> RewardRow:
    """The `RewardRow` of `sizes` at the load bucket of `load`.

    Each (load bucket, sizes, clustering, utility) is selected, clustered
    and scored once per store and kept in `store.reward_memo`; a store's
    records are fixed at construction, so a row never goes stale.  One row
    serves the MB, EB and multi-behavior models and the RL warm starts.  On
    a miss every distinct cell of the row is clustered in one
    `cluster_cells` call (sizes that borrow one cell share its clusters),
    and each size is scored at its own size, even on a borrowed cell.
    """
    key = (store.bucket(load), sizes, clustering, utility)
    row = store.reward_memo.get(key)
    if row is None:
        selections = {size: store.select_logs(size, load) for size in sizes}
        cells = {(s.vms_used, s.bucket_center): s.records for s in selections.values()}
        clustered = dict(zip(cells, cluster_cells(list(cells.values()), clustering)))
        rewards = {
            size: state_reward(clustered[s.vms_used, s.bucket_center], utility, size)
            for size, s in selections.items()
        }
        notes = tuple(
            f"size {size}: no logs at bucket, used {len(s.records)}"
            f" record(s) from vms={s.vms_used} bucket={s.bucket_center:.0f}"
            for size, s in selections.items()
            if s.interpolated
        )
        row = store.reward_memo[key] = RewardRow(selections, rewards, notes)
    return row


def _observation(measurement: TickRecord | None) -> tuple[float, float] | None:
    if measurement is None:
        return None
    return (measurement.latency_ms, measurement.throughput)


def instantiate_model(
    kind: PolicyKind,
    store: LogStore,
    load_effective: float,
    current: ClusterSize,
    current_measurement: TickRecord | None,
    model_config: ModelConfig,
    utility: UtilityConfig,
    clustering: ClusteringConfig,
) -> tuple[MdpModel, tuple[str, ...]]:
    """Build the model variant an MDP policy solves at one decision step
    from each size's scored states at `load_effective`, with a note for
    each size whose logs came from another cell."""
    if kind not in MDP_KINDS:
        raise ConfigurationError(f"{kind.value} is not an MDP policy")
    multi = kind in (PolicyKind.MDP2, PolicyKind.MDP3)
    variant = Variant.M3 if kind is PolicyKind.MDP3 else Variant.M2 if multi else Variant.M1
    config = dataclasses.replace(model_config, variant=variant, k=clustering.k if multi else 1)
    row = reward_row(store, load_effective, config.sizes, clustering, utility)
    states = []
    for scored in row.rewards.values():
        if multi:
            states.extend(scored.per_cluster)
        else:
            states.append(scored.eb if kind is PolicyKind.MDP_EB else scored.mb)
    model = build_model(config, states, current, _observation(current_measurement))
    return model, row.notes


def mdp_decide(
    kind: PolicyKind,
    store: LogStore,
    load_effective: float,
    current: ClusterSize,
    current_measurement: TickRecord | None,
    model_config: ModelConfig,
    utility: UtilityConfig,
    clustering: ClusteringConfig,
) -> PolicyDecision:
    """One elasticity step of an MDP policy: the (possibly bounded) first
    optimal action from the current size's behavior closest to the latest
    measurement.

    The model at the effective load's bucket, its interpolation notes and
    its `reward_arrivals` are built once per store and kept in
    `store.solve_memo`.  Only the initial state depends on the current
    size and observation, so each step picks its state with
    `current_state`, as `build_model` does, and values that state's first
    moves."""
    key = (kind, model_config, clustering, utility, store.bucket(load_effective))
    entry = store.solve_memo.get(key)
    if entry is None:
        model, notes = instantiate_model(
            kind, store, load_effective, current, current_measurement,
            model_config, utility, clustering,
        )
        entry = store.solve_memo[key] = (model, notes, reward_arrivals(model))
    model, notes, arrivals = entry
    state = current_state(model.config, model.by_size, current, _observation(current_measurement))
    decision = solve_decide(model, state, arrivals)
    if notes:
        decision = dataclasses.replace(decision, notes=decision.notes + notes)
    return decision


def apply_benefit_threshold(
    decision: PolicyDecision,
    current_utility: float,
    config: PostProcessConfig,
) -> PolicyDecision:
    """Veto actions whose expected relative utility gain is below the
    threshold.

    The gain is (expected - current) / |current|; with a current utility
    of exactly 0 the comparison degenerates to requiring any positive
    expected gain.  Decisions without a utility expectation (reactive
    rules) cannot demonstrate a gain and are vetoed by any active
    threshold.
    """
    if config.benefit_threshold_pct == 0 or decision.is_no_op:
        return decision
    veto = dataclasses.replace(
        decision,
        action=NO_OP,
        bounded=False,
        notes=decision.notes
        + (f"benefit below {config.benefit_threshold_pct:g}% threshold",),
    )
    expected = decision.expected_utility
    if expected is None:
        return veto
    if current_utility == 0:
        return decision if expected > 0 else veto
    gain = (expected - current_utility) / abs(current_utility)
    return decision if gain >= config.benefit_threshold_pct / 100.0 else veto


class Policy:
    """Stateful per-run decision policy: feed every tick's record to
    `observe`, ask for an action with `decide`.

    A policy reads only a record's `load`, `latency_ms` and `throughput`,
    so it observes the `TickRecord` an episode emulates.  The loads of the
    last `smoothing_window` ticks give the effective load.  Instances own
    mutable state (histories, Q-tables) and serve one episode at a time;
    run separate instances for concurrent episodes.
    """

    def __init__(self, kind: PolicyKind, smoothing_window: int = 1):
        if smoothing_window < 1:
            raise ConfigurationError(f"smoothing window must be >= 1, got {smoothing_window}")
        self.kind = kind
        self._loads: deque[float] = deque(maxlen=smoothing_window)
        self._latest: TickRecord | None = None

    def observe(self, record: TickRecord) -> None:
        self._loads.append(record.load)
        self._latest = record

    def effective_load(self) -> float:
        """Mean load of the last `smoothing_window` observed ticks (of all
        of them before that many); window 1 is the latest raw load."""
        if not self._loads:
            raise NoDataError("no load observed yet")
        return sum(self._loads) / len(self._loads)

    def decide(self, current: ClusterSize) -> PolicyDecision:
        raise NotImplementedError


class ReactivePolicy(Policy):
    def __init__(self, config: REConfig, limits: ModelConfig):
        super().__init__(PolicyKind.RE)
        self.config = config
        self.limits = limits

    def decide(self, current: ClusterSize) -> PolicyDecision:
        if self._latest is None:
            raise NoDataError("no measurement observed yet")
        return re_decide(self.config, self._latest.latency_ms, current, self.limits)


class RLPolicy(Policy):
    """Q-learning with mode-behaviour warm starts (the indirect solver)."""

    def __init__(
        self,
        store: LogStore,
        limits: ModelConfig,
        utility: UtilityConfig,
        clustering: ClusteringConfig,
        rl: RLConfig = RLConfig(),
        smoothing_window: int = 1,
    ):
        super().__init__(PolicyKind.RL_MB, smoothing_window)
        self.store = store
        self.limits = limits
        self.utility = utility
        self.clustering = clustering
        self.qtable = QTable(rl)
        self._pending: tuple[ClusterSize, Action] | None = None

    def decide(self, current: ClusterSize) -> PolicyDecision:
        if self._latest is None:
            raise NoDataError("no measurement observed yet")
        if self._pending is not None:
            prev_size, action = self._pending
            realized = utility_eval(
                self.utility, self._latest.latency_ms, self._latest.throughput, current
            )
            rl_update(self.qtable, prev_size, action, realized, current, self.limits)
        row = reward_row(
            self.store, self.effective_load(), self.limits.sizes, self.clustering, self.utility
        )
        targets = {current + a.signed_delta for a in [NO_OP, *self.limits.moves(current)]}
        mb_rewards = {size: row.rewards[size].mb.reward for size in targets}
        decision = rl_decide(self.qtable, current, mb_rewards, self.limits)
        self._pending = (current, decision.action)
        return decision


class MdpPolicy(Policy):
    """Direct solving of the model instantiated at the effective load."""

    def __init__(
        self,
        kind: PolicyKind,
        store: LogStore,
        limits: ModelConfig,
        utility: UtilityConfig,
        clustering: ClusteringConfig,
        smoothing_window: int = 1,
    ):
        if kind not in MDP_KINDS:
            raise ConfigurationError(f"{kind.value} is not an MDP policy")
        super().__init__(kind, smoothing_window)
        self.store = store
        self.limits = limits
        self.utility = utility
        self.clustering = clustering

    def decide(self, current: ClusterSize) -> PolicyDecision:
        return mdp_decide(
            self.kind,
            self.store,
            self.effective_load(),
            current,
            self._latest,
            self.limits,
            self.utility,
            self.clustering,
        )


def make_policy(
    kind: PolicyKind,
    store: LogStore,
    limits: ModelConfig,
    utility: UtilityConfig,
    clustering: ClusteringConfig,
    re_config: REConfig | None = None,
    rl_config: RLConfig = RLConfig(),
    smoothing_window: int = 1,
) -> Policy:
    if kind is PolicyKind.RE:
        re_config = re_config or REConfig(upper_latency_ms=utility.latency_threshold_ms)
        return ReactivePolicy(re_config, limits)
    if kind is PolicyKind.RL_MB:
        return RLPolicy(store, limits, utility, clustering, rl_config, smoothing_window)
    return MdpPolicy(kind, store, limits, utility, clustering, smoothing_window)
