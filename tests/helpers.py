"""Readers of traces, schedules and models that only tests call, stub
policies, an MDP policy that has observed one tick, and a store that
forgets."""

from __future__ import annotations

from elastimdp.emulator import ExperimentTrace, ScheduleConfig, TickRecord
from elastimdp.logs import LogStore
from elastimdp.model import NO_OP, Action, ActionKind, MdpModel, ModelConfig, StateKey
from elastimdp.policies import MdpPolicy, Policy, PolicyKind
from elastimdp.rewards import ClusteringConfig, UtilityConfig
from elastimdp.solver import PolicyDecision


class NoOpStub(Policy):
    def __init__(self):
        super().__init__(PolicyKind.MDP_MB)

    def decide(self, current):
        return PolicyDecision(action=NO_OP, expected_utility=0.0)


class BoomStub(Policy):
    def __init__(self):
        super().__init__(PolicyKind.MDP_MB)

    def decide(self, current):
        raise RuntimeError("boom")


class AddThenBoomStub(Policy):
    """Adds one VM at each of its first `adds` decisions, then raises."""

    def __init__(self, adds):
        super().__init__(PolicyKind.MDP_MB)
        self.adds = adds

    def decide(self, current):
        if not self.adds:
            raise RuntimeError("boom")
        self.adds -= 1
        return PolicyDecision(action=Action(ActionKind.ADD, 1), expected_utility=None)


def observed_mdp_policy(
    kind: PolicyKind,
    store: LogStore,
    load: float,
    current: int,
    limits: ModelConfig,
    utility: UtilityConfig,
    clustering: ClusteringConfig,
) -> MdpPolicy:
    """An `MdpPolicy` that has observed one tick at `load` on `current`
    VMs, measured as the store's first logged record for that query."""
    policy = MdpPolicy(kind, store, limits, utility, clustering)
    logged = store.select_logs(current, load).records[0]
    policy.observe(
        TickRecord(0, load, current, logged.latency_ms, logged.throughput, 0.0, False, "", 0.0)
    )
    return policy


def loads(trace: ExperimentTrace) -> list[float]:
    return [r.load for r in trace.records]


def decisions(trace: ExperimentTrace) -> list[str]:
    return [r.decision for r in trace.records if r.decision]


def decision_ticks(schedule: ScheduleConfig) -> list[int]:
    return [
        t
        for t in range(schedule.horizon_ticks)
        if t > 0 and t % schedule.decision_every_ticks == 0
    ]


def type_distribution(model: MdpModel, key: StateKey, kind: ActionKind) -> dict[StateKey, float]:
    """Aggregate distribution of an action type, e.g. P(s4, add, .)."""
    dist: dict[StateKey, float] = {}
    for (skey, action), row in model.transitions.items():
        if skey != key or action.kind is not kind:
            continue
        for target, p in row:
            dist[target] = dist.get(target, 0.0) + p
    return dist


# The memos of a `LogStore`, each a dict filled by `memo[key] = value`.
MEMOS = ("_selections", "reward_memo", "solve_memo", "tape_memo")


class Forgetful(dict):
    """A memo that keeps nothing: `memo[key] = value` drops the entry."""

    def __setitem__(self, key, value):
        pass


def forget(store: LogStore) -> LogStore:
    """`store`, with each of its `MEMOS` swapped for a `Forgetful` one.
    Every `x = memo[key] = value` in the package still binds `x`, so each
    call computes afresh and each episode draws its own tape."""
    for name in MEMOS:
        setattr(store, name, Forgetful())
    return store
