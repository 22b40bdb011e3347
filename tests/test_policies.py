import dataclasses

import numpy as np
import pytest

import reference_kmeans
from helpers import observed_mdp_policy
from reference_scoring import row_states, state_reward

from elastimdp import model as model_module
from elastimdp import policies
from elastimdp.emulator import TickRecord
from elastimdp.errors import ConfigurationError, NoDataError
from elastimdp.harness import (
    build_store,
    default_config_ini,
    load_dataset,
    parse_config,
    run_comparison,
)
from elastimdp.logs import LogStore, MeasurementRecord
from elastimdp.model import (
    Action,
    ActionKind,
    BehaviorMatcher,
    ModelConfig,
    NO_OP,
    build_model,
)
from elastimdp.policies import (
    MDP_KINDS,
    MdpPolicy,
    PolicyKind,
    PostProcessConfig,
    QTable,
    REConfig,
    RLConfig,
    RLPolicy,
    apply_benefit_threshold,
    instantiate_model,
    make_policy,
    re_decide,
    reward_row,
    rl_decide,
    rl_update,
)
from elastimdp.rewards import (
    ClusteringConfig,
    UtilityConfig,
    UtilityKind,
    cluster_behavior,
)
from elastimdp.solver import TIE_TOL, PolicyDecision

ADD = ActionKind.ADD
REM = ActionKind.REM

LIMITS = ModelConfig(min_vms=3, max_vms=10, add_limit=3, rem_limit=2)
R1 = UtilityConfig(UtilityKind.R1, 60.0)
CLUSTERING = ClusteringConfig(k=2, seed=5)


def store_with(per_size, load=10000.0, samples=3):
    """A store whose (latency, throughput) at `load` is fixed per size."""
    records = []
    t = 0
    for vms, (lat, thr) in per_size.items():
        for _ in range(samples):
            records.append(MeasurementRecord(t, vms, load, lat, thr))
            t += 1
    return LogStore(records, bucket_width=1000.0)


class TestReactive:
    def test_upper_violation_adds(self):
        decision = re_decide(REConfig(60.0), 70.0, 5, LIMITS)
        assert decision.action == Action(ADD, 3)
        assert decision.expected_utility is None

    def test_below_lower_removes(self):
        decision = re_decide(REConfig(60.0), 20.0, 5, LIMITS)
        assert decision.action == Action(REM, 2)

    def test_between_thresholds_no_op(self):
        # both thresholds are exclusive: a latency exactly at one does nothing
        for latency in (45.0, 60.0, 30.0):
            assert re_decide(REConfig(60.0), latency, 5, LIMITS).action == NO_OP

    def test_fixed_step_size(self):
        config = REConfig(60.0, step_size=1)
        assert re_decide(config, 70.0, 5, LIMITS).action == Action(ADD, 1)
        assert re_decide(config, 10.0, 5, LIMITS).action == Action(REM, 1)

    def test_clipped_at_range_bounds(self):
        assert re_decide(REConfig(60.0), 70.0, 9, LIMITS).action == Action(ADD, 1)
        assert re_decide(REConfig(60.0), 70.0, 10, LIMITS).action == NO_OP
        assert re_decide(REConfig(60.0), 10.0, 3, LIMITS).action == NO_OP

    def test_lower_defaults_to_half_upper(self):
        config = REConfig(60.0)
        assert config.lower_latency() == 30.0
        assert REConfig(60.0, lower_latency_ms=1e-9).lower_latency() == 1e-9
        for lower in (80.0, 60.0, 0.0):
            with pytest.raises(ConfigurationError):
                REConfig(60.0, lower_latency_ms=lower)


class TestQLearning:
    def test_single_update_with_full_learning_rate(self):
        qtable = QTable(RLConfig(alpha=1.0, gamma=0.0))
        rl_update(qtable, 5, Action(ADD, 1), 5.0, 6, LIMITS)
        assert qtable.values[(5, "add_1")] == 5.0

    def test_all_equal_prefers_no_op(self):
        qtable = QTable()
        mb = {size: 7.5 for size in range(3, 11)}
        decision = rl_decide(qtable, 5, mb, LIMITS)
        assert decision.action == NO_OP
        assert decision.expected_utility == 7.5

    def test_values_within_the_solver_tolerance_tie(self):
        # rl_decide picks by the solver's rule: values within TIE_TOL of
        # the best tie, and the tie goes to no_op.
        qtable = QTable()
        qtable.values[(5, "add_1")] = 7.5 * (1 + TIE_TOL / 2)
        decision = rl_decide(qtable, 5, {size: 7.5 for size in range(3, 11)}, LIMITS)
        assert decision.action == NO_OP
        assert decision.expected_utility == 7.5
        qtable.values[(5, "add_1")] = 7.5 * (1 + 2 * TIE_TOL)
        assert rl_decide(qtable, 5, {}, LIMITS).action == Action(ADD, 1)

    def test_warm_start_from_mb_estimates(self):
        qtable = QTable()
        mb = {3: 0.0, 4: 1.0, 5: 2.0, 6: 9.0, 7: 0.0, 8: 0.0}
        decision = rl_decide(qtable, 5, mb, LIMITS)
        assert decision.action == Action(ADD, 1)
        assert qtable.values[(5, "add_1")] == 9.0

    def test_converges_to_stationary_reward(self):
        qtable = QTable(RLConfig(alpha=0.1, gamma=0.0))
        rl_update(qtable, 5, NO_OP, 3.0, 5, LIMITS)
        assert qtable.values[(5, "no_op")] == pytest.approx(0.3)
        for _ in range(299):
            rl_update(qtable, 5, NO_OP, 3.0, 5, LIMITS)
        assert qtable.values[(5, "no_op")] == pytest.approx(3.0, abs=1e-9)

    def test_bootstraps_from_next_state(self):
        qtable = QTable(RLConfig(alpha=1.0, gamma=0.5))
        qtable.values[(6, "no_op")] = 8.0
        rl_update(qtable, 5, Action(ADD, 1), 2.0, 6, LIMITS)
        assert qtable.values[(5, "add_1")] == 2.0 + 0.5 * 8.0

    def test_rates_are_an_rl_config(self):
        assert QTable().rl == RLConfig()
        for alpha in (5.0, 0.0):
            with pytest.raises(ConfigurationError, match="alpha"):
                QTable(RLConfig(alpha=alpha))
        for gamma in (-3.0, 1.0):
            with pytest.raises(ConfigurationError, match="gamma"):
                QTable(RLConfig(gamma=gamma))
        with pytest.raises(TypeError):
            QTable(alpha=0.5)
        policy = RLPolicy(store_with({}), LIMITS, R1, CLUSTERING, RLConfig(alpha=0.5, gamma=0.25))
        assert policy.qtable.rl == RLConfig(alpha=0.5, gamma=0.25)


class TestMdpDecide:
    def test_increasing_rewards_take_maximal_step(self):
        # throughput v^2 makes r1 = v: strictly increasing with size
        per_size = {v: (30.0, float(v * v)) for v in LIMITS.sizes}
        store = store_with(per_size)
        decision = mdp_step(PolicyKind.MDP_MB, store, 10000.0, 5)
        assert decision.action == Action(ADD, 3)

    def test_all_below_current_no_op(self):
        per_size = {v: (90.0, 1000.0) for v in LIMITS.sizes}
        per_size[5] = (30.0, 1000.0)  # only the current size is healthy
        store = store_with(per_size)
        decision = mdp_step(PolicyKind.MDP_MB, store, 10000.0, 5)
        assert decision.action == NO_OP

    def test_all_targets_decision_is_bounded(self):
        per_size = {v: (90.0, 1000.0) for v in LIMITS.sizes}
        per_size[10] = (20.0, 50000.0)  # optimum five sizes above current
        store = store_with(per_size)
        decision = mdp_step(PolicyKind.MDP3, store, 10000.0, 5)
        assert decision.action == Action(ADD, 3)
        assert decision.bounded

    def test_interpolation_noted(self):
        per_size = {v: (30.0, 8000.0) for v in LIMITS.sizes if v != 7}
        store = store_with(per_size)
        decision = mdp_step(PolicyKind.MDP_EB, store, 10000.0, 5)
        assert any("size 7" in note for note in decision.notes)

    def test_non_mdp_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            instantiate_model(
                PolicyKind.RE, store_with({5: (30.0, 100.0)}), 10000.0, 5, None,
                LIMITS, R1, CLUSTERING,
            )

    def test_decisions_respect_limits_for_all_kinds(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            per_size = {
                v: (float(rng.uniform(10, 100)), float(rng.uniform(100, 40000)))
                for v in LIMITS.sizes
            }
            store = store_with(per_size)
            current = int(rng.integers(LIMITS.min_vms, LIMITS.max_vms + 1))
            for kind in MDP_KINDS:
                decision = mdp_step(kind, store, 10000.0, current)
                assert abs(decision.action.delta) <= (
                    LIMITS.add_limit if decision.action.kind is ADD else LIMITS.rem_limit
                )
                assert current + decision.action.signed_delta in LIMITS.sizes


class TestPostProcessing:
    def decision(self, expected, delta=1):
        return PolicyDecision(action=Action(ADD, delta), expected_utility=expected)

    def test_small_gain_vetoed(self):
        post = PostProcessConfig(benefit_threshold_pct=5.0)
        result = apply_benefit_threshold(self.decision(104.0), 100.0, post)
        assert result.action == NO_OP
        assert not result.bounded and result.notes == ("benefit below 5% threshold",)

    def test_sufficient_gain_kept(self):
        post = PostProcessConfig(benefit_threshold_pct=5.0)
        for expected in (106.0, 105.0):  # a gain exactly at the threshold is kept
            result = apply_benefit_threshold(self.decision(expected), 100.0, post)
            assert result.action == Action(ADD, 1)

    def test_zero_threshold_disables(self):
        post = PostProcessConfig(benefit_threshold_pct=0.0)
        assert apply_benefit_threshold(self.decision(100.5), 100.0, post) == self.decision(100.5)

    def test_zero_current_utility_passes_any_positive_gain(self):
        post = PostProcessConfig(benefit_threshold_pct=50.0)
        assert apply_benefit_threshold(self.decision(0.01), 0.0, post).action == Action(ADD, 1)
        assert apply_benefit_threshold(self.decision(-0.01), 0.0, post).action == NO_OP
        assert apply_benefit_threshold(self.decision(0.0), 0.0, post).action == NO_OP

    def test_negative_current_utility(self):
        post = PostProcessConfig(benefit_threshold_pct=5.0)
        # gain over a -1 utility: (0.5 - -1)/1 = 150% >= 5%
        assert apply_benefit_threshold(self.decision(0.5), -1.0, post).action == Action(ADD, 1)

    def test_unquantified_expectation_is_vetoed(self):
        post = PostProcessConfig(benefit_threshold_pct=5.0)
        reactive = PolicyDecision(action=Action(ADD, 2), expected_utility=None)
        assert apply_benefit_threshold(reactive, 100.0, post).action == NO_OP

    def test_no_op_passes_through(self):
        post = PostProcessConfig(benefit_threshold_pct=5.0)
        noop = PolicyDecision(action=NO_OP, expected_utility=1.0)
        assert apply_benefit_threshold(noop, 100.0, post) == noop

    def test_infinite_threshold_vetoes_every_action(self):
        post = PostProcessConfig(benefit_threshold_pct=float("inf"))
        for expected in (1e9, 0.5, -1.0, None):
            decision = PolicyDecision(action=Action(ADD, 1), expected_utility=expected)
            assert apply_benefit_threshold(decision, 1.0, post).action == NO_OP


def observed(tick, vms, load, latency, throughput):
    """The record an episode hands a policy at `tick`: what a policy reads
    of it is the load, the latency and the throughput."""
    return TickRecord(tick, load, vms, latency, throughput, 0.0, False, "", 0.0)


def mdp_step(kind, store, load, current, limits=LIMITS, utility=R1, clustering=CLUSTERING):
    """`MdpPolicy.decide` at `current` VMs of a policy that has observed
    one tick at `load` (see `helpers.observed_mdp_policy`)."""
    policy = observed_mdp_policy(kind, store, load, current, limits, utility, clustering)
    return policy.decide(current)


def smoothed(loads, window):
    """Effective load of a policy of `window` that observed `loads`."""
    policy = policies.Policy(PolicyKind.MDP_MB, smoothing_window=window)
    for t, load in enumerate(loads):
        policy.observe(observed(t, 5, load, 30.0, 8000.0))
    return policy.effective_load()


class TestSmoothing:
    def test_mean_of_window(self):
        assert smoothed([10.0, 20.0, 30.0], 3) == 20.0

    def test_window_one_is_latest(self):
        assert smoothed([10.0, 20.0, 30.0], 1) == 30.0

    def test_short_history(self):
        assert smoothed([10.0], 5) == 10.0

    def test_empty_history(self):
        with pytest.raises(NoDataError):
            smoothed([], 3)

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_is_refused_at_construction(self, window):
        with pytest.raises(ConfigurationError, match="smoothing window must be >= 1"):
            policies.Policy(PolicyKind.MDP_MB, smoothing_window=window)

    def test_policy_effective_load(self):
        per_size = {v: (30.0, 8000.0) for v in LIMITS.sizes}
        policy = MdpPolicy(PolicyKind.MDP_MB, store_with(per_size), LIMITS, R1,
                           CLUSTERING, smoothing_window=3)
        raw = MdpPolicy(PolicyKind.MDP_MB, store_with(per_size), LIMITS, R1, CLUSTERING)
        for t, load in enumerate([9000.0, 10000.0, 14000.0]):
            record = observed(t, 5, load, 30.0, 8000.0)
            policy.observe(record)
            raw.observe(record)
        assert policy.effective_load() == 11000.0
        assert raw.effective_load() == 14000.0


class TestPolicyObjects:
    def test_factory_kinds(self):
        store = store_with({v: (30.0, 8000.0) for v in LIMITS.sizes})
        for kind in PolicyKind:
            policy = make_policy(kind, store, LIMITS, R1, CLUSTERING)
            assert policy.kind == kind

    def test_rl_policy_updates_after_decisions(self):
        store = store_with({v: (30.0, float(v * v)) for v in LIMITS.sizes})
        policy = RLPolicy(store, LIMITS, R1, CLUSTERING, RLConfig(alpha=0.5, gamma=0.0))
        policy.observe(observed(0, 5, 10000.0, 30.0, 25.0))
        first = policy.decide(5)
        assert first.action.kind is ADD
        key = (5, first.action.label)
        # the first decision only warm-starts Q(5, action) from the mb estimate
        assert policy.qtable.values[key] == first.expected_utility == 8.0
        enacted = 5 + first.action.signed_delta
        policy.observe(observed(1, enacted, 10000.0, 30.0, 40.0))
        policy.decide(enacted)
        # the second moves it halfway (alpha 0.5) to the realized 40 / 8 VMs
        assert policy.qtable.values[key] == 8.0 + 0.5 * (40.0 / 8 - 8.0)

    def test_moves_clip_at_bounds(self):
        assert LIMITS.moves(9) == [
            (Action(ADD, 1), 1.0), (Action(REM, 1), 0.5), (Action(REM, 2), 0.5)
        ]
        assert LIMITS.moves(3) == [(Action(ADD, d), 1 / 3) for d in (1, 2, 3)]


def count_clustering(monkeypatch) -> list[list[int]]:
    """Record the record counts of the cells of every `rank_cells` call."""
    calls: list[list[int]] = []
    real = policies.rank_cells

    def counted(cells, config):
        calls.append([len(records) for records in cells])
        return real(cells, config)

    monkeypatch.setattr(policies, "rank_cells", counted)
    return calls


def default_store(keep=lambda record: True):
    config = parse_config(default_config_ini())
    records = [r for r in load_dataset(config) if keep(r)]
    return config, build_store(config, records)


def sparse_record(record) -> bool:
    """Drops every log of sizes 6 and 7 and the upper loads of size 10,
    so queries there borrow a neighboring cell."""
    if record.vms in (6, 7):
        return False
    return not (record.vms == 10 and record.load > 30000)


class TestRewardMemo:
    """Each (load bucket, size range, clustering, utility) row of a store
    is selected, clustered and scored once; it must agree with the
    uncached path."""

    def test_row_matches_a_fresh_score_on_every_default_cell(self):
        config, store = default_store()
        sizes = config.model.sizes
        buckets = sorted({bucket for _, bucket in store._buckets})
        assert len(store._buckets) == len(sizes) * len(buckets)  # every cell logged
        configs = (ClusteringConfig(k=1), ClusteringConfig(k=4))
        for clustering in configs:
            for bucket in buckets:
                load = bucket * store.bucket_width
                row = reward_row(store, load, sizes, clustering, R1)
                assert not row.notes
                for vms in sizes:
                    selection = store.select_logs(vms, load)
                    assert not selection.interpolated
                    fresh = reference_kmeans.cluster_behavior(selection.records, clustering)
                    assert row_states(row, vms) == state_reward(fresh, R1, vms)
                assert reward_row(store, load + 300.0, sizes, clustering, R1) is row
        assert len(store.reward_memo) == len(configs) * len(buckets)

    @pytest.mark.parametrize("keep", [lambda r: True, sparse_record], ids=["full", "sparse"])
    def test_row_rewards_match_a_fresh_state_reward(self, keep):
        config, store = default_store(keep)
        clustering, sizes = config.clustering, config.model.sizes
        utilities = (UtilityConfig(UtilityKind.R1), UtilityConfig(UtilityKind.R2))
        loads = [1000.0 * b for b in range(1, 47)]
        interpolated = set()
        for load in loads:
            for utility in utilities:
                row = reward_row(store, load, sizes, clustering, utility)
                borrowed = 0
                for size in sizes:
                    selection = store.select_logs(size, load)
                    if selection.interpolated:
                        interpolated.add((selection.vms_used, size))
                        borrowed += 1
                    fresh = reference_kmeans.cluster_behavior(selection.records, clustering)
                    assert row_states(row, size) == state_reward(fresh, utility, size)
                assert len(row.notes) == borrowed
        if keep is sparse_record:
            # borrowed cells are scored at the requested size
            assert {(5, 6), (8, 7), (10, 10)} <= interpolated
        else:
            assert not interpolated
        assert len(store.reward_memo) == len(loads) * len(utilities)

    def test_one_clustering_call_per_row_key(self, monkeypatch):
        calls = count_clustering(monkeypatch)
        config, store = default_store()
        narrow = dataclasses.replace(config.model, max_vms=9)
        keys = set()
        for _ in range(2):
            for load in (5000.0, 5400.0, 20000.0):
                for limits in (config.model, narrow):
                    for clustering in (config.clustering, ClusteringConfig(k=2)):
                        for utility in (R1, UtilityConfig(UtilityKind.R2)):
                            for kind in MDP_KINDS:
                                mdp_step(kind, store, load, 6, limits, utility, clustering)
                            keys.add((store.bucket(load), limits.sizes, clustering, utility))
        assert len(calls) == len(keys) == len(store.reward_memo) == 16
        # every call clusters the row's cells, one per size
        assert sorted(map(len, calls)) == [6] * 8 + [13] * 8

    def test_rl_and_mdp_share_a_row(self, monkeypatch):
        calls = count_clustering(monkeypatch)
        store = store_with({v: (30.0, float(v * v)) for v in LIMITS.sizes})
        rl = RLPolicy(store, LIMITS, R1, CLUSTERING)
        rl.observe(observed(0, 5, 10000.0, 30.0, 25.0))
        rl.decide(5)
        assert calls == [[3] * len(LIMITS.sizes)]
        (row,) = store.reward_memo.values()
        for kind in (PolicyKind.MDP_MB, PolicyKind.MDP_EB, PolicyKind.MDP2):
            model, notes = instantiate_model(kind, store, 10400.0, 5, None, LIMITS, R1, CLUSTERING)
            assert notes == row.notes
        mdp_step(PolicyKind.MDP3, store, 9600.0, 5)
        rl.observe(observed(1, 5, 9800.0, 30.0, 25.0))
        rl.decide(5)
        assert len(calls) == 1 and len(store.reward_memo) == 1
        mdp_step(PolicyKind.MDP2, store, 10000.0, 5, clustering=ClusteringConfig(k=3))
        assert len(calls) == 2

    def test_sizes_on_one_borrowed_cell_cluster_it_once(self, monkeypatch):
        calls = count_clustering(monkeypatch)
        # sizes 4-6 borrow the 3-VM cell, 7-9 the 10-VM cell
        store = store_with({3: (30.0, 9000.0), 10: (50.0, 20000.0)}, samples=4)
        rl = RLPolicy(store, LIMITS, R1, CLUSTERING)
        rl.observe(observed(0, 5, 10000.0, 30.0, 25.0))
        rl.decide(5)
        assert calls == [[4, 4]]
        (row,) = store.reward_memo.values()
        used = [store.select_logs(size, 10000.0).vms_used for size in LIMITS.sizes]
        assert used == [3] * 4 + [10] * 4
        assert len(row.notes) == 6
        clusters = cluster_behavior(store.select_logs(3, 10000.0).records, CLUSTERING)
        for size in (3, 4, 5, 6):
            assert row_states(row, size) == state_reward(clusters, R1, size)

    def test_repeated_selection_is_one_object(self, monkeypatch):
        calls = count_clustering(monkeypatch)
        store = store_with({4: (30.0, 8000.0), 5: (25.0, 9000.0)})
        selection = store.select_logs(4, 10000.0)
        assert store.select_logs(4, 10200.0) is selection
        assert store.select_logs(5, 10000.0) is not selection
        sizes = range(4, 6)
        row = reward_row(store, 10000.0, sizes, CLUSTERING, R1)
        assert store.select_logs(4, 10000.0) is selection
        assert reward_row(store, 10200.0, sizes, CLUSTERING, R1) is row
        assert calls == [[3, 3]]
        clusters = cluster_behavior(selection.records, CLUSTERING)
        assert row_states(row, 4) == state_reward(clusters, R1, 4)

    @pytest.mark.parametrize("kind", MDP_KINDS)
    def test_warm_store_instantiates_like_a_cold_store(self, kind):
        config, warm = default_store(sparse_record)
        records = load_dataset(config)
        queries = [(3000.0, 4), (17500.0, 9), (30400.0, 12), (46000.0, 16), (17500.0, 6)]
        # warm the memos with every policy kind, then compare to a fresh store
        for other in MDP_KINDS:
            for load, current in queries:
                instantiate_model(
                    other, warm, load, current, None,
                    config.model, config.utility, config.clustering,
                )
        for load, current in queries:
            cold = build_store(config, [r for r in records if sparse_record(r)])
            dumps = [
                instantiate_model(
                    kind, store, load, current, None,
                    config.model, config.utility, config.clustering,
                )[0].dump()
                for store in (warm, cold)
            ]
            assert dumps[0] == dumps[1]

    def test_each_row_is_scored_in_one_call(self, monkeypatch):
        calls = []
        real = policies.state_reward

        def counted(ranked, cells, sizes, utility):
            calls.append((tuple(sizes), utility))
            return real(ranked, cells, sizes, utility)

        monkeypatch.setattr(policies, "state_reward", counted)
        config, store = default_store()

        def decisions():
            for kind in MDP_KINDS:
                for load in (5000.0, 20000.0, 20400.0):
                    mdp_step(kind, store, load, 8, config.model, config.utility, config.clustering)
            rl = RLPolicy(store, config.model, config.utility, config.clustering)
            for load, current in ((5000.0, 8), (20000.0, 8), (20000.0, 9)):
                rl.observe(observed(0, current, load, 30.0, load))
                rl.decide(current)

        decisions()
        first_round = len(calls)
        decisions()
        rows = store.reward_memo.values()
        assert len(calls) == first_round == len(rows) == 2
        assert sum(len(sizes) for sizes, _ in calls) == sum(len(row.mb) for row in rows)


class TestSolveMemo:
    """Each (MDP policy kind, model config, clustering, utility, load
    bucket) is instantiated and solved once per store.
    `tests.test_harness.TestComparison::test_memo_decisions_match_a_fresh_solve`
    checks the memo against a fresh solve on every comparison decision."""

    def test_start_matches_a_fresh_build_at_every_size(self, monkeypatch):
        # Differential: on every model the default comparison keeps, at
        # every size and at every observation a decision at its bucket saw,
        # the kept model's `start` picks what a fresh matcher picks and the
        # initial state of a model built afresh from the same rewards.  The
        # comparison makes each size's matcher once per kept model: a miss
        # reuses the one its build picked the initial state with.
        seen, stores = {}, set()
        real = policies.MdpPolicy.decide
        made = []
        real_matcher = model_module.BehaviorMatcher
        monkeypatch.setattr(
            model_module, "BehaviorMatcher", lambda states: made.append(1) or real_matcher(states)
        )

        def recorded(policy, current):
            observation = (policy._latest.latency_ms, policy._latest.throughput)
            bucket = policy.store.bucket(policy.effective_load())
            seen.setdefault((policy.kind, bucket), set()).add(observation)
            stores.add(policy.store)
            return real(policy, current)

        monkeypatch.setattr(policies.MdpPolicy, "decide", recorded)
        run_comparison(parse_config(default_config_ini(), {"experiment.runs": "2"}))
        (store,) = stores
        assert len(made) == sum(len(entry.model.matchers) for entry in store.solve_memo.values())
        checked, off_heaviest = 0, 0
        for key, (model, _, _, _) in store.solve_memo.items():
            states = model.ordered_states()
            for observation in seen[key[0], key[-1]]:
                for size in model.config.sizes:
                    picked = model.start(size, observation)
                    assert picked == BehaviorMatcher(model.by_size[size]).match(observation)
                    assert picked == build_model(model.config, states, size, observation).initial
                    heaviest = max(model.by_size[size], key=lambda s: (s.weight, -s.behavior_index))
                    checked += 1
                    off_heaviest += picked != heaviest
        assert len(store.solve_memo) == len(seen) == 112
        assert checked == 13 * sum(map(len, seen.values()))
        assert off_heaviest > 0

    def test_current_size_outside_the_range_is_refused_on_a_hit(self):
        store = store_with({v: (30.0, 8000.0) for v in LIMITS.sizes})
        mdp_step(PolicyKind.MDP2, store, 10000.0, 5)
        for current in (LIMITS.min_vms - 1, LIMITS.max_vms + 1):
            with pytest.raises(ConfigurationError, match="outside"):
                mdp_step(PolicyKind.MDP2, store, 10000.0, current)
        assert len(store.solve_memo) == 1
