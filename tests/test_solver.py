import dataclasses
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastimdp import cli, solver
from elastimdp.errors import InstantiationError, QueryEvaluationError, SolverError
from elastimdp.harness import build_store, default_config_ini, load_dataset, parse_config
from elastimdp.model import (
    Action,
    ActionKind,
    MdpModel,
    MdpState,
    ModelConfig,
    NO_OP,
    Variant,
    build_model,
)
from elastimdp.policies import PolicyKind, instantiate_model
from elastimdp.queries import parse_query
from elastimdp.solver import (
    TIE_TOL,
    ReachabilityQuery,
    _arrival_values,
    clip_action,
    _tree_value,
    best_move,
    brute_force_oracle,
    brute_force_reachability,
    decide,
    reachability_probability,
    reward_arrivals,
    tie_break_key,
)

import reference_arrivals
from instances import random_instance

ADD = ActionKind.ADD
REM = ActionKind.REM


def chain(rewards, add_limit=1, rem_limit=1, current=4, variant=Variant.M1):
    sizes = sorted(rewards)
    config = ModelConfig(sizes[0], sizes[-1], add_limit, rem_limit, variant)
    return build_model(config, [MdpState(v, reward=float(r)) for v, r in rewards.items()], current)


def best_moves(model):
    """`best_move` at every state of `model`, keyed by state."""
    arrivals = reward_arrivals(model)
    return {key: best_move(model, state, arrivals) for key, state in model.states.items()}


class TestBestMove:
    def test_climbs_to_best_reward(self):
        model = chain({3: 1, 4: 2, 5: 3})
        assert best_moves(model)[(4, 0)] == (3.0, Action(ADD, 1))

    def test_descends_when_removal_pays(self):
        model = chain({3: 5, 4: 2, 5: 3})
        assert best_moves(model)[(4, 0)] == (5.0, Action(REM, 1))

    def test_weighted_branch_value(self):
        # Expected value across behavior clusters of the target size:
        # max(6, 0.7*10 + 0.3*0) = 7.
        config = ModelConfig(3, 4, add_limit=1, rem_limit=1, variant=Variant.M2, k=2)
        states = [MdpState(3, reward=6.0), MdpState(4, 0, 0.7, reward=10.0), MdpState(4, 1, 0.3)]
        model = build_model(config, states, current=3)
        value, action = best_moves(model)[(3, 0)]
        assert value == pytest.approx(7.0, abs=1e-12)
        assert action == Action(ADD, 1)
        oracle_value, _ = brute_force_oracle(model)[(3, 0)]
        assert oracle_value == pytest.approx(7.0, abs=1e-12)

    def test_two_step_path_through_a_worse_state(self):
        # A far state's high reward justifies stepping through a state
        # worse than the current one.
        model = chain({3: 1, 4: 5, 5: 1, 6: 3, 7: 9}, add_limit=2)
        values = best_moves(model)
        value, action = values[(4, 0)]
        assert value == 9.0
        assert action.kind is ADD
        # The add_2 -> add_1 strategy via s6 attains the same optimum.
        via_s6, _ = values[(6, 0)]
        assert via_s6 == 9.0

    def test_value_never_below_state_reward(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            model = random_instance(rng)
            values = best_moves(model)
            for key, state in model.states.items():
                assert values[key][0] >= state.reward - 1e-12

    def test_decide_clips_the_best_move(self):
        # `decide` is `best_move` clipped, at the initial state or any other.
        rng = np.random.default_rng(8)
        for _ in range(50):
            model = random_instance(rng)
            arrivals = reward_arrivals(model)
            for state in model.states.values():
                value, action = best_move(model, state, arrivals)
                clipped, bounded = clip_action(action, model.config)
                decision = decide(model, state, arrivals)
                assert (decision.expected_utility, decision.action) == (value, clipped)
                assert decision.bounded == bounded
            assert decide(model) == decide(model, model.initial, arrivals)

    def test_cycle_guard(self, tmp_path, capsys):
        # The solver never reads the transition map, so a map that breaks
        # the size order is refused where maps enter: loading a dump, which
        # `query --model-dump` does before it answers.
        model = chain({3: 1, 4: 2, 5: 3})
        # An "add" that fails to grow the cluster would make the graph cyclic.
        text = model.dump()
        assert text.count("trans s4 add_1 s5 1.0") == 1
        text = text.replace("trans s4 add_1 s5 1.0", "trans s4 add_1 s4 1.0")
        message = "model dump line 9: expected 'trans s4 add_1 s5 1.0'"
        with pytest.raises(InstantiationError) as refused:
            MdpModel.loads(text)
        assert str(refused.value) == message

        dump = tmp_path / "broken.txt"
        dump.write_text(text, encoding="utf-8")
        assert cli.main(["query", "Pmax=? [ F vms_num=5 ]", "--model-dump", str(dump)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"


class TestDecide:
    def test_all_rewards_equal_prefers_no_op(self):
        model = chain({3: 2, 4: 2, 5: 2}, add_limit=2, rem_limit=2)
        assert decide(model).action == NO_OP

    def test_unique_argmax(self):
        model = chain({3: 1, 4: 2, 5: 1, 6: 9}, add_limit=2, current=4)
        decision = decide(model)
        assert decision.action == Action(ADD, 2)
        assert decision.expected_utility == 9.0
        assert not decision.bounded

    def test_tie_prefers_larger_step_toward_the_optimum(self):
        # add_1 ties with add_2 (its value comes from continuing to s6);
        # the whole move is taken at once.
        model = chain({3: 1, 4: 1, 5: 9, 6: 9}, add_limit=2, current=4)
        assert decide(model).action == Action(ADD, 2)

    def test_tie_prefers_rem_over_add(self):
        model = chain({3: 9, 4: 1, 5: 9}, add_limit=1, rem_limit=1, current=4)
        assert decide(model).action == Action(REM, 1)

    def test_all_targets_action_clipped_to_limit(self):
        config = ModelConfig(3, 9, add_limit=3, rem_limit=2, variant=Variant.M3)
        states = [MdpState(v, reward=50.0 if v == 9 else 1.0) for v in config.sizes]
        model = build_model(config, states, current=4)
        decision = decide(model)
        assert decision.action == Action(ADD, 3)
        assert decision.bounded
        assert decision.expected_utility == 50.0

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            model = random_instance(rng)
            assert decide(model) == decide(model)


def rebuild(model, variant):
    """The same sizes, limits, rewards and weights as another variant."""
    config = dataclasses.replace(model.config, variant=variant)
    return build_model(config, model.ordered_states(), model.initial.vms_num)


def with_rewards(model, reward_of):
    """`model` with each state's reward replaced by `reward_of(state)`."""
    states = {key: dataclasses.replace(s, reward=reward_of(s)) for key, s in model.states.items()}
    return dataclasses.replace(model, states=states, initial=states[model.initial.key])


def first_move_value(model, key, action):
    """Value of taking `action` first at `key`, by the brute-force tree."""
    return sum(
        p * _tree_value(model, target, action.kind)
        for target, p in model.outcome_distribution(key, action)
    )


class TestM3TieBreak:
    def test_m3_decides_like_m2_except_on_ties(self):
        rng = np.random.default_rng(2024)
        for _ in range(150):
            model = random_instance(rng)
            m2, m3 = rebuild(model, Variant.M2), rebuild(model, Variant.M3)
            v2, v3 = best_moves(m2), best_moves(m3)
            for key in model.states:
                (best2, a2), (best, a3) = v2[key], v3[key]
                assert best == pytest.approx(best2, rel=0.0, abs=1e-12)
                if a2 != a3:
                    # M2's choice is an optimum of M3 too; M3 took a tied
                    # action that comes first in the tie-break order.
                    tol = TIE_TOL * max(1.0, abs(best))
                    assert abs(first_move_value(m3, key, a2) - best) <= tol
                    assert tie_break_key(a3) < tie_break_key(a2)

    def test_m3_clips_a_larger_tied_step(self):
        # Found by a seeded search over small integer rewards.  From s5,
        # rem_1 (to s4) and add_1 (on to s8) tie at 2: M2 removes.  M3 can
        # reach s8 in one add_3, the largest tied step, clipped to add_1.
        config = ModelConfig(4, 8, add_limit=1, rem_limit=2, variant=Variant.M2)
        rewards = {4: 2.0, 5: 0.0, 6: 0.0, 7: 1.0, 8: 2.0}
        m2 = build_model(config, [MdpState(v, reward=r) for v, r in rewards.items()], current=5)
        m3 = rebuild(m2, Variant.M3)
        d2 = decide(m2)
        assert (d2.action, d2.expected_utility, d2.bounded) == (Action(REM, 1), 2.0, False)
        assert best_moves(m3)[(5, 0)][1] == Action(ADD, 3)
        d3 = decide(m3)
        assert (d3.action, d3.expected_utility, d3.bounded) == (Action(ADD, 1), 2.0, True)


class TestOracleAgreement:
    def test_values_and_actions_match(self):
        rng = np.random.default_rng(123)
        for _ in range(150):
            model = random_instance(rng)
            dp = best_moves(model)
            oracle = brute_force_oracle(model)
            assert oracle.keys() == dp.keys()
            for key, (value, action) in dp.items():
                assert value == pytest.approx(oracle[key][0], abs=1e-9)
                assert action == oracle[key][1]

    def test_single_state_model(self):
        model = chain({4: 3.5}, current=4)
        assert brute_force_oracle(model) == {(4, 0): (3.5, NO_OP)}
        assert best_moves(model) == {(4, 0): (3.5, NO_OP)}

    def test_oracle_refuses_large_models(self):
        config = ModelConfig(1, 40, variant=Variant.M2, k=3)
        states = [MdpState(v, i, 1 / 3, reward=i + 1.0) for v in config.sizes for i in range(3)]
        model = build_model(config, states, current=5)
        with pytest.raises(SolverError, match="test-scale"):
            brute_force_oracle(model)


class TestSolverProperties:
    def test_reward_bump_never_lowers_values(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            model = random_instance(rng)
            base = best_moves(model)
            key = list(model.states)[int(rng.integers(len(model.states)))]
            bump = float(rng.uniform(0.1, 5.0))
            bumped_model = with_rewards(
                model, lambda s: s.reward + bump if s.key == key else s.reward
            )
            assert bumped_model.states[key].reward == model.states[key].reward + bump
            bumped = best_moves(bumped_model)
            for k in model.states:
                assert bumped[k][0] >= base[k][0] - 1e-12

    def test_scale_equivariance(self):
        # Powers of two scale floats exactly, so values and the chosen
        # action must match exactly.
        rng = np.random.default_rng(43)
        for _ in range(30):
            model = random_instance(rng)
            base = best_moves(model)
            scale = float(2 ** int(rng.integers(1, 6)))
            scaled = best_moves(with_rewards(model, lambda s: s.reward * scale))
            for k, (value, action) in base.items():
                assert scaled[k] == (value * scale, action)


def latency_below(threshold):
    return lambda state: state.center is not None and state.center[0] < threshold


class TestReachability:
    def test_guaranteed_chain(self):
        model = chain({4: 1, 5: 1, 6: 1, 7: 1}, add_limit=1, current=4)
        query = ReachabilityQuery("max", lambda s: s.vms_num == 7)
        assert reachability_probability(model, query) == 1.0

    def test_unsatisfiable_predicate(self):
        model = chain({4: 1, 5: 1}, current=4)
        for mode in ("max", "min"):
            query = ReachabilityQuery(mode, lambda s: s.vms_num == 99)
            assert reachability_probability(model, query) == 0.0

    def test_branch_probability(self):
        # The only route to satisfaction passes a 0.7/0.3 branch.
        config = ModelConfig(3, 4, add_limit=1, rem_limit=1, variant=Variant.M2, k=2)
        states = [
            MdpState(3, 0, 1.0, (50.0, 500.0), reward=1.0),
            MdpState(4, 0, 0.7, (25.0, 900.0), reward=1.0),
            MdpState(4, 1, 0.3, (80.0, 100.0), reward=1.0),
        ]
        model = build_model(config, states, current=3)
        query = ReachabilityQuery("max", latency_below(30.0))
        assert reachability_probability(model, query) == pytest.approx(0.7, abs=1e-12)
        assert brute_force_reachability(model, query) == pytest.approx(0.7, abs=1e-12)

    def test_min_is_zero_unless_initially_satisfied(self):
        model = chain({4: 1, 5: 1, 6: 1}, current=5)
        assert (
            reachability_probability(model, ReachabilityQuery("min", lambda s: s.vms_num == 6))
            == 0.0
        )
        assert (
            reachability_probability(model, ReachabilityQuery("min", lambda s: s.vms_num == 5))
            == 1.0
        )

    def test_results_in_unit_interval_and_min_below_max(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            model = random_instance(rng)
            cutoff = float(rng.uniform(5.0, 120.0))
            pmax = reachability_probability(model, ReachabilityQuery("max", latency_below(cutoff)))
            pmin = reachability_probability(model, ReachabilityQuery("min", latency_below(cutoff)))
            assert 0.0 <= pmin <= pmax <= 1.0

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            model = random_instance(rng)
            cutoff = float(rng.uniform(5.0, 120.0))
            for mode in ("max", "min"):
                query = ReachabilityQuery(mode, latency_below(cutoff))
                assert reachability_probability(model, query) == pytest.approx(
                    brute_force_reachability(model, query), abs=1e-9
                )

    def test_default_store_answers_are_probabilities(self, capsys):
        # A size's weights may add to a rounding error over 1, and the sums
        # of arrivals with them; 2570 of these answers read above 1 uncapped.
        config = parse_config(default_config_ini())
        store = build_store(config, load_dataset(config))
        queries = [
            parse_query(text)
            for text in (
                "Pmax=? [ F vms_num=7 ]",
                "Pmax=? [ F latency<30 & vms_num=7 ]",
                "Pmin=? [ F latency<60 ]",
                "Pmax=? [ F throughput>=20000 & latency<60 ]",
                "Pmin=? [ F vms_num<=6 ]",
            )
        ]
        answers = 0
        for kind in (PolicyKind.MDP_MB, PolicyKind.MDP2, PolicyKind.MDP3):
            for load in range(1000, 46001, 500):
                for vms in config.model.sizes:
                    model, _ = instantiate_model(
                        kind, store, float(load), vms, None,
                        config.model, config.utility, config.clustering,
                    )
                    for query in queries:
                        assert 0.0 <= reachability_probability(model, query) <= 1.0
                        answers += 1
        assert answers == 17745
        assert cli.main(["query", "Pmax=? [ F vms_num=7 ]"]) == 0
        assert capsys.readouterr().out == "1.0\n"


class TestClosedForms:
    """Pmin and target-free Pmax are answered without the sweep."""

    def test_pmin_is_whether_the_initial_state_satisfies(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            model = random_instance(rng)
            keys = sorted(model.states)
            sat = {key for key in keys if rng.random() < 0.4}
            query = ReachabilityQuery("min", lambda state: state.key in sat)
            answer = reachability_probability(model, query)
            assert answer == float(query.predicate(model.initial))
            assert answer == brute_force_reachability(model, query)

    def test_pmax_without_a_target_at_another_size_skips_the_sweep(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(solver, "_arrival_values", no_sweep)
        rng = np.random.default_rng(6)
        for _ in range(200):
            model = random_instance(rng)
            initial = model.initial
            at_initial_size = {
                key for key in model.states if key[0] == initial.vms_num and key != initial.key
            }
            for sat in (set(), at_initial_size):
                query = ReachabilityQuery("max", lambda state: state.key in sat)
                assert reachability_probability(model, query) == 0.0
                assert brute_force_reachability(model, query) == 0.0

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_a_state_without_center_at_another_size_still_raises(self, mode):
        config = ModelConfig(4, 6, variant=Variant.M2, k=2)
        states = [
            MdpState(4, 0, 0.5, (50.0, 900.0), reward=1.0),
            MdpState(4, 1, 0.5, (20.0, 900.0), reward=1.0),
            MdpState(5, 0, 1.0, (40.0, 900.0), reward=1.0),
            MdpState(6, reward=1.0),
        ]
        model = build_model(config, states, current=4)
        query = parse_query(f"P{mode}=? [ F latency<30 ]")
        with pytest.raises(QueryEvaluationError, match="s6 carries no behavior center"):
            reachability_probability(model, query)


@st.composite
def tied_models(draw):
    """A model of any variant, span <= 12 and k <= 4, whose rewards come
    from {-1, 0, 2.5}, so arrivals tie often, and whose weights are
    member counts over a size's total, as clustering makes them."""
    min_vms = draw(st.integers(1, 6))
    max_vms = min_vms + draw(st.integers(0, 12))
    variant = draw(st.sampled_from(list(Variant)))
    k = 1 if variant is Variant.M1 else draw(st.integers(1, 4))
    config = ModelConfig(
        min_vms, max_vms, draw(st.integers(1, 4)), draw(st.integers(1, 4)), variant, k
    )
    states = []
    for size in config.sizes:
        members = draw(st.lists(st.integers(1, 9), min_size=1, max_size=k))
        states += [
            MdpState(
                size, index, count / sum(members), (float(index), 0.0),
                draw(st.sampled_from([-1.0, 0.0, 2.5])),
            )
            for index, count in enumerate(members)
        ]
    return build_model(config, states, draw(st.sampled_from(config.sizes)))


class TestLinearSweepMatchesQuadratic:
    """`_arrival_values` against the `max` arrivals of the quadratic sweep
    in `reference_arrivals`, and `reachability_probability` in both modes
    against the reference's full-sweep answer: equal bit for bit, once the
    reference's probability is capped at 1.0 as the package's is."""

    @settings(max_examples=400, deadline=None)
    @given(tied_models(), st.sampled_from(["max", "min"]), st.data())
    def test_arrivals_and_probabilities(self, model, mode, data):
        keys = sorted(model.states)
        final = data.draw(st.sets(st.sampled_from(keys)))
        sat = data.draw(st.sets(st.sampled_from(keys)))
        sweeps = [
            (attrgetter("reward"), final),
            (attrgetter("reward"), ()),
            (lambda state: float(state.key in sat), sat),
        ]
        for payoff, ends in sweeps:
            new = _arrival_values(model, payoff, ends)
            old = reference_arrivals._arrival_values(model, payoff, ends, max)
            assert new == old and repr(new) == repr(old)
        query = ReachabilityQuery(mode, lambda state: state.key in sat)
        new = reachability_probability(model, query)
        old = min(1.0, reference_arrivals.reachability_probability(model, query))
        assert new == old and repr(new) == repr(old)
