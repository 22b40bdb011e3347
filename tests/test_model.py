import copy
import dataclasses
import pickle
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastimdp import model as model_module
from elastimdp.errors import ConfigurationError, ElastimdpError, InstantiationError
from elastimdp.model import (
    Action,
    ActionKind,
    MdpModel,
    MdpState,
    ModelConfig,
    NO_OP,
    Variant,
    build_model,
    implied_transitions,
    validate_model,
)
from elastimdp.queries import parse_query
from elastimdp.solver import decide, reachability_probability

import reference_dump
from helpers import type_distribution
from instances import random_instance

ADD = ActionKind.ADD
REM = ActionKind.REM


def chain_model(min_vms=3, max_vms=7, add_limit=2, rem_limit=1, current=4):
    config = ModelConfig(min_vms, max_vms, add_limit, rem_limit)
    return build_model(config, [MdpState(v, reward=float(v)) for v in config.sizes], current)


# A 3..5 M2 model whose size 4 has two behaviors.
TWO_BEHAVIOR_CONFIG = ModelConfig(3, 5, add_limit=2, rem_limit=1, variant=Variant.M2, k=2)
TWO_BEHAVIOR_STATES = (
    MdpState(3, reward=1.0),
    MdpState(4, 0, 0.6, reward=2.0),
    MdpState(4, 1, 0.4, reward=3.0),
    MdpState(5, reward=4.0),
)


def edited_dump(model, old, new):
    """`model`'s dump with the one occurrence of `old` replaced."""
    text = model.dump()
    assert text.count(old) == 1, old
    return text.replace(old, new)


def refusal(text):
    """The message `MdpModel.loads` refuses `text` with."""
    with pytest.raises(InstantiationError) as refused:
        MdpModel.loads(text)
    return str(refused.value)


class TestSingleBehaviorModel:
    def test_state_count(self):
        model = chain_model()
        assert len(model.states) == 5
        assert [s.label for s in model.ordered_states()] == ["s3", "s4", "s5", "s6", "s7"]
        assert model.initial.label == "s4"

    def test_add_matrix(self):
        model = chain_model()
        expected = {
            3: {(4, 0): 0.5, (5, 0): 0.5},
            4: {(5, 0): 0.5, (6, 0): 0.5},
            5: {(6, 0): 0.5, (7, 0): 0.5},
            6: {(7, 0): 1.0},
            7: {},
        }
        for size, row in expected.items():
            assert type_distribution(model, (size, 0), ADD) == row

    def test_rem_matrix(self):
        model = chain_model()
        expected = {
            3: {},
            4: {(3, 0): 1.0},
            5: {(4, 0): 1.0},
            6: {(5, 0): 1.0},
            7: {(6, 0): 1.0},
        }
        for size, row in expected.items():
            assert type_distribution(model, (size, 0), REM) == row

    def test_no_op_identity(self):
        model = chain_model()
        for key in model.states:
            assert model.transitions[(key, NO_OP)] == ((key, 1.0),)

    def test_single_target_renormalizes(self):
        # add_limit=2 but only one valid target: the lone transition gets
        # the full probability.
        model = chain_model(min_vms=3, max_vms=4, current=3)
        assert type_distribution(model, (3, 0), ADD) == {(4, 0): 1.0}


class TestMultiBehaviorModel:
    def weights_model(self, add_limit=1):
        config = ModelConfig(3, 4, add_limit=add_limit, rem_limit=1, variant=Variant.M2, k=2)
        states = [
            MdpState(3, 0, 1.0, (20.0, 900.0), reward=6.0),
            MdpState(4, 0, 0.7, (25.0, 1100.0), reward=10.0),
            MdpState(4, 1, 0.3, (90.0, 300.0), reward=0.0),
        ]
        return build_model(config, states, current=3)

    def test_outcomes_follow_target_weights(self):
        model = self.weights_model()
        assert model.transitions[((3, 0), Action(ADD, 1))] == (((4, 0), 0.7), ((4, 1), 0.3))

    def test_transition_probability_is_share_times_weight(self):
        model = build_model(TWO_BEHAVIOR_CONFIG, TWO_BEHAVIOR_STATES, current=3)
        # Two adds from s3 split the type mass; each entry is share * weight.
        assert model.transitions[((3, 0), Action(ADD, 1))] == (
            ((4, 0), 0.5 * 0.6),
            ((4, 1), 0.5 * 0.4),
        )
        assert model.transitions[((3, 0), Action(ADD, 2))] == (((5, 0), 0.5),)
        assert type_distribution(model, (3, 0), ADD) == pytest.approx(
            {(4, 0): 0.3, (4, 1): 0.2, (5, 0): 0.5}
        )

    def test_state_labels_carry_behavior_suffix(self):
        model = self.weights_model()
        assert {s.label for s in model.ordered_states()} == {"s3", "s4a", "s4b"}

    def test_initial_state_matches_observation(self):
        config = ModelConfig(4, 5, add_limit=1, rem_limit=1, variant=Variant.M2, k=2)
        states = [
            MdpState(4, 0, 0.5, (20.0, 1000.0), reward=5.0),
            MdpState(4, 1, 0.5, (90.0, 200.0), reward=1.0),
            MdpState(5, 0, 1.0, (30.0, 1500.0), reward=2.0),
        ]
        near_slow = build_model(config, states, 4, current_behavior=(85.0, 250.0))
        assert near_slow.initial.key == (4, 1)
        near_fast = build_model(config, states, 4, current_behavior=(22.0, 950.0))
        assert near_fast.initial.key == (4, 0)

    def test_initial_defaults_to_heaviest_cluster(self):
        config = ModelConfig(4, 4, variant=Variant.M2, k=2)
        states = [MdpState(4, 0, 0.2, reward=1.0), MdpState(4, 1, 0.8, reward=2.0)]
        model = build_model(config, states, 4)
        assert model.initial.key == (4, 1)


class TestAllTargetsModel:
    def test_equal_probability_per_target(self):
        config = ModelConfig(3, 7, add_limit=2, rem_limit=1, variant=Variant.M3)
        model = build_model(config, [MdpState(v, reward=float(v)) for v in config.sizes], current=4)
        add = type_distribution(model, (4, 0), ADD)
        assert add == pytest.approx({(5, 0): 1 / 3, (6, 0): 1 / 3, (7, 0): 1 / 3})
        assert type_distribution(model, (4, 0), REM) == {(3, 0): 1.0}
        assert type_distribution(model, (7, 0), REM) == pytest.approx(
            {(v, 0): 0.25 for v in (3, 4, 5, 6)}
        )

    def test_action_counts(self):
        config = ModelConfig(3, 7, add_limit=2, rem_limit=1, variant=Variant.M3)
        model = build_model(config, [MdpState(v, reward=float(v)) for v in config.sizes], current=4)
        for size in config.sizes:
            actions = model.actions_from((size, 0))
            adds = sum(1 for a in actions if a.kind is ADD)
            rems = sum(1 for a in actions if a.kind is REM)
            noops = sum(1 for a in actions if a.kind is ActionKind.NO_OP)
            assert adds == config.max_vms - size
            assert rems == size - config.min_vms
            assert noops == 1


class TestBuildErrors:
    def test_current_out_of_range(self):
        config = ModelConfig(3, 7)
        with pytest.raises(ConfigurationError):
            build_model(config, [MdpState(v) for v in config.sizes], current=8)

    @pytest.mark.parametrize("missing, current", [(5, 4), (4, 4), (3, 7), (7, 3)])
    def test_a_size_without_states_is_refused(self, missing, current):
        config = ModelConfig(3, 7)
        states = [MdpState(v) for v in config.sizes if v != missing]
        with pytest.raises(InstantiationError, match=f"^no state of size {missing}$"):
            build_model(config, states, current)

    def test_states_outside_the_range_are_refused(self):
        config = ModelConfig(3, 4)
        states = [MdpState(3), MdpState(4), MdpState(5)]
        with pytest.raises(InstantiationError, match=r"^state s5 size outside \[3, 4\]$"):
            build_model(config, states, current=3)

    def test_a_key_given_twice_is_refused(self):
        config = ModelConfig(3, 4, variant=Variant.M2, k=2)
        states = [MdpState(3), MdpState(4, 0, 0.5), MdpState(4, 0, 0.5)]
        with pytest.raises(InstantiationError, match="share a"):
            build_model(config, states, current=3)

    def test_state_order_does_not_matter(self):
        # Equal weights tie; the tie goes to the lower behavior index, not
        # to the state listed first.
        config = ModelConfig(3, 4, variant=Variant.M2, k=2)
        states = [MdpState(3), MdpState(4, 0, 0.5, reward=1.0), MdpState(4, 1, 0.5, reward=2.0)]
        built = build_model(config, states, current=4)
        assert built.initial.key == (4, 0)
        reversed_ = build_model(config, states[::-1], current=4)
        assert reversed_ == built and reversed_.dump() == built.dump()

    def test_weights_must_sum_to_one(self):
        config = ModelConfig(3, 4, variant=Variant.M2, k=2)
        states = [MdpState(3), MdpState(4, 0, 0.5), MdpState(4, 1, 0.4)]
        with pytest.raises(InstantiationError, match="sum to 0.9"):
            build_model(config, states, current=3)

    def test_m1_rejects_multiple_behaviors(self):
        config = ModelConfig(3, 4)
        states = [MdpState(3, 0, 0.5), MdpState(3, 1, 0.5), MdpState(4)]
        with pytest.raises(InstantiationError):
            build_model(config, states, current=3)

    def test_bad_range_config(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(5, 3)
        with pytest.raises(ConfigurationError):
            ModelConfig(0, 3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda bad: [MdpState(5, reward=bad)],
            lambda bad: [MdpState(5, 0, 0.5, reward=bad), MdpState(5, 1, 0.5)],
            lambda bad: [MdpState(5, 0, 0.5), MdpState(5, 1, 0.5, reward=bad)],
        ],
        ids=["one-state", "first-behavior", "second-behavior"],
    )
    def test_non_finite_reward_names_its_size(self, entry, bad):
        config = ModelConfig(3, 6, variant=Variant.M2, k=2)
        states = [MdpState(v, reward=1.0) for v in config.sizes if v != 5] + entry(bad)
        with pytest.raises(InstantiationError, match="non-finite reward at size 5"):
            build_model(config, states, current=4)


class TestAction:
    def test_parsed_and_constructed_actions_are_one_dict_key(self):
        table = {Action(ADD, 2): "built", NO_OP: "stay"}
        assert table[Action.from_label("add_2")] == "built"
        assert table[Action.from_label("no_op")] == "stay"
        table[Action.from_label("add_2")] = "parsed"
        assert table == {Action(ADD, 2): "parsed", NO_OP: "stay"}
        assert hash(Action.from_label("rem_3")) == hash(Action(REM, 3))
        assert {Action(ADD, 1), Action(REM, 1), NO_OP} == {
            Action.from_label(label) for label in ("add_1", "rem_1", "no_op")
        }
        # equal kinds and deltas hash alike whatever the object; distinct
        # actions hash apart
        actions = [NO_OP] + [Action(kind, d) for kind in (ADD, REM) for d in (1, 2, 3)]
        assert len(set(actions)) == len({hash(a) for a in actions}) == 7
        assert [a.signed_delta for a in actions] == [0, 1, 2, 3, -1, -2, -3]
        assert dataclasses.replace(Action(ADD, 1), delta=2) in table


class TestValidation:
    """The model's constructor is the one structural check: a model that
    breaks an invariant cannot be built, replaced into or loaded."""

    def test_valid_model_yields_empty_report(self):
        assert validate_model(chain_model()).ok

    def test_bad_probability_mass(self):
        model = chain_model()
        # s6's weight scales s4's add_2 row: 0.5 * 0.8 would make add sum to 0.9.
        states = dict(model.states)
        states[(6, 0)] = dataclasses.replace(states[(6, 0)], weight=0.8)
        with pytest.raises(
            InstantiationError, match=r"^behavior weights at size 6 sum to 0.8, expected 1$"
        ):
            dataclasses.replace(model, states=states)
        # A dump cannot carry that mass on its own: its map must follow the weights.
        text = edited_dump(model, "trans s4 add_2 s6 0.5", "trans s4 add_2 s6 0.4")
        with pytest.raises(
            InstantiationError, match=r"^model dump line 13: expected 'trans s4 add_2 s6 0.5'$"
        ):
            MdpModel.loads(text)

    def test_monotonicity_violation(self):
        # A state holds no previous action that could contradict the
        # actions enabled at it (the solver locks the direction on paths).
        with pytest.raises(TypeError):
            dataclasses.replace(chain_model().states[(4, 0)], previous_action="rem")
        old, new = "reward=4.0 phase=decision prev=none", "reward=4.0 phase=decision prev=rem"
        text = edited_dump(chain_model(), old, new)
        assert refusal(text).startswith("model dump line 5: phase=decision prev=rem, but")

    def test_missing_no_op_loop(self):
        model = chain_model()
        assert model.transitions[((7, 0), NO_OP)] == (((7, 0), 1.0),)
        assert refusal(edited_dump(model, "trans s7 no_op s7 1.0", "trans s7 no_op s6 1.0")) == (
            "model dump line 24: expected 'trans s7 no_op s7 1.0'"
        )
        assert refusal(edited_dump(model, "trans s7 no_op s7 1.0\n", "")) == (
            "model dump line 24: expected 'trans s7 no_op s7 1.0', found the end of the dump"
        )
        # the message names the first differing line
        text = model.dump()
        for v in model.config.sizes:
            text = text.replace(f"no_op s{v} 1.0", f"no_op s{v} 0.5")
        assert refusal(text) == "model dump line 11: expected 'trans s3 no_op s3 1.0'"

    def test_accepted_state_must_be_terminal(self):
        # No state is an accepting end component: each is a decision state
        # whose no_op ends a path.
        with pytest.raises(TypeError):
            dataclasses.replace(chain_model().states[(4, 0)], phase_label="accepted")
        text = edited_dump(chain_model(), "reward=4.0 phase=decision", "reward=4.0 phase=accepted")
        assert refusal(text).startswith("model dump line 5: phase=accepted prev=none, but")

    def test_phase_order_violation(self):
        text = edited_dump(chain_model(), "reward=5.0 phase=decision", "reward=5.0 phase=control")
        assert refusal(text).startswith("model dump line 6: phase=control prev=none, but")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                {"states": {(5, 0): MdpState(5, reward=float("nan"))}},
                "^non-finite reward at size 5: nan$",
            ),
            (
                {"states": {(6, 0): MdpState(6, reward=-float("inf"))}},
                "^non-finite reward at size 6: -inf$",
            ),
            ({"states": {(5, 0): None}}, "^no state of size 5$"),
            (
                {"states": {(5, 0): MdpState(5, center=(float("inf"), 1.0))}},
                "^non-finite center at state s5: \\(inf, 1.0\\)$",
            ),
            ({"states": {(5, 0): MdpState(6)}}, "^state s6 is stored under key \\(5, 0\\)$"),
            ({"states": {(8, 0): MdpState(8)}}, "^state s8 size outside \\[3, 7\\]$"),
            (
                {"states": {(5, 1): MdpState(5, 1, weight=0.0)}},
                "^state s5b has behavior 1, but variant M1 with k=1 admits 1 per size$",
            ),
            ({"initial": MdpState(4, weight=0.5)}, "^initial state s4a not among model states$"),
        ],
        ids=[
            "nan-reward", "inf-reward", "no-size", "inf-center",
            "wrong-key", "outside-range", "m1-two-behaviors", "initial",
        ],
    )
    def test_constructor_refuses_a_broken_model(self, edit, message):
        # `edit` sets (or, with None, drops) entries of a field's mapping.
        model = chain_model()
        changes = {}
        for name, value in edit.items():
            if isinstance(value, MdpState):
                changes[name] = value
                continue
            changes[name] = {**getattr(model, name), **value}
            for key in [key for key, entry in value.items() if entry is None]:
                del changes[name][key]
        with pytest.raises(InstantiationError, match=message):
            dataclasses.replace(model, **changes)

    def test_negative_weights_are_refused(self):
        config = ModelConfig(3, 4, variant=Variant.M2, k=2)
        states = [MdpState(3), MdpState(4, 0, 1.5), MdpState(4, 1, -0.5)]
        with pytest.raises(
            InstantiationError, match=r"^behavior weight 1.5 of state s4a outside \[0, 1\]$"
        ):
            build_model(config, states, current=3)

    def two_behavior_model(self):
        return build_model(TWO_BEHAVIOR_CONFIG, TWO_BEHAVIOR_STATES, current=3)

    def test_m1_edited_dump_is_refused(self):
        text = edited_dump(self.two_behavior_model(), "variant=M2 k=2", "variant=M1 k=1")
        with pytest.raises(
            InstantiationError, match=r"^state s4b has behavior 1, but variant M1 with k=1 admits 1"
        ):
            MdpModel.loads(text)

    def test_behavior_outside_k_is_refused(self):
        text = self.two_behavior_model().dump()
        # the label must name the state its fields make
        seven = text.replace("vms=4 behavior=1", "vms=4 behavior=7")
        assert refusal(seven) == "model dump line 6: state s4b has the fields of s4h"
        assert refusal(seven.replace("s4b", "s4h")) == (
            "state s4h has behavior 7, but variant M2 with k=2 admits 2 per size"
        )
        twice = text.replace("s4a vms=4 behavior=0", "s4b vms=4 behavior=1")
        assert refusal(twice) == "model dump line 6: state s4b is defined twice"


class TestDump:
    def test_round_trip(self):
        model = chain_model()
        loaded = MdpModel.loads(model.dump())
        assert loaded.dump() == model.dump()
        assert loaded.initial.key == model.initial.key
        assert loaded.transitions == model.transitions
        assert loaded.states == model.states
        assert [s.reward for s in loaded.ordered_states()] == [3.0, 4.0, 5.0, 6.0, 7.0]

    def test_round_trip_multi_behavior(self):
        config = ModelConfig(3, 5, add_limit=2, rem_limit=2, variant=Variant.M2, k=2)
        states = [
            MdpState(3, 0, 1.0, (10.0, 500.0), reward=1.0),
            MdpState(4, 0, 1 / 3, (20.0, 600.0), reward=2.0),
            MdpState(4, 1, 2 / 3, reward=3.0),
            MdpState(5, reward=4.0),
        ]
        model = build_model(config, states, current=4)
        assert MdpModel.loads(model.dump()).dump() == model.dump()

    def test_rebuild_is_deterministic(self):
        a = chain_model().dump()
        b = chain_model().dump()
        assert a == b

    @pytest.mark.parametrize(
        "prefix, old, new, line, message",
        [
            ("state s4", " center=-", "", 5, "missing center="),
            ("trans s3 add_1", "add_1", "add_0", 9, "expected 'trans s3 add_1 s4 0.5'$"),
            ("trans s3 add_1", " s4 ", " s9 ", 9, "expected 'trans s3 add_1 s4 0.5'$"),
            ("state s4", "reward=4.0", "reward=abc", 5, "abc"),
            ("config", "min_vms=3 ", "", 2, "missing min_vms="),
            ("state s4", "reward=4.0", "reward=nan", 5, "non-finite"),
            ("state s5", "weight=1.0", "weight=inf", 6, "non-finite"),
            ("initial", "s4", "s4\ninitial s3", 4, "second initial line"),
            (
                "config", "k=1",
                "k=1\nconfig min_vms=3 max_vms=7 add_limit=1 rem_limit=1 variant=M1 k=1",
                3, "second config line",
            ),
        ],
    )
    def test_malformed_dump_names_its_line(self, prefix, old, new, line, message):
        lines = chain_model().dump().splitlines()
        n = next(i for i, text in enumerate(lines) if text.startswith(prefix))
        lines[n] = lines[n].replace(old, new)
        with pytest.raises(InstantiationError, match=f"line {line}: .*{message}"):
            MdpModel.loads("\n".join(lines))

    def test_trans_lines_are_compared_word_by_word_in_order(self):
        model = chain_model()
        # reordered lines and another spelling of the same probability
        reordered = edited_dump(
            model,
            "trans s4 add_1 s5 0.5\ntrans s4 add_2 s6 0.5",
            "trans s4 add_2 s6 0.5\ntrans s4 add_1 s5 0.5",
        )
        assert refusal(reordered) == "model dump line 12: expected 'trans s4 add_1 s5 0.5'"
        respelled = edited_dump(model, "trans s4 add_2 s6 0.5", "trans s4 add_2 s6 5e-1")
        assert refusal(respelled) == "model dump line 13: expected 'trans s4 add_2 s6 0.5'"
        # other whitespace between the words still loads
        spaced = edited_dump(model, "trans s4 add_2 s6 0.5", "  trans\ts4  add_2 s6 0.5 ")
        assert MdpModel.loads(spaced) == model


@st.composite
def config_and_states(draw):
    min_vms = draw(st.integers(min_value=1, max_value=6))
    span = draw(st.integers(min_value=0, max_value=13))
    variant = draw(st.sampled_from(list(Variant)))
    k = 1 if variant is Variant.M1 else draw(st.integers(min_value=1, max_value=4))
    config = ModelConfig(
        min_vms=min_vms,
        max_vms=min_vms + span,
        add_limit=draw(st.integers(min_value=1, max_value=4)),
        rem_limit=draw(st.integers(min_value=1, max_value=4)),
        variant=variant,
        k=k,
    )
    states = []
    for size in config.sizes:
        n = 1 if variant is Variant.M1 else draw(st.integers(min_value=1, max_value=k))
        raw = [draw(st.integers(min_value=1, max_value=9)) for _ in range(n)]
        total = sum(raw)
        states += [
            MdpState(
                size,
                index,
                weight=w / total,
                reward=draw(st.floats(min_value=-1, max_value=10, allow_nan=False)),
                center=draw(
                    st.none()
                    | st.tuples(
                        st.floats(min_value=1, max_value=500),
                        st.floats(min_value=0, max_value=1e5),
                    )
                ),
            )
            for index, w in enumerate(raw)
        ]
    current = draw(st.integers(min_value=config.min_vms, max_value=config.max_vms))
    return config, states, current


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(config_and_states())
    def test_type_mass_sums_to_one(self, instance):
        config, states, current = instance
        model = build_model(config, states, current)
        for key in model.states:
            for kind in (ADD, REM):
                dist = type_distribution(model, key, kind)
                if dist:
                    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
        assert validate_model(model).ok

    @settings(max_examples=60, deadline=None)
    @given(config_and_states())
    def test_state_counts(self, instance):
        config, states, current = instance
        model = build_model(config, states, current)
        assert sorted(model.states.values(), key=lambda s: s.key) == states
        if config.variant is Variant.M1:
            assert len(model.states) == config.max_vms - config.min_vms + 1

    @settings(max_examples=30, deadline=None)
    @given(config_and_states())
    def test_deterministic_rebuild(self, instance):
        config, states, current = instance
        assert build_model(config, states, current).dump() == build_model(
            config, states, current
        ).dump()


def map_violations(model):
    """Walk the explicit map: every (state, action type) carries mass 1, no
    entry is negative, and every target is a state inside the size range.
    The model's constructor makes these checks unnecessary; this oracle
    keeps them, independent of it."""
    cfg = model.config
    bad = []
    mass = {}
    for (key, action), row in model.transitions.items():
        for target, p in row:
            if p < 0:
                bad.append(f"negative probability at ({key}, {action.label})")
            if target not in model.states or not cfg.min_vms <= target[0] <= cfg.max_vms:
                bad.append(f"({key}, {action.label}) leads outside the model to {target}")
        mass[(key, action.kind)] = mass.get((key, action.kind), 0.0) + sum(p for _, p in row)
    bad += [
        f"probability mass {m!r} at ({key}, {kind.value})"
        for (key, kind), m in mass.items()
        if abs(m - 1.0) > 1e-9
    ]
    return bad


class TestImpliedMap:
    """A model's transition map is a view of its compact form, made on first
    read.  It must equal the map `implied_transitions` builds.  A dump's
    `trans` lines are written and checked from the rows (`size_rows`), so
    dumping and loading never build the map."""

    @settings(max_examples=60, deadline=None)
    @given(config_and_states())
    def test_built_map_equals_the_implied_map(self, instance):
        config, states, current = instance
        model = build_model(config, states, current)
        implied = implied_transitions(config, model.by_size)
        assert model.transitions == implied
        assert implied == model.transitions
        assert len(model.transitions) == len(implied)
        assert dict(model.transitions.items()) == implied
        loaded = MdpModel.loads(model.dump())
        assert loaded == model
        assert loaded.transitions == implied
        assert loaded.dump() == model.dump()
        assert validate_model(model).ok

    @settings(max_examples=30, deadline=None)
    @given(config_and_states())
    def test_dump_order_matches_a_scan_per_state(self, instance):
        # Differential: the `trans` lines rendered once per size's rows
        # against a scan of the explicit map, states in key order and each
        # state's actions by sort key.
        config, states, current = instance
        model = build_model(config, states, current)
        labels = {key: state.label for key, state in model.states.items()}
        expected = [
            f"trans {labels[key]} {action.label} {labels[target]} {p!r}"
            for key in sorted(model.states)
            for action in model.actions_from(key)
            for target, p in model.transitions[(key, action)]
        ]
        lines = model.dump().splitlines()
        assert [line for line in lines if line.startswith("trans ")] == expected

    @pytest.mark.parametrize("variant, k", [(Variant.M1, 1), (Variant.M2, 2), (Variant.M3, 2)])
    def test_map_is_built_on_first_read_only(self, monkeypatch, variant, k):
        calls = []
        real = model_module.implied_transitions
        monkeypatch.setattr(
            model_module,
            "implied_transitions",
            lambda config, states: calls.append(1) or real(config, states),
        )
        config = ModelConfig(3, 7, add_limit=2, rem_limit=1, variant=variant, k=k)
        weights = (1.0,) if k == 1 else (0.25, 0.75)
        states = [
            MdpState(v, i, w, (20.0 + i, 100.0 * v), reward=float(v * (i + 1)))
            for v in config.sizes
            for i, w in enumerate(weights)
        ]
        model = build_model(config, states, current=4)
        decide(model)
        reachability_probability(model, parse_query("Pmax=? [ F vms_num=6 ]"))
        # dumping, loading and validating read no map
        text = model.dump()
        loaded = MdpModel.loads(text)
        validate_model(model)
        validate_model(loaded)
        assert calls == []
        first = model.transitions[((4, 0), NO_OP)]
        assert calls == [1]
        assert model.transitions[((4, 0), NO_OP)] is first
        assert model.dump() == text
        assert calls == [1]
        assert loaded.transitions == model.transitions
        assert calls == [1, 1]
        # every entry shares its source state's key tuple
        assert all(key is loaded.states[key].key for key, _ in loaded.transitions)
        for built in (model, loaded):
            with pytest.raises(TypeError):
                built.transitions[((4, 0), NO_OP)] = first  # type: ignore[index]
            with pytest.raises(TypeError):
                del built.transitions[((4, 0), NO_OP)]  # type: ignore[attr-defined]

    @settings(max_examples=60, deadline=None)
    @given(config_and_states())
    def test_checked_models_pass_the_map_oracle(self, instance):
        # Differential: the constructor's checks against the map-walking
        # oracle, on built and on round-tripped models; dumping, loading
        # and validation read no map.
        calls = []
        real = model_module.implied_transitions
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                model_module,
                "implied_transitions",
                lambda config, states: calls.append(1) or real(config, states),
            )
            built = build_model(*instance)
            assert validate_model(built).ok
            loaded = MdpModel.loads(built.dump())
            assert validate_model(loaded).ok
            assert calls == []
            assert map_violations(built) == map_violations(loaded) == []
            assert calls == [1, 1]

    def test_validation_reports_a_model_changed_after_construction(self):
        model = chain_model()
        changed = copy.copy(model)  # copies skip the constructor
        states = dict(model.states)
        states[(6, 0)] = dataclasses.replace(states[(6, 0)], weight=0.8)
        object.__setattr__(changed, "states", states)
        assert validate_model(changed).violations == (
            "behavior weights at size 6 sum to 0.8, expected 1",
        )
        assert map_violations(changed) == [
            "probability mass 0.9 at ((4, 0), add)",
            "probability mass 0.9 at ((5, 0), add)",
            "probability mass 0.8 at ((7, 0), rem)",
        ]
        assert map_violations(model) == []

    def test_hand_edited_map_still_fails_validation(self):
        model = build_model(TWO_BEHAVIOR_CONFIG, TWO_BEHAVIOR_STATES, current=3)
        # Same type mass, but the outcome ignores the target weights.
        text = edited_dump(
            model,
            "trans s3 add_1 s4a 0.3\ntrans s3 add_1 s4b 0.2",
            "trans s3 add_1 s4a 0.25\ntrans s3 add_1 s4b 0.25",
        )
        assert refusal(text) == "model dump line 8: expected 'trans s3 add_1 s4a 0.3'"
        assert validate_model(model).ok

    def test_copies_make_their_own_map(self):
        model = chain_model()
        first = model.transitions
        for copied in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
            assert copied == model
            assert copied.transitions == first and copied.transitions is not first

    def test_map_follows_replaced_states(self):
        model = build_model(TWO_BEHAVIOR_CONFIG, TWO_BEHAVIOR_STATES, current=3)
        assert model.transitions[((3, 0), Action(ADD, 1))] == (((4, 0), 0.3), ((4, 1), 0.2))
        states = dict(model.states)
        states[(4, 0)] = dataclasses.replace(states[(4, 0)], weight=0.25)
        states[(4, 1)] = dataclasses.replace(states[(4, 1)], weight=0.75)
        reweighted = dataclasses.replace(model, states=states)
        assert validate_model(reweighted).ok
        assert reweighted.transitions[((3, 0), Action(ADD, 1))] == (
            ((4, 0), 0.125),
            ((4, 1), 0.375),
        )
        text = reweighted.dump()
        assert "trans s3 add_1 s4a 0.125\ntrans s3 add_1 s4b 0.375\n" in text
        assert MdpModel.loads(text) == reweighted
        # the original keeps its own map
        assert model.transitions[((3, 0), Action(ADD, 1))] == (((4, 0), 0.3), ((4, 1), 0.2))


class TestState:
    def test_key_is_stored_and_follows_replace(self):
        state = MdpState(4, 1, weight=0.5)
        assert state.key == (4, 1)
        assert state.key is state.key
        assert dataclasses.replace(state, behavior_index=2).key == (4, 2)
        assert dataclasses.replace(MdpState(4), vms_num=7).key == (7, 0)

    def test_key_is_not_an_init_field(self):
        state = MdpState(4, 1, weight=0.5)
        assert "key" not in {field.name for field in dataclasses.fields(MdpState) if field.init}
        with pytest.raises(TypeError):
            MdpState(4, 1, key=(4, 1))
        assert "key" not in repr(state)
        other = MdpState(4, 1, weight=0.5)
        object.__setattr__(other, "key", (9, 9))
        assert other == state and hash(other) == hash(state)

    def test_slotted_state_copies_carry_the_key(self):
        state = MdpState(5, 2, weight=0.25, center=(30.0, 900.0), reward=-1.5)
        assert not hasattr(state, "__dict__")
        for copied in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
            assert copied == state and copied.key == (5, 2)
        assert dataclasses.replace(state, behavior_index=0).key == (5, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.key = (1, 1)


class TestMoves:
    def test_moves_are_the_sized_actions_of_the_map_at_every_state(self):
        # Differential: the solver and the RL policy enumerate
        # `ModelConfig.moves`; the oracles scan the explicit map.  Both
        # must list every delta whose target is in range and, except on
        # M3, within the per-step limit, in sort-key order.
        rng = np.random.default_rng(1606)
        states = dict.fromkeys(Variant, 0)
        for _ in range(200):
            model = random_instance(rng)
            cfg = model.config
            states[cfg.variant] += len(model.states)
            for (size, _), state in model.states.items():
                moves = cfg.moves(size)
                sized = [a for a in model.actions_from(state.key) if a.kind is not ActionKind.NO_OP]
                assert moves == sized
                spec = [
                    Action(kind, delta)
                    for kind, limit in ((ADD, cfg.add_limit), (REM, cfg.rem_limit))
                    for delta in range(1, cfg.max_vms - cfg.min_vms + 1)
                    if cfg.min_vms <= size + (delta if kind is ADD else -delta) <= cfg.max_vms
                    and (cfg.variant is Variant.M3 or delta <= limit)
                ]
                assert moves == spec
        assert min(states.values()) > 100

    def test_moves_share_one_action_each(self):
        config = ModelConfig(1, 9, add_limit=3, rem_limit=2, variant=Variant.M3)
        for size in config.sizes:
            again = config.moves(size)
            assert all(a is b for a, b in zip(config.moves(size), again, strict=True))


def dump_tokens(text):
    """Every word and every `key=value` value of a dump."""
    return sorted({w.partition("=")[2] or w for line in text.splitlines() for w in line.split()})


# Replacement tokens beyond the dump's own words: junk, edge values, and
# sizes far outside any test range.
EDIT_TOKENS = ("bogus", "", "-1", "0", "0.5", "2", "nan", "1e308", "3000000", "s99", "add_0", "rem_9")


@st.composite
def edited_dumps(draw):
    """A real dump with one to three random line edits: delete a line,
    duplicate it, or replace one of its words or `key=value` values."""
    config, states, current = draw(config_and_states())
    text = build_model(config, states, current).dump()
    pool = EDIT_TOKENS + tuple(dump_tokens(text))
    lines = text.splitlines()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        edit = draw(st.sampled_from(("delete", "duplicate", "word", "value")))
        if edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        else:
            words = lines[i].split()
            j = draw(st.integers(min_value=0, max_value=len(words) - 1))
            new = draw(st.sampled_from(pool))
            name, sep, _ = words[j].partition("=")
            words[j] = f"{name}={new}" if edit == "value" and sep else new
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


def cut_after(model, size):
    """`model`'s dump lines up to the `trans` lines of sources larger than
    `size`."""
    kept = {state.label for state in model.states.values() if state.vms_num <= size}
    return [
        line for line in model.dump().splitlines()
        if not line.startswith("trans ") or line.split()[1] in kept
    ]


class TestDumpBoundary:
    """Whatever a dump holds, loading either refuses it with a typed error
    or yields a valid model that the solver decides and queries on."""

    @settings(max_examples=300, deadline=None)
    @given(edited_dumps())
    def test_edited_dump_is_refused_or_reported(self, text):
        try:
            model = MdpModel.loads(text)
        except ElastimdpError:
            return
        assert validate_model(model).ok
        decide(model)
        top = f"vms_num={model.config.max_vms}"
        reachability_probability(model, parse_query(f"Pmax=? [ F {top} ]"))
        reachability_probability(model, parse_query(f"Pmin=? [ F {top} ]"))

    def test_unknown_phase_is_refused(self):
        text = edited_dump(chain_model(), "reward=5.0 phase=decision", "reward=5.0 phase=bogus")
        assert refusal(text) == (
            "model dump line 6: phase=bogus prev=none, but every state has phase=decision prev=none"
        )

    @pytest.mark.parametrize(
        "case, message",
        [
            ("no s5", "no state of size 5$"),
            ("extra entry", "^model dump line 25: expected no further trans line$"),
            ("3M sizes", "no state of size 4$"),
            (
                "1500 states",
                "^model dump line 1504: expected 'trans s1 add_1 s2 0.00066711140760507',"
                " found the end of the dump$",
            ),
        ],
    )
    def test_loads_work_is_bounded_by_the_dump(self, case, message):
        lines = chain_model().dump().splitlines()
        if case == "no s5":
            lines = [line for line in lines if "s5" not in line.split()]
        elif case == "extra entry":
            lines.append("trans s7 add_1 s7 1.0")
        elif case == "3M sizes":
            config = ModelConfig(1, 3, variant=Variant.M3)
            states = [MdpState(v, reward=1.0) for v in config.sizes]
            lines = build_model(config, states, 1).dump().splitlines()
            lines[1] = lines[1].replace("max_vms=3", "max_vms=3000000")
        else:
            lines = [
                "mdpdump 1",
                "config min_vms=1 max_vms=1500 add_limit=3 rem_limit=2 variant=M3 k=1",
                "initial s1",
            ] + [
                f"state s{v} vms={v} behavior=0 weight=1.0 reward=1.0 phase=decision"
                " prev=none center=-"
                for v in range(1, 1501)
            ]
        started = time.perf_counter()
        with pytest.raises(InstantiationError, match=message):
            MdpModel.loads("\n".join(lines))
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("variant, k", [(Variant.M1, 1), (Variant.M2, 2), (Variant.M3, 4)])
    def test_a_cut_dump_renders_at_most_one_size_past_the_cut(self, monkeypatch, variant, k):
        config = ModelConfig(1, 9, add_limit=3, rem_limit=2, variant=variant, k=k)
        states = [MdpState(v, i, 1 / k, reward=float(v)) for v in config.sizes for i in range(k)]
        model = build_model(config, states, 4)
        size_rows = model_module.size_rows
        made = []

        def counted(*args):
            for size, rows in size_rows(*args):
                made.append(size)
                yield size, rows

        text = model.dump()
        monkeypatch.setattr(model_module, "size_rows", counted)
        assert MdpModel.loads(text) == model
        assert made == list(config.sizes)
        for size in config.sizes[:-1]:
            lines = cut_after(model, size)
            next_line = cut_after(model, size + 1)[len(lines)]
            # cut at the end of size `size`, and after the first line past it
            for text in ("\n".join(lines), "\n".join([*lines, next_line])):
                made.clear()
                with pytest.raises(InstantiationError, match="found the end of the dump$"):
                    MdpModel.loads(text)
                assert made == list(range(config.min_vms, size + 2))


def outcome(load, text):
    """What `load` makes of `text`: the model and its dump, or the type
    and message of the error it raises."""
    try:
        model = load(text)
    except Exception as exc:
        return type(exc), str(exc)
    return model, model.dump()


@st.composite
def respaced_dumps(draw):
    """A text from `edited_dumps` or a whole dump, maybe cut short, and a
    copy of it with other whitespace: tabs or doubled spaces between the
    words, blanks before and after them and blank lines after them, on
    some lines or on all, and LF or CRLF line ends."""
    whole = config_and_states().map(lambda instance: build_model(*instance).dump())
    lines = draw(edited_dumps() | whole).splitlines()
    if draw(st.booleans()):
        del lines[draw(st.integers(min_value=1, max_value=len(lines))) :]
    text = "\n".join(lines) + "\n"
    every = range(len(lines))
    chosen = every if draw(st.booleans()) else draw(st.sets(st.sampled_from(every), max_size=4))
    gap = draw(st.sampled_from((" ", "\t", "  ", " \t ")))
    lead = draw(st.sampled_from(("", " ", "\t ")))
    trail = draw(st.sampled_from(("", " ", " \t")))
    blank = draw(st.sampled_from(("", "\n", "\n \t\n")))
    for i in chosen:
        lines[i] = lead + gap.join(lines[i].split(" ")) + trail + blank
    end = draw(st.sampled_from(("\n", "\r\n")))
    return text, end.join(lines) + end


class TestReferenceDump:
    """The block renderer and loader against the line-at-a-time ones in
    `reference_dump`: the same dump, and the same model or the same error
    for every text."""

    @settings(max_examples=100, deadline=None)
    @given(config_and_states())
    def test_dump_is_the_reference_dump(self, instance):
        model = build_model(*instance)
        assert model.dump() == reference_dump.dump(model)

    @settings(max_examples=300, deadline=None)
    @given(respaced_dumps())
    def test_loads_agrees_with_the_reference(self, texts):
        for text in texts:
            assert outcome(MdpModel.loads, text) == outcome(reference_dump.parse_dump, text)


class TestDumpText:
    """Line ends and whitespace: what loads, and where a refusal points."""

    GOLDEN = (Path(__file__).parent / "data" / "reference_model_dump.txt").read_text(
        encoding="utf-8"
    )

    def test_crlf_golden_dump_loads(self):
        model = MdpModel.loads(self.GOLDEN)
        crlf = MdpModel.loads(self.GOLDEN.replace("\n", "\r\n"))
        assert crlf == model and crlf.dump() == self.GOLDEN

    def test_trailing_blank_lines_load(self):
        assert MdpModel.loads(self.GOLDEN + "\n \n\t\n\n") == MdpModel.loads(self.GOLDEN)

    def test_a_respaced_trans_line_keeps_its_place(self):
        model = build_model(TWO_BEHAVIOR_CONFIG, TWO_BEHAVIOR_STATES, 4)
        lines = model.dump().splitlines()
        # line 15 opens s4b's lines, in the middle of size 4's block
        assert lines[14] == "trans s4b add_1 s5 1.0"
        lines[14] = " trans\ts4b  add_1 s5 1.0\t"
        assert MdpModel.loads("\n".join(lines)) == model
        lines[14:16] = lines[15], lines[14]
        message = "model dump line 15: expected 'trans s4b add_1 s5 1.0'"
        assert refusal("\n".join(lines)) == message
        assert outcome(reference_dump.parse_dump, "\n".join(lines))[1] == message

    @pytest.mark.parametrize("tail", ["", "\n", "\n\n \n"])
    def test_a_dump_cut_mid_block_names_the_line_after_its_last(self, tail):
        model = build_model(TWO_BEHAVIOR_CONFIG, TWO_BEHAVIOR_STATES, 4)
        text = "\n".join(model.dump().splitlines()[:14]) + tail
        message = (
            "model dump line 15: expected 'trans s4b add_1 s5 1.0', found the end of the dump"
        )
        assert refusal(text) == message
        assert outcome(reference_dump.parse_dump, text)[1] == message
