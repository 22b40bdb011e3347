import copy
import dataclasses
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastimdp.emulator import (
    LoadProfile,
    TickRecord,
    LoadVariation,
    ScheduleConfig,
    SyntheticModelParams,
    emulate_state,
    environment_tape,
    gen_load,
    gen_synthetic_dataset,
    run_episode,
    TRACE_HEADER,
    trace_from_csv,
    trace_to_csv,
)
from elastimdp.errors import ConfigurationError, DataFormatError, ElastimdpError, NoDataError
from elastimdp.logs import LogStore, MeasurementRecord
from elastimdp.model import Action, ActionKind, ModelConfig
from elastimdp.policies import PolicyKind, make_policy
from elastimdp.rewards import ClusteringConfig, UtilityConfig, UtilityKind
from elastimdp.solver import PolicyDecision

import reference_dataset
from helpers import BoomStub, NoOpStub, decision_ticks

LV1 = LoadProfile()
LV2 = LoadProfile(variation=LoadVariation.LV2)
R1 = UtilityConfig(UtilityKind.R1, 60.0)


class TestLoadGeneration:
    def test_lv1_starts_at_minimum(self):
        assert gen_load(LV1, 0) == pytest.approx(1000.0)

    def test_lv2_starts_at_mean(self):
        assert gen_load(LV2, 0) == pytest.approx(23500.0)

    def test_quarter_period_reaches_the_mean(self):
        assert gen_load(LV1, LV1.period_ticks / 4) == pytest.approx(23500.0)

    def test_range_bounds(self):
        for t in range(0, 2 * LV1.period_ticks):
            load = gen_load(LV1, t)
            assert 1000.0 - 1e-9 <= load <= 46000.0 + 1e-9

    def test_lv2_is_lv1_shifted_by_quarter_period(self):
        shift = LV1.period_ticks / 4
        for t in range(0, 400, 7):
            assert gen_load(LV2, t) == pytest.approx(gen_load(LV1, t + shift), abs=1e-6)


class TestSyntheticDataset:
    def test_unsaturated_regime(self):
        params = SyntheticModelParams(noise_stddev_fraction=0.0, samples_per_point=1)
        records = gen_synthetic_dataset(params, [8], [2000.0])
        assert records[0].throughput == 2000.0
        assert records[0].latency_ms == pytest.approx(params.base_latency_ms, rel=0.01)

    def test_saturated_throughput_clamps(self):
        params = SyntheticModelParams(noise_stddev_fraction=0.0, samples_per_point=1)
        records = gen_synthetic_dataset(params, [4], [2 * 4 * params.per_vm_capacity])
        assert records[0].throughput == 4 * params.per_vm_capacity

    def test_latency_strictly_increases_with_load(self):
        params = SyntheticModelParams(noise_stddev_fraction=0.0, samples_per_point=1)
        grid = [1000.0 * i for i in range(1, 47)]
        for vms in (4, 9, 16):
            latencies = [r.latency_ms for r in gen_synthetic_dataset(params, [vms], grid)]
            assert all(b > a for a, b in zip(latencies, latencies[1:]))

    def test_samples_per_point(self):
        params = SyntheticModelParams(samples_per_point=5)
        records = gen_synthetic_dataset(params, [4, 5], [1000.0, 2000.0])
        assert len(records) == 2 * 2 * 5

    @pytest.mark.parametrize(
        "changes, loads, message",
        [
            ({"saturation_exponent": 1000.0}, [1000.0, 40000.0],
             "dataset.saturation_exponent=1000.0 with dataset.base_latency_ms=25.0 puts"
             " the synthetic latency at (vms=4, load=40000.0) out of float range"),
            ({"saturation_exponent": -1000.0}, [1000.0, 40000.0],
             "dataset.saturation_exponent=-1000.0 with dataset.base_latency_ms=25.0 puts"
             " the synthetic latency at (vms=4, load=1000.0) out of float range"),
            # 0.0 ** -1.0 raises ZeroDivisionError
            ({"saturation_exponent": -1.0}, [0.0],
             "dataset.saturation_exponent=-1.0 with dataset.base_latency_ms=25.0 puts"
             " the synthetic latency at (vms=4, load=0.0) out of float range"),
            ({"base_latency_ms": 1e308}, [1000.0, 40000.0],
             "dataset.saturation_exponent=2.5 with dataset.base_latency_ms=1e+308 puts"
             " the synthetic latency at (vms=4, load=40000.0) out of float range"),
            ({"noise_stddev_fraction": 1e308}, [1000.0, 40000.0],
             "synthetic latency 25.019256720620547 at (vms=4, load=1000.0) times a noise"
             " factor of dataset.noise_stddev_fraction=1e+308 is out of float range"),
            # seed 0 draws twelve throughput factors of order 1e300, some positive;
            # 4 VMs of 4.25e307 hold 1.7e308, and size 4's noise is refused
            # before size 5's capacity, which is out of float range
            ({"noise_stddev_fraction": 1e300, "per_vm_capacity": 4.25e307}, [1.7e308],
             "synthetic throughput 1.7e+308 at (vms=4, load=1.7e+308) times a noise"
             " factor of dataset.noise_stddev_fraction=1e+300 is out of float range"),
            ({"per_vm_capacity": 1e308}, [1000.0],
             "dataset.per_vm_capacity_reqs=1e+308 puts the capacity of 4 VMs out of"
             " float range"),
            ({"per_vm_capacity": 4e307}, [1000.0],
             "dataset.per_vm_capacity_reqs=4e+307 puts the capacity of 5 VMs out of"
             " float range"),
        ],
    )
    def test_out_of_range_values_name_the_parameters_and_point(self, changes, loads, message):
        params = dataclasses.replace(SyntheticModelParams(), **changes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the vector product warns of nothing
            with pytest.raises(ConfigurationError) as err:
                gen_synthetic_dataset(params, [4, 5], loads)
        assert str(err.value) == message


@settings(max_examples=120, deadline=None)
@given(
    noise=st.sampled_from([0.0, 0.05, 3.0]),
    samples=st.integers(1, 20),
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=5),
    # load 0 makes a zero throughput, which a negative draw turns into -0.0
    loads=st.lists(st.just(0.0) | st.floats(0.0, 2e5), min_size=1, max_size=6),
    exponent=st.floats(0.5, 4.0),
    seed=st.integers(0, 2**32),
    width=st.sampled_from([1e-3, 500.0, 2000.0]),
)
def test_dataset_matches_the_per_sample_draws(noise, samples, sizes, loads, exponent, seed, width):
    """The per-size draws make the records, to the sign of a zero, of two
    scalar draws per sample; the store buckets them as `bucket` does."""
    params = SyntheticModelParams(
        saturation_exponent=exponent, noise_stddev_fraction=noise, samples_per_point=samples
    )
    records = gen_synthetic_dataset(params, sizes, loads, seed=seed)
    expected = reference_dataset.gen_synthetic_dataset(params, sizes, loads, seed=seed)
    assert repr(records) == repr(expected)
    cells = LogStore(records, bucket_width=width)._buckets
    assert list(cells.items()) == list(reference_dataset.buckets(records, width).items())


def tick_record(**changes):
    fields = dict(
        tick=3, load=1000.0, vms=4, latency_ms=25.0, throughput=990.0,
        utility=1.5, violation=False, decision="add_1", decision_ms=0.25,
    )
    return TickRecord(**{**fields, **changes})


class TestTickRecord:
    def test_keyword_and_positional_construction_agree(self):
        record = tick_record()
        assert record == TickRecord(3, 1000.0, 4, 25.0, 990.0, 1.5, False, "add_1", 0.25)
        assert dataclasses.astuple(record) == (3, 1000.0, 4, 25.0, 990.0, 1.5, False, "add_1", 0.25)

    def test_repr(self):
        assert repr(tick_record()) == (
            "TickRecord(tick=3, load=1000.0, vms=4, latency_ms=25.0, throughput=990.0,"
            " utility=1.5, violation=False, decision='add_1', decision_ms=0.25)"
        )

    def test_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            tick_record().vms = 5

    def test_pickle_deepcopy_and_replace(self):
        record = tick_record()
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record
        assert dataclasses.replace(record, decision="") == tick_record(decision="")

    def test_equality_and_hash_follow_the_fields(self):
        assert tick_record() == tick_record() and hash(tick_record()) == hash(tick_record())
        assert tick_record() != tick_record(decision_ms=0.5)
        assert len({tick_record(), tick_record(), tick_record(vms=5)}) == 2


class TestEmulateState:
    def store(self):
        return LogStore(
            [
                MeasurementRecord(0, 4, 10000.0, 25.0, 9900.0),
                MeasurementRecord(1, 6, 20000.0, 35.0, 19000.0),
            ]
        )

    def test_exact_match_no_noise(self):
        record = self.store().select_logs(4, 10000.0).records[0]
        assert emulate_state(record, 1.0, 1.0) == (25.0, 9900.0)

    def test_missing_pair_uses_neighbors(self):
        record = self.store().select_logs(5, 14000.0).records[0]
        latency, throughput = emulate_state(record, 1.0, 1.0)
        assert (latency, throughput) in {(25.0, 9900.0), (35.0, 19000.0)}

    def test_empty_dataset(self):
        with pytest.raises(NoDataError):
            LogStore().select_logs(4, 1000.0)

    def test_noise_distribution(self):
        rng = np.random.default_rng(1234)
        store = self.store()
        record = store.select_logs(4, 10000.0).records[0]
        schedule = ScheduleConfig(horizon_ticks=10_000, emulation_noise_fraction=0.05)
        tape = environment_tape(store, LV1, schedule, R1, rng)
        draws = np.array([emulate_state(record, *noise) for _, _, *noise in tape.rows])
        # multiplicative N(1, 0.05): everything inside +-5 sigma for this seed
        assert np.all(draws[:, 0] > 25.0 * 0.75) and np.all(draws[:, 0] < 25.0 * 1.25)
        assert np.mean(draws[:, 0]) == pytest.approx(25.0, rel=0.01)
        assert np.mean(draws[:, 1]) == pytest.approx(9900.0, rel=0.01)


def default_store(noise=0.05, seed=9):
    params = SyntheticModelParams(noise_stddev_fraction=noise)
    grid = [1000.0 * i for i in range(1, 47)]
    return LogStore(gen_synthetic_dataset(params, range(4, 17), grid, seed=seed))


class TestRunEpisode:
    def schedule(self, horizon=315):
        return ScheduleConfig(horizon_ticks=horizon, emulation_noise_fraction=0.0)

    def test_decision_count(self):
        schedule = self.schedule(horizon=315)
        assert len(decision_ticks(schedule)) == 31
        trace = run_episode(NoOpStub(), LV1, default_store(), schedule, R1, rng_seed=1)
        assert sum(1 for r in trace.records if r.decision) == 31

    def test_no_op_policy_keeps_initial_size(self):
        trace = run_episode(NoOpStub(), LV1, default_store(), self.schedule(), R1, rng_seed=1)
        assert {r.vms for r in trace.records} == {4}
        assert trace.valid

    def test_reactive_policy_adds_under_overload(self):
        # a load far beyond what 4 VMs can absorb: latency > 60 ms at the
        # first decision, so the rule-based policy must add
        profile = LoadProfile(load_min=30000.0, load_max=40000.0)
        limits = ModelConfig(4, 16, add_limit=3, rem_limit=2)
        policy = make_policy(
            PolicyKind.RE, default_store(), limits, R1, ClusteringConfig(seed=1)
        )
        trace = run_episode(policy, profile, default_store(), self.schedule(105), R1, rng_seed=3)
        first = next(r for r in trace.records if r.decision)
        assert first.decision == "add_3"
        later_sizes = {r.vms for r in trace.records[first.tick + 1 :]}
        assert max(later_sizes) > 4

    def test_bit_reproducible_with_same_seed(self):
        schedule = ScheduleConfig(horizon_ticks=105, emulation_noise_fraction=0.05)
        store = default_store()
        limits = ModelConfig(4, 16)
        runs = [
            run_episode(
                make_policy(PolicyKind.MDP_EB, store, limits, R1, ClusteringConfig(seed=1)),
                LV1, store, schedule, R1, rng_seed=42,
            )
            for _ in range(2)
        ]
        # identical except for the wall-clock decision timing column
        strip = lambda r: dataclasses.replace(r, decision_ms=0.0)
        assert [strip(r) for r in runs[0].records] == [strip(r) for r in runs[1].records]

    def test_vms_stay_in_range(self):
        schedule = ScheduleConfig(horizon_ticks=210, emulation_noise_fraction=0.05)
        store = default_store()
        limits = ModelConfig(4, 16, add_limit=3, rem_limit=2)
        for kind in (PolicyKind.RE, PolicyKind.MDP_MB, PolicyKind.MDP3):
            policy = make_policy(kind, store, limits, R1, ClusteringConfig(seed=1))
            trace = run_episode(policy, LV1, store, schedule, R1, rng_seed=7)
            assert trace.valid, trace.error
            assert all(4 <= r.vms <= 16 for r in trace.records)

    def test_policy_failure_flags_partial_trace(self):
        trace = run_episode(BoomStub(), LV1, default_store(), self.schedule(50), R1, rng_seed=1)
        assert not trace.valid
        assert "boom" in trace.error
        assert 0 < len(trace.records) < 50

    @pytest.mark.parametrize("live", [False, True], ids=["tape", "live"])
    def test_overflowing_measurement_aborts_the_episode(self, live):
        # A latency near the float maximum overflows to inf under a noise
        # factor above about 1.057.
        store = LogStore([MeasurementRecord(0, 4, 10000.0, 1.7e308, 9000.0)])
        if live:
            store.uniform_count = None
        schedule = ScheduleConfig(horizon_ticks=100, emulation_noise_fraction=0.05)
        trace = run_episode(NoOpStub(), LV1, store, schedule, R1, rng_seed=1)
        assert not trace.valid
        assert trace.error.startswith("ValueError: ") and "inf" in trace.error
        assert 0 < len(trace.records) < schedule.horizon_ticks
        assert all(r.latency_ms < float("inf") for r in trace.records)
        assert bool(store.tape_memo) is not live

    def test_size_below_one_aborts_the_episode(self):
        class RemoveTen(NoOpStub):
            def decide(self, current):
                return PolicyDecision(action=Action(ActionKind.REM, 10), expected_utility=None)

        schedule = self.schedule(25)
        trace = run_episode(RemoveTen(), LV1, default_store(), schedule, R1, rng_seed=1)
        assert (trace.valid, trace.error) == (False, "ValueError: vms must be >= 1, got -6")
        assert [r.vms for r in trace.records] == [4] * (schedule.decision_every_ticks + 1)

    def test_vms_change_takes_effect_next_tick(self):
        profile = LoadProfile(load_min=30000.0, load_max=40000.0)
        limits = ModelConfig(4, 16, add_limit=3, rem_limit=2)
        policy = make_policy(
            PolicyKind.RE, default_store(), limits, R1, ClusteringConfig(seed=1)
        )
        trace = run_episode(policy, profile, default_store(), self.schedule(30), R1, rng_seed=3)
        decision_tick = next(r.tick for r in trace.records if r.decision == "add_3")
        assert trace.records[decision_tick].vms == 4
        assert trace.records[decision_tick + 1].vms == 7


class TestTraceCsv:
    def test_round_trip(self):
        trace = run_episode(
            NoOpStub(), LV1, default_store(),
            ScheduleConfig(horizon_ticks=25, emulation_noise_fraction=0.0), R1, rng_seed=1,
        )
        text = trace_to_csv(trace)
        parsed = trace_from_csv(text, policy=trace.policy)
        assert parsed == trace

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,1,2", "expected 9 fields, got 3"),
            ("0,1000.0,4,20.0,900.0,225.0,0,no_op,0.5,9", "expected 9 fields, got 10"),
            ("0,1000.0,four,20.0,900.0,225.0,0,no_op,0.5", "four"),
            ("0,1000.0,4,nan,900.0,225.0,0,no_op,0.5", "non-finite"),
            ("0,1000.0,4,20.0,900.0,225.0,0,no_op,inf", "non-finite"),
            # values no episode records
            ("0,1000.0,0,20.0,900.0,225.0,0,no_op,0.5", "vms must be >= 1, got 0"),
            ("0,1000.0,-3,20.0,900.0,225.0,0,no_op,0.5", "vms must be >= 1, got -3"),
            ("0,-1000.0,4,20.0,900.0,225.0,0,no_op,0.5", "load=-1000.0"),
            ("0,1000.0,4,-20.0,900.0,225.0,0,no_op,0.5", "latency_ms=-20.0"),
            ("0,1000.0,4,20.0,-900.0,225.0,0,no_op,0.5", "throughput=-900.0"),
            ("0,1000.0,4,20.0,900.0,225.0,7,no_op,0.5", "violation must be 0 or 1, got 7"),
            ("0,1000.0,4,20.0,900.0,225.0,-1,no_op,0.5", "violation must be 0 or 1, got -1"),
            ("0,1000.0,4,20.0,900.0,225.0,0,no_op,-0.5", "decision_ms must be >= 0, got -0.5"),
            ("-1,1000.0,4,20.0,900.0,225.0,0,no_op,0.5", "time must be >= 0, got -1"),
            ("0,1000.0,4,20.0,900.0,225.0,0,bogus,0.5", "not an action label: 'bogus'$"),
            ("0,1000.0,4,20.0,900.0,225.0,0,add_02,0.5", "not an action label: 'add_02'$"),
        ],
    )
    def test_malformed_row_names_its_line(self, row, message):
        good = "0,1000.0,4,20.0,900.0,225.0,0,,0.0"
        text = "\n".join([TRACE_HEADER, good, "", row, good]) + "\n"
        with pytest.raises(DataFormatError, match=f"trace line 4: .*{message}"):
            trace_from_csv(text)

    def test_wrong_header(self):
        with pytest.raises(DataFormatError, match="header"):
            trace_from_csv("tick,load\n0,1\n")


# Trace-CSV-like text: the header or a near miss, then rows made from a
# good row by replacing up to three fields with numbers in and out of an
# episode's bounds, words and separators.
GOOD_TRACE_ROW = ("0", "1000.0", "4", "20.0", "900.0", "225.0", "0", "no_op", "0.5")
TRACE_TOKENS = st.sampled_from(
    ["0", "1", "7", "-3", "-0.5", "1e999", "nan", "-inf", "add_2", "four", "", " ", ",",
     "\x00", "9" * 400]
)


def edited_row(edits) -> str:
    fields = list(GOOD_TRACE_ROW)
    for index, token in edits:
        fields[index] = token
    return ",".join(fields)


TRACE_TEXT = st.one_of(
    st.text(max_size=200),
    st.builds(
        lambda header, rows: header + "\n" + "\n".join(rows),
        st.sampled_from([TRACE_HEADER, "tick,load", TRACE_HEADER + ",extra"]),
        st.lists(
            st.lists(st.tuples(st.integers(0, 8), TRACE_TOKENS), max_size=3).map(edited_row),
            max_size=6,
        ),
    ),
)


@settings(max_examples=300, deadline=None)
@given(TRACE_TEXT)
def test_any_trace_text_parses_or_raises_a_typed_error(text):
    try:
        trace = trace_from_csv(text)
    except ElastimdpError:
        return
    for record in trace.records:
        assert record.vms >= 1 and record.tick >= 0 and record.decision_ms >= 0
        assert min(record.load, record.latency_ms, record.throughput) >= 0
        assert record.decision == "" or Action.from_label(record.decision).label == record.decision
    assert trace_from_csv(trace_to_csv(trace)).records == trace.records
