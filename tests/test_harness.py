import configparser
import contextlib
import csv
import dataclasses
import hashlib
import importlib.util
import io
import itertools
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastimdp import cli, emulator, harness, policies, solver
from elastimdp.emulator import (
    ExperimentTrace,
    LoadProfile,
    LoadVariation,
    ScheduleConfig,
    TickRecord,
    gen_load,
    trace_from_csv,
    trace_to_csv,
)
from elastimdp.errors import ConfigurationError, ElastimdpError
from elastimdp.harness import (
    MAX_GRID_LOADS,
    build_store,
    compute_metrics,
    default_config_ini,
    load_dataset,
    load_grid,
    parse_config,
    run_comparison,
    summary_csv,
    text_report,
    write_outputs,
)
from elastimdp.logs import (
    CSV_HEADER,
    LogStore,
    MeasurementRecord,
    read_records_csv,
    write_records_csv,
)
from elastimdp.model import MdpState, ModelConfig, build_model
from elastimdp.policies import MDP_KINDS, PolicyKind
from elastimdp.rewards import ClusteringConfig, UtilityConfig, UtilityKind, utility_eval

import reference_config
from helpers import AddThenBoomStub, BoomStub, decision_ticks, loads

# sha256 of the dumps of the default 2-run comparison's 112 solved models
DEFAULT_SOLVE_MEMO_SHA256 = "5ee5c7744a1e15cd3ea762b740d6777de0411fbd374b4f78efa33beb69ea773e"


def tick(t, lat, utility=1.0, vms=4, decision=""):
    return TickRecord(
        tick=t, load=10000.0, vms=vms, latency_ms=lat, throughput=8000.0,
        utility=utility, violation=lat > 60.0, decision=decision,
        decision_ms=1.0 if decision else 0.0,
    )


SMALL_INI_OVERRIDES = {
    "experiment.policies": "re, mdp_mb",
    "experiment.runs": "2",
    "schedule.horizon_ticks": "63",
    "clustering.k": "2",
    "dataset.samples_per_point": "2",
}


# Every key the config reads as a float.
FLOAT_KEYS = (
    "utility.latency_threshold_ms",
    "clustering.load_bucket_width_reqs",
    "load.load_min_reqs",
    "load.load_max_reqs",
    "postprocess.benefit_threshold_pct",
    "schedule.tick_seconds",
    "schedule.emulation_noise_fraction",
    "re.upper_latency_ms",
    "re.lower_latency_ms",
    "rl.alpha",
    "rl.gamma",
    "dataset.per_vm_capacity_reqs",
    "dataset.base_latency_ms",
    "dataset.saturation_exponent",
    "dataset.noise_stddev_fraction",
)

# Every key the config reads as an int, and every key it reads as a name
# from a fixed set.  With FLOAT_KEYS they are every key but dataset.path.
INT_KEYS = (
    "experiment.runs",
    "experiment.base_seed",
    "model.min_vms",
    "model.max_vms",
    "model.add_limit",
    "model.rem_limit",
    "clustering.k",
    "clustering.dims",
    "clustering.max_iterations",
    "clustering.seed",
    "load.period_ticks",
    "postprocess.smoothing_window_ticks",
    "schedule.decision_every_ticks",
    "schedule.horizon_ticks",
    "schedule.initial_vms",
    "re.step_size",
    "dataset.samples_per_point",
    "dataset.seed",
)
NAME_KEYS = ("experiment.policies", "utility.kind", "load.variation", "dataset.source")


def small_config(**extra):
    overrides = dict(SMALL_INI_OVERRIDES)
    overrides.update(extra)
    return parse_config(default_config_ini(), overrides)


class TestConfig:
    def test_defaults_follow_the_reference_setup(self):
        config = parse_config(default_config_ini())
        assert config.model == ModelConfig(4, 16, 3, 2)
        assert config.utility.latency_threshold_ms == 60.0
        assert config.clustering.k == 4
        assert config.load.period_ticks == 315
        assert config.schedule.decision_every_ticks == 10
        assert config.schedule.initial_vms == 4
        assert config.runs == 10
        assert len(config.policies) == 6

    def test_every_default_comes_from_the_built_in_ini(self):
        assert parse_config("") == parse_config(default_config_ini())
        assert parse_config("").clustering.seed == 7
        # an empty re.upper_latency_ms follows the utility threshold
        config = parse_config("[utility]\nlatency_threshold_ms = 80\n")
        assert config.re_config.upper_latency_ms == 80.0
        config = parse_config("", {"re.upper_latency_ms": "70"})
        assert config.re_config.upper_latency_ms == 70.0

    def test_overrides(self):
        config = small_config(**{"model.max_vms": "8", "rl.gamma": "0.9"})
        assert config.model.max_vms == 8
        assert config.rl_config.gamma == 0.9
        assert config.runs == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config key"):
            parse_config("[model]\nmni_vms = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config section"):
            parse_config(default_config_ini() + "\n[modle]\nmin_vms = 3\n")

    def test_duplicate_section_rejected(self):
        with pytest.raises(ConfigurationError, match="bad config syntax"):
            parse_config(default_config_ini() + "\n[model]\nmin_vms = 3\n")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            small_config(**{"experiment.policies": "re, mdp_xx"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError) as error:
            small_config(**{"model.min_vms": "three"})
        assert str(error.value) == (
            "bad config value: model.min_vms: invalid literal for int() with base 10: 'three'"
        )

    def test_the_key_lists_hold_every_key_but_the_dataset_path(self):
        defaults = configparser.ConfigParser(interpolation=None)
        defaults.read_string(default_config_ini())
        keys = {f"{section}.{key}" for section in defaults.sections() for key in defaults[section]}
        listed = FLOAT_KEYS + INT_KEYS + NAME_KEYS
        assert len(set(listed)) == len(listed)
        assert set(listed) == keys - {"dataset.path"}

    @pytest.mark.parametrize("key", FLOAT_KEYS + INT_KEYS + NAME_KEYS)
    def test_a_value_its_parser_refuses_names_its_key(self, key):
        # also fails for a key the defaults hold but nothing reads
        with pytest.raises(ConfigurationError, match=rf"(^|\W){re.escape(key)}\W"):
            small_config(**{key: "1.5x"})

    def test_initial_vms_must_be_in_range(self):
        with pytest.raises(ConfigurationError, match="initial_vms"):
            small_config(**{"schedule.initial_vms": "2"})

    def test_csv_source_requires_path(self):
        with pytest.raises(ConfigurationError, match="dataset.path"):
            small_config(**{"dataset.source": "csv"})

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("dataset.samples_per_point", "x", "^bad config value: {key}: "),
            ("dataset.samples_per_point", "zero", "^bad config value: {key}: "),
            ("dataset.per_vm_capacity_reqs", "nan", "^bad config value: {key}: "),
            ("dataset.samples_per_point", "0", "^samples_per_point must be >= 1$"),
        ],
    )
    def test_csv_source_checks_the_synthetic_keys(self, key, value, message):
        message = message.format(key=re.escape(key))
        overrides = {"dataset.source": "csv", "dataset.path": "logs.csv", key: value}
        with pytest.raises(ConfigurationError, match=message):
            parse_config(default_config_ini(), overrides)
        with pytest.raises(ConfigurationError):
            reference_config.parse_config(default_config_ini(), overrides)

    @pytest.mark.parametrize(
        "key", ["dataset.seed", "experiment.base_seed", "clustering.seed"]
    )
    def test_negative_seed_rejected(self, key):
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            small_config(**{key: "-3"})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_key_rejected(self, key, value):
        with pytest.raises(ConfigurationError, match=f"{key}: non-finite"):
            small_config(**{key: value})

    def test_percent_is_read_literally(self, tmp_path):
        records = load_dataset(small_config())[:40]
        data = tmp_path / "50%data.csv"
        write_records_csv(str(data), records)
        ini = tmp_path / "percent.ini"
        ini.write_text(f"[dataset]\nsource = csv\npath = {data}\n", encoding="utf-8")
        config = parse_config(ini.read_text(encoding="utf-8"))
        assert config.dataset.path == str(data)
        assert cli.main(["validate", "--config", str(ini)]) == 0
        assert load_dataset(config) == records
        with pytest.raises(ConfigurationError, match=r"rl.alpha: could not convert .*'%\(x\)s'"):
            small_config(**{"rl.alpha": "%(x)s"})


def accumulated_grid(lo, hi, step):
    """The grid as a running sum, the way it has always been built."""
    grid, load = [], lo
    while load <= hi + 1e-9:
        grid.append(load)
        load += step
    return grid


class TestLoadGrid:
    @pytest.mark.parametrize(
        "lo, hi, step",
        [(1000.0, 46000.0, 1000.0), (2000.0, 90000.0, 2500.0), (0.1, 1.0, 0.1), (7.0, 7.0, 3.0),
         (0.0, 5.0, 0.3), (5.0, 5.0 + 1e-10, 1.0)],
        ids=["default", "scaleout", "tenths", "one-load", "thirds", "within-1e-9"],
    )
    def test_working_grids_keep_their_floats(self, lo, hi, step):
        assert load_grid(lo, hi, step) == accumulated_grid(lo, hi, step)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.0, 1e6),
        st.floats(1e-2, 1e5),
        st.integers(0, 300),
        st.floats(-0.5, 0.5),
    )
    def test_any_working_grid_keeps_its_floats(self, lo, step, count, jitter):
        hi = lo + (count + jitter) * step
        grid = load_grid(lo, hi, step) if lo <= hi + 1e-9 else []
        assert grid == accumulated_grid(lo, hi, step)

    @pytest.mark.parametrize(
        "lo, hi, step, message",
        [
            (float("nan"), 10.0, 1.0, "bounds must be finite and its step positive"),
            (0.0, float("inf"), 1.0, "bounds must be finite"),
            (0.0, 10.0, 0.0, "step positive, got 0.0, 10.0, 0.0$"),
            (0.0, 10.0, -500.0, "step positive"),
            (0.0, 10.0, float("nan"), "step positive"),
            (0.0, 10.0, float("inf"), "step positive"),
            (5000.0, 1000.0, 1000.0, "^empty load grid: minimum 5000.0 > maximum 1000.0$"),
            (1000.0, 46000.0, 1e-300, f"would put more than {MAX_GRID_LOADS} loads"),
            (0.0, 46000.0, 1e-11, f"would put more than {MAX_GRID_LOADS} loads"),
            (46000.0, 46000.0, 1e-300, "^load grid step 1e-300 does not advance the load 46000.0$"),
            (1e20, 1e20 + 1e6, 1.0, "would put more than"),
            (1e20, 1e20, 1.0, "does not advance the load 1e\\+20$"),
        ],
        ids=[
            "nan-min", "inf-max", "zero-step", "negative-step", "nan-step", "inf-step", "empty",
            "1e-300-step", "1e-11-step", "stuck-at-46000", "1e6-at-1e20", "stuck-at-1e20",
        ],
    )
    def test_bad_grids_are_refused_at_once(self, lo, hi, step, message):
        with pytest.raises(ConfigurationError, match=message):
            load_grid(lo, hi, step)


class TestMetrics:
    def test_violation_count(self):
        trace = ExperimentTrace("re", 0, [tick(0, 50.0), tick(1, 61.0), tick(2, 70.0)])
        assert compute_metrics(trace).violations == 2

    def test_no_violations(self):
        trace = ExperimentTrace("re", 0, [tick(0, 50.0), tick(1, 60.0)])
        assert compute_metrics(trace).violations == 0

    def test_mean_utility_with_penalties(self):
        trace = ExperimentTrace("re", 0, [tick(0, 50.0, 1.0), tick(1, 70.0, -1.0)])
        assert compute_metrics(trace).mean_utility == 0.0

    def test_decision_latency_stats(self):
        trace = ExperimentTrace(
            "re", 0, [tick(0, 50.0), tick(1, 50.0, decision="no_op"), tick(2, 50.0)]
        )
        metrics = compute_metrics(trace)
        assert metrics.mean_decision_ms == 1.0
        assert metrics.max_decision_ms == 1.0


# The 2-run default comparison, and the scaleout config: 4..32 VMs,
# +6/-4, LV2, a 5% benefit threshold and 3-tick smoothing.
SCALEOUT_OVERRIDES = {
    "experiment.policies": "mdp_mb, mdp2, mdp3",
    "experiment.runs": "2",
    "model.max_vms": "32",
    "model.add_limit": "6",
    "model.rem_limit": "4",
    "load.variation": "LV2",
    "load.load_min_reqs": "2000",
    "load.load_max_reqs": "90000",
    "clustering.load_bucket_width_reqs": "2000",
    "postprocess.benefit_threshold_pct": "5",
    "postprocess.smoothing_window_ticks": "3",
}
COMPARISON_CONFIGS = pytest.mark.parametrize(
    "overrides", [{"experiment.runs": "2"}, SCALEOUT_OVERRIDES], ids=["defaults", "scaleout"]
)


class TestComparison:
    def test_shared_environment_across_policies(self):
        result = run_comparison(small_config())
        for run in range(2):
            re_trace = result.traces[(PolicyKind.RE, run)]
            mdp_trace = result.traces[(PolicyKind.MDP_MB, run)]
            assert loads(re_trace) == loads(mdp_trace)
            # before the first decision both policies hold 4 VMs, so the
            # shared noise stream must yield identical realized metrics
            for a, b in zip(re_trace.records[:11], mdp_trace.records[:11]):
                assert a.latency_ms == b.latency_ms
                assert a.throughput == b.throughput

    def test_rerun_is_identical(self):
        config = small_config()
        first = run_comparison(config)
        second = run_comparison(config)
        for kind in config.policies:
            assert (
                first.summaries[kind].per_run == second.summaries[kind].per_run
                or all(
                    a.mean_utility == b.mean_utility and a.violations == b.violations
                    for a, b in zip(first.summaries[kind].per_run, second.summaries[kind].per_run)
                )
            )

    def test_duplicate_policy_listing_is_harmless(self):
        base = run_comparison(small_config(**{"experiment.policies": "re"}))
        doubled = run_comparison(small_config(**{"experiment.policies": "re, re"}))
        for a, b in zip(base.summaries[PolicyKind.RE].per_run,
                        doubled.summaries[PolicyKind.RE].per_run):
            assert a.mean_utility == b.mean_utility
            assert a.violations == b.violations

    @COMPARISON_CONFIGS
    def test_every_decision_targets_a_size_in_range(self, overrides, monkeypatch):
        # The episode enacts a decision's target as it is, so every
        # policy must keep its targets, raw and after the benefit
        # threshold, inside the model range.
        actions = []
        real = emulator.apply_benefit_threshold

        def recording(decision, realized, post):
            enacted = real(decision, realized, post)
            actions.append((decision.action, enacted.action))
            return enacted

        monkeypatch.setattr(emulator, "apply_benefit_threshold", recording)
        config = parse_config(default_config_ini(), overrides)
        result = run_comparison(config)
        assert result.all_valid
        # Cells run in trace order, so the n-th decision is the n-th
        # decision tick of the traces.
        decided = [r for trace in result.traces.values() for r in trace.records if r.decision]
        assert [r.decision for r in decided] == [enacted.label for _, enacted in actions]
        decisions = len(decision_ticks(config.schedule))
        assert len(actions) == len(config.policies) * config.runs * decisions
        sizes = config.model.sizes
        assert all(
            r.vms + raw.signed_delta in sizes and r.vms + enacted.signed_delta in sizes
            for r, (raw, enacted) in zip(decided, actions)
        )

    @COMPARISON_CONFIGS
    def test_memo_decisions_match_a_fresh_solve(self, overrides, monkeypatch):
        # Every MDP decision, most of them read from the store's solve
        # memo, equals a fresh instantiate + decide on a second store that
        # holds the same records and whose solve memo is never read.
        config = parse_config(default_config_ini(), overrides)
        records = load_dataset(config)
        fresh_store = build_store(config, records)
        stores, pairs = set(), []
        real = policies.mdp_decide

        def compared(kind, store, load, current, measurement, *configs):
            decision = real(kind, store, load, current, measurement, *configs)
            model, notes = policies.instantiate_model(
                kind, fresh_store, load, current, measurement, *configs
            )
            pairs.append((decision, dataclasses.replace(solver.decide(model), notes=notes)))
            stores.add(store)
            return decision

        monkeypatch.setattr(policies, "mdp_decide", compared)
        run_comparison(config, records)
        mdp_kinds = [kind for kind in config.policies if kind in MDP_KINDS]
        assert len(pairs) == len(mdp_kinds) * config.runs * len(decision_ticks(config.schedule))
        (store,) = stores
        assert len(store.solve_memo) < len(pairs) / 2
        assert not fresh_store.solve_memo
        for memo, fresh in pairs:
            assert memo == fresh
            assert memo.expected_utility.hex() == fresh.expected_utility.hex()

    def test_solve_memo_holds_one_entry_per_mdp_policy_and_bucket(self, monkeypatch):
        stores = []
        real = harness.build_store

        def kept(*args):
            stores.append(real(*args))
            return stores[-1]

        monkeypatch.setattr(harness, "build_store", kept)
        run_comparison(parse_config(default_config_ini(), {"experiment.runs": "2"}))
        run_comparison(
            parse_config(default_config_ini(), {"experiment.runs": "2", "experiment.policies": "re, rl_mb"})
        )
        full, re_and_rl = stores
        assert len(full.solve_memo) == 112
        assert Counter(key[0] for key in full.solve_memo) == {kind: 28 for kind in MDP_KINDS}
        # RE and RL solve no model; RL reads the reward memo only
        assert not re_and_rl.solve_memo and re_and_rl.reward_memo

    def test_solve_memo_models_dump_byte_for_byte_as_recorded(self, monkeypatch):
        # Differential: every model the default 2-run comparison builds
        # and solves, pinned by the hash of its dumps in (policy, load
        # bucket) order.
        stores = []
        real = harness.build_store

        def kept(*args):
            stores.append(real(*args))
            return stores[-1]

        monkeypatch.setattr(harness, "build_store", kept)
        run_comparison(parse_config(default_config_ini(), {"experiment.runs": "2"}))
        (store,) = stores
        keys = sorted(store.solve_memo, key=lambda key: (key[0].value, key[-1]))
        dumps = "".join(store.solve_memo[key][0].dump() for key in keys)
        assert len(keys) == 112
        assert hashlib.sha256(dumps.encode()).hexdigest() == DEFAULT_SOLVE_MEMO_SHA256

    def test_summary_mean_is_mean_of_run_means(self):
        result = run_comparison(small_config())
        for summary in result.summaries.values():
            expected = sum(m.mean_utility for m in summary.per_run) / len(summary.per_run)
            assert abs(summary.mean_utility - expected) <= 1e-12

    def test_trace_count(self):
        result = run_comparison(small_config())
        assert len(result.traces) == 2 * 2
        assert result.all_valid

    def test_outputs_written(self, tmp_path):
        result = run_comparison(small_config(**{"experiment.runs": "1"}))
        out = write_outputs(result, tmp_path / "exp")
        assert (out / "summary.csv").exists()
        assert (out / "runs.csv").exists()
        assert (out / "report.txt").exists()
        assert (out / "trace_re_0.csv").exists()
        assert (out / "trace_mdp_mb_0.csv").exists()
        assert "policy" in summary_csv(result).splitlines()[0]
        assert "re" in text_report(result)


UNEVEN_LOGS = Path(__file__).parent / "data" / "uneven_logs.csv"
UNEVEN_OVERRIDES = {
    "dataset.source": "csv", "dataset.path": str(UNEVEN_LOGS), "model.max_vms": "6",
}


def comparable(trace: ExperimentTrace) -> tuple[str, bool, str | None]:
    """Every field of a trace but its records' `decision_ms`; the CSV writes
    each float as its exact repr, so equal texts are equal bit for bit."""
    records = [dataclasses.replace(r, decision_ms=0.0) for r in trace.records]
    text = trace_to_csv(ExperimentTrace(trace.policy, trace.seed, records))
    return text, trace.valid, trace.error


def run_keeping_store(monkeypatch, config, records=None, live=False):
    """`run_comparison`, with the store it built.  `live` hides the store's
    uniform record count, so every episode draws its environment tick by
    tick instead of reading a tape."""
    stores = []
    real = harness.build_store

    def build(config, records):
        store = real(config, records)
        if live:
            monkeypatch.setattr(store, "uniform_count", None)
        stores.append(store)
        return store

    monkeypatch.setattr(harness, "build_store", build)
    result = run_comparison(config, records)
    (store,) = stores
    return result, store


def tape_and_live(monkeypatch, config, records=None):
    """Comparable traces of a comparison with tapes, checked equal to those
    drawn live, and the store that held the tapes."""
    (taped, store), (live, live_store) = (
        run_keeping_store(monkeypatch, config, records, live) for live in (False, True)
    )
    assert not live_store.tape_memo
    traces = {key: comparable(t) for key, t in taped.traces.items()}
    assert traces == {key: comparable(t) for key, t in live.traces.items()}
    return traces, store


class TestEnvironmentTape:
    @pytest.mark.parametrize(
        "overrides", [{}, SCALEOUT_OVERRIDES], ids=["defaults-10-runs", "scaleout"]
    )
    def test_tape_and_live_draws_give_identical_traces(self, overrides, monkeypatch):
        config = parse_config(default_config_ini(), overrides)
        traces, store = tape_and_live(monkeypatch, config, load_dataset(config))
        assert len(store.tape_memo) == config.runs
        assert len(traces) == len(config.policies) * config.runs
        assert all(valid for _, valid, _ in traces.values())

    def test_environment_is_drawn_once_per_run(self, monkeypatch):
        config = parse_config(default_config_ini(), {"experiment.runs": "2"})
        assert len(config.policies) == 6
        result, store = run_keeping_store(monkeypatch, config)
        assert len(store.tape_memo) == 2
        tapes = dict(store.tape_memo)
        # An episode run outside `run_comparison`, on the same store, reads
        # the same tapes and adds none.
        for run in range(2):
            policy = policies.make_policy(
                PolicyKind.MDP2, store, config.model, config.utility, config.clustering
            )
            trace = harness.run_episode(
                policy, config.load, store, config.schedule, config.utility,
                post=config.post, rng_seed=harness.run_seed(config.base_seed, run),
            )
            assert comparable(trace) == comparable(result.traces[(PolicyKind.MDP2, run)])
        assert store.tape_memo.keys() == tapes.keys()
        assert all(store.tape_memo[key] is tape for key, tape in tapes.items())

    def test_seed_forms_share_a_tape_and_other_keys_do_not(self):
        config = small_config()
        store = build_store(config, load_dataset(config))
        load, schedule, utility = config.load, config.schedule, config.utility

        def tape(seed, load=load, schedule=schedule, utility=utility):
            rng = np.random.default_rng(seed)
            return emulator.environment_tape(store, load, schedule, utility, rng)

        first = tape(5)
        assert tape(np.random.SeedSequence(5)) is first
        assert len(first.rows) == len(first.emulated) == schedule.horizon_ticks
        others = [
            tape(6),
            tape(5, load=dataclasses.replace(load, variation=LoadVariation.LV2)),
            tape(5, schedule=dataclasses.replace(schedule, horizon_ticks=64)),
            tape(5, schedule=dataclasses.replace(schedule, emulation_noise_fraction=0.1)),
        ]
        assert all(other != first for other in others)
        # Another utility gets a tape of its own, with the same rows.
        other_utility = tape(5, utility=UtilityConfig(UtilityKind.R2, 60.0))
        assert other_utility is not first and other_utility.rows == first.rows
        assert len(store.tape_memo) == 6

    def test_uneven_store_draws_live_as_episodes_always_did(self):
        # The vms-4 cell holds two records and the vms-5 cell one, so the
        # bound of each tick's record index depends on the current size.
        store = LogStore([
            MeasurementRecord(0, 4, 10000.0, 100.0, 9000.0),
            MeasurementRecord(1, 4, 10000.0, 120.0, 9500.0),
            MeasurementRecord(2, 5, 10000.0, 10.0, 9900.0),
        ])
        assert store.uniform_count is None
        limits = ModelConfig(4, 5, add_limit=1, rem_limit=1)
        utility = UtilityConfig(UtilityKind.R1, 60.0)
        policy = policies.make_policy(PolicyKind.RE, store, limits, utility, ClusteringConfig())
        profile = LoadProfile()
        schedule = ScheduleConfig(horizon_ticks=63, emulation_noise_fraction=0.05)
        trace = harness.run_episode(policy, profile, store, schedule, utility, rng_seed=5)
        assert trace.valid and not store.tape_memo
        assert {r.vms for r in trace.records} == {4, 5}
        # The draws an episode made tick by tick before runs had tapes.
        rng = np.random.default_rng(5)
        for r in trace.records:
            cell = store.select_logs(r.vms, gen_load(profile, r.tick)).records
            record = cell[int(rng.integers(len(cell)))]
            lat_noise, thr_noise = rng.normal(1.0, 0.05, size=2)
            assert r.latency_ms == max(0.0, float(record.latency_ms * lat_noise))
            assert r.throughput == max(0.0, float(record.throughput * thr_noise))

    def test_uneven_logs_leave_no_tape(self, monkeypatch):
        config = small_config(**UNEVEN_OVERRIDES)
        result, store = run_keeping_store(monkeypatch, config, load_dataset(config))
        assert store.uniform_count is None and not store.tape_memo
        assert result.all_valid
        # Without a tape no episode hands a record on to another.
        records = [r for trace in result.traces.values() for r in trace.records]
        assert len(set(map(id, records))) == len(records)

    def test_empty_store_fails_alike(self, monkeypatch):
        traces, _ = tape_and_live(monkeypatch, small_config(), [])
        assert set(traces.values()) == {
            (TRACE_HEADER + "\n", False, "NoDataError: log store is empty")
        }

    def test_policy_failure_fails_alike(self):
        config = small_config()
        records = load_dataset(config)
        traces = []
        for live in (False, True):
            store = build_store(config, records)
            if live:
                store.uniform_count = None
            traces.append(comparable(harness.run_episode(
                BoomStub(), config.load, store, config.schedule, config.utility, rng_seed=1
            )))
            assert len(store.tape_memo) == (not live)
        assert traces[0] == traces[1]
        text, valid, error = traces[0]
        assert not valid and error == "RuntimeError: boom"
        assert len(text.splitlines()) == 1 + config.schedule.decision_every_ticks

    def test_bucket_overflow_fails_alike(self, tmp_path, monkeypatch):
        # Zero loads land in bucket 0 at any width; the wave's loads do not.
        logs = tmp_path / "zero_loads.csv"
        logs.write_text(
            f"{','.join(CSV_HEADER)}\n" + "".join(f"0,{v},0,50,900\n" for v in (4, 5, 6)),
            encoding="utf-8",
        )
        config = small_config(**{
            "dataset.source": "csv", "dataset.path": str(logs), "model.max_vms": "6",
            "clustering.load_bucket_width_reqs": "1e-310",
        })
        traces, store = tape_and_live(monkeypatch, config, load_dataset(config))
        assert len(store.tape_memo) == config.runs
        error = "ConfigurationError: load 1000.0 over bucket width 1e-310 has no finite bucket"
        assert set(traces.values()) == {(TRACE_HEADER + "\n", False, error)}


def episode(config, store, kind, run, utility=None):
    """One (policy, run) cell of `run_comparison` on `store`, under
    `utility` (by default the config's) for the policy and the episode."""
    utility = utility or config.utility
    policy = policies.make_policy(
        kind, store, config.model, utility, config.clustering,
        re_config=config.re_config, rl_config=config.rl_config,
        smoothing_window=config.post.smoothing_window,
    )
    trace = harness.run_episode(
        policy, config.load, store, config.schedule, utility,
        post=config.post, rng_seed=harness.run_seed(config.base_seed, run),
    )
    trace.seed = run
    return trace


def alone(config, records, kind, run, utility=None):
    """Comparable trace of one cell on a fresh store of its own, where no
    other episode has emulated a tick."""
    return comparable(episode(config, build_store(config, records), kind, run, utility))


def emulated_records(store):
    """Every (tape key, tick, vms) -> emulated record a store holds."""
    return {
        (key, tick, vms): record
        for key, tape in store.tape_memo.items()
        for tick, by_size in enumerate(tape.emulated)
        for vms, record in by_size.items()
    }


class TestSharedEmulation:
    """The record a (tick, size) emulates is made once per run and utility
    and handed on to every later episode there; old path (each cell on a
    store of its own) against new."""

    @pytest.mark.parametrize(
        "overrides",
        [{}, SCALEOUT_OVERRIDES, UNEVEN_OVERRIDES],
        ids=["defaults-10-runs", "scaleout", "uneven-live"],
    )
    def test_every_trace_equals_its_cell_run_alone(self, overrides):
        config = parse_config(default_config_ini(), overrides)
        records = load_dataset(config)
        result = run_comparison(config, records)
        assert result.all_valid
        assert len(result.traces) == len(config.policies) * config.runs
        for (kind, run), trace in result.traces.items():
            assert comparable(trace) == alone(config, records, kind, run), (kind, run)

    def test_each_utility_gets_the_trace_of_a_store_of_its_own(self):
        config = small_config()
        records = load_dataset(config)
        store = build_store(config, records)
        utilities = [
            UtilityConfig(UtilityKind.R1, 60.0),
            UtilityConfig(UtilityKind.R2, 60.0),
            UtilityConfig(UtilityKind.R1, 40.0),
        ]
        traces = {}
        for utility, kind in itertools.product(utilities, config.policies):
            trace = comparable(episode(config, store, kind, 0, utility))
            assert trace == alone(config, records, kind, 0, utility), (utility, kind)
            traces[utility, kind] = trace
        # The utilities score the same ticks differently, so a record handed
        # to the wrong one would have shown.
        assert len({traces[u, PolicyKind.RE] for u in utilities}) == len(utilities)
        # One tape per utility, each with the run's rows.
        assert [key[-1] for key in store.tape_memo] == utilities
        first, *others = store.tape_memo.values()
        assert all(tape.rows == first.rows and tape is not first for tape in others)

    def test_an_aborted_episode_leaves_later_traces_unchanged(self):
        config = small_config()
        records = load_dataset(config)
        store = build_store(config, records)
        seed = harness.run_seed(config.base_seed, 0)
        aborted = harness.run_episode(
            AddThenBoomStub(2), config.load, store, config.schedule, config.utility,
            rng_seed=seed,
        )
        assert not aborted.valid and aborted.error == "RuntimeError: boom"
        # It recorded ticks at three sizes before the third decision raised.
        assert {r.vms for r in aborted.records} == {4, 5, 6}
        assert len(aborted.records) == 3 * config.schedule.decision_every_ticks
        # Its last tick was emulated before its decision raised.
        left = emulated_records(store)
        assert len(left) == len(aborted.records) + 1
        for kind in config.policies:
            assert comparable(episode(config, store, kind, 0)) == alone(config, records, kind, 0)
        # Every record the aborted episode left is still in place, undecided.
        assert all(emulated_records(store)[key] is record for key, record in left.items())
        for (_, tick, vms), record in left.items():
            assert (record.tick, record.vms, record.decision) == (tick, vms, "")

    def test_non_decision_ticks_at_one_size_share_their_records(self, monkeypatch):
        config = parse_config(default_config_ini(), {"experiment.runs": "1"})
        result, store = run_keeping_store(monkeypatch, config)
        (tape,) = store.tape_memo.values()
        traces = [result.traces[(kind, 0)] for kind in config.policies]
        shared = own = 0
        for first, second in itertools.combinations(traces, 2):
            for a, b in zip(first.records, second.records):
                if a.vms != b.vms:
                    continue
                record = tape.emulated[a.tick][a.vms]
                if a.decision:
                    own += 1
                    assert a is not b and a is not record and b is not record
                    assert dataclasses.replace(a, decision="", decision_ms=0.0) == record
                else:
                    shared += 1
                    assert a is b is record
        assert shared > own > 0

    def test_a_policy_observes_the_record_the_trace_and_the_tape_keep(self):
        config = small_config()
        store = build_store(config, load_dataset(config))
        policy = policies.make_policy(
            PolicyKind.MDP_MB, store, config.model, config.utility, config.clustering
        )
        observed = []
        observe = policy.observe
        policy.observe = lambda record: (observed.append(record), observe(record))
        trace = harness.run_episode(
            policy, config.load, store, config.schedule, config.utility,
            rng_seed=harness.run_seed(config.base_seed, 0),
        )
        assert trace.valid and len(observed) == len(trace.records)
        assert len({r.vms for r in trace.records}) > 1
        (tape,) = store.tape_memo.values()
        for seen, kept in zip(observed, trace.records):
            assert seen is tape.emulated[kept.tick][kept.vms]
            if kept.decision:
                assert dataclasses.replace(kept, decision="", decision_ms=0.0) == seen
            else:
                assert seen is kept


def write_small_ini(path: Path, **extra) -> Path:
    lines = [default_config_ini()]
    config_file = path / "exp.ini"
    config_file.write_text(lines[0], encoding="utf-8")
    return config_file


class TestCli:
    def run_cli(self, *argv):
        return cli.main(list(argv))

    def test_run_writes_outputs(self, tmp_path):
        config = write_small_ini(tmp_path)
        code = self.run_cli(
            "run", "--config", str(config), "--out-dir", str(tmp_path / "out"),
            "--set", "experiment.policies=re",
            "--set", "experiment.runs=1",
            "--set", "schedule.horizon_ticks=42",
            "--set", "dataset.samples_per_point=1",
        )
        assert code == 0
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_run_bad_config_nonzero_exit(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\nmin_vms = banana\n", encoding="utf-8")
        assert self.run_cli("run", "--config", str(bad)) != 0

    def test_gen_dataset(self, tmp_path):
        out = tmp_path / "ds.csv"
        overrides = {
            "model.max_vms": "6",
            "load.load_max_reqs": "3000",
            "dataset.samples_per_point": "2",
            "dataset.seed": "5",
        }
        code = self.run_cli(
            "gen-dataset", "--out", str(out),
            *(arg for item in overrides.items() for arg in ("--set", "=".join(item))),
        )
        assert code == 0
        records = read_records_csv(str(out))
        assert len(records) == 3 * 3 * 2
        assert {r.vms for r in records} == {4, 5, 6}
        assert records == load_dataset(parse_config(default_config_ini(), overrides))

    def test_gen_dataset_writes_back_the_csv_a_config_reads(self, tmp_path, cli_inputs):
        ini = tmp_path / "csv.ini"
        ini.write_text(
            f"[dataset]\nsource = csv\npath = {cli_inputs['sizes']}\n[model]\nmax_vms = 6\n",
            encoding="utf-8",
        )
        out = tmp_path / "ds.csv"
        assert self.run_cli("gen-dataset", "--config", str(ini), "--out", str(out)) == 0
        assert read_records_csv(str(out)) == read_records_csv(str(cli_inputs["sizes"]))

    def test_gen_dataset_defaults_write_the_default_ini_dataset(self, tmp_path):
        out = tmp_path / "ds.csv"
        assert self.run_cli("gen-dataset", "--out", str(out)) == 0
        expected = tmp_path / "expected.csv"
        write_records_csv(str(expected), load_dataset(parse_config(default_config_ini())))
        assert out.read_text(encoding="utf-8") == expected.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen-dataset", "--out", "{out}", "--out-dir", "elsewhere"),
            ("query", "Pmax=? [ F vms_num=5 ]", "--config", "{ini}", "--seed", "3"),
            ("query", "Pmax=? [ F vms_num=5 ]", "--config", "{ini}", "--out-dir", "elsewhere"),
            ("validate", "--config", "{ini}", "--seed", "3"),
            ("validate", "--config", "{ini}", "--out-dir", "elsewhere"),
            ("replay", "--trace", "{trace}", "--set", "utility.kind=r1", "--seed", "3"),
            ("replay", "--trace", "{trace}", "--set", "utility.kind=r1", "--out-dir", "elsewhere"),
            # The utility comes from the config alone.
            ("replay", "--trace", "{trace}", "--utility", "r1"),
            ("replay", "--trace", "{trace}", "--latency-threshold-ms", "60"),
        ],
        ids=lambda argv: f"{argv[0]} {argv[-2]}",
    )
    def test_flag_the_subcommand_does_not_read_exits_2(self, argv, cli_inputs, capsys):
        with pytest.raises(SystemExit) as exit_info:
            self.run_cli(*(arg.format(**cli_inputs) for arg in argv))
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err
        assert not cli_inputs["out"].exists()

    def test_query_on_model_dump(self, tmp_path, capsys):
        config = ModelConfig(4, 7, add_limit=2, rem_limit=1)
        states = [MdpState(v, center=(20.0 + v, 1000.0 * v), reward=float(v)) for v in config.sizes]
        model = build_model(config, states, current=4)
        dump = tmp_path / "model.txt"
        dump.write_text(model.dump(), encoding="utf-8")
        code = self.run_cli(
            "query", "Pmax=? [ F latency<30 & vms_num=7 ]", "--model-dump", str(dump)
        )
        assert code == 0
        probability = float(capsys.readouterr().out.strip())
        assert 0.0 <= probability <= 1.0
        assert probability == 1.0  # center latency of s7 is 27 ms

    def test_query_parse_error_exit_code(self, tmp_path):
        dump = tmp_path / "model.txt"
        config = ModelConfig(4, 5)
        model = build_model(config, [MdpState(4, reward=1.0), MdpState(5, reward=1.0)], 4)
        dump.write_text(model.dump(), encoding="utf-8")
        assert self.run_cli("query", "Pmax=? [F vms=", "--model-dump", str(dump)) == 2

    def test_query_without_a_config_answers_from_the_defaults(self, tmp_path, capsys):
        query = ("query", "Pmax=? [ F latency<40 & vms_num<=12 ]", "--policy", "mdp_mb")
        assert self.run_cli(*query) == 0
        answer = capsys.readouterr().out
        assert 0.0 <= float(answer) <= 1.0
        assert self.run_cli(*query, "--config", str(write_small_ini(tmp_path))) == 0
        assert capsys.readouterr().out == answer

    @pytest.mark.parametrize("config", [("--config", "{ini}"), ("--set", "model.max_vms=12")])
    def test_query_refuses_a_model_dump_with_a_config(self, config, cli_inputs, capsys):
        dump = ("--model-dump", str(cli_inputs["phase"]))
        argv = [arg.format(**cli_inputs) for arg in config]
        assert self.run_cli("query", "Pmax=? [ F vms_num=5 ]", *dump, *argv) == 2
        assert capsys.readouterr().err == (
            "error: query takes --model-dump or --config/--set, not both\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [("run",), ("gen-dataset", "--out", "{out}"), ("query", "Pmax=? [ F vms_num=5 ]")],
        ids=lambda argv: argv[0],
    )
    def test_a_missing_dataset_file_is_named_without_a_config(self, argv, cli_inputs, capsys):
        # The same check as for a --config file, before any record is read.
        missing = cli_inputs["missing"]
        csv_set = ("--set", "dataset.source=csv", "--set", f"dataset.path={missing}")
        assert self.run_cli(*(arg.format(**cli_inputs) for arg in argv), *csv_set) == 2
        assert capsys.readouterr().err == f"error: dataset file not found: {missing}\n"
        assert not cli_inputs["out"].exists()

    def test_commands_that_read_no_dataset_accept_a_missing_one(self, cli_inputs, tmp_path, capsys):
        # Only a command that reads the records checks that their file exists.
        missing = ("--set", "dataset.source=csv", "--set", f"dataset.path={cli_inputs['missing']}")
        replay = ("replay", "--trace", str(cli_inputs["trace"]), "--set", "utility.kind=r2")
        outputs = []
        for extra in ((), missing):
            out = tmp_path / f"replay{len(extra)}.csv"
            assert self.run_cli(*replay, *extra, "--out", str(out)) == 0
            outputs.append((capsys.readouterr().out.replace(str(out), "OUT"), out.read_text()))
        assert outputs[0] == outputs[1]
        ini = tmp_path / "missing_dataset.ini"
        ini.write_text(
            f"[dataset]\nsource = csv\npath = {cli_inputs['missing']}\n", encoding="utf-8"
        )
        assert self.run_cli("validate", "--config", str(ini)) == 0
        assert capsys.readouterr().out == f"config ok: {ini}\n"

    def test_query_live_instantiation_writes_dump(self, tmp_path, capsys):
        config = write_small_ini(tmp_path)
        dump = tmp_path / "model.txt"
        code = self.run_cli(
            "query", "Pmax=? [ F latency<60 ]",
            "--config", str(config), "--policy", "mdp2",
            "--load", "30000", "--vms", "10", "--dump-model", str(dump),
        )
        assert code == 0
        probability = float(capsys.readouterr().out.strip())
        assert 0.0 <= probability <= 1.0
        assert dump.read_text(encoding="utf-8").startswith("mdpdump 1")
        # the written dump answers the same query identically
        assert self.run_cli("query", "Pmax=? [ F latency<60 ]", "--model-dump", str(dump)) == 0
        assert float(capsys.readouterr().out.strip()) == probability

    def test_validate_config_ok(self, tmp_path):
        config = write_small_ini(tmp_path)
        assert self.run_cli("validate", "--config", str(config)) == 0

    def test_validate_model_dump(self, tmp_path):
        config = ModelConfig(4, 6)
        model = build_model(config, [MdpState(v, reward=1.0) for v in config.sizes], 4)
        dump = tmp_path / "model.txt"
        dump.write_text(model.dump(), encoding="utf-8")
        assert self.run_cli("validate", "--model-dump", str(dump)) == 0

    def test_validate_broken_dump_fails(self, tmp_path, capsys):
        # A map that disagrees with the weights is refused where it is read.
        config = ModelConfig(4, 6)
        model = build_model(config, [MdpState(v, reward=1.0) for v in config.sizes], 4)
        text = model.dump().replace("no_op s4 1.0", "no_op s4 0.7")
        dump = tmp_path / "model.txt"
        dump.write_text(text, encoding="utf-8")
        assert self.run_cli("validate", "--model-dump", str(dump)) == 2
        assert capsys.readouterr().err == (
            "error: model dump line 9: expected 'trans s4 no_op s4 1.0'\n"
        )

    def test_validate_refuses_an_unknown_phase(self, cli_inputs, capsys):
        code = self.run_cli("validate", "--model-dump", str(cli_inputs["phase"]))
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == (
            "error: model dump line 5: phase=bogus prev=none,"
            " but every state has phase=decision prev=none\n"
        )

    def test_validate_malformed_dump_exit_code(self, tmp_path, capsys):
        config = ModelConfig(4, 6)
        model = build_model(config, [MdpState(v, reward=1.0) for v in config.sizes], 4)
        dump = tmp_path / "model.txt"
        dump.write_text(model.dump().replace(" center=-", "", 1), encoding="utf-8")
        assert self.run_cli("validate", "--model-dump", str(dump)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing center=" in err

    def test_replay_rescoring(self, tmp_path, capsys):
        lines = ["tick,load,vms,latency_ms,throughput,utility,violation,decision,decision_ms"]
        lines.append("0,10000.0,4,50.0,8000.0,2000.0,0,,0.0")
        lines.append("1,10000.0,4,70.0,8000.0,-1.0,1,,0.0")
        trace_file = tmp_path / "trace.csv"
        trace_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_file = tmp_path / "rescored.csv"
        code = self.run_cli(
            "replay", "--trace", str(trace_file), "--set", "utility.kind=r2",
            "--set", "utility.latency_threshold_ms=60", "--out", str(out_file),
        )
        assert code == 0
        rescored = trace_from_csv(out_file.read_text(encoding="utf-8"))
        r2 = UtilityConfig(UtilityKind.R2, 60.0)
        assert rescored.records[0].utility == utility_eval(r2, 50.0, 8000.0, 4)
        assert rescored.records[1].utility == -1.0
        assert "mean_utility" in capsys.readouterr().out

    def test_replay_short_row_is_an_error_line(self, tmp_path, capsys):
        trace_file = tmp_path / "short.csv"
        header = "tick,load,vms,latency_ms,throughput,utility,violation,decision,decision_ms"
        trace_file.write_text(f"{header}\n0,1,2\n", encoding="utf-8")
        assert self.run_cli("replay", "--trace", str(trace_file), "--set", "utility.kind=r1") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trace line 2: expected 9 fields")
        assert "Traceback" not in err

    def test_replay_missing_file(self, tmp_path):
        missing = str(tmp_path / "nope.csv")
        assert self.run_cli("replay", "--trace", missing, "--set", "utility.kind=r2") == 2


TRACE_HEADER = "tick,load,vms,latency_ms,throughput,utility,violation,decision,decision_ms"

# Each subcommand on input it must refuse; {name} is a file in the test's
# directory (see `cli_inputs`).
GARBAGE = [
    ("run", "--set", "clustering.load_bucket_width_reqs=nan"),
    ("run", "--set", "utility.latency_threshold_ms=nan"),
    ("run", "--set", "model.max_vms"),
    ("run", "--config", "{garbage}"),
    ("run", "--config", "{binary}"),
    ("run", "--config", "{missing}"),
    ("run", "--set", "dataset.seed=-5"),
    ("run", "--set", "experiment.base_seed=-3"),
    ("run", "--seed", "-3"),
    ("run", "--set", "clustering.seed=-1"),
    ("run", "--set", "dataset.source=csv", "--set", "dataset.path={bigfield}"),
    ("run", "--set", "rl.alpha=%(x)s"),
    ("run", "--set", "clustering.load_bucket_width_reqs=1e-300"),
    (
        "run", "--set", "dataset.source=csv", "--set", "dataset.path={sizes}",
        "--set", "model.max_vms=6", "--set", "clustering.load_bucket_width_reqs=1e-310",
    ),
    ("run", "--set", "load.load_min_reqs=-5000"),
    (
        "run", "--set", "dataset.source=csv", "--set", "dataset.path={sizes}",
        "--set", "model.max_vms=6", "--set", "load.load_min_reqs=-5000",
    ),
    ("gen-dataset", "--out", "{out}", "--set", "clustering.load_bucket_width_reqs=0"),
    ("gen-dataset", "--out", "{out}", "--set", "clustering.load_bucket_width_reqs=-500"),
    ("gen-dataset", "--out", "{out}", "--set", "clustering.load_bucket_width_reqs=nan"),
    ("gen-dataset", "--out", "{out}", "--set", "load.load_max_reqs=inf"),
    (
        "gen-dataset", "--out", "{out}",
        "--set", "load.load_min_reqs=5000", "--set", "load.load_max_reqs=1000",
    ),
    ("gen-dataset", "--out", "{out}", "--set", "model.min_vms=0"),
    ("gen-dataset", "--out", "{out}", "--set", "model.min_vms=9", "--set", "model.max_vms=4"),
    ("gen-dataset", "--out", "{out}", "--set", "dataset.per_vm_capacity_reqs=nan"),
    ("gen-dataset", "--out", "{out}", "--set", "dataset.saturation_exponent=inf"),
    ("gen-dataset", "--out", "{out}", "--set", "dataset.samples_per_point=0"),
    ("gen-dataset", "--out", "{out}", "--set", "dataset.seed=-1"),
    ("gen-dataset", "--out", "{out}", "--set", "clustering.load_bucket_width_reqs=1e-300"),
    ("gen-dataset", "--out", "{out}", "--set", "load.load_min_reqs=-3000"),
    ("query", "Pmax=? [ F vms_num=5 ]", "--model-dump", "{garbage}"),
    ("query", "Pmax=? [ F vms_num=5 ]", "--model-dump", "{binary}"),
    ("query", "Pmax=? [ F vms_num=5 ]", "--model-dump", "{phase}"),
    ("query", "Pmax=? [ F vms_num=5 ]", "--config", "{garbage}"),
    ("query", "Pmax=? [ F vms_num=5 ]", "--config", "{ini}", "--load", "nan"),
    ("query", "Pmax=? [ F latency<60 ]", "--load", "-50000", "--vms", "5"),
    ("query", "Pmax=? [ F vms_num=5 ]", "--config", "{ini}", "--vms", "99"),
    ("query", "Pmax=? [ F vms_num=", "--config", "{ini}"),
    ("validate",),
    ("validate", "--config", "{garbage}"),
    ("run", "--config", "{percent}"),
    ("validate", "--model-dump", "{garbage}"),
    ("validate", "--model-dump", "{missing}"),
    ("replay", "--trace", "{garbage}", "--set", "utility.kind=r1"),
    ("replay", "--trace", "{binary}", "--set", "utility.kind=r2"),
    (
        "replay", "--trace", "{trace}",
        "--set", "utility.kind=r1", "--set", "utility.latency_threshold_ms=nan",
    ),
    (
        "replay", "--trace", "{trace}",
        "--set", "utility.kind=r1", "--set", "utility.latency_threshold_ms=0",
    ),
    ("replay", "--trace", "{vms0}", "--set", "utility.kind=r1"),
]


@pytest.fixture
def cli_inputs(tmp_path):
    garbage = tmp_path / "garbage.txt"
    garbage.write_text("mdpdump 1\n[model\n0,1,2\nnot = valid\n", encoding="utf-8")
    bigfield = tmp_path / "bigfield.csv"
    field = "1" * (csv.field_size_limit() + 1)
    bigfield.write_text(f"{','.join(CSV_HEADER)}\n0,4,1000,{field},5\n", encoding="utf-8")
    sizes = tmp_path / "sizes.csv"
    sizes.write_text(
        f"{','.join(CSV_HEADER)}\n" + "".join(f"0,{v},1000,50,900\n" for v in (4, 5, 6)),
        encoding="utf-8",
    )
    binary = tmp_path / "binary.bin"
    binary.write_bytes(b"\xff\xfe\x00garbage\x9c")
    trace = tmp_path / "trace.csv"
    trace.write_text(f"{TRACE_HEADER}\n0,10000.0,4,50.0,8000.0,2000.0,0,,0.0\n", encoding="utf-8")
    vms0 = tmp_path / "vms0.csv"
    vms0.write_text(f"{TRACE_HEADER}\n0,10000.0,0,50.0,8000.0,2000.0,0,,0.0\n", encoding="utf-8")
    # a `%` that interpolation would choke on, in the path of a missing file
    percent = tmp_path / "percent.ini"
    percent.write_text(
        f"[dataset]\nsource = csv\npath = {tmp_path / '50%data.csv'}\n", encoding="utf-8"
    )
    config = ModelConfig(4, 6)
    text = build_model(config, [MdpState(v, reward=1.0) for v in config.sizes], 4).dump()
    s5 = "state s5 vms=5 behavior=0 weight=1.0 reward=1.0 phase="
    phase = tmp_path / "phase.txt"
    phase.write_text(text.replace(f"{s5}decision", f"{s5}bogus"), encoding="utf-8")
    return {
        "bigfield": bigfield,
        "sizes": sizes,
        "phase": phase,
        "garbage": garbage,
        "binary": binary,
        "missing": tmp_path / "missing.txt",
        "ini": write_small_ini(tmp_path),
        "trace": trace,
        "vms0": vms0,
        "percent": percent,
        "out": tmp_path / "out.csv",
    }


@pytest.mark.parametrize("argv", GARBAGE, ids=lambda argv: " ".join(argv))
def test_cli_refuses_garbage_with_an_error_line(argv, cli_inputs, capsys):
    """The CLI contract: every subcommand turns bad input into exit 2 and
    one `error:` line on stderr, never a traceback."""
    code = cli.main([arg.format(**cli_inputs) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not cli_inputs["out"].exists()


def test_every_subcommand_has_a_garbage_case():
    assert {argv[0] for argv in GARBAGE} == set(cli._COMMANDS)


def _rarely(strategy, otherwise):
    """`strategy` one time in ten, else `otherwise`."""
    return st.integers(0, 9).flatmap(lambda i: strategy if i == 0 else otherwise)


INI_DEFAULTS = configparser.ConfigParser(interpolation=None)
INI_DEFAULTS.read_string(default_config_ini())
INI_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=10)
INI_VALUES = st.sampled_from(
    ["", "0", "-1", "3", "16", "1e-310", "nan", "inf", "%(x)s", "50%", "re, mdp2", "LV2", "csv"]
) | INI_TEXT


def ini_section(name):
    """A `[name]` section of entries, mostly its known keys, with now and
    then a stray line."""
    keys = sorted(INI_DEFAULTS[name]) if INI_DEFAULTS.has_section(name) else ["k"]
    entry = st.builds(
        "{} {} {}".format,
        _rarely(INI_TEXT, st.sampled_from(keys)),
        st.sampled_from(["=", ":"]),
        INI_VALUES,
    )
    lines = st.lists(
        _rarely(INI_TEXT, entry), max_size=4, unique_by=lambda line: line.partition(" ")[0]
    )
    return lines.map(lambda lines: "\n".join([f"[{name}]", *lines]))


INI_FILES = st.builds(
    lambda lead, sections: "\n".join([lead, *sections]),
    _rarely(INI_TEXT, st.just("")),
    st.lists(
        _rarely(INI_TEXT, st.sampled_from(INI_DEFAULTS.sections())), max_size=4, unique=True
    ).flatmap(lambda names: st.tuples(*map(ini_section, names))),
)


class _Parsed(Exception):
    """Raised in place of a run once `run --config` has read its config."""


def _refuse_run(config):
    raise _Parsed


@settings(max_examples=200, deadline=None)
@given(INI_FILES)
def test_any_ini_text_parses_or_exits_2_with_one_error_line(tmp_path_factory, text):
    try:
        parse_config(text)
    except ElastimdpError:
        pass
    path = tmp_path_factory.mktemp("ini") / "config.ini"
    path.write_text(text, encoding="utf-8")
    try:
        # what the CLI reads (reading a file turns "\r" into "\n")
        parse_config(path.read_text(encoding="utf-8"))
        parsed = True
    except ElastimdpError:
        parsed = False
    for argv in (["validate", "--config", str(path)], ["run", "--config", str(path)]):
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(err):
            patch.setattr(harness, "run_comparison", _refuse_run)
            try:
                code = cli.main(argv)
            except _Parsed:
                code = 0
        assert code in (0, 2), argv
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            assert parsed and err.getvalue() == ""


ROOT = Path(__file__).resolve().parents[1]


def _perfbench_workloads():
    """`perfbench/workloads.py`, whose configs the benchmark parses."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


WORKLOADS = _perfbench_workloads()


def _variant_sweep_overrides():
    """Every config `scripts/run_variant_sweep.py` parses, for both utilities."""
    spec = importlib.util.spec_from_file_location(
        "run_variant_sweep", ROOT / "scripts" / "run_variant_sweep.py"
    )
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return [
        {
            "experiment.runs": "1",
            "experiment.base_seed": "20240",
            "utility.kind": utility,
            "load.variation": variation,
            **extra,
        }
        for variation in ("LV1", "LV2")
        for utility in ("r1", "r2")
        for extra in sweep.VARIANTS.values()
    ]


def assert_parsed_as_the_reference(text, overrides=None):
    """The table-driven parser returns the config the per-key reference
    returns, or refuses what the reference refuses."""
    try:
        expected = reference_config.parse_config(text, overrides)
    except ElastimdpError:
        with pytest.raises(ElastimdpError):
            parse_config(text, overrides)
    else:
        assert parse_config(text, overrides) == expected


@settings(max_examples=300, deadline=None)
@given(INI_FILES)
def test_any_ini_text_parses_as_the_reference(text):
    assert_parsed_as_the_reference(text)


@pytest.mark.parametrize(
    "overrides",
    [
        WORKLOADS.COMPARISON,
        WORKLOADS.SCALEOUT,
        *_variant_sweep_overrides(),
        # an empty re.upper_latency_ms follows the threshold before REConfig
        # checks lower < upper
        {"utility.latency_threshold_ms": "80", "re.lower_latency_ms": "70"},
        {"re.lower_latency_ms": "70"},
        {"re.upper_latency_ms": "0"},
        {"re.step_size": "2", "re.lower_latency_ms": "20", "re.upper_latency_ms": "50"},
        {"load.load_min_reqs": "-5000"},
        {"load.load_min_reqs": "0"},
        {"dataset.source": "csv", "dataset.seed": "x"},
        {"experiment.policies": " , "},
    ],
)
def test_named_configs_parse_as_the_reference(overrides):
    assert_parsed_as_the_reference(default_config_ini(), overrides)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1.5x", "", "1.5", "-1"])
@pytest.mark.parametrize("key", FLOAT_KEYS + INT_KEYS + NAME_KEYS)
def test_each_key_parses_as_the_reference(key, value):
    assert_parsed_as_the_reference(default_config_ini(), {**SMALL_INI_OVERRIDES, key: value})
