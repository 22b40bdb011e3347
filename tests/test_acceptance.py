"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`)."""

import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from elastimdp.emulator import LoadProfile, LoadVariation, gen_load
from elastimdp.harness import (
    build_store,
    default_config_ini,
    load_dataset,
    parse_config,
    run_comparison,
)
from elastimdp.model import ActionKind, MdpModel, MdpState, ModelConfig, build_model
from elastimdp.policies import MDP_KINDS, MdpPolicy, PolicyKind
from elastimdp.queries import parse_query
from elastimdp.solver import (
    best_move,
    brute_force_oracle,
    brute_force_reachability,
    clip_action,
    decide,
    reachability_probability,
    reward_arrivals,
)

from helpers import decisions as trace_decisions, observed_mdp_policy, type_distribution
from instances import random_instance, random_query_text

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number: int, title: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}", file=sys.stderr)
        raise
    elapsed = time.perf_counter() - started
    print(f"[PASS] criterion {number}: {title} ({elapsed:.2f}s)")


def reference_model():
    config = ModelConfig(min_vms=3, max_vms=7, add_limit=2, rem_limit=1)
    rewards = {3: 1.0, 4: 2.0, 5: 3.0, 6: 2.5, 7: 4.0}
    return build_model(config, [MdpState(v, reward=r) for v, r in rewards.items()], current=4)


def test_criterion_1_reference_model_reconstruction():
    with criterion(1, "five-state model reconstruction against the golden dump"):
        started = time.perf_counter()
        model = reference_model()
        golden = (DATA / "reference_model_dump.txt").read_text(encoding="utf-8")
        assert model.dump() == golden
        assert MdpModel.loads(golden) == model

        sizes = range(3, 8)
        index = {v: i for i, v in enumerate(sizes)}

        def matrix(kind):
            rows = [[0.0] * 5 for _ in sizes]
            for v in sizes:
                for (target, _), p in type_distribution(model, (v, 0), kind).items():
                    rows[index[v]][index[target]] += p
            return rows

        assert matrix(ActionKind.ADD) == [
            [0.0, 0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5, 0.0],
            [0.0, 0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
        ]
        assert matrix(ActionKind.REM) == [
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0],
        ]
        identity = [[1.0 if i == j else 0.0 for j in range(5)] for i in range(5)]
        assert matrix(ActionKind.NO_OP) == identity
        assert time.perf_counter() - started < 1.0


def test_criterion_2_solver_matches_brute_force_oracle():
    with criterion(2, "solver equals the strategy-enumeration oracle on 1000 instances"):
        started = time.perf_counter()
        rng = np.random.default_rng(4242)
        for _ in range(1000):
            model = random_instance(rng, max_span=6, max_k=3)
            arrivals = reward_arrivals(model)
            oracle = brute_force_oracle(model)
            for key, state in model.states.items():
                value, action = best_move(model, state, arrivals)
                oracle_value, oracle_action = oracle[key]
                assert abs(value - oracle_value) < 1e-9
                assert action == oracle_action
            decision = decide(model)
            oracle_action, _ = clip_action(oracle[model.initial.key][1], model.config)
            assert decision.action == oracle_action
        assert time.perf_counter() - started < 60.0


def test_criterion_3_reachability_matches_path_enumeration():
    with criterion(3, "Pmax/Pmin equal the path-enumeration oracle; reference query runs"):
        rng = np.random.default_rng(31337)
        for _ in range(400):
            model = random_instance(rng, max_span=6, max_k=3)
            query = parse_query(random_query_text(rng))
            fast = reachability_probability(model, query)
            slow = brute_force_reachability(model, query)
            assert abs(fast - slow) < 1e-9
            assert 0.0 <= fast <= 1.0

        config = ModelConfig(3, 7, add_limit=2, rem_limit=1)
        annotated = build_model(
            config,
            [MdpState(v, center=(20.0 + 2 * v, 1000.0 * v), reward=float(v)) for v in config.sizes],
            current=4,
        )
        query = parse_query("Pmax=? [ F latency<30 & vms_num=7 ]")
        probability = reachability_probability(annotated, query)
        assert 0.0 <= probability <= 1.0
        assert probability == brute_force_reachability(annotated, query)


@pytest.fixture(scope="module")
def default_comparison():
    config = parse_config(default_config_ini())
    started = time.perf_counter()
    result = run_comparison(config)
    return config, result, time.perf_counter() - started


def test_criterion_4_policy_ordering_on_the_synthetic_surrogate(default_comparison):
    with criterion(4, "qualitative policy ordering (EB vs RE/RL, MDP vs RL violations)"):
        config, result, run_seconds = default_comparison
        assert result.all_valid
        summaries = result.summaries
        re = summaries[PolicyKind.RE]
        rl = summaries[PolicyKind.RL_MB]
        eb = summaries[PolicyKind.MDP_EB]
        best_kind = min(MDP_KINDS, key=lambda k: summaries[k].total_violations)
        best = summaries[best_kind]

        assert eb.mean_utility >= re.mean_utility
        assert eb.mean_utility >= rl.mean_utility
        paired_wins = sum(
            1
            for run in range(config.runs)
            if eb.per_run[run].mean_utility >= re.per_run[run].mean_utility
            and eb.per_run[run].mean_utility >= rl.per_run[run].mean_utility
            and best.per_run[run].violations <= rl.per_run[run].violations
        )
        assert paired_wins >= 8, f"paired wins {paired_wins}/10"
        assert run_seconds < 600.0


def test_criterion_5_r2_values_stay_in_the_documented_range():
    with criterion(5, "realized r2 utilities lie in {-1} u [1/16, 1/4]"):
        config = parse_config(
            default_config_ini(),
            {"utility.kind": "r2", "experiment.runs": "2"},
        )
        result = run_comparison(config)
        assert result.all_valid
        checked = 0
        for trace in result.traces.values():
            for record in trace.records:
                value = record.utility
                assert value == -1.0 or (1 / 16 <= value <= 1 / 4), value
                checked += 1
        assert checked == len(config.policies) * 2 * config.schedule.horizon_ticks


def test_criterion_6_decision_latency_at_reference_scale():
    with criterion(6, "every MDP decision at 13 sizes / k=4 finishes below 1.5 s"):
        config = parse_config(default_config_ini())
        store = build_store(config, load_dataset(config))
        worst = 0.0
        for kind in MDP_KINDS:
            for load in (1000.0, 12000.0, 23500.0, 35000.0, 46000.0):
                for current in (4, 10, 16):
                    policy = observed_mdp_policy(
                        kind, store, load, current,
                        config.model, config.utility, config.clustering,
                    )
                    started = time.perf_counter()
                    policy.decide(current)
                    elapsed = time.perf_counter() - started
                    worst = max(worst, elapsed)
                    assert elapsed < 1.5
        print(f"  worst decision time {worst * 1000:.1f} ms", end=" ")


class _UnsmoothedMdpPolicy(MdpPolicy):
    """Bypasses the smoothing helper entirely (the reference behavior a
    window of 1 must reproduce)."""

    def effective_load(self):
        assert self._loads, "no load observed"
        return self._loads[-1]


def test_criterion_7_post_processing_degenerate_settings():
    with criterion(7, "huge benefit threshold all-no_op; window 1 equals unsmoothed"):
        started = time.perf_counter()
        config = parse_config(
            default_config_ini(),
            {
                "experiment.policies": "re, rl_mb, mdp_eb",
                "experiment.runs": "1",
                "schedule.horizon_ticks": "315",
                "postprocess.benefit_threshold_pct": "1000000",
            },
        )
        result = run_comparison(config)
        assert result.all_valid
        for trace in result.traces.values():
            decisions = trace_decisions(trace)
            assert decisions and all(d == "no_op" for d in decisions)
            assert all(r.vms == 4 for r in trace.records)

        # smoothing window 1 must reproduce a policy with no smoothing code
        base = parse_config(
            default_config_ini(),
            {
                "experiment.policies": "mdp_eb",
                "experiment.runs": "1",
                "schedule.horizon_ticks": "315",
                "postprocess.smoothing_window_ticks": "1",
            },
        )
        records = load_dataset(base)
        store = build_store(base, records)
        from elastimdp.emulator import run_episode
        from elastimdp.harness import run_seed

        windowed = MdpPolicy(PolicyKind.MDP_EB, store, base.model, base.utility, base.clustering,
                             smoothing_window=1)
        unsmoothed = _UnsmoothedMdpPolicy(PolicyKind.MDP_EB, store, base.model, base.utility,
                                          base.clustering)
        traces = [
            run_episode(policy, base.load, store, base.schedule, base.utility,
                        post=base.post, rng_seed=run_seed(base.base_seed, 0))
            for policy in (windowed, unsmoothed)
        ]
        assert [r.decision for r in traces[0].records] == [
            r.decision for r in traces[1].records
        ]
        assert [r.vms for r in traces[0].records] == [r.vms for r in traces[1].records]
        assert time.perf_counter() - started < 60.0


def test_criterion_8_load_profile_reference_points():
    with criterion(8, "LV1/LV2 starting points, period, quarter-period shift"):
        lv1 = LoadProfile()
        lv2 = LoadProfile(variation=LoadVariation.LV2)
        assert lv1.period_ticks == 315
        assert gen_load(lv1, 0) == pytest.approx(1000.0, abs=1e-6)
        assert gen_load(lv2, 0) == pytest.approx(23500.0, abs=1e-6)
        assert gen_load(lv1, 315) == pytest.approx(gen_load(lv1, 0), abs=1e-6)
        shift = lv1.period_ticks / 4
        for t in range(0, 630, 5):
            assert gen_load(lv2, t) == pytest.approx(gen_load(lv1, t + shift), abs=1e-6)
