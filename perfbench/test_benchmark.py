"""Tests of the benchmark's own arithmetic.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import gc
import json
import math
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from elastimdp.emulator import ExperimentTrace, TickRecord  # noqa: E402

import layers  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, covered_length, layer_totals, self_times  # noqa: E402


# --- percentile rule ---------------------------------------------------------

def test_p95_needs_two_hundred_samples_for_ten_beyond_it():
    assert measure.percentile_rank(200, 95) == 190
    assert measure.samples_beyond(200, 95) == 10
    assert measure.samples_beyond(199, 95) == 9
    assert measure.min_samples_for(95) == 200
    assert measure.min_samples_for(50) == 20


def test_tail_percentile_is_an_observed_value_and_refuses_a_thin_tail():
    values = [float(v) for v in range(200, 0, -1)]
    assert measure.tail_percentile(values) == 190.0
    assert measure.percentile(values, 50) == 100.0
    assert measure.percentile([3.0], 95) == 3.0
    with pytest.raises(ValueError):
        measure.tail_percentile(values[:199])


def test_percentile_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        measure.percentile_rank(0, 95)
    with pytest.raises(ValueError):
        measure.percentile_rank(10, 0)


# --- machine-speed probe ----------------------------------------------------

def test_speed_factor_is_the_median_of_the_marks_around_a_unit():
    probe = measure.SpeedProbe()
    ref = measure.REFERENCE_SLICE_MS
    probe.marks = [ref, ref, 2 * ref, 9 * ref, 2 * ref, 2 * ref, ref]
    # The unit between marks 3 and 4 sees marks 1..6: one burst (9x) does
    # not move the median.
    assert probe.factor(3, 4) == pytest.approx(2.0)
    assert probe.factor(0, 1) == pytest.approx(1.5)  # marks 0..3, clipped at the start
    assert probe.factor(5, 6) == pytest.approx(2.0)  # marks 3..6, clipped at the end


def test_mark_times_the_calibration_kernel_and_counts_its_time():
    probe = measure.SpeedProbe()
    assert probe.last == -1
    assert [probe.mark(), probe.mark()] == [0, 1]
    assert all(ms > 0 for ms in probe.marks)
    assert probe.spent_s >= sum(probe.marks) / 1000.0


def test_between_ops_marks_only_after_the_spacing():
    eager = measure.SpeedProbe(spacing_s=0.0)
    assert [eager.between_ops(), eager.between_ops()] == [0, 1]
    never = measure.SpeedProbe(spacing_s=math.inf)
    assert never.between_ops() == -1
    assert never.mark() == 0
    assert never.between_ops() == 0
    assert never.spent_s > 0


def test_calibration_slice_sets_off_no_garbage_collection():
    gc.collect()
    before = gc.get_count()[0]
    measure.calibration_slice()
    assert gc.get_count()[0] - before < 5



def test_probed_policy_marks_before_each_tick_and_delegates_the_rest():
    class Policy:
        kind = "mdp2"

        def __init__(self):
            self.seen = []

        def observe(self, record):
            self.seen.append(record)

        def decide(self, current):
            return current + 1

    inner = Policy()
    probed = workloads.ProbedPolicy(inner, measure.SpeedProbe(spacing_s=0.0))
    for tick in range(3):
        probed.observe(tick)
    assert probed.tick_marks == [0, 1, 2]
    assert inner.seen == [0, 1, 2]
    assert (probed.kind, probed.decide(4)) == ("mdp2", 5)

# --- self time -----------------------------------------------------------------

def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0]


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([span("a", 1.0, 4.0)]) == [3.0]


def test_self_time_of_nested_spans_subtracts_only_direct_children():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 6.0, 0), span("c", 2.0, 4.0, 1)]
    assert self_times(spans) == [5.0, 3.0, 2.0]
    assert layer_totals(spans) == {"a": (1, 5.0), "b": (1, 3.0), "c": (1, 2.0)}


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 5.0, 0), span("c", 3.0, 7.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_children_are_clipped_to_the_parent_interval():
    spans = [span("a", 0.0, 10.0), span("b", 8.0, 12.0, 0), span("c", -2.0, 1.0, 0)]
    assert self_times(spans)[0] == pytest.approx(7.0)


def test_covered_length_merges_touching_and_ignores_empty_intervals():
    intervals = [(5.0, 6.0), (0.0, 2.0), (2.0, 3.0), (4.0, 4.0), (1.0, 1.5)]
    assert covered_length(intervals, 0.0, 10.0) == pytest.approx(4.0)
    assert covered_length([], 0.0, 10.0) == 0.0


def test_tracer_records_parents_and_requests_and_restores_bindings():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2

    class Owner:
        @staticmethod
        def make(x):
            return module.outer(x)

    originals = (module.inner, module.outer, vars(Owner)["make"])
    tracer = Tracer()
    seen = []
    tracer.install(module, "inner", "inner", lambda args, kwargs, result: seen.append(result))
    tracer.install(module, "outer", "outer")
    tracer.install(Owner, "make", "make")
    assert Owner.make(1) == 4
    assert module.outer(2) == 6
    tracer.uninstall()
    spans = tracer.take()

    assert [s[0] for s in spans] == ["make", "outer", "inner", "outer", "inner"]
    assert [s[3] for s in spans] == [-1, 0, 1, -1, 3]
    assert [s[4] for s in spans] == [0, 0, 0, 1, 1]
    assert all(s[1] <= s[2] for s in spans)
    assert seen == [2, 3]
    assert (module.inner, module.outer, vars(Owner)["make"]) == originals
    assert tracer.take() == []


# --- decision fingerprint --------------------------------------------------------

def trace(labels_and_sizes, decision_ms=0.0, latency_ms=20.0):
    records = [
        TickRecord(tick, 1000.0, vms, latency_ms, 900.0, 1.0, False, label,
                   decision_ms if label else 0.0)
        for tick, (label, vms) in enumerate(labels_and_sizes)
    ]
    return ExperimentTrace(policy="mdp2", seed=0, records=records)


def test_fingerprint_ignores_timing_and_measurement_fields():
    ticks = [("", 4), ("add_2", 4), ("", 6), ("no_op", 6)]
    fast = {("mdp2", 0): trace(ticks, decision_ms=1.5), ("re", 0): trace(ticks)}
    slow = {("re", 0): trace(ticks), ("mdp2", 0): trace(ticks, decision_ms=99.0, latency_ms=35.0)}
    assert measure.decision_fingerprint(fast) == measure.decision_fingerprint(slow)


def test_fingerprint_changes_with_any_decision_or_size():
    ticks = [("", 4), ("add_2", 4), ("", 6)]
    base = measure.decision_fingerprint({("mdp2", 0): trace(ticks)})
    relabelled = [("", 4), ("add_1", 4), ("", 6)]
    resized = [("", 4), ("add_2", 4), ("", 5)]
    assert measure.decision_fingerprint({("mdp2", 0): trace(relabelled)}) != base
    assert measure.decision_fingerprint({("mdp2", 0): trace(resized)}) != base
    assert measure.decision_fingerprint({("mdp2", 1): trace(ticks)}) != base


def test_fingerprint_reads_enum_policy_keys_by_value():
    from elastimdp.policies import PolicyKind

    ticks = [("", 4), ("rem_1", 4)]
    by_enum = {(PolicyKind.MDP2, 0): trace(ticks)}
    by_text = {("mdp2", 0): trace(ticks)}
    assert measure.decision_fingerprint(by_enum) == measure.decision_fingerprint(by_text)


# --- BENCHMARK.json ------------------------------------------------------------

def test_benchmark_json_lists_exactly_the_per_layer_metrics_reported():
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert listed == layers.PER_LAYER
    assert set(layers.RATIO_BASES.values()) <= set(listed)
