"""Where the traced run records spans and counts, and the per-layer
metrics it derives from them.

Each layer is named after the module of `elastimdp` it measures.  A span
is recorded at the name the caller looks the function up by: module
globals for package-internal calls (`elastimdp.policies.cluster_behavior`
is what `policies` calls), class attributes for methods.
"""

from __future__ import annotations

from collections import Counter

from elastimdp import emulator, harness, model, policies, queries, solver
from elastimdp.logs import LogStore
from elastimdp.model import MdpModel, Variant

from tracing import Tracer, layer_totals


class Counts:
    """Counters kept at the same boundaries as the spans; reset per pass."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self._cells: set = set()

    def select(self, args, kwargs, selection) -> None:
        self.counts["logs.select.interpolated"] += selection.interpolated

    def cluster(self, args, kwargs, result) -> None:
        # Each record belongs to one (vms, load bucket) cell of the store,
        # so the first record and the count identify the cell clustered.
        records, config = args
        cell = (records[0], len(records), config)
        if cell in self._cells:
            self.counts["rewards.cluster.repeats"] += 1
        else:
            self._cells.add(cell)

    def build(self, args, kwargs, built) -> None:
        self.counts["model.states"] += len(built.states)
        self.counts["model.transitions"] += len(built.transitions)

    def decide(self, args, kwargs, decision) -> None:
        if args[0].config.variant is Variant.M3:
            self.counts["solver.mdp3_decisions"] += 1
            self.counts["solver.bounded"] += decision.bounded

    def benefit(self, args, kwargs, decision) -> None:
        self.counts["policies.benefit.vetoes"] += decision.action != args[0].action


# (owner, attribute, span name, name of the Counts hook or None)
TRACE_POINTS = (
    (harness, "load_dataset", "harness.load_dataset", None),
    (harness, "read_records_csv", "logs.parse_csv", None),
    (harness, "build_store", "harness.build_store", None),
    (harness, "run_episode", "emulator.episode", None),
    (emulator, "emulate_state", "emulator.emulate", None),
    (emulator, "apply_benefit_threshold", "policies.benefit", "benefit"),
    (LogStore, "select_logs", "logs.select", "select"),
    (policies, "instantiate_model", "policies.instantiate", None),
    (policies, "cluster_behavior", "rewards.cluster", "cluster"),
    (policies, "state_reward", "rewards.state_reward", None),
    (policies, "build_model", "model.build", "build"),
    (policies, "solve_decide", "solver.decide", "decide"),
    (policies, "rl_decide", "policies.rl_decide", None),
    (policies.ReactivePolicy, "decide", "policies.decide", None),
    (policies.RLPolicy, "decide", "policies.decide", None),
    (policies.MdpPolicy, "decide", "policies.decide", None),
    (MdpModel, "actions_from", "model.actions_from", None),
    (MdpModel, "dump", "model.dump", None),
    (MdpModel, "loads", "model.loads", None),
    (model, "validate_model", "model.validate", None),
    (solver, "reachability_probability", "solver.reach", None),
    (queries, "parse_query", "queries.parse", None),
)


def install(tracer: Tracer, counts: Counts, workload) -> None:
    for owner, attr, name, hook in TRACE_POINTS:
        tracer.install(owner, attr, name, getattr(counts, hook) if hook else None)
    if workload.root_span == "request":
        tracer.install(type(workload), "request", "request")


# name -> unit; counts and times are per pass of the workload.
PER_LAYER = {
    "rewards.cluster.calls": "count",
    "rewards.cluster.self_ms": "ms",
    "rewards.cluster.repeat_frac": "ratio",
    "rewards.state_reward.self_ms": "ms",
    "model.build.self_ms": "ms",
    "model.actions_from.calls": "count",
    "model.actions_from.self_ms": "ms",
    "model.states_per_model": "count",
    "model.transitions_per_model": "count",
    "model.dump.self_ms": "ms",
    "model.loads.self_ms": "ms",
    "model.validate.self_ms": "ms",
    "solver.decide.calls": "count",
    "solver.decide.self_ms": "ms",
    "solver.mdp3_decisions": "count",
    "solver.bounded_frac": "ratio",
    "solver.reach.calls": "count",
    "solver.reach.self_ms": "ms",
    "queries.parse.self_ms": "ms",
    "logs.parse_csv.ms": "ms",
    "logs.select.calls": "count",
    "logs.select.self_ms": "ms",
    "logs.select.interpolated_frac": "ratio",
    "emulator.emulate.self_ms": "ms",
    "emulator.episode.self_ms": "ms",
    "policies.decide.self_ms": "ms",
    "policies.instantiate.self_ms": "ms",
    "policies.rl_decide.self_ms": "ms",
    "policies.benefit.calls": "count",
    "policies.benefit.veto_frac": "ratio",
    "harness.setup.ms": "ms",
    "harness.build_store.self_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
    "trace.root_accounted_frac": "ratio",
}

# Ratio -> the count it is a share of, printed beside it.
RATIO_BASES = {
    "rewards.cluster.repeat_frac": "rewards.cluster.calls",
    "logs.select.interpolated_frac": "logs.select.calls",
    "policies.benefit.veto_frac": "policies.benefit.calls",
    "solver.bounded_frac": "solver.mdp3_decisions",
}


def _share(part: float, base: float) -> float:
    return part / base if base else 0.0


def pass_metrics(spans, counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    totals = layer_totals(spans)

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    def self_ms(name: str) -> float:
        return totals.get(name, (0, 0.0))[1] * 1000.0

    builds = calls("model.build")
    out = {
        "rewards.cluster.calls": calls("rewards.cluster"),
        "rewards.cluster.repeat_frac": _share(counts["rewards.cluster.repeats"], calls("rewards.cluster")),
        "model.actions_from.calls": calls("model.actions_from"),
        "model.states_per_model": _share(counts["model.states"], builds),
        "model.transitions_per_model": _share(counts["model.transitions"], builds),
        "solver.decide.calls": calls("solver.decide"),
        "solver.mdp3_decisions": counts["solver.mdp3_decisions"],
        "solver.bounded_frac": _share(counts["solver.bounded"], counts["solver.mdp3_decisions"]),
        "solver.reach.calls": calls("solver.reach"),
        "logs.select.calls": calls("logs.select"),
        "logs.select.interpolated_frac": _share(counts["logs.select.interpolated"], calls("logs.select")),
        "policies.benefit.calls": calls("policies.benefit"),
        "policies.benefit.veto_frac": _share(counts["policies.benefit.vetoes"], calls("policies.benefit")),
        "trace.spans": len(spans),
    }
    for metric in PER_LAYER:
        if metric.endswith(".self_ms"):
            out[metric] = self_ms(metric[: -len(".self_ms")])
    return out
