"""Experiment configuration, orchestration, and metrics.

An experiment runs a list of policies for several emulated episodes each.
Run i's load wave and noise draws derive from (base_seed, i) only and are
drawn once per store and utility (`emulator.environment_tape`), so every
policy of the run reads the same environment by construction.  The tape
also keeps the `TickRecord` each (tick, size) emulates to, so a tick is
emulated once per run and size, whichever policy reaches it first, and
every policy there observes and keeps that one frozen record.
Configuration lives in a flat INI file with units spelled out in the key
names; one table gives each key's parser and the object it fills, and
every key can be overridden.
"""

from __future__ import annotations

import configparser
import io
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .emulator import (
    ExperimentTrace,
    LoadProfile,
    LoadVariation,
    ScheduleConfig,
    SyntheticModelParams,
    gen_synthetic_dataset,
    run_episode,
    trace_to_csv,
)
from .errors import ConfigurationError
from .logs import LogStore, MeasurementRecord, read_records_csv
from .model import ModelConfig, finite_float
from .policies import (
    PolicyKind,
    PostProcessConfig,
    REConfig,
    RLConfig,
    make_policy,
)
from .rewards import ClusteringConfig, UtilityConfig, UtilityKind


@dataclass(frozen=True)
class DatasetSpec:
    """Where the measurement logs come from: a CSV file or the synthetic
    generator."""

    path: str | None = None
    synthetic: SyntheticModelParams | None = None
    seed: int = 99

    def __post_init__(self) -> None:
        if (self.path is None) == (self.synthetic is None):
            raise ConfigurationError("dataset needs exactly one of path/synthetic")
        if self.seed < 0:
            raise ConfigurationError(f"dataset seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed experiment; `parse_config` builds it from the INI."""

    policies: tuple[PolicyKind, ...]
    runs: int
    base_seed: int
    model: ModelConfig
    utility: UtilityConfig
    clustering: ClusteringConfig
    load: LoadProfile
    post: PostProcessConfig
    schedule: ScheduleConfig
    re_config: REConfig
    rl_config: RLConfig
    dataset: DatasetSpec

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ConfigurationError("runs must be >= 1")
        if self.base_seed < 0:
            raise ConfigurationError(f"base_seed must be >= 0, got {self.base_seed}")
        if not self.policies:
            raise ConfigurationError("at least one policy is required")
        if not self.model.min_vms <= self.schedule.initial_vms <= self.model.max_vms:
            raise ConfigurationError(
                f"initial_vms {self.schedule.initial_vms} outside the model range"
            )


def load_dataset(config: ExperimentConfig) -> list[MeasurementRecord]:
    """The records a config's runs read: its CSV file, else its synthetic
    dataset.  A CSV file that does not exist is a `ConfigurationError`."""
    spec = config.dataset
    if spec.path is not None:
        try:
            return read_records_csv(spec.path)
        except FileNotFoundError:
            raise ConfigurationError(f"dataset file not found: {spec.path}") from None
    assert spec.synthetic is not None
    loads = load_grid(
        config.load.load_min, config.load.load_max, config.clustering.load_bucket_width
    )
    return gen_synthetic_dataset(
        spec.synthetic, list(config.model.sizes), loads, seed=spec.seed
    )


# More loads than this would be a data set no run reads in reasonable time.
MAX_GRID_LOADS = 100_000


def load_grid(lo: float, hi: float, step: float) -> list[float]:
    """Loads from `lo` up to `hi` (inclusive, within 1e-9) every `step`.

    The one check of a grid's inputs: the bounds must be finite, the step
    positive and large enough to advance every load, and the grid must
    hold between 1 and `MAX_GRID_LOADS` loads.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and 0 < step < math.inf):
        raise ConfigurationError(
            "load grid bounds must be finite and its step positive,"
            f" got {lo!r}, {hi!r}, {step!r}"
        )
    if lo > hi + 1e-9:
        raise ConfigurationError(f"empty load grid: minimum {lo!r} > maximum {hi!r}")
    if (hi - lo) / step >= MAX_GRID_LOADS:
        raise ConfigurationError(
            f"load grid step {step!r} would put more than {MAX_GRID_LOADS} loads"
            f" between {lo!r} and {hi!r}"
        )
    grid = []
    load = lo
    while load <= hi + 1e-9:
        grid.append(float(load))
        if load + step == load:
            raise ConfigurationError(f"load grid step {step!r} does not advance the load {load!r}")
        load += step
    return grid


def build_store(config: ExperimentConfig, records: Sequence[MeasurementRecord]) -> LogStore:
    return LogStore(records, bucket_width=config.clustering.load_bucket_width)


@dataclass(frozen=True)
class TraceMetrics:
    """Per-trace scoring: mean realized utility, cumulative threshold
    violations, and decision-time statistics."""

    mean_utility: float
    violations: int
    mean_decision_ms: float
    max_decision_ms: float
    ticks: int
    valid: bool = True


def compute_metrics(trace: ExperimentTrace) -> TraceMetrics:
    if not trace.records:
        return TraceMetrics(0.0, 0, 0.0, 0.0, 0, trace.valid)
    utilities = [r.utility for r in trace.records]
    decision_times = [r.decision_ms for r in trace.records if r.decision]
    return TraceMetrics(
        mean_utility=statistics.fmean(utilities),
        violations=sum(r.violation for r in trace.records),
        mean_decision_ms=statistics.fmean(decision_times) if decision_times else 0.0,
        max_decision_ms=max(decision_times, default=0.0),
        ticks=len(trace.records),
        valid=trace.valid,
    )


@dataclass(frozen=True)
class PolicySummary:
    policy: PolicyKind
    per_run: tuple[TraceMetrics, ...]

    @property
    def mean_utility(self) -> float:
        return statistics.fmean(m.mean_utility for m in self.per_run)

    @property
    def mean_violations(self) -> float:
        return statistics.fmean(m.violations for m in self.per_run)

    @property
    def total_violations(self) -> int:
        return sum(m.violations for m in self.per_run)

    @property
    def mean_decision_ms(self) -> float:
        return statistics.fmean(m.mean_decision_ms for m in self.per_run)

    @property
    def max_decision_ms(self) -> float:
        return max(m.max_decision_ms for m in self.per_run)


@dataclass
class ComparisonResult:
    config: ExperimentConfig
    summaries: dict[PolicyKind, PolicySummary]
    traces: dict[tuple[PolicyKind, int], ExperimentTrace]

    @property
    def all_valid(self) -> bool:
        return all(t.valid for t in self.traces.values())


def run_seed(base_seed: int, run_index: int) -> np.random.SeedSequence:
    """Emulation seed of one run: a function of the run index only, so it
    keys the one environment tape every policy's episode of the run reads."""
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(run_index,))


def run_comparison(
    config: ExperimentConfig,
    records: Sequence[MeasurementRecord] | None = None,
) -> ComparisonResult:
    """Run every configured policy for every run index and aggregate.

    Cells execute sequentially in (policy, run) order; each cell gets a
    fresh policy instance, so cells are independent and the aggregation
    does not depend on execution order.  They share one store, so each
    run's environment tape is drawn by its first cell and read by the rest.
    """
    if records is None:
        records = load_dataset(config)
    store = build_store(config, records)
    traces: dict[tuple[PolicyKind, int], ExperimentTrace] = {}
    summaries: dict[PolicyKind, PolicySummary] = {}
    for kind in config.policies:
        per_run = []
        for run in range(config.runs):
            policy = make_policy(
                kind,
                store,
                config.model,
                config.utility,
                config.clustering,
                re_config=config.re_config,
                rl_config=config.rl_config,
                smoothing_window=config.post.smoothing_window,
            )
            trace = run_episode(
                policy,
                config.load,
                store,
                config.schedule,
                config.utility,
                post=config.post,
                rng_seed=run_seed(config.base_seed, run),
            )
            trace.seed = run
            traces[(kind, run)] = trace
            per_run.append(compute_metrics(trace))
        summaries[kind] = PolicySummary(kind, tuple(per_run))
    return ComparisonResult(config=config, summaries=summaries, traces=traces)


# --- configuration file handling -------------------------------------------

_DEFAULT_INI = """\
[experiment]
policies = re, rl_mb, mdp_mb, mdp_eb, mdp2, mdp3
runs = 10
base_seed = 20240

[model]
min_vms = 4
max_vms = 16
add_limit = 3
rem_limit = 2

[utility]
kind = r1
latency_threshold_ms = 60

[clustering]
k = 4
dims = 2
load_bucket_width_reqs = 1000
max_iterations = 50
seed = 7

[load]
load_min_reqs = 1000
load_max_reqs = 46000
period_ticks = 315
variation = LV1

[postprocess]
benefit_threshold_pct = 0
smoothing_window_ticks = 1

[schedule]
tick_seconds = 30
decision_every_ticks = 10
horizon_ticks = 630
initial_vms = 4
emulation_noise_fraction = 0.05

[dataset]
source = synthetic
path =
per_vm_capacity_reqs = 4500
base_latency_ms = 25
saturation_exponent = 2.5
noise_stddev_fraction = 0.05
samples_per_point = 12
seed = 99

[re]
upper_latency_ms =
lower_latency_ms =
step_size =

[rl]
alpha = 0.1
gamma = 0.5
"""


def default_config_ini() -> str:
    return _DEFAULT_INI


def _policy_list(text: str) -> tuple[PolicyKind, ...]:
    return tuple(PolicyKind(name.strip()) for name in text.split(",") if name.strip())


# The object each section builds and the parser of each key it reads.
# `parse_config` reads `experiment.policies` and `dataset.source`, `path`
# and `seed` itself, and passes each object the fields its section lacks.
_SECTIONS: dict[str, tuple[type, dict[str, Callable[[str], object]]]] = {
    "experiment": (ExperimentConfig, {"runs": int, "base_seed": int}),
    "model": (ModelConfig, {"min_vms": int, "max_vms": int, "add_limit": int, "rem_limit": int}),
    "utility": (UtilityConfig, {"kind": UtilityKind, "latency_threshold_ms": finite_float}),
    "clustering": (ClusteringConfig, {
        "k": int, "dims": int, "load_bucket_width_reqs": finite_float,
        "max_iterations": int, "seed": int,
    }),
    "load": (LoadProfile, {
        "load_min_reqs": finite_float, "load_max_reqs": finite_float,
        "period_ticks": int, "variation": LoadVariation,
    }),
    "postprocess": (PostProcessConfig, {
        "benefit_threshold_pct": finite_float, "smoothing_window_ticks": int,
    }),
    "schedule": (ScheduleConfig, {
        "tick_seconds": finite_float, "decision_every_ticks": int, "horizon_ticks": int,
        "initial_vms": int, "emulation_noise_fraction": finite_float,
    }),
    "re": (REConfig, {
        "upper_latency_ms": finite_float, "lower_latency_ms": finite_float, "step_size": int,
    }),
    "rl": (RLConfig, {"alpha": finite_float, "gamma": finite_float}),
    "dataset": (SyntheticModelParams, {
        "per_vm_capacity_reqs": finite_float, "base_latency_ms": finite_float,
        "saturation_exponent": finite_float, "noise_stddev_fraction": finite_float,
        "samples_per_point": int,
    }),
}

# Every other key is the name of the field it fills.
_FIELDS = {
    "load_bucket_width_reqs": "load_bucket_width",
    "load_min_reqs": "load_min",
    "load_max_reqs": "load_max",
    "smoothing_window_ticks": "smoothing_window",
    "per_vm_capacity_reqs": "per_vm_capacity",
}


def parse_config(
    text: str, overrides: Mapping[str, str] | None = None
) -> ExperimentConfig:
    """Parse the sectioned key-value experiment configuration.

    `text` is read over the built-in defaults (`default_config_ini`), the
    one source of every default; `overrides` maps "section.key" to
    replacement values (CLI flags).  Sections and keys the defaults lack
    are rejected so typos fail loudly.  Values are read literally: a `%`
    is a character, not the start of an interpolation.  A value its
    parser refuses is an error that names its `section.key`.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(_DEFAULT_INI)
    known = {section: set(parser[section]) for section in parser.sections()}
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"bad config syntax: {exc}") from exc
    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if not key:
            raise ConfigurationError(f"override {dotted!r} is not section.key=value")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)

    for section in parser.sections():
        if section not in known:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in known[section]:
                raise ConfigurationError(f"unknown config key {section}.{key}")

    def get(section: str, key: str) -> str:
        return parser.get(section, key).strip()

    def convert(section: str, key: str, parse: Callable[[str], object]) -> object:
        try:
            return parse(get(section, key))
        except ValueError as exc:
            raise ConfigurationError(f"bad config value: {section}.{key}: {exc}") from exc

    def build(section: str, **fields: object) -> object:
        """`section`'s object from its table rows over `fields`; a key left
        empty keeps the field `fields` gives it."""
        cls, parsers = _SECTIONS[section]
        for key, parse in parsers.items():
            field = _FIELDS.get(key, key)
            if field not in fields or get(section, key):
                fields[field] = convert(section, key, parse)
        return cls(**fields)

    # The synthetic keys are checked whatever the source.
    source = get("dataset", "source")
    synthetic, seed = build("dataset"), convert("dataset", "seed", int)
    if source == "synthetic":
        dataset = DatasetSpec(synthetic=synthetic, seed=seed)
    elif source == "csv":
        if not get("dataset", "path"):
            raise ConfigurationError("dataset.source=csv requires dataset.path")
        dataset = DatasetSpec(path=get("dataset", "path"), seed=seed)
    else:
        raise ConfigurationError(
            f"dataset.source must be 'synthetic' or 'csv', got {source!r}"
        )
    utility = build("utility")
    return build(
        "experiment",
        policies=convert("experiment", "policies", _policy_list),
        model=build("model"),
        utility=utility,
        clustering=build("clustering"),
        load=build("load"),
        post=build("postprocess"),
        schedule=build("schedule"),
        # An empty re value is unset, and an unset upper latency follows
        # the utility's threshold.
        re_config=build(
            "re",
            upper_latency_ms=utility.latency_threshold_ms,
            lower_latency_ms=None,
            step_size=None,
        ),
        rl_config=build("rl"),
        dataset=dataset,
    )


# --- output files ------------------------------------------------------------

SUMMARY_HEADER = (
    "policy,runs,mean_utility,mean_violations,total_violations,"
    "mean_decision_ms,max_decision_ms"
)
RUNS_HEADER = "policy,run,ticks,mean_utility,violations,mean_decision_ms,max_decision_ms,valid"


def summary_csv(result: ComparisonResult) -> str:
    lines = [SUMMARY_HEADER]
    for kind, s in result.summaries.items():
        lines.append(
            f"{kind.value},{len(s.per_run)},{s.mean_utility!r},{s.mean_violations!r},"
            f"{s.total_violations},{s.mean_decision_ms!r},{s.max_decision_ms!r}"
        )
    return "\n".join(lines) + "\n"


def runs_csv(result: ComparisonResult) -> str:
    lines = [RUNS_HEADER]
    for kind, s in result.summaries.items():
        for run, m in enumerate(s.per_run):
            lines.append(
                f"{kind.value},{run},{m.ticks},{m.mean_utility!r},{m.violations},"
                f"{m.mean_decision_ms!r},{m.max_decision_ms!r},{int(m.valid)}"
            )
    return "\n".join(lines) + "\n"


def text_report(result: ComparisonResult) -> str:
    config = result.config
    out = io.StringIO()
    out.write("policy comparison report\n")
    out.write("========================\n")
    out.write(
        f"runs={config.runs} horizon={config.schedule.horizon_ticks} ticks"
        f" ({config.schedule.tick_seconds:g}s each),"
        f" decisions every {config.schedule.decision_every_ticks} ticks\n"
    )
    out.write(
        f"vms range [{config.model.min_vms}, {config.model.max_vms}],"
        f" limits +{config.model.add_limit}/-{config.model.rem_limit},"
        f" utility {config.utility.kind.value}"
        f" (threshold {config.utility.latency_threshold_ms:g} ms)\n"
    )
    out.write(
        f"load {config.load.variation.value}"
        f" [{config.load.load_min:g}, {config.load.load_max:g}] req/s,"
        f" period {config.load.period_ticks} ticks\n\n"
    )
    out.write(
        f"{'policy':<8} {'mean utility':>14} {'mean violations':>16}"
        f" {'mean dec ms':>12} {'max dec ms':>11}\n"
    )
    for kind, s in result.summaries.items():
        out.write(
            f"{kind.value:<8} {s.mean_utility:>14.2f} {s.mean_violations:>16.1f}"
            f" {s.mean_decision_ms:>12.2f} {s.max_decision_ms:>11.2f}\n"
        )
    invalid = [key for key, trace in result.traces.items() if not trace.valid]
    if invalid:
        out.write("\ninvalid traces:\n")
        for kind, run in invalid:
            out.write(f"  {kind.value} run {run}: {result.traces[(kind, run)].error}\n")
    return out.getvalue()


def write_outputs(result: ComparisonResult, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.csv").write_text(summary_csv(result), encoding="utf-8")
    (out / "runs.csv").write_text(runs_csv(result), encoding="utf-8")
    (out / "report.txt").write_text(text_report(result), encoding="utf-8")
    for (kind, run), trace in result.traces.items():
        (out / f"trace_{kind.value}_{run}.csv").write_text(
            trace_to_csv(trace), encoding="utf-8"
        )
    return out
