"""Workload generation and desk-scale system emulation.

The incoming load follows a sinusoid between a minimum and maximum rate;
LV1 starts the wave at the minimum, LV2 a quarter period later at the
mean.  The "system" is a log replay: for the current (vms, load) pair the
emulator picks one matching measurement (nearest-neighbor fallback for
missing pairs) and perturbs it with multiplicative Gaussian noise.  A
synthetic dataset generator provides a low-variance stand-in for real
cluster logs using a saturating utilization/latency curve.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DataFormatError
from .logs import LogStore, MeasurementRecord
from .model import Action, finite_float, slot_setters
from .policies import Policy, PostProcessConfig, apply_benefit_threshold
from .rewards import UtilityConfig, utility_eval

_LATENCY_CURVE_EPS = 1e-3


class LoadVariation(str, Enum):
    LV1 = "LV1"  # starts at the minimum load
    LV2 = "LV2"  # starts at the mean load (quarter-period shift)


@dataclass(frozen=True)
class LoadProfile:
    load_min: float = 1000.0
    load_max: float = 46000.0
    period_ticks: int = 315
    variation: LoadVariation = LoadVariation.LV1

    def __post_init__(self) -> None:
        if not 0 <= self.load_min:
            raise ConfigurationError(f"load_min must be >= 0, got {self.load_min!r}")
        if not self.load_min < self.load_max:
            raise ConfigurationError("load_min must be below load_max")
        if not self.load_max < math.inf:
            raise ConfigurationError(f"load_max must be finite, got {self.load_max!r}")
        if self.period_ticks < 2:
            raise ConfigurationError("period must be at least 2 ticks")


def gen_load(profile: LoadProfile, tick: int) -> float:
    """Sinusoidal load at `tick`: mid + A*sin(2*pi*t/period + phase)."""
    mid = (profile.load_min + profile.load_max) / 2
    amplitude = (profile.load_max - profile.load_min) / 2
    phase = -math.pi / 2 if profile.variation is LoadVariation.LV1 else 0.0
    return mid + amplitude * math.sin(2 * math.pi * tick / profile.period_ticks + phase)


@dataclass(frozen=True)
class SyntheticModelParams:
    """Shape of the synthetic cluster behavior.

    Latency follows base * (1 + u^p / max(eps, 1 - min(u, 0.999))) with
    utilization u = load / (vms * capacity): flat near idle, a sharp knee
    approaching saturation, and still strictly increasing past it.
    """

    per_vm_capacity: float = 4500.0
    base_latency_ms: float = 25.0
    saturation_exponent: float = 2.5
    noise_stddev_fraction: float = 0.05
    samples_per_point: int = 12

    def __post_init__(self) -> None:
        # Chained comparisons also reject NaN and infinities.
        if not 0 < self.per_vm_capacity < math.inf:
            raise ConfigurationError("per_vm_capacity must be positive and finite")
        if not 0 < self.base_latency_ms < math.inf:
            raise ConfigurationError("base_latency_ms must be positive and finite")
        if not math.isfinite(self.saturation_exponent):
            raise ConfigurationError("saturation_exponent must be finite")
        if not 0 <= self.noise_stddev_fraction < math.inf:
            raise ConfigurationError("noise fraction must be finite and >= 0")
        if self.samples_per_point < 1:
            raise ConfigurationError("samples_per_point must be >= 1")

    def latency(self, vms: int, load: float) -> float:
        u = load / (vms * self.per_vm_capacity)
        knee = max(_LATENCY_CURVE_EPS, 1.0 - min(u, 0.999))
        return self.base_latency_ms * (1.0 + u**self.saturation_exponent / knee)

    def throughput(self, vms: int, load: float) -> float:
        return min(load, vms * self.per_vm_capacity)


def gen_synthetic_dataset(
    params: SyntheticModelParams,
    sizes: Sequence[int],
    load_grid: Sequence[float],
    seed: int = 0,
) -> list[MeasurementRecord]:
    """Noisy samples of the synthetic behavior over a (vms, load) grid.

    For each size, load and sample, in that order, the record's latency and
    throughput are the curve's values at the point times a latency and a
    throughput noise factor, each Normal(1, noise fraction), clamped at
    zero.  Each size draws all its factors in one call of shape (loads,
    samples, 2), the last axis latency then throughput: a Generator fills
    an array from its stream in C order, exactly as that many scalar draws
    would, so the per-size call leaves the stream where drawing each
    latency and throughput factor in turn would, and makes the same
    records.  A curve value or noisy value out of float range is a
    ConfigurationError naming the parameters and the (vms, load) point.
    """
    rng = np.random.default_rng(seed)
    fraction, samples = params.noise_stddev_fraction, params.samples_per_point
    records: list[MeasurementRecord] = []
    tick = 0
    for vms in sizes:
        points = [_curve_point(params, vms, load) for load in load_grid]
        noise = rng.normal(1.0, fraction, size=(len(points), samples, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            noisy = np.array(points).reshape(-1, 1, 2) * noise
        noisy = np.where(noisy > 0.0, noisy, 0.0)  # `max(0.0, x)`: NaN clamps too
        overflow = np.argwhere(np.isinf(noisy))
        if len(overflow):
            point, _, column = overflow[0].tolist()
            raise ConfigurationError(
                f"synthetic {('latency', 'throughput')[column]} {points[point][column]!r}"
                f" at (vms={vms}, load={load_grid[point]!r}) times a noise factor of"
                f" dataset.noise_stddev_fraction={fraction!r} is out of float range"
            )
        for load, values in zip(map(float, load_grid), noisy.tolist()):
            for latency, throughput in values:
                records.append(MeasurementRecord(tick, vms, load, latency, throughput))
                tick += 1
    return records


def _curve_point(params: SyntheticModelParams, vms: int, load: float) -> tuple[float, float]:
    """The synthetic (latency, throughput) at (vms, load); a capacity or a
    latency out of float range is a ConfigurationError."""
    if not vms * params.per_vm_capacity < math.inf:
        raise ConfigurationError(
            f"dataset.per_vm_capacity_reqs={params.per_vm_capacity!r} puts the capacity"
            f" of {vms} VMs out of float range"
        )
    try:
        latency = params.latency(vms, load)
    except (OverflowError, ZeroDivisionError):  # u**p out of range, or 0.0**-p
        latency = math.inf
    if not latency < math.inf:
        raise ConfigurationError(
            f"dataset.saturation_exponent={params.saturation_exponent!r} with"
            f" dataset.base_latency_ms={params.base_latency_ms!r} puts the synthetic"
            f" latency at (vms={vms}, load={load!r}) out of float range"
        )
    return latency, params.throughput(vms, load)


@dataclass(frozen=True)
class ScheduleConfig:
    """Timing of an experiment: measurement ticks, decision cadence."""

    tick_seconds: float = 30.0
    decision_every_ticks: int = 10
    horizon_ticks: int = 630
    initial_vms: int = 4
    emulation_noise_fraction: float = 0.05

    def __post_init__(self) -> None:
        if not 0 < self.tick_seconds < math.inf:
            raise ConfigurationError("tick_seconds must be positive")
        if self.decision_every_ticks < 1:
            raise ConfigurationError("decision interval must be >= 1 tick")
        if self.horizon_ticks < 1:
            raise ConfigurationError("horizon must be >= 1 tick")
        if self.initial_vms < 1:
            raise ConfigurationError("initial_vms must be >= 1")
        if not 0 <= self.emulation_noise_fraction < math.inf:
            raise ConfigurationError("noise fraction must be >= 0")


@dataclass(frozen=True, slots=True, init=False)
class TickRecord:
    """One emulated time unit of an episode."""

    tick: int
    load: float
    vms: int
    latency_ms: float
    throughput: float
    utility: float
    violation: bool
    decision: str  # action label at decision ticks, "" otherwise
    decision_ms: float  # wall-clock cost of reaching the decision

    def __init__(
        self,
        tick: int,
        load: float,
        vms: int,
        latency_ms: float,
        throughput: float,
        utility: float,
        violation: bool,
        decision: str,
        decision_ms: float,
    ) -> None:
        # Set through `slot_setters`: an episode records one per tick.
        _set_tick(self, tick)
        _set_load(self, load)
        _set_vms(self, vms)
        _set_latency_ms(self, latency_ms)
        _set_throughput(self, throughput)
        _set_utility(self, utility)
        _set_violation(self, violation)
        _set_decision(self, decision)
        _set_decision_ms(self, decision_ms)


(
    _set_tick, _set_load, _set_vms, _set_latency_ms, _set_throughput,
    _set_utility, _set_violation, _set_decision, _set_decision_ms,
) = slot_setters(TickRecord)


@dataclass
class ExperimentTrace:
    """Per-tick record of one policy episode; `seed` is the run's index in
    a comparison (`harness.run_comparison`), 0 outside one."""

    policy: str
    seed: int = 0
    records: list[TickRecord] = field(default_factory=list)
    valid: bool = True
    error: str | None = None


TRACE_HEADER = (
    "tick,load,vms,latency_ms,throughput,utility,violation,decision,decision_ms"
)


def trace_to_csv(trace: ExperimentTrace) -> str:
    lines = [TRACE_HEADER]
    for r in trace.records:
        lines.append(
            f"{r.tick},{r.load!r},{r.vms},{r.latency_ms!r},{r.throughput!r},"
            f"{r.utility!r},{int(r.violation)},{r.decision},{r.decision_ms!r}"
        )
    return "\n".join(lines) + "\n"


def trace_from_csv(text: str, policy: str = "") -> ExperimentTrace:
    """Parse `trace_to_csv` output; a malformed row raises DataFormatError
    naming its 1-based line.  A row must hold what an episode can record:
    the tick, size and measurements within `MeasurementRecord`'s bounds, a
    finite utility, a violation of 0 or 1, no decision or an `Action`'s
    label, and a finite `decision_ms` >= 0."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != TRACE_HEADER:
        raise DataFormatError(f"expected trace header {TRACE_HEADER!r}")
    fields = TRACE_HEADER.count(",") + 1
    records = []
    for number, line in lines[1:]:
        parts = line.split(",")
        try:
            if len(parts) != fields:
                raise ValueError(f"expected {fields} fields, got {len(parts)}")
            load, latency, throughput = (finite_float(parts[i]) for i in (1, 3, 4))
            sample = MeasurementRecord(int(parts[0]), int(parts[2]), load, latency, throughput)
            violation, decision_ms = int(parts[6]), finite_float(parts[8])
            if violation not in (0, 1):
                raise ValueError(f"violation must be 0 or 1, got {violation}")
            if parts[7] and Action.from_label(parts[7]).label != parts[7]:
                raise ValueError(f"not an action label: {parts[7]!r}")
            if decision_ms < 0:
                raise ValueError(f"decision_ms must be >= 0, got {decision_ms!r}")
            records.append(
                TickRecord(
                    tick=sample.time,
                    load=sample.load,
                    vms=sample.vms,
                    latency_ms=sample.latency_ms,
                    throughput=sample.throughput,
                    utility=finite_float(parts[5]),
                    violation=bool(violation),
                    decision=parts[7],
                    decision_ms=decision_ms,
                )
            )
        except ValueError as exc:
            raise DataFormatError(f"trace line {number}: {exc}") from exc
    return ExperimentTrace(policy=policy, records=records)


def emulate_state(
    record: MeasurementRecord, lat_noise: float, thr_noise: float
) -> tuple[float, float]:
    """Realized (latency_ms, throughput) of a logged `record` scaled by one
    tick's multiplicative noise factors, clamped at zero."""
    return max(0.0, record.latency_ms * lat_noise), max(0.0, record.throughput * thr_noise)


def _draws(rng: np.random.Generator, count: int, noise: float) -> tuple[int, float, float]:
    """One tick's draws, in order: a record index below `count`, then the
    latency and throughput noise factors, each Normal(1, noise)."""
    index = int(rng.integers(count))
    return (index, *rng.normal(1.0, noise, size=2).tolist())


@dataclass(frozen=True)
class EnvironmentTape:
    """A run's environment under one utility, drawn once per
    `LogStore.tape_memo` key.

    `rows` holds, per tick, the load and what `_draws` draws.  `emulated`
    holds one map per tick from a size to the `TickRecord` that tick
    emulates at that size.  A record is frozen and a pure function of the
    row, the store, the size and the utility, so the first episode at a
    size on a tick makes it and every later episode of the run keeps and
    observes the same object.
    """

    rows: tuple[tuple[float, int, float, float], ...]
    emulated: tuple[dict[int, TickRecord], ...] = field(compare=False, repr=False)


def environment_tape(
    store: LogStore,
    profile: LoadProfile,
    schedule: ScheduleConfig,
    utility: UtilityConfig,
    rng: np.random.Generator,
) -> EnvironmentTape | None:
    """The run's tape: per tick, the load and what `_draws` draws with
    `rng`, built once per `LogStore.tape_memo` key; None if the store's
    cells hold uneven record counts, as each tick's index bound then
    depends on its cell."""
    count, noise = store.uniform_count, schedule.emulation_noise_fraction
    if count is None:
        return None
    key = (repr(rng.bit_generator.state), profile, schedule.horizon_ticks, noise, utility)
    tape = store.tape_memo.get(key)
    if tape is None:
        rows = tuple(
            (gen_load(profile, tick), *_draws(rng, count, noise))
            for tick in range(schedule.horizon_ticks)
        )
        tape = store.tape_memo[key] = EnvironmentTape(rows, tuple({} for _ in rows))
    return tape


def run_episode(
    policy: Policy,
    profile: LoadProfile,
    store: LogStore,
    schedule: ScheduleConfig,
    utility: UtilityConfig,
    post: PostProcessConfig = PostProcessConfig(),
    rng_seed: int | np.random.SeedSequence = 0,
) -> ExperimentTrace:
    """Run one policy against the emulated system.

    Each tick reads the load and the draws from the run's environment tape,
    shared by every episode seeded alike, so each policy of a run faces the
    same environment by construction (a store with uneven cells makes the
    same draws tick by tick).  It emulates the current size into a frozen
    `TickRecord`, with the realized utility and any threshold violation,
    and the policy observes that record.  With a tape, the record of a
    (tick, size) is made once, by the first episode there, and later
    episodes of the run observe and keep the same object without selecting
    or emulating (`EnvironmentTape.emulated`).  At every decision tick the
    policy is invoked, the benefit threshold applied, the tick recorded
    with the decision and its cost, and the chosen size change takes effect
    at the next tick.  Policy or emulation failures, such as a size below 1
    or a measurement that overflows, abort the run and return the partial
    trace flagged invalid.
    """
    rng = np.random.default_rng(rng_seed)
    trace = ExperimentTrace(policy=policy.kind.value)
    vms = schedule.initial_vms
    noise = schedule.emulation_noise_fraction
    try:
        tape = environment_tape(store, profile, schedule, utility, rng)
        for tick in range(schedule.horizon_ticks):
            record = tape.emulated[tick].get(vms) if tape else None
            if record is None:
                if vms < 1:
                    raise ValueError(f"vms must be >= 1, got {vms}")
                # Without a tape, draw live, bounded by the count of this cell.
                load, *draws = tape.rows[tick] if tape else (gen_load(profile, tick),)
                records = store.select_logs(vms, load).records
                index, lat_noise, thr_noise = draws or _draws(rng, len(records), noise)
                latency, throughput = emulate_state(records[index], lat_noise, thr_noise)
                if math.inf in (latency, throughput):
                    raise ValueError(f"overflow: latency_ms={latency!r}, throughput={throughput!r}")
                record = TickRecord(
                    tick=tick,
                    load=load,
                    vms=vms,
                    latency_ms=latency,
                    throughput=throughput,
                    utility=utility_eval(utility, latency, throughput, vms),
                    violation=latency > utility.latency_threshold_ms,
                    decision="",
                    decision_ms=0.0,
                )
                if tape:
                    tape.emulated[tick][vms] = record
            policy.observe(record)

            if tick > 0 and tick % schedule.decision_every_ticks == 0:
                started = time.perf_counter()
                decision = policy.decide(vms)
                decision_ms = (time.perf_counter() - started) * 1000.0
                decision = apply_benefit_threshold(decision, record.utility, post)
                # Built directly: `dataclasses.replace` costs twice as much.
                record = TickRecord(
                    record.tick,
                    record.load,
                    record.vms,
                    record.latency_ms,
                    record.throughput,
                    record.utility,
                    record.violation,
                    decision.action.label,
                    decision_ms,
                )
                vms += decision.action.signed_delta
            trace.records.append(record)
    except Exception as exc:  # noqa: BLE001 - partial trace must survive
        trace.valid = False
        trace.error = f"{type(exc).__name__}: {exc}"
    return trace
