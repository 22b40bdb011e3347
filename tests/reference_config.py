"""The per-key form of `harness.parse_config`, kept as a test-side
reference: one hand-written `get`/`number` call per key.  The package's
table-driven parser must return an equal `ExperimentConfig` on every input,
or both must refuse it."""

from __future__ import annotations

import configparser
from typing import Mapping

from elastimdp.emulator import LoadProfile, LoadVariation, ScheduleConfig, SyntheticModelParams
from elastimdp.errors import ConfigurationError
from elastimdp.harness import DatasetSpec, ExperimentConfig, default_config_ini
from elastimdp.model import ModelConfig, finite_float
from elastimdp.policies import PolicyKind, PostProcessConfig, REConfig, RLConfig
from elastimdp.rewards import ClusteringConfig, UtilityConfig, UtilityKind


def parse_config(
    text: str, overrides: Mapping[str, str] | None = None
) -> ExperimentConfig:
    """Parse the sectioned key-value experiment configuration.

    `text` is read over the built-in defaults (`default_config_ini`), the
    one source of every default; `overrides` maps "section.key" to
    replacement values (CLI flags).  Sections and keys the defaults lack
    are rejected so typos fail loudly.  Values are read literally: a `%`
    is a character, not the start of an interpolation.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(default_config_ini())
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

    def number(section: str, key: str) -> float:
        # NaN and infinities would slip past every range check below.
        try:
            return finite_float(get(section, key))
        except ValueError as exc:
            raise ValueError(f"{section}.{key}: {exc}") from exc

    try:
        policies = tuple(
            PolicyKind(name.strip())
            for name in get("experiment", "policies").split(",")
            if name.strip()
        )
    except ValueError as exc:
        raise ConfigurationError(f"unknown policy name: {exc}") from exc

    try:
        model = ModelConfig(
            min_vms=int(get("model", "min_vms")),
            max_vms=int(get("model", "max_vms")),
            add_limit=int(get("model", "add_limit")),
            rem_limit=int(get("model", "rem_limit")),
        )
        utility = UtilityConfig(
            kind=UtilityKind(get("utility", "kind")),
            latency_threshold_ms=number("utility", "latency_threshold_ms"),
        )
        clustering = ClusteringConfig(
            k=int(get("clustering", "k")),
            dims=int(get("clustering", "dims")),
            load_bucket_width=number("clustering", "load_bucket_width_reqs"),
            max_iterations=int(get("clustering", "max_iterations")),
            seed=int(get("clustering", "seed")),
        )
        load = LoadProfile(
            load_min=number("load", "load_min_reqs"),
            load_max=number("load", "load_max_reqs"),
            period_ticks=int(get("load", "period_ticks")),
            variation=LoadVariation(get("load", "variation")),
        )
        post = PostProcessConfig(
            benefit_threshold_pct=number("postprocess", "benefit_threshold_pct"),
            smoothing_window=int(get("postprocess", "smoothing_window_ticks")),
        )
        schedule = ScheduleConfig(
            tick_seconds=number("schedule", "tick_seconds"),
            decision_every_ticks=int(get("schedule", "decision_every_ticks")),
            horizon_ticks=int(get("schedule", "horizon_ticks")),
            initial_vms=int(get("schedule", "initial_vms")),
            emulation_noise_fraction=number("schedule", "emulation_noise_fraction"),
        )
        # An empty upper latency follows the utility's threshold.
        step_size = get("re", "step_size")
        re_config = REConfig(
            upper_latency_ms=(
                number("re", "upper_latency_ms")
                if get("re", "upper_latency_ms")
                else utility.latency_threshold_ms
            ),
            lower_latency_ms=(
                number("re", "lower_latency_ms") if get("re", "lower_latency_ms") else None
            ),
            step_size=int(step_size) if step_size else None,
        )
        rl_config = RLConfig(
            alpha=number("rl", "alpha"),
            gamma=number("rl", "gamma"),
        )
        source = get("dataset", "source")
        synthetic = SyntheticModelParams(
            per_vm_capacity=number("dataset", "per_vm_capacity_reqs"),
            base_latency_ms=number("dataset", "base_latency_ms"),
            saturation_exponent=number("dataset", "saturation_exponent"),
            noise_stddev_fraction=number("dataset", "noise_stddev_fraction"),
            samples_per_point=int(get("dataset", "samples_per_point")),
        )
        if source == "synthetic":
            dataset = DatasetSpec(synthetic=synthetic, seed=int(get("dataset", "seed")))
        elif source == "csv":
            path = get("dataset", "path")
            if not path:
                raise ConfigurationError("dataset.source=csv requires dataset.path")
            dataset = DatasetSpec(path=path, seed=int(get("dataset", "seed")))
        else:
            raise ConfigurationError(
                f"dataset.source must be 'synthetic' or 'csv', got {source!r}"
            )
        return ExperimentConfig(
            policies=policies,
            runs=int(get("experiment", "runs")),
            base_seed=int(get("experiment", "base_seed")),
            model=model,
            utility=utility,
            clustering=clustering,
            load=load,
            post=post,
            schedule=schedule,
            re_config=re_config,
            rl_config=rl_config,
            dataset=dataset,
        )
    except ValueError as exc:
        raise ConfigurationError(f"bad config value: {exc}") from exc
