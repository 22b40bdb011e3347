"""The benchmark's workloads: inputs made from the seed, set-up, one timed
*pass* of work, and the checks on what a pass produced.

A pass is deterministic for a seed, so a run repeats it until its time is
up and every repeat must reproduce the first pass exactly.  Only the
package's public API is used; calls go through module attributes
(`policies.instantiate_model`, ...) so the traced run can rebind them.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from pathlib import Path

import numpy as np

from elastimdp import (
    ElastimdpError,
    MdpModel,
    brute_force_reachability,
    harness,
    model as model_mod,
    policies,
    queries,
    solver,
)
from elastimdp.harness import default_config_ini, parse_config
from elastimdp.logs import write_records_csv
from elastimdp.model import Action, ActionKind
from elastimdp.policies import PolicyKind, make_policy

import measure

DEFAULT_SEED = 0
EXPECTED_PATH = Path(__file__).with_name("expected.json")

# The CLI defaults (`elastimdp run`) are base_seed 20240 and dataset seed
# 99; seed n shifts both by n, so the default seed reproduces them.
BASE_SEED = 20240
DATASET_SEED = 99

ANSWER_TOL = 1e-9

WHATIF_KINDS = (PolicyKind.MDP_MB, PolicyKind.MDP2, PolicyKind.MDP3)
WHATIF_REQUESTS_PER_PASS = 240
WHATIF_QUERIES = (
    "Pmax=? [ F latency<30 & vms_num=7 ]",
    "Pmin=? [ F latency<60 ]",
    "Pmax=? [ F throughput>=20000 & latency<60 ]",
    "Pmin=? [ F vms_num<=6 ]",
)


@dataclasses.dataclass(frozen=True)
class Unit:
    """A stretch of timed work between two speed-probe marks.  Marks taken
    inside it are left out of `wall_s`; `op_marks[i]` is the index of the
    last mark before op i, and the next mark follows it."""

    before: int
    after: int
    wall_s: float
    op_ms: list[float]
    op_marks: list[int]


@dataclasses.dataclass
class PassResult:
    """What one pass measured.  `output` is compared across passes;
    `detail` is kept for the first pass only, for the full checks."""

    units: list[Unit]
    ops: int
    failed: int
    output: object
    detail: object

    @property
    def wall_s(self) -> float:
        return sum(u.wall_s for u in self.units)

    @property
    def op_ms(self) -> list[float]:
        return [ms for u in self.units for ms in u.op_ms]


class Units:
    """Collects a pass's units, marking the probe after each."""

    def __init__(self, probe: measure.SpeedProbe):
        self.probe = probe
        self.units: list[Unit] = []
        self._before = probe.mark()

    def add(self, wall_s: float, op_ms: list[float], op_marks: list[int]) -> None:
        after = self.probe.mark()
        self.units.append(Unit(self._before, after, wall_s, op_ms, op_marks))
        self._before = after


class ProbedPolicy:
    """Hands every call on to a policy, and lets the speed probe mark
    between decisions, at the `observe` that precedes each tick's decision
    and outside the `decide` call that `run_episode` times."""

    def __init__(self, policy, probe: measure.SpeedProbe):
        self._policy = policy
        self._probe = probe
        self.tick_marks: list[int] = []

    def __getattr__(self, name: str):
        return getattr(self._policy, name)

    def observe(self, record) -> None:
        self.tick_marks.append(self._probe.between_ops())
        self._policy.observe(record)


@dataclasses.dataclass(frozen=True)
class WhatIfRequest:
    kind: PolicyKind
    load: float
    vms: int


def _config(overrides: dict[str, str]):
    return parse_config(default_config_ini(), overrides)


class EpisodeWorkload:
    """Policy episodes as `run_comparison` runs them: one pass is the
    configured policies times runs, on a store built from the set-up's
    records, with the machine speed probed between episodes."""

    op_unit = "episodes"
    sample_unit = "decisions"
    root_span = "policies.decide"

    def __init__(self, name: str, overrides: dict[str, str], seed: int):
        self.name = name
        self.seed = seed
        self.config = _config({
            **overrides,
            "experiment.base_seed": str(BASE_SEED + seed),
            "dataset.seed": str(DATASET_SEED + seed),
        })

    def close(self) -> None:
        pass

    def _policy(self, kind: PolicyKind, store):
        config = self.config
        return make_policy(
            kind, store, config.model, config.utility, config.clustering,
            re_config=config.re_config, rl_config=config.rl_config,
            smoothing_window=config.post.smoothing_window,
        )

    def setup(self):
        records = harness.load_dataset(self.config)
        store = harness.build_store(self.config, records)
        for kind in self.config.policies:
            self._policy(kind, store)
        return records

    def run_pass(self, records, probe: measure.SpeedProbe) -> PassResult:
        config = self.config
        units = Units(probe)
        started = time.perf_counter()
        store = harness.build_store(config, records)
        units.add(time.perf_counter() - started, [], [])
        traces = {}
        for kind in config.policies:
            for run in range(config.runs):
                policy = ProbedPolicy(self._policy(kind, store), probe)
                spent = probe.spent_s
                started = time.perf_counter()
                trace = harness.run_episode(
                    policy, config.load, store, config.schedule, config.utility,
                    post=config.post, rng_seed=harness.run_seed(config.base_seed, run),
                )
                wall = time.perf_counter() - started - (probe.spent_s - spent)
                traces[(kind, run)] = trace
                decided = [r for r in trace.records if r.decision]
                units.add(
                    wall, [r.decision_ms for r in decided],
                    [policy.tick_marks[r.tick] for r in decided],
                )
        return PassResult(
            units.units,
            ops=len(traces),
            failed=sum(not t.valid for t in traces.values()),
            output=measure.decision_fingerprint(traces),
            detail=traces,
        )

    def check(self, first: PassResult) -> tuple[list[str], list[str]]:
        """(problems, report lines) for the first pass's comparison."""
        problems: list[str] = []
        traces = first.detail
        model = self.config.model
        for (kind, run), trace in sorted(traces.items()):
            where = f"{kind.value} run {run}"
            if not trace.valid:
                problems.append(f"{where}: episode aborted: {trace.error}")
                continue
            if len(trace.records) != self.config.schedule.horizon_ticks:
                problems.append(f"{where}: {len(trace.records)} ticks recorded")
            for r in trace.records:
                if not model.min_vms <= r.vms <= model.max_vms:
                    problems.append(f"{where}: tick {r.tick} runs {r.vms} vms")
                    break
                if r.decision and not _within_limits(Action.from_label(r.decision), model):
                    problems.append(f"{where}: tick {r.tick} enacts {r.decision}")
                    break
        if self.seed == DEFAULT_SEED:
            expected = _expected(self.name).get("fingerprint")
            if first.output != expected:
                problems.append(
                    f"decision fingerprint {first.output} != recorded {expected}"
                )
        scores = [harness.compute_metrics(t) for t in traces.values()]
        lines = [
            f"mean_utility {statistics.fmean(m.mean_utility for m in scores):.6f} utility"
            f" (n={first.ops} episodes)",
            f"violations_per_episode {statistics.fmean(m.violations for m in scores):.4f}"
            f" count (n={first.ops} episodes)",
            f"decision fingerprint {first.output}",
        ]
        return problems, lines

    def record(self, first: PassResult) -> dict:
        return {"fingerprint": first.output}


def _within_limits(action: Action, model) -> bool:
    if action.kind is ActionKind.ADD:
        return action.delta <= model.add_limit
    if action.kind is ActionKind.REM:
        return action.delta <= model.rem_limit
    return True


class WhatIfWorkload:
    """Closed loop of what-if requests, mirroring `elastimdp query
    --dump-model`, then `validate`, then `query --model-dump`."""

    op_unit = "requests"
    sample_unit = "requests"
    root_span = "request"

    def __init__(self, seed: int):
        self.name = "whatif"
        self.seed = seed
        self.config = _config({"dataset.seed": str(DATASET_SEED + seed)})
        rng = np.random.default_rng(seed)
        load, model = self.config.load, self.config.model
        # Every seed asks for each kind equally often, in a seeded order,
        # so that seeds differ in loads and sizes but not in model mix.
        kinds = [WHATIF_KINDS[i % len(WHATIF_KINDS)] for i in range(WHATIF_REQUESTS_PER_PASS)]
        self.requests = [
            WhatIfRequest(
                kind=kinds[int(i)],
                load=float(rng.uniform(load.load_min, load.load_max)),
                vms=int(rng.integers(model.min_vms, model.max_vms + 1)),
            )
            for i in rng.permutation(len(kinds))
        ]

    def close(self) -> None:
        pass

    def setup(self):
        records = harness.load_dataset(self.config)
        return harness.build_store(self.config, records)

    def request(self, store, req: WhatIfRequest) -> tuple[MdpModel, tuple[float, ...]]:
        config = self.config
        built, _ = policies.instantiate_model(
            req.kind, store, req.load, req.vms, None,
            config.model, config.utility, config.clustering,
        )
        loaded = MdpModel.loads(built.dump())
        report = model_mod.validate_model(loaded)
        if not report.ok:
            raise ElastimdpError("; ".join(report.violations))
        answers = tuple(
            solver.reachability_probability(loaded, queries.parse_query(text))
            for text in WHATIF_QUERIES
        )
        return loaded, answers

    def run_pass(self, store, probe: measure.SpeedProbe) -> PassResult:
        units = Units(probe)
        answers: list[tuple[float, ...] | str] = []
        m1_models: dict[int, MdpModel] = {}
        failed = 0
        op_ms, op_marks = [], []
        for i, req in enumerate(self.requests):
            op_marks.append(probe.between_ops())
            started = time.perf_counter()
            try:
                loaded, result = self.request(store, req)
            except ElastimdpError as exc:
                failed += 1
                answers.append(f"{type(exc).__name__}: {exc}")
            else:
                answers.append(result)
                if req.kind is PolicyKind.MDP_MB:
                    m1_models[i] = loaded
            op_ms.append((time.perf_counter() - started) * 1000.0)
        units.add(sum(op_ms) / 1000.0, op_ms, op_marks)
        return PassResult(units.units, len(self.requests), failed, answers, m1_models)

    def check(self, first: PassResult) -> tuple[list[str], list[str]]:
        problems = [
            f"request {i}: {a}" for i, a in enumerate(first.output) if isinstance(a, str)
        ]
        oracle_checked = 0
        parsed = [queries.parse_query(text) for text in WHATIF_QUERIES]
        for i, m1 in sorted(first.detail.items()):
            for text, query, answer in zip(WHATIF_QUERIES, parsed, first.output[i]):
                reference = brute_force_reachability(m1, query)
                oracle_checked += 1
                if abs(answer - reference) > ANSWER_TOL:
                    problems.append(
                        f"request {i} ({text}): {answer!r} != path enumeration {reference!r}"
                    )
        if self.seed == DEFAULT_SEED:
            expected = _expected(self.name).get("answers")
            if expected is None or len(expected) != len(first.output):
                problems.append("no recorded what-if answers for the default seed")
            else:
                for i, (got, want) in enumerate(zip(first.output, expected)):
                    if isinstance(got, str) or any(
                        abs(g - w) > ANSWER_TOL for g, w in zip(got, want)
                    ):
                        problems.append(f"request {i}: answers {got} != recorded {want}")
        lines = [
            f"path-enumeration oracle: {oracle_checked} M1 answers checked",
            "kinds: " + ", ".join(
                f"{k.value}={sum(r.kind is k for r in self.requests)}" for k in WHATIF_KINDS
            ),
        ]
        return problems, lines

    def record(self, first: PassResult) -> dict:
        return {"answers": [list(a) for a in first.output]}


def _expected(name: str) -> dict:
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8")).get(name, {})


class CsvEpisodeWorkload(EpisodeWorkload):
    """Episode workload whose logs are read back from a CSV file that is
    written before set-up, so set-up includes the CSV parser."""

    def __init__(self, name: str, overrides: dict[str, str], seed: int, workdir: Path):
        super().__init__(name, overrides, seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.csv_path = workdir / f"{name}-seed{seed}.csv"
        write_records_csv(str(self.csv_path), harness.load_dataset(self.config))
        csv_source = {"dataset.source": "csv", "dataset.path": str(self.csv_path)}
        super().__init__(name, {**overrides, **csv_source}, seed)

    def close(self) -> None:
        self.csv_path.unlink(missing_ok=True)


COMPARISON = {"experiment.runs": "2"}

# mdp_mb rides along with the multi-behavior policies: with only two
# equally sampled policies far apart in cost, the pooled median decision
# time would be the slowest mdp2 decision, an extreme value.
SCALEOUT = {
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
    "schedule.horizon_ticks": "315",
}

def make(name: str, seed: int, workdir: Path):
    if name == "comparison":
        return EpisodeWorkload(name, COMPARISON, seed)
    if name == "scaleout":
        return CsvEpisodeWorkload(name, SCALEOUT, seed, workdir)
    if name == "whatif":
        return WhatIfWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
