#!/usr/bin/env python3
"""Benchmark of the elastimdp decision pipeline.

    python3 perfbench/run.py --workload comparison --seed 0 --seconds 35 --trace 0

Runs one workload (see perfbench/README.md) in this process, single
threaded and closed loop: set-up is timed several times, then one
deterministic pass of work is repeated until --seconds have passed and
at least 200 samples are in.  The outputs are checked, every metric is
printed by name with its unit and sample count, and the last line is a
JSON object {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics; --trace 1 alternates untraced and traced
passes and reports the per-layer metrics.  Exit status is 0 only when
every check passed; 2 when the package source is not beside perfbench/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import sys
import time
from pathlib import Path

import measure
from tracing import END, NAME, START, Tracer, layer_totals, write_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"

SETUP_REPEATS = 21


def import_package() -> None:
    """Put the checkout's own src/ first on the path and import from it,
    never from an installed copy."""
    if not (SRC / "elastimdp" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import elastimdp

    if Path(elastimdp.__file__).resolve().parent != SRC / "elastimdp":
        print(f"error: imported elastimdp from {elastimdp.__file__}", file=sys.stderr)
        sys.exit(2)


def line(name: str, value: float, unit: str, note: str) -> str:
    return f"  {name:<32} {value:>14.6g} {unit:<8} {note}"


def run_setups(workload, probe: measure.SpeedProbe) -> tuple[list[float], list[float], object]:
    """(raw seconds, seconds at the reference speed, state) of repeated set-ups."""
    raw, ref, state = [], [], None
    before = probe.mark()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        state = workload.setup()
        raw.append(time.perf_counter() - started)
        after = probe.mark()
        ref.append(raw[-1] / probe.factor(before, after))
        before = after
    return raw, ref, state


def time_is_up(started: float, seconds: float, round_s: list[float]) -> bool:
    """True once the elapsed time plus half a median round reaches
    `seconds`, so that runs last `seconds` on average."""
    if not round_s:
        return False
    return time.perf_counter() - started + statistics.median(round_s) / 2 >= seconds


def check_passes(workload, passes) -> tuple[list[str], list[str]]:
    problems, lines = workload.check(passes[0])
    for i, p in enumerate(passes[1:], start=2):
        if p.output != passes[0].output:
            problems.append(f"pass {i} did not reproduce pass 1")
    return problems, lines


def timed_run(workload, seconds: float):
    probe = measure.SpeedProbe()
    setup_raw, setup_ref, state = run_setups(workload, probe)
    min_samples = measure.min_samples_for(measure.TAIL_PERCENT)
    passes = []
    started = time.perf_counter()
    while not (
        time_is_up(started, seconds, [p.wall_s for p in passes])
        and sum(len(p.op_ms) for p in passes) >= min_samples
    ):
        result = workload.run_pass(state, probe)
        if passes:
            result.detail = None
        passes.append(result)
    op_ms = [ms for p in passes for ms in p.op_ms]
    ref_op_ms, ref_rates = [], []
    for p in passes:
        ref_wall = 0.0
        for u in p.units:
            # Each op at the speed around it; the rest of the unit at the
            # unit's speed.
            ref_ms = [ms / probe.factor(m, m + 1) for ms, m in zip(u.op_ms, u.op_marks)]
            other_s = u.wall_s - sum(u.op_ms) / 1000.0
            ref_wall += other_s / probe.factor(u.before, u.after) + sum(ref_ms) / 1000.0
            ref_op_ms.extend(ref_ms)
        ref_rates.append(p.ops / ref_wall)
    ops = sum(p.ops for p in passes)
    n = f"n={len(op_ms)} {workload.sample_unit}"
    metrics = {
        "setup_s": (
            statistics.median(setup_ref), "s",
            f"median of {len(setup_ref)} set-ups; raw {statistics.median(setup_raw):.6g} s",
        ),
        "ops_per_s": (
            statistics.median(ref_rates), "1/ref_s",
            f"{workload.op_unit}/s, median of {len(passes)} passes, n={ops};"
            f" raw {statistics.median(p.ops / p.wall_s for p in passes):.6g}",
        ),
        "op_ms_p50": (
            statistics.median(ref_op_ms), "ref_ms", f"{n}; raw {statistics.median(op_ms):.6g} ms",
        ),
        "op_ms_p95": (
            measure.tail_percentile(ref_op_ms), "ref_ms",
            f"{n}, {measure.samples_beyond(len(op_ms), measure.TAIL_PERCENT)} beyond;"
            f" raw {measure.tail_percentile(op_ms):.6g} ms",
        ),
        "peak_rss_mb": (measure.peak_rss_mib(), "MiB", "peak resident set of this process"),
    }
    marks = probe.marks
    note = (
        f"speed probe: {len(marks)} marks, calibration slice median {statistics.median(marks):.4g} ms"
        f" (range {min(marks):.4g}-{max(marks):.4g}), reference {measure.REFERENCE_SLICE_MS} ms"
    )
    return passes, metrics, [note]


def trace_run(workload, seconds: float, spans_path: Path):
    import layers  # imports the package, so only after import_package()

    tracer = Tracer()
    layers.install(tracer, layers.Counts(), workload)
    try:
        with tracer.span("harness.setup"):
            state = workload.setup()
        setup_spans = tracer.take()
    finally:
        tracer.uninstall()
    setup_totals = layer_totals(setup_spans)

    # Marks only between units: a mark inside an episode would show in
    # its span's self time.
    probe = measure.SpeedProbe(spacing_s=math.inf)
    untraced, traced, per_pass = [], [], []
    started = time.perf_counter()
    while not time_is_up(started, seconds, [u.wall_s + t.wall_s for u, t in zip(untraced, traced)]):
        untraced.append(workload.run_pass(state, probe))
        counts = layers.Counts()
        layers.install(tracer, counts, workload)
        try:
            traced.append(workload.run_pass(state, probe))
        finally:
            tracer.uninstall()
        traced[-1].detail = None
        if len(untraced) > 1:
            untraced[-1].detail = None
        spans = tracer.take()
        if len(traced) == 1:
            write_spans(str(spans_path), spans)
        root_ms = sum(
            (s[END] - s[START]) * 1000.0 for s in spans if s[NAME] == workload.root_span
        )
        per_pass.append((layers.pass_metrics(spans, counts.counts), root_ms))

    values = {
        name: statistics.fmean(m[name] for m, _ in per_pass)
        for name in per_pass[0][0]
    }
    values["logs.parse_csv.ms"] = setup_totals.get("logs.parse_csv", (0, 0.0))[1] * 1000.0
    values["harness.setup.ms"] = (setup_spans[0][END] - setup_spans[0][START]) * 1000.0
    # Each traced pass is compared with the untraced pass just before it,
    # so that slow spells of a shared machine cancel out of the ratios.
    values["trace.overhead_frac"] = statistics.median(
        t.wall_s / u.wall_s for u, t in zip(untraced, traced)
    ) - 1.0
    values["trace.root_accounted_frac"] = statistics.median(
        root_ms / sum(u.op_ms) for u, (_, root_ms) in zip(untraced, per_pass)
    )
    metrics = {}
    for name, unit in layers.PER_LAYER.items():
        if name in layers.RATIO_BASES:
            base = layers.RATIO_BASES[name]
            note = f"of {values[base]:g} {base}"
        elif name.endswith("_per_model"):
            note = "mean over built models"
        elif name in ("logs.parse_csv.ms", "harness.setup.ms"):
            note = "one traced set-up"
        else:
            note = f"per pass, mean of {len(traced)} traced passes"
        metrics[name] = (values[name], unit, note)
    metrics["trace.overhead_frac"] = (
        values["trace.overhead_frac"], "ratio",
        f"traced / untraced pass wall - 1, median of {len(traced)} adjacent pairs",
    )
    metrics["trace.root_accounted_frac"] = (
        values["trace.root_accounted_frac"], "ratio",
        f"traced {workload.root_span} time / untraced {workload.sample_unit} time",
    )
    return untraced + traced, metrics, []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("comparison", "scaleout", "whatif"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true",
        help="write the first pass's outputs as the recorded default-seed values",
    )
    args = parser.parse_args(argv)

    # numpy's BLAS pool would start threads the benchmark does not use.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import_package()
    import numpy
    import workloads

    workload = workloads.make(args.workload, args.seed, WORKDIR)
    try:
        if args.record:
            return record(workload, workloads)
        if args.trace:
            WORKDIR.mkdir(exist_ok=True)
            spans_path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.csv"
            passes, metrics, notes = trace_run(workload, args.seconds, spans_path)
        else:
            passes, metrics, notes = timed_run(workload, args.seconds)
    finally:
        workload.close()

    problems, lines = check_passes(workload, passes)
    lines = notes + lines
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}:"
        f" {len(passes)} passes, {attempted} {workload.op_unit};"
        f" {os.cpu_count()} cores, Python {platform.python_version()}, numpy {numpy.__version__}"
    )
    for name, (value, unit, note) in metrics.items():
        print(line(name, value, unit, note))
    print(line("error_rate", failed / attempted, "ratio", f"{failed} failed of {attempted} {workload.op_unit}"))
    for text in lines:
        print(f"  {text}")
    for text in problems:
        print(f"CHECK FAILED: {text}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


def record(workload, workloads) -> int:
    """Store the default seed's first-pass outputs in expected.json."""
    if workload.seed != workloads.DEFAULT_SEED:
        raise SystemExit(f"error: record only the default seed {workloads.DEFAULT_SEED}")
    probe = measure.SpeedProbe()
    _, _, state = run_setups(workload, probe)
    first = workload.run_pass(state, probe)
    if first.failed:
        raise SystemExit("error: refusing to record a pass with failures")
    path = workloads.EXPECTED_PATH
    expected = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    expected[workload.name] = workload.record(first)
    text = json.dumps(expected, indent=1, sort_keys=True)
    # One line per innermost list (one what-if request's answers).
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    path.write_text(text + "\n", encoding="utf-8")
    print(f"recorded {workload.name} outputs of seed {workload.seed} in {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
