#!/usr/bin/env python3
"""Write or check a `BENCH_<n>.json`: the measured state of one checkout.

    python3 scripts/bench_file.py --pr N                      # this checkout
    python3 scripts/bench_file.py --pr M --checkout ../other  # another one
    python3 scripts/bench_file.py --check

`--pr N` measures the checkout (by default the one holding this script)
and writes `BENCH_<N>.json` beside this script's `scripts/` directory.
The file holds:

* the machine: core count, Python and numpy versions, as in
  `perfbench/machine.json`, read from the interpreter that measured;
* the wall seconds of the default 10-run `elastimdp run` and of Tier-1,
  each the median of 3 runs, with every sample;
* each perfbench workload's five end-to-end metrics at seed 0, reference
  and raw (`peak_rss_mb` has no raw figure), as the median and the
  interquartile range (`statistics.quantiles` with n=4, as
  `perfbench/spread.py` takes it) of 3 runs of
  `perfbench/run.py --seconds 35 --trace 0`;
* the sha256 of columns 1-8 (every column but `decision_ms`) of the 60
  traces of the default `elastimdp run`, concatenated in policy and run
  order;
* perfbench's seed-0 outputs: the comparison and scaleout decision
  fingerprints, and the sha256 of the what-if answers.

`--check` reads the newest `BENCH_*.json`, checks it against the schema
above, reruns the default `elastimdp run` and compares its trace sha256
with the pinned one, so no change can move a decision without a new file.
The benchmark runs single-threaded, one process after another.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "elastimdp-bench/1"
POLICIES = ("re", "rl_mb", "mdp_mb", "mdp_eb", "mdp2", "mdp3")
DEFAULT_RUNS = 10
WORKLOADS = ("comparison", "scaleout", "whatif")
METRICS = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_p95", "peak_rss_mb")
NO_RAW = ("peak_rss_mb",)  # perfbench states memory as measured, with no raw figure
RUNS = 3  # of each timed measurement
SECONDS = 35.0  # of each perfbench run, as BENCHMARK.json runs them

RUN_CLI = "import sys; from elastimdp.cli import main; sys.exit(main(sys.argv[1:]))"

# Runs one seed-0 pass of each workload with perfbench's own code and
# prints what `run.py --record` would store for it.
SEED0_OUTPUTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import measure, run, workloads
run.import_package()
out = {}
for name in sys.argv[2:]:
    workload = workloads.make(name, workloads.DEFAULT_SEED, run.WORKDIR)
    try:
        probe = measure.SpeedProbe()
        _, _, state = run.run_setups(workload, probe)
        out[name] = workload.record(workload.run_pass(state, probe))
    finally:
        workload.close()
print(json.dumps(out))
"""


def environment(checkout: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    return env


def timed(command: list[str], checkout: Path) -> tuple[float, str]:
    """Wall seconds and standard output of `command` run in `checkout`;
    a failing command stops the script with its output."""
    started = time.perf_counter()
    done = subprocess.run(
        command, cwd=checkout, env=environment(checkout), capture_output=True, text=True
    )
    seconds = time.perf_counter() - started
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(command)} exited {done.returncode}\n{done.stdout}{done.stderr}")
    return seconds, done.stdout


def default_run(checkout: Path, out_dir: Path) -> float:
    """Wall seconds of the default `elastimdp run` of `checkout`."""
    seconds, _ = timed([sys.executable, "-c", RUN_CLI, "run", "--out-dir", str(out_dir)], checkout)
    return seconds


def traces_sha256(out_dir: Path) -> str:
    """sha256 of columns 1-8 of every default trace, as `cut -d, -f1-8`
    prints them, in policy then run order."""
    digest = hashlib.sha256()
    paths = [out_dir / f"trace_{p}_{r}.csv" for p in POLICIES for r in range(DEFAULT_RUNS)]
    for path in paths:
        for row in path.read_bytes().splitlines():
            digest.update(b",".join(row.split(b",")[:8]) + b"\n")
    return digest.hexdigest()


def spread(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": statistics.median(samples), "iqr": q3 - q1, "samples": samples}


def perfbench_run(checkout: Path, workload: str, seconds: float) -> dict[str, dict[str, float]]:
    """The reference and raw value of each end-to-end metric of one seed-0
    `--trace 0` run (the reference only for `NO_RAW`); a run that is not
    correct, or a raw value missing from perfbench's output, stops the script."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload]
    _, out = timed(command + ["--seed", "0", "--seconds", str(seconds), "--trace", "0"], checkout)
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"error: perfbench {workload} was not correct\n{out}")
    values = {}
    for name in METRICS:
        values[name] = {"ref": result["metrics"][name]["value"]}
        if name not in NO_RAW:
            found = re.search(rf"^  {name} .*; raw (\S+)", out, re.M)
            if found is None:
                sys.exit(f"error: perfbench {workload} printed no raw {name}\n{out}")
            values[name]["raw"] = float(found[1])
    return values


def source(checkout: Path) -> dict:
    """The checkout's HEAD commit, whether its tracked files differ from it,
    and the sha256 of its `src/` files, which names the code measured."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True).stdout

    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(f"{path.relative_to(checkout)}\n".encode() + path.read_bytes())
    return {
        "commit": git("rev-parse", "HEAD").strip(),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
        "src_sha256": digest.hexdigest(),
    }


def measure_checkout(checkout: Path, pr: int) -> dict:
    runs, seconds = RUNS, SECONDS
    _, versions = timed(
        [sys.executable, "-c", "import os, platform, numpy;"
         " print(os.cpu_count(), platform.python_version(), numpy.__version__)"],
        checkout,
    )
    cores, python, numpy_version = versions.split()
    with tempfile.TemporaryDirectory() as scratch:
        out_dirs = [Path(scratch) / f"run{i}" for i in range(runs)]
        run_s = [default_run(checkout, out_dir) for out_dir in out_dirs]
        shas = {traces_sha256(out_dir) for out_dir in out_dirs}
    if len(shas) != 1:
        sys.exit("error: the default runs wrote different traces")
    tier1_s, tier1_line = [], ""
    for _ in range(runs):
        seconds_taken, out = timed(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"], checkout
        )
        tier1_s.append(seconds_taken)
        tier1_line = out.strip().splitlines()[-1]
    workloads = {}
    for workload in WORKLOADS:
        samples = [perfbench_run(checkout, workload, seconds) for _ in range(runs)]
        workloads[workload] = {
            name: {kind: spread([s[name][kind] for s in samples]) for kind in samples[0][name]}
            for name in METRICS
        }
    _, out = timed([sys.executable, "-c", SEED0_OUTPUTS, "perfbench", *WORKLOADS], checkout)
    outputs = json.loads(out.splitlines()[-1])
    answers = json.dumps(outputs["whatif"]["answers"], sort_keys=True).encode()
    return {
        "schema": SCHEMA,
        "pr": pr,
        **source(checkout),
        "machine": {"cores": int(cores), "python": python, "numpy": numpy_version},
        "wall_s": {
            "elastimdp_run": {"runs": runs, **spread(run_s)},
            "tier1": {"runs": runs, "result": tier1_line, **spread(tier1_s)},
        },
        "perfbench": {
            "seed": 0, "seconds": seconds, "trace": 0, "runs": runs, "workloads": workloads,
        },
        "traces": {"count": len(POLICIES) * DEFAULT_RUNS, "columns": "1-8", "sha256": shas.pop()},
        "seed0": {
            "comparison_fingerprint": outputs["comparison"]["fingerprint"],
            "scaleout_fingerprint": outputs["scaleout"]["fingerprint"],
            "whatif_answers_sha256": hashlib.sha256(answers).hexdigest(),
        },
    }


def schema_problems(bench: dict) -> list[str]:
    """What makes `bench` not a file `measure_checkout` writes."""
    problems = []

    def need(where: str, value, kind: type | tuple[type, ...]) -> None:
        if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
            problems.append(f"{where} has the wrong type: {value!r}")

    def stat(where: str, value) -> None:
        if not isinstance(value, dict):
            problems.append(f"{where} should be an object")
            return
        for key in ("median", "iqr"):
            need(f"{where}.{key}", value.get(key), (int, float))
        samples = value.get("samples")
        if not isinstance(samples, list) or len(samples) < 3:
            problems.append(f"{where}.samples should list at least 3 runs")

    if bench.get("schema") != SCHEMA:
        problems.append(f"schema should be {SCHEMA!r}")
    need("pr", bench.get("pr"), int)
    need("commit", bench.get("commit"), str)
    need("dirty", bench.get("dirty"), bool)
    machine = bench.get("machine") or {}
    need("machine.cores", machine.get("cores"), int)
    for key in ("python", "numpy"):
        need(f"machine.{key}", machine.get(key), str)
    for key in ("elastimdp_run", "tier1"):
        stat(f"wall_s.{key}", (bench.get("wall_s") or {}).get(key))
    workloads = (bench.get("perfbench") or {}).get("workloads") or {}
    for workload in WORKLOADS:
        for name in METRICS:
            value = (workloads.get(workload) or {}).get(name) or {}
            stat(f"{workload}.{name}.ref", value.get("ref"))
            if name in NO_RAW:
                if "raw" in value:
                    problems.append(f"{workload}.{name} has no raw figure to hold")
            else:
                stat(f"{workload}.{name}.raw", value.get("raw"))
    traces = bench.get("traces") or {}
    if traces.get("count") != len(POLICIES) * DEFAULT_RUNS:
        problems.append(f"traces.count should be {len(POLICIES) * DEFAULT_RUNS}")
    seed0 = bench.get("seed0") or {}
    hashes = [("traces.sha256", traces.get("sha256")), ("src_sha256", bench.get("src_sha256"))]
    for key in ("comparison_fingerprint", "scaleout_fingerprint", "whatif_answers_sha256"):
        hashes.append((f"seed0.{key}", seed0.get(key)))
    for where, value in hashes:
        if not (isinstance(value, str) and re.fullmatch("[0-9a-f]{64}", value)):
            problems.append(f"{where} should be a sha256 in hex")
    return problems


def newest_bench(root: Path) -> Path | None:
    found = []
    for path in root.glob("BENCH_*.json"):
        if number := re.fullmatch(r"BENCH_(\d+)\.json", path.name):
            found.append((int(number[1]), path))
    return max(found)[1] if found else None


def check(root: Path) -> int:
    path = newest_bench(root)
    if path is None:
        print("error: no BENCH_<n>.json", file=sys.stderr)
        return 1
    bench = json.loads(path.read_text(encoding="utf-8"))
    problems = schema_problems(bench)
    if not problems:
        with tempfile.TemporaryDirectory() as scratch:
            default_run(root, Path(scratch))
            sha = traces_sha256(Path(scratch))
        pinned = bench["traces"]["sha256"]
        if sha != pinned:
            problems.append(f"the default traces hash to {sha}, the file pins {pinned}")
    for problem in problems:
        print(f"error: {path.name}: {problem}", file=sys.stderr)
    if not problems:
        print(f"{path.name}: schema ok, the default traces hash as pinned")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--pr", type=int, help="write BENCH_<N>.json")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="the checkout to measure")
    parser.add_argument("--check", action="store_true", help="check the newest BENCH_*.json")
    args = parser.parse_args(argv)
    if args.check:
        return check(ROOT)
    if args.pr is None:
        parser.error("give --pr N or --check")
    bench = measure_checkout(args.checkout.resolve(), args.pr)
    problems = schema_problems(bench)
    if problems:
        sys.exit("error: " + "; ".join(problems))
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
