#!/usr/bin/env python3
"""Run one workload on several seeds, one process at a time, and report
each end-to-end metric's median and quartile spread against its bound.

    python3 perfbench/spread.py --workload scaleout --seeds 0-9

Spread is (Q3 - Q1) / median with quartiles from
`statistics.quantiles(values, n=4)`.  Raw results are appended, one JSON
line per run, to .perfbench-work/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    log = ROOT / ".perfbench-work" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {spec["name"]: [] for spec in specs}
    for seed in args.seeds:
        command = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with log.open("a", encoding="utf-8") as handle:
            notes = done.stdout.strip().splitlines()[:-1]
            handle.write(json.dumps({"seed": seed, **result, "notes": notes}) + "\n")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)
    if len(args.seeds) < 2:
        return 0
    for spec in specs:
        runs = values[spec["name"]]
        q1, med, q3 = statistics.quantiles(runs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = spec.get("bound")
        verdict = "" if bound is None else f" bound {bound:g} ({spread / bound:.2f} of it)"
        print(f"{spec['name']:<32} median {med:.6g} {spec['unit']:<6} spread {spread:.4f}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
