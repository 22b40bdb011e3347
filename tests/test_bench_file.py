import copy
import hashlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import bench_file  # noqa: E402


def newest():
    path = bench_file.newest_bench(ROOT)
    assert path is not None, "no BENCH_<n>.json at the repository root"
    return json.loads(path.read_text(encoding="utf-8"))


def test_the_newest_bench_file_is_well_formed():
    bench = newest()
    assert bench_file.schema_problems(bench) == []
    assert bench["traces"]["count"] == 60
    for workload in bench_file.WORKLOADS:
        for name in bench_file.METRICS:
            kinds = ("ref",) if name in bench_file.NO_RAW else ("ref", "raw")
            assert tuple(bench["perfbench"]["workloads"][workload][name]) == kinds
            for kind in kinds:
                stat = bench["perfbench"]["workloads"][workload][name][kind]
                assert len(stat["samples"]) == bench["perfbench"]["runs"] >= 3
                assert min(stat["samples"]) <= stat["median"] <= max(stat["samples"])
                assert stat["iqr"] >= 0


@pytest.mark.parametrize(
    "path, value, problem",
    [
        (("schema",), "elastimdp-bench/0", "schema should be"),
        (("traces", "count"), 12, "traces.count should be 60"),
        (("traces", "sha256"), "abc", "traces.sha256 should be a sha256"),
        (("seed0", "whatif_answers_sha256"), None, "seed0.whatif_answers_sha256 should be"),
        (("wall_s", "tier1", "samples"), [60.0], "wall_s.tier1.samples should list at least 3"),
        (("machine", "cores"), "2", "machine.cores has the wrong type"),
        (
            ("perfbench", "workloads", "whatif", "ops_per_s", "ref", "median"),
            True,
            "whatif.ops_per_s.ref.median has the wrong type",
        ),
        (
            ("perfbench", "workloads", "whatif", "op_ms_p95", "raw"),
            None,
            "whatif.op_ms_p95.raw should be an object",
        ),
        (
            ("perfbench", "workloads", "whatif", "peak_rss_mb", "raw"),
            {"median": 50.0, "iqr": 0.0, "samples": [50.0, 50.0, 50.0]},
            "whatif.peak_rss_mb has no raw figure",
        ),
    ],
)
def test_a_damaged_file_is_refused(path, value, problem):
    bench = copy.deepcopy(newest())
    where = bench
    for key in path[:-1]:
        where = where[key]
    where[path[-1]] = value
    problems = bench_file.schema_problems(bench)
    assert len(problems) == 1 and problems[0].startswith(problem)


def perfbench_output(dropped=None):
    """What `perfbench/run.py` prints, cut to the lines `perfbench_run`
    reads, without the `dropped` metric's line."""
    metrics = {name: {"value": 1.5} for name in bench_file.METRICS}
    lines = [
        f"  {name:<32} {1.5:>14.6g} unit     note; raw {2.5:.6g} s"
        for name in bench_file.METRICS
        if name not in bench_file.NO_RAW and name != dropped
    ]
    return "\n".join([*lines, json.dumps({"correct": True, "metrics": metrics})]) + "\n"


def test_each_raw_value_is_read_and_a_missing_one_stops_the_run(monkeypatch):
    monkeypatch.setattr(bench_file, "timed", lambda command, checkout: (0.0, perfbench_output()))
    values = bench_file.perfbench_run(ROOT, "whatif", 1.0)
    assert values["peak_rss_mb"] == {"ref": 1.5}
    assert values["ops_per_s"] == {"ref": 1.5, "raw": 2.5}
    output = perfbench_output(dropped="op_ms_p50")
    monkeypatch.setattr(bench_file, "timed", lambda command, checkout: (0.0, output))
    with pytest.raises(SystemExit, match="printed no raw op_ms_p50"):
        bench_file.perfbench_run(ROOT, "whatif", 1.0)


def test_newest_is_by_number(tmp_path):
    for name in ("BENCH_9.json", "BENCH_12.json", "BENCH_100.json", "BENCH_x.json"):
        (tmp_path / name).write_text("{}")
    assert bench_file.newest_bench(tmp_path).name == "BENCH_100.json"
    assert bench_file.newest_bench(tmp_path / "missing") is None


def test_traces_hash_as_cut_prints_columns_1_to_8(tmp_path):
    rows = {}
    for policy in bench_file.POLICIES:
        for run in range(bench_file.DEFAULT_RUNS):
            text = f"a,b,c,d,e,f,g,h,ms\n{policy},{run},2,3,4,5,6,7,0.5\n"
            (tmp_path / f"trace_{policy}_{run}.csv").write_text(text)
            rows[policy, run] = text
    first = bench_file.traces_sha256(tmp_path)
    cut = "".join(text.replace(",0.5", "") for text in rows.values()).replace(",ms", "")
    assert first == hashlib.sha256(cut.encode()).hexdigest()
    # decision_ms, column 9, is left out of the hash
    (tmp_path / "trace_mdp3_9.csv").write_text(rows["mdp3", 9].replace("0.5", "9.9"))
    assert bench_file.traces_sha256(tmp_path) == first
    (tmp_path / "trace_mdp3_9.csv").write_text(rows["mdp3", 9].replace(",7,", ",8,"))
    assert bench_file.traces_sha256(tmp_path) != first
