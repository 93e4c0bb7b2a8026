"""Smoke test of the benchmark.  From the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload at the shortest length, untraced and traced, and checks
that every metric BENCHMARK.json names is printed with its unit, that no
experiment failed, and that tracing changed no report.  Then checks that a
config failing a verdict (exit 2) and a changed report hash both count as
failed, and that the benchmark exits nonzero, printing no result, in a
directory holding only BENCHMARK.json and the benchmark.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench

ROOT = Path.cwd().resolve()
SCRATCH = ROOT / ".perfbench_tmp" / "smoke"


def run_bench(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, str(bench.BENCH_DIR / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_workload(spec, workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    details = json.loads(lines[-2].removeprefix("details "))
    expected = spec["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert any(line.startswith(f"{workload} {m['name']} = ")
                   and f" {m['unit']} (n=" in line for line in lines), m
    assert result["correct"] and result["failed"] == 0, details
    assert result["attempted"] >= 1
    assert f"{workload} failed_ratio = 0 ratio" in proc.stdout
    assert details["failed_ratio"] == 0
    if trace:
        assert details["report_sha256"]["traced_equals_untraced"]
    print(f"ok {workload} trace={trace} attempted={result['attempted']}")


def check_failures_counted():
    tmp = SCRATCH / "failures"
    jobs, _ = bench.write_jobs(
        [("uncertainty", {"parameters": {"collapse_tolerance": 1e-12}}),
         ("uncertainty", {})], tmp)
    res = bench.launch(ROOT, tmp, "fail", jobs, seconds=0.5)
    failing = [r for r in res["records"] if r["config"] == "00"]
    passing = [r for r in res["records"] if r["config"] == "01"]
    assert failing and passing
    assert all(r["exit"] == 2 and r["failed_verdicts"] == ["scaling_collapse"]
               for r in failing), failing
    assert all(r["exit"] == 0 for r in passing), passing
    assert bench.count_failures(res["records"]) == len(failing)
    changed = [dict(passing[0]), dict(passing[0], sha="0" * 64)]
    assert bench.count_failures(changed) == 1
    print("ok failing verdict and changed hash count as failed")


def check_bare_directory():
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in json.loads((ROOT / "BENCHMARK.json").read_text())["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "sweep", 0)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok bare directory exits", proc.returncode)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        check_failures_counted()
        check_bare_directory()
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                check_workload(spec, workload, trace)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass
    print("smoke test passed")


if __name__ == "__main__":
    main()
