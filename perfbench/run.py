"""obslab benchmark: one workload, end to end or layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; obslab is imported from its src/.
--trace 0 measures set-up (median of SETUP_LAUNCHES launches) and then runs
the workload for S seconds in a fresh process, untraced.  --trace 1 runs it
for S/2 seconds untraced and S/2 seconds traced, and reports the self time
and counts of each layer.  Each experiment's exit code and report_sha256 is
the correctness check: a nonzero exit, or a hash that differs from an earlier
run of the same config in this invocation, counts as failed.  The last line
of output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import LAYERS, self_times
from workloads import THREADS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SETUP_LAUNCHES = 9          # the loop process plus eight set-up-only ones

END_TO_END_UNITS = {
    "setup_s": "s",
    "experiment_s.p50": "s",
    "experiment_s.p90": "s",
    "experiments_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: values are per traced experiment unless a ratio.
PER_LAYER_UNITS = {f"{name}_s": "s/exp" for name, _, _ in LAYERS}
PER_LAYER_UNITS.update({
    "spectral.decompose_hamiltonian.misses": "count/exp",
    "spectral.decompose_hamiltonian.hit_ratio": "ratio",
    "estimate.power_iterations": "count/exp",
    "estimate.converged_ratio": "ratio",
    "propagate.evolve.calls": "count/exp",
    "control.cg_iterations": "count/exp",
    "control.converged_ratio": "ratio",
    "kernel.eigh.calls": "count/exp",
    "kernel.eigh.n3": "computed-n3/exp",
    "kernel.svd.calls": "count/exp",
    "kernel.svd.n3": "computed-n3/exp",
    "kernel.fft.calls": "count/exp",
    "kernel.fft.points": "computed-pts/exp",
    "trace.overhead": "ratio",
})


def _ratio(num, den):
    return num / den if den else 0.0


def write_jobs(jobs, tmp):
    """Write each distinct config once; return the job list and the configs."""
    cfg_dir = tmp / "configs"
    cfg_dir.mkdir(parents=True)
    paths, texts, out = {}, [], []
    for experiment, overlay in jobs:
        text = json.dumps(dict(overlay, experiment=experiment), sort_keys=True)
        if text not in paths:
            paths[text] = cfg_dir / f"{len(paths):02d}.json"
            paths[text].write_text(text + "\n", encoding="utf-8")
            texts.append(text)
        out.append([experiment, str(paths[text])])
    return out, texts


def launch(root, tmp, tag, jobs, seconds=0.0, trace=False, setup_only=False):
    """Run one workload process to completion and return its result."""
    spec = {"threads": THREADS, "jobs": jobs, "seconds": seconds,
            "trace": trace, "setup_only": setup_only,
            "src": str(root / "src"), "out_root": str(tmp / f"out-{tag}")}
    spec_path, result_path = tmp / f"{tag}.spec.json", tmp / f"{tag}.result.json"
    log_path = tmp / f"{tag}.log"
    with open(log_path, "w", encoding="utf-8") as log:
        spec["launched_ns"] = time.monotonic_ns()
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "workload.py"), str(spec_path),
             str(result_path)],
            stdout=subprocess.DEVNULL, stderr=log, timeout=seconds + 120)
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text(encoding="utf-8")[-2000:]
        raise RuntimeError(f"workload process {tag} exited {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    shutil.rmtree(spec["out_root"], ignore_errors=True)
    for r in result.get("records", ()):
        r["config"] = Path(jobs[r["job"]][1]).stem
    return result


def count_failures(records):
    """Nonzero exits, and reports whose hash differs from the first report
    of the same config in this invocation."""
    first = {}
    failed = 0
    for r in records:
        bad = r["exit"] != 0
        if r["sha"] is not None:
            bad = bad or first.setdefault(r["config"], r["sha"]) != r["sha"]
        failed += bad
    return failed


def hashes(records):
    out = {}
    for r in records:
        out.setdefault(r["config"], set()).add(r["sha"])
    return {k: sorted(v, key=str) for k, v in sorted(out.items())}


def timings(records):
    times = sorted(r["seconds"] for r in records)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] \
        if len(times) > 1 else times[0]
    return statistics.median(times), p90


def end_to_end(setups, res):
    records = res["records"]
    completed = sum(r["exit"] == 0 for r in records)
    p50, p90 = timings(records)
    return {
        "setup_s": statistics.median(setups),
        "experiment_s.p50": p50,
        "experiment_s.p90": p90,
        "experiments_per_s": completed / res["loop_s"],
        "cpu_s": res["cpu_s"] / max(completed, 1),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(plain, traced):
    n = len(traced["records"])
    c = traced["counters"]
    values = {f"{name}_s": 0.0 for name, _, _ in LAYERS}
    for name, seconds in self_times(traced["spans"]).items():
        values[f"{name}_s"] = seconds / n
    hits, misses = traced["cache"]["hits"], traced["cache"]["misses"]
    values.update({
        "spectral.decompose_hamiltonian.misses": misses / n,
        "spectral.decompose_hamiltonian.hit_ratio": _ratio(hits, hits + misses),
        "estimate.power_iterations": c.get("estimate.power_iterations", 0) / n,
        "estimate.converged_ratio": _ratio(c.get("estimate.converged", 0),
                                           c.get("estimate.calls", 0)),
        "control.cg_iterations": c.get("control.cg_iterations", 0) / n,
        "control.converged_ratio": _ratio(c.get("control.converged", 0),
                                          c.get("control.calls", 0)),
        "trace.overhead": timings(traced["records"])[0]
        / timings(plain["records"])[0] - 1.0,
    })
    for key in ("propagate.evolve.calls", "kernel.eigh.calls", "kernel.eigh.n3",
                "kernel.svd.calls", "kernel.svd.n3", "kernel.fft.calls",
                "kernel.fft.points"):
        values[key] = c.get(key, 0) / n
    return values


def _cpu_model():
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _l3_size():
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if (index / "level").read_text().strip() == "3":
            return (index / "size").read_text().strip()
    return "unknown"


def _filesystem(path):
    best, fstype = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            _, mount, kind = line.split()[:3]
            if (str(path) + "/").startswith(mount.rstrip("/") + "/") \
                    and len(mount) > len(best):
                best, fstype = mount, kind
    return fstype


def machine_facts(tmp, res):
    facts = {"nproc": len(os.sched_getaffinity(0)), "thread_cap": THREADS,
             "numpy": res["numpy"], "blas": res["blas"],
             "python": platform.python_version()}
    for key, probe in (("cpu_model", _cpu_model), ("l3", _l3_size),
                       ("scratch_fs", lambda: _filesystem(tmp))):
        try:
            facts[key] = probe()
        except OSError:
            facts[key] = "unknown"
    return facts


def measure(root, tmp, workload, seed, seconds, trace):
    jobs, configs = write_jobs(WORKLOADS[workload](seed), tmp)
    if trace:
        plain = launch(root, tmp, "plain", jobs, seconds / 2)
        traced = launch(root, tmp, "traced", jobs, seconds / 2, trace=True)
        records = plain["records"] + traced["records"]
        metrics, units = per_layer(plain, traced), PER_LAYER_UNITS
        sha = {"untraced": hashes(plain["records"]),
               "traced": hashes(traced["records"])}
        sha["traced_equals_untraced"] = all(
            v == sha["untraced"][k] for k, v in sha["traced"].items()
            if k in sha["untraced"])
        samples = dict.fromkeys(metrics, len(traced["records"]))
        last = traced
    else:
        setups = [launch(root, tmp, f"setup{k}", jobs, setup_only=True)["setup_s"]
                  for k in range(SETUP_LAUNCHES - 1)]
        last = launch(root, tmp, "loop", jobs, seconds)
        setups.append(last["setup_s"])
        records = last["records"]
        metrics, units = end_to_end(setups, last), END_TO_END_UNITS
        sha = hashes(records)
        samples = dict.fromkeys(metrics, len(records))
        samples["setup_s"] = len(setups)
    failed = count_failures(records)
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "configs": configs, "machine": machine_facts(tmp, last),
        "failed_ratio": failed / len(records),
        "failed_verdicts": sorted({v for r in records
                                   for v in r["failed_verdicts"]}),
        "exit_codes": sorted({r["exit"] for r in records}),
        "report_sha256": sha,
        "decompose_hamiltonian_cache": last["cache"],
        "samples": samples,
    }
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    return details, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = Path.cwd().resolve()
    if not (root / "src" / "obslab" / "cli.py").is_file():
        print(f"error: {root} holds no obslab source tree (src/obslab)",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = root / ".perfbench_tmp"
    tmp = scratch / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        details, result = measure(root, tmp, args.workload, args.seed,
                                  args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} "
              f"(n={details['samples'][name]})")
    print(f"{args.workload} failed_ratio = {details['failed_ratio']:.6g} "
          f"ratio ({result['failed']}/{result['attempted']})")
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
