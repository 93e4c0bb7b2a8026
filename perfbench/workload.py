"""One workload process: set up, then run jobs through obslab.cli.run in a
closed loop (one client; the next call starts when the previous one returns).

    python3 workload.py SPEC.json RESULT.json

SPEC holds the thread cap, the job config paths, the loop length, the output
root, whether to trace, and the monotonic time at which the parent launched
this process.  Set-up ends when `run` can be called: interpreter, imports and
the first load_config.  With "setup_only" the process stops there.
"""

import json
import os
import sys
import time
import traceback


def _blas(numpy):
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info.get('name')} {info.get('version')}"


def _record(job, out, seconds, code):
    rec = {"job": job, "seconds": seconds, "exit": code, "sha": None,
           "failed_verdicts": []}
    if code in (0, 2):
        with open(os.path.join(out, "run_meta.json"), encoding="utf-8") as fh:
            rec["sha"] = json.load(fh)["report_sha256"]
    if code == 2:
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            rec["failed_verdicts"] = [v["name"] for v in json.load(fh)["verdicts"]
                                      if not v["pass"]]
    return rec


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    # Cap the BLAS and OpenMP pools before numpy loads, as `--threads` does.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(spec["threads"])

    import jsonschema  # noqa: F401
    import numpy  # noqa: F401

    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    import obslab
    from obslab import (cli, commutator, control, estimate, grid,  # noqa: F401
                        hamiltonian, inequality, propagate, spectral)

    if not os.path.realpath(obslab.__file__).startswith(src + os.sep):
        sys.exit(f"obslab was imported from {obslab.__file__}, not from {src}")
    jobs = spec["jobs"]                  # [[experiment, config path], ...]
    cli.load_config(*jobs[0])
    result = {"setup_s": (time.monotonic_ns() - spec["launched_ns"]) / 1e9}
    if not spec["setup_only"]:
        result.update(_loop(spec, jobs))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _loop(spec, jobs):
    import resource

    import numpy
    from obslab import cli, spectral

    tracer = None
    if spec["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    cache0 = spectral.decompose_hamiltonian.cache_info()
    records = []
    clock = time.perf_counter
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    start = clock()
    i = 0
    # Every call writes into a new directory: on ext4, rewriting an existing
    # file costs tens of milliseconds, far more than a short experiment.
    while clock() - start < spec["seconds"]:
        experiment, path = jobs[i % len(jobs)]
        out = os.path.join(spec["out_root"], f"{i:06d}")
        t0 = clock()
        try:
            code = cli.run(experiment, path, out)
        except Exception:  # the command line would exit 1 with a traceback
            traceback.print_exc()
            code = 1
        records.append(_record(i % len(jobs), out, clock() - t0, code))
        i += 1
    loop_s = clock() - start
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cache1 = spectral.decompose_hamiltonian.cache_info()
    result = {
        "records": records,
        "loop_s": loop_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,     # Linux reports KiB
        "cache": {"hits": cache1.hits - cache0.hits,
                  "misses": cache1.misses - cache0.misses},
        "numpy": numpy.__version__,
        "blas": _blas(numpy),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = dict(tracer.counters)
    return result


if __name__ == "__main__":
    main(*sys.argv[1:3])
