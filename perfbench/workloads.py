"""The benchmark's workloads: the configs each one feeds to obslab.cli.run.

A workload is a cycle of jobs, each an (experiment, config overlay) pair.
The workload process runs the jobs in order, back to back, and starts the
cycle again until its time is up.  Everything seed-dependent is drawn here,
so the program sees only the generated configs and their seeds.
"""

from __future__ import annotations

import random

U64 = 2**64

# BLAS/OpenMP thread cap of every workload process.  On the 2-core machine
# this was tuned on, two BLAS threads made run-to-run spread two to three
# times wider (a stalled thread stalls its partner).
THREADS = 1


def _enss(seed):
    # The canned box (half extent 256) on 512 instead of 1024 points: one
    # experiment takes about 6 s instead of 43 s, and it still spends 97% of
    # its time in gram_operator_norm (24 power solves, about 5900 iterations,
    # 7 of them stopped at the 500-iteration cap), with every verdict passing.
    return [("enss", {"grid": {"dim": 1, "half_extent": 256.0,
                               "points_per_axis": 512},
                      "seed": seed % U64})]


def _commutator(seed):
    # 1024 instead of 2048 points (one thread: about 3.7 s instead of 38 s).
    # At this size the canned band ladder 8..128 exceeds half the spectral
    # radius, so the ladder and the profile scale move to keep every verdict
    # passing (fitted slope -0.718 against the -0.70 gate).  The config has
    # no random input; the seed is passed through unused.
    return [("commutator", {"grid": {"dim": 1, "half_extent": 12.0,
                                     "points_per_axis": 1024},
                            "parameters": {"points": 1024,
                                           "ns": [6, 12, 24, 48, 64],
                                           "profile_scale": 3.0},
                            "seed": seed % U64})]


def _sharpness_splitstep(seed):
    # Acceptance criterion 7's potential case: 131072 points, Strang steps.
    return [("sharpness", {"hamiltonian": {"kind": "potential",
                                           "potential": {"form": "gaussian",
                                                         "amplitude": 0.25}},
                           "engine": "splitstep",
                           "seed": seed % U64})]


# Control Hamiltonians are keyed by (grid, convention): four of them share
# the three-entry LRU cache of decompose_hamiltonian.  In this 12-call
# schedule each key appears three times and, once warm, misses exactly once
# per cycle, whichever physical key plays which letter.  Drawing the keys
# independently instead made the miss count, and so the throughput, vary
# by about 15% between seeds.
_CONTROL_SCHEDULE = "ABABCDBCDCAD"


def _sweep(seed):
    rng = random.Random(seed)
    keys = [(n, c) for n in (512, 1024) for c in ("full", "half")]
    rng.shuffle(keys)
    role = dict(zip("ABCD", keys))
    controls = []
    for letter in _CONTROL_SCHEDULE:
        points, convention = role[letter]
        controls.append(("control", {
            "grid": {"dim": 1, "half_extent": 32.0, "points_per_axis": points},
            "hamiltonian": {"kind": "free", "convention": convention},
            "parameters": {"radius": rng.choice([0.5, 1.0, 2.0])},
            "seed": rng.randrange(U64),
        }))
    jobs = []
    # Two control calls per three other experiments: with one each, the
    # faster half of all calls (observability, minimal-velocity) would put
    # the median on the gap between two clusters of call times.
    for first, second in zip(controls[::2], controls[1::2]):
        jobs += [("uncertainty", {}), first, ("observability", {}),
                 ("minimal-velocity", {}), second]
    return jobs


# name -> seed -> [(experiment, config overlay), ...]
WORKLOADS = {
    "enss": _enss,
    "commutator": _commutator,
    "sharpness-splitstep": _sharpness_splitstep,
    "sweep": _sweep,
}
