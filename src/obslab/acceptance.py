"""Acceptance battery: ten end-to-end checks, one per headline property.

Criteria 2-9 are CLI experiments under pinned config overlays: each case is
resolved by the same merge-and-validate step as `--config`, run through the
same entry point as the command line (`cli.execute`), and must pass every
verdict.  Criterion 1 checks the propagation engines, which no runner does;
criterion 10 reruns the CLI in fresh processes.  The overlays are frozen:
they are the configurations the numbers were calibrated on.  The `suite`
subcommand and tests/test_acceptance.py run them.
"""

from __future__ import annotations

import filecmp
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import cli
from .grid import Field, l2_norm, make_grid
from .hamiltonian import HamiltonianSpec, gaussian_potential
from .propagate import PropagatorPlan, evolve, free_gaussian_reference

DEFAULT_SEED = cli.DEFAULT_SEED


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict   # {"checks": {name: {value, ok}}} or {"cases": [...]}


def _result(number, name, checks):
    details = {"checks": {k: {"value": v, "ok": bool(ok)}
                          for k, (v, ok) in checks.items()}}
    return CriterionResult(number, name, all(ok for _, ok in checks.values()),
                           details)


def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Engines reproduce the closed-form free Gaussian and each other."""
    g = make_grid(1, 32.0, 1024)
    w = 1.0
    scale = (math.pi * w**2) ** -0.25          # unit L2 norm
    u0 = Field(g, scale * free_gaussian_reference(g, w, 0.0).values)
    plan = PropagatorPlan(HamiltonianSpec.free(g))
    checks, units = {}, []
    for t in (0.5, 2.0):
        got = evolve(plan, u0, t)
        exact = scale * free_gaussian_reference(g, w, t).values
        err = l2_norm(Field(g, got.values - exact))
        checks[f"gaussian_rel_err_t{t:g}"] = (err, err <= 1e-8)
        units.append(abs(l2_norm(got) - 1.0))

    g2 = make_grid(1, 16.0, 256)
    spec2 = HamiltonianSpec.with_potential(g2, gaussian_potential(1.0))
    u2 = cli._packet_field(g2, {"width": 1.0 / math.sqrt(2.0), "speed": 1.0,
                                "center": 0.0})
    a = evolve(PropagatorPlan(spec2, "splitstep", dt=1e-3), u2, 1.0)
    b = evolve(PropagatorPlan(spec2, "dense"), u2, 1.0)
    cross = l2_norm(Field(g2, a.values - b.values))
    checks["splitstep_vs_dense"] = (cross, cross <= 1e-6)
    worst_unit = max(units + [abs(l2_norm(a) - 1.0), abs(l2_norm(b) - 1.0)])
    checks["unitarity"] = (worst_unit, worst_unit <= 1e-10)
    return _result(1, "propagator engines agree with the closed form and "
                      "each other", checks)


@dataclass(frozen=True)
class Criterion:
    """(experiment, config overlay) cases, gated by their runners' verdicts."""

    number: int
    name: str
    cases: tuple

    def __call__(self, seed: int = DEFAULT_SEED) -> CriterionResult:
        records = []
        for experiment, overlay in self.cases:
            cfg = cli.resolve_config(experiment, {**overlay, "seed": seed})
            _, verdicts, _, _ = cli.execute(cfg)
            records.append({"experiment": experiment, "overlay": overlay,
                            "verdicts": verdicts})
        passed = all(v["pass"] for r in records for v in r["verdicts"])
        return CriterionResult(self.number, self.name, passed,
                               {"cases": records})


def _grid(half_extent, points):
    return {"half_extent": half_extent, "points_per_axis": points}


_WELL = {"kind": "potential", "potential": {"form": "gaussian", "amplitude": 0.25}}
_S1, _S3 = ({"kind": "fractional", "s": s} for s in (1.0, 3.0))
_R2, _C3 = math.sqrt(2.0), 2.0 ** (1.0 / 3.0)

# (number, name, cases).  Criterion 3 pairs radii and thresholds at equal
# R delta^(1/p), for p = 2, 1 and 3.
_RUNNER_CRITERIA = tuple(Criterion(*c) for c in (
    (2, "joint ball/band concentration norm is consistent, subunit and monotone",
     (("uncertainty", {}),)),
    (3, "concentration norms collapse along the scaling invariant", (
        ("uncertainty", {"grid": _grid(64.0, 4096), "parameters": {
            "radii": [1.0, _R2, 2.0, 2 * _R2], "thresholds": [0.25, 0.5, 1.0, 2.0]}}),
        ("uncertainty", {"grid": _grid(256.0, 8192), "hamiltonian": _S1, "parameters": {
            "radii": [1.0, 2.0, 4.0, 8.0], "thresholds": [0.125, 0.25, 0.5, 1.0]}}),
        ("uncertainty", {"grid": _grid(64.0, 4096), "hamiltonian": _S3, "parameters": {
            "radii": [1.0, _C3, _C3 * _C3, 2.0], "thresholds": [1.0, 2.0, 4.0, 8.0]}}))),
    (4, "evolved states vacate the cone below the certified minimal velocity", (
        ("minimal-velocity", {}),
        ("minimal-velocity", {"grid": _grid(640.0, 2048), "hamiltonian": _WELL, "engine": "dense",
                              "parameters": {"band": [1.30, 1.60], "band_ramp": 0.14,
                                             "energy_ramp": 0.44}}))),
    (5, "outgoing-filtered interior propagator decays uniformly over thresholds",
     (("enss", {}),)),
    (6, "exterior two-time observability constants are finite and nonincreasing in the gap", (
        ("observability", {}),
        ("observability", {"grid": _grid(64.0, 2048), "hamiltonian": _S1, "parameters": {
            "packet": {"width": 4.0, "speed": 4.0}, "sigma": 0.5, "t1": 1.0}}))),
    (7, "concentrating the datum defeats fixed-region single-time observation", (
        ("sharpness", {}),
        ("sharpness", {"hamiltonian": _WELL, "engine": "splitstep"}),
        ("sharpness", {"grid": _grid(8.0, 2048), "hamiltonian": _S1}))),
    (8, "impulse control reaches the target with consistent adjoint and verification", (
        ("control", {}),
        # observation outside |x| < 1: a real mask, so CG has work to do
        ("control", {"parameters": {"radius": 1.0}}))),
    (9, "band-cutoff commutator norms decay with the band scale under a single fitted constant", (
        ("commutator", {}),
        # three decades of N; max(ns) = 1024 <= half the spectral radius
        ("commutator", {"grid": _grid(12.0, 16384), "parameters": {
            "points": 16384, "profile_scale": 2.0,
            "ns": [8, 16, 32, 64, 128, 256, 512, 1024]}}))),
))


def criterion_10(seed: int = DEFAULT_SEED,
                 scratch_dir: str | None = None) -> CriterionResult:
    """Rerunning a config with the same seed and thread count, each run in
    its own `python -m obslab` process, reproduces reports byte for byte
    (CSV series included), at one and at two threads."""
    env = {k: v for k, v in os.environ.items() if k != "OBSLAB_OUT"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    checks = {}
    root = Path(tempfile.mkdtemp(prefix="obslab_det_", dir=scratch_dir))
    try:
        for experiment, series in (("uncertainty", "scan.csv"),
                                   ("control", "epsilon_path.csv")):
            for threads in (1, 2):
                tag = f"{experiment}_threads{threads}"
                dirs = [root / f"{tag}_{i}" for i in (0, 1)]
                codes = [subprocess.run(
                    [sys.executable, "-m", "obslab", experiment, "--out", str(d),
                     "--seed", str(seed), "--threads", str(threads)],
                    env=env, stdout=subprocess.DEVNULL, timeout=600).returncode
                    for d in dirs]
                checks[f"{tag}_exit_codes"] = (codes, codes == [0, 0])
                for kind, name in (("report", "report.json"), ("series", series)):
                    files = [d / name for d in dirs]
                    same = all(f.is_file() for f in files) and filecmp.cmp(
                        *files, shallow=False)
                    checks[f"{tag}_{kind}_identical"] = (same, same)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return _result(10, "reports are byte-deterministic for a fixed seed",
                   checks)


CRITERIA = (criterion_1, *_RUNNER_CRITERIA, criterion_10)
