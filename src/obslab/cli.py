"""Experiment driver: config validation, orchestration, report emission.

Subcommands run one lab each (or the whole acceptance battery via `suite`),
write a byte-deterministic report.json plus CSV series into the output
directory, and exit 0 on pass, 2 on a failed verdict, 1 on error.  Timing
lives in run_meta.json so the report itself is reproducible bit-for-bit
for a fixed config, seed and version.

Keep this module import-light: numpy and the labs load inside the runners
so --threads can pin BLAS pools before they start.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

# experiment -> the top-level config keys its run reads.  Every config also
# carries "experiment" and "seed"; nothing else is accepted.
READS = {
    "uncertainty": ("grid", "hamiltonian", "parameters"),
    "observability": ("grid", "hamiltonian", "engine", "dt", "parameters"),
    "minimal-velocity": ("grid", "hamiltonian", "engine", "dt", "parameters"),
    "enss": ("grid", "hamiltonian", "parameters"),
    "sharpness": ("grid", "hamiltonian", "engine", "dt", "parameters"),
    "control": ("grid", "hamiltonian", "engine", "dt", "parameters"),
    "commutator": ("grid", "parameters"),
    "suite": (),
}
EXPERIMENTS = tuple(READS)

ENGINES = ("multiplier", "splitstep", "dense")

# the BLAS and OpenMP pool sizes --threads sets; run_meta.json records them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

WRAP_LIMIT = 1e-8

# ---------------------------------------------------------------------------
# configuration: schema + canned defaults

_GRID_SCHEMA = {
    "type": "object",
    "properties": {
        "dim": {"type": "integer", "minimum": 1, "maximum": 3},
        "half_extent": {"type": "number", "exclusiveMinimum": 0},
        "points_per_axis": {"type": "integer", "minimum": 8},
    },
    "required": ["dim", "half_extent", "points_per_axis"],
    "additionalProperties": False,
}

_HAMILTONIAN_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["free", "fractional", "potential"]},
        "s": {"type": "number", "minimum": 1},
        "potential": {
            "type": "object",
            "properties": {
                "form": {"enum": ["gaussian"]},
                "amplitude": {"type": "number"},
            },
            "required": ["form", "amplitude"],
            "additionalProperties": False,
        },
        "convention": {"enum": ["full", "half"]},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_TIMES_SCHEMA = {
    "type": "object",
    "properties": {
        "start": {"type": "number", "exclusiveMinimum": 0},
        "stop": {"type": "number", "exclusiveMinimum": 0},
        "count": {"type": "integer", "minimum": 2},
    },
    "required": ["start", "stop", "count"],
    "additionalProperties": False,
}

_PACKET_SCHEMA = {
    "type": "object",
    "properties": {
        "width": {"type": "number", "exclusiveMinimum": 0},
        "speed": {"type": "number"},
        "center": {"type": "number"},
    },
    "required": ["width"],
    "additionalProperties": False,
}

_PARAM_SCHEMAS = {
    "uncertainty": {
        "type": "object",
        "properties": {
            "radii": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 2},
            "thresholds": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 2},
            "single": {
                "type": "object",
                "properties": {"radius": {"type": "number", "exclusiveMinimum": 0},
                               "threshold": {"type": "number", "exclusiveMinimum": 0}},
                "required": ["radius", "threshold"],
                "additionalProperties": False,
            },
            "collapse_tolerance": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["radii", "thresholds", "single"],
        "additionalProperties": False,
    },
    "minimal-velocity": {
        "type": "object",
        "properties": {
            "band": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
            "band_ramp": {"type": "number", "exclusiveMinimum": 0},
            "energy_window": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
            "energy_ramp": {"type": "number", "exclusiveMinimum": 0},
            "velocity_fraction": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            "times": _TIMES_SCHEMA,
        },
        "required": ["band", "band_ramp", "energy_window", "energy_ramp",
                     "velocity_fraction", "times"],
        "additionalProperties": False,
    },
    "enss": {
        "type": "object",
        "properties": {
            "window": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
            "ramp": {"type": "number", "exclusiveMinimum": 0},
            "interior_fraction": {"type": "number", "exclusiveMinimum": 0, "maximum": 0.5},
            "velocity": {"type": "number", "exclusiveMinimum": 0},
            "a_values": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            "times": _TIMES_SCHEMA,
        },
        "required": ["window", "ramp", "interior_fraction", "velocity",
                     "a_values", "times"],
        "additionalProperties": False,
    },
    "observability": {
        "type": "object",
        "properties": {
            "packet": _PACKET_SCHEMA,
            "radius": {"type": "number", "exclusiveMinimum": 0},
            "sigma": {"type": "number", "exclusiveMinimum": 0},
            "t1": {"type": "number", "exclusiveMinimum": 0},
            "gaps": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 2},
        },
        "required": ["packet", "radius", "sigma", "t1", "gaps"],
        "additionalProperties": False,
    },
    "sharpness": {
        "type": "object",
        "properties": {
            "profile": {
                "type": "object",
                "properties": {
                    "tightness": {"type": "number", "exclusiveMinimum": 0},
                    "support_radius": {"type": "number", "exclusiveMinimum": 0},
                    "support_ramp": {"type": "number", "exclusiveMinimum": 0},
                },
                "required": ["tightness", "support_radius", "support_ramp"],
                "additionalProperties": False,
            },
            "ks": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 2, "uniqueItems": True},
            "r1": {"type": "number", "exclusiveMinimum": 0},
            "sigma": {"type": "number", "exclusiveMinimum": 0},
            "t": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["profile", "ks", "r1", "sigma", "t"],
        "additionalProperties": False,
    },
    "control": {
        "type": "object",
        "properties": {
            "initial": _PACKET_SCHEMA,
            "target": _PACKET_SCHEMA,
            "tau1": {"type": "number", "exclusiveMinimum": 0},
            "tau2": {"type": "number", "exclusiveMinimum": 0},
            "horizon": {"type": "number", "exclusiveMinimum": 0},
            "radius": {"type": "number", "minimum": 0},
            "sigma": {"type": "number", "exclusiveMinimum": 0},
            "epsilons": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 1},
        },
        "required": ["initial", "target", "tau1", "tau2", "horizon",
                     "radius", "sigma", "epsilons"],
        "additionalProperties": False,
    },
    "commutator": {
        "type": "object",
        "properties": {
            # the grid's half_extent and points_per_axis, restated; see
            # _check_commutator_grid
            "half_extent": {"type": "number", "exclusiveMinimum": 0},
            "points": {"type": "integer", "minimum": 16},
            "profile_scale": {"type": "number", "exclusiveMinimum": 0},
            "shift": {"type": "number"},
            "ns": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 5},
        },
        "required": ["profile_scale", "shift", "ns"],
        "additionalProperties": False,
    },
}

_KEY_SCHEMAS = {
    "grid": _GRID_SCHEMA,
    "hamiltonian": _HAMILTONIAN_SCHEMA,
    "engine": {"enum": list(ENGINES)},
    "dt": {"type": "number", "exclusiveMinimum": 0},
}


def _schema(experiment: str) -> dict:
    """The config schema of one experiment: the keys it reads, and no others."""
    keys = READS[experiment]
    properties = {
        "experiment": {"enum": list(EXPERIMENTS)},
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        **{k: _PARAM_SCHEMAS[experiment] if k == "parameters" else _KEY_SCHEMAS[k]
           for k in keys},
    }
    return {"type": "object", "properties": properties,
            "required": ["experiment", "seed", *keys],
            "additionalProperties": False}


DEFAULT_SEED = 0x5EED

# shared canned values; each experiment takes the ones it reads
_BASE = {
    "hamiltonian": {"kind": "free", "convention": "full"},
    "engine": "multiplier",
    "dt": 1e-3,
}

# each experiment's own canned values
_CANNED = {
    "uncertainty": {
        "grid": {"dim": 1, "half_extent": 32.0, "points_per_axis": 1024},
        "parameters": {
            "radii": [0.5, 1.0, 1.5, 2.0],
            "thresholds": [0.5, 1.0, 1.5, 2.0],
            "single": {"radius": 1.0, "threshold": 1.0},
            "collapse_tolerance": 0.02,
        },
    },
    "minimal-velocity": {
        "grid": {"dim": 1, "half_extent": 320.0, "points_per_axis": 4096},
        "parameters": {
            "band": [1.12, 1.70],
            "band_ramp": 0.28,
            "energy_window": [1.25, 3.0],
            "energy_ramp": 0.44,
            "velocity_fraction": 0.5,
            "times": {"start": 5.0, "stop": 50.0, "count": 10},
        },
    },
    "enss": {
        "grid": {"dim": 1, "half_extent": 256.0, "points_per_axis": 1024},
        "parameters": {
            "window": [1.0, 2.0],
            "ramp": 0.25,
            "interior_fraction": 0.3,
            "velocity": 0.5,
            "a_values": [-20.0, 0.0, 20.0],
            "times": {"start": 5.0, "stop": 40.0, "count": 8},
        },
    },
    "observability": {
        "grid": {"dim": 1, "half_extent": 320.0, "points_per_axis": 4096},
        "parameters": {
            "packet": {"width": 2.0, "speed": 1.25, "center": 0.0},
            "radius": 1.0,
            "sigma": 1.0,
            "t1": 0.25,
            "gaps": [10.0, 20.0, 40.0],
        },
    },
    "sharpness": {
        "grid": {"dim": 1, "half_extent": 512.0, "points_per_axis": 131072},
        "dt": 2e-3,
        "parameters": {
            "profile": {"tightness": 16.0, "support_radius": 0.9,
                        "support_ramp": 0.1},
            "ks": [1, 2, 4, 8],
            "r1": 0.0625,
            "sigma": 0.5,
            "t": 1.0,
        },
    },
    "control": {
        "grid": {"dim": 1, "half_extent": 32.0, "points_per_axis": 512},
        "parameters": {
            "initial": {"width": 0.7071067811865476, "speed": 0.0, "center": 0.0},
            "target": {"width": 0.7071067811865476, "speed": 1.0, "center": 3.0},
            "tau1": 0.5,
            "tau2": 1.0,
            "horizon": 2.0,
            "radius": 0.0,
            "sigma": 1.0,
            "epsilons": [1e-2, 1e-4, 1e-6],
        },
    },
    "commutator": {
        "grid": {"dim": 1, "half_extent": 12.0, "points_per_axis": 2048},
        "parameters": {
            "profile_scale": 2.0,
            "shift": 1.0,
            "ns": [8, 16, 32, 64, 128],
        },
    },
    "suite": {},
}

DEFAULTS = {
    name: {"experiment": name, "seed": DEFAULT_SEED,
           **{k: v for k, v in _BASE.items() if k in READS[name]}, **own}
    for name, own in _CANNED.items()
}


def _deep_merge(base, override):
    if not isinstance(base, dict) or not isinstance(override, dict):
        return override
    out = dict(base)
    for k, v in override.items():
        out[k] = _deep_merge(base[k], v) if k in base else v
    return out


def load_config(experiment: str, path: str | None,
                overrides: dict | None = None) -> dict:
    """Canned defaults overlaid with the user's JSON file, then with the
    command line's `overrides` (`--engine`, `--seed`); see resolve_config."""
    overlay = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            overlay = json.load(fh)
    return resolve_config(experiment, {**overlay, **(overrides or {})})


@functools.lru_cache(maxsize=None)
def _validator(experiment: str):
    """Checked, compiled validator for an experiment's schema; checking the
    schema against its metaschema dominates jsonschema.validate, so it
    happens once."""
    from jsonschema.validators import validator_for

    schema = _schema(experiment)
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate(instance, experiment: str) -> None:
    """jsonschema.validate against a cached validator: same error raised."""
    from jsonschema.exceptions import best_match

    error = best_match(_validator(experiment).iter_errors(instance))
    if error is not None:
        raise error


# Hamiltonian keys that exactly one kind reads, and requires
_KIND_KEYS = {"s": "fractional", "potential": "potential"}


def _check_hamiltonian_keys(h: dict) -> None:
    """Each kind key is required with its kind and rejected with any other."""
    for key, kind in _KIND_KEYS.items():
        if (key in h) != (h["kind"] == kind):
            raise ValueError(f"hamiltonian key {key!r} goes with kind "
                             f"{kind!r} and only with it; kind is {h['kind']!r}")


def _check_commutator_grid(cfg: dict) -> None:
    """The commutator runs on the grid's 1-D lattice; parameters that restate
    the grid's half extent or point count must agree with it."""
    g, p = cfg["grid"], cfg["parameters"]
    if g["dim"] != 1:
        raise ValueError(f"commutator runs on a 1-D grid, not dim {g['dim']}")
    for key, grid_key in (("half_extent", "half_extent"),
                          ("points", "points_per_axis")):
        if key in p and p[key] != g[grid_key]:
            raise ValueError(f"commutator parameters.{key} = {p[key]} differs "
                             f"from grid.{grid_key} = {g[grid_key]}")


def resolve_config(experiment: str, overlay: dict) -> dict:
    """Canned defaults overlaid with `overlay`.  A key the experiment never
    reads, a schema error, or a Hamiltonian kind key that does not match the
    kind raises."""
    # the round trip deep-copies, so the result shares nothing with
    # DEFAULTS or the overlay
    merged = json.loads(json.dumps(_deep_merge(DEFAULTS[experiment], overlay)))
    _validate(merged, experiment)
    if merged["experiment"] != experiment:
        raise ValueError(
            f"config names experiment {merged['experiment']!r}, "
            f"subcommand is {experiment!r}")
    if "hamiltonian" in merged:
        _check_hamiltonian_keys(merged["hamiltonian"])
    if experiment == "commutator":
        _check_commutator_grid(merged)
    return merged


# ---------------------------------------------------------------------------
# emission helpers

def _fmt12(x) -> str:
    import numpy as np

    v = float(x)
    if math.isnan(v) or math.isinf(v):
        return repr(v)
    return np.format_float_positional(v, precision=12, unique=False,
                                      fractional=False, trim="k")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return _fmt12(v)


def emit_series(path, columns: dict) -> None:
    """CSV with 12-significant-digit decimal cells and LF line endings."""
    names = list(columns)
    lengths = {len(columns[n]) for n in names}
    if len(lengths) > 1:
        raise ValueError("columns differ in length")
    rows = lengths.pop() if lengths else 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(rows):
            fh.write(",".join(_cell(columns[n][i]) for n in names) + "\n")


def emit_field(path_base, field) -> None:
    """Raw little-endian complex64 dump plus a JSON grid sidecar."""
    g = field.grid
    raw = field.values.astype("<c8").tobytes(order="C")
    with open(str(path_base) + ".bin", "wb") as fh:
        fh.write(raw)
    sidecar = {
        "dtype": "complex64",
        "byte_order": "little",
        "order": "C",
        "shape": list(field.values.shape),
        "grid": {"dim": g.dim, "half_extent": g.half_extent,
                 "points_per_axis": g.points_per_axis},
    }
    with open(str(path_base) + ".json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _plain(obj):
    """Recursively convert numpy scalars/arrays for deterministic strict JSON;
    non-finite floats become the strings "nan", "inf" and "-inf"."""
    import numpy as np

    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _verdict(name, measured, threshold, comparison, anchor):
    ops = {"<=": lambda m, t: m <= t, "<": lambda m, t: m < t,
           ">=": lambda m, t: m >= t, "==": lambda m, t: m == t}
    return {"name": name, "pass": bool(ops[comparison](measured, threshold)),
            "measured": measured, "threshold": threshold,
            "comparison": comparison, "anchor": anchor}


# ---------------------------------------------------------------------------
# shared builders

def _hamiltonian_from(cfg):
    from .grid import make_grid
    from .hamiltonian import HamiltonianSpec, gaussian_potential

    g = cfg["grid"]
    grid = make_grid(g["dim"], g["half_extent"], g["points_per_axis"])
    h = cfg["hamiltonian"]
    kind = h["kind"]
    conv = h["convention"]
    if kind == "free":
        return HamiltonianSpec.free(grid, convention=conv)
    if kind == "fractional":
        return HamiltonianSpec.fractional(grid, h["s"], convention=conv)
    pot = gaussian_potential(h["potential"]["amplitude"])
    return HamiltonianSpec.with_potential(grid, pot, convention=conv)


def _times_from(p):
    import numpy as np

    return np.linspace(p["start"], p["stop"], p["count"])


def _packet_field(grid, packet):
    import numpy as np

    from .grid import Field, l2_norm, axis_coordinates, _meshed, radius_squared

    w = packet["width"]
    speed = packet["speed"]
    center = packet["center"]
    x1 = _meshed(axis_coordinates(grid), grid.dim, 0)
    r2 = radius_squared(grid)
    shifted = r2 - 2.0 * center * x1 + center * center
    vals = np.exp(-shifted / (2.0 * w * w)) * np.exp(1j * speed * x1)
    f = Field(grid, vals)
    return Field(grid, f.values / l2_norm(f))


def _cross_check_verdicts(checks):
    """The engine_cross_check verdict, when the dense check ran at all."""
    ran = [c for c in checks if c is not None]
    if not ran:
        return []
    return [_verdict("engine_cross_check", max(ran), 1e-10, "<=",
                     "the run's engine reproduces an independent dense "
                     "eigenbasis evolution of the same state")]


# ---------------------------------------------------------------------------
# experiment runners: each returns (results, verdicts, series, fields)

def _run_uncertainty(cfg, spec):
    from .inequality import (uncertainty_norm, uncertainty_norm_dense,
                             uncertainty_scan)

    p = cfg["parameters"]

    scan = uncertainty_scan(spec, p["radii"], p["thresholds"])
    single = p["single"]
    lanczos = uncertainty_norm(spec, single["radius"], single["threshold"])
    dense = uncertainty_norm_dense(spec, single["radius"], single["threshold"])

    tol = p["collapse_tolerance"]
    verdicts = [
        _verdict("lanczos_vs_dense", abs(lanczos.value - dense), 1e-6, "<=",
                 "matrix-free Lanczos on the Gram operator reproduces the "
                 "dense singular value of the ball-times-band projector "
                 "product"),
        _verdict("lanczos_residual", lanczos.residual, 1e-10, "<=",
                 "the Lanczos norm is an extreme Ritz value certified by its "
                 "residual"),
        _verdict("norm_below_one", dense, 1.0, "<",
                 "no state concentrates fully in both a ball and a bounded "
                 "energy band"),
        _verdict("monotone_scan", scan.monotone_violations, 0, "==",
                 "the joint concentration norm is nondecreasing in ball "
                 "radius and in energy threshold"),
        _verdict("scaling_collapse", scan.collapse_spread, tol, "<=",
                 "norms at equal scaling invariant R delta^(1/p) coincide, "
                 "reflecting the dilation covariance of the pair"),
    ]
    results = {
        "scan_norms": scan.norms,
        "radii": list(scan.radii),
        "thresholds": list(scan.thresholds),
        "monotone_violations": scan.monotone_violations,
        "invariant_exponent": scan.invariant_exponent,
        "collapse_spread": scan.collapse_spread,
        "single": {"radius": single["radius"], "threshold": single["threshold"],
                   "lanczos_norm": lanczos.value, "dense_norm": dense,
                   "lanczos_iterations": lanczos.iterations,
                   "lanczos_residual": lanczos.residual,
                   "lanczos_converged": lanczos.converged},
    }
    rr, tt, nn = [], [], []
    for i, r in enumerate(scan.radii):
        for j, t in enumerate(scan.thresholds):
            rr.append(float(r))
            tt.append(float(t))
            nn.append(float(scan.norms[i, j]))
    series = [("scan.csv", {"radius": rr, "threshold": tt, "norm": nn})]
    return results, verdicts, series, []


def _fitted_values(series) -> list:
    """exp(intercept) t^slope of a decay series' power-law fit, one per time."""
    import numpy as np

    fit = series.fit
    return list(np.exp(fit.intercept) * np.asarray(series.times) ** fit.slope)


def _run_minimal_velocity(cfg, spec, plan):
    from .inequality import (group_velocity_floor, minimal_velocity_decay,
                             window_localized_state)
    from .spectral import Interval

    p = cfg["parameters"]

    window = tuple(p["energy_window"])
    psi = window_localized_state(spec, Interval(*window), p["band"][0],
                                 p["band"][1], p["band_ramp"],
                                 energy_ramp=p["energy_ramp"])
    v = p["velocity_fraction"] * group_velocity_floor(spec, window[0])
    series_data = minimal_velocity_decay(plan, psi, v, _times_from(p["times"]),
                                         energy_window=window)
    fit = series_data.fit
    verdicts = [
        _verdict("decay_slope", fit.slope, -1.8, "<=",
                 "interior cone mass below the certified velocity decays "
                 "superpolynomially; the fitted power beats the target"),
        _verdict("fit_quality", fit.r_squared, 0.9, ">=",
                 "the log-log decay is close to a straight line"),
        _verdict("wrap_monitor", series_data.wrap_mass, WRAP_LIMIT, "<",
                 "boundary shell mass stays negligible, so the periodic box "
                 "does not recirculate the state"),
    ]
    verdicts += _cross_check_verdicts([series_data.cross_check])
    results = {
        "velocity": v,
        "velocity_floor": group_velocity_floor(spec, window[0]),
        "times": series_data.times,
        "interior_masses": series_data.values,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "wrap_mass": series_data.wrap_mass,
        "engine_cross_check": series_data.cross_check,
    }
    series = [("decay.csv", {"t": list(series_data.times),
                             "value": list(series_data.values),
                             "fitted_value": _fitted_values(series_data)})]
    return results, verdicts, series, []


def _run_enss(cfg, spec):
    from .inequality import enss_decay

    p = cfg["parameters"]
    res = enss_decay(spec, p["a_values"], p["velocity"],
                     _times_from(p["times"]), window=tuple(p["window"]),
                     ramp=p["ramp"], interior_fraction=p["interior_fraction"])
    verdicts = []
    for a, s in zip(res.thresholds, res.series):
        verdicts.append(_verdict(
            f"decay_slope_a_{a:g}", s.fit.slope, -0.9, "<=",
            "the outgoing-filtered interior propagator decays in time "
            "uniformly over the dilation threshold"))
    verdicts.append(_verdict(
        "constant_spread", res.constant_ratio, 3.0, "<=",
        "the decay constants agree across dilation thresholds within a "
        "uniformity factor"))
    verdicts.append(_verdict(
        "norm_witness", max(s.cross_check for s in res.series), 1e-8, "<=",
        "each exact norm is attained: its top singular vector, sent through "
        "the operator chain, reproduces the singular value"))
    results = {
        "mourre_floor": res.mourre_floor,
        "a_values": list(res.thresholds),
        "slopes": [s.fit.slope for s in res.series],
        "r_squared": [s.fit.r_squared for s in res.series],
        "bound_constants": res.bound_constants,
        "constant_ratio": res.constant_ratio,
        "max_series_slope": res.max_series.fit.slope,
        "witness_defect": [s.cross_check for s in res.series],
    }
    aa, tt, vv, ff = [], [], [], []
    for a, s in zip(res.thresholds, res.series):
        for t, v, fv in zip(s.times, s.values, _fitted_values(s)):
            aa.append(float(a))
            tt.append(float(t))
            vv.append(float(v))
            ff.append(float(fv))
    series = [("decay.csv", {"a": aa, "t": tt, "value": vv, "fitted_value": ff})]
    s = res.max_series
    series.append(("max_decay.csv", {"t": list(s.times),
                                     "value": list(s.values),
                                     "fitted_value": _fitted_values(s)}))
    return results, verdicts, series, []


def _run_observability(cfg, spec, plan):
    from .inequality import observability_ratio

    p = cfg["parameters"]
    u0 = _packet_field(spec.grid, p["packet"])
    gaps = sorted(p["gaps"])

    runs = []
    for gap in gaps:
        runs.append(observability_ratio(plan, u0, p["radius"], p["t1"],
                                        p["t1"] + gap, p["sigma"]))
    ratios = [r.ratio for r in runs]
    finite = all(math.isfinite(r) and r > 0 for r in ratios)
    nonincreasing = all(a >= b for a, b in zip(ratios, ratios[1:]))
    verdicts = [
        _verdict("constants_finite", finite, True, "==",
                 "two exterior observations at separated times recover a "
                 "definite fraction of the initial mass"),
        _verdict("nonincreasing_in_gap", nonincreasing, True, "==",
                 "a longer observation gap cannot make exterior recovery "
                 "worse"),
        _verdict("reduction_invariance",
                 max(r.reduction_deviation for r in runs), 1e-8, "<=",
                 "shifting the first observation to time zero leaves the "
                 "constant unchanged"),
        _verdict("wrap_monitor", max(r.wrap_mass for r in runs), WRAP_LIMIT,
                 "<", "boundary shell mass stays negligible over the longest "
                 "gap"),
    ]
    verdicts += _cross_check_verdicts([r.cross_check for r in runs])
    results = {
        "gaps": gaps,
        "ratios": ratios,
        "exterior_first": [r.exterior_first for r in runs],
        "exterior_second": [r.exterior_second for r in runs],
        "second_radii": [r.second_radius for r in runs],
        "reduction_deviations": [r.reduction_deviation for r in runs],
        "wrap_masses": [r.wrap_mass for r in runs],
        "engine_cross_checks": [r.cross_check for r in runs],
    }
    series = [("observability.csv", {
        "gap": [float(g) for g in gaps],
        "ratio": ratios,
        "exterior_first": [r.exterior_first for r in runs],
        "exterior_second": [r.exterior_second for r in runs],
        "second_radius": [r.second_radius for r in runs],
    })]
    return results, verdicts, series, []


def _run_sharpness(cfg, spec, plan):
    import numpy as np

    from .grid import Field, l2_norm, axis_coordinates, _meshed, radius_squared
    from .inequality import sharpness_sequence
    from .spectral import smooth_step

    grid = spec.grid
    p = cfg["parameters"]
    prof = p["profile"]

    x1 = _meshed(axis_coordinates(grid), grid.dim, 0)
    r = np.sqrt(radius_squared(grid))
    vals = x1 * np.exp(-prof["tightness"] * r * r) \
        * smooth_step((prof["support_radius"] - r) / prof["support_ramp"])
    f = Field(grid, vals.astype(complex))
    f = Field(grid, f.values / l2_norm(f))

    table = sharpness_sequence(plan, f, p["ks"], p["r1"], p["sigma"], p["t"])
    verdicts = [
        _verdict("columns_decreasing", table.both_decreasing, True, "==",
                 "concentrating the datum shrinks both the unobserved "
                 "exterior mass and the evolved interior mass"),
        _verdict("exterior_final_fraction", table.final_fraction_exterior,
                 0.1, "<=",
                 "the exterior column drops by at least an order of "
                 "magnitude across the concentration ladder"),
        _verdict("interior_final_fraction", table.final_fraction_interior,
                 0.1, "<=",
                 "the evolved interior column drops by at least an order of "
                 "magnitude across the concentration ladder"),
        _verdict("wrap_monitor", table.wrap_mass, WRAP_LIMIT, "<",
                 "boundary shell mass stays negligible at the observation "
                 "time"),
    ]
    results = {
        "ks": list(table.ks),
        "exterior_masses": table.exterior_masses,
        "interior_masses": table.interior_masses,
        "final_fraction_exterior": table.final_fraction_exterior,
        "final_fraction_interior": table.final_fraction_interior,
        "wrap_mass": table.wrap_mass,
    }
    series = [("sharpness.csv", {"k": [int(k) for k in table.ks],
                                 "exterior_mass": list(table.exterior_masses),
                                 "interior_mass": list(table.interior_masses)})]
    return results, verdicts, series, []


def _run_control(cfg, spec, plan):
    from .control import (ControlProblem, adjoint_defect, epsilon_path,
                          solve_impulse_control, verify_control)
    from .propagate import evolve

    grid = spec.grid
    p = cfg["parameters"]
    u0 = _packet_field(grid, p["initial"])
    u_t = _packet_field(grid, p["target"])
    problem = ControlProblem(spec, u0, u_t, p["tau1"], p["tau2"],
                             p["horizon"], p["radius"], p["sigma"])

    adjoint = adjoint_defect(plan, problem, seed=cfg["seed"])

    drift = evolve(plan, u0, problem.horizon)
    zero_problem = ControlProblem(spec, u0, drift, problem.tau1, problem.tau2,
                                  problem.horizon, p["radius"], p["sigma"])
    zero_sol = solve_impulse_control(plan, zero_problem, p["epsilons"][-1])
    zero_exact = (zero_sol.cost == 0.0 and zero_sol.terminal_error == 0.0)

    path = epsilon_path(plan, problem, p["epsilons"])
    final = path[-1]
    terminal_rel = final.terminal_error / final.y_norm if final.y_norm > 0 else 0.0

    terms = [s.terminal_error for s in path]
    costs = [s.cost for s in path]
    eps_monotone = all(a > b for a, b in zip(terms, terms[1:])) and \
        all(a < b for a, b in zip(costs, costs[1:]))

    check = verify_control(plan, problem, final)
    j_monotone = all(
        b <= a + 1e-10 * (1.0 + abs(a))
        for s in path for a, b in zip(s.j_path, s.j_path[1:]))

    verdicts = [
        _verdict("zero_target_exact", zero_exact, True, "==",
                 "steering to the free drift needs no control at all"),
        _verdict("adjoint_identity", adjoint, 1e-8, "<=",
                 "the observation map and the kicked flow are numerically "
                 "adjoint on random probes"),
        _verdict("terminal_error", terminal_rel, 1e-3, "<=",
                 "at the smallest regularization the reconstructed terminal "
                 "state matches the target displacement"),
        _verdict("epsilon_path_monotone", eps_monotone, True, "==",
                 "shrinking the regularization trades control cost for "
                 "terminal accuracy monotonically"),
        _verdict("cg_objective_monotone", j_monotone, True, "==",
                 "the conjugate-gradient dual objective never increases"),
        _verdict("cg_converged", all(s.converged for s in path), True, "==",
                 "every conjugate-gradient solve on the regularization path "
                 "met its residual tolerance"),
        _verdict("cross_engine_residual", check.within_factor, 2.0, "<=",
                 "an independent engine reproduces the solver's terminal "
                 "error up to a factor of two"),
        _verdict("support_violation", check.support_violation, 0.0, "==",
                 "the controls vanish identically off their observation "
                 "regions"),
    ]
    results = {
        "y_norm": final.y_norm,
        "adjoint_defect": adjoint,
        "terminal_error": final.terminal_error,
        "terminal_error_relative": terminal_rel,
        "cost": final.cost,
        "iterations": [s.iterations for s in path],
        "converged": [s.converged for s in path],
        "gradient_norms": [s.gradient_norm for s in path],
        "epsilons": list(p["epsilons"]),
        "terminal_errors": terms,
        "costs": costs,
        "verify_engine": check.engine_used,
        "verify_residual": check.residual,
        "verify_factor": check.within_factor,
    }
    series = [("epsilon_path.csv", {
        "epsilon": list(p["epsilons"]),
        "terminal_error": terms,
        "cost": costs,
        "iterations": [int(s.iterations) for s in path],
    })]
    fields = [("h1", final.h1), ("h2", final.h2)]
    return results, verdicts, series, fields


def _run_commutator(cfg):
    from .commutator import (derivative_bump_scaling, momentum_pair,
                             scaling_fit)
    from .grid import make_grid

    g, p = cfg["grid"], cfg["parameters"]
    grid = make_grid(g["dim"], g["half_extent"], g["points_per_axis"])
    exp = momentum_pair(grid, p["profile_scale"], p["shift"], tuple(p["ns"]))
    fit = scaling_fit(exp)
    bump = derivative_bump_scaling(tuple(p["ns"]))
    residuals = [r.residual for r in (*fit.runs, fit.m_ab_run)]
    verdicts = [
        _verdict("decay_slope", fit.slope, -0.70, "<=",
                 "band-cutoff commutators against the saturating multiplier "
                 "decay with the band scale"),
        _verdict("envelope_bound", fit.bounds_ok, True, "==",
                 "a single fitted constant times the scale to the -3/4 "
                 "dominates every measured norm"),
        _verdict("crude_bound", fit.crude_ok, True, "==",
                 "every commutator norm respects the trivial bound of twice "
                 "the multiplier norm"),
        _verdict("bump_l2_exponent", abs(bump.exponent_l2 + 0.5), 0.025, "<=",
                 "the derivative bump's quadratic mean shrinks exactly like "
                 "the inverse square root of the band scale"),
        _verdict("bump_grad_exponent", abs(bump.exponent_grad + 1.5), 0.075,
                 "<=",
                 "the derivative bump's gradient shrinks exactly like the "
                 "-3/2 power of the band scale"),
        _verdict("proxy_under_envelope", bump.proxy_under_envelope, True,
                 "==",
                 "the interpolation proxy for the integrable-transform norm "
                 "stays under its -3/4 envelope"),
        _verdict("lanczos_residual", max(residuals), 1e-10, "<=",
                 "every commutator norm, and the commutator with A itself, "
                 "is an extreme Ritz value certified by its Lanczos "
                 "residual"),
    ]
    results = {
        "ns": list(fit.ns),
        "norms": list(fit.norms),
        "bounds": list(fit.bounds),
        "slope": fit.slope,
        "c_hat": fit.c_hat,
        "m_ab": fit.m_ab,
        "b_norm": fit.b_norm,
        "lanczos_iterations": {"norms": [r.iterations for r in fit.runs],
                               "m_ab": fit.m_ab_run.iterations},
        "lanczos_residual": {"norms": [r.residual for r in fit.runs],
                             "m_ab": fit.m_ab_run.residual},
        "bump_l2": list(bump.l2),
        "bump_l2_grad": list(bump.l2_grad),
        "bump_proxy": list(bump.proxy),
        "bump_exponents": {"l2": bump.exponent_l2, "grad": bump.exponent_grad,
                           "proxy": bump.exponent_proxy},
    }
    passes = [v <= b * (1 + 1e-12) for v, b in zip(fit.norms, fit.bounds)]
    series = [
        ("commutator.csv", {"N": [int(n) for n in fit.ns],
                            "norm": list(fit.norms),
                            "bound": list(fit.bounds),
                            "pass": passes}),
        ("bump_scaling.csv", {"N": [int(n) for n in bump.ns],
                              "l2": list(bump.l2),
                              "l2_grad": list(bump.l2_grad),
                              "proxy": list(bump.proxy)}),
    ]
    return results, verdicts, series, []


def _run_suite(cfg):
    from .acceptance import CRITERIA

    criteria = [criterion(cfg["seed"]) for criterion in CRITERIA]
    verdicts = [
        _verdict(f"criterion_{c.number}", c.passed, True, "==", c.name)
        for c in criteria
    ]
    results = {
        "criteria": [{"number": c.number, "name": c.name, "pass": c.passed,
                      "details": _plain(c.details)} for c in criteria],
    }
    return results, verdicts, [], []


_RUNNERS = {
    "uncertainty": _run_uncertainty,
    "minimal-velocity": _run_minimal_velocity,
    "enss": _run_enss,
    "observability": _run_observability,
    "sharpness": _run_sharpness,
    "control": _run_control,
    "commutator": _run_commutator,
    "suite": _run_suite,
}


# ---------------------------------------------------------------------------
# orchestration

def execute(cfg: dict):
    """Run a resolved config; returns (results, verdicts, series, fields).

    Builds H (on its grid) once when the experiment reads `hamiltonian`, and
    the propagator plan once when it reads `engine`, and hands them to the
    runner.  A potential-kind H ends the verdicts with repulsive_hypothesis.
    """
    experiment = cfg["experiment"]
    reads = READS[experiment]
    if "hamiltonian" not in reads:
        return _RUNNERS[experiment](cfg)
    from .hamiltonian import min_virial
    from .propagate import PropagatorPlan

    spec = _hamiltonian_from(cfg)
    built = (spec,)
    if "engine" in reads:
        built += (PropagatorPlan(spec, cfg["engine"], dt=cfg["dt"]),)
    results, verdicts, series, fields = _RUNNERS[experiment](cfg, *built)
    if spec.kind == "potential":
        verdicts = verdicts + [_verdict(
            "repulsive_hypothesis", min_virial(spec), -1e-12, ">=",
            "the potential is repulsive, -x.grad V >= 0, as the minimal "
            "velocity estimates assume")]
    return results, verdicts, series, fields


def _emit(out: Path, report: dict, meta: dict, series, fields) -> None:
    """Write every output into a temporary directory beside out, then move it
    into place: the whole directory when out is new, else file by file.
    run_meta.json gets meta plus the report's sha256."""
    report_bytes = (json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
                    + "\n").encode()
    meta = dict(meta, report_sha256=hashlib.sha256(report_bytes).hexdigest())
    # mkdir, unlike mkdtemp, gives the directory the permissions umask allows
    stage = out.parent / f".{out.name}.{os.getpid()}.{time.monotonic_ns()}"
    stage.mkdir(parents=True)
    try:
        (stage / "report.json").write_bytes(report_bytes)
        with open(stage / "run_meta.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for name, columns in series:
            emit_series(stage / name, columns)
        for name, field in fields:
            emit_field(stage / name, field)
        if out.exists():
            for item in stage.iterdir():
                os.replace(item, out / item.name)
        else:
            os.rename(stage, out)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def run(experiment: str, config_path: str | None, out_dir: str,
        engine: str | None = None, seed: int | None = None,
        threads: int | None = None) -> int:
    """Execute one experiment end to end; returns the process exit code.

    Outputs are all or nothing: an error (exit 1) leaves out_dir as it was.
    threads is the --threads value, recorded in run_meta.json only.
    """
    overrides = {k: v for k, v in (("engine", engine), ("seed", seed))
                 if v is not None}
    try:
        cfg = load_config(experiment, config_path, overrides)
    except Exception as err:  # schema violation or unreadable config: no outputs
        print(f"error: {err}", file=sys.stderr)
        return 1

    started = time.perf_counter()
    try:
        results, verdicts, series, fields = execute(cfg)
    except Exception as err:
        print(f"error: {experiment} run failed: {err}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started

    import numpy as np

    from . import __version__

    report = {
        "experiment": experiment,
        "config": _plain(cfg),
        "version": __version__,
        "results": _plain(results),
        "verdicts": _plain(verdicts),
        "pass": all(v["pass"] for v in verdicts),
    }
    meta = {
        "wall_clock_seconds": elapsed,
        "threads": threads,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
    }
    out = Path(out_dir)
    try:
        _emit(out, report, meta, series, fields)
    except Exception as err:
        print(f"error: {experiment} outputs not written: {err}", file=sys.stderr)
        return 1

    for v in report["verdicts"]:
        status = "PASS" if v["pass"] else "FAIL"
        print(f"[{status}] {experiment}:{v['name']} measured={v['measured']} "
              f"threshold={v['comparison']}{v['threshold']}")
    print(f"report: {out / 'report.json'}")
    return 0 if report["pass"] else 2


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as every other error does: 2 means a run
    completed with a failed verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="obslab",
        description="spectral lab for dispersive propagation, observability "
                    "and impulse control")
    parser.add_argument("--version", action="store_true",
                        help="print version and exit")
    sub = parser.add_subparsers(dest="experiment")
    for name, reads in READS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, metavar="PATH")
        sp.add_argument("--out", default="obslab_out", metavar="DIR")
        if "engine" in reads:
            sp.add_argument("--engine", default=None, choices=ENGINES)
        sp.add_argument("--seed", default=None, type=int, metavar="U64")
        sp.add_argument("--threads", default=None, type=int, metavar="N")
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:      # a usage error (1), or --help (0)
        return stop.code

    if args.version:
        from . import __version__

        print(__version__)
        return 0
    if args.experiment is None:
        parser.print_help()
        return 1

    if args.seed is not None and not 0 <= args.seed < 2**64:
        print("error: --seed must fit in 64 bits", file=sys.stderr)
        return 1
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be at least 1", file=sys.stderr)
            return 1
        for var in THREAD_VARS:
            os.environ[var] = str(args.threads)

    out_dir = os.environ.get("OBSLAB_OUT") or args.out     # blank reads as unset
    return run(args.experiment, args.config, out_dir,
               engine=vars(args).get("engine"), seed=args.seed,
               threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
