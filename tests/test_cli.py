"""Config loading, deterministic emission, exit codes, entry-point plumbing."""

import filecmp
import functools
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from obslab import __version__, acceptance, cli, propagate
from obslab.grid import Field, make_grid


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


SMALL_UNCERTAINTY = {
    "experiment": "uncertainty",
    "grid": {"dim": 1, "half_extent": 16.0, "points_per_axis": 256},
    "parameters": {
        "radii": [0.5, 1.0],
        "thresholds": [0.5, 1.0],
        "single": {"radius": 1.0, "threshold": 1.0},
        "collapse_tolerance": 0.5,
    },
}


# --- configuration ----------------------------------------------------------

@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_canned_defaults_validate(experiment):
    cfg = cli.load_config(experiment, None)
    assert cfg["experiment"] == experiment


def test_override_merges_into_defaults(tmp_path):
    path = write_config(tmp_path / "cfg.json", {
        "experiment": "uncertainty",
        "grid": {"dim": 1, "half_extent": 32.0, "points_per_axis": 256},
        "parameters": {"collapse_tolerance": 0.5},
    })
    cfg = cli.load_config("uncertainty", path)
    assert cfg["grid"]["points_per_axis"] == 256
    assert cfg["parameters"]["collapse_tolerance"] == 0.5
    # untouched leaves keep their canned values
    defaults = cli.load_config("uncertainty", None)
    assert cfg["parameters"]["radii"] == defaults["parameters"]["radii"]
    assert cfg["seed"] == defaults["seed"]


def test_schema_rejects_bad_grid(tmp_path):
    path = write_config(tmp_path / "cfg.json", {
        "experiment": "uncertainty",
        "grid": {"dim": 1, "half_extent": 16.0, "points_per_axis": 7},
    })
    with pytest.raises(jsonschema.ValidationError):
        cli.load_config("uncertainty", path)


def test_schema_rejects_unknown_parameter(tmp_path):
    path = write_config(tmp_path / "cfg.json", {
        "experiment": "uncertainty",
        "parameters": {"bogus": 1},
    })
    with pytest.raises(jsonschema.ValidationError):
        cli.load_config("uncertainty", path)


@pytest.mark.parametrize("experiment, overlay", [
    ("uncertainty", {"grid": {"points_per_axis": "many"}}),
    ("control", {"engine": "lanczos"}),
    ("enss", {"parameters": {"ramp": -0.25}}),
    ("observability", {"parameters": {"bogus": 1}}),
])
def test_cached_validators_raise_what_jsonschema_raises(experiment, overlay):
    merged = cli._deep_merge(cli.DEFAULTS[experiment], overlay)
    try:
        jsonschema.validate(merged, cli._schema(experiment))
    except jsonschema.ValidationError as err:
        expected = err.message
    else:
        pytest.fail("overlay should be invalid")
    for _ in range(2):        # cold and cached validators
        with pytest.raises(jsonschema.ValidationError) as caught:
            cli.resolve_config(experiment, overlay)
        assert caught.value.message == expected


def test_experiment_name_must_match(tmp_path):
    path = write_config(tmp_path / "cfg.json", {"experiment": "control"})
    with pytest.raises(ValueError, match="subcommand"):
        cli.load_config("uncertainty", path)


class _Recording(dict):
    """A config that notes the path of every leaf read from it, at any depth:
    a nested object comes back wrapped, so the leaves under it are noted.
    A .get read fails the test: its default would stand in for a value the
    resolved config always holds."""

    def __init__(self, cfg, seen, path=()):
        super().__init__(cfg)
        self.seen, self.path = seen, path

    def _read(self, key, value):
        path = self.path + (key,)
        if isinstance(value, dict):
            return _Recording(value, self.seen, path)
        self.seen.add(path)
        return value

    def __getitem__(self, key):
        return self._read(key, super().__getitem__(key))

    def get(self, key, default=None):
        pytest.fail(f"config key {'.'.join(self.path + (key,))} read with "
                    ".get; a run reads its resolved config with []")


def _leaf_paths(cfg, path=()):
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


# small overlays where the canned run is slow; which keys a run reads does
# not depend on sizes
_QUICK = {
    "uncertainty": {"grid": {"points_per_axis": 256}},
    "enss": {"grid": {"half_extent": 64.0, "points_per_axis": 256},
             "parameters": {"times": {"start": 2.0, "stop": 8.0, "count": 4}}},
    "sharpness": {"grid": {"half_extent": 8.0, "points_per_axis": 2048}},
    "commutator": {"grid": {"points_per_axis": 1024},
                   "parameters": {"ns": [6, 12, 24, 48, 64],
                                  "profile_scale": 3.0}},
}

@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_a_run_reads_exactly_its_canned_keys(experiment, monkeypatch):
    # execute and the runner together read every leaf of the resolved canned
    # config ("seed" aside, which every config carries) and no other
    monkeypatch.setattr(acceptance, "CRITERIA", ())
    seen = set()
    cfg = cli.resolve_config(experiment, _QUICK.get(experiment, {}))
    recording = _Recording(cfg, seen)
    if experiment == "commutator":
        # resolve_config's check is what reads grid.dim: it must be 1
        cli._check_commutator_grid(recording)
    cli.execute(recording)
    canned = cli.resolve_config(experiment, {})
    assert seen | {("seed",)} == set(_leaf_paths(canned))
    assert set(canned) == {"experiment", "seed", *cli.READS[experiment]}


@pytest.mark.parametrize("experiment, overlay", [
    *((e, {key: value}) for e in ("uncertainty", "enss")
      for key, value in (("engine", "dense"), ("dt", 1e-3))),
    *(("commutator", {key: value}) for key, value in (
        ("hamiltonian", {"kind": "free"}), ("engine", "dense"), ("dt", 1e-3))),
    *(("suite", {key: value}) for key, value in (
        ("grid", {"dim": 1, "half_extent": 32.0, "points_per_axis": 1024}),
        ("hamiltonian", {"kind": "free"}), ("engine", "multiplier"),
        ("dt", 1e-3), ("parameters", {}))),
    # the commutator's lattice is the grid's, and 1-D
    ("commutator", {"grid": {"dim": 2, "points_per_axis": 64}}),
    ("commutator", {"parameters": {"points": 1024}}),
    ("commutator", {"parameters": {"half_extent": 16.0}}),
])
def test_keys_the_run_would_ignore_exit_1_and_write_nothing(
        experiment, overlay, tmp_path, capsys):
    path = write_config(tmp_path / "cfg.json", overlay)
    out = tmp_path / "out"
    assert cli.run(experiment, path, str(out)) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    (key,) = overlay
    if experiment == "commutator" and key in ("grid", "parameters"):
        assert "1-D grid" in err or "differs from grid" in err
    else:
        assert f"{key!r} was unexpected" in err


def test_commutator_grid_is_a_grid_spec(tmp_path, capsys):
    # the commutator builds its grid as every other experiment does, so a
    # point count that is no power of two exits 1
    path = write_config(tmp_path / "cfg.json", {
        "grid": {"dim": 1, "half_extent": 12.0, "points_per_axis": 1000},
        "parameters": {"ns": [6, 12, 24, 48, 64], "profile_scale": 3.0}})
    out = tmp_path / "out"
    assert cli.run("commutator", path, str(out)) == 1
    assert not out.exists()
    assert "power of two" in capsys.readouterr().err


def test_hamiltonian_keys_the_run_would_ignore_are_rejected(tmp_path, capsys):
    # each key is one the chosen kind never reads, one no kind reads, or one
    # the chosen kind reads and the config lacks
    planted = [
        ({"kind": "free", "s": 3.0}, "'s' goes with kind 'fractional'"),
        ({"kind": "fractional", "s": 1.0, "c": 0.1}, "'c' was unexpected"),
        ({"kind": "free", "c": -0.1}, "'c' was unexpected"),
        ({"kind": "free", "potential": {"form": "gaussian", "amplitude": 1.0}},
         "'potential' goes with kind 'potential'"),
        ({"kind": "potential", "potential": {"form": "zero", "amplitude": 1.0}},
         "'zero' is not one of"),
        ({"kind": "potential", "potential": {"form": "ball", "amplitude": 1.0}},
         "'ball' is not one of"),
        ({"kind": "potential", "potential": {"form": "gaussian", "amplitude": 1.0,
                                                "radius": 1.0}},
         "'radius' was unexpected"),
        ({"kind": "potential"}, "'potential' goes with kind 'potential'"),
        ({"kind": "fractional"}, "'s' goes with kind 'fractional'"),
        ({"kind": "potential", "potential": {"form": "gaussian"}},
         "'amplitude' is a required property"),
    ]
    for i, (hamiltonian, message) in enumerate(planted):
        path = write_config(tmp_path / f"cfg{i}.json", {
            "grid": {"dim": 1, "half_extent": 32.0, "points_per_axis": 256},
            "hamiltonian": hamiltonian})
        out = tmp_path / f"out{i}"
        assert cli.run("uncertainty", path, str(out)) == 1
        assert not out.exists()
        assert message in capsys.readouterr().err
    # the same keys where they are read
    for hamiltonian in ({"kind": "fractional", "s": 3.0},
                        {"kind": "potential",
                         "potential": {"form": "gaussian", "amplitude": 0.5}}):
        cfg = cli.resolve_config("uncertainty", {"hamiltonian": hamiltonian})
        assert cfg["hamiltonian"] == {"convention": "full", **hamiltonian}


def test_minimal_velocity_takes_no_state_key(tmp_path, capsys):
    # the run decides from the window defect whether to filter its state
    for i, state in enumerate(("band", "window")):
        path = write_config(tmp_path / f"cfg{i}.json",
                            {"parameters": {"state": state}})
        out = tmp_path / f"out{i}"
        assert cli.run("minimal-velocity", path, str(out)) == 1
        assert not out.exists()
        assert "'state' was unexpected" in capsys.readouterr().err


def test_minimal_velocity_filters_a_band_that_leaves_the_window(tmp_path):
    # kappa 1.80^2 = 3.24 lies above the window top 3.0: the band state is
    # not localized, so the run filters it into the window and reports
    path = write_config(tmp_path / "cfg.json",
                        {"parameters": {"band": [1.12, 1.80]}})
    out = tmp_path / "out"
    assert cli.run("minimal-velocity", path, str(out)) == 2
    report = json.loads((out / "report.json").read_text())
    assert [v["name"] for v in report["verdicts"] if not v["pass"]] == [
        "wrap_monitor"]


def test_benchmark_overlays_resolve():
    # a config-surface change that would make the benchmark's calls exit 1
    # fails here first
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.WORKLOADS
    for name, jobs_for in workloads.WORKLOADS.items():
        for seed in range(3):
            jobs = jobs_for(seed)
            assert jobs, name
            for experiment, overlay in jobs:
                assert cli.resolve_config(experiment, overlay)["experiment"] \
                    == experiment


def test_acceptance_overlays_resolve():
    # schema drift in a pinned acceptance case fails here, without a run
    criteria = acceptance.CRITERIA[1:-1]
    assert [c.number for c in criteria] == list(range(2, 10))
    for criterion in criteria:
        for experiment, overlay in criterion.cases:
            assert cli.resolve_config(experiment, overlay)["experiment"] \
                == experiment


# --- emission ---------------------------------------------------------------

def test_series_cells_and_endings(tmp_path):
    out = tmp_path / "s.csv"
    cli.emit_series(out, {"k": [1, 2], "flag": [True, False],
                          "x": [0.5, 1.0 / 3.0]})
    raw = out.read_bytes()
    assert raw == (b"k,flag,x\n"
                   b"1,true,0.50000000000\n"
                   b"2,false,0.333333333333\n")


def test_series_header_only_and_mismatch(tmp_path):
    out = tmp_path / "empty.csv"
    cli.emit_series(out, {"a": [], "b": []})
    assert out.read_bytes() == b"a,b\n"
    with pytest.raises(ValueError, match="length"):
        cli.emit_series(tmp_path / "bad.csv", {"a": [1], "b": []})


def test_series_nan_cell(tmp_path):
    out = tmp_path / "n.csv"
    cli.emit_series(out, {"v": [float("nan")]})
    assert out.read_text() == "v\nnan\n"


def test_field_roundtrip(tmp_path):
    g = make_grid(1, 8.0, 16)
    rng = np.random.default_rng(2)
    values = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    cli.emit_field(tmp_path / "f", Field(g, values))
    sidecar = json.loads((tmp_path / "f.json").read_text())
    assert sidecar["dtype"] == "complex64"
    assert sidecar["byte_order"] == "little"
    assert sidecar["shape"] == [16]
    assert sidecar["grid"] == {"dim": 1, "half_extent": 8.0,
                               "points_per_axis": 16}
    back = np.fromfile(tmp_path / "f.bin", dtype="<c8").reshape(16)
    np.testing.assert_allclose(back, values, rtol=1e-6, atol=1e-6)


# --- end-to-end -------------------------------------------------------------

def test_run_writes_deterministic_outputs(tmp_path):
    path = write_config(tmp_path / "cfg.json", SMALL_UNCERTAINTY)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.run("uncertainty", path, str(out1)) == 0
    assert cli.run("uncertainty", path, str(out2)) == 0
    for name in ("report.json", "run_meta.json", "scan.csv"):
        assert (out1 / name).is_file()
    assert filecmp.cmp(out1 / "report.json", out2 / "report.json", shallow=False)
    assert filecmp.cmp(out1 / "scan.csv", out2 / "scan.csv", shallow=False)
    meta = json.loads((out1 / "run_meta.json").read_text())
    digest = hashlib.sha256((out1 / "report.json").read_bytes()).hexdigest()
    assert meta["report_sha256"] == digest
    report = json.loads((out1 / "report.json").read_text())
    assert report["pass"] is True
    assert report["version"] == __version__
    names = [v["name"] for v in report["verdicts"]]
    assert names == ["lanczos_vs_dense", "lanczos_residual", "norm_below_one",
                     "monotone_scan", "scaling_collapse"]
    with open(out1 / "scan.csv", encoding="utf-8") as fh:
        assert fh.readline().rstrip("\n") == "radius,threshold,norm"
        assert len(fh.readlines()) == 4


def test_enss_runner_gates_on_the_norm_witness():
    cfg = cli.resolve_config("enss", {
        "grid": {"dim": 1, "half_extent": 64.0, "points_per_axis": 512},
        "parameters": {"a_values": [0.0],
                       "times": {"start": 3.0, "stop": 12.0, "count": 4}}})
    results, verdicts, _, _ = cli.execute(cfg)
    witness = {v["name"]: v for v in verdicts}["norm_witness"]
    assert witness["pass"] is True and witness["threshold"] == 1e-8
    assert witness["measured"] == max(results["witness_defect"])
    assert len(results["witness_defect"]) == 1


def test_enss_never_diagonalizes_a_multiplier_hamiltonian(tmp_path, monkeypatch):
    # a free H reaches enss_decay only through its Fourier calculus: with
    # the dense eigensolve and assembly planted to raise, the run still passes
    from obslab import hamiltonian, spectral

    def planted(*args, **kwargs):
        raise AssertionError("a multiplier H was diagonalized")

    for original in (spectral.decompose_hamiltonian, hamiltonian.dense_matrix):
        for name, module in list(sys.modules.items()):
            if name == "obslab" or name.startswith("obslab."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, planted)
    path = write_config(tmp_path / "cfg.json", {
        "grid": {"dim": 1, "half_extent": 256.0, "points_per_axis": 256}})
    assert cli.run("enss", path, str(tmp_path / "out")) == 0


def test_enss_threshold_above_the_dilation_spectrum_fails(tmp_path):
    # a = 1e6 empties chi^+: an all-zero series, whose fit reads NaN
    path = write_config(tmp_path / "cfg.json", {
        "grid": {"dim": 1, "half_extent": 64.0, "points_per_axis": 256},
        "parameters": {"a_values": [0.0, 1e6],
                       "times": {"start": 2.0, "stop": 8.0, "count": 4}}})
    out = tmp_path / "out"
    assert cli.run("enss", path, str(out)) == 2
    report = json.loads((out / "report.json").read_text())
    by_name = {v["name"]: v for v in report["verdicts"]}
    assert by_name["decay_slope_a_1e+06"]["pass"] is False
    assert by_name["decay_slope_a_1e+06"]["measured"] == "nan"
    assert by_name["norm_witness"]["pass"] is True
    assert report["results"]["slopes"][1] == "nan"
    assert report["results"]["r_squared"][1] == "nan"
    assert report["results"]["bound_constants"][1] == 0.0


def test_minimal_velocity_short_series_fails_its_fit_verdicts(tmp_path):
    # three times, the first dropped as transient: two points cannot be
    # fitted, so slope and r^2 read NaN and their verdicts fail (exit 2)
    path = write_config(tmp_path / "cfg.json", {
        "experiment": "minimal-velocity",
        "parameters": {"times": {"start": 5, "stop": 50, "count": 3}}})
    out = tmp_path / "out"
    assert cli.run("minimal-velocity", path, str(out)) == 2
    report = json.loads((out / "report.json").read_text())
    by_name = {v["name"]: v for v in report["verdicts"]}
    for name in ("decay_slope", "fit_quality"):
        assert by_name[name]["pass"] is False
        assert by_name[name]["measured"] == "nan"
    assert by_name["wrap_monitor"]["pass"] is True
    assert report["results"]["slope"] == "nan"
    assert report["results"]["r_squared"] == "nan"
    assert len(report["results"]["interior_masses"]) == 3


def test_engine_cross_check_gates_the_observability_run(tmp_path, monkeypatch):
    # below the dense budget the multiplier run is checked against the dense
    # engine; a planted deviation fails that verdict alone, with exit 2
    from obslab import inequality
    path = write_config(tmp_path / "cfg.json", {
        "grid": {"dim": 1, "half_extent": 64.0, "points_per_axis": 512},
        "hamiltonian": {"kind": "fractional", "s": 1.0},
        "parameters": {"packet": {"width": 4.0, "speed": 4.0}, "sigma": 0.5,
                       "t1": 1.0}})
    assert cli.run("observability", path, str(tmp_path / "clean")) == 0
    report = json.loads((tmp_path / "clean" / "report.json").read_text())
    check = {v["name"]: v for v in report["verdicts"]}["engine_cross_check"]
    assert check["pass"] is True and check["threshold"] == 1e-10
    assert check["measured"] == max(report["results"]["engine_cross_checks"])

    exact = inequality.engine_cross_check
    monkeypatch.setattr(inequality, "engine_cross_check",
                        lambda plan, field, t: exact(plan, field, t) + 1e-9)
    assert cli.run("observability", path, str(tmp_path / "planted")) == 2
    report = json.loads((tmp_path / "planted" / "report.json").read_text())
    failing = [v["name"] for v in report["verdicts"] if not v["pass"]]
    assert failing == ["engine_cross_check"]


def test_engine_cross_check_verdict_only_when_the_check_ran():
    # the canned observability grid sits at the dense budget: no check
    cfg = cli.resolve_config("observability", {})
    results, verdicts, _, _ = cli.execute(cfg)
    assert results["engine_cross_checks"] == [None, None, None]
    assert "engine_cross_check" not in [v["name"] for v in verdicts]


def test_repulsive_hypothesis_gates_potential_runs(tmp_path):
    # a Gaussian well of negative amplitude is attractive: -x.grad V < 0
    cfg = json.loads(json.dumps(SMALL_UNCERTAINTY))
    outcomes = []
    for amplitude, code in ((0.25, 0), (-0.25, 2)):
        cfg["hamiltonian"] = {"kind": "potential", "potential": {
            "form": "gaussian", "amplitude": amplitude}}
        path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / f"well{amplitude}"
        assert cli.run("uncertainty", path, str(out)) == code
        report = json.loads((out / "report.json").read_text())
        check = report["verdicts"][-1]
        assert check["name"] == "repulsive_hypothesis"
        assert check["threshold"] == -1e-12 and check["comparison"] == ">="
        failing = [v["name"] for v in report["verdicts"] if not v["pass"]]
        outcomes.append((check["measured"], failing))
    assert outcomes[0] == (0.0, [])
    assert outcomes[1][0] < -0.1 and outcomes[1][1] == ["repulsive_hypothesis"]


def test_repulsive_hypothesis_absent_for_other_kinds():
    for hamiltonian in ({"kind": "free"}, {"kind": "fractional", "s": 1.0}):
        cfg = cli.resolve_config("uncertainty", {**SMALL_UNCERTAINTY,
                                                 "hamiltonian": hamiltonian})
        _, verdicts, _, _ = cli.execute(cfg)
        assert "repulsive_hypothesis" not in [v["name"] for v in verdicts]


def test_failed_verdict_still_reports(tmp_path):
    cfg = json.loads(json.dumps(SMALL_UNCERTAINTY))
    # force a genuine invariant coincidence, then demand the impossible
    cfg["parameters"]["thresholds"] = [0.5, 2.0]
    cfg["parameters"]["collapse_tolerance"] = 1e-15
    path = write_config(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert cli.run("uncertainty", path, str(out)) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False
    by_name = {v["name"]: v for v in report["verdicts"]}
    assert by_name["scaling_collapse"]["pass"] is False
    assert by_name["lanczos_vs_dense"]["pass"] is True


@pytest.mark.parametrize("experiment, key, ladder, series", [
    ("observability", "gaps", [40.0, 20.0, 10.0], "observability.csv"),
    ("sharpness", "ks", [8, 4, 2, 1], "sharpness.csv"),
])
def test_a_reversed_ladder_reports_the_ascending_results(
        experiment, key, ladder, series, tmp_path):
    # verdicts read the ladder in ascending order, whatever the config's
    assert cli.resolve_config(experiment, {})["parameters"][key] == ladder[::-1]
    canned, reversed_ = tmp_path / "canned", tmp_path / "reversed"
    assert cli.run(experiment, None, str(canned)) == 0
    path = write_config(tmp_path / "cfg.json", {"parameters": {key: ladder}})
    assert cli.run(experiment, path, str(reversed_)) == 0
    results = [json.loads((out / "report.json").read_text())["results"]
               for out in (canned, reversed_)]
    assert results[1][key] == ladder[::-1]
    assert results[1] == results[0]
    assert filecmp.cmp(canned / series, reversed_ / series, shallow=False)


def test_a_repeated_k_exits_1_and_writes_nothing(tmp_path, capsys):
    # a repeated k can never shrink both columns strictly
    path = write_config(tmp_path / "cfg.json", {"parameters": {"ks": [1, 2, 2, 4]}})
    out = tmp_path / "out"
    assert cli.run("sharpness", path, str(out)) == 1
    assert not out.exists()
    assert "non-unique" in capsys.readouterr().err


def _starved_run(tmp_path, monkeypatch, module, solver, experiment, overlay):
    # cap the solver at two iterations; the run still completes and reports
    monkeypatch.setattr(module, solver,
                        functools.partial(getattr(module, solver), max_iter=2))
    out = tmp_path / "out"
    assert cli.run(experiment, write_config(tmp_path / "cfg.json", overlay),
                   str(out)) == 2
    report = json.loads((out / "report.json").read_text())
    return report, {v["name"]: v for v in report["verdicts"]}


def test_capped_lanczos_fails_the_uncertainty_residual_verdict(tmp_path,
                                                               monkeypatch):
    from obslab import estimate
    report, by_name = _starved_run(tmp_path, monkeypatch, estimate,
                                   "hermitian_operator_norm", "uncertainty",
                                   SMALL_UNCERTAINTY)
    single = report["results"]["single"]
    assert single["lanczos_iterations"] == 2
    assert single["lanczos_converged"] is False
    assert by_name["lanczos_residual"]["measured"] == single["lanczos_residual"]
    assert by_name["lanczos_residual"]["pass"] is False


def test_capped_cg_fails_the_control_convergence_verdict(tmp_path, monkeypatch):
    # radius 1 masks the observation, so CG needs about 8 iterations
    from obslab import control
    report, by_name = _starved_run(tmp_path, monkeypatch, control,
                                   "solve_impulse_control", "control",
                                   {"parameters": {"radius": 1.0}})
    assert report["results"]["iterations"] == [2, 2, 2]
    assert report["results"]["converged"] == [False, False, False]
    assert by_name["cg_converged"]["pass"] is False


def test_splitstep_control_kicks_below_one_step(tmp_path):
    # tau1 is shorter than dt: the kick still happens at tau1 itself
    path = write_config(tmp_path / "cfg.json", {
        "experiment": "control", "engine": "splitstep", "dt": 0.01,
        "parameters": {"tau1": 0.004, "tau2": 1.0}})
    out = tmp_path / "out"
    assert cli.run("control", path, str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["verdicts"]) == 8


def test_full_and_half_control_share_one_eigensolve(tmp_path):
    # the half free H is the full one halved: its independent dense check
    # reads the full eigenbasis, so the pair costs one eigensolve
    from obslab.spectral import decompose_hamiltonian
    before = decompose_hamiltonian.cache_info().misses
    for convention in ("full", "half"):
        path = write_config(tmp_path / f"{convention}.json", {
            "experiment": "control",
            "grid": {"dim": 1, "half_extent": 28.0, "points_per_axis": 256},
            "hamiltonian": {"kind": "free", "convention": convention}})
        assert cli.run("control", path, str(tmp_path / convention)) == 0
    assert decompose_hamiltonian.cache_info().misses == before + 1


def test_schema_violation_writes_nothing(tmp_path, capsys):
    cfg = json.loads(json.dumps(SMALL_UNCERTAINTY))
    cfg["grid"]["points_per_axis"] = 7
    path = write_config(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert cli.run("uncertainty", path, str(out)) == 1
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_runner_failure_writes_nothing(tmp_path, capsys):
    path = write_config(tmp_path / "cfg.json", {
        "experiment": "minimal-velocity",
        "grid": {"dim": 1, "half_extent": 16.0, "points_per_axis": 256},
        "parameters": {
            "band": [1.0, 1.2],        # ramp cannot fit: the builder raises
            "band_ramp": 0.3,
            "energy_window": [1.0, 1.44],
            "velocity_fraction": 0.5,
            "times": {"start": 2.0, "stop": 6.0, "count": 3},
        },
    })
    out = tmp_path / "out"
    assert cli.run("minimal-velocity", path, str(out)) == 1
    assert not out.exists()
    assert "run failed" in capsys.readouterr().err


def test_emission_failure_writes_nothing(tmp_path, monkeypatch, capsys):
    # series columns of unequal length fail emission: exit 1, and no
    # output directory appears, or an existing one keeps its old files
    def planted(cfg, spec, plan):
        return {}, [], [("bad.csv", {"a": [1.0], "b": []})], []

    monkeypatch.setitem(cli._RUNNERS, "observability", planted)
    out = tmp_path / "out"
    assert cli.run("observability", None, str(out)) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()
    out.mkdir()
    (out / "report.json").write_text("old report")
    assert cli.run("observability", None, str(out)) == 1
    assert [p.name for p in out.iterdir()] == ["report.json"]
    assert (out / "report.json").read_text() == "old report"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_rerun_replaces_outputs_in_an_existing_directory(tmp_path):
    path = write_config(tmp_path / "cfg.json", SMALL_UNCERTAINTY)
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").write_text("old report")
    (out / "notes.txt").write_text("kept")
    assert cli.run("uncertainty", path, str(out)) == 0
    assert json.loads((out / "report.json").read_text())["pass"] is True
    assert (out / "notes.txt").read_text() == "kept"
    assert sorted(p.name for p in out.iterdir()) == [
        "notes.txt", "report.json", "run_meta.json", "scan.csv"]
    assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == ["out"]


def test_non_finite_values_make_strict_json(tmp_path, monkeypatch):
    def planted(cfg, spec, plan):
        results = {"ratio": float("inf"), "floor": np.float64(-np.inf),
                   "gap": np.float64("nan")}
        verdicts = [cli._verdict("upper", math.inf, 1.0, "<=", "planted"),
                    cli._verdict("lower", -math.inf, 0.0, ">=", "planted")]
        return results, verdicts, [], []

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    monkeypatch.setitem(cli._RUNNERS, "observability", planted)
    out = tmp_path / "out"
    assert cli.run("observability", None, str(out)) == 2
    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["results"] == {"ratio": "inf", "floor": "-inf", "gap": "nan"}
    assert [v["measured"] for v in report["verdicts"]] == ["inf", "-inf"]


def test_acceptance_gates_on_runner_verdicts(monkeypatch):
    seen = []

    def planted(cfg, spec, plan):
        seen.append(cfg)
        return {}, [cli._verdict("planted", 1.0, 0.0, "<=", "planted")], [], []

    monkeypatch.setitem(cli._RUNNERS, "control", planted)
    result = acceptance.CRITERIA[7]()
    assert result.number == 8 and not result.passed
    assert seen == [cli.resolve_config("control", overlay)
                    for overlay in ({}, {"parameters": {"radius": 1.0}})]
    failing = [v["name"] for case in result.details["cases"]
               for v in case["verdicts"] if not v["pass"]]
    assert failing == ["planted", "planted"]


# --- entry point ------------------------------------------------------------

def test_main_version(capsys):
    assert cli.main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "obslab", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == __version__


def test_canned_enss_agrees_across_thread_counts(tmp_path):
    # the dilation generator's two null modes are pinned at 0, so the
    # threshold a = 0 splits them the same way on every thread count
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    results = []
    for threads in (1, 2):
        out = tmp_path / str(threads)
        done = subprocess.run([sys.executable, "-m", "obslab", "enss",
                               "--threads", str(threads), "--out", str(out)],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        results.append(json.loads((out / "report.json").read_text())["results"])
    one, two = results
    for key in ("bound_constants", "slopes", "constant_ratio"):
        np.testing.assert_allclose(two[key], one[key], rtol=1e-12, atol=0)


def test_main_without_subcommand(capsys):
    assert cli.main([]) == 1
    assert "usage" in capsys.readouterr().out


def test_main_rejects_wide_seed(tmp_path, capsys):
    assert cli.main(["uncertainty", "--seed", "-1",
                     "--out", str(tmp_path / "x")]) == 1
    assert "64 bits" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_main_rejects_threads_below_one(threads, tmp_path, capsys, monkeypatch):
    for var in cli.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert cli.main(["uncertainty", "--threads", threads,
                     "--out", str(tmp_path / "x")]) == 1
    assert "--threads" in capsys.readouterr().err
    assert not any(var in os.environ for var in cli.THREAD_VARS)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["uncertainty", "--bogus"],
    ["nosuch"],
    ["uncertainty", "--threads", "two"],
    ["observability", "--engine", "lanczos"],
    *([name, "--engine", "dense"]
      for name in ("uncertainty", "enss", "commutator", "suite")),
])
def test_usage_errors_exit_1_and_write_nothing(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_python_dash_m_usage_error_exits_1(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "obslab", "enss", "--engine",
                           "dense", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "unrecognized arguments: --engine dense" in done.stderr
    assert not out.exists()


def test_engine_option_overlays_the_config(tmp_path):
    path = write_config(tmp_path / "cfg.json", {
        "grid": {"dim": 1, "half_extent": 64.0, "points_per_axis": 512},
        "hamiltonian": {"kind": "fractional", "s": 1.0},
        "parameters": {"packet": {"width": 4.0, "speed": 4.0}, "sigma": 0.5,
                       "t1": 1.0}})
    out = tmp_path / "out"
    assert cli.main(["observability", "--config", path, "--out", str(out),
                     "--engine", "dense"]) == 0
    assert json.loads((out / "report.json").read_text())["config"]["engine"] \
        == "dense"


def test_wall_clock_seconds_survive_a_clock_stepping_back(tmp_path, monkeypatch):
    import itertools
    import time

    clock = itertools.count(1e9, -3600.0)
    monkeypatch.setattr(time, "time", lambda: next(clock))
    path = write_config(tmp_path / "cfg.json", SMALL_UNCERTAINTY)
    assert cli.run("uncertainty", path, str(tmp_path / "out")) == 0
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    assert meta["wall_clock_seconds"] >= 0.0


def test_run_facts_go_to_run_meta_not_the_report(tmp_path, monkeypatch):
    path = write_config(tmp_path / "cfg.json", SMALL_UNCERTAINTY)
    for var in cli.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert cli.run("uncertainty", path, str(tmp_path / "a")) == 0
    for var in cli.THREAD_VARS:
        monkeypatch.setenv(var, "5")     # restored after the test; main sets 2
    assert cli.main(["uncertainty", "--config", path, "--out",
                     str(tmp_path / "b"), "--threads", "2"]) == 0
    a, b = (json.loads((tmp_path / d / "run_meta.json").read_text())
            for d in "ab")
    assert a["threads"] is None and b["threads"] == 2
    assert a["thread_env"] == dict.fromkeys(cli.THREAD_VARS)
    assert b["thread_env"] == dict.fromkeys(cli.THREAD_VARS, "2")
    assert a["cpu_count"] == b["cpu_count"] == os.cpu_count()
    assert a["splitstep_lanes"] == b["splitstep_lanes"] == propagate._LANES
    assert a["numpy"] == b["numpy"] == np.__version__
    assert filecmp.cmp(tmp_path / "a" / "report.json",
                       tmp_path / "b" / "report.json", shallow=False)
    assert a["report_sha256"] == b["report_sha256"]


def test_splitstep_report_is_the_same_at_one_and_two_lanes(tmp_path, monkeypatch):
    # the three rungs of the ladder march on the lanes, step by step;
    # run_meta.json records the lane count.  Three rungs miss the exterior
    # gate (exit 2), which does not matter here
    path = write_config(tmp_path / "cfg.json", {
        "experiment": "sharpness",
        "grid": {"dim": 1, "half_extent": 64.0, "points_per_axis": 8192},
        "hamiltonian": {"kind": "potential",
                        "potential": {"form": "gaussian", "amplitude": 0.25}},
        "engine": "splitstep",
        "dt": 5e-3,
        "parameters": {"ks": [1, 2, 4], "t": 0.25},
    })
    for lanes in (1, 2):
        monkeypatch.setattr(propagate, "_LANES", lanes)
        assert cli.run("sharpness", path, str(tmp_path / str(lanes))) == 2
        meta = json.loads((tmp_path / str(lanes) / "run_meta.json").read_text())
        assert meta["splitstep_lanes"] == lanes
    assert (tmp_path / "1" / "report.json").read_bytes() \
        == (tmp_path / "2" / "report.json").read_bytes()


def test_main_env_output_override(tmp_path, monkeypatch):
    path = write_config(tmp_path / "cfg.json", SMALL_UNCERTAINTY)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("OBSLAB_OUT", str(env_dir))
    code = cli.main(["uncertainty", "--config", path,
                     "--out", str(tmp_path / "ignored")])
    assert code == 0
    assert (env_dir / "report.json").is_file()
    assert not (tmp_path / "ignored").exists()


def test_main_blank_env_output_reads_as_unset(tmp_path, monkeypatch):
    # a set but blank OBSLAB_OUT must not make the working directory the
    # output directory
    path = write_config(tmp_path / "cfg.json", SMALL_UNCERTAINTY)
    work = tmp_path / "cwd"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv("OBSLAB_OUT", "")
    out = tmp_path / "from_flag"
    assert cli.main(["uncertainty", "--config", path, "--out", str(out)]) == 0
    assert (out / "report.json").is_file()
    assert list(work.iterdir()) == []


def test_potential_configs_key_the_hamiltonian_caches_by_value():
    # two builds of one potential config are one spec, so a repeat run hits
    # every cache keyed by it; another amplitude is another spec
    from obslab import hamiltonian, propagate

    def build(amplitude):
        return cli._hamiltonian_from({
            "grid": {"dim": 1, "half_extent": 8.0, "points_per_axis": 64},
            "hamiltonian": {"kind": "potential", "convention": "full",
                            "potential": {"form": "gaussian",
                                          "amplitude": amplitude}}})

    hamiltonian.potential_on_grid.cache_clear()
    propagate._strang_phases.cache_clear()
    first, second = build(0.25), build(0.25)
    assert first == second and hash(first) == hash(second)
    f = Field(first.grid, np.exp(-np.linspace(-8.0, 8.0, 64) ** 2) + 0j)
    runs = [propagate.evolve(propagate.PropagatorPlan(spec, "splitstep",
                                                      dt=1e-2), f, 0.05)
            for spec in (first, second)]
    assert np.array_equal(runs[0].values, runs[1].values)
    assert hamiltonian.potential_on_grid.cache_info().currsize == 1
    assert propagate._strang_phases.cache_info().currsize == 1
    other = build(0.5)
    assert other != first
    assert not np.array_equal(hamiltonian.potential_on_grid(other),
                              hamiltonian.potential_on_grid(first))
    assert hamiltonian.potential_on_grid.cache_info().currsize == 2


def test_main_seed_override_lands_in_report(tmp_path):
    path = write_config(tmp_path / "cfg.json", SMALL_UNCERTAINTY)
    out = tmp_path / "seeded"
    code = cli.main(["uncertainty", "--config", path, "--out", str(out),
                     "--seed", "123"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 123
