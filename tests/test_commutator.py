"""Band-cutoff commutator decay and its Fourier-side scaling ingredients."""

import functools
import json
import math

import numpy as np
import pytest

from obslab import cli, commutator, estimate
from obslab.commutator import (CommutatorExperiment, band_profile,
                               commutator_norm, derivative_bump_scaling,
                               momentum_pair, scaling_fit)
from obslab.grid import make_grid

# the benchmark's pair: 1024 points, ladder 6..64, profile scale 3
SMALL_PAIR = {"grid": {"dim": 1, "half_extent": 12.0, "points_per_axis": 1024},
              "parameters": {"points": 1024, "ns": [6, 12, 24, 48, 64],
                             "profile_scale": 3.0}}


def dense_commutator_norm(symbol, b, weights):
    """Oracle: ||[f(A), B]|| by SVD of the assembled n x n matrices."""
    n = symbol.size
    f = np.fft.fft(np.eye(n), axis=0) / math.sqrt(n)
    fa = f.conj().T @ (weights[:, None] * f)
    bm = np.diag(b)
    return float(np.linalg.svd(fa @ bm - bm @ fa, compute_uv=False)[0])


def small_experiment(b, ns=(1, 2, 4)):
    xi = 2.0 * np.pi * np.fft.fftfreq(32, 0.25)
    return CommutatorExperiment(xi + 1.0, b, ns)


def test_band_profile_shape():
    u = np.linspace(0.0, 3.0, 30001)
    f = band_profile(u)
    assert np.all((0.0 <= f) & (f <= 1.0))
    assert np.all(f[u <= 0.5] == 0.0)
    assert np.all(f[u >= 2.0] == 0.0)
    plateau = (0.75 <= u) & (u <= 1.25)
    assert np.all(f[plateau] == pytest.approx(1.0, abs=1e-12))
    # one rise and one fall: total variation 2
    assert np.sum(np.abs(np.diff(f))) == pytest.approx(2.0, abs=1e-6)


def test_experiment_validation():
    xi = np.arange(16.0)
    with pytest.raises(ValueError, match="equal length"):
        CommutatorExperiment(xi, xi[:8], (1, 2))
    with pytest.raises(ValueError, match="equal length"):
        CommutatorExperiment(np.eye(4), np.eye(4), (1, 2))
    with pytest.raises(ValueError, match="positive"):
        CommutatorExperiment(xi, xi, (0, 1))
    exp = CommutatorExperiment(xi - 20.0, -np.linspace(0.0, 3.0, 16), (8.0, 2, 4))
    assert exp.ns == (2, 4, 8)
    assert exp.spectral_radius == 20.0
    assert exp.b_norm == 3.0


def test_commutator_norm_against_svd():
    exp = momentum_pair(make_grid(1, 6.0, 512), ns=(4, 8, 16, 32, 64))
    for n in exp.ns:
        run = commutator_norm(exp, n)
        ref = dense_commutator_norm(exp.symbol, exp.b,
                                    band_profile(exp.symbol / n))
        assert run.converged and run.residual <= 1e-13
        assert run.value == pytest.approx(ref, rel=1e-12)
    m_ab = exp.commutator(exp.symbol)
    ref = dense_commutator_norm(exp.symbol, exp.b, exp.symbol)
    assert m_ab.converged
    assert m_ab.value == pytest.approx(ref, rel=1e-12)


def test_commuting_multiplier_gives_zero():
    # a constant B commutes with every f(A); 1/2 scales the FFT exactly
    exp = small_experiment(np.full(32, 0.5))
    for n in exp.ns:
        assert commutator_norm(exp, n).value == 0.0
    assert exp.commutator(exp.symbol).value == 0.0
    # any other constant leaves only rounding
    exp = small_experiment(np.full(32, 0.3))
    assert commutator_norm(exp, 2.0).value < 1e-15


def test_empty_band_breaks_down_without_division():
    # phi_N vanishes on the whole symbol: the first Lanczos step has beta 0
    exp = small_experiment(np.linspace(-1.0, 1.0, 32), ns=(1,))
    run = commutator_norm(exp, 1e3)
    assert run.value == 0.0 and run.residual == 0.0
    assert run.converged and run.iterations == 1


def test_identity_multiplier_is_vacuous():
    fit = scaling_fit(small_experiment(np.ones(32)))
    assert fit.vacuous
    assert fit.slope is None
    assert fit.norms == (0.0, 0.0, 0.0)
    assert fit.crude_ok and fit.bounds_ok


def test_fit_needs_five_scales():
    exp = small_experiment(np.linspace(-1.0, 1.0, 32), ns=(1, 2))
    with pytest.raises(ValueError, match="at least 5"):
        scaling_fit(exp)


def test_momentum_pair_decay():
    exp = momentum_pair(make_grid(1, 6.0, 512), ns=(4, 8, 16, 32, 64))
    fit = scaling_fit(exp)
    assert not fit.vacuous
    assert np.all(np.diff(fit.norms) < 0.0)
    # short-scale twin; the asymptotic rate needs the full-size pair
    assert fit.slope < -0.4
    assert fit.bounds_ok and fit.crude_ok
    assert fit.m_ab > 0.0 and fit.c_hat > 0.0
    for v, bd in zip(fit.norms, fit.bounds):
        assert v <= bd * (1.0 + 1e-12)


def test_momentum_pair_band_cap():
    with pytest.raises(ValueError, match="spectral radius"):
        momentum_pair(make_grid(1, 6.0, 256), ns=(4, 8, 16, 32, 64))


def test_derivative_bump_scaling():
    d = derivative_bump_scaling(ns=(8, 16, 32, 64), samples=1 << 13)
    # chain rule makes these exact, quadrature error cancels in the ratios
    assert d.exponent_l2 == pytest.approx(-0.5, abs=1e-6)
    assert d.exponent_grad == pytest.approx(-1.5, abs=1e-6)
    assert d.exponent_proxy == pytest.approx(-1.0, abs=1e-6)
    assert d.proxy_under_envelope
    assert np.all(np.diff(d.l2) < 0.0)
    assert np.all(np.diff(d.proxy) < 0.0)


def run_small_pair(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_PAIR), encoding="utf-8")
    out = tmp_path / "out"
    code = cli.run("commutator", str(path), str(out))
    report = json.loads((out / "report.json").read_text())
    return code, report, {v["name"]: v for v in report["verdicts"]}


def test_runner_certifies_every_norm(tmp_path):
    code, report, verdicts = run_small_pair(tmp_path)
    assert code == 0
    res = report["results"]
    assert len(res["lanczos_iterations"]["norms"]) == 5
    assert res["lanczos_iterations"]["m_ab"] > 0
    worst = max(res["lanczos_residual"]["norms"] + [res["lanczos_residual"]["m_ab"]])
    assert verdicts["lanczos_residual"]["measured"] == worst <= 1e-13
    assert verdicts["lanczos_residual"]["threshold"] == 1e-10


def test_capped_lanczos_fails_the_residual_verdict(tmp_path, monkeypatch):
    monkeypatch.setattr(commutator, "hermitian_operator_norm",
                        functools.partial(estimate.hermitian_operator_norm,
                                          max_iter=2))
    code, report, verdicts = run_small_pair(tmp_path)
    assert code == 2
    assert verdicts["lanczos_residual"]["pass"] is False
    assert report["results"]["lanczos_iterations"]["norms"] == [2] * 5


def test_runner_assembles_no_dense_operator(tmp_path, monkeypatch):
    # only the Lanczos tridiagonal eigenproblem may reach eigh
    points = SMALL_PAIR["parameters"]["points"]

    def guarded(kernel):
        def call(a, *args, **kwargs):
            if max(np.shape(a)) >= points:
                raise AssertionError(f"{kernel.__name__} on {np.shape(a)}")
            return kernel(a, *args, **kwargs)
        return call

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, guarded(getattr(np.linalg, name)))
    with pytest.raises(AssertionError):
        np.linalg.svd(np.eye(points))
    code, _, _ = run_small_pair(tmp_path)
    assert code == 0
