"""Lanczos norms (directly and through the Gram operator) and log-log
fitting against direct linear algebra."""

import numpy as np
import pytest

from obslab.estimate import (LogLogFit, PowerResult, fit_or_nan,
                             gram_operator_norm, hermitian_operator_norm,
                             loglog_fit, probe_vector)


def test_probe_vector_is_deterministic_and_unit():
    a = probe_vector(64, seed=123)
    b = probe_vector(64, seed=123)
    np.testing.assert_array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0)
    assert not np.array_equal(a, probe_vector(64, seed=124))


def test_power_iteration_matches_svd():
    rng = np.random.default_rng(42)
    k = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
    top = np.linalg.svd(k, compute_uv=False)[0]
    res = gram_operator_norm(lambda v: k.conj().T @ (k @ v), 48)
    assert res.converged
    assert res.value == pytest.approx(top, rel=1e-8)


def test_power_iteration_zero_operator_short_circuits():
    res = gram_operator_norm(lambda v: np.zeros_like(v), 32)
    assert res.value == 0.0 and res.converged and res.iterations == 1


def test_lanczos_matches_eigvalsh():
    rng = np.random.default_rng(8)
    k = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    h = 0.5 * (k + k.conj().T)
    top = np.abs(np.linalg.eigvalsh(h)).max()
    res = hermitian_operator_norm(lambda v: h @ v, 64)
    assert res.converged and res.residual <= 1e-13
    assert res.iterations <= 64
    assert res.value == pytest.approx(top, rel=1e-12)
    # a negative extreme eigenvalue counts by its modulus
    res = hermitian_operator_norm(lambda v: -(h @ h) @ v, 64)
    assert res.value == pytest.approx(top**2, rel=1e-12)


def test_lanczos_zero_operator_breaks_down_cleanly():
    res = hermitian_operator_norm(lambda v: np.zeros_like(v), 16)
    assert res == PowerResult(0.0, 1, 0.0, True)


def test_lanczos_reports_its_cap():
    d = np.linspace(-1.0, 2.0, 200)
    res = hermitian_operator_norm(lambda v: d * v, 200, max_iter=3)
    assert not res.converged
    assert res.iterations == 3
    assert res.residual > 1e-13
    assert 0.0 < res.value <= 2.0


def test_loglog_fit_recovers_exact_power_law():
    t = np.linspace(2.0, 50.0, 20)
    fit = loglog_fit(t, 3.5 * t**-2.75)
    assert isinstance(fit, LogLogFit)
    assert fit.slope == pytest.approx(-2.75, abs=1e-12)
    assert np.exp(fit.intercept) == pytest.approx(3.5, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_loglog_fit_discards_head_and_floor():
    t = np.linspace(1.0, 10.0, 10)
    v = t**-3.0
    v[0] = 100.0            # transient head point, excluded by head_fraction
    v[-1] = 1e-30           # numerical dust below the floor
    fit = loglog_fit(t, v, head_fraction=0.2, floor=1e-20)
    assert fit.slope == pytest.approx(-3.0, abs=1e-12)
    assert fit.times[0] > t[1] - 1e-12
    assert fit.times[-1] < t[-1]


def test_loglog_fit_needs_three_points():
    with pytest.raises(ValueError):
        loglog_fit([1.0, 2.0, 3.0], [0.0, 0.0, 1.0], head_fraction=0.0)


def test_fit_or_nan_reads_nan_where_loglog_fit_raises():
    fit = fit_or_nan([1.0, 2.0, 3.0], [0.0, 0.0, 1.0], head_fraction=0.0)
    assert np.isnan([fit.slope, fit.intercept, fit.r_squared]).all()
    assert fit.times.size == fit.values.size == 0
    t = np.linspace(1.0, 10.0, 12)
    assert fit_or_nan(t, t**-2.0).slope == loglog_fit(t, t**-2.0).slope
