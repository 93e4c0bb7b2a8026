"""Uncertainty norms, velocity cones, outgoing decay, observability ratios."""

import math

import numpy as np
import pytest

from obslab.estimate import gram_operator_norm
from obslab.grid import Field, axis_coordinates, make_grid
from obslab.hamiltonian import HamiltonianSpec, gaussian_potential
from obslab.inequality import (enss_decay, factored_norm, frequency_band_state,
                               group_velocity_floor, minimal_velocity_decay,
                               observability_ratio,
                               sharpness_sequence, uncertainty_norm,
                               uncertainty_norm_dense, uncertainty_scan,
                               window_localized_state)
from obslab import spectral
from obslab.propagate import PropagatorPlan
from obslab.spectral import (Interval, calculus, decompose_dilation,
                             decompose_hamiltonian, project_energy,
                             smooth_step)


def normalized(grid, values):
    v = np.asarray(values, dtype=complex)
    return Field(grid, v / np.sqrt(grid.cell_volume * np.vdot(v, v).real))


@pytest.fixture(scope="module")
def free256():
    return HamiltonianSpec(make_grid(1, 16.0, 256), "free")


# --- group velocity floor ---------------------------------------------------

def test_velocity_floor_full_laplacian():
    spec = HamiltonianSpec(make_grid(1, 8.0, 16), "free")
    assert group_velocity_floor(spec, 1.0) == pytest.approx(2.0, abs=1e-14)
    assert group_velocity_floor(spec, 1.25) == pytest.approx(2.0 * math.sqrt(1.25), abs=1e-14)


def test_velocity_floor_half_convention():
    spec = HamiltonianSpec(make_grid(1, 8.0, 16), "free", convention="half")
    # lambda = |xi|^2 / 2 = theta at xi = sqrt(2 theta), speed = xi there
    assert group_velocity_floor(spec, 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_velocity_floor_fractional():
    g = make_grid(1, 8.0, 16)
    half_wave = HamiltonianSpec(g, "fractional", s=1.0)
    # |xi|^1 moves every frequency at the same speed
    assert group_velocity_floor(half_wave, 0.3) == group_velocity_floor(half_wave, 7.0)
    cubic = HamiltonianSpec(g, "fractional", s=3.0)
    assert group_velocity_floor(cubic, 1.0) == pytest.approx(3.0, abs=1e-14)


def test_velocity_floor_needs_positive_theta():
    spec = HamiltonianSpec(make_grid(1, 8.0, 16), "free")
    with pytest.raises(ValueError):
        group_velocity_floor(spec, 0.0)


# --- uncertainty norms ------------------------------------------------------

def test_power_matches_dense_svd(free256):
    a = uncertainty_norm(free256, 1.0, 1.0)
    b = uncertainty_norm_dense(free256, 1.0, 1.0)
    assert a.iterations > 0 and a.converged and a.residual <= 1e-13
    assert 0.0 < a.value < 1.0
    assert abs(a.value - b) < 1e-6


def test_empty_window_both_routes(free256):
    res = uncertainty_norm(free256, 1.0, -1.0)
    assert res.value == 0.0 and res.iterations == 0      # no Lanczos step
    pot = HamiltonianSpec(free256.grid, "potential",
                          potential=gaussian_potential(1.0))
    assert uncertainty_norm_dense(pot, 1.0, -5.0) == 0.0  # an SVD of no columns would raise


def test_scan_monotone_and_grouped(free256):
    scan = uncertainty_scan(free256, [0.5, 1.0, 2.0], [0.5, 1.0, 2.0])
    assert scan.norms.shape == (3, 3)
    assert np.all(scan.norms > 0.0) and np.all(scan.norms <= 1.0 + 1e-12)
    assert scan.monotone_violations == 0
    assert scan.invariant_exponent == 2.0
    # R sqrt(delta) coincidences, e.g. (0.5, 2.0) with (1.0, 0.5)
    assert any(vals.size >= 2 for _, vals in scan.collapse_groups)
    assert 0.0 <= scan.collapse_spread < 1.0


def test_scan_methods():
    # the scan's SVD oracle needs the dense eigenbasis of a potential
    pot = HamiltonianSpec(make_grid(1, 64.0, 8192), "potential",
                          potential=gaussian_potential(1.0))
    with pytest.raises(ValueError, match="capped at 4096"):
        uncertainty_scan(pot, [0.5, 1.0], [0.5, 1.0])


# --- localized states -------------------------------------------------------

def test_band_state_unit_and_exact(free256):
    psi = frequency_band_state(free256, 1.0, 2.0, 0.3)
    nrm = math.sqrt(free256.grid.cell_volume * np.vdot(psi.values, psi.values).real)
    assert nrm == pytest.approx(1.0, abs=1e-12)
    proj = project_energy(free256, Interval(0.9, 4.1), psi)
    assert np.linalg.norm(proj.values - psi.values) < 1e-12


def test_band_state_rejects_wide_ramp(free256):
    with pytest.raises(ValueError, match="ramp"):
        frequency_band_state(free256, 1.0, 1.5, 0.3)


def test_window_state_multiplier_passthrough(free256):
    got = window_localized_state(free256, Interval(0.9, 4.1),
                                 1.0, 2.0, 0.3, energy_ramp=0.4)
    want = frequency_band_state(free256, 1.0, 2.0, 0.3)
    assert np.array_equal(got.values, want.values)


def test_window_state_dense_exact():
    g = make_grid(1, 16.0, 256)
    spec = HamiltonianSpec(g, "potential", potential=gaussian_potential(0.25))
    window = Interval(1.0, 3.0)
    psi = window_localized_state(spec, window, 1.1, 1.6, 0.2, energy_ramp=0.4)
    nrm = math.sqrt(g.cell_volume * np.vdot(psi.values, psi.values).real)
    assert nrm == pytest.approx(1.0, abs=1e-12)
    proj = project_energy(spec, window, psi)
    assert np.linalg.norm(proj.values - psi.values) < 1e-12
    with pytest.raises(ValueError, match="energy_ramp"):
        window_localized_state(spec, Interval(1.0, 1.7),
                               1.1, 1.6, 0.2, energy_ramp=0.4)


# --- minimal velocity decay -------------------------------------------------

def test_interior_mass_decays():
    spec = HamiltonianSpec(make_grid(1, 64.0, 512), "free")
    plan = PropagatorPlan(spec, "multiplier")
    psi = frequency_band_state(spec, 1.2, 1.6, 0.15)
    ser = minimal_velocity_decay(plan, psi, 0.3, np.linspace(2.0, 8.0, 5),
                                 energy_window=(1.44, 2.56))
    assert np.all(ser.values > 0.0)
    assert np.all(np.diff(ser.values) < 0.0)
    assert ser.fit.slope < -2.0
    assert ser.fit.r_squared > 0.8
    assert ser.wrap_mass < 1e-2
    assert ser.cross_check is not None and ser.cross_check < 1e-6


def test_unlocalized_state_rejected():
    spec = HamiltonianSpec(make_grid(1, 64.0, 512), "free")
    plan = PropagatorPlan(spec, "multiplier")
    x = np.fft.fftshift(np.fft.fftfreq(512)) * 128.0
    gauss = normalized(spec.grid, np.exp(-x**2))
    with pytest.raises(ValueError, match="not localized"):
        minimal_velocity_decay(plan, gauss, 0.3, [2.0, 4.0, 6.0],
                               energy_window=(1.44, 2.56))


def test_zero_velocity_measures_empty_cone():
    spec = HamiltonianSpec(make_grid(1, 64.0, 512), "free")
    plan = PropagatorPlan(spec, "multiplier")
    psi = frequency_band_state(spec, 1.2, 1.6, 0.15)
    # open cone at v = 0 leaves nothing to fit: a NaN fit, not an error
    series = minimal_velocity_decay(plan, psi, 0.0, [2.0, 4.0, 6.0])
    assert (series.values == 0.0).all()
    assert np.isnan([series.fit.slope, series.fit.r_squared]).all()


# --- outgoing (Enss) decay --------------------------------------------------

def test_outgoing_norms_decay():
    # box sized so the seam stays out of reach: 2 sqrt(2) * 12 < gap to seam
    spec = HamiltonianSpec(make_grid(1, 64.0, 512), "free")
    res = enss_decay(spec, [0.0], 0.5, [3.0, 6.0, 9.0, 12.0])
    assert res.mourre_floor == 1.0
    assert res.thresholds == [0.0]
    (ser,) = res.series
    assert np.all(ser.values >= 0.0)
    assert np.all(np.diff(ser.values) < 0.0)
    # short-time slope; the asymptotic rate needs the long-time geometry
    assert ser.fit.slope < -0.2
    assert ser.cross_check <= 1e-10
    assert res.bound_constants[0] > 0.0
    assert res.constant_ratio == pytest.approx(1.0)
    assert res.max_series is not None
    np.testing.assert_allclose(res.max_series.values, ser.values)


def test_exact_outgoing_norms_match_power_iteration():
    # the rank-k factorization against the Lanczos Gram norm of the unfactored
    # chain W chi^-(A) e^{-itH} g(H) chi^+(A) W, one (a, t) at a time
    g = make_grid(1, 32.0, 256)
    spec = HamiltonianSpec(g, "free")
    a_values, v, times = [-5.0, 0.0, 5.0], 0.5, [2.0, 4.0, 6.0, 8.0]
    res = enss_decay(spec, a_values, v, times)
    eig_a = decompose_dilation(g)
    assert decompose_dilation(g) is eig_a          # cached per grid
    assert not eig_a.vectors.flags.writeable
    heig = decompose_hamiltonian(spec)
    lam, alpha = heig.eigenvalues, eig_a.eigenvalues
    box = smooth_step((lam - 1.0) / 0.25) * smooth_step((2.0 - lam) / 0.25)
    r0 = 0.3 * g.half_extent
    w = smooth_step((4.0 * r0 / 3.0 - np.abs(axis_coordinates(g))) / (r0 / 3.0))

    def chain(x, first, middle, last):
        z = heig.apply(middle, eig_a.apply(first, w * x))
        return w * eig_a.apply(last, z)

    for a, ser in zip(a_values, res.series):
        plus = (alpha >= a).astype(float)
        for t, norm in zip(times, ser.values):
            minus = (alpha < a + v * t).astype(float)
            phase = np.exp(-1j * t * lam)
            gram = lambda x: chain(chain(x, plus, phase * box, minus),
                                   minus, np.conj(phase) * box, plus)
            ref = gram_operator_norm(gram, g.dofs)
            assert ref.converged
            assert norm == pytest.approx(ref.value, rel=1e-8)
        assert ser.cross_check <= 1e-10


def _enss_per_pair(spec, a_values, v, times):
    """The (a, t)-at-a-time route: a fresh prefix product F[:, minus] C[minus],
    its own QR and SVD, and the witness through an unbatched chain."""
    g = spec.grid
    eig_a, calc = decompose_dilation(g), calculus(spec)
    lam, alpha = calc.spectrum, eig_a.eigenvalues
    box = smooth_step((lam - 1.0) / 0.25) * smooth_step((2.0 - lam) / 0.25)
    keep = box > 0
    r0 = 0.3 * g.half_extent
    w = smooth_step((4.0 * r0 / 3.0 - np.abs(axis_coordinates(g))) / (r0 / 3.0))
    rows = np.nonzero(w > 0)[0]
    frame = eig_a.vectors[rows] * w[rows, None]
    coupling = eig_a.vectors.conj().T @ calc.columns(keep)
    norms, defects = [], []
    for a in a_values:
        plus = alpha >= a
        q_plus, r_plus = np.linalg.qr(frame[:, plus] @ coupling[plus])
        for t in times:
            minus = alpha < a + v * t
            phase = np.exp(-1j * t * lam) * box
            sigma, x_rows = factored_norm(frame[:, minus] @ coupling[minus],
                                          phase[keep], q_plus, r_plus)
            x = np.zeros(g.dofs, dtype=complex)
            x[rows] = x_rows
            z = calc.apply(phase, eig_a.apply(plus.astype(float), w * x))
            reached = np.linalg.norm(w * eig_a.apply(minus.astype(float), z))
            norms.append(sigma)
            defects.append(abs(reached - sigma) / sigma)
    shape = (len(a_values), len(times))
    return np.reshape(norms, shape), np.reshape(defects, shape)


@pytest.mark.parametrize("kind", ["free", "potential"])
@pytest.mark.parametrize("times", [[2.0, 4.0, 6.0, 8.0], [8.0, 6.0, 4.0, 2.0],
                                   [6.0, 2.0, 8.0, 4.0]],
                         ids=["ascending", "descending", "unsorted"])
def test_stacked_outgoing_norms_match_the_per_pair_route(kind, times):
    g = make_grid(1, 32.0, 256)
    spec = (HamiltonianSpec(g, "free") if kind == "free" else
            HamiltonianSpec.with_potential(g, gaussian_potential(0.25)))
    a_values, v = [-5.0, 0.0, 5.0], 0.5
    res = enss_decay(spec, a_values, v, times)
    norms, defects = _enss_per_pair(spec, a_values, v, times)
    got = np.stack([ser.values for ser in res.series])
    assert (norms > 0).all()
    np.testing.assert_allclose(got, norms, rtol=1e-12, atol=0)
    for ser, oracle in zip(res.series, defects):
        np.testing.assert_array_equal(ser.times, times)
        assert ser.cross_check <= 1e-12 and oracle.max() <= 1e-12


def test_enss_witness_chain_runs_once_per_threshold(monkeypatch):
    # the T witnesses of a threshold go through the chain as one block: three
    # calculus applications (chi^+, e^{-itH} g, chi^-) per a, and one SVD
    # stack per a and parity block
    calls = {"apply": 0, "svd": 0}
    apply, svd = spectral._Calculus.apply, np.linalg.svd

    def counted_apply(self, weights, values):
        calls["apply"] += 1
        return apply(self, weights, values)

    def counted_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(spectral._Calculus, "apply", counted_apply)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    spec = HamiltonianSpec(make_grid(1, 32.0, 256), "free")
    seen = []
    for times in (np.linspace(2.0, 8.0, 3), np.linspace(2.0, 8.0, 9)):
        calls.update(apply=0, svd=0)
        enss_decay(spec, [-5.0, 0.0, 5.0], 0.5, times)
        seen.append(dict(calls))
    assert seen == [{"apply": 9, "svd": 6}] * 2


def _enss_dense_operator(spec, a, v, t, window, interior_fraction):
    """The n x n matrix W chi^-(A - a - v t) e^{-itH} g(H) chi^+(A - a) W,
    assembled from the full eigenbases, with enss_decay's default ramp."""
    g = spec.grid
    eig_a = decompose_dilation(g)
    heig = decompose_hamiltonian(spec)
    lam, alpha, va, vh = heig.eigenvalues, eig_a.eigenvalues, eig_a.vectors, heig.vectors
    lo, hi = window
    box = smooth_step((lam - lo) / 0.25) * smooth_step((hi - lam) / 0.25)
    r0 = interior_fraction * g.half_extent
    w = smooth_step((4.0 * r0 / 3.0 - np.abs(axis_coordinates(g))) / (r0 / 3.0))
    plus, minus = va[:, alpha >= a], va[:, alpha < a + v * t]
    ug = (vh * (np.exp(-1j * t * lam) * box)) @ vh.T
    k = minus @ (minus.conj().T @ ug @ plus) @ plus.conj().T
    return w[:, None] * k * w[None, :]


@pytest.mark.parametrize("kind, window, interior_fraction", [
    ("free", (1.0, 2.0), 0.3), ("potential", (1.0, 2.0), 0.3),
    ("free", (39.0, 40.0), 0.3),    # the Nyquist mode alone: no odd block
    # more window eigenvalues per block than rows inside W
    ("free", (1.0, 30.0), 0.1), ("potential", (1.0, 30.0), 0.1),
    ("free", (1.0, 30.0), 0.01),    # W holds x = 0 alone: no odd rows
], ids=["free", "potential", "nyquist", "free-wide", "potential-wide",
        "one-row"])
def test_outgoing_norms_match_the_dense_operator(kind, window, interior_fraction):
    # the parity split against the 2-norm of the assembled operator
    g = make_grid(1, 32.0, 128)
    spec = (HamiltonianSpec(g, "free") if kind == "free" else
            HamiltonianSpec.with_potential(g, gaussian_potential(0.25)))
    a_values, v, times = [-2.0, 0.0, 2.0], 0.5, [2.0, 4.0, 6.0]
    res = enss_decay(spec, a_values, v, times, window=window,
                     interior_fraction=interior_fraction)
    for a, ser in zip(a_values, res.series):
        dense = [np.linalg.norm(_enss_dense_operator(spec, a, v, t, window,
                                                     interior_fraction), 2)
                 for t in times]
        assert min(dense) > 1e-3
        np.testing.assert_allclose(ser.values, dense, rtol=1e-10, atol=0)
        assert ser.cross_check <= 1e-12


def test_a_flipped_parity_label_fails_the_witness(monkeypatch):
    # the witness goes through the unsplit chain: one A eigenvector filed
    # under the wrong parity makes the split norm disagree with it
    g = make_grid(1, 32.0, 256)
    spec = HamiltonianSpec(g, "free")
    eig_a = decompose_dilation(g)
    flipped = eig_a.parity.copy()
    j = int(np.searchsorted(eig_a.eigenvalues, 1.0))
    flipped[j] = -flipped[j]
    args = ([-5.0, 0.0, 5.0], 0.5, [2.0, 4.0, 6.0, 8.0])
    assert max(s.cross_check for s in enss_decay(spec, *args).series) <= 1e-12
    monkeypatch.setattr(eig_a, "parity", flipped)
    assert max(s.cross_check for s in enss_decay(spec, *args).series) > 1e-8


def test_factored_norm_of_empty_side_is_zero():
    rng = np.random.default_rng(3)
    rows, k = 12, 5
    full = rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k))
    phi = np.exp(1j * rng.uniform(0, 2 * np.pi, k)) * rng.uniform(0.1, 1.0, k)
    q_plus, r_plus = np.linalg.qr(full)
    sigma, x = factored_norm(full, phi, q_plus, r_plus)
    dense = (full * phi) @ full.conj().T
    assert sigma == pytest.approx(np.linalg.norm(dense, 2), rel=1e-12)
    assert np.linalg.norm(dense @ x) == pytest.approx(sigma, rel=1e-12)
    # an empty chi^- side: F[:, minus] C[minus] with no columns is zero
    empty = np.zeros((rows, 0)) @ np.zeros((0, k))
    assert factored_norm(empty, phi, q_plus, r_plus)[0] == 0.0
    # an empty chi^+ side
    q_zero, r_zero = np.linalg.qr(empty.astype(complex))
    sigma, x = factored_norm(full, phi, q_zero, r_zero)
    assert sigma == 0.0 and np.isfinite(x).all()


def test_outgoing_guards():
    spec = HamiltonianSpec(make_grid(1, 32.0, 256), "free")
    with pytest.raises(ValueError, match="dense-capable"):
        enss_decay(HamiltonianSpec(make_grid(2, 8.0, 16), "free"),
                   [0.0], 0.5, [4.0, 8.0])
    with pytest.raises(ValueError, match="ramp"):
        enss_decay(spec, [0.0], 0.5, [4.0, 8.0], window=(1.0, 2.0), ramp=0.6)
    with pytest.raises(ValueError, match="v must"):
        enss_decay(spec, [0.0], 2.0, [4.0, 8.0])


# --- two-time observability -------------------------------------------------

def test_observability_bookkeeping():
    g = make_grid(1, 64.0, 512)
    spec = HamiltonianSpec(g, "free")
    plan = PropagatorPlan(spec, "multiplier")
    x = np.fft.fftshift(np.fft.fftfreq(512)) * 128.0
    u0 = normalized(g, np.exp(1.25j * x) * np.exp(-x**2 / 8.0))
    res = observability_ratio(plan, u0, 1.0, 0.25, 10.25, 1.0)
    assert res.total_mass == pytest.approx(1.0, abs=1e-10)
    assert math.isfinite(res.ratio) and res.ratio > 0.0
    assert res.second_radius == pytest.approx(10.0)   # sigma * gap / R^(p-1)
    assert res.exterior_first <= res.total_mass + 1e-12
    assert res.reduction_deviation < 1e-8
    assert res.wrap_mass < 1e-4
    assert res.cross_check is not None and res.cross_check < 1e-6


def test_observability_fractional_radius_rule():
    g = make_grid(1, 64.0, 512)
    spec = HamiltonianSpec(g, "fractional", s=1.0)
    plan = PropagatorPlan(spec, "multiplier")
    x = np.fft.fftshift(np.fft.fftfreq(512)) * 128.0
    u0 = normalized(g, np.exp(3.0j * x) * np.exp(-x**2 / 8.0))
    res = observability_ratio(plan, u0, 1.0, 0.5, 10.5, 0.5)
    # p = 1 makes the second radius sigma * gap, independent of R
    assert res.second_radius == pytest.approx(5.0)
    assert res.reduction_deviation < 1e-8


def test_observability_window_flag_and_ordering():
    g = make_grid(1, 64.0, 512)
    spec = HamiltonianSpec(g, "free")
    plan = PropagatorPlan(spec, "multiplier")
    x = np.fft.fftshift(np.fft.fftfreq(512)) * 128.0
    u0 = normalized(g, np.exp(1.25j * x) * np.exp(-x**2 / 8.0))
    res = observability_ratio(plan, u0, 1.0, 0.0, 10.0, 1.0)
    assert res.reduction_deviation == 0.0   # nothing to reduce at t1 = 0
    with pytest.raises(ValueError, match="t2 > t1"):
        observability_ratio(plan, u0, 1.0, 2.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="t2 > t1"):
        observability_ratio(plan, u0, 1.0, -1.0, 2.0, 1.0)


# --- sharpness of the two-ball geometry -------------------------------------

def test_concentration_shrinks_both_columns():
    g = make_grid(1, 128.0, 16384)
    spec = HamiltonianSpec(g, "free")
    plan = PropagatorPlan(spec, "multiplier")
    x = np.fft.fftshift(np.fft.fftfreq(16384)) * 256.0
    f = normalized(g, x * np.exp(-16.0 * x**2)
                   * smooth_step((0.9 - np.abs(x)) / 0.1))
    tab = sharpness_sequence(plan, f, [1, 2, 4], 0.0625, 0.5, 0.25)
    assert tab.ks == [1, 2, 4]
    assert tab.both_decreasing
    assert tab.final_fraction_exterior < 0.5
    assert tab.final_fraction_interior < 0.1
    assert tab.wrap_mass < 1e-10


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_flat_columns_are_not_decreasing():
    g = make_grid(1, 128.0, 16384)
    spec = HamiltonianSpec(g, "free")
    plan = PropagatorPlan(spec, "multiplier")
    x = np.fft.fftshift(np.fft.fftfreq(16384)) * 256.0
    f = normalized(g, x * np.exp(-16.0 * x**2)
                   * smooth_step((0.9 - np.abs(x)) / 0.1))
    # r1 beyond the box: exterior masses identically zero, strict decrease fails
    tab = sharpness_sequence(plan, f, [1, 2], 200.0, 0.5, 0.25)
    assert np.all(tab.exterior_masses == 0.0)
    assert not tab.both_decreasing
