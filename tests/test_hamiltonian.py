"""Hamiltonian assembly, potentials and the virial check."""

import math

import numpy as np
import pytest

from obslab.grid import (Field, axis_coordinates, field_from_function, l2_norm,
                         make_grid, reflection_index)
from obslab.hamiltonian import (HamiltonianSpec, PotentialSpec, _circulant,
                                dense_matrix, dilation_generator,
                                gaussian_potential, kinetic_symbol,
                                min_virial, apply_h)


def ball_potential(amplitude, radius):
    """amplitude times the indicator of the closed ball |x| <= radius."""
    return PotentialSpec(lambda *axes: amplitude * (
        sum(a**2 for a in axes) <= radius**2).astype(float))


def test_constructor_validation():
    g = make_grid(1, 8.0, 64)
    with pytest.raises(ValueError):
        HamiltonianSpec(g, "banana")
    with pytest.raises(ValueError):
        HamiltonianSpec.fractional(g, 0.5)
    with pytest.raises(ValueError):
        HamiltonianSpec(g, "free", s=3.0)     # exponent only for fractional
    with pytest.raises(ValueError):
        HamiltonianSpec(g, "potential")
    with pytest.raises(ValueError):
        HamiltonianSpec(g, "free", convention="sideways")


def test_kinetic_symbol_free_and_fractional():
    g = make_grid(1, 8.0, 64)
    xi = 2 * math.pi * np.fft.fftfreq(64, g.spacing)
    np.testing.assert_allclose(kinetic_symbol(HamiltonianSpec.free(g)), xi**2)
    np.testing.assert_allclose(
        kinetic_symbol(HamiltonianSpec.fractional(g, 1.0)), np.abs(xi))
    # half convention halves the symbol
    np.testing.assert_allclose(
        kinetic_symbol(HamiltonianSpec.free(g, convention="half")), xi**2 / 2)


def test_scaling_exponent_follows_kind():
    g = make_grid(1, 8.0, 64)
    assert HamiltonianSpec.free(g).s == 2.0
    assert HamiltonianSpec.fractional(g, 1.0).s == 1.0
    assert HamiltonianSpec.fractional(g, 3.0).s == 3.0
    assert HamiltonianSpec.free(g).is_multiplier
    assert not HamiltonianSpec.with_potential(g, gaussian_potential(0.0)).is_multiplier


def test_apply_h_matches_dense_matrix():
    rng = np.random.default_rng(5)
    for g in (make_grid(1, 8.0, 128), make_grid(2, 4.0, 16)):
        f = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        for spec in (HamiltonianSpec.free(g),
                     HamiltonianSpec.fractional(g, 1.5),
                     HamiltonianSpec.with_potential(g, gaussian_potential(0.7))):
            m = dense_matrix(spec)
            assert m.dtype == np.float64
            assert np.array_equal(m, m.T)
            np.testing.assert_allclose(m @ f.values.ravel(),
                                       apply_h(spec, f).values.ravel(), atol=1e-10)


def test_dense_matrix_rejects_a_symbol_that_is_not_even(monkeypatch):
    # an odd part in the symbol makes the convolution kernel complex
    import obslab.hamiltonian as hamiltonian
    g = make_grid(1, 8.0, 64)
    xi = 2 * math.pi * np.fft.fftfreq(64, g.spacing)
    monkeypatch.setattr(hamiltonian, "kinetic_symbol", lambda spec: xi**2 + xi)
    with pytest.raises(ValueError, match="not even"):
        dense_matrix(HamiltonianSpec.free(g))


def test_min_virial_reads_the_sign_of_the_potential():
    def virial(grid, potential):
        return min_virial(HamiltonianSpec.with_potential(grid, potential))

    # repulsive potentials read exactly 0, the value at the origin
    g = make_grid(1, 8.0, 256)
    for pot in (gaussian_potential(0.5), ball_potential(1.0, 1.0)):
        assert virial(g, pot) == 0.0
    assert virial(make_grid(2, 4.0, 64), gaussian_potential(0.5)) == 0.0
    # attractive ones: -x.grad V = -2 a |x|^2 exp(-|x|^2) has its minimum
    # 2a/e at |x| = 1; the ball's jump is one difference quotient, x / (2h)
    assert virial(g, gaussian_potential(-0.5)) == pytest.approx(-1 / math.e, rel=2e-3)
    assert virial(make_grid(2, 4.0, 64), gaussian_potential(-0.5)) < -0.36
    assert virial(make_grid(1, 640.0, 2048), gaussian_potential(-0.25)) \
        == pytest.approx(-0.1617, abs=1e-4)
    assert virial(make_grid(1, 32.0, 1024), ball_potential(-1.0, 1.0)) == -8.5
    # kinds without a potential have nothing to measure
    assert min_virial(HamiltonianSpec.free(g)) == 0.0


def test_dilation_generator_is_hermitian_with_symmetric_spectrum():
    g = make_grid(1, 8.0, 256)
    a = dilation_generator(g)
    # exactly Hermitian, and exactly even under x -> -x (the seam x = -L,
    # its own mirror, carries x = 0)
    assert (a == a.conj().T).all()
    r = reflection_index(g)
    assert (a[np.ix_(r, r)] == a).all()
    assert (a.real == 0).all()          # i times a real skew matrix
    w = np.linalg.eigvalsh(a)
    # generator of dilations anticommutes with parity: spectrum is even
    np.testing.assert_allclose(np.sort(w), np.sort(-w), atol=1e-9)


def test_circulant_kernel_is_exactly_even_or_odd():
    # C[x, y] = k[(x - y) mod shape], with k symmetrized to the given parity
    rng = np.random.default_rng(3)
    for g in (make_grid(1, 8.0, 16), make_grid(2, 8.0, 8)):
        r = reflection_index(g)
        k = rng.standard_normal(g.shape)
        point = np.array(np.unravel_index(np.arange(g.dofs), g.shape))
        shift = np.ravel_multi_index(
            (point[:, :, None] - point[:, None, :]) % g.points_per_axis, g.shape)
        for parity in (1.0, -1.0):
            c = _circulant(k, g, parity)
            kernel = c[:, 0]                  # k[x - 0]
            assert (kernel == 0.5 * (k.ravel() + parity * k.ravel()[r])).all()
            assert (kernel[r] == parity * kernel).all()
            assert (c == kernel[shift]).all()
            assert (c == parity * c.T).all()


def test_dilation_generator_guards():
    with pytest.raises(ValueError):
        dilation_generator(make_grid(2, 8.0, 64))
    with pytest.raises(ValueError):
        dilation_generator(make_grid(1, 8.0, 8192))


def test_dense_matrix_respects_dof_cap():
    with pytest.raises(ValueError):
        dense_matrix(HamiltonianSpec.free(make_grid(1, 8.0, 8192)))


def test_half_convention_halves_free_evolution_speed():
    # e^{-itH_full} equals e^{-i(2t)H_half} for multiplier kinds
    g = make_grid(1, 16.0, 256)
    full = HamiltonianSpec.free(g)
    half = HamiltonianSpec.free(g, convention="half")
    f = field_from_function(g, lambda x: np.exp(-x**2 + 0.5j * x))
    from obslab.propagate import PropagatorPlan, evolve
    a = evolve(PropagatorPlan(full), f, 1.0)
    b = evolve(PropagatorPlan(half), f, 2.0)
    assert l2_norm(Field(g, a.values - b.values)) <= 1e-12
