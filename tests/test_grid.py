"""Grid, fields, masks, Fourier round trips."""

import math

import numpy as np
import pytest

from obslab.grid import (Field, UnderResolvedError, axis_coordinates,
                         axis_frequencies, ball_weights, boundary_shell_mass,
                         concentrate, exterior_weights, field_from_function,
                         inner, l2_norm, make_grid, mass_in_region,
                         support_radius)


def test_axis_coordinates_ascend_from_minus_l():
    g = make_grid(1, 8.0, 16)
    x = axis_coordinates(g)
    assert x[0] == -8.0
    assert x[-1] == 8.0 - g.spacing
    np.testing.assert_allclose(np.diff(x), g.spacing)


def test_grid_shape_and_volume():
    g = make_grid(2, 4.0, 32)
    assert g.shape == (32, 32)
    assert g.dofs == 1024
    assert g.cell_volume == pytest.approx((8.0 / 32) ** 2)


def test_make_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_grid(0, 4.0, 32)
    with pytest.raises(ValueError):
        make_grid(1, -1.0, 32)
    with pytest.raises(ValueError):
        make_grid(1, 4.0, 4)       # too few points
    with pytest.raises(ValueError):
        make_grid(1, 4.0, 48)      # not a power of two
    with pytest.raises(ValueError):
        make_grid(2, 4.0, 4096)    # over the dof budget


def test_frequencies_match_fft_layout():
    g = make_grid(1, 4.0, 64)
    xi = axis_frequencies(g)
    np.testing.assert_allclose(xi, 2 * math.pi * np.fft.fftfreq(64, g.spacing))


def test_l2_norm_of_indicator():
    # a flat field of ones integrates to the box volume
    g = make_grid(1, 4.0, 128)
    f = Field(g, np.ones(g.shape, dtype=complex))
    assert l2_norm(f) == pytest.approx(math.sqrt(8.0))


def test_inner_product_conjugate_symmetry():
    g = make_grid(1, 4.0, 64)
    rng = np.random.default_rng(7)
    f = Field(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    h = Field(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    assert inner(f, h) == pytest.approx(np.conj(inner(h, f)))
    assert inner(f, f).real == pytest.approx(l2_norm(f) ** 2)


def test_gaussian_transform_has_reciprocal_width():
    # hat of a width-w Gaussian is a width-1/w Gaussian; compare log-profiles
    g = make_grid(1, 16.0, 512)
    w = 1.3
    f = field_from_function(g, lambda x: np.exp(-x**2 / (2 * w**2)))
    fh = np.abs(np.fft.fft(f.values))
    xi = axis_frequencies(g)
    sel = np.abs(xi) < 3.0
    got = np.log(fh[sel] / fh[0])
    np.testing.assert_allclose(got, -(w * xi[sel]) ** 2 / 2.0, atol=1e-8)


def test_interior_mask_is_closed_exterior_is_strict():
    # spacing 0.125: x = (1, 0, ...) is a lattice point on the sphere |x| = 1
    for g in (make_grid(1, 4.0, 64), make_grid(2, 4.0, 64)):
        x = axis_coordinates(g)
        on_sphere = (x.searchsorted(1.0),) + (x.searchsorted(0.0),) * (g.dim - 1)
        assert x[on_sphere[0]] == 1.0
        inside = ball_weights(g, 1.0)
        outside = exterior_weights(g, 1.0)
        cone = ball_weights(g, 1.0, closed=False)
        assert inside.dtype == outside.dtype == cone.dtype == np.float64
        assert inside[on_sphere] == 1.0
        assert outside[on_sphere] == 0.0 and cone[on_sphere] == 0.0
        np.testing.assert_array_equal(inside + outside, np.ones(g.shape))
        # the cone differs from the closed ball exactly on the sphere
        assert (inside - cone).sum() == (2 if g.dim == 1 else 4)
        # radius 0: the closed ball is the origin, the open one is empty
        assert ball_weights(g, 0.0).sum() == 1.0
        assert exterior_weights(g, 0.0, closed=False).all()
    with pytest.raises(ValueError, match="nonnegative"):
        ball_weights(g, -1.0)


def test_mass_in_region_splits_total():
    g = make_grid(2, 4.0, 32)
    rng = np.random.default_rng(11)
    f = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    total = l2_norm(f) ** 2
    lo = mass_in_region(f, ball_weights(g, 1.7))
    hi = mass_in_region(f, exterior_weights(g, 1.7))
    assert lo + hi == pytest.approx(total, rel=1e-12)


def test_boundary_shell_mass_sees_edge_content():
    g = make_grid(1, 8.0, 256)
    centered = field_from_function(g, lambda x: np.exp(-x**2))
    edged = field_from_function(g, lambda x: np.exp(-(np.abs(x) - 7.9) ** 2))
    assert boundary_shell_mass(centered) < 1e-20
    assert boundary_shell_mass(edged) > 0.5 * l2_norm(edged) ** 2


def test_support_radius_of_truncated_bump():
    g = make_grid(1, 8.0, 512)
    f = field_from_function(g, lambda x: np.where(np.abs(x) <= 2.0, 1.0, 0.0))
    assert abs(support_radius(f) - 2.0) <= g.spacing


def test_concentrate_is_isometric_and_shrinks_support():
    g = make_grid(1, 8.0, 512)
    f = field_from_function(g, lambda x: np.exp(-x**2) * x)
    f = Field(g, f.values / l2_norm(f))
    for k in (2, 4):
        fk = concentrate(f, k)
        assert l2_norm(fk) == pytest.approx(1.0, abs=1e-12)
        assert support_radius(fk) <= support_radius(f) / k + 2 * g.spacing


def test_concentrate_guards_resolution_and_arguments():
    g = make_grid(1, 8.0, 512)
    f = field_from_function(g, lambda x: np.exp(-x**2) * x)
    with pytest.raises(UnderResolvedError):
        concentrate(f, 32)
    with pytest.raises(ValueError):
        concentrate(f, 0)
    with pytest.raises(ValueError):
        concentrate(f, 2.0)


def test_field_rejects_wrong_shape():
    g = make_grid(1, 4.0, 64)
    with pytest.raises(ValueError):
        Field(g, np.zeros(32, dtype=complex))
