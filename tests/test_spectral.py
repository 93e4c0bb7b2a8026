"""Smooth cutoffs, spectral windows, projector calculus."""

import numpy as np
import pytest

from obslab import hamiltonian, spectral
from obslab.grid import (Field, axis_coordinates, l2_norm, make_grid,
                         parity_blocks, reflection_index)
from obslab.hamiltonian import (HamiltonianSpec, PotentialSpec, dense_matrix,
                                dilation_generator, gaussian_potential)
from obslab.spectral import (EigenDecomposition, FourierCalculus, Interval,
                             calculus, decompose_dilation,
                             decompose_hamiltonian, dense_calculus,
                             project_energy, smooth_step)


def test_smooth_step_profile():
    u = np.linspace(-1, 2, 301)
    s = smooth_step(u)
    assert (s[u <= 0] == 0).all()
    assert (s[u >= 1] == 1).all()
    mid = s[(u > 0) & (u < 1)]
    assert (np.diff(mid) >= 0).all()
    core = s[(u >= 0.1) & (u <= 0.9)]
    assert (np.diff(core) > 0).all()
    assert 0 < mid.min() and mid.max() <= 1
    assert smooth_step(np.array([0.5]))[0] == pytest.approx(0.5)


def test_smooth_step_flat_to_all_orders_at_ends():
    # derivatives vanish at the ends: values hug 0/1 faster than any power,
    # to the point of underflowing well before the corner
    assert smooth_step(np.array([1e-2]))[0] < 3 * np.exp(-100.0)
    assert smooth_step(np.array([1e-3]))[0] == 0.0
    assert smooth_step(np.array([1 - 1e-3]))[0] == 1.0


@pytest.mark.parametrize("dim, points", [(1, 64), (2, 16)])
def test_closed_window_includes_both_ends(dim, points):
    w = Interval(1.0, 2.0)
    assert w.contains(1.0) and w.contains(2.0)
    assert not w.contains(np.nextafter(2.0, 3.0))
    assert not w.contains(np.nextafter(1.0, 0.0))
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    # eigenvectors at both end eigenvalues pass the projector unchanged, the
    # next one past either end is removed, for both calculi
    g = make_grid(dim, 4.0, points)
    for spec in (HamiltonianSpec.free(g),
                 HamiltonianSpec.with_potential(g, gaussian_potential(1.0))):
        calc = calculus(spec)
        levels = np.unique(calc.spectrum)
        project = calc.projector(Interval(levels[2], levels[5]))
        for level, kept in ((levels[2], True), (levels[5], True),
                            (levels[1], False), (levels[6], False)):
            for col in calc.columns(calc.spectrum == level).T:
                got = project(col.reshape(g.shape)).ravel()
                np.testing.assert_allclose(got, col if kept else 0.0,
                                           atol=1e-10)


def test_projector_is_idempotent_and_hermitian():
    g = make_grid(1, 8.0, 256)
    spec = HamiltonianSpec.free(g)
    rng = np.random.default_rng(2)
    f = Field(g, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    h = Field(g, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    w = Interval(0.5, 4.0)
    pf = project_energy(spec, w, f)
    ppf = project_energy(spec, w, pf)
    np.testing.assert_allclose(ppf.values, pf.values, atol=1e-13)
    lhs = np.vdot(pf.values, h.values)
    rhs = np.vdot(f.values, project_energy(spec, w, h).values)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_multiplier_and_dense_routes_agree():
    # same operator, one spec diagonal in frequency, one forced dense
    g = make_grid(1, 8.0, 128)
    fourier = calculus(HamiltonianSpec.free(g))
    dense = calculus(HamiltonianSpec.with_potential(g, gaussian_potential(0.0)))
    assert isinstance(fourier, FourierCalculus)
    assert isinstance(dense, EigenDecomposition)
    rng = np.random.default_rng(9)
    f = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    for fn in (lambda lam: np.exp(-lam),
               lambda lam: smooth_step((6.0 - lam) / 2.0)):
        a = fourier.apply(fn(fourier.spectrum), f)
        b = dense.apply(fn(dense.spectrum), f)
        assert l2_norm(Field(g, a - b)) <= 1e-8


def test_eigendecomposition_residual_and_indices():
    g = make_grid(1, 8.0, 128)
    spec = HamiltonianSpec.with_potential(g, gaussian_potential(0.0))
    eig = decompose_hamiltonian(spec)
    assert eig.residual(dense_matrix(spec)) <= 1e-12
    assert (np.diff(eig.eigenvalues) >= 0).all()
    idx = np.flatnonzero(Interval(0.0, 1.0).contains(eig.eigenvalues))
    assert idx.size and (np.diff(idx) == 1).all()      # one column range
    assert ((eig.eigenvalues[idx] >= 0) & (eig.eigenvalues[idx] <= 1)).all()


def test_eigen_projector_subset_form_matches_mask():
    # V_I V_I^H skips the columns outside I; it must equal the weighted apply
    g = make_grid(1, 8.0, 128)
    eig = calculus(HamiltonianSpec.with_potential(g, gaussian_potential(1.0)))
    w = Interval(0.5, 4.0)
    rng = np.random.default_rng(6)
    f = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    mask = w.contains(eig.spectrum).astype(float)
    np.testing.assert_allclose(eig.projector(w)(f), eig.apply(mask, f),
                               atol=1e-12)


@pytest.mark.parametrize("dim, points", [(1, 64), (2, 16)])
def test_columns_span_the_window_projector(dim, points):
    # V_I V_I^H from columns(mask) is the projector chi_I(H), for the
    # Fourier and the dense calculus alike
    g = make_grid(dim, 4.0, points)
    w = Interval(0.5, 6.0)
    for spec in (HamiltonianSpec.free(g),
                 HamiltonianSpec.with_potential(g, gaussian_potential(1.0))):
        calc = calculus(spec)
        mask = w.contains(calc.spectrum)
        k = int(mask.sum())
        cols = calc.columns(mask)
        assert 0 < k < g.dofs and cols.shape == (g.dofs, k)
        np.testing.assert_allclose(cols.conj().T @ cols, np.eye(k), atol=1e-12)
        np.testing.assert_allclose(dense_matrix(spec) @ cols,
                                   cols * calc.spectrum[mask], atol=1e-10)
        project = calc.projector(w)
        dense = np.stack([project(e).ravel() for e in np.eye(g.dofs)], axis=1)
        np.testing.assert_allclose(cols @ cols.conj().T, dense, atol=1e-12)


def test_dilation_projectors_split_the_identity():
    # chi^+/-(A - a) as enss_decay builds them: masks in the A eigenbasis
    g = make_grid(1, 8.0, 256)
    eig = decompose_dilation(g)
    hits = decompose_dilation.cache_info().hits
    assert decompose_dilation(g) is eig
    assert decompose_dilation.cache_info().hits == hits + 1
    assert not eig.eigenvalues.flags.writeable
    assert not eig.vectors.flags.writeable
    # one null mode per odd-sized parity block, pinned at exactly 0.0
    assert np.count_nonzero(eig.eigenvalues == 0.0) == 2
    assert eig.residual(dilation_generator(g)) <= 1e-12
    project = eig.apply
    plus = (eig.eigenvalues >= 0.7).astype(float)
    minus = 1.0 - plus
    rng = np.random.default_rng(12)
    v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    np.testing.assert_allclose(project(plus, v) + project(minus, v), v,
                               atol=1e-10)
    # complementary ranges are orthogonal
    assert np.linalg.norm(project(minus, project(plus, v))) <= 1e-10
    np.testing.assert_allclose(project(plus, project(plus, v)),
                               project(plus, v), atol=1e-10)


def test_real_basis_calculus_matches_complex_matmul():
    # the (re, im)-pair products against V cast to complex, as numpy would
    g = make_grid(1, 8.0, 128)
    eig = decompose_hamiltonian(HamiltonianSpec.with_potential(g, gaussian_potential(1.0)))
    v = eig.vectors.astype(complex)
    rng = np.random.default_rng(13)
    f = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    np.testing.assert_allclose(eig.forward(f), v.conj().T @ f, rtol=0, atol=1e-13)
    np.testing.assert_allclose(eig.backward(f), v @ f, rtol=0, atol=1e-13)
    w = Interval(0.5, 4.0)
    vi = v[:, w.contains(eig.eigenvalues)]
    np.testing.assert_allclose(eig.projector(w)(f), vi @ (vi.conj().T @ f),
                               rtol=0, atol=1e-13)


def test_hamiltonian_basis_is_real_for_every_kind():
    g = make_grid(1, 8.0, 64)
    for spec in (HamiltonianSpec.free(g), HamiltonianSpec.fractional(g, 1.5),
                 HamiltonianSpec.with_potential(g, gaussian_potential(0.5))):
        eig = decompose_hamiltonian(spec)
        assert eig.vectors.dtype == np.float64
        assert not eig.vectors.flags.writeable


def test_real_basis_products_make_no_square_temporary():
    # float64 @ complex128 would cast the whole basis: 16 n^2 bytes
    import tracemalloc
    g = make_grid(1, 8.0, 512)
    eig = decompose_hamiltonian(HamiltonianSpec.with_potential(g, gaussian_potential(1.0)))
    f = np.random.default_rng(14).standard_normal(512) + 1j
    stack = np.random.default_rng(14).standard_normal((4, 512)) + 1j
    for apply, x in ((eig.forward, f), (eig.backward, f),
                     (eig.projector(Interval()), f),
                     (eig.forward, stack), (eig.backward, stack)):
        tracemalloc.start()
        try:
            apply(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 512


@pytest.mark.parametrize("grid", [(1, 8.0, 128), (2, 6.0, 16)], ids=["1d", "2d"])
@pytest.mark.parametrize("kind", ["fourier", "dense"])
def test_stacked_calculus_matches_per_slice(kind, grid):
    # a leading stack axis: (m, *grid.shape) or (m, dofs) values, weights
    # per slice (m, *spectrum.shape) or broadcast like spectrum
    g = make_grid(*grid)
    spec = (HamiltonianSpec.free(g) if kind == "fourier" else
            HamiltonianSpec.with_potential(g, gaussian_potential(0.5)))
    calc = calculus(spec)
    assert isinstance(calc, FourierCalculus if kind == "fourier" else EigenDecomposition)
    m = 5
    rng = np.random.default_rng(15)
    values = rng.standard_normal((m,) + g.shape) + 1j * rng.standard_normal((m,) + g.shape)
    weights = np.cos(np.arange(1, m + 1)[:, None] * calc.spectrum.ravel()).reshape(
        (m,) + calc.spectrum.shape)
    common = np.exp(-1j * calc.spectrum)
    stacked = {
        "forward": calc.forward(values),
        "forward_flat": calc.forward(values.reshape(m, g.dofs)),
        "apply": calc.apply(weights, values),
        "apply_broadcast": calc.apply(common, values.reshape(m, g.dofs)),
    }
    stacked["backward"] = calc.backward(stacked["forward"])
    slices = {
        "forward": [calc.forward(v) for v in values],
        "forward_flat": [calc.forward(v.ravel()) for v in values],
        "apply": [calc.apply(w, v) for w, v in zip(weights, values)],
        "apply_broadcast": [calc.apply(common, v.ravel()) for v in values],
        "backward": [calc.backward(calc.forward(v)) for v in values],
    }
    for name, got in stacked.items():
        want = np.stack(slices[name])
        assert got.shape == want.shape, name
        if kind == "fourier":
            assert np.array_equal(got, want), name
        else:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), name
    assert stacked["apply"].shape == (m,) + g.shape


def test_stacked_dilation_calculus_matches_per_slice():
    # the complex unitary basis of the dilation generator, as enss_decay uses it
    g = make_grid(1, 8.0, 128)
    eig = decompose_dilation(g)
    rng = np.random.default_rng(16)
    values = rng.standard_normal((4, 128)) + 1j * rng.standard_normal((4, 128))
    masks = (eig.spectrum[None, :] < np.array([-1.0, 0.0, 0.5, 2.0])[:, None]).astype(float)
    got = eig.apply(masks, values)
    want = np.stack([eig.apply(w, v) for w, v in zip(masks, values)])
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


# --- parity split -------------------------------------------------------------

def _inverse_square(g, c):
    """-c / (|x|^2 + rho^2), softened over rho = two cells: a potential that
    is not smooth on the grid scale and, for c > 0, attractive."""
    rho2 = (2.0 * g.spacing) ** 2
    return HamiltonianSpec.with_potential(
        g, PotentialSpec(lambda *axes: -c / (sum(a**2 for a in axes) + rho2)))


_KINDS = {
    "free": lambda g: HamiltonianSpec.free(g),
    "free_half": lambda g: HamiltonianSpec.free(g, "half"),
    "fractional_s1": lambda g: HamiltonianSpec.fractional(g, 1.0),
    "gaussian_well": lambda g: HamiltonianSpec.with_potential(g, gaussian_potential(0.25)),
    # attractive in 1-D, repulsive on the plane
    "inverse_square": lambda g: _inverse_square(g, 0.1 if g.dim == 1 else -0.1),
}


def test_reflection_index_negates_coordinates():
    for g in (make_grid(1, 8.0, 16), make_grid(2, 8.0, 8)):
        r = reflection_index(g)
        assert (r[r] == np.arange(g.dofs)).all()
        assert (r == np.arange(g.dofs)).sum() == 2**g.dim
        x = axis_coordinates(g)
        coords = np.stack(np.meshgrid(*(x,) * g.dim, indexing="ij")).reshape(g.dim, -1)
        # x -> -x, with the corner -L of each axis fixed (periodically -L = L)
        mirrored = np.where(np.abs(coords) == g.half_extent, coords, -coords)
        assert (coords[:, r] == mirrored).all()


_GRIDS = {"1d": (1, 8.0, 128), "2d": (2, 6.0, 16)}
# every H kind on both grids, and the dilation generator (1-D only)
_SPLIT_CASES = [(grid, kind) for grid in _GRIDS for kind in sorted(_KINDS)] + [("1d", "dilation")]


@pytest.mark.parametrize("grid, kind", _SPLIT_CASES,
                         ids=[f"{grid}-{kind}" for grid, kind in _SPLIT_CASES])
def test_parity_split_matches_full_eigh(grid, kind):
    g = make_grid(*_GRIDS[grid])
    if kind == "dilation":
        h, eig = dilation_generator(g), decompose_dilation(g)
    else:
        spec = _KINDS[kind](g)
        h, eig = dense_matrix(spec), decompose_hamiltonian(spec)
    oracle = np.linalg.eigh(h)[0]
    scale = np.abs(oracle).max()
    assert np.abs(eig.eigenvalues - oracle).max() <= 1e-13 * scale
    assert eig.residual(h) <= 1e-12
    v = eig.vectors
    assert v.dtype == h.dtype
    assert np.abs(v.conj().T @ v - np.eye(g.dofs)).max() <= 1e-12
    mirrored = v[reflection_index(g)]
    even = (mirrored == v).all(axis=0)
    odd = (mirrored == -v).all(axis=0)
    assert (even ^ odd).all()
    # the stored labels are the parities, bit for bit
    assert (mirrored == eig.parity * v).all()
    # one even function per pair and fixed point, one odd one per pair
    assert even.sum() == (g.dofs + 2**g.dim) // 2


@pytest.mark.parametrize("grid, kind", [("1d", "free"), ("2d", "free"),
                                         ("1d", "gaussian_well"), ("2d", "gaussian_well")])
def test_parity_columns_unfold_to_eigenvectors_of_their_parity(grid, kind):
    # Fourier: (e_xi +- e_-xi)/sqrt(2) from the frequency lattice; dense: the
    # stored labels.  Unfolded, the two blocks are one orthonormal eigenbasis
    # of the window, each vector of its block's parity
    g = make_grid(*_GRIDS[grid])
    calc = calculus(_KINDS[kind](g))
    lam = calc.spectrum.ravel()
    window = (lam > 2.0) & (lam <= 9.0)
    r = reflection_index(g)
    basis, values = [], []
    for block, (modes, cols) in zip(parity_blocks(g), calc.parity_columns(window)):
        assert window[modes].all() and cols.shape == (block.rep.size, modes.size)
        vecs = block.unfold(cols.T)
        assert np.abs(vecs[:, r] - block.sign * vecs).max() <= 1e-15
        basis.append(vecs)
        values.append(lam[modes])
    basis, values = np.concatenate(basis), np.concatenate(values)
    assert basis.shape[0] == window.sum()
    assert np.abs(basis.conj() @ basis.T - np.eye(basis.shape[0])).max() <= 1e-12
    applied = calc.apply(lam.reshape(calc.spectrum.shape), basis).reshape(basis.shape)
    assert np.abs(applied - values[:, None] * basis).max() <= 1e-12 * lam.max()


def test_dilation_generator_is_never_diagonalized_whole(monkeypatch):
    # A goes through the same parity split as H: the only eigh calls are
    # its even and odd blocks, never the n x n matrix
    shapes, eigh = [], np.linalg.eigh

    def recording(m, *args, **kwargs):
        shapes.append(m.shape)
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    decompose_dilation.__wrapped__(make_grid(1, 8.0, 128))     # past the cache
    assert shapes == [(65, 65), (63, 63)]


def test_dilation_null_modes_off_rounding_level_raise(monkeypatch):
    g = make_grid(1, 8.0, 128)
    shifted = dilation_generator(g) + 1e-6 * np.eye(g.dofs)
    monkeypatch.setattr(spectral, "dilation_generator", lambda grid: shifted)
    with pytest.raises(ValueError, match="null modes"):
        decompose_dilation.__wrapped__(g)                     # past the cache


def test_off_centre_potential_is_refused(monkeypatch):
    g = make_grid(1, 8.0, 64)
    spec = HamiltonianSpec.with_potential(g, gaussian_potential(0.5))
    x = axis_coordinates(g)
    monkeypatch.setattr(hamiltonian, "potential_on_grid",
                        lambda s: np.exp(-(x - 1.0) ** 2))
    with pytest.raises(ValueError, match="reflection"):
        decompose_hamiltonian(spec)


_SHARED_GRIDS = {"1d-128": (1, 8.0, 128), "1d-512": (1, 32.0, 512),
                 "2d-16": (2, 6.0, 16)}
_MULTIPLIERS = {
    "free": HamiltonianSpec.free,
    "fractional_s1.5": lambda g, c: HamiltonianSpec.fractional(g, 1.5, c),
}


@pytest.mark.parametrize("grid", sorted(_SHARED_GRIDS))
@pytest.mark.parametrize("kind", sorted(_MULTIPLIERS))
def test_half_multiplier_dense_calculus_equals_its_own_eigensolve(grid, kind):
    # the half multiplier H reads the full one's eigenbasis: the same
    # vectors and parity, eigenvalues halved, bit for bit equal to a parity
    # eigensolve of the half matrix itself
    g = make_grid(*_SHARED_GRIDS[grid])
    half, full = (_MULTIPLIERS[kind](g, c) for c in ("half", "full"))
    calc = dense_calculus(half)
    oracle = spectral._parity_eigh(dense_matrix(half), g)
    assert np.array_equal(calc.vectors, oracle.vectors)
    assert np.array_equal(calc.parity, oracle.parity)
    assert np.array_equal(calc.eigenvalues, oracle.eigenvalues)
    assert np.array_equal(calc.eigenvalues, 0.5 * decompose_hamiltonian(full).eigenvalues)
    assert calc.vectors is decompose_hamiltonian(full).vectors
    assert not calc.eigenvalues.flags.writeable


def test_potential_dense_calculus_is_never_shared_across_conventions():
    # K/2 + V is no multiple of K + V: the half potential H has its own basis
    g = make_grid(1, 8.0, 128)
    pot = gaussian_potential(1.0)
    half = HamiltonianSpec.with_potential(g, pot, "half")
    full = HamiltonianSpec.with_potential(g, pot, "full")
    calc = dense_calculus(half)
    assert calc is decompose_hamiltonian(half)
    oracle = spectral._parity_eigh(dense_matrix(half), g)
    assert np.array_equal(calc.eigenvalues, oracle.eigenvalues)
    assert np.array_equal(calc.vectors, oracle.vectors)
    shared = 0.5 * decompose_hamiltonian(full).eigenvalues
    assert np.abs(calc.eigenvalues - shared).max() > 1e-3
