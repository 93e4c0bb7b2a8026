"""Functional calculus f(H): spectral functions, projections and evolution.

calculus(spec) is the one place that decides how H is diagonalized:
multiplier Hamiltonians on the frequency lattice (FFT), potential kinds
through a dense eigendecomposition (capped at DENSE_LIMIT dofs).  Either way f(H)
is applied as weights f(spectrum) on the spectral coefficients.
dense_calculus(spec) is the dense eigenbasis of any H, which the dense
engine uses even for a multiplier H.

Every smooth cutoff in the package is built from smooth_step, a C-infinity
step made of the exp(-1/x) mollifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .grid import GridSpec, parity_blocks
from .hamiltonian import (HamiltonianSpec, dense_matrix, dilation_generator,
                          kinetic_symbol)


def _mollifier(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u, dtype=float)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def smooth_step(u) -> np.ndarray:
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, strictly rising between."""
    u = np.asarray(u, dtype=float)
    a = _mollifier(u)
    b = _mollifier(1.0 - u)
    with np.errstate(invalid="ignore"):
        out = np.where(a + b > 0, a / np.where(a + b > 0, a + b, 1.0), 0.0)
    return out


@dataclass(frozen=True)
class Interval:
    """Closed spectral window [lo, hi]; the one spectral cutoff rule."""

    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        return (lam >= self.lo) & (lam <= self.hi)


def _stack_shape(grid: GridSpec, values: np.ndarray) -> tuple[int, ...]:
    """() for one field (flat or grid-shaped), (m,) for a stack of m fields
    shaped (m, *grid.shape) or (m, dofs)."""
    if values.shape in (grid.shape, (grid.dofs,)):
        return ()
    return values.shape[:1]


class _Calculus:
    """f(H) = backward(f(spectrum) * forward(values)); subclasses supply
    spectrum, forward (values -> coefficients), backward (-> grid shape),
    columns (the eigenvectors selected by a mask over spectrum, as an n x k
    orthonormal matrix whose columns follow the flat order of spectrum) and
    parity_columns (an eigenbasis of the selected window split by the
    reflection x -> -x: for each of grid.parity_blocks, (modes, cols) with
    modes the flat spectrum indices of that parity's basis vectors and cols
    their folded coordinates, block.rep.size x modes.size).

    forward, backward and apply also take a stack of m fields on a leading
    axis, (m, *grid.shape) or (m, dofs); the coefficients and the result keep
    that axis, and weights shaped (m, *spectrum.shape) give each field its
    own f, while weights shaped like spectrum broadcast over the stack.
    """

    def apply(self, weights: np.ndarray, values: np.ndarray) -> np.ndarray:
        """f(H) values for weights = f(spectrum); returns grid-shaped values."""
        return self.backward(weights * self.forward(values))


@dataclass(eq=False)
class FourierCalculus(_Calculus):
    """Multiplier H: the spectrum is the kinetic symbol on the frequency lattice."""

    spectrum: np.ndarray
    grid: GridSpec

    # the transforms run over the trailing grid axes; passing their sizes
    # too skips numpy's per-call lookup of them, a third of a 512-point FFT
    def forward(self, values: np.ndarray) -> np.ndarray:
        g = self.grid
        lead = _stack_shape(g, values)
        return np.fft.fftn(values.reshape(lead + g.shape), g.shape,
                           tuple(range(-g.dim, 0)))

    def backward(self, coeff: np.ndarray) -> np.ndarray:
        g = self.grid
        return np.fft.ifftn(coeff, g.shape, tuple(range(-g.dim, 0)))

    def columns(self, mask: np.ndarray) -> np.ndarray:
        """The selected unit modes through one batched norm="ortho" inverse
        DFT over the grid axes."""
        modes = np.flatnonzero(mask)
        unit = np.zeros((modes.size, self.grid.dofs), dtype=complex)
        unit[np.arange(modes.size), modes] = 1.0
        return self._synthesize(unit)

    def parity_columns(self, mask: np.ndarray) -> list:
        """The window basis pairs the modes +-xi as (e_xi +- e_-xi)/sqrt(2),
        the unfolded unit vectors of each parity block on the frequency
        lattice; xi = 0 and the Nyquist mode are even.  mask must be even in
        xi, as any function of the spectrum is."""
        mask = np.asarray(mask, dtype=bool).ravel()
        out = []
        for block in parity_blocks(self.grid):
            sel = np.flatnonzero(mask[block.rep])
            unit = np.zeros((sel.size, block.rep.size), dtype=complex)
            unit[np.arange(sel.size), sel] = 1.0
            cols = self._synthesize(block.unfold(unit))
            out.append((block.rep[sel], block.fold(cols)))
        return out

    def _synthesize(self, coeff: np.ndarray) -> np.ndarray:
        """The n x k columns whose DFT coefficients are the k rows of coeff."""
        g, k = self.grid, coeff.shape[0]
        cols = np.fft.ifftn(coeff.reshape((k,) + g.shape),
                            axes=tuple(range(1, g.dim + 1)), norm="ortho")
        return cols.reshape(k, g.dofs).T


def _dot(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """basis @ x along the first axis of x.

    A real basis meets a complex x as one real product over its (re, im)
    pairs, so numpy makes no complex copy of the basis.
    """
    if np.iscomplexobj(basis) or not np.iscomplexobj(x):
        return basis @ x
    x = np.ascontiguousarray(x, dtype=np.complex128)
    out = basis @ x.view(np.float64).reshape(x.shape[0], -1)
    return out.view(np.complex128).reshape(basis.shape[:1] + x.shape[1:])


@dataclass(eq=False)
class EigenDecomposition(_Calculus):
    """Dense eigendecomposition, eigenvalues ascending.

    The basis of H is real orthogonal (float64); that of the dilation
    generator is complex unitary.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray            # columns are eigenvectors
    grid: GridSpec
    parity: np.ndarray             # per column: 1.0 even, -1.0 odd under x -> -x

    @property
    def spectrum(self) -> np.ndarray:
        return self.eigenvalues

    def forward(self, values: np.ndarray) -> np.ndarray:
        # conj(V^T conj(v)) = V^H v without an n x n conjugated copy of V;
        # a stack is one product with the fields as columns
        g = self.grid
        flat = values.reshape(_stack_shape(g, values) + (g.dofs,))
        return _dot(self.vectors.T, flat.T.conj()).conj().T

    def backward(self, coeff: np.ndarray) -> np.ndarray:
        lead = coeff.shape[:-1]
        return _dot(self.vectors, coeff.T).T.reshape(lead + self.grid.shape)

    def columns(self, mask: np.ndarray) -> np.ndarray:
        return self.vectors[:, mask]

    def parity_columns(self, mask: np.ndarray) -> list:
        """Split by the stored parity labels, ascending within each block."""
        out = []
        for block in parity_blocks(self.grid):
            modes = np.flatnonzero(mask & (self.parity == block.sign))
            out.append((modes, block.fold(self.vectors, modes)))
        return out

    def residual(self, matrix: np.ndarray) -> float:
        r = matrix @ self.vectors - self.vectors * self.eigenvalues[None, :]
        scale = 1.0 + np.abs(self.eigenvalues).max()
        return float(np.abs(r).max() / scale)


def _parity_blocks(h: np.ndarray, grid: GridSpec):
    """Split a Hermitian H that commutes with the reflection R: x -> -x
    (H itself, or the dilation generator) into its even and odd blocks.

    On the representatives rep and mirrors par of grid.parity_blocks, with
    D = 1 on pairs and 1/sqrt(2) on fixed points, even =
    D (H[rep, rep] + H[rep, par]) D in the orthonormal basis
    (e_rep + e_par) / sqrt(2) (e_rep on a fixed point), and odd =
    H[rep, rep] - H[rep, par] on the pairs, in the basis
    (e_rep - e_par) / sqrt(2).  Raises when H[R, R] != H bit for bit.
    """
    even_block = parity_blocks(grid)[0]
    rep, par = even_block.rep, even_block.par
    same = h[np.ix_(rep, rep)]
    cross = h[np.ix_(rep, par)]
    if not (np.array_equal(h[np.ix_(par, par)], same)
            and np.array_equal(h[np.ix_(par, rep)], cross)):
        raise ValueError("matrix does not commute with the reflection x -> -x")
    pair = rep != par
    d = np.where(pair, 1.0, math.sqrt(0.5))
    even = same + cross
    even *= d[:, None]
    even *= d
    odd = np.subtract(same, cross, out=same)[np.ix_(pair, pair)]
    return even, odd


def _parity_eigh(matrix: np.ndarray, grid: GridSpec) -> EigenDecomposition:
    """Read-only eigendecomposition of a Hermitian matrix that commutes with
    x -> -x, through its even and odd blocks: each about half the size, a
    quarter of the flops of one eigh.  The matrix is freed, then each block
    eigenvector is unfolded straight to its column of one n x n basis of the
    matrix's dtype, in ascending eigenvalue order; each column's parity is
    recorded.
    """
    even, odd = _parity_blocks(matrix, grid)
    del matrix
    w_even, v_even = np.linalg.eigh(even)
    w_odd, v_odd = np.linalg.eigh(odd)
    del even, odd
    n = grid.dofs
    spectrum = np.concatenate([w_even, w_odd])
    order = np.argsort(spectrum, kind="stable")    # merge; ties keep even first
    w = spectrum[order]
    column = np.argsort(order)                     # block column -> column of v
    v = np.zeros((n, n), dtype=v_even.dtype)
    parity = np.empty(n)
    for block, vb, cols in zip(parity_blocks(grid), (v_even, v_odd),
                               (column[:w_even.size], column[w_even.size:])):
        vb *= block.shrink[:, None]                # c / d, d = sqrt(2) on a pair
        v[np.ix_(block.rep, cols)] = vb
        if block.sign < 0:
            np.negative(vb, out=vb)
        v[np.ix_(block.par, cols)] = vb
        parity[cols] = block.sign
    for arr in (w, v, parity):
        arr.flags.writeable = False
    return EigenDecomposition(w, v, grid, parity)


@lru_cache(maxsize=3)
def decompose_hamiltonian(spec: HamiltonianSpec) -> EigenDecomposition:
    """Real orthogonal eigenbasis of the dense H, through its parity split; cached."""
    return _parity_eigh(dense_matrix(spec), spec.grid)


@lru_cache(maxsize=1)
def decompose_dilation(grid: GridSpec) -> EigenDecomposition:
    """Complex unitary eigenbasis of the dilation generator, as H's; cached.

    Each parity block is i times a real skew matrix of odd size, with one
    exact zero eigenvalue that eigh returns at rounding level, signed by the
    BLAS thread count; both are set to 0.0 (raises unless at rounding level).
    """
    dec = _parity_eigh(dilation_generator(grid), grid)
    w = dec.eigenvalues.copy()
    null = np.argsort(np.abs(w), kind="stable")[:2]
    if np.abs(w[null]).max() > w.size * np.finfo(float).eps * np.abs(w).max():
        raise ValueError("dilation generator null modes are not at rounding level")
    w[null] = 0.0
    w.flags.writeable = False
    return EigenDecomposition(w, dec.vectors, grid, dec.parity)


def dense_calculus(spec: HamiltonianSpec) -> EigenDecomposition:
    """The dense eigenbasis of any H, one eigensolve per kinetic operator.

    A multiplier H under the half convention is the full-convention H halved
    bit for bit (symbol, kernel and matrix), so it reads the full entry of
    decompose_hamiltonian with read-only halved eigenvalues; the parity
    eigensolve of the halved matrix returns these same bits.  A potential H
    gets its own entry: K/2 + V is no multiple of K + V.
    """
    if not (spec.is_multiplier and spec.convention == "half"):
        return decompose_hamiltonian(spec)
    full = decompose_hamiltonian(replace(spec, convention="full"))
    w = 0.5 * full.eigenvalues
    w.flags.writeable = False
    return EigenDecomposition(w, full.vectors, spec.grid, full.parity)


def calculus(spec: HamiltonianSpec) -> FourierCalculus | EigenDecomposition:
    """The functional calculus of H: Fourier for multiplier kinds, else dense."""
    if spec.is_multiplier:
        return FourierCalculus(kinetic_symbol(spec), spec.grid)
    return decompose_hamiltonian(spec)
