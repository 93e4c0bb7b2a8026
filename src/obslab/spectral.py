"""Functional calculus: sharp and smooth spectral projections.

Multiplier Hamiltonians get their calculus directly on the frequency lattice;
potential kinds go through a dense eigendecomposition (capped at 4096 dofs).

Every smooth cutoff in the package is built from smooth_step, a C-infinity
step made of the exp(-1/x) mollifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Field, GridSpec
from .hamiltonian import (DilationMatrix, HamiltonianSpec, dense_matrix,
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
    """Spectral window [lo, hi); set include_hi for the closed right end.

    The left end is always included, so adjacent windows sharing an endpoint
    tile the spectrum without double counting.
    """

    lo: float = -math.inf
    hi: float = math.inf
    include_hi: bool = False

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi})")

    @classmethod
    def window(cls, lo: float, hi: float) -> "Interval":
        return cls(lo, hi)

    def contains(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        inside = (lam >= self.lo) & (lam < self.hi)
        if self.include_hi:
            inside |= lam == self.hi
        return inside


@dataclass(eq=False)
class EigenDecomposition:
    """Dense Hermitian eigendecomposition; eigenvalues ascending."""

    eigenvalues: np.ndarray
    vectors: np.ndarray            # columns are eigenvectors
    grid: GridSpec

    def residual(self, matrix: np.ndarray) -> float:
        r = matrix @ self.vectors - self.vectors * self.eigenvalues[None, :]
        scale = 1.0 + np.abs(self.eigenvalues).max()
        return float(np.abs(r).max() / scale)

    def apply_function(self, fn, values: np.ndarray) -> np.ndarray:
        coeff = self.vectors.conj().T @ values.ravel()
        coeff *= fn(self.eigenvalues)
        return (self.vectors @ coeff).reshape(values.shape)

    def projector_indices(self, interval: Interval) -> np.ndarray:
        return np.nonzero(interval.contains(self.eigenvalues))[0]


@lru_cache(maxsize=3)
def decompose_hamiltonian(spec: HamiltonianSpec) -> EigenDecomposition:
    m = dense_matrix(spec)
    w, v = np.linalg.eigh(m)
    return EigenDecomposition(w, v, spec.grid)


def decompose_dilation(a: DilationMatrix) -> EigenDecomposition:
    if not hasattr(a, "_eig"):
        w, v = np.linalg.eigh(a.matrix)
        a._eig = EigenDecomposition(w, v, a.grid)
    return a._eig


def _symbol_multiplier(weights: np.ndarray, field: Field) -> Field:
    return Field(field.grid, np.fft.ifftn(weights * np.fft.fftn(field.values)))


def project_energy(spec: HamiltonianSpec, interval: Interval, field: Field) -> Field:
    """Sharp projection chi_I(H) f."""
    if spec.is_multiplier:
        mask = interval.contains(kinetic_symbol(spec)).astype(float)
        return _symbol_multiplier(mask, field)
    eig = decompose_hamiltonian(spec)
    idx = eig.projector_indices(interval)
    vi = eig.vectors[:, idx]
    out = vi @ (vi.conj().T @ field.values.ravel())
    return Field(field.grid, out.reshape(field.grid.shape))


def apply_spectral_function(spec: HamiltonianSpec, fn, field: Field) -> Field:
    """f(H) applied through the multiplier or eigenbasis route."""
    if spec.is_multiplier:
        return _symbol_multiplier(np.asarray(fn(kinetic_symbol(spec)), dtype=float), field)
    eig = decompose_hamiltonian(spec)
    return Field(field.grid, eig.apply_function(fn, field.values))
