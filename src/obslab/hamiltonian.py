"""Hamiltonians H = kinetic multiplier + real potential, and the virial check.

Kinds:
  free        kinetic only, symbol kappa * |xi|^2
  fractional  symbol kappa * |xi|^s, s >= 1
  potential   free kinetic plus a pointwise real potential V, sampled from a
              PotentialSpec; the one form the lab builds is the Gaussian
              a exp(-|x|^2), and min_virial checks the repulsive hypothesis
              -x.grad V >= 0 that the minimal velocity estimates assume

kappa is 1 under the "full" kinetic convention (-Delta) and 1/2 under "half"
(-Delta/2).  The half convention is the one under which i[H, A] = 2H for the
dilation generator A; the full convention doubles group velocities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .grid import (Field, GridSpec, axis_coordinates, axis_frequencies,
                   freq_radius_squared, _meshed)

CONVENTIONS = ("full", "half")

# largest grid, in dofs, that any dense n x n matrix is built for
DENSE_LIMIT = 4096


@dataclass(frozen=True)
class PotentialSpec:
    """Real potential sampled from a callable V(x1, ..., xn)."""

    fn: Callable


def gaussian_potential(amplitude: float) -> PotentialSpec:
    """V(x) = amplitude * exp(-|x|^2).  Repulsive (-x.grad V >= 0) iff amplitude >= 0."""

    def fn(*axes):
        r2 = sum(a**2 for a in axes)
        return amplitude * np.exp(-r2)

    return PotentialSpec(fn)


@dataclass(frozen=True)
class HamiltonianSpec:
    grid: GridSpec
    kind: str = "free"
    s: float = 2.0          # symbol exponent = scaling degree; 2 except for fractional
    potential: PotentialSpec | None = None
    convention: str = "full"

    def __post_init__(self):
        if self.kind not in ("free", "fractional", "potential"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")
        if self.kind == "fractional" and self.s < 1:
            raise ValueError(f"fractional exponent must satisfy s >= 1, got {self.s}")
        if self.kind != "fractional" and self.s != 2.0:
            raise ValueError("only fractional Hamiltonians take a custom exponent")
        if self.kind == "potential" and self.potential is None:
            raise ValueError("potential kind needs a PotentialSpec")

    @classmethod
    def free(cls, grid: GridSpec, convention: str = "full") -> "HamiltonianSpec":
        return cls(grid, "free", convention=convention)

    @classmethod
    def fractional(cls, grid: GridSpec, s: float, convention: str = "full") -> "HamiltonianSpec":
        return cls(grid, "fractional", s=s, convention=convention)

    @classmethod
    def with_potential(cls, grid: GridSpec, potential: PotentialSpec,
                       convention: str = "full") -> "HamiltonianSpec":
        return cls(grid, "potential", potential=potential, convention=convention)

    @property
    def kinetic_prefactor(self) -> float:
        return 1.0 if self.convention == "full" else 0.5

    @property
    def is_multiplier(self) -> bool:
        """True when H is diagonal in frequency space."""
        return self.kind in ("free", "fractional")


@lru_cache(maxsize=16)
def kinetic_symbol(spec: HamiltonianSpec) -> np.ndarray:
    xi2 = freq_radius_squared(spec.grid)
    p = spec.s
    sym = xi2.copy() if p == 2.0 else xi2 ** (p / 2.0)
    sym *= spec.kinetic_prefactor
    sym.flags.writeable = False
    return sym


@lru_cache(maxsize=16)
def potential_on_grid(spec: HamiltonianSpec) -> np.ndarray:
    g = spec.grid
    if spec.kind == "potential":
        x = axis_coordinates(g)
        axes = [_meshed(x, g.dim, ax) for ax in range(g.dim)]
        v = np.broadcast_to(np.asarray(spec.potential.fn(*axes), dtype=float), g.shape).copy()
    else:
        v = np.zeros(g.shape)
    v.flags.writeable = False
    return v


def apply_h(spec: HamiltonianSpec, field: Field) -> Field:
    """H f = IFFT(symbol * FFT f) + V * f."""
    if field.grid != spec.grid:
        raise ValueError("field grid does not match Hamiltonian grid")
    out = np.fft.ifftn(kinetic_symbol(spec) * np.fft.fftn(field.values))
    if spec.kind == "potential":
        out += potential_on_grid(spec) * field.values
    return Field(spec.grid, out)


def _x_dot_grad(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """x . grad of a sampled function by centered differences (periodic roll)."""
    x = axis_coordinates(grid)
    h = grid.spacing
    out = np.zeros_like(values, dtype=float)
    for ax in range(grid.dim):
        d = (np.roll(values, -1, axis=ax) - np.roll(values, 1, axis=ax)) / (2 * h)
        out += _meshed(x, grid.dim, ax) * d
    return out


def min_virial(spec: HamiltonianSpec) -> float:
    """Minimum over the grid of -x . grad V, by centered differences.

    The repulsive virial -x . grad V >= 0 is the hypothesis under which the
    minimal velocity estimates hold for a potential.
    """
    virial = -_x_dot_grad(potential_on_grid(spec), spec.grid)
    return float(virial.min()) + 0.0       # + 0.0 reads a -0.0 minimum as 0.0


def _dense_momentum(grid: GridSpec) -> np.ndarray:
    """Spectral differentiation -i d/dx with the Nyquist mode zeroed.

    Zeroing the unpaired Nyquist frequency keeps the operator odd under
    reflection-conjugation; it only touches states with content at the cutoff.
    """
    n = grid.points_per_axis
    xi = axis_frequencies(grid).copy()
    xi[n // 2] = 0.0
    f_of_eye = np.fft.fft(np.eye(n), axis=0)
    return np.fft.ifft(xi[:, None] * f_of_eye, axis=0)


def dilation_generator(grid: GridSpec) -> np.ndarray:
    """Dense symmetrized generator A = (x.p + p.x)/2 on a 1-D grid."""
    if grid.dim != 1:
        raise ValueError("dilation generator is built dense on 1-D grids only")
    if grid.dofs > DENSE_LIMIT:
        raise ValueError(f"dense dilation generator capped at {DENSE_LIMIT} points")
    x = axis_coordinates(grid)
    p = _dense_momentum(grid)
    m = 0.5 * (x[:, None] * p + p * x[None, :])
    return 0.5 * (m + m.conj().T)


def dense_matrix(spec: HamiltonianSpec) -> np.ndarray:
    """Assemble H as a dense real symmetric float64 matrix (dofs <= DENSE_LIMIT).

    The kinetic part is the periodic convolution H[x, y] = k[(x - y) mod shape]
    by the kernel k = ifftn(symbol).  Every symbol here is real and even on
    the frequency lattice, so k is real and even; a kernel whose imaginary
    part is not at rounding level raises.  k is made exactly even, so H
    equals its transpose bit for bit.
    """
    g = spec.grid
    n = g.dofs
    if n > DENSE_LIMIT:
        raise ValueError(f"dense assembly capped at {DENSE_LIMIT} dofs, grid has {n}")
    kernel = np.fft.ifftn(kinetic_symbol(spec))
    if np.abs(kernel.imag).max() > 1e-12 * np.abs(kernel).max():
        raise ValueError("kinetic kernel is not real: the symbol is not even")
    axes = tuple(range(g.dim))
    k = kernel.real
    k = 0.5 * (k + np.roll(np.flip(k), 1, axis=axes))      # k(-x) = k(x)
    # window s of the doubled reversed kernel reads k[(m - 1 - s - y) mod m]
    # over y, m points per axis, so window s = m - 1 - x is row x of H
    rev = np.tile(np.flip(k), (2,) * g.dim)
    windows = np.lib.stride_tricks.sliding_window_view(rev, g.shape)
    rows = tuple(slice(m - 1, None, -1) for m in g.shape)
    h = np.array(windows[rows]).reshape(n, n)
    if spec.kind == "potential":
        h[np.diag_indices(n)] += potential_on_grid(spec).ravel()
    return h
