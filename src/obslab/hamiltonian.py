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

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Hashable

import numpy as np

from .grid import (Field, GridSpec, axis_coordinates, axis_frequencies,
                   freq_radius_squared, _meshed)

CONVENTIONS = ("full", "half")

# largest grid, in dofs, that any dense n x n matrix is built for
DENSE_LIMIT = 4096


@dataclass(frozen=True)
class PotentialSpec:
    """Real potential sampled from a callable V(x1, ..., xn).

    Specs compare and hash by key, not by fn, so two builds of one potential
    share every cache keyed by their HamiltonianSpec.  The default key is a
    fresh object: a spec built without one equals only itself.
    """

    fn: Callable = dataclasses.field(compare=False)
    key: Hashable = dataclasses.field(default_factory=object)


def gaussian_potential(amplitude: float) -> PotentialSpec:
    """V(x) = amplitude * exp(-|x|^2).  Repulsive (-x.grad V >= 0) iff amplitude >= 0."""

    def fn(*axes):
        r2 = sum(a**2 for a in axes)
        return amplitude * np.exp(-r2)

    return PotentialSpec(fn, ("gaussian", float(amplitude)))


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


def _circulant(k: np.ndarray, grid: GridSpec, parity: float) -> np.ndarray:
    """The periodic convolution C[x, y] = k[(x - y) mod shape] by a real
    kernel k, made exactly even (parity 1) or odd (parity -1) first, so C
    equals parity * C^T bit for bit."""
    if grid.dofs > DENSE_LIMIT:
        raise ValueError(f"dense assembly capped at {DENSE_LIMIT} dofs, grid has {grid.dofs}")
    axes = tuple(range(grid.dim))
    k = 0.5 * (k + parity * np.roll(np.flip(k), 1, axis=axes))   # k(-x) = parity k(x)
    # window s of the doubled reversed kernel reads k[(m - 1 - s - y) mod m]
    # over y, m points per axis, so window s = m - 1 - x is row x of C
    rev = np.tile(np.flip(k), (2,) * grid.dim)
    windows = np.lib.stride_tricks.sliding_window_view(rev, grid.shape)
    rows = tuple(slice(m - 1, None, -1) for m in grid.shape)
    return np.array(windows[rows]).reshape(grid.dofs, grid.dofs)


def dilation_generator(grid: GridSpec) -> np.ndarray:
    """Dense A = (x.p + p.x)/2 on a 1-D grid: A[j, k] = (x_j + x_k) p[j, k] / 2.

    p = -i d/dx, the Nyquist xi zeroed, is i times the convolution by the
    real kernel ifft(xi).imag, made exactly odd.  The seam x = -L, its own
    mirror, takes x = 0 (the midpoint of the periodic sawtooth's jump), so
    x is odd too, and A is exactly Hermitian and even under x -> -x.
    """
    if grid.dim != 1:
        raise ValueError("dilation generator is built dense on 1-D grids only")
    x, xi = axis_coordinates(grid).copy(), axis_frequencies(grid).copy()
    x[0] = xi[grid.points_per_axis // 2] = 0.0        # the seam; the Nyquist xi
    c = _circulant(np.fft.ifft(xi).imag, grid, -1.0)
    return 0.5j * (x[:, None] + x[None, :]) * c


def dense_matrix(spec: HamiltonianSpec) -> np.ndarray:
    """Assemble H as a dense real symmetric float64 matrix (dofs <= DENSE_LIMIT).

    The kinetic part is the periodic convolution by the kernel
    k = ifftn(symbol).  Every symbol here is real and even on the frequency
    lattice, so k is real and even; a kernel whose imaginary part is not at
    rounding level raises.  k is made exactly even, so H = H^T bit for bit.
    """
    g = spec.grid
    kernel = np.fft.ifftn(kinetic_symbol(spec))
    if np.abs(kernel.imag).max() > 1e-12 * np.abs(kernel).max():
        raise ValueError("kinetic kernel is not real: the symbol is not even")
    h = _circulant(kernel.real, g, 1.0)
    if spec.kind == "potential":
        h[np.diag_indices(g.dofs)] += potential_on_grid(spec).ravel()
    return h
