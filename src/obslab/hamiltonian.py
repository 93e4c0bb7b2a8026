"""Hamiltonians H = kinetic multiplier + real potential, and their diagnostics.

Kinds:
  free            kinetic only, symbol kappa * |xi|^2
  fractional      symbol kappa * |xi|^s, s >= 1
  potential       free kinetic plus a pointwise real potential
  inverse_square  kinetic minus c / (|x|^2 + rho^2), rho = 2 * spacing

kappa is 1 under the "full" kinetic convention (-Delta) and 1/2 under "half"
(-Delta/2).  The half convention is the one under which i[H, A] = 2H for the
dilation generator A; the full convention doubles group velocities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .grid import (Field, GridSpec, axis_coordinates, axis_frequencies,
                   freq_radius_squared, radius_squared, _meshed)

CONVENTIONS = ("full", "half")


@dataclass(frozen=True)
class PotentialSpec:
    """Real potential sampled from a callable V(x1, ..., xn).

    xgrad_fn, when given, evaluates x . grad V analytically; otherwise the
    radial derivative is taken by centered differences on the grid.
    """

    name: str
    fn: Callable
    xgrad_fn: Callable | None = None


def zero_potential() -> PotentialSpec:
    return PotentialSpec("zero", lambda *axes: np.zeros(np.broadcast(*axes).shape) if len(axes) > 1 else np.zeros_like(axes[0]))


def gaussian_potential(amplitude: float) -> PotentialSpec:
    """V(x) = amplitude * exp(-|x|^2).  Repulsive (-x.grad V >= 0) iff amplitude >= 0."""

    def fn(*axes):
        r2 = sum(a**2 for a in axes)
        return amplitude * np.exp(-r2)

    def xgrad(*axes):
        r2 = sum(a**2 for a in axes)
        return -2.0 * amplitude * r2 * np.exp(-r2)

    return PotentialSpec(f"gaussian({amplitude})", fn, xgrad)


def ball_potential(amplitude: float = 1.0, radius: float = 1.0) -> PotentialSpec:
    """Indicator of the ball |x| <= radius; handy as a Kato-norm reference."""

    def fn(*axes):
        r2 = sum(a**2 for a in axes)
        return amplitude * (r2 <= radius**2).astype(float)

    return PotentialSpec(f"ball({amplitude},{radius})", fn)


@dataclass(frozen=True)
class HamiltonianSpec:
    grid: GridSpec
    kind: str = "free"
    s: float = 2.0          # symbol exponent = scaling degree; 2 except for fractional
    c: float = 0.0          # inverse-square coupling
    potential: PotentialSpec | None = None
    convention: str = "full"

    def __post_init__(self):
        if self.kind not in ("free", "fractional", "potential", "inverse_square"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")
        if self.kind == "fractional" and self.s < 1:
            raise ValueError(f"fractional exponent must satisfy s >= 1, got {self.s}")
        if self.kind != "fractional" and self.s != 2.0:
            raise ValueError("only fractional Hamiltonians take a custom exponent")
        if self.kind == "inverse_square":
            bound = (self.grid.dim - 2) ** 2 / 4.0
            if not self.c < bound:
                raise ValueError(f"inverse-square coupling must satisfy c < {bound}")
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

    @classmethod
    def inverse_square(cls, grid: GridSpec, c: float, convention: str = "full") -> "HamiltonianSpec":
        return cls(grid, "inverse_square", c=c, convention=convention)

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
    if spec.kind == "inverse_square":
        rho = 2.0 * g.spacing
        v = -spec.c / (radius_squared(g) + rho**2)
    elif spec.kind == "potential":
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
    if spec.kind in ("potential", "inverse_square"):
        out += potential_on_grid(spec) * field.values
    return Field(spec.grid, out)


def scale_hamiltonian(spec: HamiltonianSpec, R: float) -> HamiltonianSpec:
    """Conjugate by the dilation isometry: returns H_R with U_R^-1 H_R U_R = R^p H.

    free, fractional and inverse_square are fixed points; a potential V becomes
    V_R(x) = R^2 V(R x) on the same grid.
    """
    if R <= 0:
        raise ValueError("scaling factor must be positive")
    if spec.kind != "potential":
        return spec
    base = spec.potential

    def fn(*axes):
        return R**2 * base.fn(*(R * a for a in axes))

    xgrad = None
    if base.xgrad_fn is not None:
        def xgrad(*axes):
            return R**2 * base.xgrad_fn(*(R * a for a in axes))

    scaled = PotentialSpec(f"{base.name}@R={R}", fn, xgrad)
    return HamiltonianSpec(spec.grid, "potential", potential=scaled,
                           convention=spec.convention)


def kato_admissibility_threshold(dim: int = 3) -> float:
    """pi^{n/2} / Gamma(n/2 - 1); equals pi at n = 3."""
    if dim <= 2:
        raise ValueError("threshold defined for dim >= 3")
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 - 1.0)


def kato_norm(potential: PotentialSpec, grid: GridSpec, rho: float | None = None) -> float:
    """Global Kato norm sup_x int |V(y)| / |x - y|^{n-2} dy on a 3-D grid.

    The convolution runs over the periodic lattice by FFT; the singular shell
    |x - y| < rho is integrated analytically with V frozen at x, contributing
    2 pi rho^2 |V(x)|.  Returns inf when the sampled potential is not finite.
    """
    if grid.dim != 3:
        raise ValueError("Kato norm implemented for dim = 3 only")
    if rho is None:
        rho = 2.0 * grid.spacing
    x = axis_coordinates(grid)
    axes = [_meshed(x, grid.dim, ax) for ax in range(grid.dim)]
    v = np.abs(np.broadcast_to(np.asarray(potential.fn(*axes), dtype=float), grid.shape))
    if not np.isfinite(v).all():
        return math.inf
    r = np.sqrt(radius_squared(grid))
    kern = np.zeros(grid.shape)
    far = r >= rho
    kern[far] = 1.0 / r[far]
    # displacement kernel must sit at index 0 for the periodic convolution
    kern = np.fft.ifftshift(kern)
    conv = np.fft.ifftn(np.fft.fftn(kern) * np.fft.fftn(v)).real * grid.cell_volume
    conv += 2.0 * math.pi * rho**2 * v
    return float(conv.max())


def _spectral_gradient_squared(field: Field) -> float:
    """int |grad f|^2 via Parseval on the frequency lattice."""
    g = field.grid
    fh = np.fft.fftn(field.values, norm="ortho")
    return float(g.cell_volume * np.sum(freq_radius_squared(g) * (fh.real**2 + fh.imag**2)))


def hardy_check(field: Field) -> tuple[float, float]:
    """Return (int |f|^2 / |x|^2, 4/(n-2)^2 * int |grad f|^2) on a 3-D grid.

    The origin cell is excluded from the left side.  For smooth f vanishing
    near the origin the left side should not exceed the right.
    """
    g = field.grid
    if g.dim != 3:
        raise ValueError("Hardy check implemented for dim = 3 only")
    r2 = radius_squared(g)
    weight = np.zeros(g.shape)
    nonzero = r2 > 0
    weight[nonzero] = 1.0 / r2[nonzero]
    v = field.values
    lhs = float(g.cell_volume * np.sum(weight * (v.real**2 + v.imag**2)))
    rhs = 4.0 / (g.dim - 2) ** 2 * _spectral_gradient_squared(field)
    return lhs, rhs


def _x_dot_grad(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """x . grad of a sampled function by centered differences (periodic roll)."""
    x = axis_coordinates(grid)
    h = grid.spacing
    out = np.zeros_like(values, dtype=float)
    for ax in range(grid.dim):
        d = (np.roll(values, -1, axis=ax) - np.roll(values, 1, axis=ax)) / (2 * h)
        out += _meshed(x, grid.dim, ax) * d
    return out


def bandlimited_battery(grid: GridSpec, count: int = 32, seed: int = 0x5EED) -> list[Field]:
    """Reproducible smooth test states: random low-band frequency content
    under a spatial window that dies before the boundary."""
    rng = np.random.default_rng(seed)
    xi2 = freq_radius_squared(grid)
    xi_max = float(np.sqrt(xi2.max()))
    band = xi2 <= (xi_max / 4.0) ** 2
    r = np.sqrt(radius_squared(grid))
    L = grid.half_extent
    window = np.clip((0.85 * L - r) / (0.25 * L), 0.0, 1.0)
    window = window**2 * (3 - 2 * window)  # smoothstep shoulder
    states = []
    for _ in range(count):
        coeff = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)) * band
        v = np.fft.ifftn(coeff) * window
        nrm = np.sqrt(grid.cell_volume * np.vdot(v, v).real)
        states.append(Field(grid, v / nrm))
    return states


@dataclass
class RepulsiveReport:
    min_virial: float                 # min over the grid of -x . grad V
    passes: bool
    bound_constants: dict             # k -> max_f ||(x.grad)^k V f|| / (||Delta f||/2 + ||f||)


def check_repulsive(potential: PotentialSpec, grid: GridSpec,
                    battery_size: int = 32, seed: int = 0x5EED) -> RepulsiveReport:
    """Check -x . grad V >= 0 and sample relative-bound constants.

    The constants are empirical: for k = 0, 1, 2 we report the largest ratio
    ||(x.grad)^k V f|| / (||Delta f||/2 + ||f||) over a fixed battery of
    band-limited states.  They are measured, not proved.
    """
    x = axis_coordinates(grid)
    axes = [_meshed(x, grid.dim, ax) for ax in range(grid.dim)]
    v = np.broadcast_to(np.asarray(potential.fn(*axes), dtype=float), grid.shape).copy()
    if potential.xgrad_fn is not None:
        xg = np.broadcast_to(np.asarray(potential.xgrad_fn(*axes), dtype=float), grid.shape).copy()
    else:
        xg = _x_dot_grad(v, grid)
    min_virial = float((-xg).min())

    iterates = [v, xg, _x_dot_grad(xg, grid)]
    states = bandlimited_battery(grid, battery_size, seed)
    xi2 = freq_radius_squared(grid)
    constants = {}
    for k, vk in enumerate(iterates):
        worst = 0.0
        for f in states:
            num = np.sqrt(grid.cell_volume * np.sum(np.abs(vk * f.values) ** 2))
            lap = np.fft.ifftn(xi2 * np.fft.fftn(f.values))
            den = 0.5 * np.sqrt(grid.cell_volume * np.vdot(lap, lap).real) + f.norm()
            worst = max(worst, float(num / den))
        constants[k] = worst
    return RepulsiveReport(min_virial, min_virial >= -1e-12, constants)


@dataclass(eq=False)
class DilationMatrix:
    """Dense symmetrized generator A = (x.p + p.x)/2 on a 1-D grid."""

    grid: GridSpec
    matrix: np.ndarray
    hermiticity_defect: float


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


def dilation_generator(grid: GridSpec) -> DilationMatrix:
    if grid.dim != 1:
        raise ValueError("dilation generator is built dense on 1-D grids only")
    if grid.dofs > 4096:
        raise ValueError("dense dilation generator capped at 4096 points")
    x = axis_coordinates(grid)
    p = _dense_momentum(grid)
    xp = x[:, None] * p
    m = 0.5 * (xp + p * x[None, :])
    defect = float(np.linalg.norm(m - m.conj().T) / max(np.linalg.norm(m), 1e-300))
    a = 0.5 * (m + m.conj().T)
    return DilationMatrix(grid, a, defect)


def dense_matrix(spec: HamiltonianSpec) -> np.ndarray:
    """Assemble H as a dense real symmetric float64 matrix (dofs <= 4096).

    The kinetic part is the periodic convolution H[x, y] = k[(x - y) mod shape]
    by the kernel k = ifftn(symbol).  Every symbol here is real and even on
    the frequency lattice, so k is real and even; a kernel whose imaginary
    part is not at rounding level raises.  k is made exactly even, so H
    equals its transpose bit for bit.
    """
    g = spec.grid
    n = g.dofs
    if n > 4096:
        raise ValueError(f"dense assembly capped at 4096 dofs, grid has {n}")
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
    if spec.kind in ("potential", "inverse_square"):
        h[np.diag_indices(n)] += potential_on_grid(spec).ravel()
    return h
