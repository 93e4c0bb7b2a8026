"""Periodic pseudospectral grids on [-L, L)^n and L^2 bookkeeping.

All experiments live on a uniform tensor grid with power-of-two points per
axis.  Frequencies follow the FFT layout, xi_j = (pi/L) * k_j with
k_j in [-N/2, N/2), so multiplier operators are plain array products in
frequency space.  The quadrature weight is the cell volume h^n throughout;
norms and masses below always carry it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DOF_BUDGET = 1 << 22
SHELL_FRACTION = 0.95        # the wrap monitor's shell starts at this * L
SUPPORT_THRESHOLD = 1e-12    # support_radius counts |f| above this * max|f|


class UnderResolvedError(ValueError):
    """Raised when a rescaled state would be supported on fewer than 8 cells."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-half_extent, half_extent)^dim."""

    dim: int
    half_extent: float
    points_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not self.half_extent > 0:
            raise ValueError("half_extent must be positive")
        n = self.points_per_axis
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"points_per_axis must be a power of two >= 8, got {n}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_extent / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def dofs(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim


def make_grid(dim: int, half_extent: float, points_per_axis: int) -> GridSpec:
    spec = GridSpec(dim, half_extent, points_per_axis)
    if spec.dofs > DOF_BUDGET:
        raise ValueError(f"grid has {spec.dofs} dofs, budget is {DOF_BUDGET}")
    return spec


@lru_cache(maxsize=32)
def axis_coordinates(spec: GridSpec) -> np.ndarray:
    """Ascending coordinates of one axis, from -L to L - h."""
    n = spec.points_per_axis
    x = (np.arange(n) - n // 2) * spec.spacing
    x.flags.writeable = False
    return x


@lru_cache(maxsize=32)
def axis_frequencies(spec: GridSpec) -> np.ndarray:
    """One-axis frequencies in FFT order; equals (pi/L) * k, k in [-N/2, N/2)."""
    xi = 2.0 * np.pi * np.fft.fftfreq(spec.points_per_axis, d=spec.spacing)
    xi.flags.writeable = False
    return xi


def _meshed(axis: np.ndarray, dim: int, which: int) -> np.ndarray:
    shape = [1] * dim
    shape[which] = axis.size
    return axis.reshape(shape)


def reflection_index(spec: GridSpec) -> np.ndarray:
    """Flat index R of the reflection x -> -x: R[j] is the point at -x_j.

    Each axis of m points maps j -> (2 (m // 2) - j) mod m, which fixes
    x = 0 and x = -L; on a power-of-two grid x_{R j} = -x_j exactly.
    """
    m = spec.points_per_axis
    axis = (2 * (m // 2) - np.arange(m)) % m
    flat = np.arange(spec.dofs).reshape(spec.shape)
    return flat[np.ix_(*(axis,) * spec.dim)].ravel()


@dataclass(frozen=True, eq=False)
class ParityBlock:
    """The even (sign 1) or odd (sign -1) subspace of the reflection R, in
    folded coordinates on the representatives rep, with mirrors par = R[rep].

    Even vectors are free on every j <= R j; odd ones vanish on the fixed
    points, so the odd block keeps only the pairs j < R j.  With d = sqrt(2)
    on a pair and 1 on a fixed point, y -> d y[rep] maps the subspace
    isometrically onto C^rep.size; unfold inverts it, x[rep] = z / d and
    x[par] = sign z / d, with 1/d applied as the factor `shrink`.  The same
    permutation R maps xi -> -xi on the frequency lattice in FFT order.
    """

    sign: float
    rep: np.ndarray
    par: np.ndarray
    shrink: np.ndarray      # 1/d: sqrt(1/2) on a pair, 1 on a fixed point
    dofs: int

    def fold(self, matrix: np.ndarray, cols=None) -> np.ndarray:
        """d * matrix[rep, cols]: columns of this parity, rows on the grid."""
        out = matrix[self.rep] if cols is None else matrix[np.ix_(self.rep, cols)]
        out /= self.shrink[:, None]
        return out

    def unfold(self, z: np.ndarray) -> np.ndarray:
        """The grid vectors (last axis) whose folded coordinates are z."""
        x = np.zeros(z.shape[:-1] + (self.dofs,), dtype=z.dtype)
        z = z * self.shrink
        x[..., self.par] = self.sign * z
        x[..., self.rep] = z
        return x


@lru_cache(maxsize=16)
def parity_blocks(spec: GridSpec) -> tuple[ParityBlock, ParityBlock]:
    """The (even, odd) blocks of the reflection x -> -x on this grid."""
    r = reflection_index(spec)
    rep = np.nonzero(np.arange(r.size) <= r)[0]
    par = r[rep]
    pair = rep != par
    shrink = np.where(pair, math.sqrt(0.5), 1.0)
    blocks = (ParityBlock(1.0, rep, par, shrink, spec.dofs),
              ParityBlock(-1.0, rep[pair], par[pair], shrink[pair], spec.dofs))
    for b in blocks:
        for arr in (b.rep, b.par, b.shrink):
            arr.flags.writeable = False
    return blocks


@lru_cache(maxsize=16)
def radius_squared(spec: GridSpec) -> np.ndarray:
    """|x|^2 on the full grid."""
    x = axis_coordinates(spec)
    r2 = np.zeros(spec.shape)
    for ax in range(spec.dim):
        r2 = r2 + _meshed(x, spec.dim, ax) ** 2
    r2.flags.writeable = False
    return r2


@lru_cache(maxsize=16)
def freq_radius_squared(spec: GridSpec) -> np.ndarray:
    """|xi|^2 on the full frequency lattice, FFT order."""
    xi = axis_frequencies(spec)
    s = np.zeros(spec.shape)
    for ax in range(spec.dim):
        s = s + _meshed(xi, spec.dim, ax) ** 2
    s.flags.writeable = False
    return s


@dataclass
class Field:
    """A complex state sampled on a grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(f"values shape {self.values.shape} does not match grid {self.grid.shape}")
        if not np.iscomplexobj(self.values):
            self.values = self.values.astype(complex)

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


def field_from_function(spec: GridSpec, fn) -> Field:
    """Sample fn(x1, ..., xn) on the grid."""
    x = axis_coordinates(spec)
    axes = [_meshed(x, spec.dim, ax) for ax in range(spec.dim)]
    return Field(spec, np.asarray(fn(*axes), dtype=complex))


def l2_norm(field: Field) -> float:
    v = field.values
    return float(np.sqrt(field.grid.cell_volume * np.vdot(v, v).real))


def inner(f: Field, g: Field) -> complex:
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    return complex(f.grid.cell_volume * np.vdot(f.values, g.values))


def ball_weights(spec: GridSpec, radius: float, closed: bool = True) -> np.ndarray:
    """The one spatial cutoff rule: float weights 1 on the lattice points of
    the closed ball |x| <= radius (or of the open ball |x| < radius) and 0
    elsewhere.  Every region mass and observation mask is built from it."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    r2 = radius_squared(spec)
    inside = r2 <= radius**2 if closed else r2 < radius**2
    return inside.astype(float)


def exterior_weights(spec: GridSpec, radius: float, closed: bool = True) -> np.ndarray:
    """Weights of the complement of the ball: one minus ball_weights, built
    in place, so |x| > radius by default."""
    w = ball_weights(spec, radius, closed)
    return np.subtract(1.0, w, out=w)


def mass_in_region(field: Field, weights: np.ndarray) -> float:
    """Squared L^2 norm of the field under region weights."""
    v = field.values
    return float(field.grid.cell_volume * np.sum(weights * (v.real**2 + v.imag**2)))


def boundary_shell_mass(field: Field) -> float:
    """Mass in |x| > SHELL_FRACTION * L; the wrap-around monitor reads this."""
    g = field.grid
    return mass_in_region(field, exterior_weights(g, SHELL_FRACTION * g.half_extent))


def support_radius(field: Field) -> float:
    """Largest |x| where |f| exceeds SUPPORT_THRESHOLD * max|f|; 0 for the zero field."""
    mag = np.abs(field.values)
    peak = mag.max()
    if peak == 0.0:
        return 0.0
    supported = mag > SUPPORT_THRESHOLD * peak
    if not supported.any():
        return 0.0
    return float(np.sqrt(radius_squared(field.grid)[supported].max()))


def concentrate(field: Field, k: int) -> Field:
    """L^2-isometric rescaling U_k f = k^{n/2} f(k x), zero outside the box.

    Integer k keeps rescaled samples on the lattice.  Fails when the shrunken
    support would be carried by fewer than 8 cells per radius.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    spec = field.grid
    if k == 1:
        return field.copy()
    r = support_radius(field)
    if r > 0 and r / k < 8 * spec.spacing:
        raise UnderResolvedError(
            f"support radius {r:.3g}/{k} below 8 cells ({8 * spec.spacing:.3g})")
    n = spec.points_per_axis
    half = n // 2
    idx = np.arange(n) - half
    src = idx * k
    valid = np.nonzero((src >= -half) & (src < half))[0]
    src_pos = src[valid] + half
    out = np.zeros(spec.shape, dtype=complex)
    out[np.ix_(*[valid] * spec.dim)] = field.values[np.ix_(*[src_pos] * spec.dim)]
    out *= float(k) ** (spec.dim / 2.0)
    return Field(spec, out)
