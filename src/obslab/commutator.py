"""Decay of band-projector commutators.

For self-adjoint A and bounded B with bounded [A, B], smooth band cutoffs
phi_N = phi(./N) satisfy ||[phi_N(A), B]|| <= C M_AB N^{-3/4} with
M_AB = ||[A, B]||.  The lab measures the left side on a momentum/saturating
multiplier pair and fits the log-log slope; the envelope exponent -3/4 is an
upper bound, the measured decay for smooth data sits near N^{-1}.

A = p + shift is a circulant (symbol xi + shift) and B a diagonal, so
i[f(A), B] is a Hermitian operator applied with two FFT pairs; each norm is
its extreme Ritz value under Lanczos, certified by the Ritz residual.

The Fourier-L1 ingredient behind the envelope is checked by quadrature:
psi_N = i phi_N' obeys ||psi_N||_2 ~ N^{-1/2} and ||psi_N'||_2 ~ N^{-3/2}
exactly (chain rule), so the Cauchy-Schwarz proxy
||psi_N||^{1/2} ||psi_N'||^{1/2} decays like N^{-1}, underneath N^{-3/4}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimate import PowerResult, hermitian_operator_norm
from .grid import GridSpec, axis_coordinates, axis_frequencies
from .spectral import smooth_step


def band_profile(u: np.ndarray) -> np.ndarray:
    """C-infinity bump: 0 outside [1/2, 2], 1 on [3/4, 5/4], monotone ramps."""
    u = np.asarray(u, dtype=float)
    return smooth_step((u - 0.5) / 0.25) * smooth_step((2.0 - u) / 0.75)


@dataclass
class CommutatorExperiment:
    """A = F^{-1} diag(symbol) F on the DFT lattice, B = diag(b)."""

    symbol: np.ndarray
    b: np.ndarray
    ns: tuple

    def __post_init__(self):
        self.symbol = np.asarray(self.symbol, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.symbol.ndim != 1 or self.symbol.shape != self.b.shape:
            raise ValueError("the symbol of A and the diagonal of B must be "
                             "vectors of equal length")
        self.ns = tuple(sorted(int(n) for n in self.ns))
        if any(n <= 0 for n in self.ns):
            raise ValueError("band scales must be positive")

    @property
    def spectral_radius(self) -> float:
        return float(np.abs(self.symbol).max())

    @property
    def b_norm(self) -> float:
        return float(np.abs(self.b).max())

    def commutator(self, weights: np.ndarray) -> PowerResult:
        """||[f(A), B]|| for weights = f(symbol), by Lanczos on i[f(A), B]."""
        b = self.b

        def apply(v):
            return 1j * (np.fft.ifft(weights * np.fft.fft(b * v))
                         - b * np.fft.ifft(weights * np.fft.fft(v)))

        return hermitian_operator_norm(apply, b.size)


def momentum_pair(grid: GridSpec, profile_scale: float = 2.0,
                  shift: float = 1.0,
                  ns=(8, 16, 32, 64, 128)) -> CommutatorExperiment:
    """Spectral momentum plus a constant against a tanh-profile multiplier,
    on the axis of a 1-D grid.

    The multiplier is tapered to zero over [0.55 L, 0.95 L] so its periodic
    extension is smooth; the bare tanh jumps at the seam and its step content
    pollutes every frequency band.  The tanh length scale keeps the
    multiplier's spectral spread inside the narrowest cutoff ramp, which is
    what puts the smallest bands into the asymptotic decay regime.
    """
    x, half = axis_coordinates(grid), grid.half_extent
    shoulder = smooth_step((0.95 * half - np.abs(x)) / (0.40 * half))
    exp = CommutatorExperiment(axis_frequencies(grid) + shift,
                               np.tanh(x / profile_scale) * shoulder, ns)
    if max(exp.ns) > 0.5 * exp.spectral_radius:
        raise ValueError("largest band exceeds half the spectral radius")
    return exp


def commutator_norm(experiment: CommutatorExperiment,
                    n_scale: float) -> PowerResult:
    """||[phi_N(A), B]|| by Lanczos."""
    return experiment.commutator(band_profile(experiment.symbol / n_scale))


@dataclass
class CommutatorFit:
    ns: tuple
    norms: tuple
    bounds: tuple            # c_hat * M_AB * N^{-3/4} per N
    slope: float | None      # None when all norms vanish
    c_hat: float
    m_ab: float
    b_norm: float
    crude_ok: bool           # every norm <= 2 ||B||
    bounds_ok: bool
    vacuous: bool
    runs: tuple              # Lanczos PowerResult per N
    m_ab_run: PowerResult    # Lanczos run behind m_ab


def scaling_fit(experiment: CommutatorExperiment) -> CommutatorFit:
    ns = experiment.ns
    runs = tuple(commutator_norm(experiment, n) for n in ns)
    norms = tuple(r.value for r in runs)
    m_ab_run = experiment.commutator(experiment.symbol)
    m = m_ab_run.value
    b_norm = experiment.b_norm
    crude_ok = all(v <= 2.0 * b_norm * (1.0 + 1e-12) for v in norms)
    if all(v == 0.0 for v in norms):
        bounds = tuple(0.0 for _ in ns)
        return CommutatorFit(ns, norms, bounds, None, 0.0, m, b_norm,
                             crude_ok, True, True, runs, m_ab_run)
    if len([v for v in norms if v > 0]) < 5:
        raise ValueError("need at least 5 nonzero norms for the fit")
    c_hat = max(v / (m * n ** -0.75) for v, n in zip(norms, ns))
    bounds = tuple(c_hat * m * n ** -0.75 for n in ns)
    slope = float(np.polyfit(np.log(ns), np.log(norms), 1)[0])
    bounds_ok = all(v <= bd * (1.0 + 1e-12) for v, bd in zip(norms, bounds))
    return CommutatorFit(ns, norms, bounds, slope, c_hat, m, b_norm,
                         crude_ok, bounds_ok, False, runs, m_ab_run)


@dataclass
class DerivativeBumpScaling:
    ns: tuple
    l2: tuple                # ||psi_N||_2
    l2_grad: tuple           # ||psi_N'||_2
    proxy: tuple             # ||psi_N||^{1/2} ||psi_N'||^{1/2}
    exponent_l2: float       # expected -1/2
    exponent_grad: float     # expected -3/2
    exponent_proxy: float    # expected -1, must stay under -3/4 envelope
    proxy_under_envelope: bool


def derivative_bump_scaling(ns=(8, 16, 32, 64, 128),
                            samples: int = 1 << 16) -> DerivativeBumpScaling:
    """Fine-quadrature scaling of psi_N = i phi_N' and its derivative."""
    ns = tuple(sorted(int(n) for n in ns))
    l2, l2g, proxy = [], [], []
    for n in ns:
        # cover supp phi_N = [n/2, 2n] with margin
        u = np.linspace(0.25 * n, 2.25 * n, samples)
        du = u[1] - u[0]
        f = band_profile(u / n)
        psi = np.gradient(f, du)
        psi_p = np.gradient(psi, du)
        a = math.sqrt(float(np.sum(psi**2)) * du)
        b = math.sqrt(float(np.sum(psi_p**2)) * du)
        l2.append(a)
        l2g.append(b)
        proxy.append(math.sqrt(a * b))
    ln = np.log(ns)
    e2 = float(np.polyfit(ln, np.log(l2), 1)[0])
    eg = float(np.polyfit(ln, np.log(l2g), 1)[0])
    ep = float(np.polyfit(ln, np.log(proxy), 1)[0])
    env = max(proxy[i] / ns[i] ** -0.75 for i in range(len(ns)))
    under = all(proxy[i] <= env * ns[i] ** -0.75 * (1 + 1e-12)
                for i in range(len(ns)))
    return DerivativeBumpScaling(ns, tuple(l2), tuple(l2g), tuple(proxy),
                                 e2, eg, ep, under)
