"""Quantitative inequalities: uncertainty norms, minimal-velocity decay,
outgoing-state (Enss) localization, two-time observability and its sharpness.

Conventions that matter here:
  * Every spatial cutoff comes from grid.ball_weights and every spectral one
    from spectral.Interval, both closed: balls include their boundary sphere,
    matching chi(|x|<=R), exteriors are one minus the closed ball, and
    windows include both ends, matching chi(H<=delta).  The one exception is
    the propagation cone |x| < v t, the open ball, so that v = 0 gives the
    empty region at every positive time.
  * Group velocities follow the kinetic convention: the symbol kappa |xi|^s
    moves frequency xi at speed kappa * s * |xi|^{s-1}, so a certified energy
    floor theta gives the velocity floor kappa * s * theta^{(s-1)/s} --
    2 sqrt(theta) for the full-convention Laplacian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimate import LogLogFit, PowerResult, fit_or_nan, gram_operator_norm
from .grid import (Field, axis_coordinates, ball_weights, boundary_shell_mass,
                   concentrate, exterior_weights, freq_radius_squared, l2_norm,
                   mass_in_region, parity_blocks)
from .hamiltonian import DENSE_LIMIT, HamiltonianSpec
from .propagate import PropagatorPlan, evolve, evolve_series, engine_cross_check
from .spectral import (Interval, calculus, decompose_dilation, project_energy,
                       smooth_step)

MASS_FIT_FLOOR = 1e-26    # interior masses at or below it are rounding dust
LOCALIZATION_TOL = 1e-8   # psi lies in a window within this of chi_window(H) psi


def group_velocity_floor(spec: HamiltonianSpec, theta: float) -> float:
    """Minimal group velocity over energies >= theta (theta > 0)."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    kappa = spec.kinetic_prefactor
    s = spec.s
    # invert lambda = kappa |xi|^s, speed = kappa s |xi|^{s-1}
    xi = (theta / kappa) ** (1.0 / s)
    return kappa * s * xi ** (s - 1.0)


# ---------------------------------------------------------------------------
# uncertainty norms ||chi(|x| <= R) chi(H <= delta)||

def uncertainty_norm(spec: HamiltonianSpec, radius: float,
                     threshold: float) -> PowerResult:
    """||chi(|x| <= radius) chi(H <= threshold)|| by Lanczos on the Gram
    operator P chi P, P the spectral projector; an empty window gives the
    exact zero after no iteration."""
    window = Interval(-math.inf, threshold)
    calc = calculus(spec)
    if not window.contains(calc.spectrum).any():
        return PowerResult(0.0, 0, 0.0, True)
    proj = calc.projector(window)
    inside = ball_weights(spec.grid, radius).ravel()

    def gram(v: np.ndarray) -> np.ndarray:
        return proj(inside * proj(v).ravel()).ravel()

    return gram_operator_norm(gram, spec.grid.dofs)


def uncertainty_norm_dense(spec: HamiltonianSpec, radius: float,
                           threshold: float) -> float:
    """SVD oracle for the same norm: the top singular value of the window's
    eigenvectors restricted to the ball.

    The eigenvectors are calculus(spec).columns: Fourier modes at any grid
    size for multiplier kinds, the dense eigenbasis (DENSE_LIMIT) otherwise.
    """
    window = Interval(-math.inf, threshold)
    calc = calculus(spec)
    mask = window.contains(calc.spectrum)
    if not mask.any():
        return 0.0
    inside = np.flatnonzero(ball_weights(spec.grid, radius))
    thin = calc.columns(mask)[inside]
    return float(np.linalg.svd(thin, compute_uv=False)[0])


@dataclass
class UncertaintyScan:
    radii: np.ndarray
    thresholds: np.ndarray
    norms: np.ndarray                  # shape (len(radii), len(thresholds))
    monotone_violations: int
    invariant_exponent: float          # norms collapse along R * delta^{1/p}
    collapse_spread: float             # worst relative spread within a group
    collapse_groups: list


def uncertainty_scan(spec: HamiltonianSpec, radii, thresholds) -> UncertaintyScan:
    """Scan the norm over a grid of (R, delta) with the SVD oracle; check
    monotonicity and the scaling collapse along the invariant R * delta^{1/p}.

    Non-multiplier kinds need the dense eigenbasis (at most DENSE_LIMIT dofs).
    """
    radii = np.sort(np.asarray(radii, dtype=float))
    thresholds = np.sort(np.asarray(thresholds, dtype=float))
    norms = np.zeros((radii.size, thresholds.size))
    for i, r in enumerate(radii):
        for j, d in enumerate(thresholds):
            norms[i, j] = uncertainty_norm_dense(spec, r, d)

    violations = 0
    slack = 1e-9
    for i in range(radii.size):
        violations += int(np.sum(np.diff(norms[i, :]) < -slack))
    for j in range(thresholds.size):
        violations += int(np.sum(np.diff(norms[:, j]) < -slack))

    p = spec.s
    inv = radii[:, None] * thresholds[None, :] ** (1.0 / p)
    order = np.argsort(inv.ravel())
    flat_inv = inv.ravel()[order]
    flat_norm = norms.ravel()[order]
    groups = []
    start = 0
    for k in range(1, flat_inv.size + 1):
        if k == flat_inv.size or not np.isclose(flat_inv[k], flat_inv[start], rtol=1e-9):
            groups.append((float(flat_inv[start]), flat_norm[start:k].copy()))
            start = k
    spread = 0.0
    for _, vals in groups:
        if vals.size >= 2 and vals.min() > 0:
            spread = max(spread, float(vals.max() / vals.min() - 1.0))
    return UncertaintyScan(radii, thresholds, norms, violations, p, spread, groups)


def frequency_band_state(spec: HamiltonianSpec, xi_lo: float, xi_hi: float,
                         ramp: float) -> Field:
    """Unit state whose frequency profile is a smooth even box on
    xi_lo <= |xi| <= xi_hi with C-infinity ramps of the given width.

    The ramps sit inside the band, so the state is exactly energy localized
    to kappa [xi_lo, xi_hi]^s; wide ramps keep the spatial tails thin, which
    is what the wrap-around monitor wants.
    """
    if not 0 < 2 * ramp < xi_hi - xi_lo:
        raise ValueError("need 0 < 2 ramp < band width")
    xi = np.sqrt(freq_radius_squared(spec.grid))
    profile = smooth_step((xi - xi_lo) / ramp) * smooth_step((xi_hi - xi) / ramp)
    # ifftn centers at index 0 = the box corner; shift to x = 0
    v = np.fft.fftshift(np.fft.ifftn(profile.astype(complex)))
    nrm = np.sqrt(spec.grid.cell_volume * np.vdot(v, v).real)
    return Field(spec.grid, v / nrm)


def _window_defect(spec: HamiltonianSpec, window: Interval, psi: Field) -> float:
    """Relative distance of psi from chi_window(H) psi."""
    proj = project_energy(spec, window, psi).values
    return float(np.linalg.norm(proj - psi.values)
                 / max(np.linalg.norm(psi.values), 1e-300))


def window_localized_state(spec: HamiltonianSpec, window: Interval,
                           xi_lo: float, xi_hi: float, xi_ramp: float,
                           energy_ramp: float) -> Field:
    """Unit state exactly localized to the given energy window.

    Starts from a frequency band state, which is returned as it is when it
    already lies in the window (a multiplier H whose band maps inside it).
    Otherwise the state is passed through a smooth energy profile supported
    strictly inside the window; wide ramps (energy_ramp) keep the profile's
    spatial kernel tails negligible, which a sharp cut would not.
    """
    psi = frequency_band_state(spec, xi_lo, xi_hi, xi_ramp)
    if _window_defect(spec, window, psi) <= LOCALIZATION_TOL:
        return psi
    if window.hi - window.lo <= 2 * energy_ramp:
        raise ValueError("energy_ramp too wide for the window")
    calc = calculus(spec)
    lam = calc.spectrum
    profile = (smooth_step((lam - window.lo) / energy_ramp)
               * smooth_step((window.hi - lam) / energy_ramp))
    v = calc.apply(profile, psi.values)
    v = v / np.sqrt(spec.grid.cell_volume * np.vdot(v, v).real)
    return Field(spec.grid, v)


# ---------------------------------------------------------------------------
# decay series

@dataclass
class DecaySeries:
    times: np.ndarray
    values: np.ndarray                # interior masses or operator norms
    fit: LogLogFit
    wrap_mass: float = 0.0
    cross_check: float | None = None


def minimal_velocity_decay(plan: PropagatorPlan, psi: Field, v: float, times,
                           energy_window: tuple[float, float] | None = None
                           ) -> DecaySeries:
    """Interior mass || chi(|x| < v t) e^{-itH} psi ||^2 against time.

    psi should already be energy localized; when energy_window is given the
    localization psi = chi_window(H) psi is verified rather than imposed.
    The cone is open, so v = 0 measures the empty region.
    """
    spec = plan.hamiltonian
    if energy_window is not None:
        defect = _window_defect(spec, Interval(*energy_window), psi)
        if defect > LOCALIZATION_TOL:
            raise ValueError(f"psi is not localized in the energy window (defect {defect:.2e})")
    times = np.asarray(times, dtype=float)
    snaps = evolve_series(plan, psi, times)
    masses = np.empty(times.size)
    wrap = 0.0
    for i, (t, u) in enumerate(zip(times, snaps)):
        masses[i] = mass_in_region(u, ball_weights(spec.grid, v * t, closed=False))
        wrap = max(wrap, boundary_shell_mass(u))
    fit = fit_or_nan(times, masses, floor=MASS_FIT_FLOOR)
    xc = engine_cross_check(plan, psi, float(times[len(times) // 2]))
    return DecaySeries(times, masses, fit, wrap, xc)


# ---------------------------------------------------------------------------
# Enss-type outgoing decay

def factored_norm(left: np.ndarray, phi: np.ndarray, q_plus: np.ndarray,
                  r_plus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """||left diag(phi) right^H|| for right = q_plus @ r_plus (reduced QR).

    Returns the norm sigma and the unit vector x = q_plus z, z the top right
    singular vector of R_- diag(phi) R_+^H, that attains it:
    ||left diag(phi) right^H x|| = sigma.  A zero factor gives sigma = 0.
    left and phi may carry a leading stack axis, (T, rows, k) and (T, k):
    one stacked QR and one stacked SVD then give sigma (T,) and x (T, rows).
    """
    r_minus = np.linalg.qr(left, mode="r")
    _, sv, zh = np.linalg.svd((r_minus * phi[..., None, :]) @ r_plus.conj().T)
    return sv[..., 0], zh[..., 0, :].conj() @ q_plus.T


@dataclass
class EnssResult:
    thresholds: list                    # the a values
    series: list                        # DecaySeries per a, values = operator norms
    bound_constants: list               # sup_t ||T(t)|| t^{0.9} per a
    constant_ratio: float
    mourre_floor: float
    max_series: DecaySeries               # pointwise max over a, fitted


def enss_decay(spec: HamiltonianSpec, a_values, v: float, times,
               window: tuple[float, float] = (1.0, 2.0),
               ramp: float = 0.25,
               interior_fraction: float = 0.3) -> EnssResult:
    """Norm decay of chi^-(A - a - v t) e^{-itH} g(H) chi^+(A - a) W.

    g is a smooth box inscribed in the energy window (C-infinity ramps of
    width `ramp` inside it); theta = window bottom is the commutator floor:
    on supp g the dilation observable grows at rate <i[H, A]> = s <H> >=
    s * theta, so the minus-side projector sliding at speed v runs away from
    the outgoing part and the norm decays in t for every splitting point a.

    W is a smooth spatial window (plateau |x| <= interior_fraction * L, gone
    by 4/3 of that), applied on both sides: W chi^- U g chi^+ W.  Without it
    the periodic box makes the norm trivial two ways: packets against the
    seam cross it and re-enter with the dilation sign flipped, and the
    discrete A eigenvectors carry seam components whose incoming half rides
    under the sliding threshold forever.  The windows restrict the estimate
    to wrap-safe states; the seam-to-window gap must exceed the maximal
    group velocity times max(times), which the caller's box geometry has to
    provide (the defaults do).

    The norm is exact.  H, A and W all commute with the reflection x -> -x
    (W depends on |x| only), so the operator is block diagonal: an even and
    an odd block, and its norm is the larger of theirs.  A block on which W
    or g vanishes adds nothing (the odd one, zero at x = 0, can have no row
    inside a narrow W).  Each block is factored on its folded coordinates
    (grid.parity_blocks: the representatives j <= R j, scaled by sqrt(2) on
    pairs, an isometry on that parity): g(H) has the rank k_p of the
    block's eigenvalues inside the window, so with F = W V_A on the block's
    rows where W > 0, its A columns in ascending order (chi^+/- are column
    ranges) and C its block of V_A^H V_H,

        W chi^- U(t) g chi^+ W = L diag(phi) R^H,
        L = F[:, minus] C[minus],  R = F[:, plus] C[plus],
        phi = e^{-it lam} box  (on the k_p eigenvalues),

    and with the QR factors L = Q_- R_-, R = Q_+ R_+ the block norm is the
    top singular value sigma of R_- diag(phi) R_+^H (Golub & Kahan), a
    square matrix of side k_p or, when W holds fewer of the block's rows,
    that row count.  The parity labels come from the eigensolvers
    (EigenDecomposition.parity) or, for a multiplier H, from the window
    basis (e_xi +- e_-xi)/sqrt(2), so a multiplier H is never diagonalized.

    Each norm is certified by a witness: the winning block's top right
    singular vector mapped back, Q_+ z, unfolded to the full grid and sent
    through the unsplit operator chain; each series' cross_check is its
    largest | ||Kx|| - sigma | / sigma, so a wrong split shows there.

    Per threshold a and block the times are visited in ascending order, so
    the chi^- column range only grows and each L is the last one plus the
    columns that entered since (a running sum).  One stacked QR and one
    stacked SVD per block then give every sigma, and the T witnesses pass
    through the chain once, as a (T, n) block with one e^{-itH} g(H) and one
    chi^- per row.
    """
    g = spec.grid
    if g.dim != 1 or g.dofs > DENSE_LIMIT:
        raise ValueError("outgoing decay needs a dense-capable 1-D grid")
    lo, hi = window
    if not 0 < 2 * ramp < hi - lo:
        raise ValueError("need 0 < 2 ramp < window width")
    theta = float(lo)
    v_cap = theta if spec.kinetic_prefactor == 1.0 else math.sqrt(theta)
    if not 0 < v < v_cap:
        raise ValueError(f"v must lie in (0, {v_cap:.3f}) for this window")
    eig_a = decompose_dilation(g)
    calc = calculus(spec)
    lam = calc.spectrum
    box = smooth_step((lam - lo) / ramp) * smooth_step((hi - lam) / ramp)
    keep = box > 0
    if not keep.any():
        raise ValueError("the energy window holds no eigenvalue of H")
    r0 = interior_fraction * g.half_extent
    xw = np.abs(axis_coordinates(g))
    w_spatial = smooth_step((4.0 * r0 / 3.0 - xw) / (r0 / 3.0))
    alpha = eig_a.eigenvalues
    times = np.asarray(times, dtype=float)

    def chain(x, first, middle, last):
        """W chi_last(A) f_middle(H) chi_first(A) W x, each factor as weights."""
        z = eig_a.apply(first, w_spatial * x)
        z = calc.apply(middle, z)
        return w_spatial * eig_a.apply(last, z)

    # march the times in ascending order; results go back to the input order
    order = np.argsort(times, kind="stable")
    t_up = times[order]
    ahead = np.exp(-1j * t_up[:, None] * lam) * box      # e^{-itH} g(H), one row per t

    # per parity block: its window rows, A eigenvalues, frame F, coupling C
    # (V_A^H V_H without a conjugated copy of V_A) and phi
    blocks = []
    for block, (a_modes, a_cols), (h_modes, h_cols) in zip(
            parity_blocks(g), eig_a.parity_columns(np.ones(alpha.size, bool)),
            calc.parity_columns(keep)):
        inside = np.flatnonzero(w_spatial[block.rep] > 0)
        if not (h_modes.size and inside.size):
            continue                    # W or g(H) vanishes on this block
        coupling = (a_cols.T @ h_cols.conj()).conj()
        frame = a_cols[inside]
        frame *= w_spatial[block.rep[inside], None]
        blocks.append((block, inside, alpha[a_modes], frame, coupling,
                       ahead[:, h_modes]))
    results = []
    constants = []
    for a in a_values:
        sigma = np.zeros(t_up.size)
        x = np.zeros((t_up.size, g.dofs), dtype=complex)
        for block, inside, alpha_p, frame, coupling, phi in blocks:
            first_plus = int(np.searchsorted(alpha_p, a, side="left"))
            q_plus, r_plus = np.linalg.qr(frame[:, first_plus:] @ coupling[first_plus:])
            ends = np.searchsorted(alpha_p, a + v * t_up, side="left")
            left = np.empty((t_up.size, inside.size, phi.shape[1]), dtype=complex)
            running = np.zeros(left.shape[1:], dtype=complex)
            prev = 0
            for i, end in enumerate(ends):
                running += frame[:, prev:end] @ coupling[prev:end]
                left[i] = running
                prev = end
            s_p, z_p = factored_norm(left, phi, q_plus, r_plus)
            win = s_p > sigma               # a tie keeps the even block
            sigma[win] = s_p[win]
            z = np.zeros((int(win.sum()), block.rep.size), dtype=complex)
            z[:, inside] = z_p[win]
            x[win] = block.unfold(z)
        mask_plus = (alpha >= a).astype(float)
        mask_minus = (alpha < a + v * t_up[:, None]).astype(float)
        reached = np.linalg.norm(chain(x, mask_plus, ahead, mask_minus), axis=1)
        norms = np.empty(times.size)
        defects = np.empty(times.size)
        norms[order] = sigma
        # relative where sigma > 0, else the reached norm itself
        defects[order] = np.abs(reached - sigma) / np.where(sigma > 0, sigma, 1.0)
        # a threshold above every A eigenvalue empties chi^+: a NaN fit
        fit = fit_or_nan(times, norms)
        const = float(np.max(norms * times**0.9))
        results.append(DecaySeries(times, norms, fit,
                                   cross_check=float(defects.max())))
        constants.append(const)
    ratio = max(constants) / min(constants) if min(constants) > 0 else math.inf
    stacked = np.max(np.stack([s.values for s in results]), axis=0)
    max_series = DecaySeries(times, stacked, fit_or_nan(times, stacked))
    return EnssResult(list(a_values), results, constants, ratio, theta,
                      max_series)


# ---------------------------------------------------------------------------
# two-time observability

def second_observation_radius(spec: HamiltonianSpec, radius: float,
                              sigma: float, gap: float) -> float:
    """sigma gap / radius^{p-1}, p the scaling exponent of H: the radius
    outside which the second observation, gap after the first, reads mass."""
    return sigma * gap / radius ** (spec.s - 1.0)


@dataclass
class ObservabilityResult:
    second_radius: float
    total_mass: float
    exterior_first: float
    exterior_second: float
    ratio: float                      # C_obs = total / (sum of observed masses)
    reduction_deviation: float
    wrap_mass: float
    cross_check: float | None = None


def _two_time_ratio(plan: PropagatorPlan, u0: Field, radius: float, r2: float,
                    t1: float, t2: float):
    """(total, ext1, ext2, ratio, snapshots at t1 and t2) for the exterior
    observations |x| > radius at t1 and |x| > r2 at t2."""
    g = plan.hamiltonian.grid
    snaps = evolve_series(plan, u0, [t1, t2])
    ext1 = mass_in_region(snaps[0], exterior_weights(g, radius))
    ext2 = mass_in_region(snaps[1], exterior_weights(g, r2))
    total = l2_norm(u0) ** 2
    denom = ext1 + ext2
    ratio = total / denom if denom > 0 else math.inf
    return total, ext1, ext2, ratio, snaps


def observability_ratio(plan: PropagatorPlan, u0: Field, radius: float,
                        t1: float, t2: float, sigma: float) -> ObservabilityResult:
    """Observability constant for exterior observations at two times.

    The first observation reads mass outside |x| <= radius at t1; the second
    reads mass outside second_observation_radius at t2.  When t1 > 0 the
    same constant is measured again from the state at t1 with the first
    observation moved to time zero (reduction_deviation).
    """
    if not t2 > t1 >= 0:
        raise ValueError("need t2 > t1 >= 0")
    gap = t2 - t1
    r2 = second_observation_radius(plan.hamiltonian, radius, sigma, gap)
    total, ext1, ext2, ratio, snaps = _two_time_ratio(plan, u0, radius, r2, t1, t2)
    wrap = max(boundary_shell_mass(s) for s in snaps)
    reduction_dev = 0.0
    if t1 > 0:
        shifted = _two_time_ratio(plan, snaps[0], radius, r2, 0.0, gap)[3]
        reduction_dev = abs(shifted - ratio) / max(abs(ratio), 1e-300)
    xc = engine_cross_check(plan, u0, t2)
    return ObservabilityResult(r2, total, ext1, ext2, ratio, reduction_dev,
                               wrap, xc)


# ---------------------------------------------------------------------------
# sharpness of the two-ball geometry

@dataclass
class SharpnessTable:
    ks: list
    exterior_masses: np.ndarray        # mass of U_k f outside r1
    interior_masses: np.ndarray        # mass of e^{-itH} U_k f inside sigma t
    both_decreasing: bool
    final_fraction_exterior: float
    final_fraction_interior: float
    wrap_mass: float


def sharpness_sequence(plan: PropagatorPlan, f: Field, ks, r1: float,
                       sigma: float, t: float) -> SharpnessTable:
    """Concentrating family f_k = U_k f: exterior mass at r1 and evolved
    interior mass inside sigma t, both of which should shrink with k."""
    g = f.grid
    exterior = []
    interior = []
    wrap = 0.0
    for k in ks:
        fk = concentrate(f, int(k))
        exterior.append(mass_in_region(fk, exterior_weights(g, r1)))
        evolved = evolve(plan, fk, t)
        interior.append(mass_in_region(evolved, ball_weights(g, sigma * t)))
        wrap = max(wrap, boundary_shell_mass(evolved))
    exterior = np.asarray(exterior)
    interior = np.asarray(interior)
    dec = bool(np.all(np.diff(exterior) < 0) and np.all(np.diff(interior) < 0))
    return SharpnessTable(list(ks), exterior, interior, dec,
                          float(exterior[-1] / exterior[0]),
                          float(interior[-1] / interior[0]), wrap)
