"""Operator-norm estimation and decay-rate fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

POWER_SEED = 0x5EED
LANCZOS_TOL = 1e-13
LANCZOS_MAX_ITER = 300


@dataclass
class PowerResult:
    value: float          # estimated operator norm
    iterations: int
    residual: float       # relative eigen-residual of the iterated operator
    converged: bool


def probe_vector(n: int, seed: int = POWER_SEED) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def hermitian_operator_norm(apply, n: int, tol: float = LANCZOS_TOL,
                            max_iter: int = LANCZOS_MAX_ITER) -> PowerResult:
    """Lanczos with full reorthogonalization on a Hermitian operator; returns
    its norm, the largest |theta| over the Ritz values theta.

    The start vector is the fixed-seed probe, so the result does not depend
    on any run seed.  For a Ritz pair (theta, y = Q s) the residual
    ||H y - theta y|| is beta_j |s_j| (Parlett), so theta lies that close to
    an eigenvalue of H; the iteration stops once beta_j |s_j| / |theta| <=
    tol.  A zero beta means the Krylov space is invariant: its Ritz values
    are eigenvalues and the current one is returned as is.
    """
    steps = min(max_iter, n)
    basis = np.empty((steps, n), dtype=complex)
    basis[0] = probe_vector(n)
    alphas, betas = np.zeros(steps), np.zeros(steps)
    theta, residual = 0.0, np.inf
    for j in range(steps):
        w = apply(basis[j])
        alphas[j] = np.vdot(basis[j], w).real
        w = w - alphas[j] * basis[j]
        if j:
            w -= betas[j - 1] * basis[j - 1]
        # full reorthogonalization, one classical Gram-Schmidt pass;
        # conj(Q conj(w)) = Q^H w without a conjugated copy of Q
        q = basis[:j + 1]
        w -= (q @ w.conj()).conj() @ q
        beta = float(np.linalg.norm(w))
        ritz, vectors = np.linalg.eigh(np.diag(alphas[:j + 1])
                                       + np.diag(betas[:j], 1)
                                       + np.diag(betas[:j], -1))
        top = int(np.argmax(np.abs(ritz)))
        theta = abs(float(ritz[top]))
        bound = beta * abs(float(vectors[j, top]))
        if bound == 0.0:
            return PowerResult(theta, j + 1, 0.0, True)
        residual = bound / theta if theta > 0 else np.inf
        if residual <= tol:
            return PowerResult(theta, j + 1, residual, True)
        if j + 1 < steps:
            betas[j] = beta
            basis[j + 1] = w / beta
    return PowerResult(theta, steps, residual, False)


def gram_operator_norm(apply_gram, n: int) -> PowerResult:
    """||K|| from the Hermitian PSD Gram operator K*K: the square root of its
    largest eigenvalue by hermitian_operator_norm.

    iterations, residual and converged are those of the Lanczos run on K*K.
    """
    r = hermitian_operator_norm(apply_gram, n)
    return PowerResult(math.sqrt(r.value), r.iterations, r.residual, r.converged)


@dataclass
class LogLogFit:
    slope: float
    intercept: float
    r_squared: float
    times: np.ndarray      # points actually used
    values: np.ndarray


def loglog_fit(times, values, head_fraction: float = 0.2,
               floor: float = 0.0) -> LogLogFit:
    """Least-squares slope of log(value) against log(time).

    The first head_fraction of the points is treated as transient and
    excluded; entries at or below floor are dropped (double-precision dust).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    start = int(np.ceil(head_fraction * times.size))
    keep = np.zeros(times.size, dtype=bool)
    keep[start:] = True
    keep &= values > floor
    keep &= times > 0
    if keep.sum() < 3:
        raise ValueError("fewer than 3 usable points for the log-log fit")
    lt = np.log(times[keep])
    lv = np.log(values[keep])
    slope, intercept = np.polyfit(lt, lv, 1)
    pred = slope * lt + intercept
    ss_res = float(np.sum((lv - pred) ** 2))
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return LogLogFit(float(slope), float(intercept), r2, times[keep], values[keep])


def fit_or_nan(times, values, head_fraction: float = 0.2,
               floor: float = 0.0) -> LogLogFit:
    """loglog_fit, or a NaN fit when too few points are usable.

    A measured series too short or too empty to fit is a failing result,
    not a broken run: its slope and r^2 read NaN and fail their verdicts.
    """
    try:
        return loglog_fit(times, values, head_fraction=head_fraction, floor=floor)
    except ValueError:
        empty = np.empty(0)
        return LogLogFit(math.nan, math.nan, math.nan, empty, empty)
