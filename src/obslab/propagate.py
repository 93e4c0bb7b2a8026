"""Time evolution e^{-itH} under three interchangeable engines.

multiplier   exact phases in the Fourier calculus; multiplier kinds only
splitstep    Strang splitting exp(-iV dt/2) exp(-iT dt) exp(-iV dt/2);
             global error O(dt^2), exactly norm preserving
dense        exact phases in the dense eigenbasis calculus; dofs <= DENSE_LIMIT

The multiplier and dense engines are the two implementations of
spectral.calculus; splitstep is not a function of H and marches on its own.
The phases exp(-it spectrum) are computed once per (plan, t >= 0) and reused.

Every engine realizes exactly the times it is asked for: splitstep marches
each interval in whole dt steps and ends it with one fractional substep for
the remainder.  A negative time t runs as conj(e^{itH} conj(v)) = e^{-itH} v,
valid because every symbol here is real and even and every potential is real.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Field, GridSpec, radius_squared
from .hamiltonian import (DENSE_LIMIT, HamiltonianSpec, kinetic_symbol,
                          potential_on_grid)
from .spectral import calculus, dense_calculus

ENGINES = ("multiplier", "splitstep", "dense")


@dataclass(frozen=True)
class PropagatorPlan:
    hamiltonian: HamiltonianSpec
    engine: str = "multiplier"
    dt: float = 1e-3

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        h = self.hamiltonian
        if self.engine == "multiplier" and not h.is_multiplier:
            raise ValueError("multiplier engine needs a multiplier Hamiltonian")
        if self.engine == "dense" and h.grid.dofs > DENSE_LIMIT:
            raise ValueError(f"dense engine capped at {DENSE_LIMIT} dofs")
        if self.engine == "splitstep" and not self.dt > 0:
            raise ValueError("splitstep needs dt > 0")


@lru_cache(maxsize=16)
def _strang_phases(spec: HamiltonianSpec, dt: float):
    kin = np.exp(-1j * dt * kinetic_symbol(spec))
    pot = np.exp(-0.5j * dt * potential_on_grid(spec))
    return kin, pot


def _strang_step(v: np.ndarray, work: np.ndarray, spec: HamiltonianSpec,
                 dt: float) -> None:
    """One Strang step on v in place; work is a scratch array of v's shape."""
    kin, pot = _strang_phases(spec, dt)
    np.multiply(pot, v, out=v)
    np.fft.fftn(v, out=work)
    np.multiply(kin, work, out=work)
    np.fft.ifftn(work, out=v)
    np.multiply(pot, v, out=v)


def _splitstep_march(v: np.ndarray, spec: HamiltonianSpec, duration: float,
                     dt: float) -> None:
    """March the complex array v through duration in place."""
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    nsteps = int(round(duration / dt))
    remainder = duration - nsteps * dt
    work = np.empty_like(v)
    for _ in range(nsteps):
        _strang_step(v, work, spec, dt)
    if abs(remainder) > 1e-12 * max(dt, 1.0):
        _strang_step(v, work, spec, remainder)


def _calculus(plan: PropagatorPlan):
    """The calculus of the multiplier and dense engines: the Fourier calculus
    of H, or its dense eigenbasis, which the dense engine takes even for a
    multiplier H (the independent engine of engine_cross_check and
    verify_control)."""
    if plan.engine == "dense":
        return dense_calculus(plan.hamiltonian)
    return calculus(plan.hamiltonian)


@lru_cache(maxsize=16)
def _phases(plan: PropagatorPlan, t: float) -> np.ndarray:
    """Read-only exp(-it spectrum) of the plan's calculus."""
    phase = np.exp(-1j * t * _calculus(plan).spectrum)
    phase.flags.writeable = False
    return phase


def evolve(plan: PropagatorPlan, field: Field, t: float) -> Field:
    """e^{-itH} f for a signed t: a stack of one field."""
    if field.grid != plan.hamiltonian.grid:
        raise ValueError("field grid does not match plan grid")
    return Field(field.grid, evolve_stack(plan, field.values[None], (t,))[0])


def evolve_stack(plan: PropagatorPlan, values: np.ndarray, times) -> np.ndarray:
    """e^{-i t_k H} v_k for a stack of fields v_k, shaped (m, *grid.shape),
    each at its own signed time t_k.

    One stacked apply with per-row phases: one batched FFT, or one matrix
    product on the dense engine; splitstep marches the rows one by one.
    """
    spec = plan.hamiltonian
    times = [float(t) for t in times]
    if values.shape != (len(times),) + spec.grid.shape:
        raise ValueError("need one field of the plan grid per time")
    back = [k for k, t in enumerate(times) if t < 0]
    if back:                # conjugate in, forward through |t|, conjugate out
        values = np.stack([np.conj(v) if t < 0 else v
                           for v, t in zip(values, times)])
    if plan.engine == "splitstep":
        out = values.astype(complex)            # each row marches in place
        for row, t in zip(out, times):
            _splitstep_march(row, spec, abs(t), plan.dt)
    else:
        phases = np.stack([_phases(plan, abs(t)) for t in times])
        out = _calculus(plan).apply(phases, values)
    out[back] = np.conj(out[back])
    return out


def evolve_series(plan: PropagatorPlan, field: Field, times) -> list[Field]:
    """March once through ascending times; returns the snapshots."""
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) < 0) or (times.size and times[0] < 0):
        raise ValueError("times must be ascending and nonnegative")
    out: list[Field] = []
    if plan.engine == "splitstep":
        v = field.values.astype(complex)
        prev = 0.0
        for t in times:
            _splitstep_march(v, plan.hamiltonian, t - prev, plan.dt)
            prev = t
            out.append(Field(field.grid, v.copy()))
        return out
    calc = _calculus(plan)
    coeff = calc.forward(field.values)
    for t in times:
        out.append(Field(field.grid, calc.backward(_phases(plan, t) * coeff)))
    return out


def evolve_backward(plan: PropagatorPlan, field: Field, t: float) -> Field:
    """e^{+itH} f for t >= 0: evolve at -t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return evolve(plan, field, -t)


def free_gaussian_reference(grid: GridSpec, width: float, t: float,
                            convention: str = "full") -> Field:
    """Closed-form free evolution of exp(-|x|^2 / (2 width^2)).

    u(x, t) = w^n (w^2 + 2 i kappa t)^{-n/2} exp(-|x|^2 / (2 (w^2 + 2 i kappa t)))
    with kappa the kinetic prefactor.  t = 0 returns the initial Gaussian.
    """
    kappa = HamiltonianSpec.free(grid, convention).kinetic_prefactor
    a = width**2 + 2j * kappa * t
    r2 = radius_squared(grid)
    vals = width**grid.dim * a ** (-grid.dim / 2.0) * np.exp(-r2 / (2.0 * a))
    return Field(grid, vals.astype(complex))


def engine_cross_check(plan: PropagatorPlan, field: Field, t: float) -> float | None:
    """Relative deviation from the dense engine at one time, when affordable.

    Returns None when the plan already is dense or the grid is not strictly
    below the dense budget; experiments record the value in their reports.
    """
    spec = plan.hamiltonian
    # strict: the 4096-point canned observability and minimal-velocity runs skip a 4096^2 eigh
    if plan.engine == "dense" or spec.grid.dofs >= DENSE_LIMIT:
        return None
    here = evolve(plan, field, t)
    ref = evolve(PropagatorPlan(spec, "dense"), field, t)
    num = np.linalg.norm(here.values - ref.values)
    den = max(np.linalg.norm(ref.values), 1e-300)
    return float(num / den)
