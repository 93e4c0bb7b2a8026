"""Time evolution e^{-itH} under three interchangeable engines.

multiplier   exact phases in the Fourier calculus; multiplier kinds only
splitstep    Strang splitting exp(-iV dt/2) exp(-iT dt) exp(-iV dt/2);
             global error O(dt^2), exactly norm preserving
dense        exact phases in the dense eigenbasis calculus; dofs <= DENSE_LIMIT

The multiplier and dense engines are the two implementations of
spectral.calculus; splitstep is not a function of H and marches on its own.
The phases exp(-it spectrum) are computed once per (plan, t >= 0) and reused.

Splitstep transforms in the four-step layout (Bailey, "FFTs in external or
hierarchical memory", 1990): each axis of length m is viewed as (m2, m1),
m1 the power of two at or just above sqrt(m), and the transform runs
length-m2 FFTs, a cached twiddle, then length-m1 FFTs, leaving the
coefficients in transposed (k2, k1) order, into which the kinetic phase is
permuted once per (spec, dt).  Short transforms keep numpy's FFT scratch
small: a full-length 131072-point transform allocates megabytes of it per
call, which the allocator may return to the kernel on free and fault in
again on the next step.

The march holds each row transposed, (n1, n2) per axis with the slow index
n2 last (the "six-step" form, Van Loan, "Computational Frameworks for the
FFT", 1992): a row is transposed once when its march starts and once when
it ends, through the first lane's work buffer, and the two transposes of
each step ride on the m2 passes, the forward one writing into its work
buffer transposed and the inverse one reading from it.  In 1-D every pass
then runs on contiguous rows.  Each half-potential multiply covers only
the box of slow indices where exp(-iV dt/2) is not exactly 1 (none when
V = 0): a Gaussian well underflows to V = 0 a few widths out, and
x (1 +- 0i) = x for every nonzero x, so skipping the rest changes no bit.
The same 1-D transforms run in the same per-axis order with the same
products as in grid order, so every result is the grid-order step's.

Splitstep marches the rows of a stack at once, one lane per usable core
(the cores the process may run on): the first lane runs in the caller and
the others on a thread pool made on first use.  No row belongs to a lane:
before each step a lane claims the free row with the most steps left, so a
lane that stalls (a core taken away for a while) holds back one step, not
a share of the rows.  Where the platform has an affinity call, each lane
keeps to a core of its own for the march (the caller's own affinity is
restored after it), so the scheduler cannot stack two lanes on one core
while another idles.  numpy's FFTs and large ufuncs release the GIL, and
every row runs the same step sequence whichever lanes step it, so the
results depend neither on the lane count nor on the timing.  The caller
resolves every cached phase and twiddle and allocates one work buffer per
lane before any lane starts, and waits for every lane before it returns or
raises; after a failure the other lanes stop at their next claim.

Every engine realizes exactly the times it is asked for: splitstep marches
each interval in whole dt steps and ends it with one fractional substep for
the remainder.  A negative time t runs as conj(e^{itH} conj(v)) = e^{-itH} v,
valid because every symbol here is real and even and every potential is real.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .grid import Field, GridSpec, radius_squared
from .hamiltonian import (DENSE_LIMIT, HamiltonianSpec, kinetic_symbol,
                          potential_on_grid)
from .spectral import calculus, dense_calculus

ENGINES = ("multiplier", "splitstep", "dense")

try:                            # the splitstep lanes: one per usable core
    _LANES = len(os.sched_getaffinity(0))
except AttributeError:          # no affinity call on this platform
    _LANES = os.cpu_count() or 1


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


def _four_step_factors(m: int) -> tuple[int, int]:
    """(m2, m1) with m = m2 * m1 and m1 the power of two at or just above
    sqrt(m); m is a power of two >= 8, so both factors are >= 2."""
    m1 = 1 << (m.bit_length() // 2)
    return m // m1, m1


@lru_cache(maxsize=4)
def _four_step_twiddles(m: int, dim: int):
    """Read-only twiddle exp(-2 pi i k2 n1 / m) of the four-step view and
    its conjugate, shaped (m2, m1) per axis, one factor per axis.

    The factors are evaluated in long double and rounded once, where the
    platform's long double is wider than float64: in float64 the angle
    alone is off by up to 7e-16 at m = 131072, and the four-step transform
    is then measurably less accurate than numpy's one-pass FFT.
    """
    m2, m1 = _four_step_factors(m)
    step = -8 * np.arctan(np.longdouble(1)) / m                 # -2 pi / m
    n1 = np.arange(m1)
    axis = np.empty((m2, m1), dtype=complex)
    for k2 in range(m2):        # row by row: no (m2, m1) long-double temporaries
        axis[k2] = np.exp(1j * (step * (k2 * n1)))
    tw = reduce(np.multiply.outer, [axis] * dim)
    twc = np.conj(tw)
    tw.flags.writeable = twc.flags.writeable = False
    return tw, twc


@lru_cache(maxsize=16)
def _strang_phases(spec: HamiltonianSpec, dt: float):
    """Read-only (kin, box, pot) of one Strang step in the four-step view.

    kin is the kinetic phase permuted once into the (k2, k1) order the
    forward transform leaves its coefficients in (frequency index
    k = k2 + m2 k1 on each axis).  pot is the half-potential phase in the
    march's row order (n1, n2) per axis, cropped to box, the smallest block
    of slow indices n2 outside which every entry is exactly 1: empty when
    V = 0, and 14 of 256 columns for the 0.25 e^{-x^2} well on a 131072-point
    grid, where e^{-x^2} underflows to 0 beyond |x| ~ 27.3.
    """
    g = spec.grid
    m2, m1 = _four_step_factors(g.points_per_axis)
    swap = [ax ^ 1 for ax in range(2 * g.dim)]      # (k1, k2) <-> (k2, k1)
    kin = -1j * dt * kinetic_symbol(spec)
    kin = np.exp(kin, out=kin).reshape((m1, m2) * g.dim)
    kin = np.ascontiguousarray(kin.transpose(swap))
    pot = -0.5j * dt * potential_on_grid(spec)
    pot = np.exp(pot, out=pot).reshape((m2, m1) * g.dim).transpose(swap)
    box = []
    for ax in range(1, 2 * g.dim, 2):
        hit = np.flatnonzero((pot != 1).any(
            axis=tuple(a for a in range(pot.ndim) if a != ax)))
        box += [slice(None), slice(int(hit[0]), int(hit[-1]) + 1) if hit.size
                else slice(0, 0)]
    box = tuple(box)
    pot = np.ascontiguousarray(pot[box])
    kin.flags.writeable = pot.flags.writeable = False
    return kin, box, pot


def _strang_step(v: np.ndarray, work: np.ndarray, phases, twiddles) -> None:
    """One Strang step on v in place, with the (kin, box, pot) phases of its
    substep and the four-step twiddles.

    v is a row in the march's order, (n1, n2) per axis, and work a buffer in
    the coefficient order, (k2, n1) per axis: the m2 passes transpose
    between the two on their way (the forward one writes into work in the
    row order, the inverse one reads from it), so in 1-D every pass runs on
    contiguous rows.  Both orders put the transformed axes at the odd
    positions.  The potential multiplies only its box, which is exact:
    x (1 +- 0i) = x for every nonzero x.
    """
    kin, box, pot = phases
    tw, twc = twiddles
    odd = tuple(range(1, v.ndim, 2))
    swap = [ax ^ 1 for ax in range(v.ndim)]
    coeff = v.reshape(work.shape)           # v's memory in coefficient order
    edge = v[box]
    np.multiply(pot, edge, out=edge)
    np.fft.fftn(v, axes=odd, out=work.transpose(swap))
    np.multiply(tw, work, out=work)
    np.fft.fftn(work, axes=odd, out=coeff)
    np.multiply(kin, coeff, out=coeff)
    np.fft.ifftn(coeff, axes=odd, out=work)
    np.multiply(twc, work, out=work)
    np.fft.ifftn(work.transpose(swap), axes=odd, out=v)
    np.multiply(pot, edge, out=edge)


@lru_cache(maxsize=None)
def _lane_pool():
    """The thread pool of the lanes after the first, made on first use."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(_LANES - 1, thread_name_prefix="splitstep")


def _splitstep_march(rows: np.ndarray, spec: HamiltonianSpec, durations,
                     dt: float) -> None:
    """March row k of the C-contiguous complex stack rows through
    durations[k] in place on min(rows, _LANES) lanes, each on a core of its
    own, claiming one step at a time on the free row with the most steps
    left."""
    durations = [float(d) for d in durations]
    if any(d < 0 for d in durations):
        raise ValueError("duration must be nonnegative")
    if rows.dtype != complex or not rows.flags.c_contiguous:
        raise ValueError("splitstep marches a C-contiguous complex stack")
    g = spec.grid
    m2, m1 = _four_step_factors(g.points_per_axis)
    shape = (m2, m1) * g.dim            # grid order, and the work buffers'
    swap = [ax ^ 1 for ax in range(2 * g.dim)]
    grid_views = rows.reshape((len(durations),) + shape)    # no copy
    views = rows.reshape((len(durations),) + (m1, m2) * g.dim)
    twiddles = _four_step_twiddles(g.points_per_axis, g.dim)
    full = _strang_phases(spec, dt)
    left, last = [], []         # per row: steps to go, remainder phases or None
    for d in durations:
        nsteps = int(round(d / dt))
        remainder = d - nsteps * dt
        last.append(_strang_phases(spec, remainder)
                    if abs(remainder) > 1e-12 * max(dt, 1.0) else None)
        left.append(nsteps + (last[-1] is not None))
    lanes = max(1, min(len(durations), _LANES))
    # one buffer per lane, not one (lanes, ...) block: a grid-sized block
    # fits the holes freed heap memory leaves, so repeat runs reuse them
    work = [np.empty(shape, dtype=complex) for _ in range(lanes)]
    marching = [k for k, n in enumerate(left) if n]
    for k in marching:          # into the row order, through lane 0's buffer
        np.copyto(work[0], grid_views[k])
        np.copyto(views[k], work[0].transpose(swap))
    free = list(marching)       # rows no lane holds
    claim = threading.Lock()
    failed = []
    pin = lanes > 1 and hasattr(os, "sched_setaffinity")
    cores = sorted(os.sched_getaffinity(0)) if pin else ()

    def lane(j):
        if pin:     # else the scheduler may stack two lanes on one core
            os.sched_setaffinity(0, {cores[j % len(cores)]})
        k = None
        while True:
            with claim:
                if k is not None and left[k]:
                    free.append(k)
                if failed or not free:
                    return
                k = max(free, key=left.__getitem__)
                free.remove(k)
            phases = last[k] if left[k] == 1 and last[k] is not None else full
            try:
                _strang_step(views[k], work[j], phases, twiddles)
            except BaseException:
                failed.append(k)
                raise
            left[k] -= 1

    futures = [_lane_pool().submit(lane, j) for j in range(1, lanes)]
    try:
        lane(0)
    finally:
        if pin:
            os.sched_setaffinity(0, cores)
        for f in futures:       # every lane stops before this returns or raises
            f.exception()
    for f in futures:
        f.result()
    for k in marching:          # back to grid order
        np.copyto(work[0], views[k].transpose(swap))
        np.copyto(grid_views[k], work[0])


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


def evolve_stack(plan: PropagatorPlan, values: np.ndarray, times,
                 out: np.ndarray | None = None) -> np.ndarray:
    """e^{-i t_k H} v_k for a stack of fields v_k, shaped (m, *grid.shape),
    each at its own signed time t_k; returns out, or a new stack.

    out, a C-contiguous complex stack of the same shape, may be values
    itself.  Splitstep marches the rows of out (or of a copy of values) in
    place, on its lanes.  Without out, the calculus engines make one stacked
    apply with per-row phases: one batched FFT, or one matrix product on the
    dense engine.  With out, they apply each row alone into it, the
    arithmetic of one evolve, holding one row's temporaries at a time.
    After a raise, the contents of out are unspecified.
    """
    spec = plan.hamiltonian
    times = [float(t) for t in times]
    if values.shape != (len(times),) + spec.grid.shape:
        raise ValueError("need one field of the plan grid per time")
    if out is not None and (out.shape != values.shape or out.dtype != complex
                            or not out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous complex stack shaped "
                         "like values")
    back = [k for k, t in enumerate(times) if t < 0]
    # a row at t < 0 is conjugated in, evolved through |t|, conjugated out
    if plan.engine != "splitstep" and out is None:
        if back:
            values = np.stack([np.conj(v) if t < 0 else v
                               for v, t in zip(values, times)])
        phases = np.stack([_phases(plan, abs(t)) for t in times])
        out = _calculus(plan).apply(phases, values)
    else:
        if out is None:
            out = np.empty(values.shape, dtype=complex)
        for row, v, t in zip(out, values, times):
            if t < 0:
                np.conjugate(v, out=row)
            elif out is not values:
                np.copyto(row, v)
        if plan.engine == "splitstep":
            _splitstep_march(out, spec, [abs(t) for t in times], plan.dt)
        else:                   # apply, one row at a time
            calc = _calculus(plan)
            for row, t in zip(out, times):
                row[...] = calc.apply(_phases(plan, abs(t))[None], row[None])[0]
    for k in back:
        np.conjugate(out[k], out=out[k])
    return out


def evolve_series(plan: PropagatorPlan, field: Field, times) -> list[Field]:
    """March once through ascending times; returns the snapshots."""
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) < 0) or (times.size and times[0] < 0):
        raise ValueError("times must be ascending and nonnegative")
    out: list[Field] = []
    if plan.engine == "splitstep":
        v = field.values.astype(complex, order="C")[None]
        prev = 0.0
        for t in times:
            _splitstep_march(v, plan.hamiltonian, [t - prev], plan.dt)
            prev = t
            out.append(Field(field.grid, v[0].copy()))
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
