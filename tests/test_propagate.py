"""Evolution engines: exactness, cross-agreement, unitarity, time stepping."""

import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from obslab import propagate
from obslab.grid import Field, field_from_function, l2_norm, make_grid
from obslab.hamiltonian import (HamiltonianSpec, gaussian_potential,
                                kinetic_symbol, potential_on_grid)
from obslab.propagate import (ENGINES, PropagatorPlan, engine_cross_check,
                              evolve, evolve_backward, evolve_series,
                              evolve_stack, free_gaussian_reference)
from obslab.spectral import calculus, dense_calculus


def _rel(a: Field, b: Field) -> float:
    return l2_norm(Field(a.grid, a.values - b.values)) / max(l2_norm(b), 1e-300)


@pytest.fixture
def grid():
    return make_grid(1, 16.0, 256)


@pytest.fixture
def packet(grid):
    f = field_from_function(grid, lambda x: np.exp(-x**2) * np.exp(0.75j * x))
    return Field(grid, f.values / l2_norm(f))


def test_plan_validation(grid):
    with pytest.raises(ValueError):
        PropagatorPlan(HamiltonianSpec.free(grid), "magic")
    with pytest.raises(ValueError):
        PropagatorPlan(HamiltonianSpec.with_potential(
            grid, gaussian_potential(1.0)), "multiplier")
    with pytest.raises(ValueError):
        PropagatorPlan(HamiltonianSpec.free(make_grid(1, 16.0, 8192)), "dense")
    with pytest.raises(ValueError):
        PropagatorPlan(HamiltonianSpec.free(grid), "splitstep", dt=0.0)


def test_free_gaussian_reference_matches_independent_formula(grid):
    # u(x,t) for data exp(-x^2/(2 w^2)) evolved by the |xi|^2 multiplier
    w, t = 1.2, 0.8
    ref = free_gaussian_reference(grid, w, t)
    from obslab.grid import axis_coordinates
    x = axis_coordinates(grid)
    a = w**2 + 2j * t
    inline = w / np.sqrt(a) * np.exp(-x**2 / (2 * a))
    np.testing.assert_allclose(ref.values, inline, atol=1e-14)
    ref0 = free_gaussian_reference(grid, w, 0.0)
    np.testing.assert_allclose(ref0.values, np.exp(-x**2 / (2 * w**2)),
                               atol=1e-15)


@pytest.mark.parametrize("convention", ["full", "half"])
def test_free_gaussian_reference_reads_the_kinetic_prefactor(grid, convention):
    # the closed form's kappa is the free H's, under either convention
    kappa = HamiltonianSpec.free(grid, convention).kinetic_prefactor
    w, t = 1.2, 0.8
    from obslab.grid import axis_coordinates
    x = axis_coordinates(grid)
    a = w**2 + 2j * kappa * t
    np.testing.assert_allclose(
        free_gaussian_reference(grid, w, t, convention).values,
        w / np.sqrt(a) * np.exp(-x**2 / (2 * a)), atol=1e-14)


def test_free_gaussian_reference_rejects_an_unknown_convention(grid):
    with pytest.raises(ValueError, match="convention"):
        free_gaussian_reference(grid, 1.0, 0.5, convention="Full")


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_multiplier_engine_reproduces_closed_form(t):
    # box large enough that the dispersive tail stays below the tolerance
    g = make_grid(1, 32.0, 512)
    w = 1.0
    u0 = free_gaussian_reference(g, w, 0.0)
    plan = PropagatorPlan(HamiltonianSpec.free(g))
    got = evolve(plan, u0, t)
    assert _rel(got, free_gaussian_reference(g, w, t)) <= 1e-8


def test_half_convention_spreads_at_half_rate(grid):
    w = 1.0
    u0 = free_gaussian_reference(grid, w, 0.0)
    plan = PropagatorPlan(HamiltonianSpec.free(grid, convention="half"))
    got = evolve(plan, u0, 2.0)
    ref = free_gaussian_reference(grid, w, 2.0, convention="half")
    assert _rel(got, ref) <= 1e-8
    # and the half-convention reference at 2t equals the full one at t
    ref_full = free_gaussian_reference(grid, w, 1.0, convention="full")
    np.testing.assert_allclose(ref.values, ref_full.values, atol=1e-14)


def test_all_engines_agree_with_potential(grid):
    spec = HamiltonianSpec.with_potential(grid, gaussian_potential(1.0))
    f = field_from_function(grid, lambda x: np.exp(-(x - 1) ** 2))
    f = Field(grid, f.values / l2_norm(f))
    dense = evolve(PropagatorPlan(spec, "dense"), f, 1.0)
    split = evolve(PropagatorPlan(spec, "splitstep", dt=1e-3), f, 1.0)
    assert _rel(split, dense) <= 1e-6


def test_unitarity_across_engines(grid, packet):
    free = HamiltonianSpec.free(grid)
    pot = HamiltonianSpec.with_potential(grid, gaussian_potential(0.5))
    runs = [
        evolve(PropagatorPlan(free), packet, 3.0),
        evolve(PropagatorPlan(free, "dense"), packet, 3.0),
        evolve(PropagatorPlan(pot, "splitstep", dt=1e-2), packet, 3.0),
        evolve(PropagatorPlan(pot, "dense"), packet, 3.0),
    ]
    for out in runs:
        assert abs(l2_norm(out) - 1.0) <= 1e-10


def test_negative_time_and_grid_mismatch_raise(grid, packet):
    # evolve takes signed times; evolve_backward, which negates its own,
    # keeps t >= 0
    plan = PropagatorPlan(HamiltonianSpec.free(grid))
    with pytest.raises(ValueError):
        evolve_backward(plan, packet, -0.1)
    other = field_from_function(make_grid(1, 16.0, 128), lambda x: np.exp(-x**2))
    with pytest.raises(ValueError):
        evolve(plan, other, 0.1)


@pytest.mark.parametrize("engine,kind", [("multiplier", "free"),
                                         ("dense", "free"),
                                         ("splitstep", "potential")])
def test_series_matches_single_shot(grid, packet, engine, kind):
    if kind == "free":
        spec = HamiltonianSpec.free(grid)
    else:
        spec = HamiltonianSpec.with_potential(grid, gaussian_potential(1.0))
    plan = PropagatorPlan(spec, engine, dt=1e-2)
    times = [0.5, 1.0, 2.0]
    snaps = evolve_series(plan, packet, times)
    for t, snap in zip(times, snaps):
        single = evolve(plan, packet, t)
        if engine == "splitstep":
            assert _rel(snap, single) <= 1e-10
        else:   # one calculus, one operand order: the same bits
            assert np.array_equal(snap.values, single.values)


def test_series_requires_ascending_times(grid, packet):
    plan = PropagatorPlan(HamiltonianSpec.free(grid))
    with pytest.raises(ValueError):
        evolve_series(plan, packet, [1.0, 0.5])
    with pytest.raises(ValueError):
        evolve_series(plan, packet, [-1.0, 0.5])


@pytest.mark.parametrize("engine,kind", [("multiplier", "free"),
                                         ("dense", "free"),
                                         ("splitstep", "potential")])
def test_backward_inverts_forward(grid, packet, engine, kind):
    if kind == "free":
        spec = HamiltonianSpec.free(grid)
    else:
        spec = HamiltonianSpec.with_potential(grid, gaussian_potential(1.0))
    plan = PropagatorPlan(spec, engine, dt=1e-2)
    fwd = evolve(plan, packet, 1.7)
    back = evolve_backward(plan, fwd, 1.7)
    assert _rel(back, packet) <= 1e-11


def test_splitstep_remainder_substep(grid):
    spec = HamiltonianSpec.with_potential(grid, gaussian_potential(1.0))
    f = field_from_function(grid, lambda x: np.exp(-x**2))
    t = 0.0345  # not a multiple of dt; remainder handled by a short substep
    split = evolve(PropagatorPlan(spec, "splitstep", dt=1e-2), f, t)
    dense = evolve(PropagatorPlan(spec, "dense"), f, t)
    assert _rel(split, dense) <= 1e-5


def test_splitstep_series_realizes_off_lattice_times(grid):
    # every interval ends with its own fractional substep, so each snapshot
    # is taken at the requested time, not at the nearest multiple of dt
    spec = HamiltonianSpec.with_potential(grid, gaussian_potential(1.0))
    f = field_from_function(grid, lambda x: np.exp(-x**2))
    times = [0.0345, 0.31, 0.6]
    split = evolve_series(PropagatorPlan(spec, "splitstep", dt=1e-2), f, times)
    dense = evolve_series(PropagatorPlan(spec, "dense"), f, times)
    for a, b in zip(split, dense):
        assert _rel(a, b) <= 1e-4


def test_splitstep_leaves_its_input_alone(grid, packet):
    # the march runs in place on a copy; each snapshot is its own array
    spec = HamiltonianSpec.with_potential(grid, gaussian_potential(1.0))
    plan = PropagatorPlan(spec, "splitstep", dt=1e-2)
    before = packet.values.copy()
    evolve(plan, packet, 0.5)
    np.testing.assert_array_equal(packet.values, before)
    snaps = evolve_series(plan, packet, [0.0, 0.2, 0.5])
    np.testing.assert_array_equal(packet.values, before)
    arrays = [packet.values] + [s.values for s in snaps]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    np.testing.assert_array_equal(snaps[0].values, before)
    assert _rel(snaps[1], snaps[2]) > 1e-3


def test_engine_cross_check_policy(grid, packet):
    spec = HamiltonianSpec.with_potential(grid, gaussian_potential(1.0))
    val = engine_cross_check(PropagatorPlan(spec, "splitstep", dt=1e-3),
                             packet, 0.5)
    assert val is not None and val <= 1e-6
    assert engine_cross_check(PropagatorPlan(spec, "dense"), packet, 0.5) is None
    big = make_grid(1, 16.0, 4096)
    fb = field_from_function(big, lambda x: np.exp(-x**2))
    assert engine_cross_check(PropagatorPlan(HamiltonianSpec.free(big)),
                              fb, 0.5) is None


def test_engine_names_are_stable():
    assert ENGINES == ("multiplier", "splitstep", "dense")


def test_cached_phases_are_read_only(grid):
    plan = PropagatorPlan(HamiltonianSpec.free(grid), "dense")
    phase = propagate._phases(plan, 0.7)
    assert not phase.flags.writeable
    assert propagate._phases(plan, 0.7) is phase


@pytest.mark.parametrize("convention", ["full", "half"])
def test_evolve_applies_the_phases_of_its_own_engine_and_time(grid, packet, convention):
    # both engines, and two times each, interleaved: cached phases must be
    # those of the plan's own calculus at its own time, bit for bit
    spec = HamiltonianSpec.free(grid, convention)
    calcs = {"multiplier": calculus(spec), "dense": dense_calculus(spec)}
    for t in (0.3, 0.7):
        for engine, calc in calcs.items():
            want = calc.apply(np.exp(-1j * t * calc.spectrum), packet.values)
            plan = PropagatorPlan(spec, engine)
            assert np.array_equal(evolve(plan, packet, t).values, want)
            series = evolve_series(plan, packet, [t])
            assert np.array_equal(series[0].values, want)


def test_evolve_stack_needs_one_time_per_field(grid, packet):
    plan = PropagatorPlan(HamiltonianSpec.free(grid))
    with pytest.raises(ValueError, match="one field"):
        evolve_stack(plan, np.stack([packet.values]), (0.5, 0.25))


@pytest.mark.parametrize("engine,kind", [("multiplier", "free"),
                                         ("dense", "free"),
                                         ("splitstep", "potential")])
def test_evolve_stack_takes_mixed_sign_times(grid, packet, engine, kind):
    # a row at t < 0 is conj(e^{-i|t|H} conj(v)), the same arithmetic as one
    # evolve, or one evolve_backward, of that row alone
    if kind == "free":
        spec = HamiltonianSpec.free(grid)
    else:
        spec = HamiltonianSpec.with_potential(grid, gaussian_potential(1.0))
    plan = PropagatorPlan(spec, engine, dt=1e-2)
    rng = np.random.default_rng(5)
    rows = [packet.values, rng.standard_normal(grid.shape)
            + 1j * rng.standard_normal(grid.shape), 1j * packet.values[::-1]]
    times = (0.5, -0.7, -0.2)
    got = evolve_stack(plan, np.stack(rows), times)
    for row, t, v in zip(got, times, rows):
        f = Field(grid, v)
        if t >= 0:
            want = evolve(plan, f, t).values
        else:
            want = np.conj(evolve(plan, Field(grid, np.conj(v)), -t).values)
            assert np.array_equal(evolve_backward(plan, f, -t).values, want)
            assert np.array_equal(evolve(plan, f, t).values, want)
        if engine == "dense":
            np.testing.assert_allclose(row, want, rtol=1e-13,
                                       atol=1e-13 * np.abs(want).max())
        else:
            assert np.array_equal(row, want)


def _plain_strang_step(spec, v, dt):
    """The Strang step with full-length fftn: the reference of the
    four-step layout."""
    kin = np.exp(-1j * dt * kinetic_symbol(spec))
    pot = np.exp(-0.5j * dt * potential_on_grid(spec))
    return pot * np.fft.ifftn(kin * np.fft.fftn(pot * v))


def _random_field(grid, seed=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)


@pytest.mark.parametrize("dim,points", [(1, 8), (1, 1024), (1, 131072),
                                        (2, 8), (2, 32)])
def test_four_step_strang_step_matches_plain_fftn(dim, points):
    # per axis 8 -> (2, 4), 32 -> (4, 8), 1024 -> (32, 32),
    # 131072 -> (256, 512); a Gaussian well
    grid = make_grid(dim, 4.0, points)
    spec = HamiltonianSpec.with_potential(grid, gaussian_potential(-2.0))
    v = _random_field(grid)
    got = v.copy()
    propagate._splitstep_march(got[None], spec, [0.01], 0.01)
    want = _plain_strang_step(spec, v, 0.01)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("points", [8, 32])
def test_two_dimensional_splitstep_in_a_gaussian_well_matches_dense(points):
    # a march through many steps stays within O(dt^2) of the exact
    # evolution in the dense eigenbasis, and keeps the norm
    grid = make_grid(2, 4.0, points)
    spec = HamiltonianSpec.with_potential(grid, gaussian_potential(-2.0))
    f = field_from_function(grid, lambda x, y: np.exp(-(x - 0.5)**2 - y**2))
    f = Field(grid, f.values / l2_norm(f))
    split = evolve(PropagatorPlan(spec, "splitstep", dt=1e-3), f, 0.3)
    dense = evolve(PropagatorPlan(spec, "dense"), f, 0.3)
    assert _rel(split, dense) <= 1e-5
    assert abs(l2_norm(split) - 1.0) <= 1e-12


@pytest.mark.parametrize("dim,points", [(1, 256), (2, 32)])
def test_splitstep_on_a_free_hamiltonian_is_the_multiplier_engine(dim, points):
    # with V = 0 every Strang step is the exact kinetic phase, so a march
    # differs from the multiplier engine only by rounding
    grid = make_grid(dim, 8.0, points)
    spec = HamiltonianSpec.free(grid)
    f = Field(grid, _random_field(grid))
    split = evolve(PropagatorPlan(spec, "splitstep", dt=1e-2), f, 0.5)
    exact = evolve(PropagatorPlan(spec), f, 0.5)
    assert _rel(split, exact) <= 1e-12


_FAULT_PROBE = textwrap.dedent("""
    import resource
    import numpy as np
    from obslab.grid import field_from_function, make_grid
    from obslab.hamiltonian import HamiltonianSpec, gaussian_potential
    from obslab.propagate import PropagatorPlan, evolve, evolve_stack

    grid = make_grid(1, 2048.0, 131072)
    spec = HamiltonianSpec.with_potential(grid, gaussian_potential(0.25))
    plan = PropagatorPlan(spec, "splitstep", dt=1e-2)
    f = field_from_function(grid, lambda x: np.exp(-x**2))
    stack = np.stack([f.values, f.values])
    for run in (lambda: evolve(plan, f, 0.5),         # 50 Strang steps
                lambda: evolve_stack(plan, stack, [0.5, 0.5])):  # a row a lane
        run()                               # warms every cache and the lanes
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run()
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


def test_warm_splitstep_march_does_not_refault_fft_scratch():
    # a full-length 131072-point FFT allocates megabytes of scratch that the
    # allocator may hand back to the kernel on free, so every step faults it
    # in again (about 2000 pages a step); the four-step transforms do not,
    # whether one row marches or two rows march on their lanes
    resource = pytest.importorskip("resource")
    if resource.getrusage(resource.RUSAGE_SELF).ru_minflt == 0:
        pytest.skip("ru_minflt is not reported on this platform")
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    faults = [int(n) for n in done.stdout.split()]
    assert len(faults) == 2 and max(faults) < 5000, faults


def test_splitstep_takes_fields_in_any_memory_order():
    # the march reshapes each row into its four-step view, which must be a
    # view of the row it updates, whatever the layout of the input
    grid = make_grid(2, 4.0, 32)
    spec = HamiltonianSpec.with_potential(grid, gaussian_potential(-2.0))
    plan = PropagatorPlan(spec, "splitstep", dt=1e-2)
    v = _random_field(grid)
    fortran = Field(grid, np.asfortranarray(v))
    want = evolve(plan, Field(grid, v), 0.2).values
    assert np.array_equal(evolve(plan, fortran, 0.2).values, want)
    assert np.array_equal(evolve_series(plan, fortran, [0.2])[0].values, want)


def _old_twiddles(m, dim):
    """The twiddle construction through one (m2, m1) long-double angle array."""
    m2, m1 = propagate._four_step_factors(m)
    k2n1 = np.outer(np.arange(m2), np.arange(m1)).astype(np.longdouble)
    angle = (-8 * np.arctan(np.longdouble(1)) / m) * k2n1
    return reduce(np.multiply.outer, [np.exp(1j * angle).astype(complex)] * dim)


@pytest.mark.parametrize("m,dim", [(8, 1), (1024, 1), (131072, 1), (8, 2),
                                   (64, 2)])
def test_twiddles_filled_row_by_row_equal_the_whole_array_construction(m, dim):
    tw, twc = propagate._four_step_twiddles.__wrapped__(m, dim)
    want = _old_twiddles(m, dim)
    assert np.array_equal(tw, want) and np.array_equal(twc, np.conj(want))


def test_twiddle_fill_holds_no_long_double_temporaries():
    # the fill runs while a stack is alive; the (256, 512) long-double angle
    # and complex arrays of the whole-array construction peak at 12 MB
    tracemalloc.start()
    try:
        propagate._four_step_twiddles.__wrapped__(131072, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


def test_strang_phases_filled_in_place_equal_a_fresh_exp():
    grid = make_grid(2, 4.0, 32)
    spec = HamiltonianSpec.with_potential(grid, gaussian_potential(-2.0))
    kin, pot = propagate._strang_phases.__wrapped__(spec, 0.01)
    m2, m1 = propagate._four_step_factors(32)
    want_kin = np.exp(-1j * 0.01 * kinetic_symbol(spec)).reshape(m1, m2, m1, m2)
    want_pot = np.exp(-0.5j * 0.01 * potential_on_grid(spec))
    assert np.array_equal(kin, want_kin.transpose(1, 0, 3, 2))
    assert np.array_equal(pot, want_pot.reshape(m2, m1, m2, m1))


def _lane_stack(grid):
    return np.stack([_random_field(grid, seed) for seed in (1, 2, 3)])


# dt 1e-2: the remainders are 3e-3, -1.2e-3 (rounded up) and none
_LANE_TIMES = (0.503, -0.2188, 0.31)


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_splitstep_stack_is_bit_identical_at_any_lane_count(monkeypatch, lanes):
    grid = make_grid(1, 8.0, 256)
    spec = HamiltonianSpec.with_potential(grid, gaussian_potential(1.0))
    plan = PropagatorPlan(spec, "splitstep", dt=1e-2)
    values = _lane_stack(grid)
    want = np.stack([evolve(plan, Field(grid, v), t).values
                     for v, t in zip(values, _LANE_TIMES)])
    monkeypatch.setattr(propagate, "_LANES", lanes)
    got = evolve_stack(plan, values, _LANE_TIMES)
    assert np.array_equal(got, want)
    inplace = values.copy()
    assert evolve_stack(plan, inplace, _LANE_TIMES, out=inplace) is inplace
    assert np.array_equal(inplace, want)


@pytest.mark.parametrize("engine", ["multiplier", "dense"])
def test_calculus_stack_with_out_applies_each_row_alone(grid, engine):
    # with out the rows are applied one at a time: the arithmetic of one
    # evolve per row, equal to the batched apply (the dense product only to
    # rounding, as BLAS may sum a batch in another order)
    plan = PropagatorPlan(HamiltonianSpec.free(grid), engine)
    values = _lane_stack(grid)
    batched = evolve_stack(plan, values, _LANE_TIMES)
    rows = np.stack([evolve(plan, Field(grid, v), t).values
                     for v, t in zip(values, _LANE_TIMES)])
    out = np.empty_like(values)
    assert evolve_stack(plan, values, _LANE_TIMES, out=out) is out
    assert np.array_equal(out, rows)
    inplace = values.copy()
    evolve_stack(plan, inplace, _LANE_TIMES, out=inplace)
    assert np.array_equal(inplace, rows)
    if engine == "multiplier":
        assert np.array_equal(out, batched)
    else:
        np.testing.assert_allclose(out, batched, rtol=1e-13,
                                   atol=1e-13 * np.abs(batched).max())


def test_evolve_stack_rejects_an_out_it_cannot_fill(grid):
    plan = PropagatorPlan(HamiltonianSpec.free(grid), "splitstep", dt=1e-2)
    values = _lane_stack(grid)
    for out in (np.empty(values.shape, dtype=np.complex64),
                np.empty(values.shape[::-1], dtype=complex).T,
                np.empty(values.shape[:1], dtype=complex)):
        with pytest.raises(ValueError, match="out must be"):
            evolve_stack(plan, values, _LANE_TIMES, out=out)


@pytest.mark.parametrize("failing", ["caller", "pool"])
def test_a_failing_lane_raises_after_every_lane_stops(monkeypatch, failing):
    grid = make_grid(1, 8.0, 256)
    spec = HamiltonianSpec.with_potential(grid, gaussian_potential(1.0))
    plan = PropagatorPlan(spec, "splitstep", dt=1e-2)
    values = _lane_stack(grid)[:2]
    real_step = propagate._strang_step
    failure = threading.Event()
    finished = []

    def planted(v, work, phases, twiddles):
        here = "caller" if threading.current_thread() is threading.main_thread() \
            else "pool"
        if here == failing:
            failure.set()
            raise RuntimeError("planted")
        assert failure.wait(5.0)    # no step ends before the failure
        real_step(v, work, phases, twiddles)
        finished.append(here)

    monkeypatch.setattr(propagate, "_LANES", 2)
    monkeypatch.setattr(propagate, "_strang_step", planted)
    with pytest.raises(RuntimeError, match="planted"):
        evolve_stack(plan, values, (0.2, 0.2))
    # the other lane ended the step it was in, if any, and stopped at its
    # next claim before the raise: none of its 20 steps runs afterwards
    assert len(finished) <= 1
    time.sleep(0.05)
    assert len(finished) <= 1
    monkeypatch.setattr(propagate, "_strang_step", real_step)
    want = np.stack([evolve(plan, Field(grid, v), 0.2).values for v in values])
    assert np.array_equal(evolve_stack(plan, values, (0.2, 0.2)), want)


def test_lanes_share_the_steps_of_a_stalled_lane(monkeypatch):
    # rows belong to no lane: while one lane is stalled inside a step, the
    # other marches every free row, so a stall holds back one step
    grid = make_grid(1, 8.0, 256)
    spec = HamiltonianSpec.with_potential(grid, gaussian_potential(1.0))
    plan = PropagatorPlan(spec, "splitstep", dt=1e-2)
    values = _lane_stack(grid)
    real_step = propagate._strang_step
    release = threading.Event()
    steps = {"caller": 0, "pool": 0}

    def stalling(v, work, phases, twiddles):
        here = "caller" if threading.current_thread() is threading.main_thread() \
            else "pool"
        if here == "pool" and not steps["pool"]:
            assert release.wait(5.0)
        real_step(v, work, phases, twiddles)
        steps[here] += 1
        if steps["caller"] == 2 * 31:   # both rows the caller could reach
            release.set()

    monkeypatch.setattr(propagate, "_LANES", 2)
    monkeypatch.setattr(propagate, "_strang_step", stalling)
    times = (0.31, 0.31, 0.31)
    got = evolve_stack(plan, values, times)
    monkeypatch.setattr(propagate, "_strang_step", real_step)
    want = np.stack([evolve(plan, Field(grid, v), t).values
                     for v, t in zip(values, times)])
    assert np.array_equal(got, want)
    assert steps["caller"] >= 2 * 31 and sum(steps.values()) == 3 * 31


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs an affinity call and two usable cores")
@pytest.mark.parametrize("failing", [False, True])
def test_lanes_keep_to_cores_of_their_own_and_the_caller_its_affinity(
        monkeypatch, failing):
    grid = make_grid(1, 8.0, 256)
    spec = HamiltonianSpec.with_potential(grid, gaussian_potential(1.0))
    plan = PropagatorPlan(spec, "splitstep", dt=1e-2)
    values = _lane_stack(grid)[:2]
    real_step = propagate._strang_step
    before = os.sched_getaffinity(0)
    both = threading.Barrier(2, timeout=5.0)
    cores = {"caller": set(), "pool": set()}

    def recording(v, work, phases, twiddles):
        here = "caller" if threading.current_thread() is threading.main_thread() \
            else "pool"
        first = not cores[here]
        cores[here].add(frozenset(os.sched_getaffinity(0)))
        if first:
            both.wait()         # both lanes hold a row before any step ends
        if failing:
            raise RuntimeError("planted")
        real_step(v, work, phases, twiddles)

    monkeypatch.setattr(propagate, "_LANES", 2)
    monkeypatch.setattr(propagate, "_strang_step", recording)
    if failing:
        with pytest.raises(RuntimeError, match="planted"):
            evolve_stack(plan, values, (0.2, 0.2))
    else:
        evolve_stack(plan, values, (0.2, 0.2))
    assert os.sched_getaffinity(0) == before
    (caller,), (pool,) = cores["caller"], cores["pool"]
    assert len(caller) == len(pool) == 1 and caller != pool
    assert caller | pool <= before
