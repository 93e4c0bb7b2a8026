"""Evolution engines: exactness, cross-agreement, unitarity, time stepping."""

import math

import numpy as np
import pytest

from obslab import propagate
from obslab.grid import Field, field_from_function, l2_norm, make_grid
from obslab.hamiltonian import HamiltonianSpec, gaussian_potential
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
