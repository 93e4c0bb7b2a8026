"""Impulse control: duality, regularization ladder, cross-engine re-simulation."""

import math

import numpy as np
import pytest

from obslab.control import (ControlProblem, adjoint_defect, apply_control,
                            apply_observation, epsilon_path, solve_impulse_control, verify_control)
from obslab.grid import Field, l2_norm, make_grid, radius_squared
from obslab.hamiltonian import HamiltonianSpec
from obslab.propagate import PropagatorPlan, evolve


def packet(grid, center=0.0, speed=0.0, width=1.0):
    x = np.fft.fftshift(np.fft.fftfreq(grid.points_per_axis)) * 2.0 * grid.half_extent
    v = np.exp(1j * speed * x) * np.exp(-((x - center) ** 2) / (2.0 * width**2))
    v = v.astype(complex)
    return Field(grid, v / np.sqrt(grid.cell_volume * np.vdot(v, v).real))


@pytest.fixture(scope="module")
def setup():
    g = make_grid(1, 16.0, 256)
    spec = HamiltonianSpec(g, "free")
    plan = PropagatorPlan(spec, "multiplier")
    u0 = packet(g)
    u_target = packet(g, center=3.0, speed=1.0)
    problem = ControlProblem(spec, u0, u_target, 0.5, 1.0, 2.0, 0.0, 1.0)
    return g, spec, plan, u0, u_target, problem


def test_problem_validation(setup):
    g, spec, _, u0, ut, _ = setup
    with pytest.raises(ValueError, match="tau1"):
        ControlProblem(spec, u0, ut, 0.0, 1.0, 2.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="tau1"):
        ControlProblem(spec, u0, ut, 1.0, 0.5, 2.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="tau1"):
        ControlProblem(spec, u0, ut, 0.5, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="radius"):
        ControlProblem(spec, u0, ut, 0.5, 1.0, 2.0, -1.0, 1.0)
    other = make_grid(1, 16.0, 512)
    bad = packet(other)
    with pytest.raises(ValueError, match="grid"):
        ControlProblem(spec, bad, ut, 0.5, 1.0, 2.0, 0.0, 1.0)


def test_geometry_rules(setup):
    g, spec, _, u0, ut, problem = setup
    # radius 0: control allowed everywhere, no second-ball scaling
    assert problem.second_radius == 0.0
    assert np.all(problem.mask(1) == 1.0)
    assert np.all(problem.mask(2) == 1.0)
    ball = ControlProblem(spec, u0, ut, 0.5, 1.0, 2.0, 1.0, 1.0)
    # sigma (tau2 - tau1) / R^(p-1) with p = 2
    assert ball.second_radius == pytest.approx(0.5)
    outside = (radius_squared(g) > 1.0).astype(float)
    assert np.array_equal(ball.mask(1), outside)
    assert np.array_equal(ball.mask(2), (radius_squared(g) > 0.25).astype(float))


def test_masks_are_built_once_and_read_only(setup):
    _, spec, _, u0, ut, _ = setup
    ball = ControlProblem(spec, u0, ut, 0.5, 1.0, 2.0, 1.0, 1.0)
    for index in (1, 2):
        mask = ball.mask(index)
        assert ball.mask(index) is mask
        assert not mask.flags.writeable
    assert ball.mask(1) is not ball.mask(2)


def test_zero_target_is_exactly_zero(setup):
    g, spec, plan, u0, _, _ = setup
    drift = evolve(plan, u0, 2.0)
    problem = ControlProblem(spec, u0, drift, 0.5, 1.0, 2.0, 0.0, 1.0)
    sol = solve_impulse_control(plan, problem, 1e-6)
    assert sol.converged
    assert sol.iterations == 0
    assert sol.terminal_error == 0.0
    assert sol.cost == 0.0
    assert np.all(sol.h1.values == 0.0) and np.all(sol.h2.values == 0.0)
    assert sol.j_path == [0.0]


def test_observation_adjoint_matches_control(setup):
    _, _, plan, _, _, problem = setup
    assert adjoint_defect(plan, problem, probes=6) < 1e-8


def test_control_map_is_linear(setup):
    g, _, plan, _, _, problem = setup
    rng = np.random.default_rng(7)
    h1 = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    h2 = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    zero = Field(g, np.zeros(g.shape, dtype=complex))
    both = apply_control(plan, problem, h1, h2)
    split = (apply_control(plan, problem, h1, zero).values
             + apply_control(plan, problem, zero, h2).values)
    np.testing.assert_allclose(split, both.values, atol=1e-12)
    doubled = apply_control(plan, problem, Field(g, 2.0 * h1.values),
                            Field(g, 2.0 * h2.values))
    np.testing.assert_allclose(doubled.values, 2.0 * both.values, atol=1e-12)


@pytest.mark.parametrize("engine", ["multiplier", "splitstep", "dense"])
def test_stacked_kicks_match_two_single_evolves(setup, engine):
    g, spec, _, u0, ut, _ = setup
    plan = PropagatorPlan(spec, engine, dt=1e-2)
    problem = ControlProblem(spec, u0, ut, 0.5, 1.0, 2.0, 1.0, 1.0)
    rng = np.random.default_rng(11)
    h1, h2 = (Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
              for _ in range(2))
    k1 = evolve(plan, Field(g, problem.mask(1) * h1.values), 1.5)
    k2 = evolve(plan, Field(g, problem.mask(2) * h2.values), 1.0)
    want = -1j * (k1.values + k2.values)
    got = apply_control(plan, problem, h1, h2).values
    if engine == "dense":
        np.testing.assert_allclose(got, want, rtol=1e-13,
                                   atol=1e-13 * np.abs(want).max())
    else:
        assert np.array_equal(got, want)


def test_full_mask_solution_hits_regularization_floor(setup):
    g, spec, plan, u0, ut, problem = setup
    eps = 1e-6
    sol = solve_impulse_control(plan, problem, eps)
    drift = evolve(plan, u0, 2.0)
    y = Field(g, ut.values - drift.values)
    ynorm = l2_norm(y)
    assert sol.converged
    assert sol.gradient_norm <= 1e-8 * ynorm
    # unmasked observation is an isometry, so the miss is exactly 2 eps f
    assert abs(sol.terminal_error - 2.0 * eps * l2_norm(sol.dual)) < 1e-7 * ynorm
    assert sol.terminal_error / ynorm < 1e-3
    assert sol.cost > 0.0
    # J decreases along conjugate gradients and ends negative
    tail = np.asarray(sol.j_path[1:])
    assert tail[-1] < 0.0
    assert np.all(np.diff(sol.j_path) <= 1e-12)


def test_masked_problem_verifies_on_second_engine(setup):
    g, spec, plan, u0, ut, _ = setup
    problem = ControlProblem(spec, u0, ut, 0.5, 1.0, 2.0, 1.0, 1.0)
    sol = solve_impulse_control(plan, problem, 1e-4)
    assert sol.converged
    check = verify_control(plan, problem, sol)
    assert check.engine_used == "dense"
    assert check.support_violation == 0.0
    assert check.within_factor < 2.0
    assert check.residual_relative < 1.0


def test_dual_solves_normal_equations_of_the_public_pair(setup):
    # CG inverts O* O + 2 eps with O = apply_observation, i O* = apply_control
    g, spec, plan, u0, ut, _ = setup
    problem = ControlProblem(spec, u0, ut, 0.5, 1.0, 2.0, 1.0, 1.0)
    eps, tol = 1e-4, 1e-8
    sol = solve_impulse_control(plan, problem, eps, tol=tol)
    assert sol.converged
    y = ut.values - evolve(plan, u0, 2.0).values
    assert sol.y_norm == pytest.approx(l2_norm(Field(g, y)), rel=1e-14)
    f = sol.dual
    gram = 1j * apply_control(plan, problem, *apply_observation(plan, problem, f)).values
    miss = Field(g, 2.0 * eps * f.values + gram - 1j * y)
    assert l2_norm(miss) <= tol * sol.y_norm


def test_epsilon_ladder_trades_error_for_cost(setup):
    _, _, plan, _, _, problem = setup
    sols = epsilon_path(plan, problem, (1e-2, 1e-4, 1e-6))
    errors = [s.terminal_error for s in sols]
    costs = [s.cost for s in sols]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert all(b >= a for a, b in zip(costs, costs[1:]))
    with pytest.raises(ValueError, match="decreasing"):
        epsilon_path(plan, problem, (1e-4, 1e-2))
    with pytest.raises(ValueError, match="decreasing"):
        epsilon_path(plan, problem, (1e-3, 1e-3))


def test_splitstep_solution_verifies(setup):
    g, spec, _, u0, ut, problem = setup
    ss = PropagatorPlan(spec, "splitstep", dt=1e-2)
    sol = solve_impulse_control(ss, problem, 1e-4)
    assert sol.converged
    check = verify_control(ss, problem, sol)
    assert check.engine_used == "dense"
    assert check.within_factor < 2.0


def test_solver_rejects_bad_epsilon(setup):
    _, _, plan, _, _, problem = setup
    with pytest.raises(ValueError, match="epsilon"):
        solve_impulse_control(plan, problem, 0.0)
