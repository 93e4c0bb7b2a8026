"""Impulse control by regularized duality.

The controlled flow is i du/dt = H u with two instantaneous kicks,
u(tau_i^+) = u(tau_i^-) - i M_i h_i, where the masks M_i confine the controls
to the exterior observation regions.  Steering u0 to u_T at time T is solved
through the dual (observation) operator

    O f = (M_1 U(tau_1 - T) f,  M_2 U(tau_2 - T) f),

whose adjoint is i times the control-to-state map.  Minimizing the Tikhonov
functional J(f) = 1/2 ||O f||^2 + eps ||f||^2 - Re<f, i y> with
y = u_T - U(T) u0 leads to the normal equations

    (O* O + 2 eps) f = i y,

solved by conjugate gradients; the controls are (h_1, h_2) = O f*.  The i in
the right-hand side compensates the -i of the kick convention, so the
reconstructed terminal state misses y by exactly 2 eps f*.

apply_observation (O, one masked stack at the signed times tau_i - T) and
apply_control (-i O*, one stack of the masked kicks) are the pair that
adjoint_defect checks and conjugate gradients applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from functools import cached_property

import numpy as np

from .estimate import POWER_SEED
from .grid import Field, exterior_weights, inner, l2_norm, mass_in_region
from .hamiltonian import DENSE_LIMIT, HamiltonianSpec
from .inequality import second_observation_radius
from .propagate import PropagatorPlan, evolve, evolve_stack


@dataclass(frozen=True)
class ControlProblem:
    hamiltonian: HamiltonianSpec
    u0: Field
    u_target: Field
    tau1: float
    tau2: float
    horizon: float
    radius: float
    sigma: float

    def __post_init__(self):
        if not 0 < self.tau1 < self.tau2 < self.horizon:
            raise ValueError("need 0 < tau1 < tau2 < horizon")
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        for f in (self.u0, self.u_target):
            if f.grid != self.hamiltonian.grid:
                raise ValueError("state grid does not match the hamiltonian")

    @property
    def second_radius(self) -> float:
        if self.radius == 0:
            return 0.0
        return second_observation_radius(self.hamiltonian, self.radius,
                                         self.sigma, self.tau2 - self.tau1)

    @cached_property
    def _masks(self) -> tuple[np.ndarray, np.ndarray]:
        masks = []
        for r in (self.radius, self.second_radius):
            m = exterior_weights(self.hamiltonian.grid, r, closed=r > 0)
            m.flags.writeable = False
            masks.append(m)
        return tuple(masks)

    def mask(self, index: int) -> np.ndarray:
        """Read-only weights of the region |x| > r_index, one minus the closed
        ball; at radius 0 the removed ball is open, hence empty, and the
        region is everything.  Built once per problem."""
        return self._masks[index - 1]


def apply_observation(plan: PropagatorPlan, problem: ControlProblem,
                      f: Field) -> tuple[Field, Field]:
    """O f: the dual state U(tau_i - T) f, masked at both observation times."""
    g = problem.hamiltonian.grid
    b = evolve_stack(plan, np.stack([f.values, f.values]),
                     (problem.tau1 - problem.horizon,
                      problem.tau2 - problem.horizon))
    return Field(g, problem.mask(1) * b[0]), Field(g, problem.mask(2) * b[1])


def _kicked(plan, problem, h1, h2):
    """The two terms U(T - tau_i) M_i h_i of O* (h1, h2), evolved as one stack."""
    kicks = np.stack([problem.mask(1) * h1.values, problem.mask(2) * h2.values])
    return evolve_stack(plan, kicks, (problem.horizon - problem.tau1,
                                      problem.horizon - problem.tau2))


def apply_control(plan: PropagatorPlan, problem: ControlProblem,
                  h1: Field, h2: Field) -> Field:
    """Terminal state u(T) of the kicked flow started from zero: -i O* (h1, h2)."""
    k = _kicked(plan, problem, h1, h2)
    return Field(problem.hamiltonian.grid, -1j * (k[0] + k[1]))


def adjoint_defect(plan: PropagatorPlan, problem: ControlProblem,
                   probes: int = 16, seed: int = POWER_SEED) -> float:
    """max |<Of,(h1,h2)> - <f, i apply_control(h)>| / scale over random probes."""
    g = problem.hamiltonian.grid
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(probes):
        draws = [rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
                 for _ in range(3)]
        f, h1, h2 = (Field(g, d) for d in draws)
        o1, o2 = apply_observation(plan, problem, f)
        lhs = inner(o1, h1) + inner(o2, h2)
        rhs = inner(f, Field(g, 1j * apply_control(plan, problem, h1, h2).values))
        scale = max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


@dataclass
class ControlSolution:
    h1: Field
    h2: Field
    dual: Field
    terminal_error: float
    cost: float
    iterations: int
    converged: bool
    gradient_norm: float
    y_norm: float                 # || u_target - U(T) u0 ||, what is steered
    j_path: list = dfield(default_factory=list)


def solve_impulse_control(plan: PropagatorPlan, problem: ControlProblem,
                          epsilon: float, tol: float = 1e-8,
                          max_iter: int = 2000) -> ControlSolution:
    """Tikhonov-regularized dual minimization; see the module docstring."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    g = problem.hamiltonian.grid
    cell = g.cell_volume
    drift = evolve(plan, problem.u0, problem.horizon)
    y = problem.u_target.values - drift.values
    ynorm = l2_norm(Field(g, y))
    zero = Field(g, np.zeros(g.shape, dtype=complex))
    if ynorm == 0.0:
        return ControlSolution(zero, zero, zero, 0.0, 0.0, 0, True, 0.0, 0.0,
                               [0.0])

    target = 1j * y
    f = np.zeros(g.shape, dtype=complex)
    gf = np.zeros_like(f)
    r = target - gf
    p = r.copy()
    rr = cell * float(np.vdot(r, r).real)
    j_path = [0.0]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        k = _kicked(plan, problem, *apply_observation(plan, problem, Field(g, p)))
        gp = 2.0 * epsilon * p + k[0] + k[1]        # (O* O + 2 eps) p
        denom = cell * float(np.vdot(p, gp).real)
        if denom <= 0:
            break
        alpha = rr / denom
        f = f + alpha * p
        gf = gf + alpha * gp
        r = target - gf
        # J(f) = 1/2 <f, Gf> - Re<f, target>
        j_path.append(0.5 * cell * float(np.vdot(f, gf).real)
                      - cell * float(np.vdot(f, target).real))
        rr_new = cell * float(np.vdot(r, r).real)
        if math.sqrt(rr_new) <= tol * ynorm:
            converged = True
            rr = rr_new
            break
        p = r + (rr_new / rr) * p
        rr = rr_new

    h1, h2 = apply_observation(plan, problem, Field(g, f))
    reached = apply_control(plan, problem, h1, h2)
    terminal = l2_norm(Field(g, reached.values - y))
    cost = l2_norm(h1) ** 2 + l2_norm(h2) ** 2
    return ControlSolution(h1, h2, Field(g, f), terminal, cost, iterations,
                           converged, math.sqrt(rr), ynorm, j_path)


@dataclass
class ControlCheck:
    residual: float               # || u(T; u0, h) - u_target ||
    residual_relative: float
    support_violation: float      # max over i of ||(1 - M_i) h_i||
    engine_used: str
    within_factor: float          # residual / terminal_error (inf when 0/0)


def verify_control(plan: PropagatorPlan, problem: ControlProblem,
                   solution: ControlSolution) -> ControlCheck:
    """Re-simulate the kicked flow, on an independent engine when affordable."""
    spec = problem.hamiltonian
    engine = plan.engine
    if spec.grid.dofs <= DENSE_LIMIT and plan.engine != "dense":
        engine = "dense"
    elif spec.is_multiplier and plan.engine != "multiplier":
        engine = "multiplier"
    check_plan = PropagatorPlan(spec, engine, dt=plan.dt)
    drift = evolve(check_plan, problem.u0, problem.horizon)
    reached = apply_control(check_plan, problem, solution.h1, solution.h2)
    residual = l2_norm(Field(spec.grid, drift.values + reached.values
                             - problem.u_target.values))
    tnorm = l2_norm(problem.u_target)
    sup = max(math.sqrt(mass_in_region(h, 1.0 - problem.mask(idx)))
              for idx, h in ((1, solution.h1), (2, solution.h2)))
    if solution.terminal_error > 0:
        factor = residual / solution.terminal_error
    else:
        factor = 0.0 if residual == 0 else math.inf
    return ControlCheck(residual, residual / max(tnorm, 1e-300), sup,
                        engine, factor)


def epsilon_path(plan: PropagatorPlan, problem: ControlProblem,
                 epsilons=(1e-2, 1e-4, 1e-6)) -> list[ControlSolution]:
    """Solves along a decreasing regularization ladder (error down, cost up)."""
    eps = list(epsilons)
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly decreasing")
    return [solve_impulse_control(plan, problem, e) for e in eps]

