"""Time integration of the two-habitat selection-mutation-migration system.

The state is a pair of phenotype densities (u1, u2) on the x1 axis of the
truncated box. Each density diffuses with coefficient mu**2 / 2 (mutation),
grows at the axis fitness of fitness_fields (minus the habitat's total mass
under logistic growth), and exchanges mass with the other habitat through
migration. Masses and mean fitnesses of the profile are those of the
n-trait density, which is the profile times N(0, mu I_{n-1}).

Time stepping uses an embedded Dormand-Prince 5(4) pair with PI step-size
control. Steps land exactly on the record cadence, so no dense output is
needed. Tiny negative undershoots (above -abs_tol) are clipped to zero;
anything more negative aborts, as does a state that stops being finite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import model
from .grid import Field2, Grid, integrate, laplacian


class SolverError(RuntimeError):
    """Numerical failure during time integration."""


@dataclass
class SolverConfig:
    """Integrator settings.

    Attributes:
        t_end: final time (>= 0; zero records initial diagnostics only).
        dt_init: initial trial step.
        rel_tol / abs_tol: embedded-error tolerances (mixed norm).
        record_every: cadence of trajectory records.
        extinction_rel: relative total-mass threshold below which the run
            is flagged extinct and stopped early.
        max_steps: hard cap on accepted steps.
    """

    t_end: float
    dt_init: float = 1e-3
    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    record_every: float = 0.5
    extinction_rel: float = 1e-12
    max_steps: int = 2_000_000

    def __post_init__(self) -> None:
        eps = np.finfo(float).eps
        if not (self.t_end >= 0):
            raise ValueError(f"t_end must be >= 0, got {self.t_end!r}")
        if not (self.dt_init > 0):
            raise ValueError(f"dt_init must be > 0, got {self.dt_init!r}")
        if self.rel_tol < 100 * eps:
            raise ValueError(f"rel_tol must be >= {100 * eps:.3g}, got {self.rel_tol!r}")
        if not (self.abs_tol > 0):
            raise ValueError(f"abs_tol must be > 0, got {self.abs_tol!r}")
        if not (self.record_every > 0):
            raise ValueError(f"record_every must be > 0, got {self.record_every!r}")
        if not (0 < self.extinction_rel < 1):
            raise ValueError(f"extinction_rel must be in (0, 1), got {self.extinction_rel!r}")


@dataclass
class Trajectory:
    """Time series of habitat masses and mean fitnesses (PDE or IBM runs).

    Mean fitness of an empty habitat is recorded as nan: a deliberate
    undefined-value marker, never the result of a 0/0 division.
    """

    t: np.ndarray
    N1: np.ndarray
    N2: np.ndarray
    rbar1: np.ndarray
    rbar2: np.ndarray
    extinct: bool = False

    def n_total(self) -> np.ndarray:
        return self.N1 + self.N2


def fitness_fields(params: model.ModelParams, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Axis fitness (r1, r2): r_i(x1, 0, ..., 0) - (n - 1) mu / 2 at the nodes.

    The only place where the trait dimension n enters the numerics. The
    n - 1 transverse traits see isotropic mutation and the same quadratic
    selection about 0 in both habitats: a harmonic oscillator whose
    stationary Gaussian N(0, mu) decays at exactly (n - 1) mu / 2 (Mehler's
    formula), the fitness averaged over it. So the one-trait eigenproblem
    and PDE with this fitness are the n-trait ones, whose density is the
    x1 profile times N(0, mu I_{n-1}). A grid of another n is a ValueError.
    """
    if grid.n != params.n:
        raise ValueError(f"grid has {grid.n} trait(s) but the model has {params.n}")
    x = np.zeros((grid.m, params.n))
    x[:, 0] = grid.axis()
    load = 0.5 * (params.n - 1) * params.mu
    return model.fitness(params, 1, x) - load, model.fitness(params, 2, x) - load


def gaussian_initial(grid: Grid, center: float, variance: float, mass: float) -> np.ndarray:
    """Gaussian x1 profile at center, scaled so its trapezoid integral equals mass.

    Warns if the center lies outside the box.
    """
    if not (variance > 0):
        raise ValueError(f"variance must be > 0, got {variance!r}")
    if not (mass > 0):
        raise ValueError(f"mass must be > 0, got {mass!r}")
    c = float(center)
    if abs(c) > grid.L:
        warnings.warn(f"gaussian_initial center {c} lies outside the box [-{grid.L}, {grid.L}]",
                      stacklevel=2)
    g = np.exp(-0.5 * np.square(grid.axis() - c) / variance)
    z = integrate(grid, g)
    if z <= 0:
        raise ValueError("initial bump has zero mass on this grid (variance too small for h?)")
    return g * (mass / z)


def diagnostics(params: model.ModelParams, grid: Grid, state: Field2):
    """(N1, N2, rbar1, rbar2) for a state; rbar of an empty habitat is nan."""
    r1, r2 = fitness_fields(params, grid)
    return _diagnostics(grid, state.u1, state.u2, r1, r2)


def _diagnostics(grid: Grid, u1: np.ndarray, u2: np.ndarray, r1: np.ndarray, r2: np.ndarray):
    n1 = integrate(grid, u1)
    n2 = integrate(grid, u2)
    rbar1 = integrate(grid, r1 * u1) / n1 if n1 > 0 else math.nan
    rbar2 = integrate(grid, r2 * u2) / n2 if n2 > 0 else math.nan
    return n1, n2, rbar1, rbar2


def rhs(params: model.ModelParams, grid: Grid, state: Field2) -> Field2:
    """Right-hand side of the coupled system at the given state."""
    r1, r2 = fitness_fields(params, grid)
    f = _make_rhs(params, grid, r1, r2)
    y = np.stack([state.u1, state.u2])
    dy = f(y)
    return Field2(dy[0], dy[1])


def _make_rhs(params: model.ModelParams, grid: Grid, r1: np.ndarray, r2: np.ndarray):
    """Build a stacked-array RHS closure; state y has shape (2, m)."""
    half_mu2 = 0.5 * params.mu * params.mu
    logistic = params.growth == model.GROWTH_LOGISTIC
    d11, d12, d21, d22 = params.migration.rates

    def f(y: np.ndarray) -> np.ndarray:
        u1, u2 = y[0], y[1]
        g1 = r1 * u1
        g2 = r2 * u2
        if logistic:
            # Per-habitat total mass enters the growth term and is recomputed
            # from the current state on every evaluation.
            g1 = g1 - integrate(grid, u1) * u1
            g2 = g2 - integrate(grid, u2) * u2
        du1 = half_mu2 * laplacian(grid, u1) + g1 - d11 * u1 + d12 * u2
        du2 = half_mu2 * laplacian(grid, u2) + g2 + d21 * u1 - d22 * u2
        return np.stack([du1, du2])

    return f


# Dormand-Prince 5(4) tableau (FSAL: stage 7 is the next step's stage 1).
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
# b5 - b4: weights of the embedded error estimate.
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def integrate_to(params: model.ModelParams, grid: Grid, state0: Field2,
                 config: SolverConfig) -> tuple[Trajectory, Field2]:
    """Integrate from state0 to t_end, recording every record_every time units.

    Returns the trajectory and the final state. The run stops early (with
    trajectory.extinct set) once total mass falls below extinction_rel times
    its initial value.

    Raises:
        ValueError: empty initial habitat or mismatched shapes.
        SolverError: non-finite state, step-size underflow (including a
            negative undershoot below -abs_tol that persists at the minimal
            step), or step budget exhausted.
    """
    if state0.u1.shape != grid.shape:
        raise ValueError(f"state shape {state0.u1.shape} does not match grid shape {grid.shape}")
    r1, r2 = fitness_fields(params, grid)
    f = _make_rhs(params, grid, r1, r2)

    y = np.stack([np.asarray(state0.u1, dtype=float), np.asarray(state0.u2, dtype=float)])
    if np.any(y < 0):
        raise ValueError("initial densities must be nonnegative")
    n1_0, n2_0, rb1, rb2 = _diagnostics(grid, y[0], y[1], r1, r2)
    if n1_0 <= 0 or n2_0 <= 0:
        raise ValueError(f"initial mass must be positive in each habitat, got N1={n1_0}, N2={n2_0}")
    mass0 = n1_0 + n2_0

    # Record times: the cadence grid plus t_end itself.
    n_rec = int(math.floor(config.t_end / config.record_every + 1e-9))
    rec_times = [k * config.record_every for k in range(1, n_rec + 1)]
    if not rec_times or rec_times[-1] < config.t_end - 1e-9 * config.t_end:
        rec_times.append(config.t_end)
    rec_t = [0.0]
    rec_n1, rec_n2 = [n1_0], [n2_0]
    rec_rb1, rec_rb2 = [rb1], [rb2]

    t = 0.0
    dt = min(config.dt_init, rec_times[0])
    k1 = f(y)
    err_prev = 1.0
    extinct = False
    n_stages = 7
    ks = [k1] + [None] * (n_stages - 1)
    safety, fac_min, fac_max = 0.9, 0.2, 5.0
    # PI exponents for a 5th-order pair (Soderlind-style control).
    pi_alpha, pi_beta = 0.7 / 5.0, 0.4 / 5.0
    i_rec = 0
    steps = 0

    while t < config.t_end - 1e-12 * config.t_end:
        if steps >= config.max_steps:
            raise SolverError(f"step budget {config.max_steps} exhausted at t={t:.6g}")
        target = rec_times[i_rec]
        dt = min(dt, target - t)
        dt_min = 1e-14 * max(1.0, abs(t))
        if dt < dt_min:
            raise SolverError(f"step size underflow at t={t:.6g} (dt={dt:.3g})")

        for s in range(1, n_stages):
            acc = ks[0] * _DP_A[s][0]
            for j in range(1, s):
                if _DP_A[s][j] != 0.0:
                    acc = acc + ks[j] * _DP_A[s][j]
            ks[s] = f(y + dt * acc)
        y_new = y + dt * (
            _DP_B5[0] * ks[0] + _DP_B5[2] * ks[2] + _DP_B5[3] * ks[3]
            + _DP_B5[4] * ks[4] + _DP_B5[5] * ks[5]
        )
        err_vec = dt * (
            _DP_E[0] * ks[0] + _DP_E[2] * ks[2] + _DP_E[3] * ks[3]
            + _DP_E[4] * ks[4] + _DP_E[5] * ks[5] + _DP_E[6] * ks[6]
        )

        finite = bool(np.isfinite(y_new).all())
        if finite:
            # Weighted max norm: every node individually within tolerance,
            # so an accepted step cannot undershoot past -abs_tol by more
            # than the estimate-vs-truth slack.
            scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            err = float(np.max(np.abs(err_vec) / scale))
            undershot = float(y_new.min()) < -config.abs_tol
        else:
            err = math.inf
            undershot = False

        if err <= 1.0 and not undershot:
            t_new = t + dt
            neg = y_new < 0
            if neg.any():
                y_new[neg] = 0.0  # within (-abs_tol, 0) by the check above
            y = y_new
            t = t_new
            steps += 1
            ks[0] = ks[6] if not neg.any() else f(y)  # FSAL unless clipping dirtied the state
            factor = safety * max(err, 1e-10) ** -pi_alpha * err_prev**pi_beta
            err_prev = max(err, 1e-10)
            if t >= target - 1e-12 * max(1.0, target):
                t = target
                n1, n2, rb1, rb2 = _diagnostics(grid, y[0], y[1], r1, r2)
                rec_t.append(t)
                rec_n1.append(n1)
                rec_n2.append(n2)
                rec_rb1.append(rb1)
                rec_rb2.append(rb2)
                i_rec += 1
                if n1 + n2 < config.extinction_rel * mass0:
                    extinct = True
                    break
            dt *= min(fac_max, max(fac_min, factor))
        else:
            if not finite and dt < 1e-13 * max(1.0, abs(t)):
                raise SolverError(f"state became non-finite at t={t:.6g} even at dt={dt:.3g}")
            if not finite:
                factor = 0.25
            elif undershot and err <= 1.0:
                factor = 0.5  # undershoot the error estimate missed
            else:
                factor = safety * err**-pi_alpha
            dt *= min(1.0, max(fac_min, factor))

    traj = Trajectory(
        t=np.asarray(rec_t),
        N1=np.asarray(rec_n1),
        N2=np.asarray(rec_n2),
        rbar1=np.asarray(rec_rb1),
        rbar2=np.asarray(rec_rb2),
        extinct=extinct,
    )
    return traj, Field2(y[0].copy(), y[1].copy())
