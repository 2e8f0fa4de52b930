"""Time integration of the two-habitat selection-mutation-migration system.

The state is a pair of phenotype densities (u1, u2) on the x1 axis of the
truncated box. Each density diffuses with coefficient mu**2 / 2 (mutation),
grows at the axis fitness of fitness_fields (minus the habitat's total mass
under logistic growth), and exchanges mass with the other habitat through
migration. Masses and mean fitnesses of the profile are those of the
n-trait density, which is the profile times N(0, mu I_{n-1}).

The right-hand side is -A u with A = two_habitat_operator, the sparse matrix
whose smallest eigenvalue eigen computes, minus N_i u_i per habitat under
logistic growth (N_i a trapezoid-weight dot product).

Time stepping uses an embedded Dormand-Prince 5(4) pair with PI step-size
control. Steps land exactly on the record cadence, so no dense output is
needed. Tiny negative undershoots (above -abs_tol) are clipped to zero;
anything more negative aborts, as does a state that stops being finite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import model
# laplacian stays a module attribute for bench/tracing.py, which wraps it here.
from .grid import Field2, Grid, integrate, laplacian  # noqa: F401


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
    # PDE solver counters (0 for IBM runs): rhs_evals is 1 + 6 (steps +
    # rejected) plus one per accepted step whose state was clipped.
    steps: int = 0
    rejected: int = 0
    rhs_evals: int = 0

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


def neg_laplacian_matrix(grid: Grid) -> sp.csr_matrix:
    """-d^2/dx1^2 as a sparse tridiagonal matrix (Dirichlet zero ghosts)."""
    e = np.ones(grid.m)
    return (sp.diags([-e[1:], 2.0 * e, -e[1:]], [-1, 0, 1]) / (grid.h * grid.h)).tocsr()


def two_habitat_operator(params: model.ModelParams, grid: Grid) -> sp.csr_matrix:
    """A on stacked pairs (v1, v2): (A v)_i = -(mu^2/2) v_i'' - (r_i - d_ii) v_i - d_ij v_j.

    Malthusian growth is du/dt = -A u; eigen finds its smallest eigenvalue.
    """
    r1, r2 = fitness_fields(params, grid)
    d11, d12, d21, d22 = params.migration.rates
    half_mu2 = 0.5 * params.mu * params.mu
    neg_lap = neg_laplacian_matrix(grid)
    eye = sp.identity(grid.size)
    a11 = half_mu2 * neg_lap - sp.diags(r1 - d11)
    a22 = half_mu2 * neg_lap - sp.diags(r2 - d22)
    return sp.bmat([[a11, -d12 * eye], [-d21 * eye, a22]], format="csr")


def _mass_weights(params: model.ModelParams, grid: Grid) -> np.ndarray | None:
    """Trapezoid weights of the logistic mass term; None under Malthusian growth."""
    if params.growth != model.GROWTH_LOGISTIC:
        return None
    return np.r_[0.5, np.ones(grid.m - 2), 0.5] * grid.h


def _rhs(gen: sp.csr_matrix, weights: np.ndarray | None, y: np.ndarray) -> np.ndarray:
    """gen @ y, minus N_i u_i per habitat when weights are given; y is (u1, u2) stacked."""
    dy = gen @ y
    if weights is not None:
        u = y.reshape(2, -1)
        du = dy.reshape(2, -1)
        du -= (u @ weights)[:, None] * u
    return dy


def rhs(params: model.ModelParams, grid: Grid, state: Field2) -> Field2:
    """Right-hand side of the coupled system at the given state."""
    y = np.concatenate([state.u1, state.u2])
    dy = _rhs(-two_habitat_operator(params, grid), _mass_weights(params, grid), y)
    return Field2(dy[:grid.size], dy[grid.size:])


# Dormand-Prince 5(4) tableau; the last row is b5, so the last stage input is
# y_new and stage 7 is the next step's stage 1 (FSAL). No nodes c: autonomous.
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
# b5 - b4: weights of the embedded error estimate.
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


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
    gen = -two_habitat_operator(params, grid)
    weights = _mass_weights(params, grid)
    m = grid.size

    y = np.concatenate([np.asarray(state0.u1, dtype=float), np.asarray(state0.u2, dtype=float)])
    if np.any(y < 0):
        raise ValueError("initial densities must be nonnegative")
    n1_0, n2_0, rb1, rb2 = _diagnostics(grid, y[:m], y[m:], r1, r2)
    if n1_0 <= 0 or n2_0 <= 0:
        raise ValueError(f"initial mass must be positive in each habitat, got N1={n1_0}, N2={n2_0}")
    mass0 = n1_0 + n2_0

    # Record times: the cadence grid plus t_end itself.
    n_rec = int(math.floor(config.t_end / config.record_every + 1e-9))
    rec_times = [k * config.record_every for k in range(1, n_rec + 1)]
    if not rec_times or rec_times[-1] < config.t_end - 1e-9 * config.t_end:
        rec_times.append(config.t_end)
    records = [(0.0, n1_0, n2_0, rb1, rb2)]  # (t, N1, N2, rbar1, rbar2)

    t = 0.0
    dt = min(config.dt_init, rec_times[0])
    # Stage derivatives, one row each; every stage input, y_new and the
    # error vector is a tableau row times this array.
    ks = np.empty((7, y.size))
    ks[0] = _rhs(gen, weights, y)
    rhs_evals = 1
    err_prev = 1.0
    extinct = False
    safety, fac_min, fac_max = 0.9, 0.2, 5.0
    # PI exponents for a 5th-order pair (Soderlind-style control).
    pi_alpha, pi_beta = 0.7 / 5.0, 0.4 / 5.0
    i_rec = 0
    steps = rejected = 0

    while t < config.t_end - 1e-12 * config.t_end:
        if steps >= config.max_steps:
            raise SolverError(f"step budget {config.max_steps} exhausted at t={t:.6g}")
        target = rec_times[i_rec]
        dt = min(dt, target - t)
        dt_min = 1e-14 * max(1.0, abs(t))
        if dt < dt_min:
            raise SolverError(f"step size underflow at t={t:.6g} (dt={dt:.3g})")

        for s in range(1, 7):
            y_new = y + dt * (_DP_A[s, :s] @ ks[:s])
            ks[s] = _rhs(gen, weights, y_new)
        rhs_evals += 6
        err_vec = dt * (_DP_E @ ks)

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
            clipped = bool(neg.any())
            if clipped:
                y_new[neg] = 0.0  # within (-abs_tol, 0) by the check above
            y = y_new
            t = t_new
            steps += 1
            # FSAL unless clipping dirtied the state
            ks[0] = _rhs(gen, weights, y) if clipped else ks[6]
            rhs_evals += clipped
            factor = safety * max(err, 1e-10) ** -pi_alpha * err_prev**pi_beta
            err_prev = max(err, 1e-10)
            if t >= target - 1e-12 * max(1.0, target):
                t = target
                n1, n2, rb1, rb2 = _diagnostics(grid, y[:m], y[m:], r1, r2)
                records.append((t, n1, n2, rb1, rb2))
                i_rec += 1
                if n1 + n2 < config.extinction_rel * mass0:
                    extinct = True
                    break
            dt *= min(fac_max, max(fac_min, factor))
        else:
            rejected += 1
            if not finite and dt < 1e-13 * max(1.0, abs(t)):
                raise SolverError(f"state became non-finite at t={t:.6g} even at dt={dt:.3g}")
            if not finite:
                factor = 0.25
            elif undershot and err <= 1.0:
                factor = 0.5  # undershoot the error estimate missed
            else:
                factor = safety * err**-pi_alpha
            dt *= min(1.0, max(fac_min, factor))

    traj = Trajectory(*np.array(records).T.copy(), extinct=extinct, steps=steps,
                      rejected=rejected, rhs_evals=rhs_evals)
    return traj, Field2(y[:m].copy(), y[m:].copy())
