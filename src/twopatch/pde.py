"""The two-habitat selection-mutation-migration system, solved exactly in time.

The state is a pair of phenotype densities (u1, u2) on the x1 axis of the
truncated box. Each density diffuses with coefficient mu**2 / 2 (mutation),
grows at the axis fitness of fitness_fields (minus the habitat's total mass
under logistic growth), and exchanges mass with the other habitat through
migration. Masses and mean fitnesses of the profile are those of the
n-trait density, which is the profile times N(0, mu I_{n-1}).

The right-hand side is -A u with A = two_habitat_operator, the sparse matrix
whose smallest eigenvalue eigen computes, minus N_i u_i per habitat under
logistic growth (N_i a trapezoid-weight dot product).

integrate_to solves this system exactly in time, with no time step: the
linear system by its matrix exponential (an eigendecomposition of the
diagonally symmetrised A, or expm under one-way migration), logistic growth
by the rescaling of the Malthusian solution that mirror-symmetric data allow.
Mirror runs (Symmetric migration, rmax1 = rmax2, u2 = u1 reversed to 1e-12
of the state's max) stay in the even subspace of the habitat swap
J(u1, u2) = (rev u2, rev u1), so they decompose the m x m reduced_operator
that eigen's ladder also assembles, not the 2m x 2m A.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from . import model
# laplacian and integrate stay module attributes for bench/tracing.py, which wraps them here.
from .grid import Field2, Grid, integrate, laplacian  # noqa: F401


class SolverError(RuntimeError):
    """Numerical failure of a solve: overflow or a state below roundoff of zero."""


@dataclass
class SolverConfig:
    """Solve settings; the solve is exact in time, so there is no step to set.

    Attributes:
        t_end: final time (>= 0; zero records initial diagnostics only).
        record_every: cadence of trajectory records.
        extinction_rel: relative total-mass threshold below which the run
            is flagged extinct and stopped early.
    """

    t_end: float
    record_every: float = 0.5
    extinction_rel: float = 1e-12

    def __post_init__(self) -> None:
        if not (self.t_end >= 0):
            raise ValueError(f"t_end must be >= 0, got {self.t_end!r}")
        if not (self.record_every > 0):
            raise ValueError(f"record_every must be > 0, got {self.record_every!r}")
        if not (0 < self.extinction_rel < 1):
            raise ValueError(f"extinction_rel must be in (0, 1), got {self.extinction_rel!r}")


@dataclass
class Trajectory:
    """Time series of habitat masses and mean fitnesses (PDE or IBM runs).

    PDE records are exact in time, at 0, every record_every and t_end. Mean
    fitness of an empty habitat is recorded as nan: a deliberate
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
    obs = _observation(grid, *fitness_fields(params, grid))
    return tuple(map(float, _observe((obs @ np.concatenate([state.u1, state.u2]))[None])[0]))


def _observation(grid: Grid, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """(4, 2m) map from stacked (u1, u2) to (N1, N2, int r1 u1, int r2 u2), trapezoid rule."""
    w, z = np.r_[0.5, np.ones(grid.m - 2), 0.5] * grid.h, np.zeros(grid.m)
    return np.array([np.r_[w, z], np.r_[z, w], np.r_[r1 * w, z], np.r_[z, r2 * w]])


def _observe(q: np.ndarray) -> np.ndarray:
    """Rows (N1, N2, rbar1, rbar2) from rows (N1, N2, int r1 u1, int r2 u2), in place."""
    q[:, 2:] = np.divide(q[:, 2:], q[:, :2], out=np.full_like(q[:, :2], np.nan), where=q[:, :2] > 0)
    return q


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


def reflection_permutation(grid: Grid) -> sp.csr_matrix:
    """Sparse matrix P with (P v)[k] = v at the x1-mirrored node of k."""
    m = grid.m
    return sp.csr_matrix((np.ones(m), (np.arange(m), np.arange(m)[::-1])), shape=(m, m))


def reduced_operator(params: model.ModelParams, grid: Grid) -> sp.csr_matrix:
    """A on the habitat-swap-even half: (mu^2/2)(-v'') - (r1 - delta) v - delta P v.

    With Symmetric migration and rmax1 = rmax2 the habitats are mirror
    images: A commutes with the swap J(v1, v2) = (rev v2, rev v1), and on
    its even pairs (v, rev v) A acts as this m x m matrix (A11 + A12 J) on
    v. Its smallest eigenvalue is A's (the Perron vector is J-even).
    """
    if not isinstance(params.migration, model.Symmetric):
        raise ValueError("reduced assembly requires Symmetric migration")
    if params.rmax1 != params.rmax2:
        raise ValueError("reduced assembly requires rmax1 == rmax2 (mirror habitats)")
    r1, _ = fitness_fields(params, grid)
    delta = params.migration.delta
    half_mu2 = 0.5 * params.mu * params.mu
    eye = sp.identity(grid.size)
    mat = (half_mu2 * neg_laplacian_matrix(grid)
           - sp.diags(r1)
           + delta * (eye - reflection_permutation(grid)))
    return mat.tocsr()


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


def _one_way(a: np.ndarray, obs: np.ndarray, y0: np.ndarray, rec: np.ndarray, every: float):
    """(records, state) of du/dt = -a u by expm, for one-way migration.

    a is block triangular then, and defective for mirror habitats, so it has
    no eigenbasis. One expm for the cadence, one more for a remainder to
    t_end that differs from it beyond rec's 1e-9 roundoff, then one mat-vec
    per record. records holds the raw
    rows (N1, N2, int r1 u1, int r2 u2) at the record times; state(k) is the
    state at record k.
    """
    ys = np.empty((rec.size, y0.size))
    ys[0] = y0
    dt_prop, prop = None, None
    for k in range(1, rec.size):
        dt = every if k < rec.size - 1 else rec[-1] - rec[-2]
        # a remainder within rec's 1e-9 roundoff of the cadence reuses its propagator
        if dt_prop is None or abs(dt - dt_prop) > 1e-9 * dt_prop:
            dt_prop, prop = dt, expm(-dt * a)
        ys[k] = prop @ ys[k - 1]
    return ys @ obs.T, ys.__getitem__


def _symmetrised(a: np.ndarray, obs: np.ndarray, y0: np.ndarray, rec: np.ndarray,
                 scale: np.ndarray, logistic: bool):
    """(records, state) as _one_way returns them, from one eigh of D^-1 a D.

    scale is the diagonal of D, which makes D^-1 a D symmetric. In its
    eigenbasis (lam, Q) the Malthusian state is D Q (e^(-lam t) c), c =
    Q^T D^-1 y0. The logistic state divides it by 1 + int_0^t N_v1, which is
    sum_j b_j c_j (1 - e^(-lam_j t)) / lam_j with b the N1 row of obs D Q.
    e^(-shift t) is factored out of both, shift = min(lam_0, 0), so no
    logistic term overflows when the Malthusian solution does.
    """
    lam, basis = np.linalg.eigh(a * np.outer(1.0 / scale, scale))
    c = basis.T @ (y0 / scale)
    basis *= scale[:, None]  # back-transform: y = basis @ coefficients
    obs_eig = obs @ basis
    shift = min(float(lam[0]), 0.0)

    def coefficients(t: np.ndarray) -> np.ndarray:
        """(len(t), 2m) eigen-coefficients of the states at times t."""
        w = np.exp(-np.outer(t, lam - shift)) * c
        if not logistic:
            return w * np.exp(-shift * t)[:, None]
        # e^(shift t) (1 - e^(-lam t)) / lam = e^((shift - min(lam, 0)) t) phi(|lam|),
        # phi(k) = -expm1(-k t) / k (t at k = 0): the exponential lies in
        # (0, 1] and phi in [0, t]
        k = np.abs(lam)
        phi = np.divide(-np.expm1(-np.outer(t, k)), k, where=k > 0,
                        out=np.repeat(t[:, None], k.size, axis=1))
        cum = (np.exp(np.outer(t, shift - np.minimum(lam, 0.0))) * phi) @ (obs_eig[0] * c)
        return w / (np.exp(shift * t) + cum)[:, None]

    return coefficients(rec) @ obs_eig.T, lambda k: basis @ coefficients(rec[k:k + 1])[0]


def integrate_to(params: model.ModelParams, grid: Grid, state0: Field2,
                 config: SolverConfig) -> tuple[Trajectory, Field2]:
    """Solve from state0 to t_end exactly in time, recording every record_every.

    Malthusian growth is du/dt = -A u with A = two_habitat_operator, so the
    solution is exp(-A t) u0 (Moler and Van Loan, Nineteen Dubious Ways to
    Compute the Exponential of a Matrix, SIAM Review 45, 2003, sections 3
    and 6). When d12 d21 > 0 or d12 = d21 = 0, D = diag(I, sqrt(d21/d12) I)
    makes D^-1 A D symmetric: one eigh gives every record as exp(-lambda t)
    times the initial coefficients, observed through the eigenbasis, and the
    final state in one more back-transform. One-way migration takes expm.

    Mirror data under Symmetric migration with rmax1 = rmax2 (u2 = u1
    reversed, to 1e-12 of the state's max) take the m x m reduced_operator
    on the habitat-swap-even half (u1 + rev u2) / 2 instead, and return
    the final state (u, rev u): N1 == N2, rbar1 == rbar2 and u2 == rev u1
    bitwise from record 1 on.

    Logistic growth (Symmetric migration, rmax1 = rmax2) needs mirror data,
    so N1 = N2 and u = v / (1 + int_0^t N_v1) with v the Malthusian
    solution; the integral is closed form in the eigenbasis.

    Returns the trajectory and the final state. The run stops early, with
    trajectory.extinct set, at the first record below extinction_rel times
    the initial mass, in that record's state. Record 0 and the t_end = 0
    final state are the input itself.

    Raises:
        ValueError: negative or empty initial habitat, mismatched shapes, or
            logistic growth from data that is not mirror-symmetric.
        SolverError: a non-finite record or state (float64 overflow), or a
            final state more negative than roundoff (-1e-12 of its maximum).
    """
    if state0.u1.shape != grid.shape:
        raise ValueError(f"state shape {state0.u1.shape} does not match grid shape {grid.shape}")
    obs = _observation(grid, *fitness_fields(params, grid))
    y0 = np.concatenate([np.asarray(state0.u1, dtype=float), np.asarray(state0.u2, dtype=float)])
    if np.any(y0 < 0):
        raise ValueError("initial densities must be nonnegative")
    q0 = obs @ y0  # raw record 0: (N1, N2, int r1 u1, int r2 u2)
    if q0[0] <= 0 or q0[1] <= 0:
        raise ValueError(f"initial mass must be positive in each habitat, got N1={q0[0]}, N2={q0[1]}")
    m = grid.m
    mirror = (isinstance(params.migration, model.Symmetric) and params.rmax1 == params.rmax2
              and np.max(np.abs(y0[m:] - y0[:m][::-1])) <= 1e-12 * np.max(y0))
    logistic = params.growth == model.GROWTH_LOGISTIC
    if logistic and not mirror:
        raise ValueError("logistic growth needs mirror-symmetric data (u2 = u1 reversed)")

    # Record times: 0, the cadence grid and t_end itself.
    rec = np.r_[np.arange(0.0, config.t_end * (1 - 1e-9), config.record_every), config.t_end]
    _, d12, d21, _ = params.migration.rates

    # Overflow leaves inf or nan behind, and raises SolverError below.
    with np.errstate(over="ignore", invalid="ignore"):
        if mirror:
            # the J-even half v: data (u1 + rev u2) / 2, state (v, rev v)
            q, state = _symmetrised(reduced_operator(params, grid).toarray(),
                                    obs[:, :m] + obs[:, m:][:, ::-1],
                                    0.5 * (y0[:m] + y0[m:][::-1]), rec, np.ones(m), logistic)
        else:
            a = two_habitat_operator(params, grid).toarray()
            if (d12 == 0) != (d21 == 0):
                q, state = _one_way(a, obs, y0, rec, config.record_every)
            else:
                scale = np.repeat([1.0, math.sqrt(d21 / d12) if d12 > 0 else 1.0], m)
                q, state = _symmetrised(a, obs, y0, rec, scale, logistic)
        q[0] = q0
        low = np.flatnonzero(q[:, 0] + q[:, 1] < config.extinction_rel * (q0[0] + q0[1]))
        end = int(low[0]) if low.size else rec.size - 1
        q = q[:end + 1]
        y = y0.copy() if end == 0 else state(end)
        if mirror and end > 0:
            y = np.r_[y, y[::-1]]
    if not (np.isfinite(q).all() and np.isfinite(y).all()):
        raise SolverError(f"the solution overflows float64 by t={rec[end]:.6g}")
    if y.min() < -1e-12 * y.max():
        raise SolverError(f"final state dips to {y.min():.3g} (max {y.max():.3g}), beyond roundoff")
    np.maximum(y, 0.0, out=y)
    traj = Trajectory(rec[:end + 1].copy(), *_observe(q).T.copy(), extinct=low.size > 0)
    return traj, Field2(*y.reshape(2, -1).copy())
