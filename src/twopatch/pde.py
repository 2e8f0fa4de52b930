"""The two-habitat selection-mutation-migration system, solved exactly in time.

The state is a pair of phenotype densities (u1, u2) on the x1 axis. Each
density diffuses with coefficient mu**2 / 2 (mutation), grows at the axis
fitness r_i(x1) - (n - 1) mu / 2 (eigen.fitness_fields; minus the habitat's
total mass under logistic growth), and exchanges mass with the other habitat
through migration. Masses and mean fitnesses of the profile are those of the
n-trait density, which is the profile times N(0, mu I_{n-1}).

The system is du/dt = -A u with A the growth operator whose smallest
eigenvalue eigen computes. integrate_to solves it in free space, in the
Hermite-function basis of width sqrt(mu) where eigen.lambda_of finds that
eigenvalue (hermite.galerkin): quadratic selection makes A a K x K
tridiagonal for mirror-symmetric runs and a 2K-wide pentadiagonal otherwise.
The solve is exact in time, with no step: the matrix exponential from one
eigendecomposition of the tridiagonal for mirror-symmetric runs, and expm of
the 2K matrix for every other run. Masses and mean fitnesses are exact
integrals of the basis, and the initial data are Gaussian bumps (Bump,
InitialData), whose coefficients follow from an exact recurrence. The grid
only says where the final state is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, expm

from . import hermite, model
# laplacian and integrate stay module attributes for bench/tracing.py, which wraps them here.
from .grid import Field2, Grid, integrate, laplacian  # noqa: F401


class SolverError(RuntimeError):
    """Numerical failure of a solve: overflow or a state below roundoff of zero."""


@dataclass
class SolverConfig:
    """Solve settings; the solve is exact in time, so there is no step to set.

    Attributes:
        t_end: final time (finite and >= 0; zero records initial diagnostics only).
        record_every: cadence of trajectory records (inf records the two ends).
    """

    t_end: float
    record_every: float = 0.5

    def __post_init__(self) -> None:
        if not (0 <= self.t_end < math.inf):
            raise ValueError(f"t_end must be >= 0 and finite, got {self.t_end!r}")
        if not (self.record_every > 0):
            raise ValueError(f"record_every must be > 0, got {self.record_every!r}")


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


@dataclass(frozen=True)
class Bump:
    """A Gaussian x1 profile: mass times the normal density N(center, variance)."""

    center: float
    variance: float
    mass: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.center):
            raise ValueError(f"bump center must be finite, got {self.center!r}")
        if not (0 < self.variance < math.inf):
            raise ValueError(f"bump variance must be > 0, got {self.variance!r}")
        if not (0 < self.mass < math.inf):
            raise ValueError(f"bump mass must be > 0 (densities are nonnegative), "
                             f"got {self.mass!r}")


@dataclass(frozen=True)
class InitialData:
    """Initial densities of integrate_to: each habitat's profile is a sum of bumps."""

    u1: tuple[Bump, ...]
    u2: tuple[Bump, ...]


def _propagate(a: np.ndarray, obs: np.ndarray, y0: np.ndarray, rec: np.ndarray, every: float):
    """(records, state) of du/dt = -a u by expm, for every run off the mirror half.

    a needs no eigenbasis: it may be unsymmetric, and defective under one-way
    migration between mirror habitats. One expm for the cadence, one more for
    a remainder to t_end that differs from it beyond rec's 1e-9 roundoff, then
    one mat-vec per record. records holds the raw rows (N1, N2, int r1 u1, int
    r2 u2) at the record times; state(k) is the state at record k.
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


def _eigenbasis(lam: np.ndarray, basis: np.ndarray, obs: np.ndarray, y0: np.ndarray,
                rec: np.ndarray, logistic: bool):
    """(records, state) as _propagate returns them, from the eigenpairs of a symmetric a.

    (lam, basis) are a's eigenvalues and orthonormal eigenvectors Q. The
    Malthusian state is Q (e^(-lam t) c), c = Q^T y0. The logistic state
    divides it by 1 + int_0^t N_v1, which is sum_j b_j c_j (1 - e^(-lam_j
    t)) / lam_j with b the N1 row of obs Q. e^(-shift t) is factored out of
    both, shift = min(lam_0, 0), so no logistic term overflows when the
    Malthusian solution does.
    """
    c = basis.T @ y0
    obs_eig = obs @ basis
    shift = min(float(lam[0]), 0.0)

    def observe(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """rows (r, size) applied to the states at times t: (len(t), r)."""
        w = np.exp(-np.outer(t, lam - shift)) @ (rows * c).T
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

    return observe(rec, obs_eig), lambda k: observe(rec[k:k + 1], basis)[0]


# Largest Hermite basis integrate_to solves in: expm works on dense 2K x 2K
# matrices, and peaks at 320 MB RSS at this cap (scipy 1.17, one BLAS thread).
_MAX_SIZE = 1024
# Relative roundoff of a final state: values below -_ROUNDOFF times its height
# raise, values below +_ROUNDOFF times it are set to exactly 0.
_ROUNDOFF = 1e-12
# A run whose total mass falls below _EXTINCT times its initial mass is
# flagged extinct and stopped at that record.
_EXTINCT = 1e-12


def _bump_norm2(bumps: tuple[Bump, ...]) -> float:
    """Squared L2 norm of a sum of bumps: sum_ij M_i M_j N(c_i - c_j; 0, v_i + v_j)."""
    return sum(p.mass * q.mass / math.sqrt(2.0 * math.pi * (p.variance + q.variance))
               * math.exp(-0.5 * (p.center - q.center) ** 2 / (p.variance + q.variance))
               for p in bumps for q in bumps)


def _data_coefficients(mu: float, state0: InitialData, size: int):
    """(K, c1, c2): K >= size from hermite.SIZES and the habitats' coefficients.

    Each habitat's coefficients are computed to 2K; K is the first size at
    which the part beyond K is below 1e-13 of the whole (the data have
    decayed within the basis) and the whole holds the bumps' L2 norm to 1e-12
    (Parseval, which catches coefficients that underflowed).
    """
    def decayed(bumps):
        c = sum(hermite.gaussian_coefficients(mu, b.center, b.variance, b.mass, 2 * size)
                for b in bumps)
        if (np.linalg.norm(c[size:]) <= 1e-13 * np.linalg.norm(c)
                and abs(c @ c / _bump_norm2(bumps) - 1.0) <= 1e-12):
            return c[:size]
        return None

    for size in hermite.SIZES[hermite.SIZES.index(size):]:
        if size > _MAX_SIZE:
            break
        c1 = decayed(state0.u1)
        c2 = c1 if state0.u2 == state0.u1 else decayed(state0.u2)
        if c1 is not None and c2 is not None:
            return size, c1, c2
    raise ValueError(f"the initial data need more than {_MAX_SIZE} Hermite modes of width "
                     f"sqrt(mu) = {math.sqrt(mu):.3g} (a bump much narrower than that?)")


def _dense(band: np.ndarray) -> np.ndarray:
    """The symmetric matrix of a lower band."""
    n = band.shape[1]
    a = np.zeros((n, n))
    for j, row in enumerate(band):
        idx = np.arange(n - j)
        a[idx + j, idx] = a[idx, idx + j] = row[:n - j]
    return a


def integrate_to(params: model.ModelParams, grid: Grid, state0: InitialData,
                 config: SolverConfig) -> tuple[Trajectory, Field2]:
    """Solve from state0 to t_end exactly in time, recording every record_every.

    The solve runs in free space, in the basis phi_k(x) = mu^(-1/4)
    psi_k(x / sqrt(mu)) of hermite: K is the size at which eigen.lambda_of's
    value converges, doubled further until the data's coefficients have
    decayed within it. Malthusian growth is du/dt = -A u, so the solution is
    exp(-A t) u0 (Moler and Van Loan, Nineteen Dubious Ways to Compute the
    Exponential of a Matrix, SIAM Review 45, 2003, sections 3 and 6), with A
    the Galerkin matrix of hermite.galerkin:

    - mirror runs (Symmetric migration, rmax1 = rmax2, u2's coefficients
      those of u1 reversed to 1e-12) stay on the habitat-swap-even half: one
      eigh_tridiagonal of the K x K matrix, and the final state is (u, rev u),
      so N1 == N2, rbar1 == rbar2 and u2 == rev u1 bitwise from record 1 on;
    - every other run (unequal peaks, General migration at any rates, or
      mirror parameters with unmirrored data) takes expm of the 2K matrix,
      which needs no eigenbasis: one-way migration makes it block
      triangular and, for mirror habitats, defective.

    Every record is the propagator applied to the initial coefficients,
    observed through exact integrals of the basis (hermite.moments). Logistic
    growth (Symmetric migration, rmax1 = rmax2) needs mirror data, so N1 = N2
    and u = v / (1 + int_0^t N_v1) with v the Malthusian solution; the
    integral is closed form in the eigenbasis.

    The final state is the sum of the basis at the grid's nodes. Its height is
    the larger of its maximum at the nodes and its L2 norm times mu^(-1/4),
    the height of a bump of that norm and width sqrt(mu), which nodes outside
    the state's bulk do not underestimate. Values below -1e-12 times the
    height raise SolverError; values below +1e-12 times it carry no digit of
    the density, which is positive, and are set to exactly 0. The grid only
    samples the state; the run does not depend on it. The run stops early,
    with trajectory.extinct set, at the first record below _EXTINCT = 1e-12
    times the initial mass, in that record's state. Record 0 holds the input's
    masses, and the t_end = 0 final state is the input at the nodes.

    Raises:
        TypeError: state0 is not InitialData.
        ValueError: a habitat without bumps, logistic growth from data that is
            not mirror-symmetric, or data that need more than 1024 modes.
        SolverError: a non-finite record or state (float64 overflow), a basis
            above 1024 modes, or a final state more negative than roundoff.
        EigenError: K not converged (as in eigen.lambda_of).
    """
    if not isinstance(state0, InitialData):
        raise TypeError(f"state0 must be InitialData (Gaussian bumps), "
                        f"got {type(state0).__name__}")
    if not state0.u1 or not state0.u2:
        raise ValueError("initial mass must be positive in each habitat: "
                         "give each at least one bump")
    mu = params.mu
    _, size = hermite.smallest(params)
    if size > _MAX_SIZE:
        raise SolverError(f"the solve needs {size} Hermite modes, more than {_MAX_SIZE} "
                          f"(beta^2 / mu = {params.beta ** 2 / mu:.3g})")
    size, c1, c2 = _data_coefficients(mu, state0, size)
    sign = (-1.0) ** np.arange(size)
    mirror = hermite.is_mirror(params) and (np.abs(c2 - sign * c1).max()
                                            <= 1e-12 * max(np.abs(c1).max(), np.abs(c2).max()))
    logistic = params.growth == model.GROWTH_LOGISTIC
    if logistic and not mirror:
        raise ValueError("logistic growth needs mirror-symmetric data (u2 = u1 reversed)")

    # Rows (N1, N2, int r1 u1, int r2 u2) of the stacked coefficients (c1, c2).
    m0, m1, m2 = hermite.moments(mu, size)
    load, beta = 0.5 * (params.n - 1) * mu, params.beta
    w1 = (params.rmax1 - load - 0.5 * beta * beta) * m0 - beta * m1 - 0.5 * m2
    w2 = (params.rmax2 - load - 0.5 * beta * beta) * m0 + beta * m1 - 0.5 * m2
    obs = np.zeros((4, 2 * size))
    obs[0, :size], obs[1, size:], obs[2, :size], obs[3, size:] = m0, m0, w1, w2
    q0 = obs @ np.concatenate([c1, c2])  # raw record 0

    # Record times: 0, the cadence grid and t_end itself.
    rec = np.append(np.arange(0.0, config.t_end * (1 - 1e-9), config.record_every), config.t_end)
    _, d12, d21, _ = params.migration.rates
    band = hermite.galerkin(params, size, even_half=mirror)

    # Overflow leaves inf or nan behind, and raises SolverError below.
    with np.errstate(over="ignore", invalid="ignore"):
        if mirror:
            # the habitat-swap-even half v: data (c1 + P c2) / 2, state (v, P v),
            # with the reflection P = diag((-1)^k)
            lam, vecs = eigh_tridiagonal(band[0], band[1, :-1], check_finite=False)
            q, state = _eigenbasis(hermite.with_constant(params, lam), vecs,
                                   obs[:, :size] + obs[:, size:] * sign,
                                   0.5 * (c1 + sign * c2), rec, logistic)
        else:
            # interleaved modes: habitat 1 at even indices, habitat 2 at odd ones,
            # coupled by the rates themselves, not galerkin's -sqrt(d12 d21)
            obs = np.stack([obs[:, :size], obs[:, size:]], axis=2).reshape(4, -1)
            a = _dense(band) + hermite.with_constant(params, 0.0) * np.eye(2 * size)
            k = np.arange(size)
            a[2 * k, 2 * k + 1], a[2 * k + 1, 2 * k] = -d12, -d21
            q, state = _propagate(a, obs, np.ravel([c1, c2], order="F"), rec,
                                  config.record_every)
        q[0] = q0
        low = np.flatnonzero(q[:, 0] + q[:, 1] < _EXTINCT * (q0[0] + q0[1]))
        end = int(low[0]) if low.size else rec.size - 1
        q = q[:end + 1]
        coef = np.column_stack([c1, c2]) if end == 0 else state(end).reshape(size, -1)
        u = hermite.basis(size, grid.axis() / math.sqrt(mu)) @ coef * mu ** -0.25
        if mirror and end > 0:
            u = np.column_stack([u[:, 0], u[::-1, 0]])
    if not (np.isfinite(q).all() and np.isfinite(u).all()):
        raise SolverError(f"the solution overflows float64 by t={rec[end]:.6g}")
    top = max(u.max(), np.linalg.norm(coef) * mu ** -0.25)
    if u.min() < -_ROUNDOFF * top:
        raise SolverError(f"final state dips to {u.min():.3g} (height {top:.3g}), beyond roundoff")
    u[u < _ROUNDOFF * top] = 0.0
    # rows (N1, N2, rbar1, rbar2) from (N1, N2, int r1 u1, int r2 u2)
    q[:, 2:] = np.divide(q[:, 2:], q[:, :2], out=np.full_like(q[:, :2], np.nan), where=q[:, :2] > 0)
    traj = Trajectory(rec[:end + 1].copy(), *q.T.copy(), extinct=low.size > 0)
    return traj, Field2(u[:, 0].copy(), u[:, 1].copy())
