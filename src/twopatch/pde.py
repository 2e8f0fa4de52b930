"""The two-habitat selection-mutation-migration system, solved exactly in time.

The state is a pair of phenotype densities (u1, u2) on the x1 axis. Each
density diffuses with coefficient mu**2 / 2 (mutation), grows at the axis
fitness r_i(x1) - (n - 1) mu / 2 (eigen.fitness_fields; minus the habitat's
total mass under logistic growth), and exchanges mass with the other habitat
through migration. Masses and mean fitnesses of the profile are those of the
n-trait density, which is the profile times N(0, mu I_{n-1}).

The system is du/dt = -A u with A the growth operator whose smallest
eigenvalue eigen computes. integrate_to solves it exactly in time by expm, in free
space, in the Hermite-function basis of width sqrt(mu) where eigen.lambda_of
finds that eigenvalue (hermite.galerkin), from Gaussian bumps (Bump,
InitialData) whose coefficients follow from an exact recurrence. No grid
enters the solve: FinalState.sample evaluates its final state at points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, expm

from . import hermite, model
# laplacian and integrate stay module attributes for bench/tracing.py, which wraps them here.
from .grid import integrate, laplacian  # noqa: F401


class SolverError(RuntimeError):
    """Numerical failure of a solve: overflow or a state below roundoff of zero."""


# Most trajectory records a solve keeps. A solve holds its state at every
# record, up to 2K floats for K Hermite modes, 0.5 GB at this cap and K = 32;
# t_end = 1e12 is refused before anything is allocated.
_MAX_RECORDS = 10**6


@dataclass
class SolverConfig:
    """Solve settings; the solve is exact in time, so there is no step to set.

    Attributes:
        t_end: final time (finite and >= 0; zero records initial diagnostics only).
        record_every: cadence of trajectory records (inf records the two ends);
            t_end / record_every may not exceed _MAX_RECORDS.
    """

    t_end: float
    record_every: float = 0.5

    def __post_init__(self) -> None:
        if not (0 <= self.t_end < math.inf):
            raise ValueError(f"t_end must be >= 0 and finite, got {self.t_end!r}")
        if not (self.record_every > 0):
            raise ValueError(f"record_every must be > 0, got {self.record_every!r}")
        if self.t_end / self.record_every > _MAX_RECORDS:
            raise ValueError(f"t_end = {self.t_end!r} and record_every = {self.record_every!r} "
                             f"ask for more than {_MAX_RECORDS:.0e} records; raise "
                             "record_every or lower t_end")


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
class FinalState:
    """integrate_to's last state: (K, 2) coefficients of u1 and u2 in hermite's phi_k."""

    mu: float
    coef: np.ndarray
    mirror: bool  # the run stayed on the habitat-swap-even half: u2 is u1 reflected

    def sample(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(u1, u2) at points x, symmetric about 0 on mirror runs (as Grid.axis is), where
        u2 is u1 reversed bit for bit; values below 1e-12 times the height (integrate_to) are 0."""
        coef = self.coef[:, :1] if self.mirror else self.coef
        u = hermite.basis(coef.shape[0], x / math.sqrt(self.mu)) @ coef * self.mu ** -0.25
        u = np.column_stack([u[:, 0], u[::-1, 0]]) if self.mirror else u
        u[u < _ROUNDOFF * _height(u, coef, self.mu)] = 0.0
        return u[:, 0].copy(), u[:, 1].copy()


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


def _propagate(a: np.ndarray, y0: np.ndarray, rec: np.ndarray, every: float) -> np.ndarray:
    """(len(rec), size) states of dy/dt = -a y at the record times, by expm.

    a needs no eigenbasis: it may be unsymmetric, and defective under one-way
    migration between mirror habitats. One expm for the cadence, one more for
    a remainder to t_end that differs from it beyond rec's 1e-9 roundoff, then
    one mat-vec per record.
    """
    ys = np.empty((rec.size, y0.size))
    ys[0] = y0
    prop = expm(-every * a) if rec.size > 2 else None
    for k in range(1, rec.size - 1):
        prop.dot(ys[k - 1], out=ys[k])
    if rec.size > 1:
        last = rec[-1] - rec[-2]
        # a remainder within rec's 1e-9 roundoff of the cadence reuses its propagator
        if prop is None or abs(last - every) > 1e-9 * every:
            prop = expm(-last * a)
        prop.dot(ys[-2], out=ys[-1])
    return ys


# Largest Hermite basis integrate_to solves in: expm works on dense 2K x 2K (mirror:
# K x K) matrices, and peaks at 320 MB RSS at this cap (scipy 1.17, one BLAS thread).
_MAX_SIZE = 1024
# Relative roundoff of a final state: values below -_ROUNDOFF times its height
# raise, values below +_ROUNDOFF times it are set to exactly 0.
_ROUNDOFF = 1e-12
# A run whose total mass falls below _EXTINCT times its initial mass is
# flagged extinct and stopped at that record.
_EXTINCT = 1e-12


def _height(u: np.ndarray, coef: np.ndarray, mu: float) -> float:
    """A state's height: the larger of its maximum u and its L2 norm times mu^(-1/4), the
    norm taken over a power of two (exact, so it keeps its bits and no square overflows)."""
    scale = math.ldexp(1.0, math.frexp(np.abs(coef).max())[1])
    return max(u.max(), float(np.linalg.norm(coef / scale)) * scale * mu ** -0.25)


def _bump_norm2(bumps: tuple[Bump, ...], scale: float) -> float:
    """A sum of bumps' squared L2 norm over scale^2: sum_ij M_i M_j N(c_i - c_j; 0, v_i + v_j)."""
    return sum(p.mass / scale * (q.mass / scale)
               / math.sqrt(2.0 * math.pi * (p.variance + q.variance))
               * math.exp(-0.5 * (p.center - q.center) ** 2 / (p.variance + q.variance))
               for p in bumps for q in bumps)


def _data_coefficients(mu: float, state0: InitialData, size: int):
    """(K, c1, c2): K >= size from hermite.SIZES and the habitats' coefficients.

    Each habitat's coefficients are computed to 2K; K is the first size at
    which the part beyond K is below 1e-13 of the whole (the data have
    decayed within the basis) and the whole holds the bumps' L2 norm to 1e-12
    (Parseval, which catches coefficients that underflowed). Both run on the
    data over a power of two near the largest mass, so they hold at any mass.
    """
    def decayed(bumps):
        c = sum(hermite.gaussian_coefficients(mu, b.center, b.variance, b.mass, 2 * size)
                for b in bumps)
        scale = math.ldexp(1.0, math.frexp(max(b.mass for b in bumps))[1])  # exact divisor
        unit = c / scale
        if (np.linalg.norm(unit[size:]) <= 1e-13 * np.linalg.norm(unit)
                and abs(unit @ unit / _bump_norm2(bumps, scale) - 1.0) <= 1e-12):
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


@functools.cache
def _check_basis(size: int) -> np.ndarray:
    """psi_k, k < K, at the 2K Gauss-Hermite nodes (Shen, Tang and Wang, 2011, 7.1), the
    Jacobi matrix's eigenvalues made symmetric, so u1 covers u2 on mirror runs."""
    nodes = eigvalsh_tridiagonal(np.zeros(2 * size), np.sqrt(0.5 * np.arange(1, 2 * size)))
    psi = hermite.basis(size, 0.5 * (nodes - nodes[::-1]))
    psi.flags.writeable = False  # one array per K, shared by every solve
    return psi


def integrate_to(params: model.ModelParams, state0: InitialData,
                 config: SolverConfig) -> tuple[Trajectory, FinalState]:
    """Solve from state0 to t_end exactly in time, recording every record_every.

    The solve runs in free space, in the basis phi_k(x) = mu^(-1/4)
    psi_k(x / sqrt(mu)) of hermite: K is the size at which eigen.lambda_of's
    value converges, doubled further until the data's coefficients have
    decayed within it. Malthusian growth is du/dt = -A u, so the solution is
    exp(-A t) u0 (Moler and Van Loan, Nineteen Dubious Ways to Compute the
    Exponential of a Matrix, SIAM Review 45, 2003, sections 3 and 6), with A
    the Galerkin matrix of hermite.galerkin, stepped by expm (_propagate):

    - mirror runs (Symmetric migration, rmax1 = rmax2, u2's coefficients
      those of u1 reversed to 1e-12) stay on the habitat-swap-even half, the
      K x K tridiagonal, and the final state is (v, v reflected), so N1 == N2
      and rbar1 == rbar2 bitwise from record 1 on;
    - every other run (unequal peaks, General migration at any rates, or
      mirror parameters with unmirrored data) takes the 2K matrix, which may
      be unsymmetric or defective.

    It steps w = e^(s t) v, s = min(lambda, 0) for hermite.smallest's
    lambda, whose propagator stays bounded; each record, observed through
    exact integrals of the basis (hermite.moments), multiplies by e^(-s t).
    Logistic growth needs mirror data, so N1 = N2 and u = v / (1 + int_0^t
    N_v1) = w / (e^(s t) + J): (w, J) steps by the (K + 1)-square block whose
    last row integrates N1 of w (C. F. Van Loan, Computing integrals involving
    the matrix exponential, IEEE Trans. Automat. Control 23, 1978).

    The final state (FinalState) is checked at nodes fixed by K alone, the 2K
    Gauss-Hermite nodes (_check_basis): values below -1e-12 times its height,
    the larger of its maximum there and its L2 norm times mu^(-1/4) (a bump
    of that norm and width sqrt(mu)), raise SolverError. The run stops early,
    with trajectory.extinct set, at the first record below _EXTINCT = 1e-12
    times the initial mass, in that record's state. Record 0 holds the
    input's masses; the t_end = 0 final state is the input.

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
    lam, size = hermite.smallest(params)
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
    band = hermite.galerkin(params, size, even_half=mirror)
    shift = min(hermite.with_constant(params, lam), 0.0)  # steps w = e^(shift t) v
    if mirror:
        # the habitat-swap-even half v: data (c1 + P c2) / 2, state (v, P v),
        # with the reflection P = diag((-1)^k)
        obs = obs[:, :size] + obs[:, size:] * sign
        y0 = 0.5 * (c1 + sign * c2)
        a = np.diag(hermite.with_constant(params, band[0]) - shift)
        for diagonal in (a[1:], a[:, 1:]):
            np.fill_diagonal(diagonal, band[1, :-1])
    else:
        # interleaved modes: habitat 1 at even indices, habitat 2 at odd ones,
        # coupled by the rates themselves, not galerkin's -sqrt(d12 d21)
        obs = np.stack([obs[:, :size], obs[:, size:]], axis=2).reshape(4, -1)
        y0 = np.ravel([c1, c2], order="F")
        _, d12, d21, _ = params.migration.rates
        a = np.diag(band[0] + hermite.with_constant(params, 0.0) - shift)
        for diagonal, value in ((a[2:, :-2], band[2, :-2]), (a[:-2, 2:], band[2, :-2]),
                                (a[1::2, ::2], -d21), (a[::2, 1::2], -d12)):
            np.fill_diagonal(diagonal, value)
    if logistic:  # Van Loan's block: J' = N1(w) + shift J is e^(shift t) int_0^t N_v
        a = np.block([[a, np.zeros((size, 1))], [-obs[:1], np.array([[-shift]])]])
        y0 = np.append(y0, 0.0)

    # Overflow leaves inf or nan behind, and raises SolverError below.
    with np.errstate(over="ignore", invalid="ignore"):
        ys = _propagate(a, y0, rec, config.record_every)
        if logistic:
            scale = 1.0 / (np.exp(shift * rec) + ys[:, -1])
            ys = ys[:, :-1]
        else:
            scale = np.exp(-shift * rec)
        q = ys @ obs.T * scale[:, None]
        q[0] = q0
        low = np.flatnonzero(q[:, 0] + q[:, 1] < _EXTINCT * (q0[0] + q0[1]))
        end = int(low[0]) if low.size else rec.size - 1
        q = q[:end + 1]
        coef = (np.column_stack([c1, c2]) if end == 0
                else (ys[end] * scale[end]).reshape(size, -1))
        u = _check_basis(size) @ coef * mu ** -0.25
    if not (np.isfinite(q).all() and np.isfinite(u).all()):
        raise SolverError(f"the solution overflows float64 by t={rec[end]:.6g}")
    top = _height(u, coef, mu)
    if u.min() < -_ROUNDOFF * top:
        raise SolverError(f"final state dips to {u.min():.3g} (height {top:.3g}), beyond roundoff")
    # rows (N1, N2, rbar1, rbar2) from (N1, N2, int r1 u1, int r2 u2)
    q[:, 2:] = np.divide(q[:, 2:], q[:, :2], out=np.full_like(q[:, :2], np.nan), where=q[:, :2] > 0)
    traj = Trajectory(rec[:end + 1].copy(), *q.T.copy(), extinct=low.size > 0)
    if mirror and end > 0:  # u2's coefficients are u1's times (-1)^k
        return traj, FinalState(mu, np.column_stack([coef[:, 0], sign * coef[:, 0]]), True)
    return traj, FinalState(mu, coef, False)
