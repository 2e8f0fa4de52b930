"""Principal eigenvalue of the coupled selection-mutation-migration operator.

The operator acts on density pairs (v1, v2) over the x1 axis:

    (A v)_i = -(mu^2 / 2) v_i'' - (r_i - d_ii) v_i - d_ij v_j

with r_i the axis fitness of pde.fitness_fields, which carries the
transverse traits exactly, so its smallest eigenvalue lambda is the
n-trait one. On a box grid its matrix is pde.two_habitat_operator, the
one the PDE integrates. Negative lambda means the linearized population grows,
positive means it decays. With symmetric migration and equal fitness
ceilings the habitats are mirror images, and the problem reduces to a
scalar operator with a reflection coupling,

    M phi = -(mu^2 / 2) phi'' - r_1 phi + delta (phi - phi o iota),

whose smallest eigenvalue equals the full system's (the Perron vector of
the full matrix is the symmetric pair (phi, phi o iota)).

Two independent routes compute lambda. lambda_of, behind classify,
find_threshold and the phase sweep, solves the free-space operator by
Hermite-Galerkin: quadratic selection makes it exactly tridiagonal in the
Hermite-function basis of width sqrt(mu) (pentadiagonal for two coupled
habitats), so lambda is the smallest eigenvalue of a small banded matrix
(J. P. Boyd, Chebyshev and Fourier Spectral Methods, 2nd ed., 2001,
ch. 17). lambda_limit, behind twopatch eigen, discretizes the box: the box
eigenvalue lambda_L decreases toward the free-space value as L grows
(zero-extension of an eigenvector is admissible on any larger box with the
same spacing), so a ladder of boxes with fixed h plus Richardson
extrapolation in h gives its lambda, about 2e-6 above the Hermite value
at the default spacing, and the eigenfunction on the finest grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal, eigvals_banded
from scipy.sparse.linalg import splu

from . import model
from .grid import Field2, Grid, build_grid, reflect_field
from .pde import reduced_operator, two_habitat_operator


# Hermite-Galerkin basis sizes tried by lambda_of, doubling up to the cap.
_HERMITE_SIZES = tuple(32 * 2 ** j for j in range(9))  # 32 ... 8192


class EigenError(RuntimeError):
    """Eigensolve failure (non-convergence, non-monotone box ladder, ...)."""


@dataclass(frozen=True)
class Operator:
    """Assembled sparse operator plus the metadata the solvers need."""

    matrix: sp.csr_matrix
    grid: Grid
    components: int  # 1 = reduced scalar form, 2 = full two-habitat form
    symmetric: bool  # d12 == d21; lets dense checks pick a symmetric solver
    lower_bound: float


@dataclass
class EigenPair:
    value: float
    vector: np.ndarray
    residual: float
    iterations: int


@dataclass
class EigenRow:
    """One rung of the box ladder: eigenvalue of the (L, m) discretization."""

    L: float
    m: int
    lambda_L: float
    residual: float


@dataclass
class EigenResult:
    """Ladder result; eigenfield is the x1 factor of the principal
    eigenfunction on the finest grid (times N(0, mu I_{n-1}) for n traits)."""

    rows: list[EigenRow]
    lam: float
    eigenfield: Field2
    grid: Grid
    residual: float
    iterations: int
    converged: bool

    @property
    def lambdas(self) -> list[tuple[float, float]]:
        return [(row.L, row.lambda_L) for row in self.rows]


def spectral_lower_bound(params: model.ModelParams) -> float:
    """A certified lower bound for the principal eigenvalue.

    min_i ( -rmax_i + d_ii - d_ij ): with symmetric migration the migration
    rates cancel and this is -max(rmax1, rmax2).
    """
    d11, d12, d21, d22 = params.migration.rates
    return min(-params.rmax1 + d11 - d12, -params.rmax2 + d22 - d21)


def assemble_symmetric_reduced(params: model.ModelParams, grid: Grid) -> Operator:
    """Scalar reflection-coupled operator for the mirror-symmetric case."""
    return Operator(matrix=reduced_operator(params, grid), grid=grid, components=1,
                    symmetric=True, lower_bound=spectral_lower_bound(params))


def assemble_full(params: model.ModelParams, grid: Grid) -> Operator:
    """Full two-component operator, the one the PDE integrates; symmetric
    whenever d12 == d21."""
    _, d12, d21, _ = params.migration.rates
    return Operator(matrix=two_habitat_operator(params, grid), grid=grid, components=2,
                    symmetric=(d12 == d21), lower_bound=spectral_lower_bound(params))


def _assemble(params: model.ModelParams, grid: Grid) -> Operator:
    """Reduced form when the habitats are mirror images, else the full form."""
    if isinstance(params.migration, model.Symmetric) and params.rmax1 == params.rmax2:
        return assemble_symmetric_reduced(params, grid)
    return assemble_full(params, grid)


def principal_eigenpair(operator, lower_bound: float | None = None, *,
                        tol_value: float = 1e-10, tol_residual: float = 1e-8,
                        max_iter: int = 2000,
                        shift_hint: float | None = None) -> EigenPair:
    """Smallest eigenvalue and positive eigenvector of an assembled operator.

    Shift-invert iteration started at the certified shift
    sigma = lower_bound - 1, with Rayleigh-quotient refinement; converged
    when the eigenvalue moves < tol_value and the sup-norm residual is
    < tol_residual (both relative). A shift_hint (an eigenvalue estimate
    from a related discretization) starts the iteration just below it
    instead, which saves most of the warm-up sweeps; a failed hint falls
    back to the certified shift.

    One route serves every migration pattern, symmetric or not: each
    assembled operator has nonpositive off-diagonal entries (a Z-matrix)
    and row sums >= lower_bound, so at the certified shift A - sigma I is
    a strictly diagonally dominant Z-matrix, i.e. a nonsingular M-matrix,
    and its inverse is entrywise nonnegative (Berman & Plemmons,
    Nonnegative Matrices in the Mathematical Sciences, 1994). Iterating
    that inverse from a positive start therefore finds the Perron pair
    whether or not d12 == d21.

    Accepts an Operator or a raw sparse matrix (then lower_bound is
    required).
    """
    if isinstance(operator, Operator):
        mat = operator.matrix
        lb = operator.lower_bound if lower_bound is None else lower_bound
    else:
        mat = sp.csr_matrix(operator)
        if lower_bound is None:
            raise ValueError("lower_bound is required for a raw matrix")
        lb = lower_bound
    # A hint sits much closer to the target than the certified shift, so
    # the warm-up contracts fast; the hinted shift must stay strictly below
    # the eigenvalue it chases, hence the margin. Wrong basin (caught by the
    # positivity check) falls back to the certified cold start.
    starts = []
    if shift_hint is not None:
        starts.append(shift_hint - max(1e-2, 1e-3 * abs(shift_hint)))
    starts.append(lb - 1.0)
    last: EigenError | None = None
    for sigma0 in starts:
        try:
            return _shift_invert_from(mat, sigma0, tol_value, tol_residual, max_iter)
        except EigenError as err:
            last = err
    assert last is not None
    raise last


def _shift_invert_from(mat: sp.csr_matrix, sigma0: float,
                       tol_value: float, tol_residual: float,
                       max_iter: int) -> EigenPair:
    n = mat.shape[0]
    eye = sp.identity(n, format="csc")
    csc = mat.tocsc()
    lu0 = splu(csc - sigma0 * eye)
    iterations = 0

    # At the certified shift the iteration matrix (M - sigma0 I)^{-1} is
    # entrywise nonnegative, so sweeps from a positive start stay positive
    # and single out the Perron pair even when the low end of the spectrum
    # is clustered; at a hinted shift the target is simply the nearest
    # eigenvalue. Warm-up sweeps are escalated (from a fresh start) if the
    # refinement below locks onto a wrong (sign-changing) eigenvector.
    for warmup in (30, 120, 480):
        v = np.full(n, 1.0 / math.sqrt(n))
        for _ in range(warmup):
            v = lu0.solve(v)
            v /= np.linalg.norm(v)
            iterations += 1
        rho = float(v @ (mat @ v))
        rho_prev = math.inf
        for _ in range(30):
            if iterations > max_iter:
                raise EigenError(f"shift-invert did not converge within {max_iter} iterations")
            av = mat @ v
            res = float(np.linalg.norm(av - rho * v, np.inf))
            scale = max(1.0, abs(rho))
            if res < tol_residual * scale and abs(rho - rho_prev) < tol_value * scale:
                break
            # Refine with a Rayleigh-quotient shift, backed off by the
            # residual so the factorization never hits the exact eigenvalue.
            shift = rho - max(res, 1e-13)
            lu = splu(csc - shift * eye)
            v = lu.solve(v)
            v /= np.linalg.norm(v)
            rho_prev = rho
            rho = float(v @ (mat @ v))
            iterations += 1
        if v.sum() < 0:
            v = -v
        if v.min() >= -1e-8 * v.max():
            break
    else:
        raise EigenError("shift-invert converged to a sign-changing eigenvector")

    v = np.maximum(v, 0.0)
    v /= v.max()
    residual = float(np.linalg.norm(mat @ v - rho * v, np.inf))
    return EigenPair(value=rho, vector=v, residual=residual, iterations=iterations)


def default_schedules(params: model.ModelParams, *, h_target: float | None = None,
                      rungs: int = 4) -> tuple[list[float], list[int]]:
    """Box ladder (L_schedule, m_schedule) with constant spacing across rungs.

    The box must hold both optima plus the mutation-selection width
    ~sqrt(mu); the spacing target resolves that width (calibrated so the
    extrapolated value lands ~1e-5 from closed forms at reference rates).
    Constant h keeps the ladder exactly monotone (node sets are nested).
    """
    l0 = math.ceil(max(2.0 * params.beta + 1.0, 8.0 * math.sqrt(params.mu)) + 1.0)
    if h_target is None:
        h_target = min(math.sqrt(params.mu) / 1.5, 1.0 / 6.0)
    p = max(4, math.ceil(1.0 / h_target))
    ls = [float(l0 + k) for k in range(rungs)]
    ms = [2 * p * (l0 + k) + 1 for k in range(rungs)]
    return ls, ms


def lambda_limit(params: model.ModelParams, L_schedule, m_schedule, *,
                 tol_domain: float = 1e-6, richardson: bool = True,
                 tol_value: float = 1e-10, tol_residual: float = 1e-8) -> EigenResult:
    """Climb the box ladder until lambda_L stabilizes, then refine in h.

    lambda_L must be nonincreasing along the ladder (it is, exactly, when
    the spacing is constant); an increase beyond tol_domain aborts. After
    the ladder settles, one solve at half the spacing gives the h^2
    Richardson extrapolation reported as .lam.
    """
    ls = list(L_schedule)
    ms = [int(m) for m in m_schedule]
    if len(ls) != len(ms):
        raise ValueError(f"schedule lengths differ: {len(ls)} L values vs {len(ms)} m values")
    if not ls:
        raise ValueError("empty schedule")

    solver_opts = dict(tol_value=tol_value, tol_residual=tol_residual)
    rows: list[EigenRow] = []
    iterations = 0
    converged = False
    final: tuple[Grid, Operator, EigenPair] | None = None
    prev = math.inf
    hint: float | None = None  # previous rung's value warm-starts the next
    for L, m in zip(ls, ms):
        g = build_grid(params.n, L, m)
        op = _assemble(params, g)
        pair = principal_eigenpair(op, shift_hint=hint, **solver_opts)
        rows.append(EigenRow(L=L, m=m, lambda_L=pair.value, residual=pair.residual))
        iterations += pair.iterations
        final = (g, op, pair)
        hint = pair.value
        if pair.value > prev + tol_domain:
            raise EigenError(
                f"lambda_L increased from {prev:.12g} to {pair.value:.12g} at L={L}: "
                "box ladder is not resolved (spacing too coarse?)")
        if abs(pair.value - prev) < tol_domain:
            converged = True
            break
        prev = pair.value

    assert final is not None
    g, op, pair = final
    lam = pair.value
    if richardson:
        g2 = build_grid(params.n, g.L, 2 * g.m - 1)
        op2 = _assemble(params, g2)
        pair2 = principal_eigenpair(op2, shift_hint=hint, **solver_opts)
        rows.append(EigenRow(L=g.L, m=g2.m, lambda_L=pair2.value, residual=pair2.residual))
        iterations += pair2.iterations
        lam = (4.0 * pair2.value - pair.value) / 3.0
        g, op, pair = g2, op2, pair2

    if op.components == 1:
        field = Field2(pair.vector, reflect_field(g, pair.vector))
    else:
        field = Field2(pair.vector[:g.size], pair.vector[g.size:])
    return EigenResult(rows=rows, lam=lam, eigenfield=field, grid=g,
                       residual=pair.residual, iterations=iterations,
                       converged=converged)


def lambda_of(params: model.ModelParams, *, h_target: float | None = None,
              rungs: int = 4, tol_domain: float = 1e-6, richardson: bool = True) -> float:
    """Principal eigenvalue of the free-space operator by Hermite-Galerkin.

    The basis is the Hermite functions psi_k(x / sqrt(mu)), the eigenfunctions
    of -(mu^2 / 2) d^2/dx^2 + x^2 / 2 with eigenvalues mu (k + 1/2). The
    quadratic fitness adds beta x, which couples k to k +- 1 with weight
    beta sqrt(mu / 2) sqrt(k), and the reflection acts as (-1)^k. Mirror
    habitats give the symmetric tridiagonal matrix of the reduced form,

        mu (k + 1/2) + beta^2 / 2 + delta (1 - (-1)^k),  off-diagonal beta sqrt(mu k / 2);

    otherwise the two habitats' modes are interleaved (habitat 2 takes
    -beta) and coupled by -sqrt(d12 d21), the diagonal scaling that makes
    the full operator symmetric (with d12 d21 = 0 it is block triangular and
    the zero coupling keeps its spectrum). The constant -max(rmax_i) +
    (n - 1) mu / 2 is added after the solve, so the rmax and trait-dimension
    identities hold to rounding. Galerkin values decrease with the basis
    size K; K doubles from 32 until two values agree to 1e-13 times the
    largest diagonal entry, and EigenError is raised past K = 8192.

    h_target, rungs, tol_domain and richardson set the box ladder only; they
    are accepted for existing callers and do not change the value.
    """
    mu, beta = params.mu, params.beta
    d11, d12, d21, d22 = params.migration.rates
    top = max(params.rmax1, params.rmax2)
    mirror = isinstance(params.migration, model.Symmetric) and params.rmax1 == params.rmax2
    prev = math.inf
    for size in _HERMITE_SIZES:
        k = np.arange(size)
        diag = mu * (k + 0.5) + 0.5 * beta * beta
        off = beta * math.sqrt(0.5 * mu) * np.sqrt(k[1:])
        if mirror:
            diag[1::2] += 2.0 * d11
            lam = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                   select_range=(0, 0))[0]
        else:
            band = np.zeros((3, 2 * size))
            band[0, 0::2] = diag + (top - params.rmax1) + d11
            band[0, 1::2] = diag + (top - params.rmax2) + d22
            band[1, 0::2] = -math.sqrt(d12 * d21)
            band[2, 0:-2:2] = off
            band[2, 1:-2:2] = -off
            diag = band[0]
            lam = eigvals_banded(band, lower=True, select="i", select_range=(0, 0))[0]
        if abs(lam - prev) <= 1e-13 * np.abs(diag).max():
            return float(lam) - top + 0.5 * (params.n - 1) * mu
        prev = lam
    raise EigenError(f"Hermite-Galerkin lambda not converged at K = {_HERMITE_SIZES[-1]} "
                     f"(beta^2 / mu = {beta * beta / mu:.3g} needs a larger basis)")
