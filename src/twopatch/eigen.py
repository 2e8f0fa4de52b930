"""Principal eigenvalue of the coupled selection-mutation-migration operator.

The operator acts on density pairs (v1, v2) over the x1 axis of the
truncated box:

    (A v)_i = -(mu^2 / 2) v_i'' - (r_i - d_ii) v_i - d_ij v_j

with r_i the axis fitness of pde.fitness_fields, which carries the
transverse traits exactly, so its smallest eigenvalue lambda is the
n-trait one. Negative lambda means the linearized population grows,
positive means it decays. With symmetric migration and equal fitness
ceilings the habitats are mirror images, and the problem reduces to a
scalar operator with a reflection coupling,

    M phi = -(mu^2 / 2) phi'' - r_1 phi + delta (phi - phi o iota),

whose smallest eigenvalue equals the full system's (the Perron vector of
the full matrix is the symmetric pair (phi, phi o iota)).

The box eigenvalue lambda_L decreases toward the free-space value as L
grows (zero-extension of an eigenvector is admissible on any larger box
with the same spacing), so a ladder of boxes with fixed h plus Richardson
extrapolation in h gives the reported lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import model
from .grid import Field2, Grid, build_grid, reflect_field
from .pde import fitness_fields


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


def _neg_laplacian_matrix(grid: Grid) -> sp.csr_matrix:
    """-d^2/dx1^2 as a sparse tridiagonal matrix (Dirichlet zero ghosts)."""
    e = np.ones(grid.m)
    return (sp.diags([-e[1:], 2.0 * e, -e[1:]], [-1, 0, 1]) / (grid.h * grid.h)).tocsr()


def reflection_permutation(grid: Grid) -> sp.csr_matrix:
    """Sparse matrix P with (P v)[k] = v at the x1-mirrored node of k."""
    m = grid.m
    return sp.csr_matrix((np.ones(m), (np.arange(m), np.arange(m)[::-1])), shape=(m, m))


def assemble_symmetric_reduced(params: model.ModelParams, grid: Grid) -> Operator:
    """Scalar reflection-coupled operator for the mirror-symmetric case."""
    if not isinstance(params.migration, model.Symmetric):
        raise ValueError("reduced assembly requires Symmetric migration")
    if params.rmax1 != params.rmax2:
        raise ValueError("reduced assembly requires rmax1 == rmax2 (mirror habitats)")
    r1, _ = fitness_fields(params, grid)
    delta = params.migration.delta
    half_mu2 = 0.5 * params.mu * params.mu
    eye = sp.identity(grid.size)
    mat = (half_mu2 * _neg_laplacian_matrix(grid)
           - sp.diags(r1)
           + delta * (eye - reflection_permutation(grid)))
    return Operator(matrix=mat.tocsr(), grid=grid, components=1, symmetric=True,
                    lower_bound=spectral_lower_bound(params))


def assemble_full(params: model.ModelParams, grid: Grid) -> Operator:
    """Full two-component operator; symmetric whenever d12 == d21."""
    r1, r2 = fitness_fields(params, grid)
    d11, d12, d21, d22 = params.migration.rates
    half_mu2 = 0.5 * params.mu * params.mu
    neg_lap = _neg_laplacian_matrix(grid)
    eye = sp.identity(grid.size)
    a11 = half_mu2 * neg_lap - sp.diags(r1 - d11)
    a22 = half_mu2 * neg_lap - sp.diags(r2 - d22)
    mat = sp.bmat([[a11, -d12 * eye], [-d21 * eye, a22]], format="csr")
    return Operator(matrix=mat, grid=grid, components=2, symmetric=(d12 == d21),
                    lower_bound=spectral_lower_bound(params))


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
              rungs: int = 4, **kwargs) -> float:
    """Principal eigenvalue with the default box ladder."""
    ls, ms = default_schedules(params, h_target=h_target, rungs=rungs)
    return lambda_limit(params, ls, ms, **kwargs).lam
