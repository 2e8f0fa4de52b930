"""Principal eigenvalue of the coupled selection-mutation-migration operator.

The operator acts on density pairs (v1, v2) over the x1 axis:

    (A v)_i = -(mu^2 / 2) v_i'' - (r_i - d_ii) v_i - d_ij v_j

with r_i the axis fitness of fitness_fields, which carries the transverse
traits exactly, so its smallest eigenvalue lambda is the n-trait one, and
du/dt = -A u is the Malthusian growth pde.integrate_to solves. Negative
lambda means the linearized population grows, positive means it decays.
With symmetric migration and equal fitness ceilings the habitats are mirror
images, and the problem reduces to a scalar operator with a reflection
coupling,

    M phi = -(mu^2 / 2) phi'' - r_1 phi + delta (phi - phi o iota),

whose smallest eigenvalue equals the full system's (the Perron vector of
the full matrix is the symmetric pair (phi, phi o iota)).

Two independent routes compute lambda. lambda_of, behind classify,
find_threshold and the phase sweep, solves the free-space operator by
Hermite-Galerkin: quadratic selection makes it exactly tridiagonal in the
Hermite-function basis of width sqrt(mu) (pentadiagonal for two coupled
habitats), so lambda is the smallest eigenvalue of a small banded matrix
(J. P. Boyd, Chebyshev and Fourier Spectral Methods, 2nd ed., 2001,
ch. 17), at a basis size where one banded Cholesky proves it to 1e-13 of
the matrix's scale (hermite.certified). lambda_limit, behind twopatch eigen,
discretizes the box: the box eigenvalue lambda_L decreases toward the
free-space value as L grows
(zero-extension of an eigenvector is admissible on any larger box with the
same spacing), so a ladder of boxes with fixed h plus Richardson
extrapolation in h gives its lambda, about 2e-6 above the Hermite value
at the default spacing, and the eigenfunction on the finest grid. Each
rung is one principal_eigenpair solve on one band: the assembler's order of
the unknowns (half-bandwidth 2: each node meets only its two grid neighbours
and its partner in the other habitat or its mirror image) serves both
LAPACK's dsbevx, for the eigenvalue of the diagonally symmetrised twin, and
dgbtrf, for the one LU behind inverse iteration.
assemble_full and assemble_symmetric_reduced build the box's three-point
operators (Dirichlet zero ghosts), each as one CSR matrix. scipy.sparse loads
on the first assembly, inside the functions that use it, so a process that
never climbs the ladder (every command but twopatch eigen) does not import
it; no sparse solver is ever imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from . import hermite, model
from .grid import Field2, Grid, build_grid, reflect_field
from .hermite import EigenError

if TYPE_CHECKING:
    import scipy.sparse

# Largest row sum principal_eigenpair takes: products of two entries stay finite.
_MAX_NORM = math.sqrt(np.finfo(float).max)


def splu(band: np.ndarray, kl: int, ku: int) -> tuple[np.ndarray, np.ndarray]:
    """LU factors and pivots of a general band matrix, by LAPACK's dgbtrf.

    principal_eigenpair's one factorisation of A - sigma I, in the operator's
    band order, which also gives dsbevx its band. In LAPACK's band
    storage, a_ij sits at (kl + ku + i - j, j) below kl rows of room for the
    fill-in; a Fortran-ordered band is overwritten. Raises EigenError when a
    pivot is exactly 0. bench/tracing.py counts the calls under this name.
    """
    lu, piv, info = dgbtrf(band, kl, ku, overwrite_ab=1)
    if info != 0:
        raise EigenError(f"LAPACK dgbtrf failed at order {band.shape[1]}: info = {info}")
    return lu, piv


@dataclass(frozen=True)
class Operator:
    """Assembled sparse operator plus the metadata the solvers need."""

    matrix: scipy.sparse.csr_matrix
    symmetric: bool  # d12 == d21; lets dense checks pick a symmetric solver
    lower_bound: float
    order: np.ndarray  # the unknown at each band row: A + A^T's structure near the diagonal

    def __post_init__(self) -> None:  # else the band would drop or double unknowns
        if not np.array_equal(np.sort(self.order), np.arange(self.matrix.shape[0])):
            raise ValueError(f"order must be a permutation of range({self.matrix.shape[0]})")


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


def spectral_lower_bound(params: model.ModelParams) -> float:
    """A certified lower bound for the principal eigenvalue.

    min_i ( -rmax_i + d_ii - d_ij ): with symmetric migration the migration
    rates cancel and this is -max(rmax1, rmax2).
    """
    d11, d12, d21, d22 = params.migration.rates
    return min(-params.rmax1 + d11 - d12, -params.rmax2 + d22 - d21)


def fitness_fields(params: model.ModelParams, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Axis fitness (r1, r2): r_i(x1, 0, ..., 0) - (n - 1) mu / 2 at the nodes.

    The only place where the trait dimension n enters the box operators. The
    n - 1 transverse traits see isotropic mutation and the same quadratic
    selection about 0 in both habitats: a harmonic oscillator whose
    stationary Gaussian N(0, mu) decays at exactly (n - 1) mu / 2 (Mehler's
    formula), the fitness averaged over it. So the one-trait eigenproblem
    with this fitness is the n-trait one, whose eigenfunction is the x1
    profile times N(0, mu I_{n-1}). A grid of another n is a ValueError.
    """
    if grid.n != params.n:
        raise ValueError(f"grid has {grid.n} trait(s) but the model has {params.n}")
    # on the axis the transverse squares add exactly 0.0: the one-trait model
    # gives the same bits without an (m, n) array
    axis, x = replace(params, n=1), grid.axis()[:, None]
    load = 0.5 * (params.n - 1) * params.mu
    return model.fitness(axis, 1, x) - load, model.fitness(axis, 2, x) - load


def _rows_to_csr(cols: np.ndarray, vals: np.ndarray) -> scipy.sparse.csr_matrix:
    """The square CSR matrix whose row i holds vals[i] at cols[i], zeros left out.

    cols must increase along each row wherever vals is nonzero, so the
    arrays are already CSR's, in canonical order.
    """
    import scipy.sparse as sp

    keep = vals != 0
    indptr = np.zeros(len(vals) + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(len(vals), len(vals)))


def _stiffness(params: model.ModelParams, grid: Grid) -> float:
    """mu^2 / (2 h^2), the centred difference's weight; ValueError if h^2 underflows to 0."""
    if grid.h * grid.h == 0.0:
        raise ValueError(f"the spacing's square underflows to 0 at L = {grid.L!r}, m = {grid.m}")
    return 0.5 * params.mu * params.mu * (1.0 / (grid.h * grid.h))


def assemble_symmetric_reduced(params: model.ModelParams, grid: Grid) -> Operator:
    """A on the habitat-swap-even half: (mu^2/2)(-v'') - (r1 - delta) v - delta P v.

    With Symmetric migration and rmax1 = rmax2 the habitats are mirror
    images: A commutes with the swap J(v1, v2) = (rev v2, rev v1), and on
    its even pairs (v, rev v) A acts as this m x m matrix (A11 + A12 J) on
    v, with P the node reversal. Its smallest eigenvalue is A's (the Perron
    vector is J-even). The reversal's antidiagonal meets the diagonal at the
    centre node, where delta - delta cancels exactly; at odd m it lies at
    least two columns from the diagonal elsewhere, left of it below the
    centre and right of it above. Zero entries (delta = 0) are not stored.
    The band order runs centre-out, c, c + 1, c - 1, ..., m - 1, 0 (c = m // 2),
    or m - 1, ..., 0 when delta = 0 or m = 3.
    """
    if not hermite.is_mirror(params):
        raise ValueError("reduced assembly requires Symmetric migration and rmax1 == rmax2 "
                         "(mirror habitats)")
    r1, _ = fitness_fields(params, grid)
    delta, m = params.migration.delta, grid.m
    stiff = _stiffness(params, grid)
    k = np.arange(m)
    side = k != k[::-1]  # every node but the centre
    cols = k[:, None] + np.array([0, -1, 0, 1, 0])  # slots: reversal, k - 1, k, k + 1, reversal
    cols[:, 0] = cols[:, 4] = k[::-1]
    vals = np.zeros((m, 5))
    vals[:, 1], vals[:, 2], vals[:, 3] = -stiff, 2.0 * stiff - r1 + delta * side, -stiff
    vals[0, 1] = vals[-1, 3] = 0.0  # Dirichlet zero ghosts
    vals[m // 2 + 1:, 0] = vals[:m // 2, 4] = -delta
    order = np.argsort(2 * abs(k - m // 2) - (k > m // 2)) if delta > 0 and m > 3 else k[::-1]
    return Operator(matrix=_rows_to_csr(cols, vals), symmetric=True,
                    lower_bound=spectral_lower_bound(params), order=order)


def assemble_full(params: model.ModelParams, grid: Grid) -> Operator:
    """A on stacked pairs (v1, v2): (A v)_i = -(mu^2/2) v_i'' - (r_i - d_ii) v_i - d_ij v_j.

    The centred difference on diagonals +-1 of each habitat's block, the
    fitness on the diagonal and the migration rates on diagonals +-m; zero
    entries (a block's edge, absent migration) are not stored. Symmetric
    whenever d12 == d21. The band order is 2m - 1, ..., 0, with the habitats
    interleaved (2m - 1, m - 1, 2m - 2, m - 2, ..., m, 0) under any migration.
    """
    r1, r2 = fitness_fields(params, grid)
    d11, d12, d21, d22 = params.migration.rates
    m = grid.m
    stiff = _stiffness(params, grid)
    cols = np.arange(2 * m)[:, None] + np.array([-m, -1, 0, 1, m])
    vals = np.zeros((2 * m, 5))
    vals[m:, 0], vals[:, 1], vals[:, 3], vals[:m, 4] = -d21, -stiff, -stiff, -d12
    vals[[0, m], 1] = vals[[m - 1, -1], 3] = 0.0  # each habitat's Dirichlet zero ghosts
    vals[:m, 2], vals[m:, 2] = 2.0 * stiff - (r1 - d11), 2.0 * stiff - (r2 - d22)
    order = np.arange(2 * m)[::-1].reshape(2, m).ravel("F" if d12 > 0 or d21 > 0 else "C")
    return Operator(matrix=_rows_to_csr(cols, vals), symmetric=(d12 == d21),
                    lower_bound=spectral_lower_bound(params), order=order)


def principal_eigenpair(operator: Operator) -> EigenPair:
    """Smallest eigenvalue and nonnegative eigenvector of an assembled operator.

    Each assembled operator is a Z-matrix (nonpositive off-diagonal entries)
    with scalar migration rates, so a positive diagonal D makes D^-1 A D
    symmetric: each coupled pair becomes its geometric mean -sqrt(a_ij a_ji),
    0 under one-way migration (A block triangular, same spectrum). Placed in
    operator.order, A and its twin share one band (half-bandwidth 2 for both
    assembled forms), which serves both solves. hermite.lowest on the twin's
    band gives the smallest eigenvalue theta, by LAPACK's dsbevx at every band
    width (a delta = 0 twin is tridiagonal and keeps that routine). Inverse
    iteration from ones on one band LU (splu) of A - sigma I, sigma = theta -
    1e-10 ||A||_inf, gives the vector; below lambda_0, A - sigma I is an
    M-matrix with a nonnegative inverse (Berman & Plemmons, Nonnegative
    Matrices in the Mathematical Sciences, 1994). It stops at a residual of
    64 ulps of ||A||_inf, or after three steps (iterations).
    Raises ValueError if ||A||_inf exceeds sqrt(float max), and EigenError if
    |A v - theta v| > 1e-8 max(1, |theta|), if theta is below
    operator.lower_bound, or if v changes sign. Any sparse format works
    and is left unchanged. dsbevx costs O(size^2), about 6 ms at 1,090
    unknowns and 0.7 s at 12,000 on one x86 core; ARPACK's cost was linear.
    """
    mat = operator.matrix.tocsr()
    if not mat.has_canonical_format:  # sorted row-major keys, as assembled operators have
        mat = mat.copy()
        mat.sum_duplicates()
    size, cols, data = mat.shape[0], mat.indices.astype(np.int64), mat.data  # keys reach size^2
    rows = np.repeat(np.arange(size), np.diff(mat.indptr))
    norm = np.bincount(rows, np.abs(data), size).max()
    if not norm <= _MAX_NORM:
        raise ValueError(f"the box operator's largest row sum {norm:.3g} is above sqrt(float max) = "
                         f"{_MAX_NORM:.3g}, where products of its entries overflow")
    key, twin = rows * size + cols, cols * size + rows
    at = np.minimum(np.searchsorted(key, twin), key.size - 1)
    paired = key[at] == twin  # a_ji is stored
    mean = -np.sqrt(data * np.where(paired, data[at], 0.0))
    sym = np.where(rows == cols, data, mean)
    pos = np.argsort(operator.order)  # each unknown's band row
    pr, pc = pos[rows], pos[cols]  # each entry's row and column in band order
    off, kept = pr - pc, sym != 0
    band = np.zeros((1 + np.abs(off[kept]).max(), size))  # S_ij at (i - j, j), i >= j
    band[np.abs(off[kept]), np.minimum(pr, pc)[kept]] = sym[kept]
    value = hermite.lowest(band)
    if value < operator.lower_bound:
        raise EigenError(f"lambda {value:.12g} below the certified bound {operator.lower_bound:.12g}")
    sigma = value - 1e-10 * norm
    kl, ku = max(0, int(off.max())), max(0, int(-off.min()))
    shifted = np.zeros((2 * kl + ku + 1, size), order="F")  # a_ij at (kl + ku + i - j, j)
    shifted[kl + ku + off, pc] = data
    shifted[kl + ku] -= sigma
    lu, piv = splu(shifted, kl, ku)

    def residual_of(v):  # |A v - theta v|_inf, v in band order
        return float(np.abs(np.bincount(pr, data * v[pc], size) - value * v).max())

    v = np.ones(size)  # in band order until the return
    for iterations in range(1, 4):
        v = dgbtrs(lu, kl, ku, v, piv)[0]
        v /= np.abs(v).max()
        residual = residual_of(v)
        if residual <= 64 * np.finfo(float).eps * norm:
            break
    if residual > 1e-8 * max(1.0, abs(value)):
        raise EigenError(f"inverse iteration residual {residual:.3g} at lambda = {value:.12g}")
    if v.min() < -1e-8:
        raise EigenError("inverse iteration converged to a sign-changing eigenvector")
    v = np.maximum(v, 0.0)
    residual = residual_of(v)
    return EigenPair(value=value, vector=v[pos], residual=residual, iterations=iterations)


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
    if not math.isfinite(1.0 / h_target):
        raise ValueError(f"h_target = {h_target!r} has no finite node count; set a larger one")
    p = max(4, math.ceil(1.0 / h_target))
    ls = [float(l0 + k) for k in range(rungs)]
    ms = [2 * p * (l0 + k) + 1 for k in range(rungs)]
    return ls, ms


def lambda_limit(params: model.ModelParams, L_schedule, m_schedule, *,
                 tol_domain: float = 1e-6, richardson: bool = True) -> EigenResult:
    """Climb the box ladder until lambda_L stabilizes, then refine in h.

    Each rung (L, m) is one principal_eigenpair solve, converged to
    machine precision, of the reduced operator for mirror habitats and of
    the full one otherwise. lambda_L must be nonincreasing along the
    ladder (it is, exactly, when the spacing is constant); an increase
    beyond tol_domain aborts, and two rungs within tol_domain stop the
    climb. Unless richardson is False, one solve at half the spacing then
    gives the h^2 Richardson extrapolation reported as .lam.
    """
    ls = list(L_schedule)
    ms = [int(m) for m in m_schedule]
    if len(ls) != len(ms):
        raise ValueError(f"schedule lengths differ: {len(ls)} L values vs {len(ms)} m values")
    if not ls:
        raise ValueError("empty schedule")

    rows: list[EigenRow] = []
    iterations, converged, prev = 0, False, math.inf
    mirror = hermite.is_mirror(params)
    assemble = assemble_symmetric_reduced if mirror else assemble_full
    for L, m in zip(ls, ms):
        g = build_grid(params.n, L, m)
        pair = principal_eigenpair(assemble(params, g))
        rows.append(EigenRow(L=L, m=m, lambda_L=pair.value, residual=pair.residual))
        iterations += pair.iterations
        if pair.value > prev + tol_domain:
            raise EigenError(
                f"lambda_L increased from {prev:.12g} to {pair.value:.12g} at L={L}: "
                "box ladder is not resolved (spacing too coarse?)")
        if abs(pair.value - prev) < tol_domain:
            converged = True
            break
        prev = pair.value

    lam = pair.value  # the last rung's (g, pair): the schedule is not empty
    if richardson:
        g2 = build_grid(params.n, g.L, 2 * g.m - 1)
        pair2 = principal_eigenpair(assemble(params, g2))
        rows.append(EigenRow(L=g.L, m=g2.m, lambda_L=pair2.value, residual=pair2.residual))
        iterations += pair2.iterations
        lam = (4.0 * pair2.value - pair.value) / 3.0
        g, pair = g2, pair2

    v = pair.vector
    field = Field2(v, reflect_field(g, v)) if mirror else Field2(v[:g.size], v[g.size:])
    return EigenResult(rows=rows, lam=lam, eigenfield=field, grid=g, residual=pair.residual,
                       iterations=iterations, converged=converged)


def lambda_of(params: model.ModelParams, *, h_target: float | None = None,
              rungs: int = 4, tol_domain: float = 1e-6, richardson: bool = True) -> float:
    """Principal eigenvalue of the free-space operator by Hermite-Galerkin.

    The smallest eigenvalue of hermite.galerkin's banded matrix in the
    Hermite functions of width sqrt(mu): tridiagonal for mirror habitats,
    pentadiagonal with the habitats' modes interleaved otherwise (similar to
    the matrix pde.integrate_to propagates, so of the same spectrum), plus the
    constant -max(rmax_i) + (n - 1) mu / 2 (hermite.with_constant). The basis
    size K is hermite.certified's: the first of 32, 64, ..., 8192 at which one
    banded Cholesky of a larger head proves the Galerkin value, an upper
    bound, to lie within 1e-13 times the largest diagonal entry of the
    operator's eigenvalue. EigenError is raised past K = 8192.

    h_target, rungs, tol_domain and richardson set the box ladder only and do
    not change the value; the benchmark passes them with each config's ladder
    settings.
    """
    return hermite.with_constant(params, hermite.certified(params)[0])
