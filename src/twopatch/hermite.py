"""The Hermite-function basis of width sqrt(mu), in which the growth operator is banded.

phi_k(x) = mu^(-1/4) psi_k(x / sqrt(mu)), with psi_k the orthonormal Hermite
functions, are the eigenfunctions of -(mu^2 / 2) d^2/dx^2 + x^2 / 2 with
eigenvalues mu (k + 1/2). Quadratic selection about -beta (habitat 1) and
+beta (habitat 2) adds +-beta x + beta^2 / 2 to that oscillator, and x acts on
the basis as the tridiagonal position operator

    x phi_k = sqrt(mu) (sqrt((k + 1) / 2) phi_{k+1} + sqrt(k / 2) phi_{k-1}),

so the growth operator that eigen and pde solve is a banded matrix here
(J. P. Boyd, Chebyshev and Fourier Spectral Methods, 2nd ed., 2001, ch. 17;
J. Shen, T. Tang and L.-L. Wang, Spectral Methods, 2011, ch. 7). The same
three-term structure gives the integrals of phi_k against 1, x and x^2 and
the values at points, and Gaussian data of the basis width (coherent states)
have closed-form coefficients, so no quadrature enters.

Every smallest-eigenvalue solve of the package goes through lowest, which
calls LAPACK's dstebz (tridiagonal) or dsbevx (band) directly: bit for bit
scipy.linalg's value, without the wrappers' per-call checks that took half
of lambda_of's time. A LAPACK failure is an EigenError (CLI exit 2).

One rule picks the basis size K: certified, behind eigen.lambda_of, stops at
the first K whose Galerkin value it proves to within 1e-13 of the largest
diagonal entry, by one banded Cholesky of a larger head.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dlamch, dpbtrf, dpttrf, dsbevx, dstebz

from . import model

# Basis sizes K tried by certified (and, up to its own cap, pde.integrate_to), doubling.
SIZES = tuple(32 * 2 ** j for j in range(9))  # 32 ... 8192

# Per-index factors of galerkin's rows, k < 2 SIZES[-1] (certified's largest
# Cholesky): k + 1/2 and sqrt(k).
_HALF = np.arange(2 * SIZES[-1]) + 0.5
_ROOT = np.sqrt(np.arange(2 * SIZES[-1]))

# dsbevx's absolute tolerance, the one scipy.linalg passes: twice the safe minimum.
_ABSTOL = 2 * dlamch("s")
# Machine epsilon, the unit of certified's backward-error margin.
_EPS = float(np.finfo(float).eps)


class EigenError(RuntimeError):
    """Eigensolve failure (non-convergence, non-monotone box ladder, ...)."""


def check_mu(mu: float) -> None:
    """Raise ValueError unless galerkin's mu (k + 1/2) is finite at every k < 2 SIZES[-1]."""
    if not math.isfinite(mu * _HALF[-1].item()):
        raise ValueError(f"mu = {mu!r} is too large for the Hermite basis: mu (k + 1/2) "
                         f"overflows float64 below k = {_HALF.size}")


def is_mirror(params: model.ModelParams) -> bool:
    """Symmetric migration and rmax1 == rmax2: the habitats are mirror images."""
    return isinstance(params.migration, model.Symmetric) and params.rmax1 == params.rmax2


def with_constant(params: model.ModelParams, values):
    """Eigenvalues of galerkin(params, K) shifted to the growth operator's.

    The operator is the band plus (-max(rmax_i) + (n - 1) mu / 2) I; adding
    the two terms after the solve, in that order, keeps the rmax and
    trait-dimension identities exact to rounding.
    """
    return values - max(params.rmax1, params.rmax2) + 0.5 * (params.n - 1) * params.mu


def galerkin(params: model.ModelParams, size: int, even_half: bool = True) -> np.ndarray:
    """Lower band of the Galerkin matrix of the growth operator, less its
    constant (see with_constant).

    Mirror habitats (and even_half) give the (2, K) tridiagonal of the
    operator on the habitat-swap-even half, on which the reflection acts as
    (-1)^k:

        mu (k + 1/2) + beta^2 / 2 + delta (1 - (-1)^k),  off-diagonal beta sqrt(mu k / 2).

    Otherwise the band is (3, 2K): habitat 1's modes at even indices, habitat
    2's (which see -beta) at odd ones, each shifted by max(rmax) - rmax_i +
    d_ii, and coupled by -sqrt(d12 d21). That is D^-1 A D with D = 1 on
    habitat 1 and sqrt(d21 / d12) on habitat 2, the diagonal scaling that
    makes A symmetric. With d12 d21 = 0 the coupling is 0: A is block
    triangular and has the same spectrum.
    """
    mu, beta = params.mu, params.beta
    d11, d12, d21, d22 = params.migration.rates
    diag = mu * _HALF[:size] + 0.5 * beta * beta
    off = beta * math.sqrt(0.5 * mu) * _ROOT[1:size]
    if even_half and is_mirror(params):
        diag[1::2] += 2.0 * d11
        band = np.zeros((2, size))
        band[0], band[1, :-1] = diag, off
        return band
    top = max(params.rmax1, params.rmax2)
    band = np.zeros((3, 2 * size))
    band[0, 0::2] = diag + (top - params.rmax1) + d11
    band[0, 1::2] = diag + (top - params.rmax2) + d22
    band[1, 0::2] = -math.sqrt(d12 * d21)
    band[2, 0:-2:2] = off
    band[2, 1:-2:2] = -off
    return band


def lowest(band: np.ndarray, tridiagonal: bool = False) -> float:
    """Smallest eigenvalue of the symmetric matrix whose lower band is band.

    tridiagonal: LAPACK's dstebz bisects the (d, e) = (band[0], band[1, :-1])
    pair; otherwise dsbevx takes the band, at any width. The arguments are
    those of scipy.linalg's tridiagonal and banded eigenvalue functions with
    select="i", select_range=(0, 0), so the value is theirs bit for bit.
    Raises EigenError when LAPACK reports info != 0, finds other than one
    eigenvalue, or returns one that is not finite.
    """
    if tridiagonal:
        count, w, _, _, info = dstebz(band[0], band[1, :-1], 2, 0.0, 1.0, 1, 1, 0.0, "E")
    else:
        w, _, count, _, info = dsbevx(band, 0.0, 1.0, 1, 1, compute_v=0, mmax=1, range=2,
                                      lower=1, overwrite_ab=0, abstol=_ABSTOL)
    value = float(w[0])
    if info != 0 or count != 1 or not math.isfinite(value):
        raise EigenError(f"LAPACK {'dstebz' if tridiagonal else 'dsbevx'} failed at order "
                         f"{band.shape[1]}: info = {info}, {count} eigenvalue(s), lowest {value!r}")
    return value


def certified(params: model.ModelParams) -> tuple[float, float, int]:
    """(value, lo, K): value = lowest(galerkin(params, K)) >= lambda, and a
    proof that lambda >= lo = value - tol, tol = 1e-13 times galerkin(K)'s
    largest diagonal entry, at the first K of SIZES where the proof succeeds.
    lambda is the operator's smallest eigenvalue less with_constant's constant.

    value >= lambda because it is a Rayleigh-Ritz value (Courant-Fischer;
    R. A. Horn and C. R. Johnson, Matrix Analysis, 2nd ed., 2013, sections 4.2
    and 6.1). For the lower bound, split the infinite band at a head of
    K' >= 2K modes per habitat. Only x couples the halves, by b = beta
    sqrt(mu K' / 2) between modes K' - 1 and K', and 2 b y z >= -(b^2 / s) y^2
    - s z^2 for any s > 0. On the tail, (1/2)(x +- beta)^2 >= (1/2)(1 - e) x^2
    - (1/2)(1/e - 1) beta^2 at e = beta / sqrt(2 mu (K' + 1/2)) <= 1 bounds
    each habitat's oscillator below by (sqrt(mu (K' + 1/2)) - beta / sqrt 2)^2,
    and the 2 x 2 fitness-and-migration matrix adds at least floor =
    min_i(max rmax - rmax_i + d_ii) - sqrt(d12 d21) (mirror: the reflection's
    delta (1 - (-1)^k) >= 0, and floor is 0). So with G that tail bound and
    s = G - sigma, sigma = lo + margin, the band is >= lo wherever the head
    less (b^2 / s) on each habitat's last row, less sigma, is positive
    definite: one O(K') Cholesky, dpttrf on the mirror tridiagonal and dpbtrf
    on the interleaved band. margin = 32 eps (max|head| + |lo|) covers that
    factorisation's backward error (at most (w + 1)(2w + 1) eps times the
    shifted diagonal for w subdiagonals; N. J. Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., 2002, section 10.1.1) and the rounding of
    the band, G and b^2 / s.

    K' is the first of 2K, 4K, ... (at most 2 SIZES[-1]) with e <= 1 and
    G - lo > |lo - floor|: the tail bound clears lo by at least lo's own height
    above floor, which keeps b^2 / s moderate. The proof succeeds once K has
    converged, one doubling before two successive sizes agree on value.
    Raises EigenError past the last size, or when LAPACK fails (lowest).
    """
    mu, beta = params.mu, params.beta
    d11, d12, d21, d22 = params.migration.rates
    top = max(params.rmax1, params.rmax2)
    floor = min(top - params.rmax1 + d11, top - params.rmax2 + d22) - math.sqrt(d12 * d21)
    for size in SIZES:
        split = 2 * size
        head = galerkin(params, split)
        tridiagonal = head.shape[0] == 2
        # galerkin(params, size) is head's leading block, less its two
        # couplings past the block in the interleaved band
        band = head[:, :size] if tridiagonal else head[:, :2 * size].copy()
        band[2:, -2:] = 0.0
        value = lowest(band, tridiagonal)
        lo = value - 1e-13 * np.abs(band[0]).max()
        while split <= 2 * SIZES[-1]:
            root = math.sqrt(mu * (split + 0.5)) - beta / math.sqrt(2.0)
            tail = root * root + floor
            if root >= 0 and tail - lo > abs(lo - floor):
                break
            split *= 2
        else:
            continue
        if split > 2 * size:
            head = galerkin(params, split)
        sigma = lo + 32 * _EPS * (np.abs(head).max() + abs(lo))
        if tail <= sigma:
            continue
        corner = 0.5 * beta * beta * mu * split / (tail - sigma)  # b^2 / s
        if tridiagonal:
            diag = head[0] - sigma
            diag[-1] -= corner
            info = dpttrf(diag, head[1, :-1], overwrite_d=1, overwrite_e=1)[2]
        else:
            head[0] -= sigma
            head[0, -2:] -= corner
            info = dpbtrf(head, lower=1, overwrite_ab=1)[1]
        if info == 0:
            return value, lo, size
    raise EigenError(f"Hermite-Galerkin lambda not converged at K = {SIZES[-1]} "
                     f"(beta^2 / mu = {beta ** 2 / mu:.3g} needs a larger basis)")


def _position(v: np.ndarray, mu: float) -> np.ndarray:
    """(x v)_k for k < len(v) - 1: x as the symmetric tridiagonal position operator."""
    k = np.arange(v.size - 1)
    out = np.sqrt(0.5 * (k + 1)) * v[1:]
    out[1:] += np.sqrt(0.5 * k[1:]) * v[:-2]
    return math.sqrt(mu) * out


def moments(mu: float, size: int) -> np.ndarray:
    """(3, K) integrals of phi_k against 1, x and x^2, k < K.

    int phi_0 = sqrt(2) (pi mu)^(1/4), int phi_k = 0 at odd k and
    int phi_{k+1} = sqrt(k / (k + 1)) int phi_{k-1}; the x and x^2 rows apply
    the position operator once and twice, so no quadrature enters.
    """
    m = np.zeros(size + 2)
    m[0] = math.sqrt(2.0) * (math.pi * mu) ** 0.25
    k = np.arange(2, size + 2, 2)
    m[2::2] = m[0] * np.cumprod(np.sqrt((k - 1) / k))
    xm = _position(m, mu)
    return np.array([m[:size], xm[:size], _position(xm, mu)])


def basis(size: int, y: np.ndarray) -> np.ndarray:
    """(len(y), K) values psi_k(y_j), k < K.

    Three-term recurrence psi_{k+1} = sqrt(2 / (k + 1)) y psi_k -
    sqrt(k / (k + 1)) psi_{k-1}, carried relative to a running scale that
    starts at e^(-y^2 / 2) and is renormalised every 32 steps, so psi_0 does
    not underflow to 0 where a higher mode is still large. |y| is clipped at
    1e9: beyond it every psi_k with k below about 1e16 underflows to 0, and
    within it a renormalised pair grows by at most (sqrt(2) |y| + 1)^32 <
    e^680 before the next renormalisation, so every value is finite.
    """
    y = np.clip(np.asarray(y, dtype=float), -1e9, 1e9)
    k = np.arange(1, size)
    up = np.sqrt(2.0 / k)[:, None] * y  # row k - 1: sqrt(2 / k) y
    down = np.sqrt((k - 1) / k)
    out = np.empty((size, y.size))
    out[0] = math.pi ** -0.25
    log_scale = -0.5 * y * y
    start = 0  # rows from start on are relative to exp(log_scale)
    for j in range(1, size):
        cur = np.multiply(up[j - 1], out[j - 1], out=out[j])
        if j > 1:
            cur -= down[j - 1] * out[j - 2]
        if j % 32 == 0:
            out[start:j - 1] *= np.exp(log_scale)
            norm = np.abs(cur) + np.abs(out[j - 1])
            out[j - 1:j + 1] /= norm
            log_scale += np.log(norm)
            start = j - 1
    out[start:] *= np.exp(log_scale)
    return out.T


def gaussian_coefficients(mu: float, center: float, mass: float, size: int) -> np.ndarray:
    """Coefficients c_k = int g phi_k, k < K, of g = mass N(center, mu).

    g has the basis width, so it is a coherent state: c_k = mass (2 pi mu)^(-1/2)
    mu^(1/4) pi^(1/4) e^(-b^2 / 4) (b / sqrt 2)^k / sqrt(k!), b = center /
    sqrt(mu), evaluated in logs. The |c_k|^2 are proportional to Poisson(b^2 / 2)
    weights, so the data's tail beyond any K has a closed form.
    """
    b = center / math.sqrt(mu)
    scale = mass * mu ** 0.25 / math.sqrt(2.0 * math.pi * mu)
    k = np.arange(size)
    log_factorial = np.concatenate([[0.0], np.cumsum(np.log(k[1:]))])
    log_c = 0.25 * math.log(math.pi) - 0.25 * b * b - 0.5 * log_factorial
    if b == 0.0:
        return np.where(k == 0, scale * np.exp(log_c), 0.0)
    return scale * np.sign(b) ** k * np.exp(log_c + k * math.log(abs(b) / math.sqrt(2.0)))
