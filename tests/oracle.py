"""Independent oracles for the Hermite-basis PDE solve.

pde.integrate_to solves in the Hermite functions phi_k(x) = mu^(-1/4)
psi_k(x / sqrt(mu)). The oracles here rebuild that solve by other means:
the basis from scipy.special.eval_hermite, the initial coefficients, masses
and mean-fitness weights by trapezoid quadrature on a fine wide grid (exact
to roundoff for these smooth, fast-decaying integrands), the Galerkin matrix
in block layout from the textbook oscillator and position-operator formulas,
and the propagator as scipy.linalg.expm at each record time. A dense
finite-difference operator on a box (fd_mirror_matrix) gives a second,
discretised route to the same dynamics.
"""

import math

import numpy as np
import scipy.linalg
from scipy.special import eval_hermite, gammaln


def phi(mu, size, x):
    """(len(x), size) values of phi_k(x), k < size, from the physicists' H_k."""
    y = np.asarray(x, dtype=float)[:, None] / math.sqrt(mu)
    k = np.arange(size)
    log_norm = -0.5 * (k * math.log(2.0) + gammaln(k + 1) + 0.5 * math.log(math.pi))
    out = eval_hermite(k, y) * np.exp(log_norm - 0.5 * y * y) * mu ** -0.25
    assert np.isfinite(out).all(), "H_k overflows: use a narrower axis or fewer modes"
    return out


def quadrature_axis(mu, span):
    """A fine grid over [-span, span], spacing sqrt(mu) / 40, and its trapezoid weights."""
    x = np.linspace(-span, span, 2 * int(40 * span / math.sqrt(mu)) + 1)
    w = np.full(x.size, x[1] - x[0])
    w[[0, -1]] *= 0.5
    return x, w


def gaussian(x, bumps, mu):
    """Sum of mass * N(center, mu) over bumps, at the points x."""
    return sum(b.mass * np.exp(-0.5 * (x - b.center) ** 2 / mu)
               / math.sqrt(2.0 * math.pi * mu) for b in bumps)


def galerkin_matrix(params, size):
    """The 2K x 2K growth operator in block layout (habitat 1's modes first).

    -(mu^2 / 2) d^2/dx^2 + x^2 / 2 is diag(mu (k + 1/2)); x is the tridiagonal
    sqrt(mu) (sqrt(k / 2) above and below); r_i = rmax_i - (n - 1) mu / 2 -
    (x +- beta)^2 / 2; migration couples the habitats by -d12 and -d21.
    """
    mu, beta, n = params.mu, params.beta, params.n
    d11, d12, d21, d22 = params.migration.rates
    k = np.arange(size)
    osc = np.diag(mu * (k + 0.5))
    pos = np.diag(math.sqrt(mu) * np.sqrt(0.5 * k[1:]), 1)
    pos = pos + pos.T
    eye = np.eye(size)
    load = 0.5 * (n - 1) * mu
    a11 = osc + beta * pos + (0.5 * beta * beta - params.rmax1 + load + d11) * eye
    a22 = osc - beta * pos + (0.5 * beta * beta - params.rmax2 + load + d22) * eye
    return np.block([[a11, -d12 * eye], [-d21 * eye, a22]])


def fd_mirror_matrix(params, L, m):
    """(x, A): m uniform nodes on [-L, L] and the dense three-point
    finite-difference growth operator of mirror habitats there.

    On the habitat-swap-even half (v, v reversed), for Symmetric migration
    and rmax1 = rmax2, (A v)_k = (mu^2 / 2)(2 v_k - v_(k-1) - v_(k+1)) / h^2
    - r_1(x_k) v_k + delta (v_k - v_(m-1-k)), zero beyond both ends, with
    r_1 = rmax1 - (n - 1) mu / 2 - (x + beta)^2 / 2.
    """
    x = np.linspace(-L, L, m)
    h = 2.0 * L / (m - 1)
    mu, delta = params.mu, params.migration.delta
    r1 = params.rmax1 - 0.5 * (params.n - 1) * mu - 0.5 * (x + params.beta) ** 2
    eye = np.eye(m)
    second = (2.0 * eye - np.eye(m, k=1) - np.eye(m, k=-1)) / (h * h)
    return x, 0.5 * mu * mu * second - np.diag(r1) + delta * (eye - eye[::-1])


class Solve:
    """The Malthusian solve of pde.integrate_to from bumps, by dense expm of the
    Galerkin matrix once per distinct record step."""

    def __init__(self, params, data, size=96, span=8.0):
        self.params, self.size = params, size
        x, w = quadrature_axis(params.mu, span)
        basis = phi(params.mu, size, x)
        self.c0 = np.concatenate([basis.T @ (w * gaussian(x, data.u1, params.mu)),
                                  basis.T @ (w * gaussian(x, data.u2, params.mu))])
        self.mass = basis.T @ w
        load = 0.5 * (params.n - 1) * params.mu
        r1 = params.rmax1 - load - 0.5 * (x + params.beta) ** 2
        r2 = params.rmax2 - load - 0.5 * (x - params.beta) ** 2
        self.r_weights = (basis.T @ (w * r1), basis.T @ (w * r2))
        self.a = galerkin_matrix(params, size)

    def trajectory(self, times):
        """Coefficients at each of the increasing times, one expm per distinct step."""
        out, steps = [self.c0], {}
        for dt in np.diff(times):
            key = round(float(dt), 12)
            if key not in steps:
                steps[key] = scipy.linalg.expm(-dt * self.a)
            out.append(steps[key] @ out[-1])
        return out

    def observe(self, c):
        """(N1, N2, rbar1, rbar2) of stacked coefficients."""
        c1, c2 = c[:self.size], c[self.size:]
        n1, n2 = self.mass @ c1, self.mass @ c2
        return n1, n2, self.r_weights[0] @ c1 / n1, self.r_weights[1] @ c2 / n2

    def state(self, c, x):
        """(u1, u2) of stacked coefficients at the points x."""
        basis = phi(self.params.mu, self.size, x)
        return basis @ c[:self.size], basis @ c[self.size:]
