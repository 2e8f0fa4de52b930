"""Oracle tests for the transverse factorisation.

The solvers discretize only the x1 axis and fold the n - 1 transverse
traits into the fitness as the load (n - 1) mu / 2. These tests build the
two-trait discretisation on the full m x m tensor grid (a Kronecker sum of
the axis operator and a transverse harmonic oscillator) and check that the
axis solves reproduce it exactly, up to the oscillator's own grid error.
"""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from twopatch import eigen, model, pde
from twopatch.grid import Field2, build_grid, integrate

L, M = 3.0, 25
MIGRATIONS = {
    "symmetric": dict(rmax1=0.3, rmax2=0.3, migration=model.Symmetric(0.2)),
    "general": dict(rmax1=0.3, rmax2=0.1, migration=model.General(0.2, 0.05, 0.15, 0.3)),
}


def params_2d(kind):
    return model.ModelParams(n=2, mu=0.2, beta=0.5, **MIGRATIONS[kind])


def second_difference(m, h):
    e = np.ones(m)
    return sp.diags([-e[1:], 2.0 * e, -e[1:]], [-1, 0, 1]) / (h * h)


def operator_2d(params):
    """-(growth operator) on the m x m grid of [-L, L]^2, x1 the slow index."""
    g = build_grid(2, L, M)
    x = g.axis()
    t = second_difference(M, g.h)
    eye = sp.identity(M)
    neg_lap = sp.kron(t, eye) + sp.kron(eye, t)
    nodes = np.column_stack([np.repeat(x, M), np.tile(x, M)])
    r1 = model.fitness(params, 1, nodes)
    r2 = model.fitness(params, 2, nodes)
    d11, d12, d21, d22 = params.migration.rates
    half_mu2 = 0.5 * params.mu * params.mu
    eye2 = sp.identity(M * M)
    a11 = half_mu2 * neg_lap - sp.diags(r1 - d11)
    a22 = half_mu2 * neg_lap - sp.diags(r2 - d22)
    return sp.bmat([[a11, -d12 * eye2], [-d21 * eye2, a22]], format="csr")


def oscillator(params):
    """(mu^2 / 2)(-Delta_h) + x^2 / 2 on the axis: one transverse trait."""
    g = build_grid(2, L, M)
    x = g.axis()
    return (0.5 * params.mu ** 2 * second_difference(M, g.h) + sp.diags(0.5 * x * x)).tocsr()


@pytest.mark.parametrize("kind", sorted(MIGRATIONS))
def test_two_trait_eigenvalue_is_axis_value_plus_oscillator_gap(kind):
    # lambda_2D = lambda_1D + tau0(h) and lambda_axis(n=2) = lambda_1D + mu/2
    p = params_2d(kind)
    tight = dict(tol_value=1e-13, tol_residual=1e-12)
    lam_2d = eigen.principal_eigenpair(operator_2d(p), eigen.spectral_lower_bound(p),
                                       **tight).value
    lam_axis = eigen.lambda_limit(p, [L], [M], richardson=False, **tight).lam
    tau0 = scipy.linalg.eigvalsh(oscillator(p).toarray(), subset_by_index=[0, 0])[0]
    assert lam_2d - lam_axis == pytest.approx(tau0 - 0.5 * p.mu, abs=1e-10)


@pytest.mark.parametrize("kind", sorted(MIGRATIONS))
def test_two_trait_malthusian_masses_factor_through_the_axis(kind):
    # u_2D(t) = u_1D(t) x psi(t), so the 2-D habitat masses are the axis
    # masses with the continuum factor exp(-mu t/2) replaced by the grid's G_h(t)
    p = params_2d(kind)
    g = build_grid(2, L, M)
    x = g.axis()
    w0 = pde.gaussian_initial(g, 0.2, 0.3, 1.0)
    psi0 = np.exp(-0.5 * x * x / p.mu)
    psi0 /= integrate(g, psi0)
    cfg = pde.SolverConfig(t_end=4.0, record_every=1.0)
    traj, _ = pde.integrate_to(p, g, Field2(w0, 0.5 * w0), cfg)

    u0 = np.concatenate([np.kron(w0, psi0), np.kron(0.5 * w0, psi0)])
    u_2d = expm_multiply(-operator_2d(p), u0, start=0.0, stop=4.0, num=5, endpoint=True)
    psi = expm_multiply(-oscillator(p), psi0, start=0.0, stop=4.0, num=5, endpoint=True)
    for k, t in enumerate(traj.t):
        ratio = integrate(g, psi[k]) / math.exp(-0.5 * p.mu * t)
        for i, n_axis in ((0, traj.N1[k]), (1, traj.N2[k])):
            u = u_2d[k, i * M * M:(i + 1) * M * M].reshape(M, M)
            mass = np.trapezoid(np.trapezoid(u, dx=g.h, axis=1), dx=g.h)
            assert mass == pytest.approx(n_axis * ratio, rel=1e-7)
