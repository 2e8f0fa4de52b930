"""Oracle tests for the transverse factorisation.

The solvers discretize only the x1 axis and fold the n - 1 transverse
traits into the fitness as the load (n - 1) mu / 2. These tests build the
two-trait discretisation as a Kronecker sum of the axis operator and a
transverse harmonic oscillator, on the full m x m tensor grid for the box
ladder and on the tensor Hermite basis for the PDE, and check that the axis
solves reproduce it exactly, up to the oscillator's own grid error.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import oracle
from twopatch import eigen, model, pde
from twopatch.grid import build_grid

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
    # the habitats interleaved node by node keep the band about 2M wide
    nodes = np.arange(M * M)
    op_2d = eigen.Operator(matrix=operator_2d(p), symmetric=kind == "symmetric",
                           lower_bound=eigen.spectral_lower_bound(p),
                           order=np.ravel([nodes, M * M + nodes], order="F"))
    lam_2d = eigen.principal_eigenpair(op_2d).value
    lam_axis = eigen.lambda_limit(p, [L], [M], richardson=False).lam
    tau0 = scipy.linalg.eigvalsh(oscillator(p).toarray(), subset_by_index=[0, 0])[0]
    assert lam_2d - lam_axis == pytest.approx(tau0 - 0.5 * p.mu, abs=1e-10)


@pytest.mark.parametrize("kind", sorted(MIGRATIONS))
def test_two_trait_malthusian_masses_factor_through_the_axis(kind):
    # u_2D(t) = u_1D(t) x psi(t): the two-trait Galerkin system on the tensor
    # basis phi_k(x1) phi_j(x2), where the transverse oscillator is
    # diag(mu (j + 1/2)) and psi = N(0, mu) is its ground mode, gives the
    # masses of the axis solve at n = 2, whose load mu / 2 is that mode's decay
    p = params_2d(kind)
    size, modes = 48, 4
    axis = dataclasses.replace(p, n=1)
    a_2d = (np.kron(oracle.galerkin_matrix(axis, size), np.eye(modes))
            + np.kron(np.eye(2 * size), np.diag(p.mu * (np.arange(modes) + 0.5))))
    data = pde.InitialData((pde.Bump(0.2, 1.0),), (pde.Bump(0.2, 0.5),))
    x, w = oracle.quadrature_axis(p.mu, 8.0)
    basis = oracle.phi(p.mu, size, x)
    stationary = oracle.gaussian(x, (pde.Bump(0.0, 1.0),), p.mu)  # N(0, mu) in x2
    transverse = oracle.phi(p.mu, modes, x).T @ (w * stationary)
    c_axis = np.concatenate([basis.T @ (w * oracle.gaussian(x, data.u1, p.mu)),
                             basis.T @ (w * oracle.gaussian(x, data.u2, p.mu))])
    mass = basis.T @ w
    mass_t = oracle.phi(p.mu, modes, x).T @ w
    cfg = pde.SolverConfig(t_end=4.0, record_every=1.0)
    traj, _ = pde.integrate_to(p, data, cfg)
    for k, t in enumerate(traj.t):
        c = (scipy.linalg.expm(-t * a_2d) @ np.kron(c_axis, transverse)).reshape(2, size, modes)
        for i, n_axis in ((0, traj.N1[k]), (1, traj.N2[k])):
            assert mass @ c[i] @ mass_t == pytest.approx(n_axis, rel=1e-7)
