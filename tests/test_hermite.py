"""The Hermite-function basis behind eigen.lambda_of and pde.integrate_to."""

import math

import numpy as np
import pytest

import oracle
from twopatch import eigen, hermite, model, pde

MU = 0.2


def test_basis_matches_physicists_hermite_functions():
    x = np.linspace(-6.0, 6.0, 241)
    got = hermite.basis(60, x / math.sqrt(MU)) * MU ** -0.25
    np.testing.assert_allclose(got, oracle.phi(MU, 60, x), rtol=0, atol=1e-13)


def test_basis_beyond_the_underflow_of_the_ground_mode():
    # psi_0(50) = e^-1250 / pi^(1/4) is below the float64 range, but modes
    # whose turning point sqrt(2k + 1) lies past 50 are O(0.1) there; an
    # unscaled recurrence in extended precision is the reference
    y = np.array([0.0, 10.0, 40.0, 50.0])
    size = 1500
    got = hermite.basis(size, y)
    ref = np.empty((size, y.size), dtype=np.longdouble)
    yl = y.astype(np.longdouble)
    ref[0] = np.exp(-yl * yl / 2) / np.longdouble(math.pi) ** np.longdouble(0.25)
    ref[1] = np.sqrt(np.longdouble(2)) * yl * ref[0]
    for k in range(1, size - 1):
        ref[k + 1] = (np.sqrt(np.longdouble(2) / (k + 1)) * yl * ref[k]
                      - np.sqrt(np.longdouble(k) / (k + 1)) * ref[k - 1])
    ref = ref.T.astype(float)
    assert np.isfinite(got).all()
    assert got[3, 0] == 0.0 and abs(got[3, -1]) > 1e-3
    big = np.abs(ref) > 1e-250
    np.testing.assert_allclose(got[big], ref[big], rtol=1e-9)
    assert np.all(np.abs(got[~big]) < 1e-240)


def test_moments_match_quadrature():
    x, w = oracle.quadrature_axis(MU, 8.0)
    basis = oracle.phi(MU, 64, x)
    got = hermite.moments(MU, 64)
    for p in range(3):
        np.testing.assert_allclose(got[p], basis.T @ (w * x ** p), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("center, variance", [
    (0.0, MU), (0.7, MU), (-0.3, 0.1), (0.4, 0.5), (0.2, 0.02), (0.5, 1.0)],
    ids=["centred", "coherent", "narrow", "wide", "needle", "broad"])
def test_gaussian_coefficients_match_quadrature(center, variance):
    x, w = oracle.quadrature_axis(MU, 8.0)
    g = 2.0 * np.exp(-0.5 * (x - center) ** 2 / variance) / math.sqrt(2.0 * math.pi * variance)
    want = oracle.phi(MU, 64, x).T @ (w * g)
    got = hermite.gaussian_coefficients(MU, center, variance, 2.0, 64)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("migration, rmax2", [
    (model.Symmetric(0.3), 0.3),
    (model.Symmetric(0.3), 0.1),
    (model.General(0.3, 0.05, 0.2, 0.7), 0.1),
], ids=["mirror", "unequal_peaks", "general"])
def test_galerkin_band_is_the_block_operator(migration, rmax2):
    # the interleaved band, rescaled by D = diag(1, sqrt(d21 / d12)), and for
    # mirror habitats the even half A11 - delta P, against the block matrix
    p = model.ModelParams(n=2, mu=MU, rmax1=0.3, rmax2=rmax2, beta=0.5, migration=migration)
    size = 24
    block = oracle.galerkin_matrix(p, size) - hermite.with_constant(p, 0.0) * np.eye(2 * size)
    d11, d12, d21, _ = migration.rates
    scale = np.r_[np.ones(size), np.full(size, math.sqrt(d21 / d12))]
    want = block * np.outer(1.0 / scale, scale)
    order = np.ravel([np.arange(size), size + np.arange(size)], order="F")
    full = hermite.galerkin(p, size, even_half=False)
    np.testing.assert_allclose(pde._dense(full), want[np.ix_(order, order)], rtol=0, atol=1e-15)
    if hermite.is_mirror(p):
        half = block[:size, :size] - d11 * np.diag((-1.0) ** np.arange(size))
        np.testing.assert_allclose(pde._dense(hermite.galerkin(p, size)), half, rtol=0, atol=1e-15)


def test_smallest_is_lambda_of_less_its_constant():
    p = model.ModelParams(n=3, mu=MU, rmax1=0.3, rmax2=0.2, beta=0.5,
                          migration=model.General(0.3, 0.05, 0.2, 0.7))
    lam, size = hermite.smallest(p)
    assert size in hermite.SIZES
    assert eigen.lambda_of(p) == hermite.with_constant(p, lam)
