"""The Hermite-function basis behind eigen.lambda_of and pde.integrate_to."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, eigvals_banded

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


def test_basis_is_finite_at_any_point():
    # far past every turning point all modes underflow to 0; the recurrence
    # used to overflow on its way there (past |y| of about 1e10) and give nan
    y = np.array([-np.inf, -1e300, -3e10, 0.0, 1e9, 3e10, 1e154, np.inf])
    got = hermite.basis(200, y)
    assert np.isfinite(got).all()
    assert not got[[0, 1, 2, 5, 6, 7]].any()
    np.testing.assert_array_equal(got[3], hermite.basis(200, np.zeros(1))[0])


def test_moments_match_quadrature():
    x, w = oracle.quadrature_axis(MU, 8.0)
    basis = oracle.phi(MU, 64, x)
    got = hermite.moments(MU, 64)
    for p in range(3):
        np.testing.assert_allclose(got[p], basis.T @ (w * x ** p), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("center", [0.0, 0.7, -1.5, 2.5],
                         ids=["centred", "coherent", "left", "right"])
def test_gaussian_coefficients_match_quadrature(center):
    x, w = oracle.quadrature_axis(MU, 8.0)
    g = 2.0 * np.exp(-0.5 * (x - center) ** 2 / MU) / math.sqrt(2.0 * math.pi * MU)
    want = oracle.phi(MU, 64, x).T @ (w * g)
    got = hermite.gaussian_coefficients(MU, center, 2.0, 64)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def dense(band):
    """The symmetric matrix of a lower band."""
    a = np.diag(band[0])
    for j in range(1, band.shape[0]):
        a += np.diag(band[j, :-j], -j) + np.diag(band[j, :-j], j)
    return a


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
    np.testing.assert_allclose(dense(full), want[np.ix_(order, order)], rtol=0, atol=1e-15)
    if hermite.is_mirror(p):
        half = block[:size, :size] - d11 * np.diag((-1.0) ** np.arange(size))
        np.testing.assert_allclose(dense(hermite.galerkin(p, size)), half, rtol=0, atol=1e-15)


def _scipy_band(params, size):
    """galerkin's band with its per-index factors from np.arange and np.sqrt."""
    mu, beta = params.mu, params.beta
    d11, d12, d21, d22 = params.migration.rates
    k = np.arange(size)
    diag = mu * (k + 0.5) + 0.5 * beta * beta
    off = beta * math.sqrt(0.5 * mu) * np.sqrt(k[1:])
    if hermite.is_mirror(params):
        diag[1::2] += 2.0 * d11
        return np.array([diag, np.append(off, 0.0)])
    top = max(params.rmax1, params.rmax2)
    band = np.zeros((3, 2 * size))
    band[0, 0::2] = diag + (top - params.rmax1) + d11
    band[0, 1::2] = diag + (top - params.rmax2) + d22
    band[1, 0::2] = -math.sqrt(d12 * d21)
    band[2, 0:-2:2] = off
    band[2, 1:-2:2] = -off
    return band


def _scipy_smallest(params):
    """(lambda, K) of pde._basis's agreement rule through scipy's eigh_tridiagonal /
    eigvals_banded, over every size of SIZES."""
    prev = math.inf
    for size in hermite.SIZES:
        band = _scipy_band(params, size)
        if band.shape[0] == 2:
            lam = eigh_tridiagonal(band[0], band[1, :-1], eigvals_only=True, select="i",
                                   select_range=(0, 0), check_finite=False)[0]
        else:
            lam = eigvals_banded(band, lower=True, select="i", select_range=(0, 0),
                                 check_finite=False)[0]
        if abs(lam - prev) <= 1e-13 * np.abs(band[0]).max():
            return float(lam), size
        prev = lam
    raise AssertionError("not converged")


# A bump at the origin is phi_0: its coefficients decay at any K, so the walk's K is lambda's.
ORIGIN = pde.InitialData((pde.Bump(0.0, 1.0),), (pde.Bump(0.0, 1.0),))


def _agreement(params):
    """_scipy_smallest's (lambda, K), checked against pde._basis: bit for bit up to
    K = 1024, and a refusal above it."""
    lam, size = _scipy_smallest(params)
    if size <= pde._MAX_SIZE:
        assert pde._basis(params, ORIGIN)[:2] == (lam, size), params
    else:
        with pytest.raises(pde.SolverError, match="lambda needs more than 1024"):
            pde._basis(params, ORIGIN)
    return lam, size


def _direct_route_sets(count=240):
    """Seeded sets cycling mirror, unequal peaks, General and one-way General,
    n = 1..3, mu log-uniform on [1e-3, 0.5], beta^2 / mu <= 40."""
    rng = np.random.default_rng(20261019)
    sets = []
    for k in range(count):
        mu = float(np.exp(rng.uniform(math.log(1e-3), math.log(0.5))))
        rmax1 = float(rng.uniform(-0.1, 0.3))
        rmax2 = rmax1 if k % 4 == 0 else float(rng.uniform(-0.1, 0.3))
        d11, d12, d21, d22 = (float(x) for x in rng.uniform(0.0, 0.5, 4))
        migration = (model.Symmetric(d11) if k % 4 < 2 else
                     model.General(d11, d12, d21, d22) if k % 4 == 2 else
                     model.General(d11, d12, 0.0, d22) if k % 8 == 3 else
                     model.General(d11, 0.0, d21, d22))
        sets.append(model.ModelParams(n=int(rng.integers(1, 4)), mu=mu, rmax1=rmax1,
                                      rmax2=rmax2, beta=float(rng.uniform(0.0, math.sqrt(40 * mu))),
                                      migration=migration))
    return sets


def test_smallest_is_bit_identical_to_scipy():
    # lowest passes LAPACK the arguments of scipy's wrappers, and galerkin's
    # per-index tables the values arange and sqrt give: (value, K) match exactly
    sets = _direct_route_sets()
    assert {hermite.is_mirror(p) for p in sets} == {True, False}
    for p in sets:
        _agreement(p)
        assert np.array_equal(hermite.galerkin(p, 64), _scipy_band(p, 64)), p


@pytest.mark.parametrize("rows", [2, 3, 4])
def test_lowest_is_bit_identical_to_scipy_at_any_band_width(rows):
    rng = np.random.default_rng(rows)
    for size in (3, 10, 161):
        band = rng.uniform(-1.0, 1.0, (rows, size))
        want = eigvals_banded(band, lower=True, select="i", select_range=(0, 0))[0]
        assert hermite.lowest(band) == want
        if rows == 2:
            want = eigh_tridiagonal(band[0], band[1, :-1], eigvals_only=True, select="i",
                                    select_range=(0, 0))[0]
            assert hermite.lowest(band, tridiagonal=True) == want


@pytest.mark.parametrize("tridiagonal", [True, False])
@pytest.mark.parametrize("outcome", ["info", "count", "nan"])
def test_lowest_raises_eigen_error_on_a_lapack_failure(monkeypatch, tridiagonal, outcome):
    def fake(*args, **kwargs):
        w = np.array([math.nan if outcome == "nan" else 1.0])
        info, count = (2 if outcome == "info" else 0), (0 if outcome == "count" else 1)
        return (count, w, None, None, info) if tridiagonal else (w, None, count, None, info)

    monkeypatch.setattr(hermite, "dstebz" if tridiagonal else "dsbevx", fake)
    with pytest.raises(hermite.EigenError, match="dstebz" if tridiagonal else "dsbevx"):
        hermite.lowest(np.ones((2, 4)), tridiagonal=tridiagonal)


def test_smallest_is_lambda_of_less_its_constant():
    # lambda_of's value is certified's; the value where two sizes agree (pde's
    # basis walk), one doubling further, lies inside certified's enclosure [lo, value]
    p = model.ModelParams(n=3, mu=MU, rmax1=0.3, rmax2=0.2, beta=0.5,
                          migration=model.General(0.3, 0.05, 0.2, 0.7))
    lam, size, _, _ = pde._basis(p, ORIGIN)
    value, lo, certified_size = hermite.certified(p)
    assert size in hermite.SIZES and certified_size in hermite.SIZES
    assert eigen.lambda_of(p) == hermite.with_constant(p, value)
    assert lo <= lam <= value


def test_certified_counts_the_coupling_across_the_split():
    # At this General set the coupling across the split, -b^2 / s on each
    # habitat's last head row, is what refuses the proof at K = 256: with that
    # corner term dropped the Cholesky at K' = 512 succeeds and certified
    # returns K = 256, one doubling early.
    p = model.ModelParams(n=1, mu=0.01225897859352605, rmax1=0.0, rmax2=0.0,
                          beta=1.966248264879113,
                          migration=model.General(0.60638965858329, 0.906995778961303,
                                                  0.2680833944943295, 0.8062259728942585))
    value, lo, size = hermite.certified(p)
    assert size == 512
    assert value == pytest.approx(0.5818216988736895, rel=1e-15)
    assert lo == pytest.approx(0.5818216988727886, rel=1e-15)


def _mirror_grid():
    """Mirror habitats over m_D in [0, 2], mu from the default sqrt(1/1800) down to
    1e-3 and delta in {0, 0.05, 0.5}; n and rmax only shift lambda."""
    return [model.ModelParams(n=2, mu=mu, rmax1=1.0, rmax2=1.0, beta=model.beta_of(m_d),
                              migration=model.Symmetric(delta))
            for m_d in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)
            for mu in (math.sqrt(1 / 1800), 1e-2, 5e-3, 2e-3, 1e-3)
            for delta in (0.0, 0.05, 0.5)]


@pytest.mark.parametrize("sets", [_direct_route_sets, _mirror_grid], ids=["direct", "mirror_grid"])
def test_certified_encloses_lambda_at_a_basis_no_larger_than_smallest(sets):
    # value is lowest at certified's K; lambda_ref, lowest at four times the
    # K where two sizes agree (pde's basis walk up to 1024), lies in [lo, value]
    # up to e = 4 eps of that band's scale; certified's K never exceeds the
    # agreement K, and lambda_of moves from the agreed value by at most
    # certified's tol
    eps = np.finfo(float).eps
    for p in sets():
        value, lo, size = hermite.certified(p)
        lam, smallest_size = _agreement(p)
        band = hermite.galerkin(p, size)
        assert value == hermite.lowest(band, tridiagonal=band.shape[0] == 2), p
        band = hermite.galerkin(p, 4 * smallest_size)
        ref = hermite.lowest(band, tridiagonal=band.shape[0] == 2)
        e = 4 * eps * np.abs(band).max()
        assert lo - e <= ref <= value + e, p
        assert size <= smallest_size, p
        tol = 1e-13 * np.abs(hermite.galerkin(p, size)[0]).max()
        assert lo == value - tol, p
        assert abs(value - lam) <= tol, p
