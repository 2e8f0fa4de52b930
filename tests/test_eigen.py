import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from twopatch import eigen, model, pde, thresholds
from twopatch.grid import build_grid, reflect_field

FIG_MU = math.sqrt(1.0 / 1800.0)
FIG_RMAX = 1.0 / 18.0


def ref_params(n=1, delta=0.05, beta=0.5):
    return model.ModelParams(n=n, mu=FIG_MU, rmax1=FIG_RMAX, rmax2=FIG_RMAX,
                             beta=beta, migration=model.Symmetric(delta))


def test_raw_tridiagonal_matches_textbook_value():
    # pure Dirichlet Laplacian on m nodes: smallest eigenvalue is
    # (2/h^2) * (1 - cos(pi / (m+1)))
    m, L = 31, 1.0
    h = 2.0 * L / (m - 1)
    e = np.ones(m)
    mat = sp.diags([-e[1:], 2.0 * e, -e[1:]], [-1, 0, 1]).tocsr() / (h * h)
    pair = eigen.principal_eigenpair(mat, lower_bound=0.0)
    want = 2.0 / (h * h) * (1.0 - math.cos(math.pi / (m + 1)))
    assert pair.value == pytest.approx(want, rel=1e-10)
    assert pair.vector.min() >= 0.0
    assert pair.residual < 1e-8 * max(1.0, abs(pair.value))


def test_raw_matrix_requires_lower_bound():
    mat = sp.identity(5, format="csr")
    with pytest.raises(ValueError, match="lower_bound"):
        eigen.principal_eigenpair(mat)


def test_rayleigh_quotient_never_beats_principal_value():
    p = ref_params()
    g = build_grid(1, 4.0, 81)
    op = eigen.assemble_symmetric_reduced(p, g)
    lam = eigen.principal_eigenpair(op).value
    rng = np.random.default_rng(2)
    for _ in range(25):
        psi = rng.normal(size=g.size)
        rho = psi @ (op.matrix @ psi) / (psi @ psi)
        assert rho >= lam - 1e-10


def test_value_respects_certified_lower_bound():
    for delta in (0.01, 0.05, 0.5):
        for beta in (0.0, 0.5, 1.0):
            p = ref_params(delta=delta, beta=beta)
            assert eigen.lambda_of(p) >= eigen.spectral_lower_bound(p)


def test_spectral_lower_bound_formula():
    p = ref_params(delta=0.7)
    # symmetric rates cancel (up to absorption in the float sum)
    assert eigen.spectral_lower_bound(p) == pytest.approx(-FIG_RMAX, abs=1e-15)
    q = model.ModelParams(n=1, mu=0.1, rmax1=0.3, rmax2=0.1, beta=0.2,
                          migration=model.General(0.4, 0.1, 0.2, 0.05))
    assert eigen.spectral_lower_bound(q) == min(-0.3 + 0.4 - 0.1, -0.1 + 0.05 - 0.2)


def test_closed_form_when_habitats_coincide():
    # beta = 0 collapses to one quadratic well: lambda = -rmax + n*mu/2
    for n in (1, 2, 3):
        p = ref_params(n=n, beta=0.0)
        lam = eigen.lambda_of(p)
        assert lam == pytest.approx(-FIG_RMAX + n * FIG_MU / 2.0, abs=1e-4)


def test_trait_dimension_adds_the_transverse_load():
    # the axis operator at n traits is the one-trait operator shifted by
    # (n-1) mu/2, and lambda_of adds that shift to one Hermite matrix
    lam1 = eigen.lambda_of(ref_params(n=1))
    for n in (2, 3):
        lam = eigen.lambda_of(ref_params(n=n))
        assert lam == pytest.approx(lam1 + 0.5 * (n - 1) * FIG_MU, abs=1e-12)


def test_reflection_permutation_is_reflect_field():
    rng = np.random.default_rng(6)
    for n in (1, 2):
        g = build_grid(n, 1.0, 7)
        P = pde.reflection_permutation(g)
        f = rng.normal(size=g.shape)
        np.testing.assert_array_equal((P @ f.ravel()).reshape(g.shape),
                                      reflect_field(g, f))
        assert (P @ P != sp.identity(g.size)).nnz == 0


def test_reduced_and_full_routes_agree():
    # both assemblies discretize the same operator; at well-separated rates
    # the principal value and the mirror structure of the eigenvector must
    # match across the two routes
    p = model.ModelParams(n=1, mu=0.3, rmax1=0.3, rmax2=0.3, beta=0.5,
                          migration=model.Symmetric(5.0))
    g = build_grid(1, 4.0, 81)
    red = eigen.principal_eigenpair(eigen.assemble_symmetric_reduced(p, g))
    full = eigen.principal_eigenpair(eigen.assemble_full(p, g))
    assert full.value == pytest.approx(red.value, abs=1e-9)
    v1 = full.vector[:g.size].reshape(g.shape)
    v2 = full.vector[g.size:].reshape(g.shape)
    np.testing.assert_allclose(v2, reflect_field(g, v1), rtol=0,
                               atol=1e-6 * v1.max())


def test_general_migration_with_equal_rates_matches_symmetric():
    d = 0.35
    g = build_grid(1, 4.0, 81)
    p_sym = model.ModelParams(n=1, mu=0.3, rmax1=0.3, rmax2=0.3, beta=0.5,
                              migration=model.Symmetric(d))
    p_gen = model.ModelParams(n=1, mu=0.3, rmax1=0.3, rmax2=0.3, beta=0.5,
                              migration=model.General(d, d, d, d))
    lam_sym = eigen.principal_eigenpair(eigen.assemble_symmetric_reduced(p_sym, g)).value
    lam_gen = eigen.principal_eigenpair(eigen.assemble_full(p_gen, g)).value
    assert lam_gen == pytest.approx(lam_sym, abs=1e-9)


def test_biased_operator_matches_diagonally_similar_symmetric_twin():
    # a one-way-biased system is diagonally similar to a symmetric one with
    # geometric-mean coupling, so the two spectra coincide
    d11, d12, d21, d22 = 0.2, 0.05, 0.15, 0.3
    gm = math.sqrt(d12 * d21)
    base = dict(n=1, mu=0.25, rmax1=0.3, rmax2=0.1, beta=0.4)
    g = build_grid(1, 3.0, 61)
    biased = eigen.assemble_full(
        model.ModelParams(**base, migration=model.General(d11, d12, d21, d22)), g)
    assert not biased.symmetric
    symm = eigen.assemble_full(
        model.ModelParams(**base, migration=model.General(d11, gm, gm, d22)), g)
    assert symm.symmetric
    lam_biased = eigen.principal_eigenpair(biased).value
    lam_twin = eigen.principal_eigenpair(symm).value
    assert lam_biased == pytest.approx(lam_twin, abs=1e-10)


@pytest.mark.parametrize("d12, d21", [(0.02, 0.05), (0.0, 0.05), (0.02, 0.0)],
                         ids=["biased", "one_way_d12_0", "one_way_d21_0"])
def test_nonsymmetric_operator_matches_dense_spectrum(d12, d21):
    # small spectral gap (~0.009): a value that has not converged shows up
    # well above these tolerances; the one-way cases are block-triangular
    p = model.ModelParams(n=1, mu=FIG_MU, rmax1=FIG_RMAX, rmax2=0.8 * FIG_RMAX,
                          beta=0.5, migration=model.General(0.05, d12, d21, 0.03))
    op = eigen.assemble_full(p, build_grid(1, 3.0, 61))
    assert not op.symmetric
    dense = scipy.linalg.eigvals(op.matrix.toarray()).real.min()
    pair = eigen.principal_eigenpair(op)
    assert pair.value == pytest.approx(dense, abs=1e-10)
    v = pair.vector
    assert np.abs(op.matrix @ v - pair.value * v).max() <= 1e-8 * max(1.0, abs(pair.value))
    assert v.min() >= 0.0


def test_ladder_is_monotone_and_converges():
    p = ref_params()
    ls, ms = eigen.default_schedules(p)
    res = eigen.lambda_limit(p, ls, ms)
    assert res.converged
    ladder = res.rows[:-1]  # last row is the spacing-refinement solve
    assert len(ladder) >= 2
    for a, b in zip(ladder, ladder[1:]):
        assert b.lambda_L <= a.lambda_L + 1e-6
        assert b.L > a.L
    # refinement row: same box, doubled resolution, then h^2 extrapolation
    assert res.rows[-1].L == ladder[-1].L
    assert res.rows[-1].m == 2 * ladder[-1].m - 1
    extrap = (4.0 * res.rows[-1].lambda_L - ladder[-1].lambda_L) / 3.0
    assert res.lam == pytest.approx(extrap, abs=1e-15)


def test_eigenfield_positive_decaying_and_mirror_linked():
    p = ref_params()
    ls, ms = eigen.default_schedules(p)
    res = eigen.lambda_limit(p, ls, ms)
    u1 = res.eigenfield.u1
    assert u1.min() >= 0.0
    assert u1.max() == pytest.approx(1.0)
    assert max(abs(u1[0]), abs(u1[-1])) <= 1e-12  # super-exponential tails
    np.testing.assert_array_equal(res.eigenfield.u2, reflect_field(res.grid, u1))


def test_shift_hint_matches_cold_start_and_survives_bad_hints():
    p = ref_params()
    g = build_grid(1, 4.0, 97)
    op = eigen.assemble_symmetric_reduced(p, g)
    cold = eigen.principal_eigenpair(op)
    warm = eigen.principal_eigenpair(op, shift_hint=cold.value)
    assert warm.value == pytest.approx(cold.value, abs=1e-10)
    assert warm.iterations < cold.iterations
    # a hint deep inside the spectrum lands in the wrong basin; the solver
    # must fall back to the certified start rather than return that mode
    wrong = eigen.principal_eigenpair(op, shift_hint=cold.value + 0.5)
    assert wrong.value == pytest.approx(cold.value, abs=1e-10)
    assert wrong.vector.min() >= 0.0


def test_growth_rate_increases_with_delta():
    lams = [eigen.lambda_of(ref_params(delta=d)) for d in (0.02, 0.06, 0.1)]
    assert lams[0] < lams[1] < lams[2]


def test_assembly_validation():
    g = build_grid(1, 4.0, 81)
    p_gen = model.ModelParams(n=1, mu=0.3, rmax1=0.3, rmax2=0.3, beta=0.5,
                              migration=model.General(0.1, 0.1, 0.1, 0.1))
    with pytest.raises(ValueError, match="Symmetric migration"):
        eigen.assemble_symmetric_reduced(p_gen, g)
    p_tilt = model.ModelParams(n=1, mu=0.3, rmax1=0.3, rmax2=0.2, beta=0.5,
                               migration=model.Symmetric(0.1))
    with pytest.raises(ValueError, match="mirror"):
        eigen.assemble_symmetric_reduced(p_tilt, g)


def test_schedule_validation():
    p = ref_params()
    with pytest.raises(ValueError, match="schedule lengths"):
        eigen.lambda_limit(p, [3.0, 4.0], [61])
    with pytest.raises(ValueError, match="empty schedule"):
        eigen.lambda_limit(p, [], [])


def test_shrinking_box_trips_the_ladder_guard():
    # running the ladder toward a smaller box forces lambda_L upward, which
    # the resolution check must reject rather than extrapolate from
    p = model.ModelParams(n=1, mu=1.0, rmax1=0.3, rmax2=0.3, beta=0.5,
                          migration=model.Symmetric(0.3))
    with pytest.raises(eigen.EigenError, match="increased"):
        eigen.lambda_limit(p, [4.0, 2.0], [81, 41])


# ---------------------------------------------------------------- Hermite route

ROUTE_TOL = 1e-5  # Hermite lambda vs the box ladder, whose bias is a few 1e-6


def sampled_params(seed, count=12, m_d=None):
    """Seeded draws over n, mu, rmax, m_D and the migration pattern:
    Symmetric, General, and General one-way (d12 = 0 or d21 = 0)."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        rmax = float(rng.uniform(0.0, 0.2))
        if k % 2 == 0:
            migration, rmax2 = model.Symmetric(float(10.0 ** rng.uniform(-3, 1))), rmax
        else:
            d11, d12, d21, d22 = (float(d) for d in rng.uniform(0.0, 0.2, size=4))
            d12 = 0.0 if k % 6 == 3 else d12
            d21 = 0.0 if k % 6 == 5 else d21
            migration = model.General(d11, d12, d21, d22)
            rmax2 = rmax * float(rng.uniform(0.5, 1.0))
        md = float(rng.uniform(0.0, 2.0)) if m_d is None else m_d
        out.append(model.ModelParams(n=int(rng.integers(1, 4)), mu=float(10.0 ** rng.uniform(-3, -1)),
                                     rmax1=rmax, rmax2=rmax2, beta=model.beta_of(md),
                                     migration=migration))
    return out


def test_hermite_closed_form_at_zero_habitat_difference():
    # one quadratic well: lambda = -rmax + n mu / 2 exactly, for Symmetric
    # and for conservative General rates (arrivals match departures)
    for p in sampled_params(11, m_d=0.0):
        if isinstance(p.migration, model.General):
            d11, _, _, d22 = p.migration.rates
            p = dataclasses.replace(p, rmax2=p.rmax1, migration=model.General(d11, d22, d11, d22))
        assert eigen.lambda_of(p) == pytest.approx(-p.rmax1 + 0.5 * p.n * p.mu, abs=1e-12)


def test_hermite_rmax_shift_and_trait_dimension_identities():
    for p in sampled_params(12):
        lam = eigen.lambda_of(p)
        c = 0.03
        raised = dataclasses.replace(p, rmax1=p.rmax1 + c, rmax2=p.rmax2 + c)
        assert lam - eigen.lambda_of(raised) == pytest.approx(c, abs=1e-12)
        lam1 = eigen.lambda_of(dataclasses.replace(p, n=1))
        assert lam == pytest.approx(lam1 + 0.5 * (p.n - 1) * p.mu, abs=1e-12)


def test_hermite_matches_box_ladder():
    # two independent discretizations of one operator
    for p in sampled_params(13):
        ladder = eigen.lambda_limit(p, *eigen.default_schedules(p)).lam
        assert eigen.lambda_of(p) == pytest.approx(ladder, abs=ROUTE_TOL)


def test_hermite_basis_cap_raises():
    # optima 10 apart at width sqrt(mu) = 0.03 need a basis far above the cap
    p = model.ModelParams(n=1, mu=1e-3, rmax1=0.1, rmax2=0.1, beta=5.0,
                          migration=model.Symmetric(0.05))
    with pytest.raises(eigen.EigenError, match="not converged at K = 8192"):
        eigen.lambda_of(p)


def test_lambda_of_keywords():
    # the ladder keywords are accepted and ignored; anything else is an error
    p = ref_params()
    lam = eigen.lambda_of(p)
    assert eigen.lambda_of(p, h_target=0.25, rungs=2, tol_domain=1e-3, richardson=False) == lam
    with pytest.raises(TypeError):
        eigen.lambda_of(p, tol_value=1e-12)
    with pytest.raises(TypeError):
        thresholds.classify(p, tol_value=1e-12)
