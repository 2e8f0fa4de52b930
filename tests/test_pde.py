import math

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from twopatch import eigen, model, pde
from twopatch.grid import Field2, build_grid, integrate, laplacian


def small_params(delta=0.2, growth=model.GROWTH_MALTHUSIAN, rmax=0.3, n=1):
    return model.ModelParams(n=n, mu=0.2, rmax1=rmax, rmax2=rmax, beta=0.5,
                             migration=model.Symmetric(delta), growth=growth)


def small_setup(delta=0.2, growth=model.GROWTH_MALTHUSIAN, n=1):
    p = small_params(delta=delta, growth=growth, n=n)
    g = build_grid(n, 4.0, 81)
    u = pde.gaussian_initial(g, 0.0, 0.1, 1.0)
    return p, g, Field2(u, u.copy())


def test_gaussian_initial_mass_and_validation():
    g = build_grid(2, 3.0, 41)
    u = pde.gaussian_initial(g, 0.5, 0.2, 7.0)
    assert u.shape == (41,)
    assert integrate(g, u) == pytest.approx(7.0, rel=1e-12)
    assert abs(g.axis()[np.argmax(u)] - 0.5) <= 0.5 * g.h  # profile along x1
    with pytest.raises(ValueError, match="variance"):
        pde.gaussian_initial(g, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="mass"):
        pde.gaussian_initial(g, 0.0, 0.2, -1.0)


def test_gaussian_initial_warns_outside_box():
    g = build_grid(1, 2.0, 21)
    with pytest.warns(UserWarning, match="outside the box"):
        pde.gaussian_initial(g, 5.0, 0.5, 1.0)


def test_diagnostics_empty_habitat_is_nan_not_zero_division():
    p, g, _ = small_setup()
    u = pde.gaussian_initial(g, 0.0, 0.1, 2.0)
    n1, n2, rb1, rb2 = pde.diagnostics(p, g, Field2(np.zeros(g.shape), u))
    assert n1 == 0.0
    assert n2 == pytest.approx(2.0, rel=1e-12)
    assert math.isnan(rb1)
    assert math.isfinite(rb2)


def test_rhs_matches_hand_formula_with_general_migration():
    p = model.ModelParams(n=1, mu=0.2, rmax1=0.3, rmax2=0.1, beta=0.5,
                          migration=model.General(0.3, 0.05, 0.2, 0.7))
    g = build_grid(1, 2.0, 17)
    rng = np.random.default_rng(8)
    u1 = rng.random(g.shape)
    u2 = rng.random(g.shape)
    out = pde.rhs(p, g, Field2(u1, u2))
    r1, r2 = pde.fitness_fields(p, g)
    half_mu2 = 0.5 * p.mu * p.mu
    want1 = half_mu2 * laplacian(g, u1) + r1 * u1 - 0.3 * u1 + 0.05 * u2
    want2 = half_mu2 * laplacian(g, u2) + r2 * u2 + 0.2 * u1 - 0.7 * u2
    np.testing.assert_allclose(out.u1, want1, rtol=0, atol=1e-13)
    np.testing.assert_allclose(out.u2, want2, rtol=0, atol=1e-13)


def test_logistic_rhs_matches_hand_formula():
    # the mass term -N_i u_i uses the trapezoid mass of each habitat;
    # logistic growth takes Symmetric migration, so unequal random states
    # keep the two habitats' masses and exchange terms apart
    p = small_params(delta=0.3, growth=model.GROWTH_LOGISTIC)
    g = build_grid(1, 2.0, 17)
    rng = np.random.default_rng(10)
    u1 = rng.random(g.shape)
    u2 = 2.0 * rng.random(g.shape)
    out = pde.rhs(p, g, Field2(u1, u2))
    r1, r2 = pde.fitness_fields(p, g)
    half_mu2 = 0.5 * p.mu * p.mu
    want1 = half_mu2 * laplacian(g, u1) + r1 * u1 - integrate(g, u1) * u1 - 0.3 * (u1 - u2)
    want2 = half_mu2 * laplacian(g, u2) + r2 * u2 - integrate(g, u2) * u2 + 0.3 * (u1 - u2)
    np.testing.assert_allclose(out.u1, want1, rtol=0, atol=1e-13)
    np.testing.assert_allclose(out.u2, want2, rtol=0, atol=1e-13)


def test_rhs_habitats_decouple_without_migration():
    p = model.ModelParams(n=1, mu=0.2, rmax1=0.3, rmax2=0.1, beta=0.5,
                          migration=model.General(0.0, 0.0, 0.0, 0.0))
    g = build_grid(1, 2.0, 17)
    rng = np.random.default_rng(9)
    u1 = rng.random(g.shape)
    a = pde.rhs(p, g, Field2(u1, rng.random(g.shape)))
    b = pde.rhs(p, g, Field2(u1, rng.random(g.shape)))
    np.testing.assert_array_equal(a.u1, b.u1)


def test_rhs_agrees_with_assembled_operator():
    # the eigenvalue operator is minus the linearized growth operator, so
    # (matrix @ y) must equal -rhs(y) up to quadrature-free rounding
    p = model.ModelParams(n=2, mu=0.15, rmax1=0.2, rmax2=0.05, beta=0.6,
                          migration=model.General(0.1, 0.3, 0.2, 0.4))
    g = build_grid(2, 2.0, 15)
    assert g.shape == (15,)
    rng = np.random.default_rng(12)
    u1 = rng.random(g.shape)
    u2 = rng.random(g.shape)
    out = pde.rhs(p, g, Field2(u1, u2))
    op = eigen.assemble_full(p, g)
    y = np.concatenate([u1.ravel(), u2.ravel()])
    my = (op.matrix @ y).reshape(2, *g.shape)
    np.testing.assert_allclose(my[0], -out.u1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(my[1], -out.u2, rtol=0, atol=1e-12)


@pytest.mark.parametrize("migration, growth", [
    (model.Symmetric(0.3), model.GROWTH_MALTHUSIAN),
    (model.General(0.3, 0.05, 0.2, 0.7), model.GROWTH_MALTHUSIAN),
    (model.Symmetric(0.3), model.GROWTH_LOGISTIC),
])
def test_rhs_equals_sparse_product_bit_for_bit(migration, growth):
    # _rhs calls scipy's private CSR kernel directly; it must give exactly
    # what gen @ y gives (and fails here if a scipy release moves the kernel)
    p = model.ModelParams(n=1, mu=0.2, rmax1=0.3, rmax2=0.3, beta=0.5,
                          migration=migration, growth=growth)
    g = build_grid(1, 3.0, 65)
    gen = -pde.two_habitat_operator(p, g)
    weights = pde._mass_weights(p, g)
    y = np.random.default_rng(13).random(2 * g.m)
    want = gen @ y
    if weights is not None:
        u, du = y.reshape(2, -1), want.reshape(2, -1)
        du -= (u @ weights)[:, None] * u
    np.testing.assert_array_equal(pde._rhs(gen, weights, y), want)


def test_integrate_to_matches_exact_propagator_with_general_migration():
    # Malthusian growth is du/dt = -A u, so exp(-A t) u0 of the assembled
    # operator is the exact propagator of the discrete system; d12 != d21
    p = model.ModelParams(n=1, mu=0.2, rmax1=0.3, rmax2=0.1, beta=0.5,
                          migration=model.General(0.3, 0.05, 0.2, 0.7))
    g = build_grid(1, 3.0, 41)
    u1 = pde.gaussian_initial(g, -0.5, 0.1, 1.0)
    u2 = pde.gaussian_initial(g, 0.5, 0.1, 2.0)
    cfg = pde.SolverConfig(t_end=10.0, record_every=0.5)
    traj, final = pde.integrate_to(p, g, Field2(u1, u2), cfg)
    a = eigen.assemble_full(p, g).matrix
    exact = expm_multiply(-a, np.concatenate([u1, u2]), start=0.0, stop=cfg.t_end,
                          num=len(traj.t), endpoint=True)
    n1 = [integrate(g, y[:g.m]) for y in exact]
    n2 = [integrate(g, y[g.m:]) for y in exact]
    assert traj.N2[-1] < 0.1 * traj.N2[0]  # the run moves far from its start
    np.testing.assert_allclose(traj.N1, n1, rtol=cfg.rel_tol, atol=0)
    np.testing.assert_allclose(traj.N2, n2, rtol=cfg.rel_tol, atol=0)


def test_solver_counters_account_for_every_rhs_evaluation(monkeypatch):
    # one evaluation at the start, six per attempted step (FSAL), and one
    # more after each accepted step whose state was clipped at zero; a
    # clipped state is the only input that is nonnegative with exact zeros
    p = model.ModelParams(n=1, mu=0.2, rmax1=-0.5, rmax2=-0.5, beta=0.5,
                          migration=model.General(0.1, 0.05, 0.2, 0.3))
    g = build_grid(1, 3.0, 41)
    u = pde.gaussian_initial(g, 0.0, 0.2, 1.0)
    calls, clipped = [0], [0]
    inner = pde._rhs

    def counting(gen, weights, y):
        calls[0] += 1
        if calls[0] > 1 and y.min() == 0.0:
            clipped[0] += 1
        return inner(gen, weights, y)

    monkeypatch.setattr(pde, "_rhs", counting)
    cfg = pde.SolverConfig(t_end=40.0, dt_init=1.0, record_every=1.0)
    traj, _ = pde.integrate_to(p, g, Field2(u, u.copy()), cfg)
    assert traj.rejected > 0  # the large trial step is cut back
    assert clipped[0] > 0
    assert traj.rhs_evals == calls[0]
    assert traj.rhs_evals == 1 + 6 * (traj.steps + traj.rejected) + clipped[0]


def test_integrate_to_records_on_cadence():
    p, g, s0 = small_setup()
    traj, final = pde.integrate_to(p, g, s0, pde.SolverConfig(t_end=2.0, record_every=0.5))
    np.testing.assert_allclose(traj.t, [0.0, 0.5, 1.0, 1.5, 2.0], atol=1e-12)
    assert final.u1.shape == g.shape
    assert not traj.extinct
    assert traj.n_total()[0] == pytest.approx(2.0, rel=1e-12)


def test_integrate_to_t_end_zero_records_initial_row_only():
    p, g, s0 = small_setup()
    traj, final = pde.integrate_to(p, g, s0, pde.SolverConfig(t_end=0.0))
    assert list(traj.t) == [0.0]
    np.testing.assert_array_equal(final.u1, s0.u1)


def test_mass_balance_matches_mean_fitness():
    # with symmetric migration the exchange cancels in the total, so
    # d(N1+N2)/dt = rbar1*N1 + rbar2*N2 up to boundary leakage
    p, g, s0 = small_setup(delta=0.4)
    cfg = pde.SolverConfig(t_end=3.0, record_every=0.25, rel_tol=1e-8, abs_tol=1e-12)
    traj, _ = pde.integrate_to(p, g, s0, cfg)
    n = traj.n_total()
    growth = traj.rbar1 * traj.N1 + traj.rbar2 * traj.N2
    dt = 0.25
    for k in range(1, len(n) - 1):
        dn = (n[k + 1] - n[k - 1]) / (2.0 * dt)
        assert dn == pytest.approx(growth[k], rel=5e-3)


def test_mirror_symmetry_is_preserved():
    p, g, s0 = small_setup(delta=0.3)
    traj, final = pde.integrate_to(p, g, s0, pde.SolverConfig(t_end=5.0, record_every=1.0))
    np.testing.assert_allclose(traj.N1, traj.N2, rtol=1e-9)
    from twopatch.grid import reflect_field
    np.testing.assert_allclose(final.u2, reflect_field(g, final.u1),
                               rtol=0, atol=1e-9 * final.u1.max())


def test_logistic_mass_stays_bounded():
    p, g, s0 = small_setup(growth=model.GROWTH_LOGISTIC)
    traj, _ = pde.integrate_to(p, g, s0, pde.SolverConfig(t_end=40.0, record_every=2.0))
    # per-habitat mass obeys N' <= (rmax - N) N, so it can never pass rmax
    bound = max(traj.N1[0], traj.N2[0], p.rmax1) * (1 + 1e-6)
    assert traj.N1.max() <= bound
    assert traj.N2.max() <= bound
    assert traj.N1[-1] == pytest.approx(traj.N2[-1], rel=1e-6)


def test_logistic_rescaling_of_malthusian_run():
    # the two growth laws are linked: N_log(t) = N_mal(t) / (1 + int_0^t N_mal)
    # habitat by habitat when the setup is mirror-symmetric; the transverse
    # factor keeps this exact in any trait dimension
    for n in (1, 2):
        p, g, s0 = small_setup(delta=0.1, n=n)
        cfg = pde.SolverConfig(t_end=6.0, record_every=0.05, rel_tol=1e-8, abs_tol=1e-12)
        mal, _ = pde.integrate_to(p, g, s0, cfg)
        p_log = model.ModelParams(n=p.n, mu=p.mu, rmax1=p.rmax1, rmax2=p.rmax2,
                                  beta=p.beta, migration=p.migration,
                                  growth=model.GROWTH_LOGISTIC)
        log, _ = pde.integrate_to(p_log, g, s0, cfg)
        cum = np.concatenate([[0.0], np.cumsum((mal.N1[1:] + mal.N1[:-1]) * 0.5 * 0.05)])
        predicted = mal.N1 / (1.0 + cum)
        np.testing.assert_allclose(log.N1, predicted, rtol=2e-4)


def test_extinction_flag_on_decaying_run():
    p = small_params(delta=0.05, rmax=-2.0)
    g = build_grid(1, 4.0, 81)
    u = pde.gaussian_initial(g, 0.0, 0.1, 1.0)
    cfg = pde.SolverConfig(t_end=50.0, record_every=1.0, extinction_rel=1e-6)
    traj, final = pde.integrate_to(p, g, Field2(u, u.copy()), cfg)
    assert traj.extinct
    assert traj.t[-1] < 50.0  # stopped early
    assert traj.n_total()[-1] < 1e-6 * 2.0
    # interpolated records are clipped, and the run stops on the extinct
    # record itself: its state is the final state
    assert traj.N1.min() >= 0.0 and traj.N2.min() >= 0.0
    mass = integrate(g, final.u1) + integrate(g, final.u2)
    assert mass == pytest.approx(traj.n_total()[-1], rel=1e-12)
    # with unequal migration rates the continuous extension dips below zero
    # at this record; the final state is the clipped record
    p = model.ModelParams(n=1, mu=0.2, rmax1=-0.5, rmax2=-0.5, beta=0.5,
                          migration=model.General(0.1, 0.05, 0.2, 0.3))
    g = build_grid(1, 3.0, 41)
    u = pde.gaussian_initial(g, 0.0, 0.2, 1.0)
    cfg = pde.SolverConfig(t_end=50.0, record_every=0.1, extinction_rel=1e-6)
    traj, final = pde.integrate_to(p, g, Field2(u, u.copy()), cfg)
    assert traj.extinct
    assert final.u1.min() >= 0.0 and final.u2.min() >= 0.0


def test_step_sequence_does_not_depend_on_record_cadence():
    # records are read off the continuous extension, so a fine cadence
    # costs no steps and leaves the integration itself untouched
    for growth in (model.GROWTH_MALTHUSIAN, model.GROWTH_LOGISTIC):
        p, g, s0 = small_setup(delta=0.1, growth=growth)
        runs = [pde.integrate_to(p, g, s0, pde.SolverConfig(t_end=6.0, record_every=every))
                for every in (0.05, 6.0)]
        (fine, fine_end), (coarse, coarse_end) = runs
        assert len(fine.t) == 121 and len(coarse.t) == 2
        assert (fine.steps, fine.rejected, fine.rhs_evals) == \
            (coarse.steps, coarse.rejected, coarse.rhs_evals)
        np.testing.assert_array_equal(fine_end.u1, coarse_end.u1)
        np.testing.assert_array_equal(fine_end.u2, coarse_end.u2)
        assert fine.N1[-1] == pytest.approx(coarse.N1[-1], rel=1e-14)


def test_fitness_fields_carry_the_transverse_load():
    # axis fitness at n traits is the one-trait fitness minus (n - 1) mu / 2
    g1 = build_grid(1, 2.0, 17)
    r1, r2 = pde.fitness_fields(small_params(n=1), g1)
    for n in (2, 3):
        rn1, rn2 = pde.fitness_fields(small_params(n=n), build_grid(n, 2.0, 17))
        np.testing.assert_allclose(rn1, r1 - 0.5 * (n - 1) * 0.2, rtol=0, atol=1e-15)
        np.testing.assert_allclose(rn2, r2 - 0.5 * (n - 1) * 0.2, rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="trait"):
        pde.fitness_fields(small_params(n=2), g1)


def test_initial_state_validation():
    p, g, s0 = small_setup()
    cfg = pde.SolverConfig(t_end=1.0)
    bad = Field2(-s0.u1, s0.u2)
    with pytest.raises(ValueError, match="nonnegative"):
        pde.integrate_to(p, g, bad, cfg)
    with pytest.raises(ValueError, match="positive in each habitat"):
        pde.integrate_to(p, g, Field2(np.zeros(g.shape), s0.u2), cfg)
    with pytest.raises(ValueError, match="does not match"):
        pde.integrate_to(p, build_grid(1, 4.0, 41), s0, cfg)


def test_solver_config_validation():
    with pytest.raises(ValueError, match="t_end"):
        pde.SolverConfig(t_end=-1.0)
    with pytest.raises(ValueError, match="record_every"):
        pde.SolverConfig(t_end=1.0, record_every=0.0)
    with pytest.raises(ValueError, match="rel_tol"):
        pde.SolverConfig(t_end=1.0, rel_tol=1e-18)
    with pytest.raises(ValueError, match="abs_tol"):
        pde.SolverConfig(t_end=1.0, abs_tol=0.0)
    with pytest.raises(ValueError, match="extinction_rel"):
        pde.SolverConfig(t_end=1.0, extinction_rel=2.0)
    with pytest.raises(ValueError, match="dt_init"):
        pde.SolverConfig(t_end=1.0, dt_init=0.0)


def test_growth_rate_approaches_principal_eigenvalue():
    # late-time Malthusian growth of ln N should settle at -lambda
    p = small_params(delta=0.3)
    lam = eigen.lambda_of(p)
    g = build_grid(1, 5.0, 161)
    u = pde.gaussian_initial(g, 0.0, p.mu, 1.0)
    cfg = pde.SolverConfig(t_end=30.0, record_every=1.0)
    traj, _ = pde.integrate_to(p, g, Field2(u, u.copy()), cfg)
    tail = traj.t >= 15.0
    slope = np.polyfit(traj.t[tail], np.log(traj.n_total()[tail]), 1)[0]
    assert slope == pytest.approx(-lam, rel=2e-3)
