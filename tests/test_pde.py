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
    # _rhs is gen @ y, minus the logistic mass term in place; it must give
    # exactly what the sparse product and that term give
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


def assert_matches_exact_propagator(p, g, s0, cfg):
    """integrate_to against exp(-A t) u0 of the assembled operator, the exact
    propagator of the discrete Malthusian system; returns the run and the
    exact states at the record times."""
    traj, final = pde.integrate_to(p, g, s0, cfg)
    a = eigen.assemble_full(p, g).matrix
    exact = expm_multiply(-a, np.concatenate([s0.u1, s0.u2]), start=0.0, stop=cfg.t_end,
                          num=len(traj.t), endpoint=True)
    n1 = [integrate(g, y[:g.m]) for y in exact]
    n2 = [integrate(g, y[g.m:]) for y in exact]
    np.testing.assert_allclose(traj.N1, n1, rtol=1e-9, atol=0)
    np.testing.assert_allclose(traj.N2, n2, rtol=1e-9, atol=0)
    np.testing.assert_allclose(np.concatenate([final.u1, final.u2]), exact[-1],
                               rtol=0, atol=1e-9 * exact[-1].max())
    return traj, final, exact


@pytest.mark.parametrize("migration", [
    model.Symmetric(0.3),                  # eigh on the symmetric operator
    model.General(0.3, 0.05, 0.2, 0.7),    # d12 != d21: eigh after diagonal scaling
    model.General(0.3, 0.0, 0.2, 0.7),     # one-way, d12 = 0: expm
    model.General(0.3, 0.05, 0.0, 0.7),    # one-way, d21 = 0: expm
    model.General(0.0, 0.0, 0.0, 0.0),     # uncoupled habitats
], ids=["symmetric", "general", "one_way_d12_0", "one_way_d21_0", "uncoupled"])
def test_integrate_to_matches_exact_propagator_with_general_migration(migration):
    p = model.ModelParams(n=1, mu=0.2, rmax1=0.3, rmax2=0.1, beta=0.5, migration=migration)
    g = build_grid(1, 3.0, 41)
    u1 = pde.gaussian_initial(g, -0.5, 0.1, 1.0)
    u2 = pde.gaussian_initial(g, 0.5, 0.1, 2.0)
    cfg = pde.SolverConfig(t_end=10.0, record_every=0.5)
    _, _, exact = assert_matches_exact_propagator(p, g, Field2(u1, u2), cfg)
    assert np.abs(exact[-1] - exact[0]).max() > 0.5 * exact[0].max()  # far from its start


def spy_on_symmetrised(monkeypatch):
    """The sizes of the matrices integrate_to hands to _symmetrised."""
    sizes = []
    inner = pde._symmetrised

    def spy(a, *args):
        sizes.append(a.shape[0])
        return inner(a, *args)

    monkeypatch.setattr(pde, "_symmetrised", spy)
    return sizes


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("initial", ["origin", "spread"])
def test_mirror_route_matches_exact_propagator(monkeypatch, n, initial):
    # Symmetric migration, rmax1 = rmax2 and mirror data: the solve runs on
    # the m-node habitat-swap-even half and returns (u, rev u)
    p = small_params(delta=0.3, rmax=0.6, n=n)
    g = build_grid(n, 3.0, 41)
    u = pde.gaussian_initial(g, 0.0, 0.1, 1.0)
    if initial == "spread":  # three bumps: u2 = u1 is u1 reversed only up to roundoff
        u = u + pde.gaussian_initial(g, -p.beta, 0.1, 1.0) + pde.gaussian_initial(g, p.beta, 0.1, 1.0)
        assert not np.array_equal(u, u[::-1])
    sizes = spy_on_symmetrised(monkeypatch)
    cfg = pde.SolverConfig(t_end=10.0, record_every=0.5)
    traj, final, _ = assert_matches_exact_propagator(p, g, Field2(u, u.copy()), cfg)
    assert sizes == [g.m]
    assert abs(traj.N1[-1] / traj.N1[0] - 1) > 0.1  # far from its start
    np.testing.assert_array_equal(traj.N1[1:], traj.N2[1:])
    np.testing.assert_array_equal(traj.rbar1[1:], traj.rbar2[1:])
    np.testing.assert_array_equal(final.u2, final.u1[::-1])


def test_equal_peaks_with_unmirrored_data_take_the_full_route(monkeypatch):
    p = small_params(delta=0.3)
    g = build_grid(1, 3.0, 41)
    u1 = pde.gaussian_initial(g, -0.5, 0.1, 1.0)
    u2 = pde.gaussian_initial(g, 0.5, 0.1, 2.0)
    sizes = spy_on_symmetrised(monkeypatch)
    traj, _, _ = assert_matches_exact_propagator(
        p, g, Field2(u1, u2), pde.SolverConfig(t_end=10.0, record_every=0.5))
    assert sizes == [2 * g.m]
    assert abs(traj.N2[-1] - traj.N1[-1]) > 1e-3 * traj.N1[-1]


def test_one_way_remainder_within_roundoff_reuses_the_cadence_propagator(monkeypatch):
    # t_end = 1 over a 0.1 cadence leaves a last interval of 0.09999999999999998:
    # the cadence's expm serves it
    p = model.ModelParams(n=1, mu=0.2, rmax1=0.3, rmax2=0.1, beta=0.5,
                          migration=model.General(0.3, 0.0, 0.2, 0.7))
    g = build_grid(1, 3.0, 41)
    u = pde.gaussian_initial(g, 0.0, 0.1, 1.0)
    calls = []
    inner = pde.expm
    monkeypatch.setattr(pde, "expm", lambda a: calls.append(a) or inner(a))
    cfg = pde.SolverConfig(t_end=1.0, record_every=0.1)
    traj, _, _ = assert_matches_exact_propagator(p, g, Field2(u, u.copy()), cfg)
    assert len(traj.t) == 11 and traj.t[-1] - traj.t[-2] != 0.1
    assert len(calls) == 1


def test_logistic_run_matches_high_order_integration():
    # the eigenbasis rescaling against a tight general-purpose integration
    # of the logistic right-hand side
    from scipy.integrate import solve_ivp
    p, g, s0 = small_setup(delta=0.3, growth=model.GROWTH_LOGISTIC)
    cfg = pde.SolverConfig(t_end=20.0, record_every=1.0)
    traj, final = pde.integrate_to(p, g, s0, cfg)
    gen = -pde.two_habitat_operator(p, g)
    weights = pde._mass_weights(p, g)
    sol = solve_ivp(lambda t, y: pde._rhs(gen, weights, y), (0.0, cfg.t_end),
                    np.concatenate([s0.u1, s0.u2]), method="DOP853", t_eval=traj.t,
                    rtol=1e-11, atol=1e-14)
    assert sol.success
    want = np.array([pde.diagnostics(p, g, Field2(*y.reshape(2, -1))) for y in sol.y.T])
    assert traj.N1[-1] < 0.2 * traj.N1[0]  # the mass term pulls N to its plateau
    for k, col in enumerate((traj.N1, traj.N2, traj.rbar1, traj.rbar2)):
        np.testing.assert_allclose(col, want[:, k], rtol=1e-8, atol=0)
    np.testing.assert_allclose(np.concatenate([final.u1, final.u2]), sol.y[:, -1],
                               rtol=0, atol=1e-8 * sol.y[:, -1].max())


def test_logistic_plateau_is_the_grid_eigenvalue_past_malthusian_overflow():
    # the Malthusian solution overflows float64 long before t_end, but the
    # logistic one is its rescaling and settles at N1 = N2 = -lambda of A
    p, g, s0 = small_setup(delta=0.3, growth=model.GROWTH_LOGISTIC)
    lam0 = float(np.linalg.eigvalsh(pde.two_habitat_operator(p, g).toarray())[0])
    assert -lam0 * 10000.0 > 710.0  # exp(-lambda t_end) is beyond float64
    traj, final = pde.integrate_to(p, g, s0, pde.SolverConfig(t_end=10000.0, record_every=500.0))
    assert traj.N1[-1] == pytest.approx(-lam0, rel=1e-9)
    assert traj.N2[-1] == pytest.approx(-lam0, rel=1e-9)
    assert np.isfinite(final.u1).all() and final.u1.max() > 0


def test_logistic_needs_mirror_symmetric_data():
    p, g, s0 = small_setup(growth=model.GROWTH_LOGISTIC)
    with pytest.raises(ValueError, match="mirror"):
        pde.integrate_to(p, g, Field2(s0.u1, 0.5 * s0.u2), pde.SolverConfig(t_end=1.0))


def test_float64_overflow_raises_solver_error():
    p = small_params(rmax=50.0)
    g = build_grid(1, 4.0, 81)
    u = pde.gaussian_initial(g, 0.0, 0.1, 1.0)
    with pytest.raises(pde.SolverError, match="overflow"):
        pde.integrate_to(p, g, Field2(u, u.copy()), pde.SolverConfig(t_end=300.0))


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
    cfg = pde.SolverConfig(t_end=3.0, record_every=0.25)
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
        cfg = pde.SolverConfig(t_end=6.0, record_every=0.05)
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
    # the run stops on the extinct record itself: its state is the final state
    assert traj.N1.min() >= 0.0 and traj.N2.min() >= 0.0
    mass = integrate(g, final.u1) + integrate(g, final.u2)
    assert mass == pytest.approx(traj.n_total()[-1], rel=1e-12)
    # with unequal migration rates the final state is still nonnegative
    p = model.ModelParams(n=1, mu=0.2, rmax1=-0.5, rmax2=-0.5, beta=0.5,
                          migration=model.General(0.1, 0.05, 0.2, 0.3))
    g = build_grid(1, 3.0, 41)
    u = pde.gaussian_initial(g, 0.0, 0.2, 1.0)
    cfg = pde.SolverConfig(t_end=50.0, record_every=0.1, extinction_rel=1e-6)
    traj, final = pde.integrate_to(p, g, Field2(u, u.copy()), cfg)
    assert traj.extinct
    assert final.u1.min() >= 0.0 and final.u2.min() >= 0.0


def test_step_sequence_does_not_depend_on_record_cadence():
    # records are read off the exact solution, so the final state does not
    # depend on the cadence
    for growth in (model.GROWTH_MALTHUSIAN, model.GROWTH_LOGISTIC):
        p, g, s0 = small_setup(delta=0.1, growth=growth)
        runs = [pde.integrate_to(p, g, s0, pde.SolverConfig(t_end=6.0, record_every=every))
                for every in (0.05, 6.0)]
        (fine, fine_end), (coarse, coarse_end) = runs
        assert len(fine.t) == 121 and len(coarse.t) == 2
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
    with pytest.raises(ValueError, match="extinction_rel"):
        pde.SolverConfig(t_end=1.0, extinction_rel=2.0)


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
