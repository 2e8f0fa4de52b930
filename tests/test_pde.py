import inspect
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import oracle
from twopatch import cli, eigen, hermite, model, pde
from twopatch.grid import Field2, build_grid, integrate, laplacian
from twopatch.pde import Bump, InitialData


def small_params(delta=0.2, growth=model.GROWTH_MALTHUSIAN, rmax=0.3, n=1):
    return model.ModelParams(n=n, mu=0.2, rmax1=rmax, rmax2=rmax, beta=0.5,
                             migration=model.Symmetric(delta), growth=growth)


def solve(p, g, s0, cfg):
    """integrate_to's trajectory and its final state sampled on g's axis."""
    traj, final = pde.integrate_to(p, s0, cfg)
    return traj, Field2(*final.sample(g.axis()))


def small_setup(delta=0.2, growth=model.GROWTH_MALTHUSIAN, n=1):
    p = small_params(delta=delta, growth=growth, n=n)
    g = build_grid(n, 4.0, 81)
    bump = (Bump(0.0, 1.0),)
    return p, g, InitialData(bump, bump)


def test_bump_coefficients_carry_the_mass_and_bumps_validate():
    # a bump's Hermite coefficients (a coherent state of the basis) carry its
    # mass exactly, at the centre and off it
    mu = 0.2
    m0 = hermite.moments(mu, 128)[0]
    for center in (0.0, 0.5, -1.5, 2.5):
        c = hermite.gaussian_coefficients(mu, center, 7.0, 128)
        assert c @ m0 == pytest.approx(7.0, rel=1e-12)
    with pytest.raises(ValueError, match="mass"):
        Bump(0.0, -1.0)
    with pytest.raises(ValueError, match="center"):
        Bump(math.nan, 1.0)


def test_bump_outside_the_sampling_box_keeps_its_mass():
    # the solve is in free space: the grid only samples the final state
    p = small_params()
    g = build_grid(1, 2.0, 21)
    far = (Bump(5.0, 1.0),)
    traj, final = solve(p, g, InitialData(far, far), pde.SolverConfig(t_end=0.0))
    assert traj.N1[0] == pytest.approx(1.0, rel=1e-12)
    assert final.u1.max() < 1e-9


def test_rhs_matches_hand_formula_with_general_migration():
    # the growth operator -A against the hand-written right-hand side
    p = model.ModelParams(n=1, mu=0.2, rmax1=0.3, rmax2=0.1, beta=0.5,
                          migration=model.General(0.3, 0.05, 0.2, 0.7))
    g = build_grid(1, 2.0, 17)
    rng = np.random.default_rng(8)
    u1 = rng.random(g.shape)
    u2 = rng.random(g.shape)
    out = -(eigen.assemble_full(p, g).matrix @ np.concatenate([u1, u2]))
    r1, r2 = eigen.fitness_fields(p, g)
    half_mu2 = 0.5 * p.mu * p.mu
    want1 = half_mu2 * laplacian(g, u1) + r1 * u1 - 0.3 * u1 + 0.05 * u2
    want2 = half_mu2 * laplacian(g, u2) + r2 * u2 + 0.2 * u1 - 0.7 * u2
    np.testing.assert_allclose(out[:g.m], want1, rtol=0, atol=1e-13)
    np.testing.assert_allclose(out[g.m:], want2, rtol=0, atol=1e-13)


def test_rhs_habitats_decouple_without_migration():
    # with every migration rate 0, habitat 1's growth does not see habitat 2
    p = model.ModelParams(n=1, mu=0.2, rmax1=0.3, rmax2=0.1, beta=0.5,
                          migration=model.General(0.0, 0.0, 0.0, 0.0))
    g = build_grid(1, 2.0, 17)
    rng = np.random.default_rng(9)
    u1 = rng.random(g.shape)
    a = eigen.assemble_full(p, g).matrix
    out_a = a @ np.concatenate([u1, rng.random(g.shape)])
    out_b = a @ np.concatenate([u1, rng.random(g.shape)])
    np.testing.assert_array_equal(out_a[:g.m], out_b[:g.m])


def assert_matches_exact_propagator(p, g, s0, cfg):
    """integrate_to against the oracle's dense expm of the Galerkin matrix,
    the exact propagator of the Malthusian system in the Hermite basis;
    returns the run and the oracle's coefficients at the record times."""
    traj, final = solve(p, g, s0, cfg)
    exact = oracle.Solve(p, s0)
    coef = exact.trajectory(traj.t)
    want = np.array([exact.observe(c) for c in coef])
    np.testing.assert_allclose(traj.N1, want[:, 0], rtol=1e-9, atol=0)
    np.testing.assert_allclose(traj.N2, want[:, 1], rtol=1e-9, atol=0)
    u = np.concatenate(exact.state(coef[-1], g.axis()))
    np.testing.assert_allclose(np.concatenate([final.u1, final.u2]), u,
                               rtol=0, atol=1e-9 * u.max())
    return traj, final, coef


@pytest.mark.parametrize("migration", [
    model.Symmetric(0.3),                  # Symmetric rates with unequal peaks: expm
    model.General(0.3, 0.05, 0.2, 0.7),    # d12 != d21: expm
    model.General(0.3, 0.0, 0.2, 0.7),     # one-way, d12 = 0: expm
    model.General(0.3, 0.05, 0.0, 0.7),    # one-way, d21 = 0: expm
    model.General(0.0, 0.0, 0.0, 0.0),     # uncoupled habitats: expm
    model.General(0.3, 1e-20, 0.2, 0.7),   # d12 / d21 = 5e-20: expm
    model.General(0.3, 1e-30, 0.2, 0.7),   # d12 / d21 = 5e-30: expm
], ids=["symmetric", "general", "one_way_d12_0", "one_way_d21_0", "uncoupled",
        "ratio_5e-20", "ratio_5e-30"])
def test_integrate_to_matches_exact_propagator_with_general_migration(migration):
    p = model.ModelParams(n=1, mu=0.2, rmax1=0.3, rmax2=0.1, beta=0.5, migration=migration)
    g = build_grid(1, 3.0, 41)
    s0 = InitialData((Bump(-0.5, 1.0),), (Bump(0.5, 2.0),))
    cfg = pde.SolverConfig(t_end=10.0, record_every=0.5)
    _, _, coef = assert_matches_exact_propagator(p, g, s0, cfg)
    assert np.abs(coef[-1] - coef[0]).max() > 0.5 * np.abs(coef[0]).max()  # far from its start


def spy_on_expm(monkeypatch):
    """The shapes of the matrices integrate_to hands to expm."""
    shapes = []
    inner = pde.expm
    monkeypatch.setattr(pde, "expm", lambda a: shapes.append(a.shape) or inner(a))
    return shapes


def basis_size(p, s0):
    """The K integrate_to chooses: where lambda agrees, doubled until the data decay in it."""
    return pde._basis(p, s0)[1]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("initial", ["origin", "spread"])
def test_mirror_route_matches_exact_propagator(monkeypatch, n, initial):
    # Symmetric migration, rmax1 = rmax2 and mirror data: the solve steps the
    # habitat-swap-even half by one K x K expm, and returns (u, rev u)
    p = small_params(delta=0.3, rmax=0.6, n=n)
    g = build_grid(n, 3.0, 41)
    bumps = (Bump(0.0, 1.0),)
    if initial == "spread":  # three bumps: u2's coefficients are u1's reversed up to roundoff
        bumps += (Bump(-p.beta, 1.0), Bump(p.beta, 1.0))
    s0 = InitialData(bumps, bumps)
    shapes = spy_on_expm(monkeypatch)
    cfg = pde.SolverConfig(t_end=10.0, record_every=0.5)
    traj, final, _ = assert_matches_exact_propagator(p, g, s0, cfg)
    size = basis_size(p, s0)
    assert shapes == [(size, size)]
    assert abs(traj.N1[-1] / traj.N1[0] - 1) > 0.1  # far from its start
    np.testing.assert_array_equal(traj.N1[1:], traj.N2[1:])
    np.testing.assert_array_equal(traj.rbar1[1:], traj.rbar2[1:])
    np.testing.assert_array_equal(final.u2, final.u1[::-1])


def test_equal_peaks_with_unmirrored_data_take_the_full_route(monkeypatch):
    p = small_params(delta=0.3)
    g = build_grid(1, 3.0, 41)
    s0 = InitialData((Bump(-0.5, 1.0),), (Bump(0.5, 2.0),))
    shapes = spy_on_expm(monkeypatch)
    traj, _, _ = assert_matches_exact_propagator(
        p, g, s0, pde.SolverConfig(t_end=10.0, record_every=0.5))
    size = 2 * basis_size(p, s0)
    assert shapes == [(size, size)]
    assert abs(traj.N2[-1] - traj.N1[-1]) > 1e-3 * traj.N1[-1]


def test_one_way_remainder_within_roundoff_reuses_the_cadence_propagator(monkeypatch):
    # t_end = 1 over a 0.1 cadence leaves a last interval of 0.09999999999999998:
    # the cadence's expm serves it
    p = model.ModelParams(n=1, mu=0.2, rmax1=0.3, rmax2=0.1, beta=0.5,
                          migration=model.General(0.3, 0.0, 0.2, 0.7))
    g = build_grid(1, 3.0, 41)
    bump = (Bump(0.0, 1.0),)
    shapes = spy_on_expm(monkeypatch)
    cfg = pde.SolverConfig(t_end=1.0, record_every=0.1)
    traj, _, _ = assert_matches_exact_propagator(p, g, InitialData(bump, bump), cfg)
    assert len(traj.t) == 11 and traj.t[-1] - traj.t[-2] != 0.1
    assert len(shapes) == 1


def test_final_state_is_in_coefficients_and_sampled_apart():
    # a mirror run's u2 has u1's coefficients times (-1)^k, exactly, and
    # FinalState.sample reverses u1 for it on a symmetric axis
    p, g, s0 = small_setup(delta=0.3)
    _, final = pde.integrate_to(p, s0, pde.SolverConfig(t_end=5.0))
    sign = (-1.0) ** np.arange(final.coef.shape[0])
    assert final.mirror and final.mu == p.mu
    np.testing.assert_array_equal(final.coef[:, 1], sign * final.coef[:, 0])
    u1, u2 = final.sample(g.axis())
    np.testing.assert_array_equal(u2, u1[::-1])
    assert u1.min() == 0.0 and u1.max() > 0.0
    # the positivity check's nodes are symmetric about 0, so u1 there covers u2
    check = pde._check_basis(sign.size)
    np.testing.assert_array_equal(check[::-1], check * sign)


def test_logistic_run_matches_high_order_integration():
    # the Van Loan block's rescaling against a tight general-purpose integration
    # of the logistic right-hand side, in the oracle's coefficients (stiff:
    # the top modes decay at mu K, so an implicit method)
    from scipy.integrate import solve_ivp
    p, g, s0 = small_setup(delta=0.3, growth=model.GROWTH_LOGISTIC)
    cfg = pde.SolverConfig(t_end=20.0, record_every=1.0)
    traj, final = solve(p, g, s0, cfg)
    exact = oracle.Solve(p, s0)
    size = exact.size

    def rhs(t, c):
        n = np.repeat([exact.mass @ c[:size], exact.mass @ c[size:]], size)
        return -(exact.a @ c) - n * c

    sol = solve_ivp(rhs, (0.0, cfg.t_end), exact.c0, method="Radau", t_eval=traj.t,
                    rtol=1e-11, atol=1e-14)
    assert sol.success
    want = np.array([exact.observe(c) for c in sol.y.T])
    assert traj.N1[-1] < 0.2 * traj.N1[0]  # the mass term pulls N to its plateau
    for k, col in enumerate((traj.N1, traj.N2, traj.rbar1, traj.rbar2)):
        np.testing.assert_allclose(col, want[:, k], rtol=1e-8, atol=0)
    u = np.concatenate(exact.state(sol.y[:, -1], g.axis()))
    np.testing.assert_allclose(np.concatenate([final.u1, final.u2]), u,
                               rtol=0, atol=1e-8 * u.max())


def test_logistic_plateau_is_the_grid_eigenvalue_past_malthusian_overflow(monkeypatch):
    # the Malthusian solution overflows float64 long before t_end, but the
    # logistic one is its rescaling and settles at N1 = N2 = -lambda, the
    # principal eigenvalue of the basis lambda_of solves in; an infinite
    # cadence steps to t = 1e4 with one expm, whose unshifted propagator
    # alone would overflow
    p, g, s0 = small_setup(delta=0.3, growth=model.GROWTH_LOGISTIC)
    lam0 = eigen.lambda_of(p)
    assert -lam0 * 10000.0 > 710.0  # exp(-lambda t_end) is beyond float64
    shapes = spy_on_expm(monkeypatch)
    for every in (500.0, math.inf):
        shapes.clear()
        traj, final = solve(p, g, s0, pde.SolverConfig(t_end=10000.0, record_every=every))
        assert len(traj.t) == (21 if every == 500.0 else 2) and len(shapes) == 1
        assert traj.N1[-1] == pytest.approx(-lam0, rel=1e-9)
        assert traj.N2[-1] == pytest.approx(-lam0, rel=1e-9)
        assert np.isfinite(final.u1).all() and final.u1.max() > 0


def test_logistic_needs_mirror_symmetric_data():
    p, g, s0 = small_setup(growth=model.GROWTH_LOGISTIC)
    half = (Bump(0.0, 0.5),)
    with pytest.raises(ValueError, match="mirror"):
        pde.integrate_to(p, InitialData(s0.u1, half), pde.SolverConfig(t_end=1.0))


def test_float64_overflow_raises_solver_error():
    p = small_params(rmax=50.0)
    bump = (Bump(0.0, 1.0),)
    with pytest.raises(pde.SolverError, match="overflow"):
        pde.integrate_to(p, InitialData(bump, bump), pde.SolverConfig(t_end=300.0))


def test_integrate_to_records_on_cadence():
    p, g, s0 = small_setup()
    traj, final = solve(p, g, s0, pde.SolverConfig(t_end=2.0, record_every=0.5))
    np.testing.assert_allclose(traj.t, [0.0, 0.5, 1.0, 1.5, 2.0], atol=1e-12)
    assert final.u1.shape == g.shape
    assert not traj.extinct
    assert traj.n_total()[0] == pytest.approx(2.0, rel=1e-12)


def test_integrate_to_t_end_zero_records_initial_row_only():
    # the final state is the input's bumps at the nodes, to the roundoff floor
    # and with FinalState.sample's clip: values below 1e-12 times the height,
    # the larger of the maximum and the L2 norm of (u1, u2) times mu^(-1/4),
    # are 0 (a lone bump's L2 norm is its mass times (4 pi mu)^(-1/4))
    p, g, s0 = small_setup()
    traj, final = solve(p, g, s0, pde.SolverConfig(t_end=0.0))
    assert list(traj.t) == [0.0]
    u = oracle.gaussian(g.axis(), s0.u1, p.mu)
    norm = math.hypot(*(b.mass for b in s0.u1 + s0.u2)) * (4.0 * math.pi * p.mu) ** -0.25
    u[u < 1e-12 * max(u.max(), norm * p.mu ** -0.25)] = 0.0
    np.testing.assert_allclose(final.u1, u, rtol=0, atol=1e-12 * u.max())


def test_mass_balance_matches_mean_fitness():
    # with symmetric migration the exchange cancels in the total, so
    # d(N1+N2)/dt = rbar1*N1 + rbar2*N2 (free space: nothing leaks)
    p, g, s0 = small_setup(delta=0.4)
    cfg = pde.SolverConfig(t_end=3.0, record_every=0.25)
    traj, _ = pde.integrate_to(p, s0, cfg)
    n = traj.n_total()
    growth = traj.rbar1 * traj.N1 + traj.rbar2 * traj.N2
    dt = 0.25
    for k in range(1, len(n) - 1):
        dn = (n[k + 1] - n[k - 1]) / (2.0 * dt)
        assert dn == pytest.approx(growth[k], rel=5e-3)


def test_mirror_symmetry_is_preserved():
    p, g, s0 = small_setup(delta=0.3)
    traj, final = solve(p, g, s0, pde.SolverConfig(t_end=5.0, record_every=1.0))
    np.testing.assert_allclose(traj.N1, traj.N2, rtol=1e-9)
    from twopatch.grid import reflect_field
    np.testing.assert_allclose(final.u2, reflect_field(g, final.u1),
                               rtol=0, atol=1e-9 * final.u1.max())


def test_logistic_mass_stays_bounded():
    p, _, s0 = small_setup(growth=model.GROWTH_LOGISTIC)
    traj, _ = pde.integrate_to(p, s0, pde.SolverConfig(t_end=40.0, record_every=2.0))
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
        p, _, s0 = small_setup(delta=0.1, n=n)
        cfg = pde.SolverConfig(t_end=6.0, record_every=0.05)
        mal, _ = pde.integrate_to(p, s0, cfg)
        p_log = model.ModelParams(n=p.n, mu=p.mu, rmax1=p.rmax1, rmax2=p.rmax2,
                                  beta=p.beta, migration=p.migration,
                                  growth=model.GROWTH_LOGISTIC)
        log, _ = pde.integrate_to(p_log, s0, cfg)
        cum = np.concatenate([[0.0], np.cumsum((mal.N1[1:] + mal.N1[:-1]) * 0.5 * 0.05)])
        predicted = mal.N1 / (1.0 + cum)
        np.testing.assert_allclose(log.N1, predicted, rtol=2e-4)


def test_extinction_flag_on_decaying_run():
    p = small_params(delta=0.05, rmax=-2.0)
    g = build_grid(1, 4.0, 81)
    bump = (Bump(0.0, 1.0),)
    cfg = pde.SolverConfig(t_end=50.0, record_every=1.0)
    traj, final = solve(p, g, InitialData(bump, bump), cfg)
    assert traj.extinct
    assert traj.t[-1] < 50.0  # stopped early
    assert traj.n_total()[-1] < 1e-12 * 2.0  # the extinction floor times the initial mass
    # the run stops on the extinct record itself: its state is the final state
    assert traj.N1.min() >= 0.0 and traj.N2.min() >= 0.0
    mass = integrate(g, final.u1) + integrate(g, final.u2)
    assert mass == pytest.approx(traj.n_total()[-1], rel=1e-12)
    # with unequal migration rates the final state is still nonnegative
    p = model.ModelParams(n=1, mu=0.2, rmax1=-0.5, rmax2=-0.5, beta=0.5,
                          migration=model.General(0.1, 0.05, 0.2, 0.3))
    g = build_grid(1, 3.0, 41)
    bump = (Bump(0.0, 1.0),)
    cfg = pde.SolverConfig(t_end=50.0, record_every=0.1)
    traj, final = solve(p, g, InitialData(bump, bump), cfg)
    assert traj.extinct
    assert final.u1.min() >= 0.0 and final.u2.min() >= 0.0


def test_step_sequence_does_not_depend_on_record_cadence():
    # 120 steps of 0.05 and one step of 6 reach the same final state: the
    # propagators are exact in time, so the two differ by the mat-vecs'
    # rounding alone
    for growth in (model.GROWTH_MALTHUSIAN, model.GROWTH_LOGISTIC):
        p, g, s0 = small_setup(delta=0.1, growth=growth)
        runs = [solve(p, g, s0, pde.SolverConfig(t_end=6.0, record_every=every))
                for every in (0.05, 6.0)]
        (fine, fine_end), (coarse, coarse_end) = runs
        assert len(fine.t) == 121 and len(coarse.t) == 2
        height = coarse_end.u1.max()
        np.testing.assert_allclose(fine_end.u1, coarse_end.u1, rtol=0, atol=1e-13 * height)
        np.testing.assert_allclose(fine_end.u2, coarse_end.u2, rtol=0, atol=1e-13 * height)
        assert fine.N1[-1] == pytest.approx(coarse.N1[-1], rel=1e-14)


def test_fitness_fields_carry_the_transverse_load():
    # axis fitness at n traits is the one-trait fitness minus (n - 1) mu / 2
    g1 = build_grid(1, 2.0, 17)
    r1, r2 = eigen.fitness_fields(small_params(n=1), g1)
    for n in (2, 3):
        rn1, rn2 = eigen.fitness_fields(small_params(n=n), build_grid(n, 2.0, 17))
        np.testing.assert_allclose(rn1, r1 - 0.5 * (n - 1) * 0.2, rtol=0, atol=1e-15)
        np.testing.assert_allclose(rn2, r2 - 0.5 * (n - 1) * 0.2, rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="trait"):
        eigen.fitness_fields(small_params(n=2), g1)


def test_fitness_fields_need_no_array_of_n_columns():
    # the old expression: fitness of the (m, n) phenotypes (x1, 0, ..., 0)
    p = model.ModelParams(n=3, mu=0.2, rmax1=0.3, rmax2=0.1, beta=0.5,
                          migration=model.General(0.1, 0.2, 0.3, 0.4))
    g = build_grid(3, 2.0, 17)
    x = np.zeros((g.m, 3))
    x[:, 0] = g.axis()
    load = 0.5 * 2 * p.mu
    for got, habitat in zip(eigen.fitness_fields(p, g), (1, 2)):
        assert got.tobytes() == (model.fitness(p, habitat, x) - load).tobytes()
    # n = 1e9 traits: a few m-sized arrays, not m * n zeros
    huge, m = small_params(n=10**9), 1025
    tracemalloc.start()
    try:
        r1, r2 = eigen.fitness_fields(huge, build_grid(huge.n, 2.0, m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 8 * m, peak
    assert r1[m // 2] == huge.rmax1 - 0.5 * huge.beta ** 2 - 0.5 * (huge.n - 1) * huge.mu


def test_initial_state_validation():
    p, g, s0 = small_setup()
    cfg = pde.SolverConfig(t_end=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        InitialData((Bump(0.0, -1.0),), s0.u2)
    with pytest.raises(ValueError, match="positive in each habitat"):
        pde.integrate_to(p, InitialData((), s0.u2), cfg)
    # a bump centred 34 basis widths sqrt(mu) out needs too many modes
    far_out = (Bump(15.0, 1.0),)
    with pytest.raises(ValueError, match="Hermite modes"):
        pde.integrate_to(p, InitialData(far_out, far_out), cfg)
    # grid samples are not initial data: the solve takes only analytic bumps
    u = oracle.gaussian(g.axis(), s0.u1, p.mu)
    with pytest.raises(TypeError, match="InitialData"):
        pde.integrate_to(p, Field2(u, u.copy()), cfg)
    # optima 57 basis widths apart need 2048 modes, above the solve's cap
    far = model.ModelParams(n=1, mu=0.01, rmax1=0.1, rmax2=0.1, beta=math.sqrt(8.0),
                            migration=model.Symmetric(0.05))
    with pytest.raises(pde.SolverError,
                       match=r"lambda needs more than 1024 Hermite modes, at beta\^2 / mu = 800"):
        pde.integrate_to(far, s0, cfg)


def test_bumps_too_far_apart_to_square_their_distance_need_too_many_modes():
    # (1e200 - -1e200)^2 overflows a Python float: the pair's overlap term is
    # exp(-inf) = 0, and the refusal is the documented ValueError
    p = small_params()
    far = (Bump(-1e200, 1.0), Bump(1e200, 1.0))
    with pytest.raises(ValueError, match="initial data need more than 1024 Hermite modes"):
        pde.integrate_to(p, InitialData(far, far), pde.SolverConfig(t_end=1.0))


def test_refused_solve_builds_no_basis_above_the_cap(monkeypatch):
    # mu = 1e-3, m_D = 2: lambda agrees only at K = 2048, so the solve is
    # refused, having built no Galerkin band above 1024 modes
    config = cli.ExperimentConfig(mu=1e-3, m_D=2.0)
    params = cli.to_model_params(config)
    sizes, inner = [], hermite.galerkin
    monkeypatch.setattr(hermite, "galerkin",
                        lambda p, size, **kwargs: sizes.append(size) or inner(p, size, **kwargs))
    with pytest.raises(pde.SolverError, match="Hermite modes"):
        pde.integrate_to(params, cli.initial_state(config, params), cli.solver_config(config))
    assert max(sizes) == 1024, sizes


def test_solver_config_validation():
    for t_end in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="t_end"):
            pde.SolverConfig(t_end=t_end)
    # an infinite cadence records the two ends only
    assert pde.SolverConfig(t_end=1.0, record_every=math.inf).record_every == math.inf
    with pytest.raises(ValueError, match="record_every"):
        pde.SolverConfig(t_end=1.0, record_every=0.0)


def test_growth_rate_approaches_principal_eigenvalue():
    # late-time Malthusian growth of ln N should settle at -lambda
    p = small_params(delta=0.3)
    lam = eigen.lambda_of(p)
    bump = (Bump(0.0, 1.0),)
    cfg = pde.SolverConfig(t_end=30.0, record_every=1.0)
    traj, _ = pde.integrate_to(p, InitialData(bump, bump), cfg)
    tail = traj.t >= 15.0
    slope = np.polyfit(traj.t[tail], np.log(traj.n_total()[tail]), 1)[0]
    assert slope == pytest.approx(-lam, rel=2e-3)


def test_late_log_mass_slope_matches_lambda_to_1e6():
    # the late slope of ln N is -lambda up to the next mode's share, which
    # decays as exp(-gap t); from t = 30 / gap that share is below e^-30
    # (1e-13), so the fitted slope must match lambda_of to 1e-6
    p = small_params(delta=0.3)
    lam = eigen.lambda_of(p)
    origin = (Bump(0.0, 1.0),)  # decays at any K: the solve's K is where lambda agrees
    band = hermite.galerkin(p, pde._basis(p, InitialData(origin, origin))[1])
    even = scipy.linalg.eigvalsh_tridiagonal(band[0], band[1, :-1])
    gap = even[1] - even[0]  # mirror data stay in the habitat-swap-even modes
    t_from = 30.0 / gap
    bump = (Bump(0.3, 1.0),)  # off-centre: every even mode starts excited
    cfg = pde.SolverConfig(t_end=2.0 * t_from, record_every=t_from / 20.0)
    traj, _ = pde.integrate_to(p, InitialData(bump, bump[::-1]), cfg)
    tail = traj.t >= t_from
    slope = np.polyfit(traj.t[tail], np.log(traj.n_total()[tail]), 1)[0]
    assert slope == pytest.approx(-lam, rel=1e-6)


def default_solve(monkeypatch=None, factor=1, config=cli.ExperimentConfig()):
    """The CLI's solve of config (the default one unless given), with the
    basis enlarged by factor."""
    params = cli.to_model_params(config)
    if monkeypatch is not None:
        inner = pde._basis

        def wide(p, s0):
            lam, size, _, _ = inner(p, s0)
            c1, c2 = (sum(hermite.gaussian_coefficients(p.mu, b.center, b.mass, factor * size)
                          for b in bumps) for bumps in (s0.u1, s0.u2))
            return lam, factor * size, c1, c2

        monkeypatch.setattr(pde, "_basis", wide)
    return solve(params, cli.grid_for(config, params), cli.initial_state(config, params),
                 cli.solver_config(config))


def test_default_solve_agrees_across_two_basis_doublings(monkeypatch):
    traj, final = default_solve()
    assert traj.n_total()[-1] == pytest.approx(49.4602, abs=5e-5)
    for factor in (2, 4):
        wide, wide_final = default_solve(monkeypatch, factor)
        np.testing.assert_allclose(wide.n_total(), traj.n_total(), rtol=1e-12, atol=0)
        np.testing.assert_allclose(wide_final.u1, final.u1, rtol=0, atol=1e-12 * final.u1.max())


def test_general_solve_decaying_far_below_its_start_converges_in_the_basis(monkeypatch):
    # unequal General rates and peaks at mu = 5e-3, m_D = 1: the mass falls
    # from 2e4 to 8e-3 by t = 100, and the final masses still hold 12 digits
    # at twice the basis
    config = cli.ExperimentConfig(mu=5e-3, m_D=1.0, rmax2=0.8 / 18.0, t_end=100.0,
                                  migration="general", d11=0.05, d12=0.02, d21=0.05, d22=0.03)
    traj, _ = default_solve(config=config)
    wide, _ = default_solve(monkeypatch, 2, config)
    assert traj.n_total()[-1] < 1e-6 * traj.n_total()[0]
    np.testing.assert_allclose([wide.N1[-1], wide.N2[-1]], [traj.N1[-1], traj.N2[-1]],
                               rtol=1e-12, atol=0)


# (m_D, K, t, N1 at t) at mu = 2e-3: t is the solve's last record, its
# extinction record above m_D = 0.5; N1 is m0 . e^(-t A) y0 on the solve's own
# float64 problem, summed as a Taylor series at about 200 digits by
# tests/taylor_reference.py (two precisions agree to 1e-150)
MU_2E3_REFERENCE = [
    (0.5, 256, 300.0, 0.0006404191995985988),
    (1.0, 512, 165.5, 9.465513091935878e-09),
    (1.5, 1024, 94.5, 9.110835615260462e-09),
    (2.0, 1024, 66.5, 8.832100884454398e-09),
]


@pytest.mark.parametrize("m_D, size, t, mass", MU_2E3_REFERENCE,
                         ids=[f"m_D_{row[0]}" for row in MU_2E3_REFERENCE])
def test_mu_2e3_solves_match_the_taylor_reference(m_D, size, t, mass):
    # where the habitats differ most, the state at the extinction record is
    # 1e-12 of its start and still nonnegative to roundoff
    config = cli.ExperimentConfig(mu=2e-3, m_D=m_D)
    params = cli.to_model_params(config)
    traj, final = pde.integrate_to(params, cli.initial_state(config, params),
                                   cli.solver_config(config))
    assert final.coef.shape[0] == size and final.mirror
    assert traj.t[-1] == t and traj.extinct == (t < config.t_end)
    assert traj.N1[-1] == pytest.approx(mass, rel=1e-13)
    np.testing.assert_array_equal(traj.N2[1:], traj.N1[1:])


@pytest.mark.parametrize("growth", [model.GROWTH_MALTHUSIAN, model.GROWTH_LOGISTIC])
def test_extinct_run_stops_stepping_after_the_block_of_its_extinction_record(monkeypatch,
                                                                            growth):
    # extinct at record 131 (logistic: 81) of 6001: stepping (one mat-vec of
    # the propagator per record) ends with the block of that record, and every
    # record and the final state keep the bits of a run whose one block steps
    # to record 5999 before it looks
    config = cli.ExperimentConfig(m_D=2.0, delta=0.5, t_end=3000.0, growth=growth)
    params = cli.to_model_params(config)
    args = params, cli.initial_state(config, params), cli.solver_config(config)
    dots, sizes, inner = [], [], pde.expm

    class Counting(np.ndarray):
        def dot(self, *args, **kwargs):
            dots.append(1)
            return np.asarray(self).dot(*args, **kwargs)

    def counting_expm(a):
        sizes.append(a.size)
        return inner(a).view(Counting)

    monkeypatch.setattr(pde, "expm", counting_expm)
    traj, final = pde.integrate_to(*args)
    extinct_at, block = traj.t.size - 1, pde._BLOCK_WORK // sizes[0]
    assert traj.extinct and 1 < block < extinct_at < 200 and len(sizes) == 1
    assert extinct_at <= len(dots) < extinct_at + block
    monkeypatch.setattr(pde, "_BLOCK_WORK", 10 ** 18)
    dots.clear()
    whole, whole_final = pde.integrate_to(*args)
    assert len(dots) == 5999
    for name in ("t", "N1", "N2", "rbar1", "rbar2"):
        np.testing.assert_array_equal(getattr(traj, name), getattr(whole, name))
    np.testing.assert_array_equal(final.coef, whole_final.coef)


def test_final_state_below_the_roundoff_floor_is_exactly_zero():
    # the truncated Hermite sum dips to roundoff (-1e-31 and below) at the
    # box edge; integrate_to prints those nodes as exact zeros
    _, final = default_solve()
    u = final.u1
    assert (u == 0.0).any()
    assert not ((u > 0.0) & (u < 1e-12 * u.max())).any()
    assert u.min() == 0.0
    np.testing.assert_array_equal(final.u2, final.u1[::-1])


def test_mirror_final_state_samples_u2_at_points_not_symmetric_about_0():
    # u2 is u1 reflected, so u2 at x is u1 at -x: reversing u1's samples gives
    # it only at points symmetric about 0, and [0, 0.5, 1] are not (u2(0) read
    # 1.9e-5, u1(1), where it is 1.0e4)
    config = cli.ExperimentConfig(t_end=10.0)
    params = cli.to_model_params(config)
    _, final = pde.integrate_to(params, cli.initial_state(config, params),
                                cli.solver_config(config))
    x = np.array([0.0, 0.5, 1.0])
    u1, u2 = final.sample(x)
    reflected, _ = final.sample(-x)
    both = final.sample(np.concatenate([-x[:0:-1], x]))
    assert final.mirror and u2[0] == pytest.approx(1.0411e4, rel=1e-4)
    np.testing.assert_allclose(u2, reflected, rtol=1e-12)
    np.testing.assert_allclose(np.column_stack([u1, u2]), np.column_stack(both)[2:], rtol=1e-12)


def test_final_state_samples_a_coefficient_above_2_to_the_1023():
    # the height's L2 norm runs over the power of two at or below the largest
    # coefficient; the one above 1e308 is 2^1024, which overflowed
    x = np.array([-1.0, 0.0, 1.0])
    u1, u2 = pde.FinalState(1.0, np.array([[1e308, 0.5e308]]), False).sample(x)
    psi0 = hermite.basis(1, x)[:, 0]
    np.testing.assert_array_equal(u1, psi0 * 1e308)
    np.testing.assert_array_equal(u2, psi0 * 0.5e308)


def test_integrate_to_builds_no_grid_sized_matrix(monkeypatch):
    # the solve takes no grid, and sampling its final state on a 4097-node
    # axis costs no m x m matrix: the box's finite-difference operators live
    # in eigen alone
    def refuse(*args, **kwargs):
        raise AssertionError("integrate_to assembled a finite-difference operator")

    for name in ("assemble_full", "assemble_symmetric_reduced"):
        monkeypatch.setattr(eigen, name, refuse)
    for name in ("two_habitat_operator", "reduced_operator", "neg_laplacian_matrix",
                 "reflection_permutation", "Grid", "Field2"):
        assert not hasattr(pde, name)
    assert list(inspect.signature(pde.integrate_to).parameters) == ["params", "state0", "config"]
    _, final = default_solve(config=cli.ExperimentConfig(m=4097))
    assert final.u1.shape == (4097,)


def fd_total_mass(p, bumps, t, h, L=4.0):
    """N1 + N2 at t of the mirror finite-difference solve on [-L, L] at spacing h:
    dense expm of oracle.fd_mirror_matrix, data sampled at the nodes,
    trapezoid mass."""
    x, a = oracle.fd_mirror_matrix(p, L, int(round(2 * L / h)) + 1)
    return 2.0 * np.trapezoid(scipy.linalg.expm(-t * a) @ oracle.gaussian(x, bumps, p.mu), x)


def test_finite_difference_solve_converges_to_the_hermite_solve_at_second_order():
    # an independent route to the dynamics: the box's second-order finite
    # differences approach the Hermite solve as h^2, about 4x per halving
    config = cli.ExperimentConfig(t_end=20.0, record_every=20.0)
    p = cli.to_model_params(config)
    data = cli.initial_state(config, p)
    traj, _ = pde.integrate_to(p, data, cli.solver_config(config))
    errors = [abs(fd_total_mass(p, data.u1, 20.0, h) - traj.n_total()[-1])
              for h in (1 / 16, 1 / 32, 1 / 64)]
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    assert all(3.6 < r < 4.4 for r in ratios), (errors, ratios)
