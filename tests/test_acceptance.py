"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line (visible with -s or -rA) with the
measured quantities next to the tolerance it was held to. Runtime bars are
asserted with generous margin on a laptop-class machine.
"""

import math
import time
import warnings

import numpy as np
import pytest

from twopatch import cli, eigen, ibm, model, pde, thresholds
from twopatch.grid import build_grid, reflect_field

RMAX = 1.0 / 18.0
MU = math.sqrt(1.0 / 1800.0)


def ref_params(n=2, delta=0.05, m_d=0.5, rmax=RMAX, mu=MU,
               growth=model.GROWTH_MALTHUSIAN):
    return model.ModelParams(n=n, mu=mu, rmax1=rmax, rmax2=rmax,
                             beta=model.beta_of(m_d),
                             migration=model.Symmetric(delta), growth=growth)


def test_criterion_01_closed_form_eigenvalue_at_zero_habitat_difference():
    # identical wells: lambda = -rmax + n*mu/2, to 1e-3, <= 10 s per case
    for n in (1, 2):
        t0 = time.perf_counter()
        lam = eigen.lambda_of(ref_params(n=n, m_d=0.0))
        elapsed = time.perf_counter() - t0
        closed = -RMAX + n * MU / 2.0
        err = abs(lam - closed)
        assert err <= 1e-3, f"n={n}: |{lam} - {closed}| = {err}"
        assert elapsed <= 10.0
        print(f"criterion 1 (n={n}): PASS |lambda-closed|={err:.3g} "
              f"(tol 1e-3) in {elapsed:.2f}s")


def test_criterion_02_large_migration_limit():
    # delta = 1000: within 2% of -rmax + n*mu/2 + m_D/4, <= 30 s
    t0 = time.perf_counter()
    lam = eigen.lambda_of(ref_params(n=2, delta=1000.0, m_d=0.5))
    elapsed = time.perf_counter() - t0
    limit = -RMAX + MU + 0.5 / 4.0
    rel = abs(lam - limit) / abs(limit)
    assert rel <= 0.02, f"lambda={lam}, limit={limit}, rel={rel}"
    assert elapsed <= 30.0
    print(f"criterion 2: PASS rel gap {rel:.2e} (tol 2e-2) in {elapsed:.2f}s")


def test_criterion_03_peak_height_shift_identity():
    # raising rmax by c shifts lambda by exactly -c; lambda_of adds -rmax to
    # the eigenvalue of a Hermite matrix that depends only on mu, the optimum
    # gap and the migration rates, so the identity holds to rounding
    lam_a = eigen.lambda_of(ref_params(n=2, rmax=0.1))
    lam_b = eigen.lambda_of(ref_params(n=2, rmax=0.05))
    err = abs((lam_a - lam_b) - (-0.05))
    assert err <= 1e-10, f"shift error {err}"
    print(f"criterion 3: PASS |(lambda(0.1)-lambda(0.05))+0.05|={err:.3g} (tol 1e-10)")


def test_criterion_04_monotonicity_and_concavity():
    ladder_ok = True

    def lam_rows(params):
        nonlocal ladder_ok
        res = eigen.lambda_limit(params, *eigen.default_schedules(params))
        rungs = res.rows[:-1]  # final row refines spacing, not the box
        ladder_ok &= all(b.lambda_L <= a.lambda_L + 1e-6
                         for a, b in zip(rungs, rungs[1:]))
        return res.lam

    deltas = [0.01, 0.1, 1.0, 10.0]
    lam_d = [lam_rows(ref_params(n=2, delta=d, m_d=0.5)) for d in deltas]
    assert all(a < b for a, b in zip(lam_d, lam_d[1:])), f"delta sweep {lam_d}"

    mds = [0.0, 0.25, 0.5, 1.0]
    lam_m = [lam_rows(ref_params(n=2, m_d=md)) for md in mds]
    assert all(a < b for a, b in zip(lam_m, lam_m[1:])), f"m_D sweep {lam_m}"

    mus = [0.01, 0.02, 0.04]
    lam_u = [lam_rows(ref_params(n=2, mu=mu)) for mu in mus]
    assert all(a < b for a, b in zip(lam_u, lam_u[1:])), f"mu sweep {lam_u}"

    # concavity in delta via divided second differences (grid is not uniform)
    second = []
    for k in range(1, len(deltas) - 1):
        left = (lam_d[k] - lam_d[k - 1]) / (deltas[k] - deltas[k - 1])
        right = (lam_d[k + 1] - lam_d[k]) / (deltas[k + 1] - deltas[k])
        second.append(right - left)
    assert all(s <= 1e-6 for s in second), f"second differences {second}"
    assert ladder_ok, "a box ladder produced an increasing lambda_L"
    print(f"criterion 4: PASS monotone in delta/m_D/mu; "
          f"max 2nd diff {max(second):.3g} (tol 1e-6); ladders nonincreasing")


def test_criterion_05_eigenfunction_mirror_structure_and_asymmetry():
    p = ref_params(n=1, delta=0.05, m_d=0.5)
    res = eigen.lambda_limit(p, *eigen.default_schedules(p))
    g = res.grid
    u1, u2 = res.eigenfield.u1, res.eigenfield.u2

    mirror_gap = float(np.max(np.abs(u1 - reflect_field(g, u2))))
    assert mirror_gap <= 1e-8, f"mirror gap {mirror_gap}"

    # on the far side of habitat 1's optimum, the eigenfunction is dominated
    # by its reflection across that optimum (bias toward the other habitat)
    beta = p.beta
    h = g.h
    c = (g.m - 1) // 2
    shift = round(2.0 * beta / h)
    assert abs(shift * h - 2.0 * beta) < 1e-12  # optimum sits on the node lattice
    tol = res.residual
    checked = strict = 0
    x = g.axis()
    for i in range(g.m):
        if x[i] > -beta + 1e-12:
            continue
        j = 2 * c - i - shift  # index of (-x - 2*beta)
        if not (0 <= j < g.m):
            continue
        checked += 1
        assert u1[i] <= u1[j] + tol, (
            f"asymmetry violated at x={x[i]}: {u1[i]} > {u1[j]} + {tol}")
        if u1[i] < u1[j] - tol:
            strict += 1
    assert checked > 0
    assert strict >= 1, "inequality never strict"
    print(f"criterion 5: PASS mirror gap {mirror_gap:.3g} (tol 1e-8); "
          f"asymmetry holds at {checked} nodes, strict at {strict}")


def test_criterion_06_growth_rate_matches_eigenvalue():
    # ln N slope over t in [30, 60] vs -lambda, within 5%, both signs
    bump = (pde.Bump(0.0, 1.0),)
    cfg = pde.SolverConfig(t_end=60.0, record_every=0.5)
    for label, rmax in (("persisting", 0.5), ("extinguishing", 0.1)):
        p = ref_params(n=1, delta=0.05, m_d=0.5, rmax=rmax, mu=0.25)
        lam = eigen.lambda_of(p)
        traj, _ = pde.integrate_to(p, pde.InitialData(bump, bump), cfg)
        sel = traj.t >= 30.0
        slope = np.polyfit(traj.t[sel], np.log(traj.n_total()[sel]), 1)[0]
        rel = abs(slope - (-lam)) / abs(lam)
        sign_ok = (lam < 0) if label == "persisting" else (lam > 0)
        assert sign_ok
        assert rel <= 0.05, f"{label}: slope {slope}, -lambda {-lam}, rel {rel}"
        print(f"criterion 6 ({label}): PASS slope vs -lambda rel err "
              f"{rel:.2e} (tol 5e-2)")


def test_criterion_07_growth_law_correspondence():
    # habitat mass under logistic growth vs the rescaled linear-growth mass,
    # max relative error <= 1e-4 over [0, 50], identical initial data
    p_mal = ref_params(n=1, delta=0.05, m_d=0.5)
    p_log = ref_params(n=1, delta=0.05, m_d=0.5, growth=model.GROWTH_LOGISTIC)
    bump = (pde.Bump(0.0, 1.0),)
    dt = 0.125
    cfg = pde.SolverConfig(t_end=50.0, record_every=dt)
    mal, _ = pde.integrate_to(p_mal, pde.InitialData(bump, bump), cfg)
    log, _ = pde.integrate_to(p_log, pde.InitialData(bump, bump), cfg)
    cum = np.concatenate([[0.0], np.cumsum((mal.N1[1:] + mal.N1[:-1]) * 0.5 * dt)])
    predicted = mal.N1 / (1.0 + cum)
    rel = float(np.max(np.abs(log.N1 - predicted) / predicted))
    assert rel <= 1e-4, f"max rel err {rel}"
    print(f"criterion 7: PASS max rel err {rel:.2e} (tol 1e-4)")


def test_criterion_08_logistic_plateau_report():
    # exploratory: persisting logistic mass at t=200 vs -lambda, 15% band,
    # reported as a warning rather than a failure when outside
    p = ref_params(n=1, delta=0.01, m_d=0.5, growth=model.GROWTH_LOGISTIC)
    lam = eigen.lambda_of(ref_params(n=1, delta=0.01, m_d=0.5))
    assert lam < 0
    bump = (pde.Bump(0.0, 0.02),)
    cfg = pde.SolverConfig(t_end=200.0, record_every=1.0)
    traj, _ = pde.integrate_to(p, pde.InitialData(bump, bump), cfg)
    n_end = float(traj.N1[-1])
    rel = (n_end - (-lam)) / (-lam)
    if abs(rel) <= 0.15:
        print(f"criterion 8: PASS N(200)={n_end:.6g} vs -lambda={-lam:.6g}, "
              f"rel {rel:+.2%} (band 15%)")
    else:
        warnings.warn(f"plateau off target: N(200)={n_end:.6g}, "
                      f"-lambda={-lam:.6g}, rel {rel:+.2%} (band 15%)")
        print(f"criterion 8: WARN rel {rel:+.2%} outside the 15% band")
    assert math.isfinite(n_end) and n_end > 0


def test_criterion_09_density_merging_at_large_migration():
    # sup gap between the habitat densities at t=1 shrinks as delta grows
    g = build_grid(1, 4.0, 129)
    data = pde.InitialData((pde.Bump(-0.5, 2.0),), (pde.Bump(0.3, 1.0),))
    cfg = pde.SolverConfig(t_end=1.0, record_every=1.0)
    gaps = {}
    for delta in (1.0, 10.0, 100.0):
        p = ref_params(n=1, delta=delta, m_d=0.5, mu=0.1)
        _, final = pde.integrate_to(p, data, cfg)
        u1, u2 = final.sample(g.axis())
        gaps[delta] = float(np.max(np.abs(u1 - u2)))
    assert gaps[1.0] > gaps[10.0] > gaps[100.0], f"gaps {gaps}"
    assert gaps[100.0] <= gaps[1.0] / 10.0, f"gaps {gaps}"
    print(f"criterion 9: PASS gaps {gaps[1.0]:.4g} > {gaps[10.0]:.4g} > "
          f"{gaps[100.0]:.4g}, ratio {gaps[100.0] / gaps[1.0]:.2e} (bar 0.1)")


def test_criterion_10_critical_parameter_bounds():
    base = ref_params(n=2, m_d=0.5)
    res_d = thresholds.find_threshold(base, "delta")
    floor_d = RMAX - MU  # n*mu/2 at n=2
    assert abs(res_d.lambda_at_value) <= 1e-12
    assert res_d.value > floor_d, f"delta_crit {res_d.value} vs floor {floor_d}"

    res_m = thresholds.find_threshold(ref_params(n=2, delta=0.1), "m_D")
    floor_m = 4.0 * (RMAX - MU)
    assert abs(res_m.lambda_at_value) <= 1e-12
    assert res_m.value > floor_m, f"m_D_crit {res_m.value} vs floor {floor_m}"
    print(f"criterion 10: PASS delta_crit={res_d.value:.6g} > {floor_d:.6g} "
          f"(|lambda|={abs(res_d.lambda_at_value):.2g}); "
          f"m_D_crit={res_m.value:.6g} > {floor_m:.6g} "
          f"(|lambda|={abs(res_m.lambda_at_value):.2g})")


@pytest.mark.slow
def test_criterion_11_desk_scale_phase_diagram():
    # 6x6 sweep over delta in [0, 0.1], m_D in [0, 1]: the persistence call
    # from the PDE final mass must agree with sign(lambda) in >= 34/36
    # cells, and the stochastic model with the PDE in >= 80% of cells
    t_start = time.perf_counter()
    deltas = np.linspace(0.0, 0.1, 6)
    mds = np.linspace(0.0, 1.0, 6)

    config = cli.ExperimentConfig(initial="spread", initial_mass=1e4,
                                  t_end=150.0, record_every=150.0,
                                  N0=1000, T=150, replicates=10)
    solver_cfg = cli.solver_config(config)

    pde_agree = ibm_agree = 0
    mismatches_pde = []
    mismatches_ibm = []
    for i, delta in enumerate(deltas):
        for j, md in enumerate(mds):
            params = cli.to_model_params(config, delta=float(delta), m_d=float(md))
            lam = eigen.lambda_of(params)

            state0 = cli.initial_state(config, params)
            traj, _ = pde.integrate_to(params, state0, solver_cfg)
            pde_persists = traj.n_total()[-1] > traj.n_total()[0]
            if pde_persists == (lam < 0):
                pde_agree += 1
            else:
                mismatches_pde.append((round(float(delta), 3), round(float(md), 3)))

            ip = cli.ibm_params(config, params)
            seeds = [[config.seed, i, j, k] for k in range(config.replicates)]
            summary = ibm.run_replicates(ip, seeds)
            t100 = int(np.searchsorted(summary.t, 100.0))
            ibm_persists = summary.n_total_mean[-1] > summary.n_total_mean[t100]
            if ibm_persists == pde_persists:
                ibm_agree += 1
            else:
                mismatches_ibm.append((round(float(delta), 3), round(float(md), 3)))

    elapsed = time.perf_counter() - t_start
    assert pde_agree >= 34, f"PDE vs sign(lambda): {pde_agree}/36, off at {mismatches_pde}"
    assert ibm_agree >= 0.8 * 36, f"IBM vs PDE: {ibm_agree}/36, off at {mismatches_ibm}"
    assert elapsed <= 900.0
    print(f"criterion 11: PASS PDE agreement {pde_agree}/36 (bar 34), "
          f"IBM agreement {ibm_agree}/36 (bar 29), {elapsed:.0f}s (bar 900); "
          f"IBM mismatches at {mismatches_ibm}")


def test_criterion_12_stochastic_model_statistics():
    n_ind = 100_000
    # mu^2 = 1/1800 and U = 1/6: each mutation has variance 1/300 per trait
    reference = model.ModelParams(n=2, mu=math.sqrt(1.0 / 1800.0), rmax1=RMAX, rmax2=RMAX,
                                  beta=0.5, migration=model.Symmetric(0.05))
    p = ibm.IbmParams(model=reference, U=1.0 / 6.0, N0=n_ind, T=0)

    # offspring mean vs exp(fitness), 3 standard errors, at two phenotypes
    for label, point in (("optimum", np.array([-0.5, 0.0])),
                         ("midpoint", np.array([0.0, 0.0]))):
        s = ibm.init_clonal(p, seed=2024)
        s.pop1 = np.tile(point, (n_ind, 1))
        s.pop2 = s.pop1.copy()
        r = RMAX - 0.5 * float(np.sum((point - np.array([-0.5, 0.0])) ** 2))
        ibm.reproduction_selection(s, p)
        mean = s.pop1.shape[0] / n_ind
        se = math.sqrt(math.exp(r) / n_ind)
        assert abs(mean - math.exp(r)) <= 3.0 * se, (
            f"{label}: mean {mean} vs {math.exp(r)} (3se {3 * se})")

    # per-trait mutation displacement variance vs U * lambda_var, within 5%
    s = ibm.init_clonal(p, seed=77)
    before = s.pop1.copy()
    ibm.mutation(s, p)
    var = (s.pop1 - before).var(axis=0)
    rel = float(np.max(np.abs(var - 1.0 / 1800.0) * 1800.0))
    assert rel <= 0.05, f"variance {var} vs 1/1800, rel {rel}"

    # migration conserves the total count exactly
    s = ibm.IbmState(pop1=np.zeros((1234, 2)), pop2=np.zeros((567, 2)),
                     generation=0, rng=np.random.default_rng(5))
    for _ in range(25):
        ibm.migration(s, p)
        assert s.pop1.shape[0] + s.pop2.shape[0] == 1234 + 567

    # fixed seed: bit-identical trajectories
    small = ibm.IbmParams(model=reference, U=1.0 / 6.0, N0=500, T=30)
    a = ibm.run(small, seed=9)
    b = ibm.run(small, seed=9)
    for name in ("t", "N1", "N2", "rbar1", "rbar2"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    print(f"criterion 12: PASS offspring mean within 3 SE at both test points; "
          f"mutation variance rel err {rel:.3f} (tol 0.05); migration count "
          f"conserved; fixed seed bit-identical")
